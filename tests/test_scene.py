"""Scene model, file interchange, and synthetic scenes: the two ways scenes arrive."""

import base64
import hashlib
import itertools
import json
import pickle
import re
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sceneqa import geometry
from sceneqa.errors import InvalidSpecError, SchemaViolationError
from sceneqa.pipeline import PipelineConfig, run_extract
from sceneqa.scene import (
    _PACK_SLICE_BYTES,
    AnalyticTruth,
    BoxSpec,
    DEFAULT_EXCLUDED_LABELS,
    Instance,
    PointSet,
    Scene,
    SyntheticSpec,
    generate_synthetic_scene,
    load_scene,
    random_indoor_spec,
    scene_from_dict,
    write_scene,
    write_truth,
)

from conftest import box_gap


def pack(values):
    """``points_b64`` for the coordinates ``values``, flattened row by row:
    base64 of little-endian float64."""
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


def scene_doc(scene):
    """The scene document that ``write_scene`` must serialise."""
    return {
        "scene_id": scene.scene_id,
        "instances": [
            {
                "instance_id": inst.instance_id,
                "label": inst.label,
                "points_b64": pack(inst.points.coords.ravel().tolist()),
            }
            for inst in scene.instances
        ],
    }


def legacy_doc(scene):
    """The same scene with its points as ``[x, y, z]`` lists, as scene files
    were written before points were packed."""
    doc = scene_doc(scene)
    for raw, inst in zip(doc["instances"], scene.instances):
        del raw["points_b64"]
        raw["points"] = inst.points.coords.tolist()
    return doc


def reference_bytes(scene):
    return (json.dumps(scene_doc(scene), indent=2, ensure_ascii=False) + "\n").encode()


def written_bytes(scene):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.scene.json"
        write_scene(scene, path)
        return path.read_bytes()


# Ids and labels with JSON escapes, control characters and non-ASCII text.
_TRICKY_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028é漢🙂'),
        st.characters(blacklist_categories=("Cs",)),
    ),
    min_size=1,
    max_size=12,
)
_COORD = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-05, 1e16, 1e300, -1e300,
                     1.0, -3.0, 1e22, 123456789.0, 0.1, 2.5e-7]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**53), 2**53).map(float),
)
_ROWS = st.lists(st.tuples(_COORD, _COORD, _COORD), min_size=1, max_size=6)


@st.composite
def scenes(draw):
    ids = draw(st.lists(_TRICKY_TEXT, min_size=1, max_size=4, unique=True))
    labels = draw(st.lists(
        _TRICKY_TEXT.filter(lambda t: t.strip()), min_size=len(ids), max_size=len(ids)))
    return Scene(draw(_TRICKY_TEXT), tuple(
        Instance(iid, label, PointSet(draw(_ROWS))) for iid, label in zip(ids, labels)
    ))


# Points in one slice of the writer's base64.
SLICE_POINTS = _PACK_SLICE_BYTES // 24


def sliced_scene(*sizes):
    """A scene with one instance of each point count in ``sizes``."""
    rng = np.random.default_rng(len(sizes))
    return Scene("sliced", tuple(
        Instance(f"i{k}", "box", PointSet(rng.normal(size=(n, 3)) * 1e3))
        for k, n in enumerate(sizes)
    ))


def make_scene():
    tri = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    far = [[5.0, 5.0, 5.0], [6.0, 5.0, 5.0]]
    return Scene("toy", (
        Instance("a", "Chair", PointSet(tri)),
        Instance("b", "table", PointSet(far)),
        Instance("c", "chair", PointSet([[2.0, 2.0, 2.0]])),
    ))


class TestPointSet:
    def test_rejects_wrong_shape(self):
        with pytest.raises(SchemaViolationError):
            PointSet([[1.0, 2.0]])
        with pytest.raises(SchemaViolationError):
            PointSet(np.zeros((0, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(SchemaViolationError):
            PointSet([[np.nan, 0.0, 0.0]])

    def test_coords_are_read_only_and_copied(self):
        src = np.asfortranarray(np.ones((2, 3)))
        ps = PointSet(src)
        src[0, 0] = 99.0
        assert ps.coords[0, 0] == 1.0
        assert ps.coords.flags.c_contiguous
        with pytest.raises(ValueError):
            ps.coords[0, 0] = 5.0

    def test_equality_is_by_value(self):
        assert PointSet([[1, 2, 3]]) == PointSet([[1.0, 2.0, 3.0]])
        assert PointSet([[1, 2, 3]]) != PointSet([[1, 2, 4]])

    @given(_ROWS)
    def test_bounds_are_the_per_axis_min_and_max(self, rows):
        ps = PointSet(rows)
        lo, hi = ps.bounds
        assert np.array_equal(lo, ps.coords.min(axis=0))
        assert np.array_equal(hi, ps.coords.max(axis=0))

    def test_bounds_are_read_only(self):
        lo, hi = PointSet([[0.0, 1.0, 2.0], [3.0, -4.0, 5.0]]).bounds
        for bound in (lo, hi):
            with pytest.raises(ValueError):
                bound[0] = 7.0

    def test_pickle_round_trip(self):
        ps = PointSet([[0.0, 1.0, 2.0], [3.0, -4.0, 5.0], [0.5, 0.5, 0.5]])
        back = pickle.loads(pickle.dumps(ps))
        assert back == ps
        assert all(np.array_equal(x, y) for x, y in zip(back.bounds, ps.bounds))
        for block in (back.coords, *back.bounds):
            assert not block.flags.writeable


class TestInstanceAndScene:
    def test_labels_normalize_to_lowercase(self):
        inst = Instance("x", "  Coffee Table ", PointSet([[0, 0, 0]]))
        assert inst.label == "coffee table"

    def test_empty_label_rejected(self):
        with pytest.raises(SchemaViolationError):
            Instance("x", "   ", PointSet([[0, 0, 0]]))

    def test_duplicate_instance_ids_rejected(self):
        p = PointSet([[0, 0, 0]])
        with pytest.raises(SchemaViolationError, match="duplicate"):
            Scene("s", (Instance("a", "chair", p), Instance("a", "table", p)))

    def test_default_excluded_labels(self):
        assert DEFAULT_EXCLUDED_LABELS == {"item", "object"}


class Count(int):
    pass


def rows_are_xyz(points):
    """The row-by-row check that ``scene_from_dict`` must agree with."""
    return all(
        isinstance(row, (list, tuple))
        and len(row) == 3
        and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in row)
        for row in points
    )


_NOT_A_NUMBER = st.sampled_from(
    [True, False, None, "1.0", [1, 2, 3], (), {}, np.int64(1), np.float32(2)])
_ANY_COORD = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**6), 10**6),
    st.sampled_from([np.float64(2.5), Count(4)]),
    _NOT_A_NUMBER,
)
_ANY_ROW = st.one_of(
    st.lists(_ANY_COORD, min_size=2, max_size=4),
    st.tuples(_ANY_COORD, _ANY_COORD, _ANY_COORD),
    _NOT_A_NUMBER,
)
NOT_XYZ = "every point must be [x, y, z] numbers"
NO_POINTS = "'points' must be a non-empty list"


class TestSceneInterchange:
    def test_round_trip_preserves_everything(self, tmp_path):
        scene = make_scene()
        path = tmp_path / "toy.scene.json"
        write_scene(scene, path)
        loaded = load_scene(path)
        assert loaded.scene_id == scene.scene_id
        assert [i.instance_id for i in loaded.instances] == ["a", "b", "c"]
        for a, b in zip(loaded.instances, scene.instances):
            assert a.label == b.label and a.points == b.points

    def test_schema_errors_name_the_path(self):
        with pytest.raises(SchemaViolationError, match="instances"):
            scene_from_dict({"scene_id": "s"}, source="f.json")
        with pytest.raises(SchemaViolationError, match="f.json"):
            scene_from_dict({"scene_id": "s", "instances": [{}]}, source="f.json")

    @pytest.mark.parametrize("doc, message", [
        ([], "scene document must be an object"),
        ({"scene_id": "s", "instances": ["chair"]}, "instance #0 is not an object"),
        ({"scene_id": "", "instances": []}, "'scene_id' must be a non-empty string"),
        ({"scene_id": 7, "instances": []}, "'scene_id' must be a non-empty string"),
        ({"scene_id": "s", "instances": [
            {"instance_id": "a", "label": 3, "points": [[0.0, 0.0, 0.0]]}]},
         "instance 'a': 'label' must be a string"),
    ], ids=["document", "instance", "empty-id", "int-id", "label"])
    def test_a_file_that_is_not_a_scene_is_refused_naming_it(self, tmp_path, doc,
                                                              message):
        path = tmp_path / "bad.scene.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(SchemaViolationError) as info:
            load_scene(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("points, message", [
        ([[True, 0.0, 0.0]], NOT_XYZ),
        ([[0.0, 1.0, False]], NOT_XYZ),
        ([[0.0, "1.0", 0.0]], NOT_XYZ),
        ([[0.0, 0.0, None]], NOT_XYZ),
        ([[0.0, 1.0]], NOT_XYZ),
        ([[0.0, 1.0, 2.0, 3.0]], NOT_XYZ),
        ([[0.0, 0.0, 0.0], [[1, 2, 3]]], NOT_XYZ),
        ([[[1, 2, 3], 0.0, 0.0]], NOT_XYZ),
        ([[0.0, 0.0, 0.0], "xyz"], NOT_XYZ),
        ([{"x": 0, "y": 0, "z": 0}], NOT_XYZ),
        ([{1.0: 0, 2.0: 0, 3.0: 0}], NOT_XYZ),
        ([np.array([1.0, 2.0, 3.0])], NOT_XYZ),
        ([7], NOT_XYZ),
        ([], NO_POINTS),
        ((0.0, 0.0, 0.0), NO_POINTS),
        (None, NO_POINTS),
    ])
    def test_bad_points_name_the_source_and_instance(self, points, message):
        doc = {"scene_id": "s", "instances": [
            {"instance_id": "ok", "label": "chair", "points": [[0, 0, 0]]},
            {"instance_id": "bad", "label": "table", "points": points},
        ]}
        with pytest.raises(SchemaViolationError) as info:
            scene_from_dict(doc, source="f.json")
        assert str(info.value) == f"f.json: instance 'bad': {message}"

    def test_number_subclasses_and_tuple_rows_are_accepted(self):
        scene = scene_from_dict({"scene_id": "s", "instances": [
            {"instance_id": "a", "label": "chair",
             "points": [(np.float64(0.5), 1, 2.0), [Count(3), 4.0, np.float64(5)]]},
        ]})
        assert scene.instances[0].points == PointSet([[0.5, 1, 2], [3, 4, 5]])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_ANY_ROW, min_size=1, max_size=5))
    def test_point_checks_agree_with_row_by_row_reference(self, points):
        doc = {"scene_id": "s", "instances": [
            {"instance_id": "a", "label": "chair", "points": points}]}
        if rows_are_xyz(points):
            assert len(scene_from_dict(doc).instances[0].points) == len(points)
        else:
            with pytest.raises(SchemaViolationError, match=re.escape(NOT_XYZ)):
                scene_from_dict(doc)

    @settings(max_examples=150, deadline=None)
    @given(scenes())
    @example(Scene('"\\', (Instance("\x00\u2028", "é 漢", PointSet(
        [[-0.0, 5e-324, 1e-05], [1e16, 1e300, -1e300], [1.0, 2.0, -3.0]])),)))
    @example(sliced_scene(SLICE_POINTS))                 # exactly one slice
    @example(sliced_scene(SLICE_POINTS - 1))             # a slice less 24 bytes
    @example(sliced_scene(SLICE_POINTS + 1))             # a slice and 24 bytes
    @example(sliced_scene(3 * SLICE_POINTS + 5, 2))      # several slices
    @example(sliced_scene(1))                            # a single point
    def test_written_bytes_equal_json_dumps_of_the_document(self, scene):
        assert written_bytes(scene) == reference_bytes(scene)

    def test_dense_scene_bytes_equal_json_dumps_of_the_document(self):
        spec = SyntheticSpec("dense", (
            BoxSpec("bed", (2.0, 3.0, 0.4), (2.0, 1.6, 0.8), n_points=5000),
            BoxSpec("lamp", (-4.25, 7.5, 1.5), (0.3, 0.3, 3.0), n_points=5000),
        ))
        scene, _ = generate_synthetic_scene(spec, seed=11)
        assert written_bytes(scene) == reference_bytes(scene)

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "toy.scene.json"
        write_scene(make_scene(), path)
        before = path.read_bytes()

        def interrupted(*_args):
            raise RuntimeError("interrupted")

        # Once while the document is built, once after the temporary file is
        # complete but before it replaces the old one.
        with monkeypatch.context() as patch:
            patch.setattr(PointSet, "coords", property(interrupted))
            with pytest.raises(RuntimeError, match="interrupted"):
                write_scene(make_scene(), path)
        monkeypatch.setattr("sceneqa.util.os.replace", interrupted)
        with pytest.raises(RuntimeError, match="interrupted"):
            write_scene(make_scene(), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["toy.scene.json"]

    def test_write_interrupted_inside_an_instance_keeps_previous_file(
            self, tmp_path, monkeypatch):
        path = tmp_path / "toy.scene.json"
        write_scene(make_scene(), path)
        before = path.read_bytes()
        encoded = []
        real = base64.b64encode

        def b64encode(data):
            encoded.append(len(data))
            if len(encoded) == 3:   # the second instance's second slice
                raise RuntimeError("interrupted")
            return real(data)

        monkeypatch.setattr(base64, "b64encode", b64encode)
        with pytest.raises(RuntimeError, match="interrupted"):
            write_scene(sliced_scene(1, 2 * SLICE_POINTS), path)
        assert encoded == [24, _PACK_SLICE_BYTES, _PACK_SLICE_BYTES]
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["toy.scene.json"]

    def test_write_holds_no_copy_of_the_scene(self, tmp_path):
        # Streamed, the writer needs one slice's encodings; the allowance is
        # one instance's coordinates plus 1 MiB.  Building the whole document
        # took about five times the scene's coordinates.
        scene = sliced_scene(*[50_000] * 4)
        largest = max(inst.points.coords.nbytes for inst in scene.instances)
        tracemalloc.start()
        try:
            write_scene(scene, tmp_path / "s.scene.json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= largest + 2**20


class TestPackedPoints:
    @settings(max_examples=150, deadline=None)
    @given(_ROWS)
    @example([(-0.0, 5e-324, -5e-324), (1e300, -1e300, 0.0)])
    def test_round_trip_is_bit_exact(self, rows):
        scene = Scene("s", (Instance("a", "chair", PointSet(rows)),))
        loaded = scene_from_dict(json.loads(written_bytes(scene)))
        want = np.array(rows, dtype=np.float64)
        got = loaded.instances[0].points.coords
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_payload_is_row_major_little_endian(self):
        doc = {"scene_id": "s", "instances": [{"instance_id": "a", "label": "chair",
               "points_b64": pack([1.0, 2.0, 3.0, -4.0, 5.5, 6.25])}]}
        coords = scene_from_dict(doc).instances[0].points.coords
        assert coords.tolist() == [[1.0, 2.0, 3.0], [-4.0, 5.5, 6.25]]

    @pytest.mark.parametrize("entry, message", [
        ({"points_b64": 12}, "'points_b64' must be a base64 string"),
        ({"points_b64": None}, "'points_b64' must be a base64 string"),
        ({"points_b64": [pack([0.0] * 3)]}, "'points_b64' must be a base64 string"),
        ({"points_b64": pack([0.0] * 3)[:-1] + "*"}, "not valid base64"),
        ({"points_b64": " " + pack([0.0] * 3)}, "not valid base64"),
        ({"points_b64": "\u00e9" * 4}, "not valid base64"),
        ({"points_b64": ""}, "holds 0 bytes"),
        ({"points_b64": base64.b64encode(bytes(16)).decode()}, "holds 16 bytes"),
        ({"points_b64": base64.b64encode(bytes(25)).decode()}, "holds 25 bytes"),
        ({"points_b64": base64.b64encode(bytes(47)).decode()}, "holds 47 bytes"),
        ({"points_b64": pack([0.0] * 3), "points": [[0.0, 0.0, 0.0]]},
         "exactly one of 'points' and 'points_b64'"),
        ({}, "exactly one of 'points' and 'points_b64'"),
        ({"points_b64": pack([0.0, float("nan"), 0.0])}, "non-finite"),
        ({"points_b64": pack([1.0, 2.0, 3.0, float("-inf"), 0.0, 0.0])},
         "non-finite"),
    ])
    def test_rejections_name_the_source_and_instance(self, entry, message):
        doc = {"scene_id": "s", "instances": [
            {"instance_id": "ok", "label": "chair", "points_b64": pack([0.0] * 3)},
            {"instance_id": "bad", "label": "table", **entry},
        ]}
        with pytest.raises(SchemaViolationError) as info:
            scene_from_dict(doc, source="f.json")
        assert str(info.value).startswith("f.json: instance 'bad': ")
        assert message in str(info.value)

    def test_legacy_lists_load_and_extract_the_same(self, tmp_path):
        spec = SyntheticSpec("mixed", (
            BoxSpec("bed", (2.0, 3.0, 0.4), (2.0, 1.6, 0.8), n_points=40),
            BoxSpec("lamp", (-4.25, 7.5, 1.5), (0.3, 0.3, 3.0), n_points=31),
            BoxSpec("desk", (0.1, -2.0, 0.35), (1.2, 0.6, 0.7), n_points=9),
        ))
        scene, _ = generate_synthetic_scene(spec, seed=5)
        tables = {}
        for layout in ("legacy", "packed"):
            scenes = tmp_path / layout / "scenes"
            scenes.mkdir(parents=True)
            path = scenes / "mixed.scene.json"
            if layout == "legacy":
                path.write_text(json.dumps(legacy_doc(scene), indent=2) + "\n")
            else:
                write_scene(scene, path)
            loaded = load_scene(path)
            assert [i.points for i in loaded.instances] == [i.points for i in scene.instances]
            (table,) = run_extract(PipelineConfig(
                out_dir=str(tmp_path / layout), scenes=str(scenes / "*.scene.json")))
            tables[layout] = table.read_bytes()
        assert tables["legacy"] == tables["packed"]


class TestBoxGap:
    def test_separated_along_one_axis(self):
        assert box_gap([0, 0, 0], [1, 1, 1], [3, 0, 0], [4, 1, 1]) == 2.0

    def test_diagonal_separation(self):
        gap = box_gap([0, 0, 0], [1, 1, 1], [2, 2, 2], [3, 3, 3])
        assert gap == pytest.approx(np.sqrt(3.0), abs=1e-15)

    def test_touching_and_overlapping_boxes(self):
        assert box_gap([0, 0, 0], [1, 1, 1], [1, 0, 0], [2, 1, 1]) == 0.0
        assert box_gap([0, 0, 0], [2, 2, 2], [1, 1, 1], [3, 3, 3]) == 0.0

    @staticmethod
    def _numpy_box_gap(lo1, hi1, lo2, hi2) -> float:
        """The numpy form ``box_gap`` replaced, kept as the reference."""
        lo1, hi1 = np.asarray(lo1, float), np.asarray(hi1, float)
        lo2, hi2 = np.asarray(lo2, float), np.asarray(hi2, float)
        per_axis = np.maximum(0.0, np.maximum(lo1 - hi2, lo2 - hi1))
        return float(np.sqrt(np.sum(per_axis * per_axis)))

    _CORNER = st.tuples(*[st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, 0.1, 1.0, -2.5]),
        st.floats(-1e6, 1e6),
    )] * 3)
    _DIMS = st.tuples(*[st.one_of(st.just(0.0), st.floats(0.0, 1e6))] * 3)

    @given(_CORNER, _DIMS, _CORNER, _DIMS, st.sampled_from([list, tuple, np.array]))
    @example((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (1.0, 0.0, 0.0), (1.0, 1.0, 1.0), list)
    @example((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), (1.0, 1.0, 1.0), (2.0, 2.0, 2.0), tuple)
    @example((0.1, 0.2, 0.3), (1.1, 1.2, 1.3), (3.7, 2.9, 4.4), (1.0, 1.0, 1.0), np.array)
    def test_bitwise_equal_to_numpy_form(self, lo1, dims1, lo2, dims2, kind):
        """Overlapping, touching and separated boxes given as lists, tuples
        or arrays: the float result has the numpy form's exact bits."""
        hi1 = tuple(a + d for a, d in zip(lo1, dims1))
        hi2 = tuple(a + d for a, d in zip(lo2, dims2))
        args = [kind(v) for v in (lo1, hi1, lo2, hi2)]
        got, want = box_gap(*args), self._numpy_box_gap(*args)
        assert type(got) is float
        assert struct.pack("<d", got) == struct.pack("<d", want)


class TestSyntheticScenes:
    SPEC = SyntheticSpec(
        scene_id="lab",
        boxes=(
            BoxSpec("bed", center=(1.0, 2.0, 0.415), dims=(1.98, 2.32, 0.83)),
            BoxSpec("Desk", center=(5.0, 5.0, 0.5), dims=(1.0, 2.0, 1.0), n_points=9),
        ),
    )

    def test_sampled_aabb_equals_declared_exactly(self):
        scene, truth = generate_synthetic_scene(self.SPEC, seed=11)
        for inst in scene.instances:
            t = truth.instances[inst.instance_id]
            bbox = geometry.aabb(inst.points)
            assert bbox.min_corner == t.aabb_min
            assert bbox.max_corner == t.aabb_max
            assert bbox.extents == t.dims
            assert geometry.aabb_volume(bbox) == t.volume

    def test_truth_does_not_call_the_geometry_it_checks(self, monkeypatch):
        """Truth comes from the declared boxes, so extraction's ``aabb`` is
        compared with an independent value, not with itself."""
        _, expected = generate_synthetic_scene(self.SPEC, seed=11)

        def refuse(points):
            raise AssertionError("truth must not measure the sampled points")

        monkeypatch.setattr(geometry, "aabb", refuse)
        _, truth = generate_synthetic_scene(self.SPEC, seed=11)
        assert truth == expected

    def test_centroid_sits_on_declared_center(self):
        scene, truth = generate_synthetic_scene(self.SPEC, seed=11)
        for inst in scene.instances:
            t = truth.instances[inst.instance_id]
            c = geometry.centroid(inst.points)
            np.testing.assert_allclose(c, t.centroid, atol=1e-9)

    def test_box_gaps_match_hull_distance(self):
        scene, truth = generate_synthetic_scene(self.SPEC, seed=11)
        by_id = {i.instance_id: i for i in scene.instances}
        for (ia, ib), expected in truth.box_gaps.items():
            got = geometry.hull_distance(by_id[ia].points, by_id[ib].points)
            assert got.distance == pytest.approx(expected, abs=1e-9)

    def test_same_seed_same_scene(self):
        s1, _ = generate_synthetic_scene(self.SPEC, seed=11)
        s2, _ = generate_synthetic_scene(self.SPEC, seed=11)
        for a, b in zip(s1.instances, s2.instances):
            assert a.points == b.points

    def test_bed_volume_matches_hand_computation(self):
        _, truth = generate_synthetic_scene(self.SPEC, seed=11)
        bed = next(t for t in truth.instances.values() if t.label == "bed")
        assert bed.volume == pytest.approx(1.98 * 2.32 * 0.83, rel=1e-12)

    def test_invalid_specs_are_rejected(self):
        with pytest.raises(InvalidSpecError):
            generate_synthetic_scene(SyntheticSpec(scene_id="x"), seed=0)
        with pytest.raises(InvalidSpecError, match="dims"):
            generate_synthetic_scene(SyntheticSpec(
                scene_id="x", boxes=(BoxSpec("a", (0, 0, 0), (1.0, -1.0, 1.0)),)
            ), seed=0)


def scalar_gaps(truth):
    """``truth``'s instance boxes' gaps, one pair at a time by the scalar
    reference, keyed and ordered as ``generate_synthetic_scene`` keys them."""
    boxes = list(truth.instances.values())
    return {tuple(sorted((a.instance_id, b.instance_id))):
            box_gap(a.aabb_min, a.aabb_max, b.aabb_min, b.aabb_max)
            for a, b in itertools.combinations(boxes, 2)}


def assert_same_gaps(truth):
    """The gaps equal the scalar reference's bit for bit, under the same
    keys in the same order."""
    want = scalar_gaps(truth)
    assert list(truth.box_gaps) == list(want)
    got = np.array(list(truth.box_gaps.values()), dtype=np.float64)
    assert got.view(np.uint64).tolist() == np.array(list(want.values())).view(np.uint64).tolist()


class TestVectorisedGaps:
    """``generate_synthetic_scene`` computes all gaps of a scene in one array
    expression; each must be the scalar form's, bit for bit."""

    def test_boxes_far_from_the_origin(self):
        rng = np.random.default_rng(7)
        spec = SyntheticSpec("far", tuple(
            BoxSpec(f"b{k}", tuple((1e4 + rng.uniform(-6, 6, 3)).tolist()),
                    tuple(rng.uniform(0.05, 3.0, 3).tolist()), n_points=8)
            for k in range(60)))
        _, truth = generate_synthetic_scene(spec, seed=3)
        gaps = list(truth.box_gaps.values())
        assert min(gaps) == 0.0 < max(gaps)  # overlapping and separated pairs
        assert_same_gaps(truth)

    def test_touching_and_overlapping_boxes_are_exactly_zero(self):
        spec = SyntheticSpec("touch", (
            BoxSpec("a", (0.5, 0.5, 0.5), (1.0, 1.0, 1.0), n_points=8),
            BoxSpec("face", (1.5, 0.5, 0.5), (1.0, 1.0, 1.0), n_points=8),
            BoxSpec("corner", (-0.5, -0.5, -0.5), (1.0, 1.0, 1.0), n_points=8),
            BoxSpec("inside", (0.75, 0.5, 0.25), (0.5, 0.5, 0.5), n_points=8),
            BoxSpec("away", (4.5, 0.5, 0.5), (1.0, 1.0, 1.0), n_points=8),
        ))
        _, truth = generate_synthetic_scene(spec, seed=0)
        for pair in (("o000", "o001"), ("o000", "o002"), ("o000", "o003"),
                     ("o001", "o003")):
            assert struct.pack("<d", truth.box_gaps[pair]) == struct.pack("<d", 0.0)
        assert truth.box_gaps[("o000", "o004")] == 3.0
        assert_same_gaps(truth)

    def test_mixed_point_counts_keep_their_points(self):
        """Boxes of 8, odd and even point counts: the gaps match, and every
        box draws the points it drew when gaps were computed a pair at a
        time (digest of the ids and ``<f8`` coordinates from then)."""
        spec = SyntheticSpec("mixed", tuple(
            BoxSpec(f"box{k}", (1e4 + 1.5 * k, -1e4 + 0.25 * k, 0.5 + 0.1 * k),
                    (1.0 + 0.3 * k, 0.75, 1.0 + 0.05 * k), n_points=n)
            for k, n in enumerate((8, 9, 10, 23, 24, 8, 101, 64))))
        scene, truth = generate_synthetic_scene(spec, seed=2024)
        digest = hashlib.sha256()
        for inst in scene.instances:
            digest.update(inst.instance_id.encode())
            digest.update(np.ascontiguousarray(inst.points.coords, "<f8").tobytes())
        assert digest.hexdigest() == (
            "b3a6e9a726f0c8b9faa2c12b2fc549fb0415bda30dde22c8428df54d8f202357")
        assert_same_gaps(truth)

    def test_ids_past_o999_keep_sorted_keys(self):
        spec = SyntheticSpec("big", tuple(
            BoxSpec("crate", (2.0 * (k % 40), 2.0 * (k // 40), 0.5), (1.0, 1.5, 1.0),
                    n_points=8)
            for k in range(1001)))
        _, truth = generate_synthetic_scene(spec, seed=5)
        assert ("o1000", "o999") in truth.box_gaps  # "o1000" < "o999"
        assert ("o999", "o1000") not in truth.box_gaps
        assert_same_gaps(truth)


def truth_doc(truth):
    """The document ``write_truth`` must serialise, built by hand."""
    return {
        "instances": [
            {"instance_id": t.instance_id, "label": t.label, "centroid": list(t.centroid),
             "aabb_min": list(t.aabb_min), "aabb_max": list(t.aabb_max),
             "dims": list(t.dims), "volume": t.volume}
            for t in truth.instances.values()
        ],
        "box_gaps": [{"a": a, "b": b, "distance": d}
                     for (a, b), d in sorted(truth.box_gaps.items())],
    }


class TestTruthFile:
    @pytest.mark.parametrize("boxes", [
        (BoxSpec("bed", (1.0, 2.0, 0.415), (1.98, 2.32, 0.83)),
         BoxSpec("Desk", (5.0, 5.0, 0.5), (1.0, 2.0, 1.0), n_points=9),
         BoxSpec('the "tall" café lamp \\ ü', (-0.0, 1e16, 5e-324), (0.5, 4.0, 1.0))),
        (BoxSpec("lonely", (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),),
    ], ids=["three-boxes", "one-box"])
    def test_bytes_equal_json_dumps_of_the_document(self, tmp_path, boxes):
        _, truth = generate_synthetic_scene(SyntheticSpec("lab", boxes), seed=11)
        path = tmp_path / "lab.truth.json"
        write_truth("lab", truth, path)
        expected = json.dumps(truth_doc(truth), indent=2, ensure_ascii=False) + "\n"
        assert path.read_text(encoding="utf-8") == expected

    def test_a_non_finite_gap_is_not_written(self, tmp_path):
        _, truth = generate_synthetic_scene(TestSyntheticScenes.SPEC, seed=11)
        path = tmp_path / "lab.truth.json"
        write_truth("lab", truth, path)
        before = path.read_bytes()
        bad = AnalyticTruth(truth.instances, {("o000", "o001"): float("nan")})
        with pytest.raises(SchemaViolationError,
                           match=re.escape(f"{path}: scene 'lab': box_gaps[0]: nan is not")):
            write_truth("lab", bad, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["lab.truth.json"]


class TestRandomIndoorSpec:
    def test_shape_of_generated_spec(self):
        rng = np.random.default_rng(5)
        spec = random_indoor_spec("s0", rng)
        assert len(spec.boxes) == 41
        labels = [b.label for b in spec.boxes]
        assert "object" in labels  # one uninformative instance to filter out
        informative = [lab for lab in labels if lab not in DEFAULT_EXCLUDED_LABELS]
        assert len(informative) == 40

    def test_boxes_sit_on_the_floor(self):
        rng = np.random.default_rng(5)
        spec = random_indoor_spec("s0", rng)
        for box in spec.boxes:
            assert box.center[2] == pytest.approx(box.dims[2] / 2)

    def test_duplicate_label_structure_supports_count_questions(self):
        rng = np.random.default_rng(5)
        spec = random_indoor_spec("s0", rng)
        counts = {}
        for box in spec.boxes:
            counts[box.label] = counts.get(box.label, 0) + 1
        assert max(counts.values()) >= 2  # some labels repeat by design
