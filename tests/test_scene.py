"""Scene model, file interchange, scan-triplet import, and synthetic scenes."""

import base64
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
from sceneqa.errors import (
    InconsistentTripletError,
    InvalidSpecError,
    MalformedFileError,
    SchemaViolationError,
)
from sceneqa.pipeline import PipelineConfig, run_extract
from sceneqa.scene import (
    _PACK_SLICE_BYTES,
    BoxSpec,
    DEFAULT_EXCLUDED_LABELS,
    Instance,
    PointSet,
    Scene,
    SyntheticSpec,
    box_gap,
    generate_synthetic_scene,
    import_scan_triplet,
    load_scene,
    random_indoor_spec,
    read_ply_vertices,
    scene_from_dict,
    write_scene,
)


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


def write_ascii_ply(path, vertices, extra_cols=False):
    cols = "property float x\nproperty float y\nproperty float z\n"
    if extra_cols:
        cols += "property uchar red\n"
    path.write_bytes((
        "ply\nformat ascii 1.0\ncomment test fixture\n"
        f"element vertex {len(vertices)}\n{cols}"
        "element face 1\nproperty list uchar int vertex_indices\n"
        "end_header\n"
    ).encode() + b"".join(
        (" ".join(f"{v:.6f}" for v in row) + (" 7" if extra_cols else "") + "\n").encode()
        for row in vertices
    ) + b"3 0 1 2\n")


def write_binary_ply(path, vertices):
    header = (
        "ply\nformat binary_little_endian 1.0\n"
        f"element vertex {len(vertices)}\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "end_header\n"
    ).encode()
    body = b"".join(
        struct.pack("<fffBBB", *row, 1, 2, 3) for row in vertices
    )
    path.write_bytes(header + body)


class TestPlyReader:
    VERTS = [(0.0, 0.5, 1.0), (2.0, -1.0, 0.25), (3.5, 3.5, 3.5)]

    def test_ascii_with_extra_columns(self, tmp_path):
        path = tmp_path / "m.ply"
        write_ascii_ply(path, self.VERTS, extra_cols=True)
        out = read_ply_vertices(path)
        np.testing.assert_allclose(out, self.VERTS, atol=1e-6)

    def test_binary_little_endian_with_color(self, tmp_path):
        path = tmp_path / "m.ply"
        write_binary_ply(path, self.VERTS)
        out = read_ply_vertices(path)
        np.testing.assert_allclose(out, self.VERTS, atol=1e-6)

    def test_not_a_ply(self, tmp_path):
        path = tmp_path / "m.ply"
        path.write_bytes(b"OFF\n1 2 3\n")
        with pytest.raises(MalformedFileError, match="PLY"):
            read_ply_vertices(path)

    def test_truncated_binary_payload(self, tmp_path):
        path = tmp_path / "m.ply"
        write_binary_ply(path, self.VERTS)
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(MalformedFileError, match="truncated"):
            read_ply_vertices(path)

    def test_ascii_coordinates_equal_python_float_parse(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(10_000, 3)) * 10.0 ** rng.integers(-12, 13, (10_000, 3))
        formats = (repr, "{:.6f}".format, "{:.9e}".format, "{:g}".format)
        rows = [[formats[(k + axis) % 4](v) for axis, v in enumerate(row)]
                for k, row in enumerate(values.tolist())]
        path = tmp_path / "m.ply"
        path.write_bytes((
            "ply\nformat ascii 1.0\n"
            f"element vertex {len(rows)}\n"
            "property float x\nproperty uchar red\nproperty float y\n"
            "property float z\nproperty float nx\n"
            "element face 1\nproperty list uchar int vertex_indices\n"
            "end_header\n"
            + "".join(f"{x} 7 {y} {z} 0.5\n" + ("\n" if k == 100 else "")
                      for k, (x, y, z) in enumerate(rows))
            + "3 0 1 2\n"
        ).encode())
        want = np.array([[float(v) for v in row] for row in rows])
        got = read_ply_vertices(path)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    ASCII_HEADER = (b"ply\nformat ascii 1.0\nelement vertex 3\n"
                    b"property float x\nproperty float y\nproperty float z\nend_header\n")

    def test_truncated_ascii_rows(self, tmp_path):
        path = tmp_path / "m.ply"
        path.write_bytes(self.ASCII_HEADER + b"0 0 0\n\n1 1 1\n")
        with pytest.raises(MalformedFileError, match="truncated"):
            read_ply_vertices(path)

    @pytest.mark.parametrize("row", [b"2 2", b"2 two 2"])
    def test_bad_ascii_row(self, tmp_path, row):
        path = tmp_path / "m.ply"
        path.write_bytes(self.ASCII_HEADER + b"0 0 0\n1 1 1\n" + row + b"\n")
        with pytest.raises(MalformedFileError, match="bad vertex row"):
            read_ply_vertices(path)

    @pytest.mark.parametrize("fmt,at,bad", [
        ("ascii", 0, "format"),
        ("ascii", 1, "element vertex"),
        ("ascii", 2, "property float"),
        ("ascii", 1, "element vertex abc"),
        ("ascii", 1, "element vertex -1"),
        ("binary_little_endian", 2, "property half x"),
        ("binary_little_endian", 1, "element vertex -1"),
    ])
    def test_bad_header_line(self, tmp_path, fmt, at, bad):
        """A header line with missing fields, a count that is not a
        non-negative integer or a type PLY does not define is refused,
        naming the line, before any vertex data is read."""
        lines = [f"format {fmt} 1.0", "element vertex 3", "property float x",
                 "property float y", "property float z"]
        lines[at] = bad
        path = tmp_path / "m.ply"
        path.write_text("\n".join(["ply", *lines, "end_header", "0 0 0", "1 1 1", "2 2 2"]))
        with pytest.raises(MalformedFileError, match=re.escape(f"bad PLY header line {bad!r}")):
            read_ply_vertices(path)

    def test_missing_axis_property(self, tmp_path):
        path = tmp_path / "m.ply"
        path.write_bytes(
            b"ply\nformat ascii 1.0\nelement vertex 1\n"
            b"property float x\nproperty float y\nend_header\n0 0\n"
        )
        with pytest.raises(MalformedFileError, match="'z'"):
            read_ply_vertices(path)


class TestScanTripletImport:
    def _write_triplet(self, tmp_path, seg_indices, seg_groups, n_vertices=6):
        vertices = [(float(i), float(i) / 2, 0.0) for i in range(n_vertices)]
        mesh = tmp_path / "scan.ply"
        write_ascii_ply(mesh, vertices)
        seg = tmp_path / "scan.segs.json"
        seg.write_text(json.dumps({"segIndices": seg_indices}))
        agg = tmp_path / "scan.agg.json"
        agg.write_text(json.dumps({"segGroups": seg_groups}))
        return mesh, agg, seg

    def test_assembles_instances_from_segments(self, tmp_path):
        mesh, agg, seg = self._write_triplet(
            tmp_path,
            seg_indices=[10, 10, 11, 12, 12, 12],
            seg_groups=[
                {"objectId": 0, "label": "Chair", "segments": [10, 11]},
                {"objectId": 1, "label": "table", "segments": [12]},
            ],
        )
        scene = import_scan_triplet(mesh, agg, seg)
        assert scene.scene_id == "scan"
        by_id = {i.instance_id: i for i in scene.instances}
        assert by_id["0"].label == "chair"
        assert len(by_id["0"].points) == 3
        assert len(by_id["1"].points) == 3
        np.testing.assert_allclose(by_id["1"].points.coords[:, 0], [3.0, 4.0, 5.0])

    def test_vertex_count_mismatch(self, tmp_path):
        mesh, agg, seg = self._write_triplet(
            tmp_path, seg_indices=[10, 10], seg_groups=[]
        )
        with pytest.raises(InconsistentTripletError, match="segment entries"):
            import_scan_triplet(mesh, agg, seg)

    def test_unknown_segment(self, tmp_path):
        mesh, agg, seg = self._write_triplet(
            tmp_path,
            seg_indices=[10] * 6,
            seg_groups=[{"objectId": 0, "label": "chair", "segments": [99]}],
        )
        with pytest.raises(InconsistentTripletError, match="99"):
            import_scan_triplet(mesh, agg, seg)

    def test_doubly_claimed_segment(self, tmp_path):
        mesh, agg, seg = self._write_triplet(
            tmp_path,
            seg_indices=[10, 10, 10, 11, 11, 11],
            seg_groups=[
                {"objectId": 0, "label": "chair", "segments": [10]},
                {"objectId": 1, "label": "table", "segments": [10, 11]},
            ],
        )
        with pytest.raises(InconsistentTripletError, match="more than one"):
            import_scan_triplet(mesh, agg, seg)

    def test_duplicate_object_id(self, tmp_path):
        mesh, agg, seg = self._write_triplet(
            tmp_path,
            seg_indices=[10, 10, 10, 11, 11, 11],
            seg_groups=[
                {"objectId": 0, "label": "chair", "segments": [10]},
                {"objectId": 0, "label": "table", "segments": [11]},
            ],
        )
        with pytest.raises(InconsistentTripletError, match="duplicate objectId"):
            import_scan_triplet(mesh, agg, seg)


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
