"""Ground-truth table extraction and its file format."""

import itertools
import json
import math
import re

import numpy as np
import pytest

from sceneqa import geometry
from sceneqa.audit import selfcheck
from sceneqa.errors import EmptyAfterFilterError, NotConvergedError, SchemaViolationError
from sceneqa.ngt import NgtTable, extract_ngt, ngt_from_dict, pair_key, read_ngt, write_ngt
from sceneqa.rulegen import generate_rule_dataset
from sceneqa.scene import Instance, InstanceMeasurement, PointSet, Scene
from sceneqa.templates import CAT_DISTANCE, TASK_NI

from conftest import MASTER_SEED


def unit_box_points(offset):
    corners = np.array(np.meshgrid([0, 1], [0, 1], [0, 1])).T.reshape(-1, 3)
    return corners.astype(float) + np.asarray(offset, dtype=float)


def ngt_doc(table):
    """The document ``write_ngt`` must serialise, built by hand."""
    return {
        "scene_id": table.scene_id,
        "instances": [
            {"instance_id": inst.instance_id, "label": inst.label,
             "centroid": list(inst.centroid), "aabb_min": list(inst.aabb_min),
             "aabb_max": list(inst.aabb_max), "dims": list(inst.dims),
             "volume": inst.volume}
            for inst in table.instances
        ],
        "pairs": [{"a": a, "b": b, "distance": d} for (a, b), d in sorted(table.pairs.items())],
        "skipped_pairs": [{"a": a, "b": b, "reason": reason}
                          for a, b, reason in table.skipped_pairs],
    }


@pytest.fixture()
def toy_scene():
    return Scene("toy", (
        Instance("i2", "chair", PointSet(unit_box_points([0, 0, 0]))),
        Instance("i0", "table", PointSet(unit_box_points([3, 0, 0]))),
        Instance("i1", "chair", PointSet(unit_box_points([0, 5, 0]))),
        Instance("junk", "object", PointSet([[99.0, 99.0, 99.0]])),
    ))


class TestExtraction:
    def test_excluded_labels_are_dropped(self, toy_scene):
        table = extract_ngt(toy_scene)
        assert [i.instance_id for i in table.instances] == ["i0", "i1", "i2"]
        assert "object" not in table.label_counts()

    def test_measurements_match_hand_values(self, toy_scene):
        table = extract_ngt(toy_scene)
        chair = table.instances[2]
        assert chair.instance_id == "i2"
        assert chair.aabb_min == (0.0, 0.0, 0.0)
        assert chair.aabb_max == (1.0, 1.0, 1.0)
        assert chair.dims == (1.0, 1.0, 1.0)
        assert chair.volume == 1.0
        assert chair.centroid == (0.5, 0.5, 0.5)

    def test_pair_distances_cover_all_pairs(self, toy_scene):
        table = extract_ngt(toy_scene)
        assert len(table.pairs) == 3
        assert table.distance("i0", "i2") == pytest.approx(2.0, abs=1e-9)
        assert table.distance("i1", "i2") == pytest.approx(4.0, abs=1e-9)
        gap = table.distance("i0", "i1")
        assert gap == pytest.approx(math.hypot(2.0, 4.0), abs=1e-9)

    def test_distance_lookup_is_symmetric(self, toy_scene):
        table = extract_ngt(toy_scene)
        assert table.distance("i0", "i2") == table.distance("i2", "i0")
        assert table.has_pair("i2", "i0")

    def test_unique_label_instances(self, toy_scene):
        table = extract_ngt(toy_scene)
        unique = table.unique_label_instances()
        assert set(unique) == {"table"}  # two chairs are ambiguous referents

    def test_all_excluded_raises(self, toy_scene):
        with pytest.raises(EmptyAfterFilterError):
            extract_ngt(toy_scene, excluded_labels={"chair", "table", "object"})

    def test_label_counts(self, toy_scene):
        assert extract_ngt(toy_scene).label_counts() == {"chair": 2, "table": 1}

    def test_label_lookups_are_read_only(self, toy_scene):
        table = extract_ngt(toy_scene)
        counts, unique = table.label_counts(), table.unique_label_instances()
        with pytest.raises(TypeError):
            counts["chair"] = 7
        with pytest.raises(TypeError):
            unique["chair"] = table.instances[1]
        with pytest.raises(TypeError):
            del unique["table"]
        assert table.label_counts() == {"chair": 2, "table": 1}
        assert set(table.unique_label_instances()) == {"table"}

    def test_label_lookups_survive_a_file_round_trip(self, toy_scene, tmp_path):
        table = extract_ngt(toy_scene)
        write_ngt(table, tmp_path / "toy.ngt.json")
        back = read_ngt(tmp_path / "toy.ngt.json")
        assert back.label_counts() == table.label_counts()
        assert back.unique_label_instances() == table.unique_label_instances()


class TestPairKey:
    def test_orders_ids(self):
        assert pair_key("b", "a") == ("a", "b")
        assert pair_key("a", "b") == ("a", "b")


class TestSerialization:
    def test_round_trip(self, toy_scene, tmp_path):
        table = extract_ngt(toy_scene)
        path = tmp_path / "toy.ngt.json"
        write_ngt(table, path)
        loaded = read_ngt(path)
        assert loaded.scene_id == table.scene_id
        assert loaded.instances == table.instances
        assert loaded.pairs == table.pairs
        assert loaded.skipped_pairs == table.skipped_pairs

    def test_pair_keys_reuse_the_instance_ids(self, tables, tmp_path):
        """A loaded table's pair keys hold the instances' own id objects,
        and equal labels are one object."""
        table = next(iter(tables.values()))
        write_ngt(table, tmp_path / "t.ngt.json")
        loaded = read_ngt(tmp_path / "t.ngt.json")
        assert loaded.pairs == table.pairs
        own = {inst.instance_id: inst.instance_id for inst in loaded.instances}
        assert len(loaded.pairs) == len(own) * (len(own) - 1) // 2
        for a, b in loaded.pairs:
            assert a is own[a] and b is own[b]
        labels = [inst.label for inst in loaded.instances]
        assert len({id(label) for label in labels}) == len(set(labels)) < len(labels)

    def test_missing_key_names_the_field(self, toy_scene):
        doc = ngt_doc(extract_ngt(toy_scene))
        del doc["pairs"]
        with pytest.raises(SchemaViolationError, match="pairs"):
            ngt_from_dict(doc)

    @pytest.mark.parametrize("section,key,value", [
        ("instances", "label", True),
        ("instances", "label", ["chair"]),
        ("instances", "instance_id", 7),
        ("instances", "aabb_min", ["0", 0, 0]),
        ("instances", "centroid", [0.5, 0.5]),
        ("instances", "volume", True),
        ("instances", "volume", float("nan")),
        ("pairs", "a", 0),
        ("pairs", "distance", float("inf")),
        ("pairs", "distance", "3.0"),
        ("skipped_pairs", "reason", None),
    ])
    def test_wrong_value_types_are_refused(self, toy_scene, tmp_path,
                                           section, key, value):
        """Nothing is coerced; the error names the file, the row and the
        field.  NaN and Infinity are written as JSON's NaN and Infinity."""
        doc = ngt_doc(extract_ngt(toy_scene))
        # one pair moves to skipped_pairs, so that section has a row too
        pair = doc["pairs"].pop()
        doc["skipped_pairs"].append({"a": pair["a"], "b": pair["b"], "reason": "x"})
        doc[section][-1][key] = value
        path = tmp_path / "toy.ngt.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        where = re.escape(f"{path}: {section}[{len(doc[section]) - 1}]")
        with pytest.raises(SchemaViolationError, match=rf"^{where} malformed: '{key}'"):
            read_ngt(path)

    @pytest.mark.parametrize("change, message", [
        (lambda doc: [doc], "NGT document must be an object"),
        (lambda doc: {**doc, "scene_id": ""}, "'scene_id' must be a non-empty string"),
        (lambda doc: {**doc, "instances": []}, "'instances' must be a non-empty list"),
        (lambda doc: {**doc, "pairs": {}}, "'pairs'/'skipped_pairs' must be lists"),
        (lambda doc: {**doc, "instances": doc["instances"][:1] * 2},
         "duplicate instance ids"),
    ], ids=["document", "scene-id", "instances", "pairs", "duplicate-id"])
    def test_a_file_that_is_not_a_table_is_refused_naming_it(self, toy_scene, tmp_path,
                                                             change, message):
        path = tmp_path / "toy.ngt.json"
        path.write_text(json.dumps(change(ngt_doc(extract_ngt(toy_scene)))),
                        encoding="utf-8")
        with pytest.raises(SchemaViolationError) as info:
            read_ngt(path)
        assert str(info.value) == f"{path}: {message}"

    def test_incomplete_pair_coverage_rejected(self, toy_scene):
        """Each unordered pair of instances is listed exactly once, in
        ``pairs`` or in ``skipped_pairs``, and names two instances."""
        doc = ngt_doc(extract_ngt(toy_scene))
        first, *_, last = doc["pairs"]
        swapped = {"a": first["b"], "b": first["a"], "distance": 5.0}
        skip_first = [{"a": first["a"], "b": first["b"], "reason": "x"}]
        cases = {
            "pair coverage mismatch": {"pairs": doc["pairs"][:-1]},
            "a pair is listed twice": {"pairs": doc["pairs"] + [swapped]},
            "a pair is both measured and skipped": {"skipped_pairs": skip_first},
            "pair .* is not two distinct instances": {
                "pairs": doc["pairs"][:-1] + [{**last, "b": "ghost"}]},
            "pair .*'i1'.*'i1'.* is not two distinct instances": {
                "pairs": doc["pairs"][:-1] + [{**last, "b": last["a"]}]},
        }
        for message, changes in cases.items():
            with pytest.raises(SchemaViolationError, match=message):
                ngt_from_dict({**doc, **changes})

    def test_extraction_on_synthetic_bank(self, scene_bank, tables):
        # volumes recorded in the analytic truth appear verbatim in the table
        for scene_id, (scene, truth) in scene_bank.items():
            table = tables[scene_id]
            for inst in table.instances:
                expected = truth.instances[inst.instance_id]
                assert inst.volume == expected.volume
                assert inst.aabb_min == expected.aabb_min
                assert inst.aabb_max == expected.aabb_max
            assert len(table.pairs) == math.comb(len(table.instances), 2)
            assert table.skipped_pairs == ()


def measurement(instance_id, label, lo, hi, **values):
    """An InstanceMeasurement of the box ``lo``..``hi``, with any field
    given in ``values`` put over the computed one."""
    row = dict(instance_id=instance_id, label=label,
               centroid=tuple((a + b) / 2 for a, b in zip(lo, hi)),
               aabb_min=tuple(lo), aabb_max=tuple(hi),
               dims=tuple(b - a for a, b in zip(lo, hi)),
               volume=math.prod(b - a for a, b in zip(lo, hi)))
    return InstanceMeasurement(**{**row, **values})


def _table_with_a_skipped_pair(toy_scene):
    table = extract_ngt(toy_scene)
    pairs = dict(table.pairs)
    del pairs[("i0", "i1")]
    return NgtTable(table.scene_id, table.instances, pairs,
                    (("i0", "i1", 'not_converged: stalled at "gap" 0.5 \\ 3'),))


WRITER_TABLES = {
    "skipped-pair": _table_with_a_skipped_pair,
    "one-instance": lambda _: NgtTable("solo", (
        measurement("o000", "lamp", (0.0, 0.0, 0.0), (0.25, 0.5, 2.0)),)),
    "escaped-text": lambda _: NgtTable("zimmer-ü", (
        measurement("o000", "café chair", (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
        measurement("o001", 'the "big" table', (2.0, 0.0, 0.0), (3.0, 1.0, 1.0)),
        measurement("o002", "back\\slash\tshelf", (0.0, 4.0, 0.0), (1.0, 5.0, 1.0)),
        measurement("o003", "寝台 🛏", (0.0, 0.0, 7.0), (1.0, 1.0, 8.0)),
    ), {("o000", "o001"): 1.0, ("o000", "o002"): 3.0, ("o000", "o003"): 6.0,
        ("o001", "o002"): math.hypot(1.0, 3.0), ("o001", "o003"): math.hypot(1.0, 6.0),
        ("o002", "o003"): math.hypot(3.0, 6.0)}),
    "edge-floats": lambda _: NgtTable("edges", (
        measurement("a", "rug", (-0.0, 5e-324, 1e16), (1.0, 1.0, 1e16 + 2.0),
                    centroid=(-0.0, 5e-324, 1e16), volume=5e-324),
        measurement("b", "mat", (1e16, -1e16, -0.0), (1e16 + 2.0, 1.0, 0.1)),
    ), {("a", "b"): -0.0}),
    "int-coordinates": lambda _: NgtTable("ints", (
        InstanceMeasurement("a", "crate", (1, 1, 1), (0, 0, 0), (2, 2, 2), (2, 2, 2), 8),
        InstanceMeasurement("b", "crate", (5, 1, 1), (4, 0, 0), (6, 2, 2), (2, 2, 2), 8),
    ), {("a", "b"): 2}),
}


class TestRowWriter:
    """``write_ngt`` lays rows out from fixed templates; the text must be the
    standard library's for the same document, byte for byte."""

    @pytest.mark.parametrize("case", sorted(WRITER_TABLES))
    def test_bytes_equal_json_dumps_of_the_document(self, case, toy_scene, tmp_path):
        table = WRITER_TABLES[case](toy_scene)
        path = tmp_path / "t.ngt.json"
        write_ngt(table, path)
        expected = json.dumps(ngt_doc(table), indent=2, ensure_ascii=False) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")
        assert read_ngt(path) == table

    def test_empty_lists_and_int_coordinates_read_as_json_writes_them(self, toy_scene,
                                                                       tmp_path):
        write_ngt(WRITER_TABLES["one-instance"](toy_scene), tmp_path / "solo.ngt.json")
        text = (tmp_path / "solo.ngt.json").read_text(encoding="utf-8")
        assert '  "pairs": [],\n  "skipped_pairs": []\n}\n' in text
        write_ngt(WRITER_TABLES["int-coordinates"](toy_scene), tmp_path / "ints.ngt.json")
        text = (tmp_path / "ints.ngt.json").read_text(encoding="utf-8")
        assert '"volume": 8\n' in text and '"distance": 2\n' in text

    def test_extracted_tables_equal_json_dumps(self, tables, tmp_path):
        for table in tables.values():
            write_ngt(table, tmp_path / "t.ngt.json")
            expected = json.dumps(ngt_doc(table), indent=2, ensure_ascii=False) + "\n"
            assert (tmp_path / "t.ngt.json").read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("bad,where", [
        (lambda t: NgtTable(t.scene_id, t.instances, {**t.pairs, ("i1", "i2"): math.nan}),
         "pairs[2]"),
        (lambda t: NgtTable(t.scene_id, t.instances, {**t.pairs, ("i0", "i1"): -math.inf}),
         "pairs[0]"),
        (lambda t: NgtTable(t.scene_id, t.instances[:2] + (
            InstanceMeasurement(**{**vars(t.instances[2]), "volume": math.inf}),), t.pairs),
         "instances[2]"),
        (lambda t: NgtTable(t.scene_id, (
            InstanceMeasurement(**{**vars(t.instances[0]), "centroid": (0.5, math.nan, 0.5)}),
        ) + t.instances[1:], t.pairs), "instances[0]"),
        (lambda t: NgtTable(t.scene_id, t.instances, t.pairs, (("i0", "i1", None),)),
         "skipped_pairs[0]"),
    ], ids=["nan-distance", "inf-distance", "inf-volume", "nan-centroid", "null-reason"])
    def test_a_value_the_reader_refuses_is_not_written(self, toy_scene, tmp_path, bad, where):
        """The error names the file, the scene and the row; the previous file
        stays and no temporary file is left."""
        path = tmp_path / "toy.ngt.json"
        table = extract_ngt(toy_scene)
        write_ngt(table, path)
        before = path.read_bytes()
        message = re.escape(f"{path}: scene 'toy': {where}: ")
        with pytest.raises(SchemaViolationError, match=f"^{message}"):
            write_ngt(bad(table), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["toy.ngt.json"]

    @pytest.mark.parametrize("dims", [(1.0, 1.0), (1.0, 1.0, 1.0, 1.0)])
    def test_dims_that_are_not_three_numbers_are_not_written(self, tmp_path, dims):
        path = tmp_path / "solo.ngt.json"
        table = NgtTable("solo", (measurement("o000", "lamp", (0.0, 0.0, 0.0),
                                              (1.0, 1.0, 1.0), dims=dims),))
        message = re.escape(f"{path}: scene 'solo': instances[0]: 'dims' must be "
                            f"three numbers, got {dims!r}")
        with pytest.raises(SchemaViolationError, match=f"^{message}$"):
            write_ngt(table, path)
        assert list(tmp_path.iterdir()) == []


class TestSkippedPair:
    def test_an_unconverged_pair_is_skipped_end_to_end(self, scene_bank, tables, dataset,
                                                      dataset_cfg, monkeypatch, tmp_path):
        """A pair whose solve does not converge is recorded with its reason,
        survives a file round trip, and no generated question names it."""
        records, _ = dataset
        victim = next(r for r in records if r.task == TASK_NI
                      and r.category == CAT_DISTANCE and r.scene_id == "scene0000")
        scene = scene_bank["scene0000"][0]
        unique = tables["scene0000"].unique_label_instances()
        ids = {unique[label].instance_id for label in victim.referents}
        stuck = {id(inst.points) for inst in scene.instances if inst.instance_id in ids}
        lockstep, solve = geometry._lockstep, geometry.hull_distance

        def hand_back_stuck_pair(sets, *args):
            results = lockstep(sets, *args)
            for k, pair in enumerate(itertools.combinations(sets, 2)):
                if {id(s) for s in pair} == stuck:
                    results[k] = None
            return results

        def hull_distance(a, b, **kwargs):
            if {id(a), id(b)} == stuck:
                raise NotConvergedError("stalled on purpose", iterations=3, gap=0.5)
            return solve(a, b, **kwargs)

        # The stuck pair leaves the lockstep pass by its one way out, a
        # hand-back to hull_distance, which fails it.
        monkeypatch.setattr(geometry, "_lockstep", hand_back_stuck_pair)
        monkeypatch.setattr(geometry, "hull_distance", hull_distance)
        table = extract_ngt(scene)
        a, b = sorted(ids)
        assert table.skipped_pairs == ((a, b, "not_converged: stalled on purpose"),)
        assert not table.has_pair(a, b)
        assert len(table.pairs) == math.comb(len(table.instances), 2) - 1
        write_ngt(table, tmp_path / "scene0000.ngt.json")
        assert read_ngt(tmp_path / "scene0000.ngt.json") == table

        bank = {**tables, "scene0000": table}
        regenerated = generate_rule_dataset(list(bank.values()), dataset_cfg, MASTER_SEED)
        # label pairs sit at even offsets: (a, b) for NI, (a, b, c, d) for FV
        assert not any(r.scene_id == "scene0000" and r.category == CAT_DISTANCE
                       and any(set(r.referents[k:k + 2]) == set(victim.referents)
                               for k in range(0, len(r.referents), 2))
                       for r in regenerated)
        assert selfcheck(regenerated, tables=bank).ok
