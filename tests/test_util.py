"""Seed derivation, decimal rendering, and JSON/JSONL helpers."""

import json
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from sceneqa.errors import MalformedFileError, SchemaViolationError
from sceneqa.evaluate import read_predictions
from sceneqa.rewrite import load_saqs
from sceneqa.rulegen import _RECORD_KEYS, read_dataset
from sceneqa.util import (
    derive_seed,
    read_json,
    read_jsonl,
    render_count,
    render_decimal,
    write_json,
    write_jsonl,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "alpha") == derive_seed(7, "alpha")

    def test_distinct_names_give_distinct_streams(self):
        seeds = {derive_seed(7, f"name{i}") for i in range(100)}
        assert len(seeds) == 100

    def test_distinct_masters_give_distinct_streams(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    @given(st.integers(min_value=0, max_value=2**63 - 1), st.text(max_size=40))
    def test_result_fits_in_63_bits(self, master, name):
        assert 0 <= derive_seed(master, name) < 2**63


class TestRenderDecimal:
    # Exact half-up rounding oracle over the decimal expansion of repr(x):
    # scale by 100, round halves away from zero using integer arithmetic.
    @staticmethod
    def _oracle(value: float) -> str:
        as_fraction = Fraction(Decimal(repr(value))) * 100
        floor, remainder = divmod(as_fraction.numerator, as_fraction.denominator)
        if Fraction(remainder, as_fraction.denominator) >= Fraction(1, 2):
            floor += 1
        return f"{Decimal(floor) / 100:.2f}"

    @pytest.mark.parametrize("value,expected", [
        (1.035, "1.04"),     # repr is exactly "1.035": half rounds up
        (3.812688, "3.81"),
        (2.675, "2.68"),
        (0.0, "0.00"),
        (10.0, "10.00"),
        (0.005, "0.01"),
        (7.70181, "7.70"),
    ])
    def test_known_values(self, value, expected):
        assert render_decimal(value) == expected

    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_matches_exact_half_up_oracle(self, value):
        assert render_decimal(value) == self._oracle(value)

    def test_uses_decimal_string_not_binary_expansion(self):
        # Rounding the binary double 1.035 (slightly below 1.035) half-even
        # or half-up would give "1.03"; the displayed text must use the
        # decimal literal.
        assert render_decimal(1.035) == "1.04"
        assert Decimal(1.035).quantize(Decimal("0.01"), ROUND_HALF_UP) == Decimal("1.03")


class TestRenderCount:
    def test_integers_render_without_decimals(self):
        assert render_count(4.0) == "4"
        assert render_count(0) == "0"

    def test_rejects_non_integral(self):
        with pytest.raises(Exception):
            render_count(4.5)


# Text with JSON escapes, control characters and non-ASCII characters.
_TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028é漢🙂'),
    st.characters(),
), max_size=8)
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e-5, float("nan"),
                     float("inf"), -float("inf")]),
    st.floats(),
)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), _FLOATS,
    _FLOATS.map(np.float64), _TEXT,
)
_KEYS = st.one_of(_TEXT, st.integers(), _FLOATS, _FLOATS.map(np.float64),
                  st.booleans(), st.none())
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=4),
    ),
    max_leaves=20,
)


class TestJsonHelpers:
    def test_round_trip(self, tmp_path):
        payload = {"b": [1, 2], "a": {"x": 0.5}}
        path = tmp_path / "x.json"
        write_json(payload, path)
        assert read_json(path) == payload

    @staticmethod
    def _written(doc, path) -> str:
        """The text ``write_json`` gives ``doc`` at ``path``."""
        write_json(doc, path)
        return path.read_bytes().decode("utf-8")

    def test_stable_dumps_preserves_insertion_order(self, tmp_path):
        text = self._written({"z": 1, "a": 2}, tmp_path / "doc.json")
        assert text.index('"z"') < text.index('"a"')

    @given(_DOCUMENTS)
    @example({"q\"\n\x00é": [(), {}, [[]], -0.0, 5e-324, 1e16, float("nan")],
              1: float("inf"), 2.5: -float("inf"), True: np.float64(0.1),
              np.float64(-0.0): (), float("nan"): {"": ""},
              False: None, None: [True, False, 0, -7, 2**70]})
    def test_stable_dumps_equals_indented_json_dumps(self, tmp_path_factory, doc):
        path = tmp_path_factory.getbasetemp() / "indented.json"
        assert self._written(doc, path) == \
            json.dumps(doc, indent=2, ensure_ascii=False) + "\n"

    @pytest.mark.parametrize("doc", [
        {"a": object()}, [1, {2}], {(1, 2): 3}, {b"key": 1}, [np.int64(3)],
    ], ids=["object", "set", "tuple-key", "bytes-key", "numpy-int"])
    def test_stable_dumps_rejects_what_json_dumps_rejects(self, tmp_path, doc):
        with pytest.raises(TypeError) as ours:
            write_json(doc, tmp_path / "doc.json")
        with pytest.raises(TypeError) as theirs:
            json.dumps(doc, indent=2, ensure_ascii=False)
        assert str(ours.value) == str(theirs.value)
        assert list(tmp_path.iterdir()) == []

    def test_stable_dumps_reports_cycles_like_json_dumps(self, tmp_path):
        loop = []
        loop.append(loop)
        with pytest.raises(ValueError, match="Circular reference"):
            write_json({"a": loop}, tmp_path / "doc.json")
        assert list(tmp_path.iterdir()) == []

    def test_malformed_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(MalformedFileError):
            read_json(path)

    def test_jsonl_round_trip_and_count(self, tmp_path):
        rows = [{"i": i} for i in range(5)]
        path = tmp_path / "rows.jsonl"
        assert write_jsonl(rows, path) == 5
        assert list(read_jsonl(path)) == list(enumerate(rows, start=1))

    def test_jsonl_numbers_file_lines_across_blank_ones(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n  \n{"b": 2}\n')
        assert list(read_jsonl(path)) == [(1, {"a": 1}), (4, {"b": 2})]

    @pytest.mark.parametrize("reader,good,bad", [
        (read_dataset, {**{k: "x" for k in _RECORD_KEYS}, "task": "ni",
                        "category": "quantity", "variant": "plain",
                        "provenance": "rule", "gt_value": 1.5,
                        "cp_link": None, "template_id": None, "referents": []},
         {"qa_id": "y"}),
        (read_predictions, {"qa_id": "a", "output": "yes"}, {"qa_id": "b"}),
        (load_saqs, {"question": "Q?", "answer": "a"}, {"question": "Q?"}),
    ], ids=["dataset", "predictions", "saqs"])
    def test_readers_name_the_file_line_after_a_blank_one(self, tmp_path, reader,
                                                          good, bad):
        """Line 1 holds a good row, line 2 is blank and line 3 is bad: every
        reader names line 3, as :func:`read_jsonl` itself would."""
        path = tmp_path / "rows.jsonl"
        path.write_text(json.dumps(good) + "\n\n" + json.dumps(bad) + "\n")
        with pytest.raises(SchemaViolationError, match=r"rows\.jsonl: line 3: "):
            reader(path)

    def test_jsonl_reports_offending_line(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(MalformedFileError, match=r"rows\.jsonl: line 2: "):
            list(read_jsonl(path))

    @pytest.mark.parametrize("line", ["[1, 2, 3]", "7", '"text"', "null"])
    def test_jsonl_rows_must_be_objects(self, tmp_path, line):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"ok": 1}\n\n' + line + "\n")
        with pytest.raises(SchemaViolationError,
                           match=r"rows\.jsonl: line 3: expected a JSON object"):
            list(read_jsonl(path))

    def test_failed_jsonl_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        write_jsonl([{"i": 0}], path)
        before = path.read_bytes()

        def rows():
            yield {"i": 1}
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            write_jsonl(rows(), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]
