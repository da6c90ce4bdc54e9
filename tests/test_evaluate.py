"""Answer extraction, threshold accuracy, stratified scoring, consistency."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sceneqa.errors import SchemaViolationError
from sceneqa.evaluate import (
    TA_THRESHOLDS,
    consistency_report,
    extract_answer,
    format_report_table,
    parse_numeric,
    read_predictions,
    score_records,
    ta_hit,
)
from sceneqa.rulegen import (QaRecord, VARIANT_COT, VARIANT_PLAIN, read_dataset,
                             write_dataset)
from sceneqa.templates import TASK_FV, TASK_NI, TASK_PM
from sceneqa.util import write_jsonl

from conftest import ni_scores


def make_record(qa_id: str, task: str, answer: str, *, category="quantity",
                variant=VARIANT_PLAIN, gt_value=None, cp_link=None,
                unit="count") -> QaRecord:
    return QaRecord(
        qa_id=qa_id, scene_id="s0", task=task, category=category,
        question="Q?", answer=answer, gt_value=gt_value, unit=unit,
        cp_link=cp_link, variant=variant, provenance="rule",
        template_id=None, referents=(),
    )


class TestExtractAnswer:
    @pytest.mark.parametrize("output,expected", [
        ("Yes, it is.", "yes"),
        ("no", "no"),
        ("The answer is Yes.", "yes"),
        ("Absolutely not", None),
        ("", None),
        (None, None),
    ])
    def test_fv_plain(self, output, expected):
        assert extract_answer(output, TASK_FV) == expected

    def test_fv_variant_selects_first_or_last(self):
        chain = "It looks like yes at first, but the answer is no."
        assert extract_answer(chain, TASK_FV, VARIANT_PLAIN) == "yes"
        assert extract_answer(chain, TASK_FV, VARIANT_COT) == "no"

    @pytest.mark.parametrize("output,expected", [
        ("B", "B"),
        ("The answer is C.", "C"),
        ("(D)", "D"),
        ("E) the last option", "E"),
        ("option b) looks right", "B"),
        ("a chair sits in the corner", None),
        ("F", None),
        ("", None),
    ])
    def test_pm_plain(self, output, expected):
        assert extract_answer(output, TASK_PM) == expected

    def test_pm_lowercase_needs_option_form(self):
        # bare lowercase letters read like articles/prose, not options
        assert extract_answer("pick a good one", TASK_PM) is None
        assert extract_answer("pick a) over the rest", TASK_PM) == "A"

    def test_pm_cot_takes_last(self):
        chain = "A is tempting. Comparing again, the answer is D."
        assert extract_answer(chain, TASK_PM, VARIANT_COT) == "D"

    @pytest.mark.parametrize("output,expected", [
        ("3.81", "3.81"),
        ("The volume is 3.81 cubic meters.", "3.81"),
        ("roughly 1.", "1"),
        ("about -0.5 below", "-0.5"),
        (".5", ".5"),
        ("no digits here", None),
    ])
    def test_ni_plain(self, output, expected):
        assert extract_answer(output, TASK_NI) == expected

    def test_ni_cot_takes_last(self):
        chain = ("Given the sides as 1.98, 2.32 and 0.83, "
                 "the volume is 3.81.")
        assert extract_answer(chain, TASK_NI, VARIANT_COT) == "3.81"

    def test_unknown_task_rejected(self):
        with pytest.raises(SchemaViolationError, match="unknown task"):
            extract_answer("yes", "truthiness")


class TestParseNumeric:
    def test_values(self):
        assert parse_numeric("3.81") == 3.81
        assert parse_numeric("-2") == -2.0
        assert parse_numeric(".5") == 0.5
        assert parse_numeric(None) is None
        assert parse_numeric("abc") is None


class TestGoldAnswer:
    def test_plain_record_stores_the_token(self):
        assert make_record("s0-fv-quantity-00000", TASK_FV, "yes").gold == "yes"

    def test_cot_fv_chain(self):
        chain = ("Given the count of chairs as 4 and the count of tables as 2, "
                 "the count of chairs is greater than the count of tables. "
                 "Therefore, the answer is yes.")
        rec = make_record("s0-fv-quantity-00000-cot", TASK_FV, chain,
                          variant=VARIANT_COT)
        assert rec.gold == "yes"

    def test_cot_ni_chain(self):
        chain = ("Given the dimensions as 1.98 m, 2.32 m, and 0.83 m, the "
                 "volume is approximately 3.81 cubic meters. Therefore, the "
                 "answer is 3.81.")
        rec = make_record("s0-ni-volume-00000-cot", TASK_NI, chain,
                          category="volume", variant=VARIANT_COT, gt_value=3.813)
        assert rec.gold == "3.81"

    def test_unknown_task_and_unreadable_chain_have_no_gold(self):
        with pytest.raises(SchemaViolationError, match="unknown task 'truthiness'"):
            make_record("s0-x-00000", "truthiness", "yes")
        rec = make_record("s0-fv-quantity-00000-cot", TASK_FV, "Hard to tell.",
                          variant=VARIANT_COT)
        assert rec.gold is None

    def test_chain_verdicts_are_shared_strings(self):
        golds = [make_record(f"s0-fv-quantity-{i:05d}-cot", TASK_FV,
                             f"Step {i}. Therefore, the answer is Yes.",
                             variant=VARIANT_COT).gold
                 for i in range(2)]
        assert golds == ["yes", "yes"] and golds[0] is golds[1]

    def test_replace_recomputes_gold(self):
        rec = make_record("s0-fv-quantity-00000-cot", TASK_FV,
                          "So the answer is yes.", variant=VARIANT_COT)
        assert dataclasses.replace(rec, answer="So the answer is no.").gold == "no"
        assert dataclasses.replace(rec, variant=VARIANT_PLAIN).gold == \
            "So the answer is yes."
        assert dataclasses.replace(rec, task=TASK_PM, category="non-numeric",
                                   answer="So the answer is B.").gold == "B"

    def test_gold_is_not_written(self, tmp_path):
        rec = make_record("s0-fv-quantity-00000-cot", TASK_FV,
                          "So the answer is yes.", variant=VARIANT_COT)
        assert "gold" not in rec.to_dict()
        path = tmp_path / "dataset.jsonl"
        write_dataset([rec], path)
        line = path.read_text(encoding="utf-8")
        assert "gold" not in json.loads(line) and '"gold"' not in line
        (back,) = read_dataset(path)
        assert back == rec and back.gold == "yes"


class TestThresholdAccuracy:
    def test_hand_checked_quartiles(self):
        gts = [10.0, 10.0, 10.0, 10.0]
        preds = [10.4, 10.6, 11.0, 12.5]
        scores = ni_scores(gts, preds)
        assert scores.ta_at(0.05) == 0.25
        assert scores.ta_at(0.10) == 0.50
        assert scores.ta_at(0.20) == 0.75

    def test_boundary_is_strict(self):
        assert not ta_hit(10.0, 10.5, 0.05)
        assert not ta_hit(10.0, 9.5, 0.05)
        assert ta_hit(10.0, 10.4999, 0.05)

    def test_zero_ground_truth_demands_exact_zero(self):
        assert ta_hit(0.0, 0.0, 0.05)
        assert not ta_hit(0.0, 1e-9, 0.05)

    def test_missing_predictions_are_misses(self):
        scores = ni_scores([1.0, 1.0], [1.0, None])
        assert scores.ta_at(0.05) == 0.5 and scores.n_missing == 1

    def test_empty_and_misaligned(self):
        assert ni_scores([], []).ta_at(0.05) == 0.0
        # outputs are matched by qa_id: one for an id no record has scores
        # nothing, and the record it does not reach is a miss
        record = make_record("s0-ni-distance-00000", TASK_NI, "1.00",
                             category="distance", gt_value=1.0, unit="meters")
        scores = score_records([record], {"s0-ni-distance-00001": "1.00"}).strata[
            "ni/distance/plain"]
        assert (scores.n_records, scores.n_missing, scores.ta_at(0.05)) == (1, 1, 0.0)

    @given(st.lists(st.tuples(
        st.floats(0.01, 1e6, allow_nan=False, allow_infinity=False),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)),
        min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_threshold(self, pairs):
        scores = ni_scores([gt for gt, _ in pairs], [p for _, p in pairs])
        assert scores.ta_at(0.05) <= scores.ta_at(0.10) <= scores.ta_at(0.20)


class TestScoreRecords:
    def toy_records(self):
        return [
            make_record("s0-fv-quantity-00000", TASK_FV, "yes",
                        cp_link="s0-fv-quantity-00000-cp"),
            make_record("s0-fv-quantity-00000-cp", TASK_FV, "no",
                        cp_link="s0-fv-quantity-00000"),
            make_record("s0-ni-distance-00000", TASK_NI, "2.50",
                        category="distance", gt_value=2.5, unit="meters"),
            make_record("s0-ni-distance-00001", TASK_NI, "4.00",
                        category="distance", gt_value=4.0, unit="meters"),
        ]

    def test_stratification_and_counts(self):
        records = self.toy_records()
        predictions = {
            "s0-fv-quantity-00000": "Yes, definitely.",
            "s0-fv-quantity-00000-cp": "hard to say",   # unparseable
            "s0-ni-distance-00000": "It is 2.49 meters",
            # s0-ni-distance-00001 missing entirely
        }
        report = score_records(records, predictions)
        fv = report.strata["fv/quantity/plain"]
        assert (fv.n_records, fv.n_correct, fv.n_missing, fv.n_unparsed) == (2, 1, 0, 1)
        assert fv.accuracy == 0.5
        ni = report.strata["ni/distance/plain"]
        assert (ni.n_records, ni.n_missing) == (2, 1)
        assert ni.ta_at(0.05) == 0.5   # 2.49 within 5% of 2.5; missing = miss
        assert ni.ta_at(0.20) == 0.5

    def test_ni_uses_gt_value_not_string_equality(self):
        rec = make_record("s0-ni-volume-00000", TASK_NI, "3.81",
                          category="volume", gt_value=3.8129, unit="cubic meters")
        report = score_records([rec], {"s0-ni-volume-00000": "3.9"})
        ni = report.strata["ni/volume/plain"]
        assert ni.ta_at(0.05) == 1.0   # 3.9 vs 3.8129 is a 2.3% error
        assert ni.ta_at(0.20) == 1.0

    def test_to_dict_shapes(self):
        report = score_records(self.toy_records(), {})
        payload = report.to_dict()
        assert payload["thresholds"] == list(TA_THRESHOLDS)
        ni_row = payload["strata"]["ni/distance/plain"]
        assert set(ni_row["ta"]) == {"0.05", "0.1", "0.2"}
        fv_row = payload["strata"]["fv/quantity/plain"]
        assert "accuracy" in fv_row and "ta" not in fv_row

    def test_gold_tokens_score_perfectly(self, dataset):
        records, _ = dataset
        predictions = {r.qa_id: f"The answer is {r.gold}." for r in records}
        report = score_records(records, predictions)
        for key, scores in report.strata.items():
            if key.startswith("ni/"):
                assert all(scores.ta_at(t) == 1.0 for t in TA_THRESHOLDS), key
            else:
                assert scores.accuracy == 1.0, key
            assert scores.n_missing == 0 and scores.n_unparsed == 0

    def test_constant_yes_scores_half_on_balanced_fv(self, dataset):
        records, _ = dataset
        predictions = {r.qa_id: "yes" for r in records if r.task == TASK_FV}
        report = score_records([r for r in records if r.task == TASK_FV],
                               predictions)
        for key, scores in report.strata.items():
            assert abs(scores.n_correct - scores.n_records / 2) <= 0.5, key


class TestConsistency:
    def test_perfect_inversion(self):
        records = [
            make_record("s0-fv-quantity-00000", TASK_FV, "yes",
                        cp_link="s0-fv-quantity-00000-cp"),
            make_record("s0-fv-quantity-00000-cp", TASK_FV, "no",
                        cp_link="s0-fv-quantity-00000"),
        ]
        predictions = {
            "s0-fv-quantity-00000": "yes",
            "s0-fv-quantity-00000-cp": "no",
        }
        report = consistency_report(records, predictions)
        scores = report.strata["quantity/plain"]
        assert scores.n_pairs == 1
        assert scores.consistency == 1.0
        assert scores.original_accuracy == scores.cp_accuracy == 1.0
        assert scores.delta == 0.0
        assert report.orphans == []

    def test_same_answer_both_ways_is_inconsistent(self):
        records = [
            make_record("s0-fv-volume-00000", TASK_FV, "yes",
                        category="volume", cp_link="s0-fv-volume-00000-cp"),
            make_record("s0-fv-volume-00000-cp", TASK_FV, "no",
                        category="volume", cp_link="s0-fv-volume-00000"),
        ]
        predictions = {k: "yes" for k in ("s0-fv-volume-00000",
                                          "s0-fv-volume-00000-cp")}
        report = consistency_report(records, predictions)
        scores = report.strata["volume/plain"]
        assert scores.consistency == 0.0
        assert scores.original_accuracy == 1.0
        assert scores.cp_accuracy == 0.0
        assert scores.delta == 1.0

    def test_unparseable_side_breaks_consistency(self):
        records = [
            make_record("s0-fv-quantity-00000", TASK_FV, "yes",
                        cp_link="s0-fv-quantity-00000-cp"),
            make_record("s0-fv-quantity-00000-cp", TASK_FV, "no",
                        cp_link="s0-fv-quantity-00000"),
        ]
        predictions = {"s0-fv-quantity-00000": "yes",
                       "s0-fv-quantity-00000-cp": "unclear"}
        report = consistency_report(records, predictions)
        assert report.strata["quantity/plain"].consistency == 0.0

    def test_missing_partner_is_an_orphan(self):
        records = [
            make_record("s0-fv-quantity-00000", TASK_FV, "yes",
                        cp_link="s0-fv-quantity-00000-cp"),
        ]
        report = consistency_report(records, {})
        assert report.orphans == ["s0-fv-quantity-00000"]
        assert report.strata == {}

    def test_contrapositive_read_first_still_pairs(self):
        records = [
            make_record("s0-fv-quantity-00000-cp", TASK_FV, "no",
                        cp_link="s0-fv-quantity-00000"),
            make_record("s0-fv-quantity-00000", TASK_FV, "yes",
                        cp_link="s0-fv-quantity-00000-cp"),
        ]
        predictions = {"s0-fv-quantity-00000": "yes", "s0-fv-quantity-00000-cp": "no"}
        report = consistency_report(iter(records), predictions)
        assert report.strata["quantity/plain"].n_pairs == 1
        assert report.strata["quantity/plain"].consistency == 1.0
        assert report.orphans == []

    def test_dataset_fixture_pairs_fully(self, dataset):
        records, _ = dataset
        predictions = {r.qa_id: r.gold for r in records
                       if r.task == TASK_FV}
        report = consistency_report(records, predictions)
        assert report.orphans == []
        n_pairs = sum(s.n_pairs for s in report.strata.values())
        n_fv = sum(1 for r in records if r.task == TASK_FV)
        assert n_pairs == n_fv // 2
        for scores in report.strata.values():
            assert scores.consistency == 1.0
            assert scores.delta == 0.0


class TestFormatReportTable:
    def test_rows_and_formatting(self):
        records = [
            make_record("s0-fv-quantity-00000", TASK_FV, "yes"),
            make_record("s0-fv-quantity-00001", TASK_FV, "no"),
            make_record("s0-ni-volume-00000", TASK_NI, "2.00",
                        category="volume", gt_value=2.0, unit="cubic meters"),
        ]
        predictions = {
            "s0-fv-quantity-00000": "yes",
            "s0-fv-quantity-00001": "yes",
            "s0-ni-volume-00000": "2.0",
        }
        table = format_report_table(score_records(records, predictions))
        lines = table.splitlines()
        assert "metric" in lines[0]
        for category in ("non-numeric", "quantity", "distance", "volume"):
            assert category in lines[0]
        fv_row = next(line for line in lines if line.startswith("fv accuracy"))
        assert "50.00%" in fv_row
        assert "-" in fv_row   # categories without records stay blank
        ta_rows = [line for line in lines if line.startswith("ni ta@")]
        assert len(ta_rows) == 3
        assert all("100.00%" in row for row in ta_rows)

    def test_variant_filter(self, dataset):
        records, _ = dataset
        # perfect on plain records, silent on chain-of-thought ones
        predictions = {r.qa_id: str(r.gold) for r in records
                       if r.variant == VARIANT_PLAIN}
        report = score_records(records, predictions)
        plain = format_report_table(report, VARIANT_PLAIN)
        cot = format_report_table(report, VARIANT_COT)
        assert plain != cot
        assert "100.00%" in plain and "100.00%" not in cot
        assert "0.00%" in cot


class TestReadPredictions:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "predictions.jsonl"
        write_jsonl([
            {"qa_id": "a", "output": "yes"},
            {"qa_id": "b", "output": "3.81"},
        ], path)
        assert read_predictions(path) == {"a": "yes", "b": "3.81"}

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "predictions.jsonl"
        write_jsonl([{"qa_id": "a", "output": "x"}, {"qa_id": "b"}], path)
        with pytest.raises(SchemaViolationError, match="line 2"):
            read_predictions(path)

    def test_repeated_id_is_refused_naming_both_lines(self, tmp_path):
        path = tmp_path / "predictions.jsonl"
        write_jsonl([{"qa_id": "a", "output": "yes"}, {"qa_id": "b", "output": "2"},
                     {"qa_id": "a", "output": "no"}], path)
        with pytest.raises(SchemaViolationError) as excinfo:
            read_predictions(path)
        assert str(excinfo.value) == f"{path}: line 3: qa_id 'a' repeats line 1"
        assert excinfo.value.exit_code == 3
