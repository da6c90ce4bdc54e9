"""Dataset self-checks and reference responders."""

from __future__ import annotations

import dataclasses

import pytest

from sceneqa.audit import (
    constant_responses,
    echo_responses,
    oracle_responses,
    selfcheck,
)
from sceneqa.errors import SceneQaError
from sceneqa.evaluate import consistency_report, gold_answer, score_records
from sceneqa.rulegen import ANSWER_NO, ANSWER_YES, VARIANT_PLAIN
from sceneqa.templates import TASK_FV, TASK_NI


def swap(records, index, **changes):
    """Copy of the record list with one record's fields replaced."""
    out = list(records)
    out[index] = dataclasses.replace(out[index], **changes)
    return out


def find_index(records, predicate):
    return next(i for i, rec in enumerate(records) if predicate(rec))


class TestSelfCheckGreen:
    def test_generated_dataset_passes(self, dataset, tables):
        records, _ = dataset
        result = selfcheck(records, tables=tables)
        assert result.ok, result.summary_lines()
        assert set(result.checks) == {
            "schema", "cp_involution", "ni_display", "self_scoring",
            "balance", "gt_agreement",
        }

    def test_summary_and_dict_shapes(self, dataset, tables):
        records, _ = dataset
        result = selfcheck(records, tables=tables)
        lines = result.summary_lines()
        assert lines[-1] == "selfcheck: PASSED"
        assert all(": ok" in line for line in lines[:-1])
        payload = result.to_dict()
        assert payload["ok"] is True
        assert all(entry["ok"] and entry["failures"] == []
                   for entry in payload["checks"].values())

    def test_tables_are_optional(self, dataset):
        records, _ = dataset
        result = selfcheck(records)
        assert result.ok
        assert "gt_agreement" not in result.checks


class TestSelfCheckCorruptions:
    def test_flipped_fv_answer(self, dataset, tables):
        records, _ = dataset
        idx = find_index(records, lambda r: r.task == TASK_FV
                         and r.variant == VARIANT_PLAIN and not r.is_contrapositive)
        flipped = ANSWER_NO if records[idx].answer == ANSWER_YES else ANSWER_YES
        corrupted = swap(records, idx, answer=flipped)
        result = selfcheck(corrupted, tables=tables)
        assert not result.ok
        assert any(records[idx].qa_id in f for f in result.checks["cp_involution"])
        assert result.checks["gt_agreement"]

    def test_dangling_cp_link(self, dataset):
        records, _ = dataset
        idx = find_index(records, lambda r: r.task == TASK_FV
                         and not r.is_contrapositive)
        corrupted = swap(records, idx, cp_link="s9-fv-quantity-99999-cp")
        result = selfcheck(corrupted)
        assert not result.ok
        assert result.checks["cp_involution"]

    def test_duplicate_qa_id(self, dataset):
        records, _ = dataset
        result = selfcheck(list(records) + [records[0]])
        assert any("duplicate" in f for f in result.checks["schema"])

    def test_ni_display_mismatch(self, dataset):
        records, _ = dataset
        idx = find_index(records, lambda r: r.task == TASK_NI
                         and r.variant == VARIANT_PLAIN)
        corrupted = swap(records, idx, answer="9999")
        result = selfcheck(corrupted)
        assert result.checks["ni_display"]

    def test_wrong_unit_trips_schema(self, dataset):
        records, _ = dataset
        idx = find_index(records, lambda r: r.task == TASK_NI
                         and r.category == "distance")
        corrupted = swap(records, idx, unit="furlongs")
        result = selfcheck(corrupted)
        assert any("unit" in f for f in result.checks["schema"])

    def test_invalid_task_trips_schema(self, dataset):
        records, _ = dataset
        corrupted = swap(records, 0, task="essay")
        result = selfcheck(corrupted)
        assert any("task" in f for f in result.checks["schema"])

    def test_consistent_but_wrong_value_needs_tables(self, dataset, tables):
        records, _ = dataset
        idx = find_index(records, lambda r: r.task == TASK_NI
                         and r.category == "distance"
                         and r.variant == VARIANT_PLAIN)
        # display and gt_value agree with each other but not with the scene
        corrupted = swap(records, idx, answer="9.99", gt_value=9.99)
        without_tables = selfcheck(corrupted)
        assert without_tables.checks["ni_display"] == []
        with_tables = selfcheck(corrupted, tables=tables)
        assert with_tables.checks["gt_agreement"]

    def test_removed_partner_is_caught(self, dataset):
        records, _ = dataset
        idx = find_index(records, lambda r: r.task == TASK_FV
                         and r.is_contrapositive and r.variant == VARIANT_PLAIN)
        pruned = [r for i, r in enumerate(records) if i != idx]
        result = selfcheck(pruned)
        assert not result.ok
        assert result.checks["cp_involution"]
        assert result.checks["self_scoring"]   # orphans break self-scoring

    def test_unbalanced_records_trip_balance(self, dataset):
        records, _ = dataset
        yes_only = [r for r in records
                    if r.task == TASK_FV and r.variant == VARIANT_PLAIN
                    and r.answer == ANSWER_YES][:6]
        result = selfcheck(yes_only)
        assert result.checks["balance"]
        # the records themselves are sound
        assert result.checks["schema"] == []

    def test_failure_summary_mentions_the_check(self, dataset):
        records, _ = dataset
        result = selfcheck(list(records) + [records[0]])
        lines = result.summary_lines()
        assert lines[-1] == "selfcheck: FAILED"
        assert any(line.startswith("schema: FAILED") for line in lines)


class TestResponders:
    def test_echo_covers_every_record(self, dataset):
        records, _ = dataset
        responses = echo_responses(records)
        assert len(responses) == len(records)
        assert all(responses[r.qa_id] == r.answer for r in records)

    def test_constant_restricts_to_task(self, dataset):
        records, _ = dataset
        responses = constant_responses(records)
        assert set(responses.values()) == {ANSWER_YES}
        assert {r.task for r in records if r.qa_id in responses} == {TASK_FV}
        everything = constant_responses(records, token="0", task=None)
        assert len(everything) == len(records)

    def test_oracle_scores_perfectly(self, dataset, tables):
        records, _ = dataset
        responses = oracle_responses(records, tables)
        report = score_records(records, responses)
        for key, scores in report.strata.items():
            if key.startswith("ni/"):
                assert all(scores.ta_at(t) == 1.0 for t in (0.05, 0.10, 0.20)), key
            else:
                assert scores.accuracy == 1.0, key
        pairs = consistency_report(records, responses)
        assert pairs.orphans == []
        for scores in pairs.strata.values():
            assert scores.consistency == 1.0
            assert scores.delta == 0.0

    def test_oracle_recomputes_rather_than_echoes(self, dataset, tables):
        records, _ = dataset
        idx = find_index(records, lambda r: r.task == TASK_FV
                         and r.variant == VARIANT_PLAIN)
        flipped = ANSWER_NO if records[idx].answer == ANSWER_YES else ANSWER_YES
        corrupted = swap(records, idx, answer=flipped)
        responses = oracle_responses(corrupted, tables)
        # the responder answers from the scene, not from the stored label
        assert responses[records[idx].qa_id] == records[idx].answer

    def test_oracle_needs_matching_tables(self, dataset, tables):
        records, _ = dataset
        scene = records[0].scene_id
        partial = {sid: t for sid, t in tables.items() if sid != scene}
        with pytest.raises(SceneQaError, match="no ground-truth table"):
            oracle_responses(records, partial)

    def test_constant_yes_halves_fv_accuracy(self, dataset):
        records, _ = dataset
        fv = [r for r in records if r.task == TASK_FV]
        report = score_records(fv, constant_responses(fv))
        for key, scores in report.strata.items():
            assert abs(scores.n_correct - scores.n_records / 2) <= 0.5, key
        pairs = consistency_report(fv, constant_responses(fv))
        for scores in pairs.strata.values():
            assert scores.consistency == 0.0

    def test_gold_answers_echo_through_cot(self, dataset):
        records, _ = dataset
        responses = echo_responses(records)
        report = score_records(records, responses)
        assert all(
            scores.accuracy == 1.0 if not key.startswith("ni/") else True
            for key, scores in report.strata.items()
        )
        # chains parse back to their own final verdict
        for record in records:
            if record.variant != VARIANT_PLAIN:
                assert gold_answer(record) in ("yes", "no") or \
                    record.task == TASK_NI
