"""Dataset self-checks and reference responders."""

from __future__ import annotations

import dataclasses
import re

import pytest

from sceneqa.audit import SelfCheckResult, oracle_responses, selfcheck
from sceneqa.errors import MalformedFileError, SceneQaError, SchemaViolationError
from sceneqa.evaluate import consistency_report, score_records
from sceneqa.rulegen import (
    ANSWER_NO,
    ANSWER_YES,
    PROVENANCE_LLM,
    VARIANT_COT,
    VARIANT_PLAIN,
    BalanceReport,
    QaRecord,
    render_answer,
)
from sceneqa.templates import CAT_NON_NUMERIC, TASK_FV, TASK_NI, TASK_PM


def swap(records, index, **changes):
    """Copy of the record list with one record's fields replaced."""
    out = list(records)
    out[index] = dataclasses.replace(out[index], **changes)
    return out


def find_index(records, predicate):
    return next(i for i, rec in enumerate(records) if predicate(rec))


def _repeated_label(table):
    """The first label that names more than one instance of the scene."""
    return next(label for label, n in sorted(table.label_counts().items()) if n > 1)


PINNED_CHECKS = ("schema", "cp_involution", "ni_display", "gt_agreement")


def pinned(result):
    """The failure lists of the checks whose wording is pinned."""
    return {name: result.checks[name] for name in PINNED_CHECKS
            if name in result.checks}


class TestSelfCheckGreen:
    def test_generated_dataset_passes(self, dataset, tables):
        records, _ = dataset
        result = selfcheck(records, tables=tables)
        assert result.ok, result.summary_lines()
        assert set(result.checks) == {
            "schema", "cp_involution", "ni_display", "self_scoring",
            "balance", "gt_agreement",
        }

    def test_summary_shape(self, dataset, tables):
        records, _ = dataset
        result = selfcheck(records, tables=tables)
        lines = result.summary_lines()
        assert lines[-1] == "selfcheck: PASSED"
        assert lines[:-1] == [f"{name}: ok" for name in sorted(result.checks)]

    def test_summary_lists_ten_failures_then_counts_the_rest(self):
        failures = [f"r{i}: empty question" for i in range(13)]
        lines = SelfCheckResult({"schema": failures, "balance": []}).summary_lines()
        assert lines == ["balance: ok", "schema: FAILED (13 problems)",
                         *[f"  - {failure}" for failure in failures[:10]],
                         "  - ... and 3 more", "selfcheck: FAILED"]

    def test_tables_are_optional(self, dataset):
        records, _ = dataset
        result = selfcheck(records)
        assert result.ok
        assert "gt_agreement" not in result.checks


class TestSelfCheckCorruptions:
    """Each corruption pins the exact failure lists of the record checks."""

    def test_flipped_fv_answer(self, dataset, tables):
        records, _ = dataset
        idx = find_index(records, lambda r: r.task == TASK_FV
                         and r.variant == VARIANT_PLAIN and not r.is_contrapositive)
        rid, stored = records[idx].qa_id, records[idx].answer
        flipped = ANSWER_NO if stored == ANSWER_YES else ANSWER_YES
        corrupted = swap(records, idx, answer=flipped)
        result = selfcheck(corrupted, tables=tables)
        assert not result.ok
        assert pinned(result) == {
            "schema": [],
            "cp_involution": [f"{rid}: answers not inverted ({flipped!r} / {flipped!r})"],
            "ni_display": [],
            "gt_agreement": [f"{rid}: stored answer {flipped!r} disagrees "
                             f"with ground truth recomputation {stored!r}"],
        }

    def test_unreadable_cot_chain(self, dataset, tables):
        records, _ = dataset
        idx = find_index(records, lambda r: r.task == TASK_FV
                         and r.variant == VARIANT_COT and not r.is_contrapositive)
        rid, partner = records[idx].qa_id, records[idx + 1]
        assert partner.qa_id == records[idx].cp_link
        corrupted = swap(records, idx, answer="Hard to tell.")
        result = selfcheck(corrupted, tables=tables)
        assert not result.ok
        assert pinned(result) == {
            "schema": [f"{rid}: yes/no answer expected, got 'Hard to tell.'"],
            "cp_involution": [f"{rid}: answers not inverted "
                              f"(None / {partner.gold!r})"],
            "ni_display": [],
            "gt_agreement": [f"{rid}: stored answer None disagrees with ground "
                             f"truth recomputation {records[idx].gold!r}"],
        }
        # with no readable verdict the chain is tallied as a non-yes/no answer
        key = f"fv/{records[idx].category}/cot"
        assert result.checks["balance"] == [
            f"{key}: all non-yes/no FV answers {{'Hard to tell.': 1}}",
            f"{key}: originals non-yes/no FV answers {{'Hard to tell.': 1}}",
        ]

    @pytest.mark.parametrize("ending", ["Yes.", "yes!", "yes. Done"])
    def test_chain_verdict_is_read_like_a_prediction(self, dataset, tables, ending):
        """A chain whose final yes is capitalised, exclaimed or followed by
        more text still counts as yes in the balance, as it does in scoring."""
        records, report = dataset
        idx = find_index(records, lambda r: r.task == TASK_FV
                         and r.variant == VARIANT_COT and r.gold == ANSWER_YES)
        chain = records[idx].answer
        assert chain.endswith(" yes.")
        respelled = swap(records, idx, answer=chain[:-len("yes.")] + ending)
        assert respelled[idx].gold == ANSWER_YES
        rebuilt = BalanceReport()
        for record in respelled:
            rebuilt.add(record)
        assert rebuilt.to_dict() == report.to_dict()
        result = selfcheck(respelled, tables=tables)
        assert result.ok, result.summary_lines()

    def test_dangling_cp_link(self, dataset):
        records, _ = dataset
        idx = find_index(records, lambda r: r.task == TASK_FV
                         and not r.is_contrapositive)
        rid, partner = records[idx].qa_id, records[idx].cp_link
        corrupted = swap(records, idx, cp_link="s9-fv-quantity-99999-cp")
        result = selfcheck(corrupted)
        assert not result.ok
        assert pinned(result) == {
            "schema": [],
            "cp_involution": [
                f"{rid}: cp_link 's9-fv-quantity-99999-cp' not in dataset",
                f"{partner}: link not mutual ({rid} -> 's9-fv-quantity-99999-cp')",
            ],
            "ni_display": [],
        }

    def test_duplicate_qa_id(self, dataset):
        records, _ = dataset
        result = selfcheck(list(records) + [records[0]])
        assert pinned(result) == {
            "schema": [f"{records[0].qa_id}: duplicate qa_id"],
            "cp_involution": [],
            "ni_display": [],
        }

    def test_duplicate_id_is_judged_by_its_own_recomputation(self, dataset, tables):
        records, _ = dataset
        ni = find_index(records, lambda r: r.task == TASK_NI)
        fv = find_index(records, lambda r: r.task == TASK_FV)
        corrupted = swap(records, fv, qa_id=records[ni].qa_id)
        result = selfcheck(corrupted, tables=tables)
        assert result.checks["schema"] == [f"{records[ni].qa_id}: duplicate qa_id"]
        # each record's stored answer matches its own scene values
        assert result.checks["gt_agreement"] == []

    def test_ni_display_mismatch(self, dataset):
        records, _ = dataset
        idx = find_index(records, lambda r: r.task == TASK_NI
                         and r.variant == VARIANT_PLAIN)
        record = records[idx]
        corrupted = swap(records, idx, answer="9999")
        result = selfcheck(corrupted)
        rendered = render_answer(record.category, record.gt_value)
        assert pinned(result) == {
            "schema": [],
            "cp_involution": [],
            "ni_display": [f"{record.qa_id}: answer token '9999' does not match "
                           f"the rendering {rendered!r} of gt_value {record.gt_value!r}"],
        }

    def test_wrong_unit_trips_schema(self, dataset):
        records, _ = dataset
        idx = find_index(records, lambda r: r.task == TASK_NI
                         and r.category == "distance")
        corrupted = swap(records, idx, unit="furlongs")
        result = selfcheck(corrupted)
        assert pinned(result) == {
            "schema": [f"{records[idx].qa_id}: unit 'furlongs', expected 'meters'"],
            "cp_involution": [],
            "ni_display": [],
        }

    def test_blank_question_trips_schema(self, dataset):
        records, _ = dataset
        idx = find_index(records, lambda r: r.task == TASK_NI)
        result = selfcheck(swap(records, idx, question="  "))
        assert pinned(result) == {
            "schema": [f"{records[idx].qa_id}: empty question"],
            "cp_involution": [],
            "ni_display": [],
        }

    def test_pm_answer_that_is_not_a_letter_trips_schema(self, dataset):
        records, _ = dataset
        pm = QaRecord(
            qa_id="llm-pm-00000", scene_id="", task=TASK_PM, category=CAT_NON_NUMERIC,
            question="Which? A) oak  B) teal", answer="oak", gt_value=None, unit="",
            cp_link=None, variant=VARIANT_PLAIN, provenance=PROVENANCE_LLM,
            template_id=None, referents=(),
        )
        result = selfcheck(list(records) + [pm])
        assert pinned(result) == {
            "schema": ["llm-pm-00000: option letter expected, got 'oak'"],
            "cp_involution": [],
            "ni_display": [],
        }

    def test_rule_record_without_referents_trips_schema(self, dataset):
        records, _ = dataset
        idx = find_index(records, lambda r: r.task == TASK_NI)
        result = selfcheck(swap(records, idx, referents=()))
        assert pinned(result) == {
            "schema": [f"{records[idx].qa_id}: rule record without referents"],
            "cp_involution": [],
            "ni_display": [],
        }

    def test_fv_record_without_cp_link(self, dataset):
        records, _ = dataset
        idx = find_index(records, lambda r: r.task == TASK_FV
                         and not r.is_contrapositive)
        rid, partner = records[idx].qa_id, records[idx].cp_link
        result = selfcheck(swap(records, idx, cp_link=None))
        assert pinned(result) == {
            "schema": [],
            "cp_involution": [f"{rid}: yes/no record without cp_link",
                              f"{partner}: link not mutual ({rid} -> None)"],
            "ni_display": [],
        }

    def test_invalid_task_trips_schema(self, dataset):
        """An unknown task is refused where the record is built, so no
        selfcheck sees it."""
        records, _ = dataset
        rid = records[0].qa_id
        with pytest.raises(SchemaViolationError,
                           match=f"^{re.escape(rid)}: unknown task 'essay'$"):
            swap(records, 0, task="essay")

    def test_unknown_variant_stops_after_schema(self, dataset):
        records, _ = dataset
        rid = records[0].qa_id
        with pytest.raises(SchemaViolationError,
                           match=f"^{re.escape(rid)}: unknown variant 'sketch'$"):
            swap(records, 0, variant="sketch")

    def test_consistent_but_wrong_value_needs_tables(self, dataset, tables):
        records, _ = dataset
        idx = find_index(records, lambda r: r.task == TASK_NI
                         and r.category == "distance"
                         and r.variant == VARIANT_PLAIN)
        # display and gt_value agree with each other but not with the scene
        corrupted = swap(records, idx, answer="9.99", gt_value=9.99)
        without_tables = selfcheck(corrupted)
        assert pinned(without_tables) == {
            "schema": [], "cp_involution": [], "ni_display": [],
        }
        with_tables = selfcheck(corrupted, tables=tables)
        assert pinned(with_tables) == {
            "schema": [], "cp_involution": [], "ni_display": [],
            "gt_agreement": [f"{records[idx].qa_id}: stored answer '9.99' disagrees "
                             f"with ground truth recomputation {records[idx].answer!r}"],
        }

    def test_removed_partner_is_caught(self, dataset):
        records, _ = dataset
        idx = find_index(records, lambda r: r.task == TASK_FV
                         and r.is_contrapositive and r.variant == VARIANT_PLAIN)
        pruned = [r for i, r in enumerate(records) if i != idx]
        result = selfcheck(pruned)
        assert not result.ok
        assert pinned(result) == {
            "schema": [],
            "cp_involution": [f"{records[idx].cp_link}: cp_link "
                              f"{records[idx].qa_id!r} not in dataset"],
            "ni_display": [],
        }
        # the orphan is reported once, by cp_involution
        assert result.checks["self_scoring"] == []

    def test_self_scoring_names_a_numeric_record_its_own_answer_misses(self, dataset):
        records, _ = dataset
        idx = find_index(records, lambda r: r.task == TASK_NI
                         and r.category == "distance"
                         and r.variant == VARIANT_PLAIN)
        # "0.00" is the right display of 0.001 m, but reads back as 0 m
        corrupted = swap(records, idx, answer="0.00", gt_value=0.001)
        result = selfcheck(corrupted)
        assert pinned(result) == {
            "schema": [], "cp_involution": [], "ni_display": [],
        }
        assert result.checks["self_scoring"] == [
            f"{records[idx].qa_id}: its own answer '0.00' misses "
            f"ground truth 0.001 at ta@5"
        ]

    @pytest.mark.parametrize("task,category,change,problem", [
        (TASK_FV, "quantity",
         lambda r, table: {"referents": ("unicorn", r.referents[1])},
         "referents ['unicorn'] name no label of scene {scene!r}"),
        (TASK_FV, "volume",
         lambda r, table: {"referents": (_repeated_label(table), r.referents[1])},
         "referents [{repeated!r}] name no unique label of scene {scene!r}"),
        (TASK_NI, "distance",
         lambda r, table: {"referents": (r.referents[0], r.referents[0])},
         "no distance between {first!r} and {first!r} in scene {scene!r}"),
        (TASK_NI, "quantity",
         lambda r, table: {"referents": (r.referents[0], r.referents[0])},
         "2 referents for template {template!r} of arity 1"),
        (TASK_FV, "quantity",
         lambda r, table: {"template_id": "ni-quantity-01"},
         "template 'ni-quantity-01' asks ni/quantity, not fv/quantity"),
        (TASK_FV, "distance",
         lambda r, table: {"template_id": "fv-distance-99"},
         "unknown template 'fv-distance-99'"),
    ], ids=["unknown-label", "repeated-label", "no-pair", "arity", "wrong-template",
            "unknown-template"])
    def test_record_that_does_not_fit_its_table(self, dataset, tables, task, category,
                                                change, problem):
        """A rule record whose template, category or referents do not fit its
        scene's table is listed under gt_agreement, not raised."""
        records, _ = dataset
        idx = find_index(records, lambda r: r.task == task and r.category == category
                         and r.variant == VARIANT_PLAIN)
        record = records[idx]
        table = tables[record.scene_id]
        corrupted = swap(records, idx, **change(record, table))
        result = selfcheck(corrupted, tables=tables)
        assert result.checks["gt_agreement"] == [
            f"{record.qa_id}: " + problem.format(
                scene=record.scene_id, repeated=_repeated_label(table),
                first=record.referents[0], template=record.template_id)
        ]
        with pytest.raises(SceneQaError, match=re.escape(record.qa_id)):
            oracle_responses(corrupted, tables)

    def test_count_that_is_not_whole_trips_ni_display(self, dataset, tables):
        records, _ = dataset
        idx = find_index(records, lambda r: r.task == TASK_NI
                         and r.category == "quantity" and r.variant == VARIANT_PLAIN)
        corrupted = swap(records, idx, gt_value=2.5)
        result = selfcheck(corrupted, tables=tables)
        assert result.checks["ni_display"] == [
            f"{records[idx].qa_id}: count value 2.5 is not integral"
        ]

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


class TestSelfCheckLinkShapes:
    """Links the one-pass walk must not report as missing: each names a
    record that was read, paired and let go before the link was read."""

    def test_duplicate_id_with_a_changed_cp_link(self, dataset):
        records, _ = dataset
        first = records[0]
        elsewhere = next(r.qa_id for r in records[2:] if r.task == TASK_FV
                         and r.is_contrapositive)
        duplicate = dataclasses.replace(first, cp_link=elsewhere)
        result = selfcheck(list(records) + [duplicate])
        # links name the first record with an id; the repeat is only a duplicate
        assert pinned(result) == {
            "schema": [f"{first.qa_id}: duplicate qa_id"],
            "cp_involution": [],
            "ni_display": [],
        }

    def test_link_to_a_record_already_paired_with_another(self, dataset):
        records, _ = dataset
        idx = max(i for i, r in enumerate(records) if r.task == TASK_FV
                  and not r.is_contrapositive)
        rid, partner, taken = records[idx].qa_id, records[idx].cp_link, records[0].cp_link
        corrupted = swap(records, idx, cp_link=taken)
        result = selfcheck(corrupted)
        assert pinned(result) == {
            "schema": [],
            "cp_involution": [
                f"{rid}: cp_link {taken!r} names a record paired elsewhere or not yes/no",
                f"{partner}: link not mutual ({rid} -> {taken!r})",
            ],
            "ni_display": [],
        }


class TestResponders:
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

    def test_selfcheck_names_a_scene_without_a_table(self, dataset, tables):
        records, _ = dataset
        scene = records[0].scene_id
        partial = {sid: t for sid, t in tables.items() if sid != scene}
        with pytest.raises(MalformedFileError,
                           match=re.escape(f"no ground-truth table for scenes: [{scene!r}]")):
            selfcheck(records, tables=partial)

    def test_constant_yes_halves_fv_accuracy(self, dataset):
        records, _ = dataset
        fv = [r for r in records if r.task == TASK_FV]
        constant = {r.qa_id: ANSWER_YES for r in fv}
        report = score_records(fv, constant)
        for key, scores in report.strata.items():
            assert abs(scores.n_correct - scores.n_records / 2) <= 0.5, key
        pairs = consistency_report(fv, constant)
        for scores in pairs.strata.values():
            assert scores.consistency == 0.0

    def test_gold_tokens_echo_through_cot(self, dataset):
        records, _ = dataset
        responses = {r.qa_id: r.answer for r in records}
        report = score_records(records, responses)
        assert all(
            scores.accuracy == 1.0 if not key.startswith("ni/") else True
            for key, scores in report.strata.items()
        )
        # chains parse back to their own final verdict
        for record in records:
            if record.variant != VARIANT_PLAIN:
                assert record.gold in ("yes", "no") or \
                    record.task == TASK_NI
