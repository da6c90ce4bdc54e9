"""Dataset self-checks: structural sanity, contrapositive involution,
display consistency, self-scoring, balance, and ground-truth agreement.

``selfcheck`` answers the question "would this dataset score a perfect
responder at exactly 1.0, and is every contrapositive pair a true
inversion?" before anything is shipped to a model.  Each check reports the
offending record ids so failures are actionable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import SceneQaError
from .evaluate import (
    TA_THRESHOLDS,
    consistency_report,
    gold_answer,
    parse_numeric,
    score_records,
)
from .ngt import NgtTable
from .rulegen import (
    ANSWER_NO,
    ANSWER_YES,
    INVERSE_ANSWER,
    OPTION_LETTERS,
    PROVENANCE_LLM,
    PROVENANCE_RULE,
    QaRecord,
    VARIANT_COT,
    VARIANT_PLAIN,
    build_balance_report,
    balance_violations,
    referent_values,
    render_answer,
)
from .templates import (
    BY_ID,
    CAT_NON_NUMERIC,
    DEFAULT_APPROX_BAND,
    NUMERIC_CATEGORIES,
    TASK_FV,
    TASK_NI,
    TASK_PM,
    TASKS,
    UNITS,
    evaluate_predicate,
)

_NUMERIC = frozenset(NUMERIC_CATEGORIES)
_VALID_VARIANTS = {VARIANT_PLAIN, VARIANT_COT}
_VALID_PROVENANCE = {PROVENANCE_RULE, PROVENANCE_LLM}


# ---------------------------------------------------------------------------
# Reference responders
# ---------------------------------------------------------------------------


def echo_responses(records: Sequence[QaRecord]) -> dict[str, str]:
    """Each record answered with its own stored answer."""
    return {record.qa_id: record.answer for record in records}


def constant_responses(records: Sequence[QaRecord], token: str = ANSWER_YES,
                       task: str | None = TASK_FV) -> dict[str, str]:
    """Every record (optionally restricted to one task) gets ``token``."""
    return {
        record.qa_id: token
        for record in records
        if task is None or record.task == task
    }


def oracle_responses(records: Sequence[QaRecord],
                     tables: Mapping[str, NgtTable],
                     approx_band: float = DEFAULT_APPROX_BAND) -> dict[str, str]:
    """Recompute every rule-generated answer from the ground-truth tables.

    This deliberately ignores the stored answers: yes/no is re-derived from
    the template predicate over the referents' current ground-truth values,
    and numeric answers are re-rendered from the tables.  Records that cannot
    be recomputed (no template, e.g. service-rewritten items) echo their
    stored answer.
    """
    responses: dict[str, str] = {}
    for record in records:
        if record.provenance != PROVENANCE_RULE or record.template_id is None:
            responses[record.qa_id] = record.answer
            continue
        table = tables.get(record.scene_id)
        if table is None:
            raise SceneQaError(
                f"{record.qa_id}: no ground-truth table for scene {record.scene_id!r}"
            )
        values = referent_values(record.category, record.referents, table)
        if record.task == TASK_FV:
            template = BY_ID[record.template_id]
            holds = evaluate_predicate(template.predicate, values[0], values[1],
                                       approx_band=approx_band)
            responses[record.qa_id] = ANSWER_YES if holds else ANSWER_NO
        elif record.task == TASK_NI:
            responses[record.qa_id] = render_answer(record.category, values[0])
        else:
            responses[record.qa_id] = record.answer
    return responses


# ---------------------------------------------------------------------------
# Self-check
# ---------------------------------------------------------------------------


@dataclass
class SelfCheckResult:
    checks: dict[str, list[str]] = field(default_factory=dict)

    def add(self, check: str, failures: list[str]) -> None:
        self.checks[check] = failures

    @property
    def ok(self) -> bool:
        return all(not failures for failures in self.checks.values())

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": {
                name: {"ok": not failures, "failures": failures}
                for name, failures in sorted(self.checks.items())
            },
        }

    def summary_lines(self) -> list[str]:
        lines = []
        for name in sorted(self.checks):
            failures = self.checks[name]
            status = "ok" if not failures else f"FAILED ({len(failures)} problems)"
            lines.append(f"{name}: {status}")
            for failure in failures[:10]:
                lines.append(f"  - {failure}")
            if len(failures) > 10:
                lines.append(f"  - ... and {len(failures) - 10} more")
        lines.append("selfcheck: " + ("PASSED" if self.ok else "FAILED"))
        return lines


def _expected_cp_id(qa_id: str) -> str:
    if qa_id.endswith("-cot"):
        return qa_id[: -len("-cot")] + "-cp-cot"
    return qa_id + "-cp"


def _check_schema(records: Sequence[QaRecord]) -> list[str]:
    failures: list[str] = []
    seen: set[str] = set()
    for record in records:
        rid = record.qa_id
        if rid in seen:
            failures.append(f"{rid}: duplicate qa_id")
            continue
        seen.add(rid)
        if record.task not in TASKS:
            failures.append(f"{rid}: unknown task {record.task!r}")
            continue
        if record.variant not in _VALID_VARIANTS:
            failures.append(f"{rid}: unknown variant {record.variant!r}")
        if record.provenance not in _VALID_PROVENANCE:
            failures.append(f"{rid}: unknown provenance {record.provenance!r}")
        if not record.question.strip():
            failures.append(f"{rid}: empty question")
        gold = gold_answer(record)
        if record.task == TASK_FV:
            if gold not in (ANSWER_YES, ANSWER_NO):
                failures.append(f"{rid}: yes/no answer expected, got {record.answer!r}")
            if record.category not in _NUMERIC and record.category != CAT_NON_NUMERIC:
                failures.append(f"{rid}: bad category {record.category!r}")
        elif record.task == TASK_PM:
            if gold not in OPTION_LETTERS:
                failures.append(f"{rid}: option letter expected, got {record.answer!r}")
            if record.category != CAT_NON_NUMERIC:
                failures.append(f"{rid}: PM records are non-numeric, got {record.category!r}")
        else:  # NI
            if parse_numeric(gold) is None:
                failures.append(f"{rid}: numeric answer expected, got {record.answer!r}")
            if record.category not in _NUMERIC:
                failures.append(f"{rid}: bad category {record.category!r}")
            if record.gt_value is None:
                failures.append(f"{rid}: numeric record without gt_value")
        if record.provenance == PROVENANCE_RULE:
            if record.task != TASK_PM and not record.referents:
                failures.append(f"{rid}: rule record without referents")
            expected_unit = UNITS.get(record.category, "")
            if record.task == TASK_NI and record.unit != expected_unit:
                failures.append(
                    f"{rid}: unit {record.unit!r}, expected {expected_unit!r}"
                )
    return failures


def _check_cp_involution(records: Sequence[QaRecord]) -> list[str]:
    failures: list[str] = []
    by_id = {r.qa_id: r for r in records}
    for record in records:
        if record.task != TASK_FV:
            if record.task == TASK_NI and record.cp_link is not None:
                failures.append(f"{record.qa_id}: numeric records must not carry cp_link")
            continue
        if record.cp_link is None:
            failures.append(f"{record.qa_id}: yes/no record without cp_link")
            continue
        partner = by_id.get(record.cp_link)
        if partner is None:
            failures.append(f"{record.qa_id}: cp_link {record.cp_link!r} not in dataset")
            continue
        if partner.cp_link != record.qa_id:
            failures.append(
                f"{record.qa_id}: link not mutual ({partner.qa_id} -> {partner.cp_link!r})"
            )
        if not record.is_contrapositive:
            if record.cp_link != _expected_cp_id(record.qa_id):
                failures.append(
                    f"{record.qa_id}: cp id {record.cp_link!r} breaks the "
                    f"naming convention ({_expected_cp_id(record.qa_id)!r})"
                )
            gold = gold_answer(record)
            if gold_answer(partner) != INVERSE_ANSWER.get(gold):
                failures.append(
                    f"{record.qa_id}: answers not inverted "
                    f"({gold!r} / {gold_answer(partner)!r})"
                )
            for attr in ("scene_id", "category", "variant", "referents"):
                if getattr(record, attr) != getattr(partner, attr):
                    failures.append(f"{record.qa_id}: {attr} differs from its contrapositive")
            if record.template_id is not None:
                template = BY_ID.get(record.template_id)
                if template is None:
                    failures.append(f"{record.qa_id}: unknown template {record.template_id!r}")
                elif partner.template_id != template.cp_template_id:
                    failures.append(
                        f"{record.qa_id}: contrapositive uses {partner.template_id!r}, "
                        f"expected the inverse template {template.cp_template_id!r}"
                    )
    return failures


def _check_ni_display(records: Sequence[QaRecord]) -> list[str]:
    failures: list[str] = []
    for record in records:
        if record.task != TASK_NI or record.provenance != PROVENANCE_RULE:
            continue
        if record.gt_value is None:
            continue
        expected = render_answer(record.category, record.gt_value)
        if gold_answer(record) != expected:
            failures.append(
                f"{record.qa_id}: answer token {gold_answer(record)!r} does not "
                f"match the rendering {expected!r} of gt_value {record.gt_value!r}"
            )
    return failures


def _check_self_scoring(records: Sequence[QaRecord]) -> list[str]:
    failures: list[str] = []
    report = score_records(records, echo_responses(records))
    for key in sorted(report.strata):
        scores = report.strata[key]
        if scores.task == TASK_NI:
            for threshold in TA_THRESHOLDS:
                value = scores.ta_at(threshold)
                if value != 1.0:
                    failures.append(
                        f"{key}: self-scored ta@{round(threshold*100)} is {value}, expected 1.0"
                    )
        elif scores.accuracy != 1.0:
            failures.append(f"{key}: self-scored accuracy is {scores.accuracy}, expected 1.0")
    consistency = consistency_report(records, echo_responses(records))
    for key in sorted(consistency.strata):
        scores = consistency.strata[key]
        if scores.consistency != 1.0:
            failures.append(
                f"{key}: self-scored consistency is {scores.consistency}, expected 1.0"
            )
    for orphan in consistency.orphans:
        failures.append(f"{orphan}: contrapositive partner missing")
    return failures


def _check_oracle_agreement(records: Sequence[QaRecord],
                            tables: Mapping[str, NgtTable],
                            approx_band: float) -> list[str]:
    failures: list[str] = []
    oracle = oracle_responses(records, tables, approx_band=approx_band)
    for record in records:
        if record.provenance != PROVENANCE_RULE or record.template_id is None:
            continue
        recomputed = oracle[record.qa_id]
        if recomputed != gold_answer(record):
            failures.append(
                f"{record.qa_id}: stored answer {gold_answer(record)!r} disagrees "
                f"with ground truth recomputation {recomputed!r}"
            )
    return failures


def selfcheck(records: Sequence[QaRecord],
              tables: Mapping[str, NgtTable] | None = None,
              approx_band: float = DEFAULT_APPROX_BAND,
              n_options: int = 5) -> SelfCheckResult:
    """Run every dataset audit; ground-truth agreement runs only when the
    matching tables are supplied.  PM letters are balanced over
    ``n_options`` choices."""
    result = SelfCheckResult()
    result.add("schema", _check_schema(records))
    # downstream checks assume recognizable tasks/variants; anything else is
    # already reported by the schema check and would only crash them
    sound = [r for r in records
             if r.task in TASKS and r.variant in _VALID_VARIANTS]
    result.add("cp_involution", _check_cp_involution(sound))
    result.add("ni_display", _check_ni_display(sound))
    result.add("self_scoring", _check_self_scoring(sound))
    result.add("balance", balance_violations(build_balance_report(sound), n_options))
    if tables is not None:
        result.add("gt_agreement",
                   _check_oracle_agreement(sound, tables, approx_band))
    return result
