"""Dataset self-checks: structural sanity, contrapositive involution,
display consistency, self-scoring, balance, and ground-truth agreement.

``selfcheck`` answers the question "would this dataset score a perfect
responder at exactly 1.0, and is every contrapositive pair a true
inversion?" before anything is shipped to a model.  It walks the records
once, keeping only their ids and the pair halves whose partner is unread,
and each check names the records that fail it.  A record's task, variant,
provenance and category are checked where it is built, by
:class:`~sceneqa.rulegen.QaRecord`, not here.  Self-scoring is a
per-record check on numeric records: a responder that echoes the stored
answer must be a hit at every threshold.  Yes/no and multiple-choice
answers need no such check, because the schema check already demands that
each record's ``gold`` token is a yes/no word or an option letter.

Ground-truth agreement and the oracle share one recomputation, which reads
values through :func:`~sceneqa.rulegen.referent_values`, the resolver
generation uses too; the reason a record does not fit its table is listed
under ``gt_agreement`` and raised by the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .errors import MalformedFileError, SceneQaError, SchemaViolationError
from .evaluate import TA_THRESHOLDS, extract_answer, numeric_truth, parse_numeric, ta_hit
from .ngt import NgtTable
from .rulegen import (
    ANSWER_NO,
    ANSWER_YES,
    INVERSE_ANSWER,
    OPTION_LETTERS,
    PROVENANCE_RULE,
    QaRecord,
    BalanceReport,
    balance_violations,
    contrapositive_id,
    recomputable,
    referent_values,
    render_answer,
)
from .templates import (
    BY_ID,
    DEFAULT_APPROX_BAND,
    TASK_FV,
    TASK_NI,
    TASK_PM,
    UNITS,
    evaluate_predicate,
)

_TA_MIN = min(TA_THRESHOLDS)


# ---------------------------------------------------------------------------
# Reference responder
# ---------------------------------------------------------------------------


def _recompute(record: QaRecord, tables: Mapping[str, NgtTable],
               approx_band: float) -> str:
    """The answer of a recomputable record, from ground truth; a missing
    table, or a template, category or referents that do not fit the table,
    raise :class:`SchemaViolationError`.  A record that fits is FV or NI:
    the bank has no PM template."""
    table = tables.get(record.scene_id)
    if table is None:
        raise SchemaViolationError(f"no ground-truth table for scene {record.scene_id!r}")
    template = BY_ID.get(record.template_id)
    if template is None:
        raise SchemaViolationError(f"unknown template {record.template_id!r}")
    if (template.task, template.category) != (record.task, record.category):
        raise SchemaViolationError(
            f"template {template.template_id!r} asks {template.task}/"
            f"{template.category}, not {record.task}/{record.category}")
    if len(record.referents) != template.arity:
        raise SchemaViolationError(
            f"{len(record.referents)} referents for template "
            f"{template.template_id!r} of arity {template.arity}")
    values = referent_values(record.category, record.referents, table)
    if record.task == TASK_FV:
        holds = evaluate_predicate(template.predicate, values[0], values[1],
                                   approx_band=approx_band)
        return ANSWER_YES if holds else ANSWER_NO
    return render_answer(record.category, values[0])


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
    responses = {}
    for record in records:
        try:
            responses[record.qa_id] = _recompute(record, tables, approx_band) \
                if recomputable(record) else record.answer
        except SchemaViolationError as exc:
            raise SchemaViolationError(f"{record.qa_id}: {exc}") from None
    return responses


# ---------------------------------------------------------------------------
# Self-check
# ---------------------------------------------------------------------------


@dataclass
class SelfCheckResult:
    checks: dict[str, list[str]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(not failures for failures in self.checks.values())

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


def _schema(record: QaRecord) -> list[str]:
    rid, gold = record.qa_id, record.gold
    failures: list[str] = []
    if not record.question.strip():
        failures.append(f"{rid}: empty question")
    if record.task == TASK_FV:
        if gold not in (ANSWER_YES, ANSWER_NO):
            failures.append(f"{rid}: yes/no answer expected, got {record.answer!r}")
    elif record.task == TASK_PM:
        if gold not in OPTION_LETTERS:
            failures.append(f"{rid}: option letter expected, got {record.answer!r}")
    else:  # NI
        if parse_numeric(gold) is None:
            failures.append(f"{rid}: numeric answer expected, got {record.answer!r}")
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


def _cp_involution(record: QaRecord, partner: QaRecord) -> list[str]:
    """The failures of ``record`` against ``partner``, the record it links to."""
    rid = record.qa_id
    failures: list[str] = []
    if partner.cp_link != rid:
        failures.append(f"{rid}: link not mutual ({partner.qa_id} -> {partner.cp_link!r})")
    if record.is_contrapositive:
        return failures
    if record.cp_link != contrapositive_id(rid):
        failures.append(
            f"{rid}: cp id {record.cp_link!r} breaks the "
            f"naming convention ({contrapositive_id(rid)!r})"
        )
    if partner.gold != INVERSE_ANSWER.get(record.gold):
        failures.append(f"{rid}: answers not inverted ({record.gold!r} / {partner.gold!r})")
    for attr in ("scene_id", "category", "variant", "referents"):
        if getattr(record, attr) != getattr(partner, attr):
            failures.append(f"{rid}: {attr} differs from its contrapositive")
    if record.template_id is not None:
        template = BY_ID.get(record.template_id)
        if template is None:
            failures.append(f"{rid}: unknown template {record.template_id!r}")
        elif partner.template_id != template.cp_template_id:
            failures.append(
                f"{rid}: contrapositive uses {partner.template_id!r}, "
                f"expected the inverse template {template.cp_template_id!r}"
            )
    return failures


class _Links:
    """The ``cp_involution`` check over a stream of records, each the first
    with its id.  A yes/no record is held until it and the record its link
    names link each other, and waits while that record is unread.  A link to
    a record no longer held (paired with another, or not yes/no) is reported
    as such.  Failures come out in file order."""

    def __init__(self, seen: set[str]):
        self.seen = seen  # every id read so far
        self._held: dict[str, QaRecord] = {}
        self._waiting: dict[str, list[tuple[int, QaRecord]]] = {}  # by link
        self._failures: list[tuple[int, list[str]]] = []

    def add(self, pos: int, record: QaRecord) -> None:
        rid, link = record.qa_id, record.cp_link
        partner = record if link == rid else self._held.get(link)
        for waiter_pos, waiter in self._waiting.pop(rid, ()):
            if failures := _cp_involution(waiter, record):
                self._failures.append((waiter_pos, failures))
            if link == waiter.qa_id:  # the pair is closed
                del self._held[link]
        if record.task != TASK_FV:
            failures = [f"{rid}: numeric records must not carry cp_link"] \
                if record.task == TASK_NI and link is not None else []
        elif link is None:
            failures = [f"{rid}: yes/no record without cp_link"]
        elif partner is not None:
            failures = _cp_involution(record, partner)
        elif link in self.seen:
            failures = [f"{rid}: cp_link {link!r} names a record paired elsewhere "
                        f"or not yes/no"]
        else:
            failures = []
            self._waiting.setdefault(link, []).append((pos, record))
        if record.task == TASK_FV and (partner is None or partner.cp_link != rid):
            self._held[rid] = record  # unpaired: a later record may link to it
        if failures:
            self._failures.append((pos, failures))

    def failures(self) -> list[str]:
        for waiters in self._waiting.values():
            self._failures += [(pos, [f"{record.qa_id}: cp_link {record.cp_link!r} "
                                      f"not in dataset"]) for pos, record in waiters]
        ordered = sorted(self._failures, key=itemgetter(0))
        return [failure for _, failures in ordered for failure in failures]


def selfcheck(records: Iterable[QaRecord],
              tables: Mapping[str, NgtTable] | None = None,
              approx_band: float = DEFAULT_APPROX_BAND,
              n_options: int = 5) -> SelfCheckResult:
    """Run every dataset audit in one pass over ``records``; ground-truth
    agreement runs only when tables are supplied, and the scenes they lack
    that a recomputable record names raise :class:`MalformedFileError` after
    the pass.  PM letters are balanced over ``n_options`` choices.  A record
    whose id repeats an earlier one is a ``schema`` failure and takes no part
    in pairing.  Every record is of a known task and variant, as
    :class:`QaRecord` checks."""
    schema: list[str] = []
    ni_display: list[str] = []
    self_scoring: list[str] = []
    gt_agreement: list[str] = []
    missing: set[str] = set()  # scenes with no table
    seen: set[str] = set()
    links = _Links(seen)
    balance = BalanceReport()
    for pos, record in enumerate(records):
        rid, gold = record.qa_id, record.gold
        if rid in seen:
            schema.append(f"{rid}: duplicate qa_id")
        else:
            seen.add(rid)
            schema += _schema(record)
            links.add(pos, record)
        balance.add(record)
        if record.task == TASK_NI:
            if record.provenance == PROVENANCE_RULE and record.gt_value is not None:
                try:
                    expected = render_answer(record.category, record.gt_value)
                except SceneQaError as exc:  # a count that is not whole
                    ni_display.append(f"{rid}: {exc}")
                else:
                    if gold != expected:
                        ni_display.append(
                            f"{rid}: answer token {gold!r} does not match the "
                            f"rendering {expected!r} of gt_value {record.gt_value!r}"
                        )
            # an echo of the stored answer must be a hit at every threshold
            token = extract_answer(record.answer, TASK_NI, record.variant)
            pred = parse_numeric(token)
            gt = numeric_truth(record)
            if pred is None or gt is None or not ta_hit(gt, pred, _TA_MIN):
                self_scoring.append(
                    f"{rid}: its own answer {token!r} misses ground truth {gt!r} "
                    f"at ta@{round(_TA_MIN * 100)}"
                )
        if tables is not None and recomputable(record):
            if record.scene_id not in tables:
                missing.add(record.scene_id)
                continue
            try:
                recomputed = _recompute(record, tables, approx_band)
            except SchemaViolationError as exc:
                gt_agreement.append(f"{rid}: {exc}")
                continue
            if recomputed != gold:
                gt_agreement.append(
                    f"{rid}: stored answer {gold!r} disagrees "
                    f"with ground truth recomputation {recomputed!r}"
                )
    if missing:
        raise MalformedFileError(f"no ground-truth table for scenes: {sorted(missing)[:5]}")
    checks = {
        "schema": schema, "cp_involution": links.failures(), "ni_display": ni_display,
        "self_scoring": self_scoring,
        "balance": balance_violations(balance, n_options),
    }
    if tables is not None:
        checks["gt_agreement"] = gt_agreement
    return SelfCheckResult(checks)
