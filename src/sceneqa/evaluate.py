"""Scoring, one record at a time: exact accuracy, threshold accuracy for
numeric answers, and original/contrapositive consistency, for which only the
pair halves whose partner is unread are held.

A prediction is read by :func:`~sceneqa.rulegen.extract_answer` (the first
yes/no word, option letter or numeral of plain output, the last of
chain-of-thought output) and compared with the record's ``gold`` token,
which the same extraction read from the record's stored answer.

Threshold accuracy TA@t counts a numeric prediction as a hit when its
relative error to :func:`numeric_truth` is strictly below t; a ground truth
of exactly zero requires the prediction to be exactly zero.  Missing and
unparseable predictions are counted as misses and reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import SchemaViolationError
from .rulegen import INVERSE_ANSWER, QaRecord, VARIANT_PLAIN, extract_answer, stratum_key
from .templates import (
    CAT_DISTANCE,
    CAT_NON_NUMERIC,
    CAT_QUANTITY,
    CAT_VOLUME,
    TASK_FV,
    TASK_NI,
    TASK_PM,
)
from .util import read_jsonl

TA_THRESHOLDS = (0.05, 0.10, 0.20)


def parse_numeric(token: str | None) -> float | None:
    if token is None:
        return None
    try:
        return float(token)
    except ValueError:
        return None


def numeric_truth(record: QaRecord) -> float | None:
    """The true value of a numeric record: its ``gt_value``, else its parsed
    gold token; None when it has neither."""
    if record.gt_value is not None:
        return record.gt_value
    return parse_numeric(record.gold)


def ta_hit(gt: float, pred: float, threshold: float) -> bool:
    """Relative error strictly below ``threshold``; zero truth demands zero."""
    if gt == 0.0:
        return pred == 0.0
    return abs(pred - gt) < threshold * abs(gt)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class StratumScores:
    task: str
    category: str
    variant: str
    n_records: int = 0
    n_missing: int = 0
    n_unparsed: int = 0
    n_correct: int = 0
    ta_hits: dict[float, int] = field(default_factory=dict)

    @property
    def accuracy(self) -> float:
        return self.n_correct / self.n_records if self.n_records else 0.0

    def ta_at(self, threshold: float) -> float:
        return self.ta_hits.get(threshold, 0) / self.n_records if self.n_records else 0.0

    def to_dict(self) -> dict:
        row = {
            "task": self.task, "category": self.category, "variant": self.variant,
            "n_records": self.n_records, "n_missing": self.n_missing,
            "n_unparsed": self.n_unparsed,
        }
        if self.task == TASK_NI:
            row["ta"] = {f"{t:g}": self.ta_at(t) for t in sorted(self.ta_hits)}
        else:
            row["n_correct"] = self.n_correct
            row["accuracy"] = self.accuracy
        return row


@dataclass
class EvalReport:
    strata: dict[str, StratumScores] = field(default_factory=dict)

    def add(self, record: QaRecord, output: str | None) -> None:
        """Score one record's raw model output, None when it has none."""
        task, category, variant = record.task, record.category, record.variant
        key = stratum_key(record)
        scores = self.strata.get(key)
        if scores is None:
            ta_hits = dict.fromkeys(TA_THRESHOLDS, 0) if task == TASK_NI else {}
            scores = self.strata[key] = StratumScores(task, category, variant,
                                                      ta_hits=ta_hits)
        scores.n_records += 1
        if output is None:
            scores.n_missing += 1
            return
        token = extract_answer(output, record.task, record.variant)
        if token is None:
            scores.n_unparsed += 1
            return
        if record.task == TASK_NI:
            pred = float(token)  # an extracted numeral always parses
            gt = numeric_truth(record)
            if gt is None:
                raise SchemaViolationError(
                    f"{record.qa_id}: numeric record lacks a parseable ground truth"
                )
            for t in TA_THRESHOLDS:
                if ta_hit(gt, pred, t):
                    scores.ta_hits[t] += 1
        elif token == record.gold:
            scores.n_correct += 1

    def to_dict(self) -> dict:
        return {
            "thresholds": list(TA_THRESHOLDS),
            "strata": {key: self.strata[key].to_dict() for key in sorted(self.strata)},
        }


def score_records(records: Iterable[QaRecord],
                  predictions: Mapping[str, str]) -> EvalReport:
    """Score raw model outputs against a dataset, stratified by
    task/category/variant.  Missing and unparseable outputs count as misses;
    numeric outputs are scored at each of ``TA_THRESHOLDS``.  Every record is
    of a known task, variant and category, because :class:`QaRecord` refuses
    any other where it is built."""
    report = EvalReport()
    for record in records:
        report.add(record, predictions.get(record.qa_id))
    return report


# ---------------------------------------------------------------------------
# Original / contrapositive consistency
# ---------------------------------------------------------------------------


@dataclass
class ConsistencyScores:
    category: str
    variant: str
    n_pairs: int = 0
    n_consistent: int = 0
    n_original_correct: int = 0
    n_cp_correct: int = 0

    @property
    def consistency(self) -> float:
        return self.n_consistent / self.n_pairs if self.n_pairs else 0.0

    @property
    def original_accuracy(self) -> float:
        return self.n_original_correct / self.n_pairs if self.n_pairs else 0.0

    @property
    def cp_accuracy(self) -> float:
        return self.n_cp_correct / self.n_pairs if self.n_pairs else 0.0

    @property
    def delta(self) -> float:
        return self.original_accuracy - self.cp_accuracy

    def to_dict(self) -> dict:
        return {
            "category": self.category, "variant": self.variant,
            "n_pairs": self.n_pairs, "consistency": self.consistency,
            "original_accuracy": self.original_accuracy,
            "cp_accuracy": self.cp_accuracy, "delta": self.delta,
        }


@dataclass
class ConsistencyReport:
    strata: dict[str, ConsistencyScores] = field(default_factory=dict)
    # unpaired halves read so far: originals by the id they link to, cps by their own
    _originals: dict[str, list[QaRecord]] = field(default_factory=dict, repr=False)
    _cps: dict[str, QaRecord] = field(default_factory=dict, repr=False)

    @property
    def orphans(self) -> list[str]:
        """Originals whose contrapositive has not been read."""
        return [r.qa_id for waiting in self._originals.values() for r in waiting]

    def add(self, record: QaRecord, predictions: Mapping[str, str]) -> None:
        """Take the next record; a pair is scored once both halves are read."""
        pairs = []
        if record.task == TASK_FV and not record.is_contrapositive \
                and record.cp_link is not None:
            partner = self._cps.pop(record.cp_link, None)
            if partner is None:
                self._originals.setdefault(record.cp_link, []).append(record)
            else:
                pairs.append((record, partner))
        originals = self._originals.pop(record.qa_id, [])
        if not originals and record.is_contrapositive:
            self._cps[record.qa_id] = record
        for original, partner in pairs + [(original, record) for original in originals]:
            key = f"{original.category}/{original.variant}"
            scores = self.strata.get(key)
            if scores is None:
                scores = self.strata[key] = ConsistencyScores(original.category,
                                                              original.variant)
            scores.n_pairs += 1
            p_ori = extract_answer(predictions.get(original.qa_id), TASK_FV, original.variant)
            p_cp = extract_answer(predictions.get(partner.qa_id), TASK_FV, partner.variant)
            if p_ori == original.gold:
                scores.n_original_correct += 1
            if p_cp == partner.gold:
                scores.n_cp_correct += 1
            if p_ori is not None and p_cp is not None and p_cp == INVERSE_ANSWER[p_ori]:
                scores.n_consistent += 1

    def to_dict(self) -> dict:
        return {
            "strata": {key: self.strata[key].to_dict() for key in sorted(self.strata)},
            "orphans": sorted(self.orphans),
        }


def consistency_report(records: Iterable[QaRecord],
                       predictions: Mapping[str, str]) -> ConsistencyReport:
    """Pair yes/no originals with their contrapositives and measure how often
    a responder answers them oppositely (both must parse to count).
    """
    report = ConsistencyReport()
    for record in records:
        report.add(record, predictions)
    return report


# ---------------------------------------------------------------------------
# Text table
# ---------------------------------------------------------------------------

_TABLE_CATEGORIES = (CAT_NON_NUMERIC, CAT_QUANTITY, CAT_DISTANCE, CAT_VOLUME)


def format_report_table(report: EvalReport, variant: str = VARIANT_PLAIN) -> str:
    """Render accuracy / TA percentages as an aligned text table with one
    column per category."""
    headers = ["metric"] + list(_TABLE_CATEGORIES)
    rows: list[list[str]] = []

    def cell(task: str, category: str, value_fn) -> str:
        scores = report.strata.get(f"{task}/{category}/{variant}")
        if scores is None or scores.n_records == 0:
            return "-"
        return f"{100.0 * value_fn(scores):.2f}%"

    for task in (TASK_FV, TASK_PM):
        rows.append([f"{task} accuracy"] + [
            cell(task, c, lambda s: s.accuracy) for c in _TABLE_CATEGORIES
        ])
    for threshold in TA_THRESHOLDS:
        rows.append([f"ni ta@{round(threshold * 100):d}"] + [
            cell(TASK_NI, c, lambda s, t=threshold: s.ta_at(t))
            for c in _TABLE_CATEGORIES
        ])

    widths = [max(len(row[i]) for row in [headers] + rows) for i in range(len(headers))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rows:
        lines.append("  ".join(
            row[i].ljust(widths[i]) if i == 0 else row[i].rjust(widths[i])
            for i in range(len(row))
        ))
    return "\n".join(lines)


def read_predictions(path) -> dict[str, str]:
    """Load a predictions file: JSON lines with ``qa_id`` and ``output``, no
    id twice (the error names both lines)."""
    predictions: dict[str, str] = {}
    for line, row in read_jsonl(path):
        qa_id = row.get("qa_id")
        if not isinstance(qa_id, str) or not isinstance(row.get("output"), str):
            raise SchemaViolationError(
                f"{path}: line {line}: prediction rows need string "
                f"'qa_id' and 'output'"
            )
        if qa_id in predictions:  # rare: read the file again for the first line
            first = next(n for n, earlier in read_jsonl(path) if earlier["qa_id"] == qa_id)
            raise SchemaViolationError(
                f"{path}: line {line}: qa_id {qa_id!r} repeats line {first}")
        predictions[qa_id] = row["output"]
    return predictions
