"""Rule-based QA generation over NGT tables.

Every dataset record is a :class:`QaRecord`; its ``gold`` token, which a
prediction must match, is read from the stored answer by
:func:`extract_answer`, as predictions are.  Fact-verification (FV) items are
emitted in original/contrapositive pairs: the partner asks the logically
inverse question about the same referents, so one of the two always answers
"yes" and the other "no".  Numeric-input (NI) items ask for one number whose
rendered form is the answer string and whose full-precision value is kept in
``gt_value`` for threshold scoring.

:func:`referent_values` is the one resolver from referents to ground-truth
values: chains, selfcheck and the oracle read values through it, and
candidates are keyed by the referent tuples it takes.

Balance is enforced by construction, not by rejection sampling: global
index-based schedules (seeded permutations cycled by each record's absolute
position in its stratum) assign target answers, template groups, and option
letters.  Because the schedule depends only on the index, output is identical
however the work is split across scenes or workers.
"""

from __future__ import annotations

import bisect
import re
import sys
from dataclasses import dataclass, field, fields
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    ConfigError,
    InsufficientCandidatesError,
    SceneQaError,
    SchemaViolationError,
)
from .ngt import NgtTable
from .templates import (
    BY_ID,
    CAT_DISTANCE,
    CAT_NON_NUMERIC,
    CAT_QUANTITY,
    CAT_VOLUME,
    DEFAULT_APPROX_BAND,
    NUMERIC_CATEGORIES,
    PRED_APPROX_EQUAL,
    PRED_GREATER,
    PRED_GREATER_EQUAL,
    PRED_LESS,
    PRED_LESS_EQUAL,
    PRED_NOT_APPROX_EQUAL,
    TASK_FV,
    TASK_NI,
    TASK_PM,
    Template,
    evaluate_predicate,
    fill_text,
    fv_pairs,
    instantiate,
    templates_for,
)
from .util import (derive_seed, finite_number, read_jsonl, render_count,
                   render_decimal, write_jsonl)

VARIANT_PLAIN = "plain"
VARIANT_COT = "cot"
PROVENANCE_RULE = "rule"
PROVENANCE_LLM = "llm"

ANSWER_YES = "yes"
ANSWER_NO = "no"
INVERSE_ANSWER = {ANSWER_YES: ANSWER_NO, ANSWER_NO: ANSWER_YES}
OPTION_LETTERS = ("A", "B", "C", "D", "E")

COT_SUFFIX = (
    "Please solve the problem step by step. Show each intermediate thought "
    "process clearly and provide the final answer after completing the "
    "reasoning process."
)


_YESNO_RE = re.compile(r"\b(yes|no)\b", re.IGNORECASE)
_LETTER_UPPER_RE = re.compile(r"\b([A-E])[).:,]?(?=\s|$)")
_LETTER_OPTION_RE = re.compile(r"\b([a-e])[).]")
_NUMERAL_RE = re.compile(r"[-+]?(?:\d+\.\d+|\.\d+|\d+)")


def extract_answer(output: str | None, task: str,
                   variant: str = VARIANT_PLAIN) -> str | None:
    """The canonical answer token of free text: a standalone yes/no word
    (lowercased), option letter (uppercased) or numeral; the first in plain
    output, the last in chain-of-thought output, whose reasoning states
    intermediate quantities before the answer.  None when nothing matches.
    """
    if not output:
        return None
    if task == TASK_FV:
        matches, case = _YESNO_RE.findall(output), str.lower
    elif task == TASK_PM:
        # Prefer unambiguous uppercase letters; fall back to lowercase
        # letters written in option form ("b)"), which cannot be articles.
        matches = _LETTER_UPPER_RE.findall(output) or _LETTER_OPTION_RE.findall(output)
        case = str.upper
    elif task == TASK_NI:
        matches, case = _NUMERAL_RE.findall(output), str
    else:
        raise SchemaViolationError(f"unknown task {task!r}")
    if not matches:
        return None
    return case(matches[-1] if variant == VARIANT_COT else matches[0])


_CATEGORIES = {  # the categories each task allows
    TASK_FV: frozenset((*NUMERIC_CATEGORIES, CAT_NON_NUMERIC)),
    TASK_PM: frozenset((CAT_NON_NUMERIC,)),
    TASK_NI: frozenset(NUMERIC_CATEGORIES),
}
_VARIANTS = frozenset((VARIANT_PLAIN, VARIANT_COT))
_PROVENANCES = frozenset((PROVENANCE_RULE, PROVENANCE_LLM))


@dataclass(frozen=True, slots=True)
class QaRecord:
    """One dataset item.  Its task, variant, provenance and category are
    checked here and nowhere else: a value outside its vocabulary, such as a
    PM ``quantity``, raises ``"<qa_id>: unknown category 'quantity'"``."""

    qa_id: str
    scene_id: str
    task: str
    category: str
    question: str
    answer: str
    gt_value: float | None
    unit: str
    cp_link: str | None
    variant: str
    provenance: str
    template_id: str | None
    referents: tuple[str, ...]
    # The token a prediction must match, None for an unreadable chain; not
    # an init field, so replace() recomputes it and to_dict() leaves it out.
    gold: str | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # one chained test per record built; the loop only words a refusal
        if not (self.category in _CATEGORIES.get(self.task, ())
                and self.variant in _VARIANTS and self.provenance in _PROVENANCES):
            for name, allowed in (("task", _CATEGORIES), ("variant", _VARIANTS),
                                  ("provenance", _PROVENANCES),
                                  ("category", _CATEGORIES.get(self.task, ()))):
                if (value := getattr(self, name)) not in allowed:
                    raise SchemaViolationError(f"{self.qa_id}: unknown {name} {value!r}")
        gold = self.answer if self.variant == VARIANT_PLAIN else \
            extract_answer(self.answer, self.task, self.variant)
        if gold is not None and self.variant != VARIANT_PLAIN and self.task != TASK_NI:
            gold = sys.intern(gold)  # a chain's yes/no or letter: one string per value
        object.__setattr__(self, "gold", gold)

    @property
    def is_contrapositive(self) -> bool:
        return self.qa_id.endswith("-cp") or self.qa_id.endswith("-cp-cot")

    def to_dict(self) -> dict:
        """The record as a JSON object, keys in field order."""
        row = {name: getattr(self, name) for name in _RECORD_KEYS}
        row["referents"] = list(self.referents)
        return row


_RECORD_KEYS = tuple(f.name for f in fields(QaRecord) if f.init)
_TEXT_KEYS = tuple(f.name for f in fields(QaRecord) if f.init and f.type == "str")
_NULLABLE_TEXT_KEYS = tuple(f.name for f in fields(QaRecord)
                            if f.init and f.type == "str | None")


def contrapositive_id(qa_id: str) -> str:
    """The id of the contrapositive of the yes/no record ``qa_id``: suffix
    ``-cp``, placed before the ``-cot`` of a chain-of-thought twin."""
    if qa_id.endswith("-cot"):
        return qa_id[: -len("-cot")] + "-cp-cot"
    return qa_id + "-cp"


def recomputable(record: QaRecord) -> bool:
    """Whether the record's answer can be re-derived from the ground-truth
    tables (rule-generated from a template)."""
    return record.provenance == PROVENANCE_RULE and record.template_id is not None


def _row_error(source: str, line: int | None, problem: str) -> SchemaViolationError:
    where = source if line is None else f"{source}: line {line}"
    return SchemaViolationError(f"{where}: {problem}")


_row_values = itemgetter(*_RECORD_KEYS)


def _text_problem(row: dict) -> str:
    """The complaint about the first text field of ``row`` that is not a
    string (or null, where null is allowed)."""
    for key in _TEXT_KEYS:
        if type(row[key]) is not str:
            return f"{key!r} must be a string, got {row[key]!r}"
    for key in _NULLABLE_TEXT_KEYS:
        if row[key] is not None and type(row[key]) is not str:
            return f"{key!r} must be a string or null, got {row[key]!r}"
    raise AssertionError("every text field of the row is well typed")


def record_from_dict(row: dict, source: str = "<dict>",
                     line: int | None = None) -> QaRecord:
    """One dataset row as a record; a row that breaks the schema raises
    :class:`SchemaViolationError` naming ``source`` and ``line``.

    Every text field must be a JSON string (``cp_link`` and ``template_id``
    may be null); nothing is coerced.  A value :class:`QaRecord` refuses
    reads ``"<source>: line <n>: <qa_id>: unknown task 'essay'"``.  The
    categorical fields (``scene_id``, ``task``, ``category``, ``unit``,
    ``variant``, ``provenance``, ``template_id`` and each referent) go through
    :func:`sys.intern`, so the records of a dataset share one string object
    per distinct value.  A
    dataset holds a few hundred such values however many records it has, so
    this about halves the memory a loaded record holds.  Ids, questions and
    answers differ per record and are kept as read: an interned string may
    live as long as the interpreter (on CPython 3.12 every one does), which
    is harmless only for a small set of distinct values.
    """
    try:
        (qa_id, scene_id, task, category, question, answer, gt, unit, cp_link,
         variant, provenance, template_id, referents) = _row_values(row)
    except KeyError:
        missing = [k for k in _RECORD_KEYS if k not in row]
        raise _row_error(source, line, f"record missing keys {missing}") from None
    # type(), not isinstance(): sys.intern takes no str subclass.  One chained
    # test, because this runs once per row of every dataset read.
    if not (type(qa_id) is str and type(scene_id) is str and type(task) is str
            and type(category) is str and type(question) is str
            and type(answer) is str and type(unit) is str
            and type(variant) is str and type(provenance) is str
            and (cp_link is None or type(cp_link) is str)
            and (template_id is None or type(template_id) is str)):
        raise _row_error(source, line, _text_problem(row))
    if gt is not None:
        if not finite_number(gt):
            raise _row_error(source, line,
                             f"'gt_value' must be a finite number or null, got {gt!r}")
        gt = float(gt)
    if type(referents) is not list or not all(type(r) is str for r in referents):
        raise _row_error(source, line, "'referents' must be a list of strings")
    intern = sys.intern
    try:
        # positional, in field order, as _row_values read them
        return QaRecord(
            qa_id, intern(scene_id), intern(task), intern(category), question,
            answer, gt, intern(unit), cp_link, intern(variant), intern(provenance),
            None if template_id is None else intern(template_id),
            tuple(map(intern, referents)),
        )
    except SchemaViolationError as exc:
        raise _row_error(source, line, str(exc)) from None


def write_dataset(records: Iterable[QaRecord], path: str | Path) -> int:
    return write_jsonl((r.to_dict() for r in records), path)


def iter_dataset(path: str | Path) -> Iterator[tuple[int, QaRecord]]:
    """``(line number, record)`` for each row of a dataset file, one at a time."""
    source = str(path)
    for line, row in read_jsonl(path):
        yield line, record_from_dict(row, source, line)


def read_dataset(path: str | Path) -> list[QaRecord]:
    return [record for _, record in iter_dataset(path)]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


# What a config field's annotation admits, and how a refusal words it.  Every
# field is checked against the entry of its annotation, so the annotation is
# the one declaration of a key's type.  true/false are neither integers nor
# numbers here (``type()``, not ``isinstance()``), and nothing is coerced.
_KINDS = {
    "int": (lambda v: type(v) is int and v >= 0, "a non-negative integer"),
    "float": (finite_number, "a finite number"),
    "str": (lambda v: type(v) is str, "a string"),
    "bool": (lambda v: type(v) is bool, "true or false"),
    "int | None": (lambda v: v is None or type(v) is int and v > 0,
                   "a positive integer or null"),
    "float | None": (lambda v: v is None or finite_number(v), "a finite number or null"),
    "tuple[str, ...]": (lambda v: type(v) in (list, tuple)
                        and all(type(item) is str for item in v), "a list of strings"),
}


@dataclass(frozen=True)
class RulegenConfig:
    """Counts are total records per stratum across the whole dataset."""

    fv_quantity: int = 0
    fv_distance: int = 0
    fv_volume: int = 0
    ni_quantity: int = 0
    ni_distance: int = 0
    ni_volume: int = 0
    cot_fraction: float = 0.0
    # comparisons closer than this relative margin are too ambiguous to ask
    ambiguity_margin: float = 0.05
    # ratio band for "approximately equal": yes inside 1-band_in, no outside
    # 1-band_out; the zone between is skipped entirely
    approx_band_in: float = DEFAULT_APPROX_BAND
    approx_band_out: float = 0.30
    # smallest value a numeric answer may round-display; keeps the rendered
    # two-decimal answer inside the tightest scoring threshold
    min_display_value: float = 0.15

    def __post_init__(self):
        # fields(self): a subclass's fields are checked here too, before
        # any range rule compares a value
        for f in fields(self):
            admits, kind = _KINDS[f.type]
            value = getattr(self, f.name)
            if not admits(value):
                raise ConfigError(f"{f.name} must be {kind}, got {value!r}")
        for name in ("fv_quantity", "fv_distance", "fv_volume"):
            if getattr(self, name) % 2:
                raise ConfigError(
                    f"{name} must be even (records come in original/contrapositive pairs)"
                )
        if not 0.0 <= self.cot_fraction <= 1.0:
            raise ConfigError("cot_fraction must be within [0, 1]")
        if not 0.0 < self.approx_band_in < self.approx_band_out < 1.0:
            raise ConfigError("need 0 < approx_band_in < approx_band_out < 1")
        if self.ambiguity_margin < 0.0 or self.ambiguity_margin >= 1.0:
            raise ConfigError("ambiguity_margin must be within [0, 1)")

    def fv_count(self, category: str) -> int:
        return getattr(self, f"fv_{category}")

    def ni_count(self, category: str) -> int:
        return getattr(self, f"ni_{category}")


# ---------------------------------------------------------------------------
# Global schedules: balance by absolute index
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Schedules:
    """Seeded permutations consulted by absolute record index.

    ``fv_target`` alternates the original item's answer and ``fv_group``
    cycles the five inverse template pairs, so ``k % 10`` fixes both.
    ``fv_member`` flips which pair member is the original every ten indices,
    so each template sees both answers equally often, and template usage per
    stratum stays within one of N/10 for any N.
    """

    fv_targets: dict[str, tuple[str, str]]
    fv_groups: dict[str, tuple[int, ...]]
    fv_member_offsets: dict[str, int]
    ni_orders: dict[str, tuple[int, ...]]
    letter_order: tuple[str, ...]
    indicator_order: tuple[bool, bool]

    def fv_target(self, category: str, k: int) -> str:
        return self.fv_targets[category][k % 2]

    def fv_group(self, category: str, k: int) -> int:
        return self.fv_groups[category][k % 5]

    def fv_member(self, category: str, k: int) -> int:
        return (self.fv_member_offsets[category] + k // 10) % 2

    def ni_template_index(self, category: str, k: int) -> int:
        return self.ni_orders[category][k % 10]

    def pm_letter(self, k: int, n_options: int = 5) -> str:
        allowed = OPTION_LETTERS[:n_options]
        cycle = tuple(ch for ch in self.letter_order if ch in allowed)
        return cycle[k % n_options]

    def fv_indicator(self, k: int) -> bool:
        return self.indicator_order[k % 2]


def build_schedules(master_seed: int) -> Schedules:
    rng = np.random.default_rng(derive_seed(master_seed, "schedules"))
    fv_targets: dict[str, tuple[str, str]] = {}
    fv_groups: dict[str, tuple[int, ...]] = {}
    fv_member_offsets: dict[str, int] = {}
    ni_orders: dict[str, tuple[int, ...]] = {}
    for category in NUMERIC_CATEGORIES:
        pair = [ANSWER_YES, ANSWER_NO]
        if rng.integers(2):
            pair.reverse()
        fv_targets[category] = tuple(pair)
        fv_groups[category] = tuple(int(i) for i in rng.permutation(5))
        fv_member_offsets[category] = int(rng.integers(2))
        ni_orders[category] = tuple(int(i) for i in rng.permutation(10))
    letter_order = tuple(OPTION_LETTERS[int(i)] for i in rng.permutation(5))
    indicators = [True, False]
    if rng.integers(2):
        indicators.reverse()
    return Schedules(fv_targets, fv_groups, fv_member_offsets, ni_orders,
                     letter_order, tuple(indicators))


# ---------------------------------------------------------------------------
# Candidate pools
# ---------------------------------------------------------------------------

# random draws a pool tries before its seeded systematic scan
_MAX_DRAW_ATTEMPTS = 200


class _ValuePool:
    """Deterministic sampler over (key, value) items sorted by value.

    Supports margin-separated strict draws and ratio-banded approximate
    draws; random attempts fall back to a seeded systematic scan before
    giving up, so "no candidates" really means the pool has none.
    """

    def __init__(self, items: Sequence[tuple], margin: float,
                 band_in: float, band_out: float):
        self.items = sorted(items, key=lambda kv: (kv[1], kv[0]))
        self.values = [v for _, v in self.items]
        self.margin = margin
        self.band_in = band_in
        self.band_out = band_out

    def _separated(self, i: int, j: int) -> bool:
        vi, vj = self.values[i], self.values[j]
        return vi != vj and abs(vi - vj) >= self.margin * max(abs(vi), abs(vj))

    def _band_range(self, value: float, band: float) -> tuple[int, int]:
        # values are non-negative quantities; the band is a min/max ratio
        lo = value * (1.0 - band)
        hi = value / (1.0 - band)
        return (bisect.bisect_left(self.values, lo),
                bisect.bisect_right(self.values, hi))

    def draw_strict(self, rng: np.random.Generator):
        """Two distinct items whose values differ by at least the margin,
        returned as (smaller, larger)."""
        n = len(self.items)
        if n >= 2:
            for _ in range(_MAX_DRAW_ATTEMPTS):
                i, j = rng.integers(n), rng.integers(n)
                if i != j and self._separated(i, j):
                    if self.values[i] > self.values[j]:
                        i, j = j, i
                    return self.items[i], self.items[j]
            for i in rng.permutation(n):
                # smallest partner clearly above item i
                k = bisect.bisect_left(self.values, self.values[i] / (1.0 - self.margin)
                                       if self.margin < 1.0 else float("inf"))
                while k < n and not self._separated(i, k):
                    k += 1
                if k < n:
                    return self.items[i], self.items[k]
        return None

    def _partners(self, i: int, close: bool) -> tuple[range, range]:
        """Item i's partners, below and above it: inside its inner band for
        close pairs, outside its outer band for far ones.  Item i always
        sits inside its own band, so neither range holds it."""
        if close:
            lo, hi = self._band_range(self.values[i], self.band_in)
            return range(lo, i), range(i + 1, hi)
        olo, ohi = self._band_range(self.values[i], self.band_out)
        return range(olo), range(ohi, len(self.items))

    def draw_approx(self, rng: np.random.Generator, close: bool):
        n = len(self.items)
        if n < 2:
            return None
        for _ in range(_MAX_DRAW_ATTEMPTS):
            i = int(rng.integers(n))
            below, above = self._partners(i, close)
            if below or above:
                pick = int(rng.integers(len(below) + len(above)))
                j = below[pick] if pick < len(below) else above[pick - len(below)]
                return self.items[i], self.items[j]
        # systematic fallback: the smallest partner; a far pair with none
        # below takes the largest
        for i in rng.permutation(n):
            below, above = self._partners(int(i), close)
            if below or above:
                j = below[0] if below else above[0 if close else -1]
                return self.items[i], self.items[j]
        return None


def _candidate_items(table: NgtTable, category: str) -> list[tuple]:
    """(referents, value) candidates in referent order: a 1-tuple label for
    quantity and volume, a label pair for distance."""
    if category == CAT_QUANTITY:
        return [((label,), float(count)) for label, count in sorted(table.label_counts().items())]
    unique = table.unique_label_instances()
    if category == CAT_VOLUME:
        return [((label,), inst.volume) for label, inst in sorted(unique.items())]
    labels = sorted(unique)
    items = []
    for i, la in enumerate(labels):
        for lb in labels[i + 1:]:
            ia, ib = unique[la].instance_id, unique[lb].instance_id
            if table.has_pair(ia, ib):
                items.append(((la, lb), table.distance(ia, ib)))
    return items


def render_answer(category: str, value: float) -> str:
    """The answer string of a numeric value: counts as integers, distances
    and volumes with two decimals."""
    return render_count(value) if category == CAT_QUANTITY else render_decimal(value)


def referent_values(category: str, referents: Sequence[str], table: NgtTable) -> list[float]:
    """The ground-truth values a record's referents name: a count or a volume
    per label, a distance per label pair.  Counts are per label; volumes and
    distances need a label that names one instance.  Referents that do not
    fit the table raise :class:`SchemaViolationError` saying why."""
    if category not in NUMERIC_CATEGORIES:
        raise SceneQaError(f"no referent values for category {category!r}")
    quantity = category == CAT_QUANTITY
    known = table.label_counts() if quantity else table.unique_label_instances()
    unknown = [label for label in referents if label not in known]
    if unknown:
        kind = "label" if quantity else "unique label"
        raise SchemaViolationError(
            f"referents {unknown} name no {kind} of scene {table.scene_id!r}")
    if quantity:
        return [float(known[label]) for label in referents]
    if category == CAT_VOLUME:
        return [known[label].volume for label in referents]
    values = []
    for a, b in zip(referents[::2], referents[1::2]):
        ia, ib = known[a].instance_id, known[b].instance_id
        if not table.has_pair(ia, ib):
            raise SchemaViolationError(
                f"no distance between {a!r} and {b!r} in scene {table.scene_id!r}")
        values.append(table.distance(ia, ib))
    return values


# ---------------------------------------------------------------------------
# FV generation
# ---------------------------------------------------------------------------


def _orient_strict(predicate: str, target: str, low_item, high_item):
    """Order a margin-separated (low, high) draw so the predicate evaluates
    to the target answer."""
    want_low_first = predicate in (PRED_LESS, PRED_LESS_EQUAL)
    if target == ANSWER_NO:
        want_low_first = not want_low_first
    return (low_item, high_item) if want_low_first else (high_item, low_item)


def gen_fv_numeric(
    table: NgtTable,
    cfg: RulegenConfig,
    rng: np.random.Generator,
    *,
    category: str,
    count: int,
    start_index: int,
    schedules: Schedules,
) -> list[QaRecord]:
    """Up to ``count`` FV original/contrapositive pairs (two records each)
    for one scene and category.

    ``start_index`` is the absolute pair index of this scene's first pair
    within the global stratum, which drives the balance schedules.  Fewer
    pairs come back when the scene's value pool runs dry; drawing stops at
    the first draw that finds nothing, and the caller counts the shortfall.
    """
    pool = _ValuePool(_candidate_items(table, category), cfg.ambiguity_margin,
                      cfg.approx_band_in, cfg.approx_band_out)
    pairs = fv_pairs(category)

    records: list[QaRecord] = []
    for offset in range(count):
        k = start_index + offset
        target = schedules.fv_target(category, k)
        group = pairs[schedules.fv_group(category, k)]
        member = schedules.fv_member(category, k)
        t_orig, t_cp = group[member], group[1 - member]

        if t_orig.predicate in (PRED_APPROX_EQUAL, PRED_NOT_APPROX_EQUAL):
            close = (t_orig.predicate == PRED_APPROX_EQUAL) == (target == ANSWER_YES)
            draw = pool.draw_approx(rng, close)
            if draw is None:
                break
            first, second = draw
        else:
            draw = pool.draw_strict(rng)
            if draw is None:
                break
            first, second = _orient_strict(t_orig.predicate, target, *draw)

        bindings = first[0] + second[0]
        base_id = f"{table.scene_id}-fv-{category}-{k:05d}"
        cp_id = contrapositive_id(base_id)
        records.append(QaRecord(
            qa_id=base_id, scene_id=table.scene_id, task=TASK_FV,
            category=category, question=instantiate(t_orig, bindings),
            answer=target, gt_value=None, unit="", cp_link=cp_id,
            variant=VARIANT_PLAIN, provenance=PROVENANCE_RULE,
            template_id=t_orig.template_id, referents=bindings,
        ))
        records.append(QaRecord(
            qa_id=cp_id, scene_id=table.scene_id, task=TASK_FV,
            category=category, question=instantiate(t_cp, bindings),
            answer=INVERSE_ANSWER[target], gt_value=None, unit="", cp_link=base_id,
            variant=VARIANT_PLAIN, provenance=PROVENANCE_RULE,
            template_id=t_cp.template_id, referents=bindings,
        ))
    return records


# ---------------------------------------------------------------------------
# NI generation
# ---------------------------------------------------------------------------


def gen_ni(
    table: NgtTable,
    cfg: RulegenConfig,
    rng: np.random.Generator,
    *,
    category: str,
    count: int,
    start_index: int,
    schedules: Schedules,
) -> list[QaRecord]:
    """``count`` NI records for one scene and category, or none when no
    referent is eligible (the caller counts the shortfall).

    Distance and volume referents must display at or above
    ``cfg.min_display_value`` so the two-decimal rendered answer stays within
    the tightest scoring threshold of the true value.  Referents are drawn
    with replacement, so an eligible pool never runs dry.
    """
    items = _candidate_items(table, category)
    if category != CAT_QUANTITY:
        items = [(refs, value) for refs, value in items if value >= cfg.min_display_value]
    if not items:
        return []
    ordered = templates_for(TASK_NI, category)

    records: list[QaRecord] = []
    for offset in range(count):
        k = start_index + offset
        template = ordered[schedules.ni_template_index(category, k)]
        referents, value = items[int(rng.integers(len(items)))]
        records.append(QaRecord(
            qa_id=f"{table.scene_id}-ni-{category}-{k:05d}",
            scene_id=table.scene_id, task=TASK_NI, category=category,
            question=instantiate(template, referents),
            answer=render_answer(category, value),
            gt_value=float(value), unit=template.unit, cp_link=None,
            variant=VARIANT_PLAIN, provenance=PROVENANCE_RULE,
            template_id=template.template_id, referents=referents,
        ))
    return records


# ---------------------------------------------------------------------------
# Chain-of-thought variants
# ---------------------------------------------------------------------------

_REL_LESS = "less than"
_REL_GREATER = "greater than"
_REL_EQUAL = "equal to"
_REL_APPROX = "approximately equal to"
_REL_NOT_APPROX = "not approximately equal to"


def _relation_phrase(predicate: str, v1: float, v2: float, band_in: float) -> str:
    if predicate in (PRED_APPROX_EQUAL, PRED_NOT_APPROX_EQUAL):
        close = evaluate_predicate(PRED_APPROX_EQUAL, v1, v2, band_in)
        return _REL_APPROX if close else _REL_NOT_APPROX
    if v1 < v2:
        return _REL_LESS
    if v1 > v2:
        return _REL_GREATER
    return _REL_EQUAL


def _fv_chain(record: QaRecord, template: Template, values: list[float],
              band_in: float) -> str:
    rel = _relation_phrase(template.predicate, values[0], values[1], band_in)
    r = record.referents
    if record.category == CAT_QUANTITY:
        return (
            f"Given the count of {r[0]} as {render_count(values[0])} and the "
            f"count of {r[1]} as {render_count(values[1])}, the count of "
            f"{r[0]} is {rel} the count of {r[1]}. Therefore, the answer is "
            f"{record.answer}."
        )
    if record.category == CAT_VOLUME:
        return (
            f"Given the volume of the bounding box of {r[0]} as "
            f"{render_decimal(values[0])} cubic meters and the volume of the "
            f"bounding box of {r[1]} as {render_decimal(values[1])} cubic "
            f"meters, the volume of the bounding box of {r[0]} is {rel} the "
            f"volume of the bounding box of {r[1]}. Therefore, the answer is "
            f"{record.answer}."
        )
    return (
        f"The distance between {r[0]} and {r[1]} is approximately "
        f"{render_decimal(values[0])} meters. The distance between {r[2]} and "
        f"{r[3]} is approximately {render_decimal(values[1])} meters. Since "
        f"the distance between {r[0]} and {r[1]} is {rel} the distance "
        f"between {r[2]} and {r[3]}, the answer is {record.answer}."
    )


def _ni_chain(record: QaRecord, table: NgtTable) -> str:
    r = record.referents
    if record.category == CAT_QUANTITY:
        return (
            f"Counting each {r[0]} in the room gives {record.answer} in "
            f"total. Therefore, the answer is {record.answer}."
        )
    if record.category == CAT_DISTANCE:
        return (
            f"The closest points of the convex hulls of the {r[0]} and the "
            f"{r[1]} are approximately {record.answer} meters apart. "
            f"Therefore, the answer is {record.answer}."
        )
    inst = table.unique_label_instances()[r[0]]
    dx, dy, dz = (render_decimal(d) for d in inst.dims)
    return (
        f"Given the bounding box dimensions of the {r[0]} along the X, Y, and "
        f"Z axes as {dx} m, {dy} m, and {dz} m respectively, the volume of "
        f"the bounding box is calculated as (length x width x height), "
        f"yielding approximately {record.answer} cubic meters. Therefore, "
        f"the answer is {record.answer}."
    )


def gen_cot_variant(record: QaRecord, table: NgtTable, cfg: RulegenConfig) -> QaRecord:
    """Derive the chain-of-thought twin of a rule-generated record.

    The question keeps the template body but swaps the answer-format suffix
    for a step-by-step instruction; the answer becomes a short reasoning
    chain that restates the ground-truth values and ends with the original
    answer.  The chain's final token is the answer, which is what variant-
    aware extraction reads back.
    """
    if not recomputable(record):
        raise SceneQaError("chain-of-thought variants need a rule-generated record")
    if record.variant != VARIANT_PLAIN:
        raise SceneQaError(f"record {record.qa_id} already has variant {record.variant}")
    template = BY_ID[record.template_id]
    question = f"{fill_text(template, record.referents)} {COT_SUFFIX}"
    if record.task == TASK_FV:
        values = referent_values(record.category, record.referents, table)
        answer = _fv_chain(record, template, values, cfg.approx_band_in)
    else:
        answer = _ni_chain(record, table)
    return QaRecord(
        qa_id=f"{record.qa_id}-cot",
        scene_id=record.scene_id, task=record.task, category=record.category,
        question=question, answer=answer, gt_value=record.gt_value,
        unit=record.unit,
        cp_link=None if record.cp_link is None else f"{record.cp_link}-cot",
        variant=VARIANT_COT, provenance=record.provenance,
        template_id=record.template_id, referents=record.referents,
    )


# ---------------------------------------------------------------------------
# Dataset-level driver
# ---------------------------------------------------------------------------


def _split_quota(total: int, parts: int) -> list[int]:
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def _twin_selector(total: int, fraction: float):
    """Choose which absolute indices get a chain-of-thought twin.

    The answer alternation cycles mod 2 and the template schedules cycle mod 5
    or mod 10, so balancing the twinned subset needs its indices spread evenly
    across residue classes mod 10.  Each class gets floor/ceil(T/10) twins,
    placed evenly within the class.  (Class quotas never exceed class sizes:
    quota_r = ceil((T - r) / 10) <= ceil((total - r) / 10) = size_r.)
    """
    twins = int(round(fraction * total))
    quotas = _split_quota(twins, 10)
    sizes = [(total - r + 9) // 10 if total > r else 0 for r in range(10)]

    def selected(k: int) -> bool:
        r, m = k % 10, k // 10
        q, size = quotas[r], sizes[r]
        if size == 0 or q == 0:
            return False
        return (m + 1) * q // size > m * q // size

    return selected


def iter_rule_dataset(
    tables: Sequence[NgtTable],
    cfg: RulegenConfig,
    master_seed: int,
) -> Iterator[QaRecord]:
    """Yield the full rule-based dataset across scenes, one scene at a time.

    Scenes are processed in sorted scene-id order with per-scene derived RNG
    streams; quotas are split evenly with the remainder on the earliest
    scenes, and a zero quota is not asked for.  Each scene's plain records
    are yielded, then its chain-of-thought twins, added for the leading
    ``cot_fraction`` share of its stream; nothing of a later scene is
    generated before the consumer asks for it.  A scene that returns fewer
    records than its quota adds them to the shortfall of its stratum
    (``fv/<category>`` or ``ni/<category>``, in records) and names itself on
    a detail line; after the last scene, any shortfall raises one
    :class:`InsufficientCandidatesError`.
    """
    schedules = build_schedules(master_seed)
    ordered = sorted(tables, key=lambda t: t.scene_id)
    if not ordered:
        raise SceneQaError("no NGT tables supplied")
    n = len(ordered)

    # (generator, records per schedule index, stratum, category, schedule
    # indices in the stratum), in RNG draw order.  Built per call so the
    # generators are read from the module at call time.
    strata = [(gen_fv_numeric, 2, f"{TASK_FV}/{cat}", cat, cfg.fv_count(cat) // 2)
              for cat in NUMERIC_CATEGORIES]
    strata += [(gen_ni, 1, f"{TASK_NI}/{cat}", cat, cfg.ni_count(cat))
               for cat in NUMERIC_CATEGORIES]
    quotas = [_split_quota(total, n) for *_, total in strata]
    twins = [_twin_selector(total, cfg.cot_fraction) for *_, total in strata]

    shortfalls: dict[str, tuple[int, int]] = {}
    details: list[str] = []

    for si, table in enumerate(ordered):
        rng = np.random.default_rng(derive_seed(master_seed, f"rulegen:{table.scene_id}"))
        plain: list[QaRecord] = []
        cot: list[QaRecord] = []
        for (generate, width, stratum, cat, _), quota, twin in zip(strata, quotas, twins):
            count = quota[si]
            if count == 0:
                continue
            start = sum(quota[:si])
            chunk = generate(table, cfg, rng, category=cat, count=count,
                             start_index=start, schedules=schedules)
            if len(chunk) < width * count:
                req, got = shortfalls.get(stratum, (0, 0))
                shortfalls[stratum] = (req + width * count, got + len(chunk))
                details.append(f"scene {table.scene_id}: {stratum} produced "
                               f"{len(chunk)} of {width * count}")
                continue
            plain.extend(chunk)
            for offset in range(count):
                if twin(start + offset):
                    for rec in chunk[width * offset: width * offset + width]:
                        cot.append(gen_cot_variant(rec, table, cfg))
        yield from plain
        yield from cot

    if shortfalls:
        summary = "; ".join(
            f"{stratum}: {got}/{req}" for stratum, (req, got) in sorted(shortfalls.items())
        )
        raise InsufficientCandidatesError(
            f"generation shortfall ({summary}): " + " | ".join(details[:5]),
            shortfalls=shortfalls,
        )


def generate_rule_dataset(
    tables: Sequence[NgtTable],
    cfg: RulegenConfig,
    master_seed: int,
) -> list[QaRecord]:
    """:func:`iter_rule_dataset` as a list."""
    return list(iter_rule_dataset(tables, cfg, master_seed))


# ---------------------------------------------------------------------------
# Balance accounting
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class StratumBalance:
    total: int = 0
    answers: dict[str, int] = field(default_factory=dict)
    original_answers: dict[str, int] = field(default_factory=dict)
    cp_answers: dict[str, int] = field(default_factory=dict)
    template_usage: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "answers": dict(sorted(self.answers.items())),
            "original_answers": dict(sorted(self.original_answers.items())),
            "cp_answers": dict(sorted(self.cp_answers.items())),
            "template_usage": dict(sorted(self.template_usage.items())),
        }


@dataclass(frozen=True)
class BalanceReport:
    strata: dict[str, StratumBalance] = field(default_factory=dict)

    def add(self, rec: QaRecord) -> None:
        """Count one record into its stratum."""
        key = stratum_key(rec)
        s = self.strata.get(key)
        if s is None:
            s = self.strata[key] = StratumBalance()
        if rec.task == TASK_NI:
            label = "numeric"
        else:
            # a record without a gold token is tallied under its answer
            label = rec.gold if rec.gold is not None else rec.answer
        s.total += 1
        s.answers[label] = s.answers.get(label, 0) + 1
        if rec.task == TASK_FV:
            side = s.cp_answers if rec.is_contrapositive else s.original_answers
            side[label] = side.get(label, 0) + 1
        if rec.template_id is not None:
            s.template_usage[rec.template_id] = s.template_usage.get(rec.template_id, 0) + 1

    def to_dict(self) -> dict:
        return {key: self.strata[key].to_dict() for key in sorted(self.strata)}


def stratum_key(record: QaRecord) -> str:
    return f"{record.task}/{record.category}/{record.variant}"


def balance_violations(report: BalanceReport, n_options: int = 5) -> list[str]:
    """Tolerance check: FV yes/no within 1 (overall and per stream), PM
    letters within 1 of N/n_options, template usage within 1 of N/10."""
    problems = []
    for key, s in sorted(report.strata.items()):
        task = key.split("/")[0]
        if task == TASK_FV:
            for name, counter in (("all", s.answers), ("originals", s.original_answers),
                                  ("contrapositives", s.cp_answers)):
                yes = counter.get(ANSWER_YES, 0)
                no = counter.get(ANSWER_NO, 0)
                stray = {k: v for k, v in counter.items() if k not in (ANSWER_YES, ANSWER_NO)}
                if stray:
                    problems.append(f"{key}: {name} non-yes/no FV answers {stray}")
                if abs(yes - no) > 1:
                    problems.append(f"{key}: {name} yes/no imbalance {yes} vs {no}")
        if task == TASK_PM and s.total:
            expected = s.total / n_options
            for letter, got in sorted(s.answers.items()):
                if abs(got - expected) > 1.0:
                    problems.append(
                        f"{key}: letter {letter} used {got} times, expected "
                        f"{expected:.1f} +/- 1"
                    )
        if s.template_usage:
            expected = sum(s.template_usage.values()) / 10.0
            for template_id, got in sorted(s.template_usage.items()):
                if abs(got - expected) > 1.0:
                    problems.append(
                        f"{key}: template {template_id} used {got} times, "
                        f"expected {expected:.1f} +/- 1"
                    )
    return problems


def checked_records(
    streams: Iterable[Iterable[QaRecord]], report: BalanceReport, n_options: int = 5,
) -> Iterator[QaRecord]:
    """Yield the records of ``streams`` in order, each once its ``qa_id`` is
    known to be new, counting it into ``report``; once the last stream is
    exhausted, raise if the balance tolerances are breached (PM letters
    against ``n_options`` choices).  Only the ids and the tallies are held,
    and a stream is not started before the one ahead of it is exhausted."""
    seen: set[str] = set()
    for stream in streams:
        for rec in stream:
            if rec.qa_id in seen:
                raise SchemaViolationError(f"duplicate qa_id {rec.qa_id!r}")
            seen.add(rec.qa_id)
            report.add(rec)
            yield rec
    problems = balance_violations(report, n_options)
    if problems:
        raise SceneQaError("balance tolerances breached: " + "; ".join(problems[:8]))


def assemble_dataset(
    streams: Iterable[Iterable[QaRecord]], n_options: int = 5,
) -> tuple[list[QaRecord], BalanceReport]:
    """:func:`checked_records` as a list, with its balance report."""
    report = BalanceReport()
    return list(checked_records(streams, report, n_options)), report
