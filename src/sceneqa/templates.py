"""Question templates: the fixed, versioned bank plus instantiation helpers.

Fact-verification (FV) templates come in inverse pairs: each template names a
comparison predicate and links to a partner template asking the logically
complementary question, so a contrapositive item can be produced by swapping
the template and flipping the answer.  Numeric-input (NI) templates simply ask
for one number.  Prompt-matching (PM) items are produced by the rewrite track
and carry no bank template.

The bank is the module constant :data:`BANK`, identified in every manifest by
:data:`TEMPLATE_BANK_VERSION`, and :data:`BY_ID` indexes it by template id.
The bank's structure (ten templates per task/category stratum, involutive
partner links, placeholder/arity agreement) is asserted by the test suite.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ArityMismatchError

TEMPLATE_BANK_VERSION = "1.0.0"

TASK_FV = "fv"
TASK_PM = "pm"
TASK_NI = "ni"

CAT_QUANTITY = "quantity"
CAT_DISTANCE = "distance"
CAT_VOLUME = "volume"
CAT_NON_NUMERIC = "non-numeric"
NUMERIC_CATEGORIES = (CAT_QUANTITY, CAT_DISTANCE, CAT_VOLUME)

PRED_LESS = "less"
PRED_GREATER = "greater"
PRED_LESS_EQUAL = "less_equal"
PRED_GREATER_EQUAL = "greater_equal"
PRED_APPROX_EQUAL = "approx_equal"
PRED_NOT_APPROX_EQUAL = "not_approx_equal"

# Logical complements: asking the inverse question flips the yes/no answer.
PREDICATE_INVERSE = {
    PRED_LESS: PRED_GREATER_EQUAL,
    PRED_GREATER_EQUAL: PRED_LESS,
    PRED_GREATER: PRED_LESS_EQUAL,
    PRED_LESS_EQUAL: PRED_GREATER,
    PRED_APPROX_EQUAL: PRED_NOT_APPROX_EQUAL,
    PRED_NOT_APPROX_EQUAL: PRED_APPROX_EQUAL,
}

UNIT_COUNT = "count"
UNIT_METERS = "meters"
UNIT_CUBIC_METERS = "cubic meters"
UNITS = {
    CAT_QUANTITY: UNIT_COUNT,
    CAT_DISTANCE: UNIT_METERS,
    CAT_VOLUME: UNIT_CUBIC_METERS,
}

# "approximately equal" holds when the smaller-to-larger ratio is at least
# 1 - band
DEFAULT_APPROX_BAND = 0.10


def evaluate_predicate(predicate: str, v1: float, v2: float,
                       approx_band: float = DEFAULT_APPROX_BAND) -> bool:
    """Truth value of ``v1 <predicate> v2`` for non-negative quantities.

    Approximate equality means the smaller-to-larger ratio is at least
    ``1 - approx_band``.
    """
    if predicate == PRED_LESS:
        return v1 < v2
    if predicate == PRED_GREATER:
        return v1 > v2
    if predicate == PRED_LESS_EQUAL:
        return v1 <= v2
    if predicate == PRED_GREATER_EQUAL:
        return v1 >= v2
    hi = max(abs(v1), abs(v2))
    ratio = 1.0 if hi == 0.0 else min(abs(v1), abs(v2)) / hi
    close = ratio >= 1.0 - approx_band
    if predicate == PRED_APPROX_EQUAL:
        return close
    if predicate == PRED_NOT_APPROX_EQUAL:
        return not close
    raise ValueError(f"unknown predicate {predicate!r}")


@dataclass(frozen=True)
class Template:
    template_id: str
    task: str
    category: str
    text: str
    suffix: str
    arity: int
    unit: str
    predicate: str | None = None
    cp_template_id: str | None = None


_PLACEHOLDER_RE = re.compile(r"<OBJ(\d+)>")


def fill_text(template: Template, bindings) -> str:
    """The template body with its ``<OBJn>`` slots filled from ``bindings``,
    the referent labels, which must number exactly the template's arity."""
    bindings = list(bindings)
    if len(bindings) != template.arity:
        raise ArityMismatchError(
            f"template {template.template_id}: expected {template.arity} referents, "
            f"got {len(bindings)}"
        )
    return _PLACEHOLDER_RE.sub(lambda m: str(bindings[int(m.group(1)) - 1]),
                               template.text)


def instantiate(template: Template, bindings) -> str:
    """The full question: the filled body followed by the answer-format
    suffix."""
    return f"{fill_text(template, bindings)} {template.suffix}"


# ---------------------------------------------------------------------------
# The static bank
# ---------------------------------------------------------------------------

_FV_SUFFIXES = (
    'Please reply with a "yes" or "no" only.',
    'Offer a "yes" or "no" as the answer.',
    'Select "yes" or "no" as the answer.',
    'Answer "yes" or "no" only.',
    'Give a "yes" or "no" answer.',
)

# FV entries: (text, predicate); listed as five inverse pairs per category.
_FV_QUANTITY = (
    ("Are there fewer <OBJ1> than <OBJ2>?", PRED_LESS),
    ("Is the count of <OBJ1> greater than or equal to the count of <OBJ2>?",
     PRED_GREATER_EQUAL),
    ("Are there more <OBJ1> than <OBJ2> in the room?", PRED_GREATER),
    ("Is the number of <OBJ1> less than or equal to the number of <OBJ2>?",
     PRED_LESS_EQUAL),
    ("Is the count of <OBJ1> smaller than the count of <OBJ2>?", PRED_LESS),
    ("Does the room hold at least as many <OBJ1> as <OBJ2>?", PRED_GREATER_EQUAL),
    ("Does the room contain a greater number of <OBJ1> than <OBJ2>?", PRED_GREATER),
    ("Is the number of <OBJ1> in the room no more than the number of <OBJ2>?",
     PRED_LESS_EQUAL),
    ("Is the number of <OBJ1> approximately equal to the number of <OBJ2>?",
     PRED_APPROX_EQUAL),
    ("Is the number of <OBJ1> notably different from the number of <OBJ2>?",
     PRED_NOT_APPROX_EQUAL),
)

_FV_DISTANCE = (
    ("Is the distance between <OBJ1> and <OBJ2> greater than the distance "
     "between <OBJ3> and <OBJ4>?", PRED_GREATER),
    ("Is the distance between <OBJ1> and <OBJ2> less than or equal to the "
     "distance between <OBJ3> and <OBJ4>?", PRED_LESS_EQUAL),
    ("Is <OBJ1> closer to <OBJ2> than <OBJ3> is to <OBJ4>?", PRED_LESS),
    ("Is the gap between <OBJ1> and <OBJ2> at least as large as the gap "
     "between <OBJ3> and <OBJ4>?", PRED_GREATER_EQUAL),
    ("Is <OBJ1> and <OBJ2> further than <OBJ3> and <OBJ4>?", PRED_GREATER),
    ("Is the distance separating <OBJ1> and <OBJ2> no more than the distance "
     "separating <OBJ3> and <OBJ4>?", PRED_LESS_EQUAL),
    ("Does <OBJ1> sit nearer to <OBJ2> than <OBJ3> does to <OBJ4>?", PRED_LESS),
    ("Is the spacing between <OBJ1> and <OBJ2> greater than or equal to the "
     "spacing between <OBJ3> and <OBJ4>?", PRED_GREATER_EQUAL),
    ("Is the distance between <OBJ1> and <OBJ2> approximately equal to the "
     "distance between <OBJ3> and <OBJ4>?", PRED_APPROX_EQUAL),
    ("Is the distance between <OBJ1> and <OBJ2> clearly different from the "
     "distance between <OBJ3> and <OBJ4>?", PRED_NOT_APPROX_EQUAL),
)

_FV_VOLUME = (
    ("Is the size of the bounding box of <OBJ1> less than the one of <OBJ2>?",
     PRED_LESS),
    ("Is the size of the bounding box of <OBJ1> greater than or equal to the "
     "one of <OBJ2>?", PRED_GREATER_EQUAL),
    ("Is the bounding box of <OBJ1> larger than the bounding box of <OBJ2>?",
     PRED_GREATER),
    ("Is the volume of the bounding box of <OBJ1> less than or equal to the "
     "volume of the bounding box of <OBJ2>?", PRED_LESS_EQUAL),
    ("Does <OBJ1> occupy a smaller bounding box than <OBJ2>?", PRED_LESS),
    ("Is the bounding box of <OBJ1> at least as large as the one of <OBJ2>?",
     PRED_GREATER_EQUAL),
    ("Is the bounding box volume of <OBJ1> greater than that of <OBJ2>?",
     PRED_GREATER),
    ("Is the bounding box volume of <OBJ1> no more than the bounding box "
     "volume of <OBJ2>?", PRED_LESS_EQUAL),
    ("Is the size of the bounding box of <OBJ1> approximately equal to the "
     "one of <OBJ2>?", PRED_APPROX_EQUAL),
    ("Is the bounding box volume of <OBJ1> notably different from the "
     "bounding box volume of <OBJ2>?", PRED_NOT_APPROX_EQUAL),
)

_NI_QUANTITY = (
    "Please count the number of <OBJ1> in the room.",
    "How many <OBJ1> are present in the room?",
    "Give the total number of <OBJ1> in this scene.",
    "What is the count of <OBJ1> in the room?",
    "Count how many <OBJ1> appear in the scene.",
    "How many <OBJ1> does this room contain?",
    "State the number of <OBJ1> found in the room.",
    "Report how many <OBJ1> are in the scene.",
    "Determine the number of <OBJ1> in this room.",
    "Tell me how many <OBJ1> the scene contains.",
)

_NI_DISTANCE = (
    "Please estimate the distance between the <OBJ1> and <OBJ2> in the room "
    "in meters.",
    "How far apart are the <OBJ1> and the <OBJ2>, in meters?",
    "Estimate how many meters separate the <OBJ1> from the <OBJ2>.",
    "What is the distance in meters between the <OBJ1> and the <OBJ2>?",
    "Give the distance between the <OBJ1> and the <OBJ2> in meters.",
    "Measure the distance in meters from the <OBJ1> to the <OBJ2>.",
    "In meters, how far is the <OBJ1> from the <OBJ2>?",
    "Report the separation between the <OBJ1> and the <OBJ2> in meters.",
    "Determine the distance between the <OBJ1> and the <OBJ2>, in meters.",
    "Approximately how many meters lie between the <OBJ1> and the <OBJ2>?",
)

_NI_VOLUME = (
    "Can you estimate the volume of the bounding box of the <OBJ1> in cubic "
    "meters?",
    "What is the volume of the bounding box of the <OBJ1>, in cubic meters?",
    "Estimate the bounding box volume of the <OBJ1> in cubic meters.",
    "Give the volume in cubic meters of the bounding box around the <OBJ1>.",
    "How many cubic meters does the bounding box of the <OBJ1> enclose?",
    "Report the volume of the <OBJ1>'s bounding box in cubic meters.",
    "Determine the bounding box volume of the <OBJ1>, in cubic meters.",
    "In cubic meters, how large is the bounding box of the <OBJ1>?",
    "Compute the volume of the axis-aligned bounding box of the <OBJ1> in "
    "cubic meters.",
    "Approximately what volume, in cubic meters, does the bounding box of "
    "the <OBJ1> occupy?",
)

_NI_SUFFIXES = {
    CAT_QUANTITY: "Give a number as the answer.",
    CAT_DISTANCE: "Give a numerical response.",
    CAT_VOLUME: "Give a numerical response.",
}
_FV_ARITY = {CAT_QUANTITY: 2, CAT_DISTANCE: 4, CAT_VOLUME: 2}
_NI_ARITY = {CAT_QUANTITY: 1, CAT_DISTANCE: 2, CAT_VOLUME: 1}


def _build_bank() -> tuple[Template, ...]:
    bank: list[Template] = []
    fv_sources = {
        CAT_QUANTITY: _FV_QUANTITY,
        CAT_DISTANCE: _FV_DISTANCE,
        CAT_VOLUME: _FV_VOLUME,
    }
    for category, rows in fv_sources.items():
        for idx, (text, predicate) in enumerate(rows):
            num = idx + 1
            partner = num + 1 if num % 2 else num - 1
            bank.append(
                Template(
                    template_id=f"fv-{category}-{num:02d}",
                    task=TASK_FV,
                    category=category,
                    text=text,
                    suffix=_FV_SUFFIXES[idx // 2],
                    arity=_FV_ARITY[category],
                    unit=UNITS[category],
                    predicate=predicate,
                    cp_template_id=f"fv-{category}-{partner:02d}",
                )
            )
    ni_sources = {
        CAT_QUANTITY: _NI_QUANTITY,
        CAT_DISTANCE: _NI_DISTANCE,
        CAT_VOLUME: _NI_VOLUME,
    }
    for category, rows in ni_sources.items():
        for idx, text in enumerate(rows):
            bank.append(
                Template(
                    template_id=f"ni-{category}-{idx + 1:02d}",
                    task=TASK_NI,
                    category=category,
                    text=text,
                    suffix=_NI_SUFFIXES[category],
                    arity=_NI_ARITY[category],
                    unit=UNITS[category],
                )
            )
    return tuple(bank)


def templates_for(task: str, category: str) -> list[Template]:
    return sorted(
        (t for t in BANK if t.task == task and t.category == category),
        key=lambda t: t.template_id,
    )


def fv_pairs(category: str) -> list[tuple[Template, Template]]:
    """The five inverse-predicate template pairs of one FV category, each
    led by the member with the smaller id."""
    return [(t, BY_ID[t.cp_template_id]) for t in templates_for(TASK_FV, category)
            if t.template_id < t.cp_template_id]


BANK = _build_bank()
BY_ID = {t.template_id: t for t in BANK}
