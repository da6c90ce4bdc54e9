"""Template bank structure, predicate semantics, and instantiation."""

import re

import pytest

from sceneqa.errors import ArityMismatchError
from sceneqa.templates import (
    BANK,
    CAT_DISTANCE,
    CAT_QUANTITY,
    CAT_VOLUME,
    NUMERIC_CATEGORIES,
    PRED_APPROX_EQUAL,
    PRED_GREATER,
    PRED_GREATER_EQUAL,
    PRED_LESS,
    PRED_LESS_EQUAL,
    PRED_NOT_APPROX_EQUAL,
    PREDICATE_INVERSE,
    TASK_FV,
    TASK_NI,
    evaluate_predicate,
    fv_pairs,
    instantiate,
    templates_for,
)


class TestPredicates:
    @pytest.mark.parametrize("predicate,v1,v2,expected", [
        (PRED_LESS, 1.0, 2.0, True),
        (PRED_LESS, 2.0, 2.0, False),
        (PRED_GREATER, 3.0, 2.0, True),
        (PRED_GREATER_EQUAL, 2.0, 2.0, True),
        (PRED_LESS_EQUAL, 2.5, 2.0, False),
        (PRED_APPROX_EQUAL, 10.0, 9.5, True),    # ratio 0.95 >= 0.90
        (PRED_APPROX_EQUAL, 10.0, 8.0, False),   # ratio 0.80 < 0.90
        (PRED_NOT_APPROX_EQUAL, 10.0, 8.0, True),
        (PRED_APPROX_EQUAL, 0.0, 0.0, True),
    ])
    def test_truth_table(self, predicate, v1, v2, expected):
        assert evaluate_predicate(predicate, v1, v2) is expected

    def test_inverse_map_is_an_involution(self):
        for pred, inverse in PREDICATE_INVERSE.items():
            assert PREDICATE_INVERSE[inverse] == pred

    def test_inverse_flips_the_outcome(self):
        for pred, inverse in PREDICATE_INVERSE.items():
            for v1, v2 in [(1.0, 2.0), (2.0, 1.0), (5.0, 4.9), (3.0, 1.0)]:
                assert evaluate_predicate(pred, v1, v2) != \
                    evaluate_predicate(inverse, v1, v2)

    def test_unknown_predicate_rejected(self):
        with pytest.raises(ValueError):
            evaluate_predicate("sideways", 1.0, 2.0)


class TestBankStructure:
    def test_ten_templates_per_numeric_stratum(self):
        for task in (TASK_FV, TASK_NI):
            for category in NUMERIC_CATEGORIES:
                assert len(templates_for(task, category)) == 10
        # and no template outside those six strata
        assert len(BANK) == 2 * len(NUMERIC_CATEGORIES) * 10

    def test_template_ids_are_unique(self):
        ids = [t.template_id for t in BANK]
        assert len(set(ids)) == len(ids)

    def test_slots_number_one_to_arity(self):
        for t in BANK:
            slots = {int(n) for n in re.findall(r"<OBJ(\d+)>", t.text)}
            assert slots == set(range(1, t.arity + 1)), t.template_id

    def test_suffixes_are_plain_text(self):
        for t in BANK:
            assert t.suffix.strip() and "<OBJ" not in t.suffix, t.template_id

    def test_fv_pairs_are_five_inverse_couples(self):
        for category in NUMERIC_CATEGORIES:
            pairs = fv_pairs(category)
            assert len(pairs) == 5
            for original, partner in pairs:
                assert partner.cp_template_id == original.template_id
                assert partner.predicate == PREDICATE_INVERSE[original.predicate]
                assert partner.arity == original.arity
                assert partner.category == original.category

    def test_fv_suffixes_instruct_yes_or_no(self):
        for category in NUMERIC_CATEGORIES:
            for t in templates_for(TASK_FV, category):
                low = t.suffix.lower()
                assert "yes" in low and "no" in low, t.template_id

    def test_ni_templates_ask_for_a_number(self):
        for category in NUMERIC_CATEGORIES:
            for t in templates_for(TASK_NI, category):
                assert t.predicate is None and t.cp_template_id is None
                low = t.suffix.lower()
                assert "number" in low or "numerical" in low

    def test_distance_fv_templates_take_four_referents(self):
        for t in templates_for(TASK_FV, CAT_DISTANCE):
            assert t.arity == 4


class TestInstantiation:
    def test_object_slots_are_filled(self):
        t = templates_for(TASK_NI, CAT_VOLUME)[0]
        text = instantiate(t, ["bed"])
        assert "<OBJ" not in text
        assert "bed" in text

    def test_arity_mismatch_raises(self):
        t = templates_for(TASK_FV, CAT_QUANTITY)[0]
        with pytest.raises(ArityMismatchError):
            instantiate(t, ["chair"])  # needs two referents

    def test_four_referent_distance_comparison(self):
        t = templates_for(TASK_FV, CAT_DISTANCE)[0]
        text = instantiate(t, ["chair", "table", "bed", "lamp"])
        for label in ("chair", "table", "bed", "lamp"):
            assert label in text

