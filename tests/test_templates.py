"""Template bank structure, predicate semantics, and instantiation."""

import dataclasses

import pytest

from sceneqa.errors import ArityMismatchError, SchemaViolationError
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
    validate_bank,
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
    def test_default_bank_validates(self):
        validate_bank(BANK)

    def test_ten_templates_per_numeric_stratum(self):
        for task in (TASK_FV, TASK_NI):
            for category in NUMERIC_CATEGORIES:
                assert len(templates_for(task, category)) == 10

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
        for t in templates_for(TASK_FV, CAT_QUANTITY):
            low = t.suffix.lower()
            assert "yes" in low and "no" in low

    def test_ni_templates_ask_for_a_number(self):
        for category in NUMERIC_CATEGORIES:
            for t in templates_for(TASK_NI, category):
                assert t.predicate is None
                low = t.suffix.lower()
                assert "number" in low or "numerical" in low

    def test_distance_fv_templates_take_four_referents(self):
        for t in templates_for(TASK_FV, CAT_DISTANCE):
            assert t.arity == 4

    def test_validate_rejects_broken_partner_links(self):
        bank = list(BANK)
        victim = next(t for t in bank if t.task == TASK_FV and t.cp_template_id)
        bank[bank.index(victim)] = dataclasses.replace(victim, cp_template_id=victim.template_id)
        with pytest.raises(SchemaViolationError):
            validate_bank(tuple(bank))

    def test_validate_rejects_duplicate_ids(self):
        bank = list(BANK)
        bank.append(bank[0])
        with pytest.raises(SchemaViolationError, match="duplicate"):
            validate_bank(tuple(bank))


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

