"""Rule-based QA generation: configs, schedules, balance, determinism."""

from __future__ import annotations

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sceneqa.errors import (
    InsufficientCandidatesError,
    SceneQaError,
    SchemaViolationError,
)
from sceneqa import rulegen
from sceneqa.ngt import extract_ngt
from sceneqa.rulegen import (
    ANSWER_NO,
    ANSWER_YES,
    COT_SUFFIX,
    PROVENANCE_LLM,
    PROVENANCE_RULE,
    VARIANT_COT,
    VARIANT_PLAIN,
    BalanceReport,
    QaRecord,
    RulegenConfig,
    _ValuePool,
    _twin_selector,
    assemble_dataset,
    balance_violations,
    build_schedules,
    gen_cot_variant,
    generate_rule_dataset,
    iter_dataset,
    iter_rule_dataset,
    read_dataset,
    record_from_dict,
    referent_values,
    stratum_key,
    write_dataset,
)
from sceneqa.templates import (
    BY_ID,
    CAT_DISTANCE,
    CAT_NON_NUMERIC,
    CAT_QUANTITY,
    CAT_VOLUME,
    NUMERIC_CATEGORIES,
    PRED_APPROX_EQUAL,
    PRED_NOT_APPROX_EQUAL,
    TASK_FV,
    TASK_NI,
    TASK_PM,
    evaluate_predicate,
)
from sceneqa.scene import Instance, PointSet, Scene
from sceneqa.util import render_count, render_decimal, write_jsonl

from conftest import MASTER_SEED


class TestRulegenConfig:
    def test_defaults_are_valid(self):
        cfg = RulegenConfig()
        assert cfg.cot_fraction == 0.0
        assert cfg.fv_count(CAT_QUANTITY) == 0
        assert cfg.ni_count(CAT_VOLUME) == 0

    def test_negative_count_rejected(self):
        with pytest.raises(SceneQaError, match="ni_distance"):
            RulegenConfig(ni_distance=-2)

    def test_odd_fv_count_rejected(self):
        # FV records come in original/contrapositive pairs
        with pytest.raises(SceneQaError, match="fv_volume must be even"):
            RulegenConfig(fv_volume=7)

    @pytest.mark.parametrize("fraction", [-0.1, 1.01, 5.0])
    def test_cot_fraction_range(self, fraction):
        with pytest.raises(SceneQaError, match="cot_fraction"):
            RulegenConfig(cot_fraction=fraction)

    @pytest.mark.parametrize(
        "band_in,band_out",
        [(0.3, 0.1), (0.2, 0.2), (0.0, 0.3), (0.1, 1.0)],
    )
    def test_approx_bands_must_nest(self, band_in, band_out):
        with pytest.raises(SceneQaError, match="approx_band"):
            RulegenConfig(approx_band_in=band_in, approx_band_out=band_out)

    @pytest.mark.parametrize("margin", [-0.01, 1.0])
    def test_ambiguity_margin_range(self, margin):
        with pytest.raises(SceneQaError, match="ambiguity_margin"):
            RulegenConfig(ambiguity_margin=margin)

    def test_count_lookup(self):
        cfg = RulegenConfig(fv_quantity=4, fv_distance=6, fv_volume=8,
                            ni_quantity=1, ni_distance=2, ni_volume=3)
        assert [cfg.fv_count(c) for c in NUMERIC_CATEGORIES] == [4, 6, 8]
        assert [cfg.ni_count(c) for c in NUMERIC_CATEGORIES] == [1, 2, 3]


class TestSchedules:
    def test_same_seed_same_schedules(self):
        a = build_schedules(MASTER_SEED)
        b = build_schedules(MASTER_SEED)
        assert a == b

    def test_fv_target_alternates_exactly(self):
        sched = build_schedules(MASTER_SEED)
        for cat in NUMERIC_CATEGORIES:
            seq = [sched.fv_target(cat, k) for k in range(10)]
            assert set(seq) == {ANSWER_YES, ANSWER_NO}
            assert seq.count(ANSWER_YES) == 5
            assert seq == seq[:2] * 5

    def test_fv_group_cycles_a_permutation(self):
        sched = build_schedules(MASTER_SEED)
        for cat in NUMERIC_CATEGORIES:
            cycle = [sched.fv_group(cat, k) for k in range(5)]
            assert sorted(cycle) == [0, 1, 2, 3, 4]
            assert [sched.fv_group(cat, k + 5) for k in range(5)] == cycle

    def test_fv_member_flips_every_full_cycle(self):
        sched = build_schedules(MASTER_SEED)
        for cat in NUMERIC_CATEGORIES:
            members = [sched.fv_member(cat, k) for k in range(40)]
            assert len(set(members[:10])) == 1
            assert members[:10] != members[10:20]
            assert members[:20] == members[20:40]
            # k % 10 fixes target and group, so each template sees both answers
            for k in range(5):
                assert sched.fv_member(cat, k) == sched.fv_member(cat, k + 5)
                assert sched.fv_target(cat, k) != sched.fv_target(cat, k + 5)
                assert sched.fv_group(cat, k) == sched.fv_group(cat, k + 5)

    def test_ni_template_order_is_a_permutation(self):
        sched = build_schedules(MASTER_SEED)
        for cat in NUMERIC_CATEGORIES:
            cycle = [sched.ni_template_index(cat, k) for k in range(10)]
            assert sorted(cycle) == list(range(10))

    def test_pm_letter_balance_and_subsets(self):
        sched = build_schedules(MASTER_SEED)
        seq = [sched.pm_letter(k) for k in range(25)]
        assert all(seq.count(ch) == 5 for ch in "ABCDE")
        reduced = [sched.pm_letter(k, n_options=3) for k in range(9)]
        assert set(reduced) == {"A", "B", "C"}
        assert all(reduced.count(ch) == 3 for ch in "ABC")

    def test_fv_indicator_alternates(self):
        sched = build_schedules(MASTER_SEED)
        seq = [sched.fv_indicator(k) for k in range(6)]
        assert set(seq[:2]) == {True, False}
        assert seq == seq[:2] * 3


class TestTwinSelector:
    @given(total=st.integers(0, 240),
           fraction=st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_quota_and_spread(self, total, fraction):
        selected = _twin_selector(total, fraction)
        picks = [k for k in range(total) if selected(k)]
        assert len(picks) == int(round(fraction * total))
        per_class = [sum(1 for k in picks if k % 10 == r) for r in range(10)]
        assert max(per_class) - min(per_class) <= 1 if picks else True

    def test_extremes(self):
        all_on = _twin_selector(40, 1.0)
        assert all(all_on(k) for k in range(40))
        all_off = _twin_selector(40, 0.0)
        assert not any(all_off(k) for k in range(40))

    def test_half_takes_alternate_indices_per_class(self):
        selected = _twin_selector(40, 0.5)
        picks = [k for k in range(40) if selected(k)]
        assert len(picks) == 20
        for r in range(10):
            assert sum(1 for k in picks if k % 10 == r) == 2


_BASE_ID = re.compile(
    r"^[a-z0-9]+-(fv|ni)-(quantity|distance|volume)-\d{5}(-cp)?(-cot)?$"
)


class TestValuePool:
    """Seeded draws of the candidate sampler.  Three close pairs and a close
    triple, far apart: every item has a partner inside the inner band
    (ratio 0.9) and one outside the outer band (ratio 0.7)."""

    VALUES = (1.0, 1.05, 2.0, 2.1, 2.15, 4.0, 4.2, 8.0, 8.5)
    # the lowest index inside each item's inner band, itself excluded
    CLOSE_PARTNER = (1, 0, 3, 2, 2, 6, 5, 8, 7)

    def pool(self):
        items = [(f"l{i}", value) for i, value in enumerate(self.VALUES)]
        return _ValuePool(items, 0.05, 0.1, 0.3)

    def indices(self, draw):
        return "".join(key[1:] for key, _ in draw)

    # per seed, one rng: strict, close, far, then the same three again
    @pytest.mark.parametrize("seed,expected", enumerate([
        "57 42 20 17 56 83", "68 01 17 28 24 31", "27 01 25 47 01 36",
        "07 10 21 05 01 25", "68 78 48 04 56 25", "67 01 73 45 24 03",
    ]))
    def test_random_draws(self, seed, expected):
        pool, rng = self.pool(), np.random.default_rng(seed)
        draws = []
        for _ in range(2):
            draws += [pool.draw_strict(rng), pool.draw_approx(rng, close=True),
                      pool.draw_approx(rng, close=False)]
        assert " ".join(map(self.indices, draws)) == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_systematic_fallback(self, monkeypatch, seed):
        """With no random attempts, the scan takes items in seeded
        permutation order: a close pair is the item and the lowest index
        inside its inner band; a far pair is the item and items[0], or
        items[n-1] when items[0] is inside its outer band."""
        monkeypatch.setattr(rulegen, "_MAX_DRAW_ATTEMPTS", 0)
        n = len(self.VALUES)
        i = int(np.random.default_rng(seed).permutation(n)[0])
        far = 0 if self.VALUES[0] < 0.7 * self.VALUES[i] else n - 1
        pool = self.pool()
        close = pool.draw_approx(np.random.default_rng(seed), close=True)
        assert self.indices(close) == f"{i}{self.CLOSE_PARTNER[i]}"
        assert self.indices(pool.draw_approx(np.random.default_rng(seed),
                                             close=False)) == f"{i}{far}"

    # per seed: the seeded permutation's first item and its partner
    @pytest.mark.parametrize("seed,expected", enumerate([
        "45", "78", "24", "78", "02", "12", "24", "02",
    ]))
    def test_strict_systematic_scan(self, monkeypatch, seed, expected):
        """With no random attempts, a strict draw takes items in seeded
        permutation order and pairs the first with a partner with the
        smallest value at least the margin above it.  Seed 7's permutation
        starts at the largest item, which has none, so the scan moves on."""
        monkeypatch.setattr(rulegen, "_MAX_DRAW_ATTEMPTS", 0)
        draw = self.pool().draw_strict(np.random.default_rng(seed))
        assert self.indices(draw) == expected

    @pytest.mark.parametrize("values", [(3.0, 3.0, 3.0), (1.0, 1.02, 1.04), (5.0,)])
    def test_strict_draw_without_a_separated_pair(self, monkeypatch, values):
        monkeypatch.setattr(rulegen, "_MAX_DRAW_ATTEMPTS", 0)
        pool = _ValuePool([(f"l{i}", v) for i, v in enumerate(values)], 0.05, 0.1, 0.3)
        assert pool.draw_strict(np.random.default_rng(0)) is None


class TestGeneratedDataset:
    """Structural checks on the session-wide generated dataset fixture."""

    def test_expected_record_counts(self, dataset, dataset_cfg):
        records, _ = dataset
        by_stratum: dict[str, int] = {}
        for rec in records:
            key = stratum_key(rec)
            by_stratum[key] = by_stratum.get(key, 0) + 1
        frac = dataset_cfg.cot_fraction
        for cat in NUMERIC_CATEGORIES:
            fv = dataset_cfg.fv_count(cat)
            ni = dataset_cfg.ni_count(cat)
            assert by_stratum[f"fv/{cat}/plain"] == fv
            # twin selection runs over original/cp pairs, then mirrors
            assert by_stratum[f"fv/{cat}/cot"] == 2 * int(round(frac * fv // 2))
            assert by_stratum[f"ni/{cat}/plain"] == ni
            assert by_stratum[f"ni/{cat}/cot"] == int(round(frac * ni))

    def test_no_balance_violations(self, dataset):
        _, report = dataset
        assert balance_violations(report) == []

    def test_qa_id_convention(self, dataset):
        records, _ = dataset
        for rec in records:
            assert _BASE_ID.match(rec.qa_id), rec.qa_id
            assert rec.qa_id.startswith(f"{rec.scene_id}-{rec.task}-{rec.category}-")
            assert rec.qa_id.endswith("-cot") == (rec.variant == VARIANT_COT)
            assert rec.provenance == PROVENANCE_RULE

    def test_fv_contrapositive_involution(self, dataset):
        records, _ = dataset
        by_id = {rec.qa_id: rec for rec in records}
        flip = {ANSWER_YES: ANSWER_NO, ANSWER_NO: ANSWER_YES}
        for rec in records:
            if rec.task != TASK_FV:
                assert rec.cp_link is None
                continue
            partner = by_id[rec.cp_link]
            assert partner.cp_link == rec.qa_id
            assert partner.qa_id != rec.qa_id
            assert rec.is_contrapositive != partner.is_contrapositive
            assert partner.gold == flip[rec.gold]
            assert partner.scene_id == rec.scene_id
            assert partner.category == rec.category
            assert partner.variant == rec.variant
            assert partner.referents == rec.referents

    def test_cp_pairs_use_inverse_templates(self, dataset):
        records, _ = dataset
        by_id = {rec.qa_id: rec for rec in records}
        for rec in records:
            if rec.task != TASK_FV or rec.is_contrapositive:
                continue
            partner = by_id[rec.cp_link]
            assert BY_ID[rec.template_id].cp_template_id == partner.template_id
            assert BY_ID[partner.template_id].cp_template_id == rec.template_id

    def test_cot_twins_share_everything_but_presentation(self, dataset):
        records, _ = dataset
        by_id = {rec.qa_id: rec for rec in records}
        twins = 0
        for rec in records:
            if rec.variant != VARIANT_COT:
                continue
            twins += 1
            plain = by_id[rec.qa_id[: -len("-cot")]]
            assert plain.variant == VARIANT_PLAIN
            assert rec.question.endswith(COT_SUFFIX)
            assert rec.answer.endswith(f"the answer is {plain.answer}.")
            assert rec.gold == plain.answer
            assert rec.template_id == plain.template_id
            assert rec.referents == plain.referents
            assert rec.gt_value == plain.gt_value
        assert twins > 0

    def test_fv_answers_match_recomputed_truth(self, dataset, tables):
        records, _ = dataset
        cfg = RulegenConfig()
        for rec in records:
            if rec.task != TASK_FV:
                continue
            tpl = BY_ID[rec.template_id]
            values = referent_values(rec.category, rec.referents, tables[rec.scene_id])
            truth = evaluate_predicate(tpl.predicate, values[0], values[1],
                                       cfg.approx_band_in)
            assert rec.gold == (ANSWER_YES if truth else ANSWER_NO)

    def test_ni_answers_render_ground_truth(self, dataset, tables):
        records, _ = dataset
        for rec in records:
            if rec.task != TASK_NI:
                continue
            (value,) = referent_values(rec.category, rec.referents,
                                       tables[rec.scene_id])
            assert rec.gt_value == pytest.approx(value, abs=1e-12)
            if rec.category == CAT_QUANTITY:
                assert rec.gold == render_count(rec.gt_value)
            else:
                assert rec.gold == render_decimal(rec.gt_value)

    def test_strict_pairs_respect_ambiguity_margin(self, dataset, tables, dataset_cfg):
        records, _ = dataset
        approx = {PRED_APPROX_EQUAL, PRED_NOT_APPROX_EQUAL}
        checked_strict = checked_approx = 0
        for rec in records:
            if rec.task != TASK_FV or rec.variant != VARIANT_PLAIN:
                continue
            v1, v2 = referent_values(rec.category, rec.referents,
                                     tables[rec.scene_id])
            ratio = min(v1, v2) / max(v1, v2)
            if BY_ID[rec.template_id].predicate in approx:
                checked_approx += 1
                inside = ratio >= (1.0 - dataset_cfg.approx_band_in) - 1e-12
                outside = ratio < (1.0 - dataset_cfg.approx_band_out) + 1e-12
                assert inside or outside, (rec.qa_id, ratio)
            else:
                checked_strict += 1
                assert v1 != v2
                assert abs(v1 - v2) >= dataset_cfg.ambiguity_margin * max(v1, v2) - 1e-12
        assert checked_strict > 0 and checked_approx > 0

    def test_each_fv_template_gets_both_answers(self, dataset):
        records, _ = dataset
        answers: dict[str, set[str]] = {}
        for rec in records:
            if rec.task == TASK_FV and rec.variant == VARIANT_PLAIN:
                answers.setdefault(rec.template_id, set()).add(rec.answer)
        assert len(answers) == 30
        assert sorted(t for t, seen in answers.items() if len(seen) < 2) == []

    def test_ni_display_floor_respected(self, dataset, dataset_cfg):
        records, _ = dataset
        for rec in records:
            if rec.task == TASK_NI:
                assert rec.gt_value >= dataset_cfg.min_display_value


class TestAwkwardConfigs:
    @pytest.mark.parametrize(
        "fv,ni,frac",
        [(62, 31, 0.37), (14, 7, 0.9), (20, 13, 1.0), (6, 3, 0.0)],
    )
    def test_balance_holds_for_uneven_targets(self, tables, fv, ni, frac):
        cfg = RulegenConfig(fv_quantity=fv, fv_distance=fv, fv_volume=fv,
                            ni_quantity=ni, ni_distance=ni, ni_volume=ni,
                            cot_fraction=frac)
        records = generate_rule_dataset(list(tables.values()), cfg, MASTER_SEED)
        report = BalanceReport()
        for record in records:
            report.add(record)
        assert balance_violations(report) == []
        expected = 3 * (fv + 2 * int(round(frac * (fv // 2)))
                        + ni + int(round(frac * ni)))
        assert len(records) == expected


class TestDeterminism:
    def test_rerun_is_identical(self, tables, dataset_cfg):
        first = generate_rule_dataset(list(tables.values()), dataset_cfg, MASTER_SEED)
        second = generate_rule_dataset(list(tables.values()), dataset_cfg, MASTER_SEED)
        assert [r.to_dict() for r in first] == [r.to_dict() for r in second]

    def test_table_order_does_not_matter(self, tables, dataset_cfg):
        ordered = list(tables.values())
        forward = generate_rule_dataset(ordered, dataset_cfg, MASTER_SEED)
        backward = generate_rule_dataset(list(reversed(ordered)), dataset_cfg,
                                         MASTER_SEED)
        assert [r.to_dict() for r in forward] == [r.to_dict() for r in backward]

    def test_seed_changes_the_dataset(self, tables, dataset_cfg):
        base = generate_rule_dataset(list(tables.values()), dataset_cfg, MASTER_SEED)
        other = generate_rule_dataset(list(tables.values()), dataset_cfg, MASTER_SEED + 1)
        assert [r.to_dict() for r in base] != [r.to_dict() for r in other]

    def test_empty_table_list_rejected(self, dataset_cfg):
        with pytest.raises(SceneQaError, match="no NGT tables"):
            generate_rule_dataset([], dataset_cfg, MASTER_SEED)


class TestStreaming:
    """``iter_rule_dataset`` is the one generator; ``generate_rule_dataset``
    is its list."""

    def test_the_stream_is_the_list(self, tables, dataset_cfg):
        ordered = list(tables.values())
        assert list(iter_rule_dataset(ordered, dataset_cfg, MASTER_SEED)) \
            == generate_rule_dataset(ordered, dataset_cfg, MASTER_SEED)

    def test_a_shortfall_raises_the_same_from_both(self, tables):
        cfg = RulegenConfig(fv_quantity=4, ni_distance=4, min_display_value=1000.0)
        raised = []
        for generate in (generate_rule_dataset,
                         lambda *args: list(iter_rule_dataset(*args))):
            with pytest.raises(InsufficientCandidatesError) as exc_info:
                generate(list(tables.values()), cfg, MASTER_SEED)
            raised.append((str(exc_info.value), exc_info.value.shortfalls))
        assert raised[0] == raised[1]
        assert raised[0][1] == {"ni/distance": (4, 0)}

    def test_the_first_record_generates_only_the_first_scene(self, tables, dataset_cfg,
                                                              monkeypatch):
        asked = []
        for name in ("gen_fv_numeric", "gen_ni"):
            def spy(table, *args, _generate=getattr(rulegen, name), **kwargs):
                asked.append(table.scene_id)
                return _generate(table, *args, **kwargs)
            monkeypatch.setattr(rulegen, name, spy)
        stream = iter_rule_dataset(list(reversed(tables.values())), dataset_cfg,
                                   MASTER_SEED)
        assert asked == []
        first = next(stream)
        first_scene = sorted(tables)[0]
        assert first.scene_id == first_scene
        assert asked == [first_scene] * 6  # one call per stratum
        stream.close()


class TestShortfall:
    def test_infeasible_display_floor_reports_shortfall(self, tables):
        cfg = RulegenConfig(ni_distance=6, min_display_value=1000.0)
        with pytest.raises(InsufficientCandidatesError) as exc_info:
            generate_rule_dataset(list(tables.values()), cfg, MASTER_SEED)
        shortfalls = exc_info.value.shortfalls
        assert shortfalls, "expected per-stratum shortfall detail"
        for stratum, (requested, achieved) in shortfalls.items():
            assert "distance" in stratum
            assert achieved < requested

    def test_feasible_large_quantity_target_succeeds(self, tables):
        # pools draw with replacement, so sheer count never exhausts them
        cfg = RulegenConfig(ni_quantity=200)
        records = generate_rule_dataset(list(tables.values()), cfg, MASTER_SEED)
        assert len(records) == 200

    def test_shortfall_names_each_scene(self, tables):
        """Quotas of 2, 1 and 1 over the three scenes, none of them met."""
        cfg = RulegenConfig(ni_distance=4, min_display_value=1000.0)
        with pytest.raises(InsufficientCandidatesError) as exc_info:
            generate_rule_dataset(list(tables.values()), cfg, MASTER_SEED)
        assert exc_info.value.shortfalls == {"ni/distance": (4, 0)}
        message = str(exc_info.value)
        assert message.startswith("generation shortfall (ni/distance: 0/4): ")
        for scene_id, quota in zip(sorted(tables), (2, 1, 1)):
            assert f"scene {scene_id}: ni/distance produced 0 of {quota}" in message

    def test_exhausted_fv_pool_returns_fewer_pairs(self):
        """Two instances of volumes 1 and 8 have no pair within the inner
        band, so drawing stops at the first "approximately equal" pair and
        what came before it is returned; those pairs are the ones a call
        for just that many draws."""
        def box(side, offset):
            corners = np.array(np.meshgrid([0, side], [0, side], [0, side])).T.reshape(-1, 3)
            return corners.astype(float) + offset

        table = extract_ngt(Scene("two", (
            Instance("i0", "chair", PointSet(box(1.0, 0.0))),
            Instance("i1", "table", PointSet(box(2.0, 5.0))),
        )))

        def generate(count):
            return rulegen.gen_fv_numeric(
                table, RulegenConfig(), np.random.default_rng(0), category=CAT_VOLUME,
                count=count, start_index=0, schedules=build_schedules(MASTER_SEED))

        records = generate(20)
        assert 0 < len(records) < 40 and len(records) % 2 == 0
        assert records == generate(len(records) // 2)

    def test_no_eligible_ni_referent_returns_nothing(self, tables):
        table = tables[sorted(tables)[0]]
        rng = np.random.default_rng(0)
        records = rulegen.gen_ni(
            table, RulegenConfig(min_display_value=1000.0), rng, category=CAT_DISTANCE,
            count=3, start_index=0, schedules=build_schedules(MASTER_SEED))
        assert records == []
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_zero_quota_is_never_asked_for(self, tables, monkeypatch):
        """Two NI distance records over three scenes leave the last scene a
        quota of zero, and the other strata have none at all."""
        calls = []
        for name in ("gen_fv_numeric", "gen_ni"):
            def spy(*args, real=getattr(rulegen, name), name=name, **kwargs):
                calls.append((name, args[0].scene_id, kwargs["category"], kwargs["count"]))
                return real(*args, **kwargs)
            monkeypatch.setattr(rulegen, name, spy)
        records = generate_rule_dataset(list(tables.values()),
                                        RulegenConfig(ni_distance=2), MASTER_SEED)
        assert len(records) == 2
        first, second, _ = sorted(tables)
        assert calls == [("gen_ni", first, CAT_DISTANCE, 1), ("gen_ni", second, CAT_DISTANCE, 1)]


class TestCotVariantFunction:
    def test_requires_plain_rule_record(self, dataset, tables):
        records, _ = dataset
        cot = next(r for r in records if r.variant == VARIANT_COT)
        with pytest.raises(SceneQaError, match="already has variant"):
            gen_cot_variant(cot, tables[cot.scene_id], RulegenConfig())

    def test_twin_of_twin_ids_never_appear(self, dataset):
        records, _ = dataset
        ids = {r.qa_id for r in records}
        assert not any(i.endswith("-cot-cot") for i in ids)


class TestSerialization:
    def test_to_dict_key_order(self, dataset):
        records, _ = dataset
        expected = ["qa_id", "scene_id", "task", "category", "question",
                    "answer", "gt_value", "unit", "cp_link", "variant",
                    "provenance", "template_id", "referents"]
        assert list(records[0].to_dict()) == expected

    def test_round_trip_through_dicts(self, dataset):
        records, _ = dataset
        for rec in records[:40]:
            assert record_from_dict(rec.to_dict()) == rec

    def test_round_trip_through_file(self, dataset, tmp_path):
        records, _ = dataset
        path = tmp_path / "dataset.jsonl"
        n = write_dataset(records, path)
        assert n == len(records)
        assert read_dataset(path) == list(records)

    def test_iter_dataset_numbers_every_line(self, dataset, tmp_path):
        records, _ = dataset
        path = tmp_path / "dataset.jsonl"
        write_dataset(records[:2], path)
        lines = path.read_text().splitlines()
        path.write_text(f"{lines[0]}\n\n{lines[1]}\n")
        assert list(iter_dataset(path)) == [(1, records[0]), (3, records[1])]

    def test_missing_key_names_source(self):
        row = {"qa_id": "x"}
        with pytest.raises(SchemaViolationError, match="somewhere.*missing keys"):
            record_from_dict(row, source="somewhere")

    @pytest.mark.parametrize("gt_value", ["abc", "1.5", True, False, [1.0], {}])
    def test_gt_value_must_be_a_number_or_null(self, dataset, gt_value):
        row = dataset[0][0].to_dict()
        row["gt_value"] = gt_value
        with pytest.raises(SchemaViolationError, match="here.*gt_value"):
            record_from_dict(row, source="here")

    def test_bad_row_names_file_and_line(self, dataset, tmp_path):
        rows = [rec.to_dict() for rec in dataset[0][:3]]
        rows[2]["gt_value"] = "abc"
        path = tmp_path / "dataset.jsonl"
        write_jsonl(rows, path)
        with pytest.raises(SchemaViolationError, match=r"dataset\.jsonl: line 3: 'gt_value'"):
            read_dataset(path)

    @pytest.mark.parametrize("text", [
        "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400,
    ], ids=["nan", "inf", "-inf", "1e400", "-1e400", "401-digit-int"])
    def test_gt_value_must_be_finite(self, dataset, tmp_path, text):
        """Python's json reads NaN, Infinity and 1e400 as non-finite floats and
        a 401-digit integer as an int no float holds; each is a schema error
        naming the file and line, not a stored non-finite value or an
        OverflowError."""
        row = dataset[0][0].to_dict()
        row["gt_value"] = 0.0
        line = json.dumps(row).replace('"gt_value": 0.0', f'"gt_value": {text}')
        path = tmp_path / "dataset.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(SchemaViolationError,
                           match=r"dataset\.jsonl: line 1: 'gt_value' must be a finite"):
            read_dataset(path)

    def test_largest_finite_gt_value_is_kept(self, dataset):
        row = dataset[0][0].to_dict()
        row["gt_value"] = 1.7976931348623157e308
        assert record_from_dict(row).gt_value == 1.7976931348623157e308

    @pytest.mark.parametrize("key,value,expected", [
        ("qa_id", 5, "'qa_id' must be a string, got 5"),
        ("task", ["fv"], "'task' must be a string, got ['fv']"),
        ("question", None, "'question' must be a string, got None"),
        ("unit", 1.0, "'unit' must be a string, got 1.0"),
        ("provenance", True, "'provenance' must be a string, got True"),
        ("cp_link", 7, "'cp_link' must be a string or null, got 7"),
        ("template_id", {"id": "x"}, "'template_id' must be a string or null, got {'id': 'x'}"),
    ])
    def test_text_fields_must_be_strings(self, dataset, key, value, expected):
        """No text field is coerced: a non-string is a schema error naming
        the source and line."""
        row = dataset[0][0].to_dict()
        row[key] = value
        with pytest.raises(SchemaViolationError,
                           match=re.escape(f"here: line 4: {expected}")):
            record_from_dict(row, source="here", line=4)

    def test_null_links_and_templates_are_kept(self, dataset):
        row = dataset[0][0].to_dict()
        row.update(cp_link=None, template_id=None)
        record = record_from_dict(row)
        assert record.cp_link is None and record.template_id is None

    def test_loaded_records_share_categorical_values(self, dataset, tmp_path):
        """Equal categorical values of loaded records are one object each, and
        the slotted records still compare equal and support ``replace``."""
        records, _ = dataset
        path = tmp_path / "dataset.jsonl"
        write_dataset(records, path)
        loaded = read_dataset(path)
        assert loaded == list(records)
        for key in ("scene_id", "task", "category", "unit", "variant",
                    "provenance", "template_id"):
            values = [getattr(r, key) for r in loaded]
            assert len({id(v) for v in values}) == len(set(values)), key
        labels = [label for r in loaded for label in r.referents]
        assert len({id(label) for label in labels}) == len(set(labels))
        changed = dataclasses.replace(loaded[0], answer="maybe")
        assert changed.answer == "maybe" and changed.qa_id == loaded[0].qa_id
        assert not hasattr(loaded[0], "__dict__")

    def test_referents_must_be_string_list(self, dataset):
        row = dataset[0][0].to_dict()
        row["referents"] = "chair"
        with pytest.raises(SchemaViolationError, match="referents"):
            record_from_dict(row)


class TestVocabulary:
    @pytest.mark.parametrize("changes,problem", [
        ({"task": "essay"}, "unknown task 'essay'"),
        ({"variant": "sketch"}, "unknown variant 'sketch'"),
        ({"provenance": "human"}, "unknown provenance 'human'"),
        ({"task": TASK_PM, "category": CAT_QUANTITY}, "unknown category 'quantity'"),
        ({"task": TASK_NI, "category": CAT_NON_NUMERIC}, "unknown category 'non-numeric'"),
        ({"task": TASK_FV, "category": "colour"}, "unknown category 'colour'"),
    ], ids=["task", "variant", "provenance", "pm-quantity", "ni-non-numeric",
            "fv-colour"])
    def test_record_refuses_a_value_outside_its_vocabulary(self, dataset, changes,
                                                           problem):
        record = dataset[0][0]
        with pytest.raises(SchemaViolationError,
                           match=f"^{re.escape(record.qa_id)}: {re.escape(problem)}$"):
            dataclasses.replace(record, **changes)

    @pytest.mark.parametrize("task,categories", [
        (TASK_FV, (*NUMERIC_CATEGORIES, CAT_NON_NUMERIC)),
        (TASK_PM, (CAT_NON_NUMERIC,)),
        (TASK_NI, NUMERIC_CATEGORIES),
    ])
    def test_every_allowed_value_builds(self, dataset, task, categories):
        record = dataset[0][0]
        for category in categories:
            for variant in (VARIANT_PLAIN, VARIANT_COT):
                for provenance in (PROVENANCE_RULE, PROVENANCE_LLM):
                    built = dataclasses.replace(record, task=task, category=category,
                                                variant=variant, provenance=provenance)
                    assert (built.task, built.category) == (task, category)

    def test_a_row_outside_the_vocabulary_names_source_and_line(self, dataset):
        row = dataset[0][0].to_dict()
        row["variant"] = "sketch"
        with pytest.raises(SchemaViolationError, match=re.escape(
                f"here: line 4: {row['qa_id']}: unknown variant 'sketch'")):
            record_from_dict(row, source="here", line=4)


class TestAssembleDataset:
    def test_duplicate_ids_rejected(self, dataset):
        records, _ = dataset
        with pytest.raises(SchemaViolationError, match="duplicate qa_id"):
            assemble_dataset([records, records[:1]])

    def test_unbalanced_stream_rejected(self, dataset):
        records, _ = dataset
        fv_yes = [r for r in records
                  if r.task == TASK_FV and r.variant == VARIANT_PLAIN
                  and r.answer == ANSWER_YES]
        with pytest.raises(SceneQaError, match="balance tolerances breached"):
            assemble_dataset([fv_yes[:4]])

    @staticmethod
    def _pm_records(letters: str) -> list[QaRecord]:
        return [QaRecord(f"llm-pm-{k:05d}", "", "pm", "non-numeric", "Which?",
                         letter, None, "", None, VARIANT_PLAIN, "llm", None, ())
                for k, letter in enumerate(letters)]

    def test_pm_letters_balance_over_the_configured_option_count(self):
        records = self._pm_records("ABCD" * 10)
        kept, report = assemble_dataset([records], n_options=4)
        assert len(kept) == 40 and balance_violations(report, n_options=4) == []
        # at five options the same stratum never uses E: A-D run 10 vs 8
        with pytest.raises(SceneQaError, match="letter A used 10 times, expected 8.0"):
            assemble_dataset([records])


class TestReferentValues:
    def test_quantity_counts(self, tables):
        table = tables[sorted(tables)[0]]
        counts = table.label_counts()
        label = next(iter(sorted(counts)))
        assert referent_values(CAT_QUANTITY, [label, label], table) == [
            float(counts[label]), float(counts[label])
        ]

    def test_distance_two_and_four_referents(self, tables):
        table = tables[sorted(tables)[0]]
        unique = table.unique_label_instances()
        labels = sorted(unique)[:4]
        two = referent_values(CAT_DISTANCE, labels[:2], table)
        four = referent_values(CAT_DISTANCE, labels, table)
        assert len(two) == 1 and len(four) == 2
        assert four[0] == two[0]

    def test_volume_unique_instances(self, tables):
        table = tables[sorted(tables)[0]]
        unique = table.unique_label_instances()
        label = sorted(unique)[0]
        (value,) = referent_values(CAT_VOLUME, [label], table)
        assert value == unique[label].volume

    def test_unknown_category_rejected(self, tables):
        with pytest.raises(SceneQaError, match="no referent values"):
            referent_values("weight", ["chair"], tables[sorted(tables)[0]])

    # Referents that do not fit the table raise the reason selfcheck lists
    # under gt_agreement.
    def test_unknown_label_rejected(self, tables):
        table = tables[sorted(tables)[0]]
        label = sorted(table.label_counts())[0]
        with pytest.raises(SchemaViolationError) as caught:
            referent_values(CAT_QUANTITY, [label, "unicorn"], table)
        assert str(caught.value) == (
            f"referents ['unicorn'] name no label of scene {table.scene_id!r}")

    def test_repeated_label_rejected_for_volume(self, tables):
        table = tables[sorted(tables)[0]]
        repeated = next(label for label, n in sorted(table.label_counts().items())
                        if n > 1)
        with pytest.raises(SchemaViolationError) as caught:
            referent_values(CAT_VOLUME, [repeated], table)
        assert str(caught.value) == (
            f"referents [{repeated!r}] name no unique label of scene {table.scene_id!r}")

    def test_distance_pair_missing_from_the_table_rejected(self, tables):
        table = tables[sorted(tables)[0]]
        unique = table.unique_label_instances()
        a, b, c = sorted(unique)[:3]
        missing = tuple(sorted((unique[c].instance_id, unique[b].instance_id)))
        pairs = {key: d for key, d in table.pairs.items() if key != missing}
        holed = dataclasses.replace(table, pairs=pairs)
        assert len(referent_values(CAT_DISTANCE, [a, b], holed)) == 1
        with pytest.raises(SchemaViolationError) as caught:
            referent_values(CAT_DISTANCE, [a, b, b, c], holed)
        assert str(caught.value) == (
            f"no distance between {b!r} and {c!r} in scene {table.scene_id!r}")
