"""Shared fixtures: a small bank of synthetic scenes with analytic ground
truth, their extracted tables, and a balanced generated dataset; a
scripted stand-in for the rewrite service; and the scalar box-gap
reference.

Everything is seeded and session-scoped; tests must not mutate these
objects (records and scenes are frozen dataclasses, tables are treated as
read-only).
"""

from __future__ import annotations

from decimal import Decimal
from math import sqrt

import numpy as np
import pytest

from sceneqa.evaluate import EvalReport, StratumScores
from sceneqa.ngt import extract_ngt
from sceneqa.rulegen import (PROVENANCE_RULE, VARIANT_PLAIN, QaRecord, RulegenConfig,
                             assemble_dataset, generate_rule_dataset)
from sceneqa.scene import generate_synthetic_scene, random_indoor_spec
from sceneqa.templates import CAT_DISTANCE, TASK_NI, UNITS
from sceneqa.util import derive_seed, render_decimal

MASTER_SEED = 20240817


def box_gap(lo1, hi1, lo2, hi2) -> float:
    """Closed-form hull distance between two axis-aligned boxes, one pair at
    a time: the scalar reference for the gaps that
    ``generate_synthetic_scene`` computes for all pairs at once.

    Plain float arithmetic, summing the squared per-axis gaps in axis order:
    the same operations, in the same order, as the numpy expression
    ``sqrt(sum(maximum(0, maximum(lo1 - hi2, lo2 - hi1)) ** 2))``.
    """
    total = 0.0
    for a1, b1, a2, b2 in zip(lo1, hi1, lo2, hi2):
        gap = max(0.0, float(a1) - float(b2), float(a2) - float(b1))
        total += gap * gap
    return sqrt(total)


def ni_scores(gts, preds) -> StratumScores:
    """The scorer's stratum for NI distance records with truths ``gts`` and
    the outputs ``preds``, each a number written out in full or None for no
    output; an empty stratum when there are none."""
    report = EvalReport()
    for i, (gt, pred) in enumerate(zip(gts, preds, strict=True)):
        record = QaRecord(
            qa_id=f"s0-ni-distance-{i:05d}", scene_id="s0", task=TASK_NI,
            category=CAT_DISTANCE, question="How far?", answer=render_decimal(gt),
            gt_value=float(gt), unit=UNITS[CAT_DISTANCE], cp_link=None,
            variant=VARIANT_PLAIN, provenance=PROVENANCE_RULE, template_id=None,
            referents=(),
        )
        report.add(record, None if pred is None else f"{Decimal(repr(float(pred))):f}")
    return report.strata.get(f"{TASK_NI}/{CAT_DISTANCE}/{VARIANT_PLAIN}",
                             StratumScores(TASK_NI, CAT_DISTANCE, VARIANT_PLAIN))


class ScriptedClient:
    """A rewrite service that replays ``responses`` in order; running out
    of them raises IndexError."""

    def __init__(self, *responses: str):
        self.responses = list(responses)
        self.call_count = 0

    def complete(self, system_prompt: str, user_prompt: str) -> str:
        response = self.responses.pop(0)
        self.call_count += 1
        return response


@pytest.fixture(scope="session")
def scene_bank():
    """Three synthetic scenes with their analytic truth, keyed by scene id."""
    bank = {}
    for i in range(3):
        scene_id = f"scene{i:04d}"
        rng = np.random.default_rng(derive_seed(MASTER_SEED, f"synth:{scene_id}"))
        scene, truth = generate_synthetic_scene(
            random_indoor_spec(scene_id, rng),
            seed=derive_seed(MASTER_SEED, f"noise:{scene_id}"),
        )
        bank[scene_id] = (scene, truth)
    return bank


@pytest.fixture(scope="session")
def tables(scene_bank):
    """Extracted ground-truth tables for the scene bank."""
    return {
        scene_id: extract_ngt(scene)
        for scene_id, (scene, _) in scene_bank.items()
    }


@pytest.fixture(scope="session")
def dataset_cfg():
    return RulegenConfig(
        fv_quantity=40, fv_distance=40, fv_volume=40,
        ni_quantity=20, ni_distance=20, ni_volume=20,
        cot_fraction=0.5,
    )


@pytest.fixture(scope="session")
def dataset(tables, dataset_cfg):
    """A balanced rule-generated dataset over the scene bank."""
    records = generate_rule_dataset(list(tables.values()), dataset_cfg, MASTER_SEED)
    records, report = assemble_dataset([records])
    return records, report
