"""Shared fixtures: a small bank of synthetic scenes with analytic ground
truth, their extracted tables, and a balanced generated dataset; and a
scripted stand-in for the rewrite service.

Everything is seeded and session-scoped; tests must not mutate these
objects (records and scenes are frozen dataclasses, tables are treated as
read-only).
"""

from __future__ import annotations

import numpy as np
import pytest

from sceneqa.ngt import extract_ngt
from sceneqa.rulegen import RulegenConfig, assemble_dataset, generate_rule_dataset
from sceneqa.scene import generate_synthetic_scene, random_indoor_spec
from sceneqa.util import derive_seed

MASTER_SEED = 20240817


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
