"""Workload definitions and the inputs the benchmark makes for them.

Every input is derived from the workload seed: the pipeline configuration
(the seed is the pipeline's master seed), the short-answer file the rewrite
track reads, and the predictions file the ``score`` stage reads.  The
predictions are built with a known mix of answer kinds, so the score report
they should produce is known without running the scorer.

This module uses the standard library only; it never imports ``sceneqa``.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 20240817

# TA@5/10/20: the thresholds the score report states NI accuracy at.
TA_THRESHOLDS = (0.05, 0.10, 0.20)

# Hull-distance tolerance, relative to a pair's bounding diagonal.
SOLVER_TOL = 1e-9

STAGES = ("synth", "extract", "generate", "selfcheck", "score")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    jobs: int = 1
    # Number of short-answer items written for the rewrite track (0: none).
    saqs: int = 0
    # Records the full-size dataset must hold; None for the tiny size.
    n_records: int | None = None
    tiny: dict = field(default_factory=dict)

    def pipeline_config(self, tiny: bool = False) -> dict:
        cfg = dict(self.config)
        if tiny:
            cfg.update(self.tiny)
        return cfg


def _quotas(fv: int, ni: int) -> dict:
    return {"solver_tol": SOLVER_TOL,
            "fv_quantity": fv, "fv_distance": fv, "fv_volume": fv,
            "ni_quantity": ni, "ni_distance": ni, "ni_volume": ni}


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="acceptance",
            why="acceptance criterion 9 scale: 50 scenes x 41 x 24 points; "
                "39k tiny pair solves make per-call overhead in geometry and "
                "ngt the largest cost; no process pool",
            config={"synth_scenes": 50, "synth_boxes": 41,
                    "synth_points_per_box": 24, **_quotas(1200, 480)},
            jobs=1,
            n_records=5040,
            tiny={"synth_scenes": 2, **_quotas(40, 16)},
        ),
        Workload(
            name="scan",
            why="dense clouds, 2 scenes x 41 x 5000 points: per-point solver "
                "work, 22 MB scene JSON and the per-scene process pool "
                "dominate; rulegen, audit and scoring do almost nothing",
            config={"synth_scenes": 2, "synth_boxes": 41,
                    "synth_points_per_box": 5000, **_quotas(40, 20)},
            jobs=min(2, nproc()),
            n_records=180,
            tiny={"synth_scenes": 1, "synth_points_per_box": 200,
                  **_quotas(20, 10)},
        ),
        Workload(
            name="dataset",
            why="records are the load: 51,500 records from 8 small scenes plus "
                "an offline rewrite track; rulegen, rewrite, JSONL I/O, audit "
                "and scoring take most of the time",
            config={"synth_scenes": 8, "synth_boxes": 41,
                    "synth_points_per_box": 24, **_quotas(8000, 3000),
                    "cot_fraction": 0.5, "stub_llm": True,
                    "rewrite_pm": 1000, "rewrite_fv": 500},
            jobs=1,
            saqs=400,
            n_records=51500,
            tiny={"synth_scenes": 2, **_quotas(80, 30),
                  "rewrite_pm": 20, "rewrite_fv": 10},
        ),
    )
}


# ---------------------------------------------------------------------------
# Short-answer questions for the rewrite track
# ---------------------------------------------------------------------------

# Answers share no substring with the offline stub's distractor words, so
# every rewrite job validates on its first attempt.
_ATTRIBUTES = ("color", "material", "finish", "pattern")
_OBJECTS = ("chair", "table", "sofa", "lamp", "desk", "cabinet", "shelf", "bed")
_ANSWERS = ("ivory", "teal", "linen", "oak", "slate", "crimson", "beige",
            "striped", "matte", "glossy", "pine", "charcoal", "leather", "olive")


def write_saqs(path, count: int, seed: int) -> None:
    rng = random.Random(f"saq:{seed}")
    with open(path, "w", encoding="utf-8") as fh:
        for k in range(count):
            row = {
                "question": f"What is the {rng.choice(_ATTRIBUTES)} of the "
                            f"{rng.choice(_OBJECTS)} near item {k}?",
                "answer": rng.choice(_ANSWERS),
                "scene_id": f"saq{k % 8:04d}",
            }
            fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# Predictions with a known score
# ---------------------------------------------------------------------------

# Relative errors of numeric answers, each clear of every TA threshold.
_NEAR = (0.03, 0.07, 0.15)
_FAR = 0.40
_UNPARSEABLE = "I cannot tell from the scene."


def _numeral(value: float) -> str:
    return f"{value:.9f}"


def _numeric_prediction(rng, value: float, cot: bool):
    """One NI prediction and the set of TA thresholds it must hit."""
    kind = rng.choices(("exact", "near", "far", "unparseable", "missing"),
                       weights=(4, 6, 2, 1, 1))[0]
    if kind in ("unparseable", "missing"):
        return kind, None, ()
    error = rng.choice(_NEAR) if kind == "near" else {"exact": 0.0, "far": _FAR}[kind]
    pred = value * (1.0 + error * rng.choice((-1.0, 1.0)))
    hits = tuple(t for t in TA_THRESHOLDS if error < t)
    if cot:
        text = (f"The first object measures 7.5 and the second 12, so "
                f"after checking both the answer is {_numeral(pred)}")
    else:
        text = f"It is {_numeral(pred)} by my estimate."
    return kind, text, hits


def _choice_prediction(rng, task: str, gold: str, cot: bool):
    """One FV or PM prediction and whether it must count as correct."""
    kind = rng.choices(("correct", "wrong", "unparseable", "missing"),
                       weights=(6, 3, 1, 1))[0]
    if kind in ("unparseable", "missing"):
        return kind, None, False
    if task == "fv":
        other = "no" if gold == "yes" else "yes"
        said = gold if kind == "correct" else other
        if cot:
            first = "no" if said == "yes" else "yes"
            text = (f"At first glance {first}, but after comparing the "
                    f"values the final answer is {said}")
        else:
            text = f"I would say {said}, judging by the scene."
    else:
        letters = [c for c in "ABCDE" if c != gold]
        said = gold if kind == "correct" else rng.choice(letters)
        text = f"The correct option is {said}."
    return kind, text, kind == "correct"


def build_predictions(dataset_path, predictions_path, seed: int) -> dict:
    """Write a predictions file for ``dataset_path`` and return the score
    report strata it must produce (the ``scores.strata`` part of the report).

    Chain-of-thought records take their target from their plain twin, whose
    stored answer is the bare token.
    """
    rng = random.Random(f"predictions:{seed}")
    # Two streaming passes, so the benchmark's own memory stays below the
    # stages' peak: plain answers first, then one prediction per record.
    plain = {}
    for row in _rows(dataset_path):
        if row["variant"] == "plain":
            plain[row["qa_id"]] = row["answer"]
    strata: dict[str, dict] = {}
    with open(predictions_path, "w", encoding="utf-8") as out:
        for row in _rows(dataset_path):
            cot = row["variant"] == "cot"
            key = f"{row['task']}/{row['category']}/{row['variant']}"
            stratum = strata.setdefault(key, {
                "task": row["task"], "category": row["category"],
                "variant": row["variant"], "n_records": 0, "n_missing": 0,
                "n_unparsed": 0, "hits": 0,
                "ta": {t: 0 for t in TA_THRESHOLDS},
            })
            stratum["n_records"] += 1
            if row["task"] == "ni":
                value = row["gt_value"]
                if value is None:
                    value = float(plain[row["qa_id"].removesuffix("-cot")])
                kind, text, hits = _numeric_prediction(rng, value, cot)
                for t in hits:
                    stratum["ta"][t] += 1
            else:
                gold = plain[row["qa_id"].removesuffix("-cot")]
                kind, text, correct = _choice_prediction(rng, row["task"], gold, cot)
                stratum["hits"] += correct
            if kind == "missing":
                stratum["n_missing"] += 1
                continue
            if kind == "unparseable":
                stratum["n_unparsed"] += 1
                text = _UNPARSEABLE
            out.write(json.dumps({"qa_id": row["qa_id"], "output": text}) + "\n")
    return {key: _report_row(strata[key]) for key in sorted(strata)}


def _rows(path):
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            yield json.loads(line)


def _report_row(s: dict) -> dict:
    row = {key: s[key] for key in ("task", "category", "variant", "n_records",
                                   "n_missing", "n_unparsed")}
    n = s["n_records"]
    if s["task"] == "ni":
        row["ta"] = {f"{t:g}": s["ta"][t] / n for t in TA_THRESHOLDS}
    else:
        row["n_correct"] = s["hits"]
        row["accuracy"] = s["hits"] / n
    return row
