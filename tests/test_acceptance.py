"""Acceptance gate: one test per shipping criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line naming its criterion so
a plain ``pytest`` run doubles as a checklist.  The criteria pin down the
numerical tolerances and invariants the package promises:

 1. hull-distance solver agrees with an independent certificate oracle
 2. extraction reproduces analytic ground truth on synthetic scenes
 3. threshold accuracy matches a hand-computed table and is monotone
 4. generated datasets are balanced by construction at scale
 5. contrapositive pairing is an involution and reference responders score
    exactly as designed
 6. the command-line self-check passes on a generated dataset
 7. the offline rewrite stub round-trips, retries, and balances letters
 8. outputs are byte-identical across reruns and worker counts
 9. a 50-scene end-to-end run stays within the time budget
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from sceneqa.audit import oracle_responses
from sceneqa.cli import main
from sceneqa.errors import ExhaustedAttemptsError, NotConvergedError
from sceneqa.evaluate import (
    consistency_report,
    score_records,
    threshold_accuracy,
)
from sceneqa.geometry import hull_distance, hull_distance_oracle
from sceneqa.ngt import extract_ngt
from sceneqa.rewrite import (
    EchoStubClient,
    RewriteJob,
    SaqItem,
    make_jobs,
    rewrite_job,
    run_rewrite_track,
)
from sceneqa.rulegen import (
    ANSWER_NO,
    ANSWER_YES,
    RulegenConfig,
    build_schedules,
    generate_rule_dataset,
    stratum_key,
)
from sceneqa.scene import generate_synthetic_scene, random_indoor_spec
from sceneqa.templates import NUMERIC_CATEGORIES, TASK_FV, TASK_NI, TASK_PM
from sceneqa.util import derive_seed, write_json, write_jsonl

from conftest import MASTER_SEED, ScriptedClient, box_gap

TA_GRID = (0.05, 0.10, 0.20)


@pytest.fixture
def criterion(capsys):
    @contextlib.contextmanager
    def _criterion(number: int, description: str):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"[FAIL] criterion {number}: {description}")
            raise
        with capsys.disabled():
            print(f"[PASS] criterion {number}: {description}")

    return _criterion


# ---------------------------------------------------------------------------
# Shared inputs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def big_records(tables):
    cfg = RulegenConfig(
        fv_quantity=1000, fv_distance=1000, fv_volume=1000,
        ni_quantity=500, ni_distance=500, ni_volume=500,
        cot_fraction=0.2,
    )
    return generate_rule_dataset(list(tables.values()), cfg, MASTER_SEED)


@pytest.fixture(scope="module")
def pm_track():
    saqs = [SaqItem(f"Trivia question number {i}?", f"answer{i}")
            for i in range(9)]
    return run_rewrite_track(make_jobs(saqs, 500, 0, build_schedules(MASTER_SEED)),
                             EchoStubClient())


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_cli")
    saq_file = root / "saqs.jsonl"
    write_jsonl([
        {"question": "What material is the floor?", "answer": "oak"},
        {"question": "What hangs over the couch?", "answer": "a painting"},
        {"question": "What color is the rug?", "answer": "teal"},
    ], saq_file)
    config = root / "config.json"
    write_json({
        "seed": 20240817,
        "synth_scenes": 3,
        "fv_quantity": 20, "fv_distance": 20, "fv_volume": 20,
        "ni_quantity": 10, "ni_distance": 10, "ni_volume": 10,
        "cot_fraction": 0.5,
        "rewrite_pm": 10, "rewrite_fv": 5,
        "stub_llm": True,
        "saq_file": str(saq_file),
    }, config)

    def run(out: Path, jobs: int | None = None) -> None:
        args = ["--config", str(config), "--out", str(out)]
        if jobs is not None:
            args += ["--jobs", str(jobs)]
        assert main(["synth", *args]) == 0
        assert main(["extract", *args]) == 0
        assert main(["generate", *args]) == 0

    out = root / "run_a"
    run(out)
    return {"root": root, "config": config, "out": out, "run": run}


# ---------------------------------------------------------------------------
# 1. Geometry solver vs certificate oracle
# ---------------------------------------------------------------------------


def _random_cloud(rng, size: int) -> np.ndarray:
    scale = rng.uniform(0.3, 2.5, size=3)
    return rng.normal(size=(size, 3)) * scale


def test_criterion_1_solver_matches_oracle(criterion):
    with criterion(1, "hull solver within 1e-6 of the certificate oracle on "
                      "200 mixed pairs in under 30s"):
        rng = np.random.default_rng(derive_seed(MASTER_SEED, "acceptance:hulls"))
        start = time.perf_counter()
        checked = 0
        worst = 0.0
        for case in range(200):
            kind = case % 5
            na, nb = int(rng.integers(4, 40)), int(rng.integers(4, 40))
            a = _random_cloud(rng, na)
            if kind == 0:      # clearly separated
                b = _random_cloud(rng, nb) + rng.uniform(4.0, 9.0) * _unit(rng)
            elif kind == 1:    # close, possibly touching
                b = _random_cloud(rng, nb) + rng.uniform(1.5, 3.0) * _unit(rng)
            elif kind == 2:    # intersecting by construction
                b = np.vstack([_random_cloud(rng, nb - 1) + 6.0 * _unit(rng),
                               a.mean(axis=0)])
            elif kind == 3:    # degenerate: segment vs triangle, offset
                a = np.outer(np.linspace(0.0, 1.0, na), _unit(rng))
                b = (np.outer(rng.uniform(0, 1, size=nb), _unit(rng))
                     + np.outer(rng.uniform(0, 1, size=nb), _unit(rng))
                     + rng.uniform(2.0, 5.0) * _unit(rng))
            else:              # tiny clouds
                a, b = a[:4], _random_cloud(rng, 4) + 3.0 * _unit(rng)
            solved = hull_distance(a, b).distance
            if kind == 2:
                reference = 0.0   # one hull contains the other's mean
            else:
                try:
                    reference = hull_distance_oracle(a, b, tol=1e-8,
                                                     max_iterations=200_000)
                except NotConvergedError:
                    reference = 0.0   # only possible when the hulls overlap
            worst = max(worst, abs(solved - reference))
            checked += 1
        elapsed = time.perf_counter() - start
        assert checked == 200
        assert worst <= 1e-6, f"worst solver/oracle gap {worst:.3e}"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def _unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# 2. Synthetic scenes reproduce analytic truth
# ---------------------------------------------------------------------------


def test_criterion_2_synthetic_truth_reproduced(criterion):
    with criterion(2, "extraction reproduces analytic boxes exactly, gaps "
                      "within 1e-6, centroids within 1e-9"):
        for i in range(6):
            scene_id = f"accept{i:02d}"
            rng = np.random.default_rng(derive_seed(MASTER_SEED, f"a2:{scene_id}"))
            scene, truth = generate_synthetic_scene(
                random_indoor_spec(scene_id, rng, n_boxes=25),
                seed=derive_seed(MASTER_SEED, f"a2noise:{scene_id}"),
            )
            table = extract_ngt(scene, excluded_labels=())
            by_id = {inst.instance_id: inst for inst in table.instances}
            assert set(by_id) == set(truth.instances)
            for iid, declared in truth.instances.items():
                got = by_id[iid]
                assert got.aabb_min == declared.aabb_min
                assert got.aabb_max == declared.aabb_max
                assert got.dims == declared.dims
                assert got.volume == declared.volume
                assert max(abs(g - d) for g, d in
                           zip(got.centroid, declared.centroid)) <= 1e-9
            for (ia, ib), measured in table.pairs.items():
                ta, tb = truth.instances[ia], truth.instances[ib]
                expected = box_gap(ta.aabb_min, ta.aabb_max,
                                   tb.aabb_min, tb.aabb_max)
                assert abs(measured - expected) <= 1e-6


# ---------------------------------------------------------------------------
# 3. Threshold accuracy
# ---------------------------------------------------------------------------


def test_criterion_3_threshold_accuracy(criterion):
    with criterion(3, "TA matches the hand-computed 0.25/0.50/0.75 table and "
                      "is monotone over 1000 random sets"):
        gts = [10.0, 10.0, 10.0, 10.0]
        preds = [10.4, 10.6, 11.0, 12.5]
        assert [threshold_accuracy(gts, preds, t) for t in TA_GRID] == \
            [0.25, 0.50, 0.75]

        rng = np.random.default_rng(derive_seed(MASTER_SEED, "acceptance:ta"))
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            g = rng.uniform(0.1, 1e4, size=n)
            p: list[float | None] = list(g * (1.0 + rng.normal(0, 0.15, size=n)))
            for j in range(n):
                roll = rng.random()
                if roll < 0.05:
                    p[j] = None
                elif roll < 0.10:
                    p[j] = float(rng.uniform(-1e4, 1e4))
            ta = [threshold_accuracy(list(g), p, t) for t in TA_GRID]
            assert ta[0] <= ta[1] <= ta[2]


# ---------------------------------------------------------------------------
# 4. Balance by construction at scale
# ---------------------------------------------------------------------------


def test_criterion_4_balance_at_scale(criterion, big_records, pm_track):
    with criterion(4, "1000+ FV records per category stay within one of an "
                      "even yes/no, letter, and template split"):
        strata: dict[str, list] = {}
        for rec in big_records:
            strata.setdefault(stratum_key(rec), []).append(rec)
        for cat in NUMERIC_CATEGORIES:
            fv = strata[f"fv/{cat}/plain"]
            assert len(fv) >= 1000
            for subset in (fv,
                           [r for r in fv if not r.is_contrapositive],
                           [r for r in fv if r.is_contrapositive]):
                yes = sum(1 for r in subset if r.answer == ANSWER_YES)
                no = sum(1 for r in subset if r.answer == ANSWER_NO)
                assert abs(yes - no) <= 1, (cat, yes, no)
            for bucket in (fv, strata[f"ni/{cat}/plain"]):
                usage: dict[str, int] = {}
                for rec in bucket:
                    usage[rec.template_id] = usage.get(rec.template_id, 0) + 1
                expected = len(bucket) / 10.0
                assert len(usage) == 10
                assert all(abs(n - expected) <= 1.0 for n in usage.values()), \
                    (cat, usage)
        letters: dict[str, int] = {}
        for rec in pm_track.records:
            letters[rec.answer] = letters.get(rec.answer, 0) + 1
        expected = len(pm_track.records) / 5.0
        assert all(abs(n - expected) <= 1.0 for n in letters.values()), letters


# ---------------------------------------------------------------------------
# 5. Contrapositive involution and reference responders
# ---------------------------------------------------------------------------


def test_criterion_5_involution_and_responders(criterion, big_records, tables):
    with criterion(5, "contrapositive pairing is an involution; the oracle "
                      "responder scores 1.0/1.0 with zero delta and constant-"
                      "yes scores one half with zero consistency"):
        by_id = {r.qa_id: r for r in big_records}
        flip = {ANSWER_YES: ANSWER_NO, ANSWER_NO: ANSWER_YES}
        for rec in big_records:
            if rec.task != TASK_FV:
                continue
            partner = by_id[rec.cp_link]
            assert partner.cp_link == rec.qa_id
            assert partner.gold == flip[rec.gold]

        responses = oracle_responses(big_records, tables)
        scores = score_records(big_records, responses)
        for key, stratum in scores.strata.items():
            if key.startswith("ni/"):
                assert all(stratum.ta_at(t) == 1.0 for t in TA_GRID), key
            else:
                assert stratum.accuracy == 1.0, key
        pairs = consistency_report(big_records, responses)
        assert pairs.orphans == []
        for stratum in pairs.strata.values():
            assert stratum.consistency == 1.0
            assert stratum.delta == 0.0

        fv_records = [r for r in big_records if r.task == TASK_FV]
        constant = {r.qa_id: ANSWER_YES for r in fv_records}
        flat = score_records(fv_records, constant)
        for key, stratum in flat.strata.items():
            assert abs(stratum.n_correct - stratum.n_records / 2) <= 0.5, key
        flat_pairs = consistency_report(fv_records, constant)
        for stratum in flat_pairs.strata.values():
            assert stratum.consistency == 0.0


# ---------------------------------------------------------------------------
# 6. Command-line self-check
# ---------------------------------------------------------------------------


def test_criterion_6_cli_selfcheck(criterion, cli_workspace, capsys):
    with criterion(6, "the command-line self-check passes on a generated "
                      "dataset"):
        code = main(["selfcheck", "--config", str(cli_workspace["config"]),
                     "--out", str(cli_workspace["out"])])
        output = capsys.readouterr().out
        assert code == 0, output
        assert "selfcheck: PASSED" in output
        assert "gt_agreement: ok" in output


# ---------------------------------------------------------------------------
# 7. Offline rewrite stub
# ---------------------------------------------------------------------------


def test_criterion_7_rewrite_stub(criterion, pm_track):
    with criterion(7, "scripted rewrite round-trips, fails after exactly five "
                      "attempts, and spreads letters evenly over 500 jobs"):
        job = RewriteJob(job_id="llm-pm-00000",
                         saq=SaqItem("What is the capital of France?", "Parris"),
                         kind="pm", n_options=4, expected_label="B")
        scripted = ScriptedClient(json.dumps({
            "question": ("What is the capital of France? Choose the correct "
                         "option. A) Berlin  B) Parris  C) Madrid  D) Rome"),
            "Answer": "B",
        }))
        (record,), _ = rewrite_job(job, scripted)
        assert scripted.call_count == 1
        assert record.answer == "B"
        assert "B) Parris" in record.question
        assert record.question.count(")") == 4

        failing = ScriptedClient("not json", "{}", '{"question": "Q?"}',
                                 '{"question": "Q?", "Answer": "B"}',
                                 json.dumps({"question": "Q? A) x B) y",
                                             "Answer": "B"}),
                                 "never consumed")
        with pytest.raises(ExhaustedAttemptsError) as exc_info:
            rewrite_job(job, failing)
        assert failing.call_count == 5
        assert len(exc_info.value.verdicts) == 5

        counts: dict[str, int] = {}
        for rec in pm_track.records:
            counts[rec.answer] = counts.get(rec.answer, 0) + 1
        assert all(abs(n - 100) <= 1 for n in counts.values()), counts
        assert sum(counts.values()) == 500


# ---------------------------------------------------------------------------
# 8. Byte-for-byte determinism
# ---------------------------------------------------------------------------


def test_criterion_8_determinism(criterion, cli_workspace):
    with criterion(8, "dataset, manifest, and balance report are byte-"
                      "identical across reruns and worker counts"):
        rerun = cli_workspace["root"] / "run_b"
        parallel = cli_workspace["root"] / "run_c"
        cli_workspace["run"](rerun)
        cli_workspace["run"](parallel, jobs=2)
        for name in ("dataset.jsonl", "manifest.json", "balance_report.json",
                     "run_log.jsonl"):
            reference = (cli_workspace["out"] / name).read_bytes()
            assert (rerun / name).read_bytes() == reference, name
            assert (parallel / name).read_bytes() == reference, name


# ---------------------------------------------------------------------------
# 9. Scale within the time budget
# ---------------------------------------------------------------------------


def test_criterion_9_scale(criterion, tmp_path):
    with criterion(9, "50 synthetic scenes produce 5000+ records end to end "
                      "in under 60s"):
        config = tmp_path / "config.json"
        write_json({
            "seed": 20240817,
            "synth_scenes": 50,
            "fv_quantity": 1200, "fv_distance": 1200, "fv_volume": 1200,
            "ni_quantity": 480, "ni_distance": 480, "ni_volume": 480,
        }, config)
        args = ["--config", str(config), "--out", str(tmp_path / "out")]
        start = time.perf_counter()
        assert main(["synth", *args]) == 0
        assert main(["extract", *args]) == 0
        assert main(["generate", *args]) == 0
        elapsed = time.perf_counter() - start
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["n_records"] >= 5000
        assert manifest["scenes"] == [f"synth{i:04d}" for i in range(50)]
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
