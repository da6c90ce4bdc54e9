"""Tests of the benchmark itself (not of the library).

    python3 -m pytest bench -q

Tiny runs of every workload must print every metric BENCHMARK.json names,
with its unit, and pass their checks; corrupted artifacts must be caught.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from checks import check_repeat
from workloads import DEFAULT_SEED, WORKLOADS
from worker import run_once

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "bench" / "bench.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reports_every_declared_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert "failed_ops_ratio: 0 " in proc.stdout
    for artifact in ("ngt_set", "dataset.jsonl", "manifest.json", "balance_report.json"):
        assert f"sha256 {artifact}: " in proc.stdout


def test_end_to_end_metrics_are_never_zero():
    proc = _bench("--workload", "acceptance", "--seconds", "1", "--tiny")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _run_tiny(tmp_path, workload, after_stage):
    work = tmp_path / "work"
    result = run_once(ROOT, workload, DEFAULT_SEED, 1, work, time.monotonic(),
                      tiny=True, after_stage=after_stage)
    return check_repeat(work, result, expected_records=None)


def test_clean_tiny_run_has_no_failed_operations(tmp_path):
    ops = _run_tiny(tmp_path, "acceptance", None)
    assert ops.attempted > 100 and ops.failed == 0, ops.notes


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data, indent=2) + "\n")


def test_changed_ngt_distance_is_caught(tmp_path):
    def corrupt(stage, out):
        if stage == "extract":
            first = sorted((out / "ngt").glob("*.ngt.json"))[0]
            _edit_json(first, lambda t: t["pairs"][0].update(
                distance=t["pairs"][0]["distance"] + 1e-3))

    ops = _run_tiny(tmp_path, "acceptance", corrupt)
    assert ops.failed == 1, ops.notes
    assert "distance off the box gap" in ops.notes[0]


def test_flipped_fv_answer_is_caught(tmp_path):
    def corrupt(stage, out):
        if stage == "generate":
            path = out / "dataset.jsonl"
            rows = [json.loads(line) for line in path.read_text().splitlines()]
            row = next(r for r in rows if r["task"] == "fv" and r["variant"] == "plain")
            row["answer"] = "no" if row["answer"] == "yes" else "yes"
            path.write_text("".join(json.dumps(r) + "\n" for r in rows))

    ops = _run_tiny(tmp_path, "dataset", corrupt)
    assert ops.failed / ops.attempted > 0
    assert any(note.startswith("selfcheck failed") for note in ops.notes), ops.notes


def test_changed_volume_is_caught(tmp_path):
    def corrupt(stage, out):
        if stage == "extract":
            first = sorted((out / "ngt").glob("*.ngt.json"))[0]
            _edit_json(first, lambda t: t["instances"][0].update(
                volume=t["instances"][0]["volume"] + 1e-9))

    ops = _run_tiny(tmp_path, "scan", corrupt)
    assert ops.failed >= 1
    assert any("volume or dims differ" in note for note in ops.notes), ops.notes


def test_changed_score_report_is_caught(tmp_path):
    def corrupt(stage, out):
        if stage == "score":
            def miss_one(report):
                stratum = report["scores"]["strata"]["fv/distance/plain"]
                stratum["n_correct"] -= 1
            _edit_json(out.parent / "report.json", miss_one)

    ops = _run_tiny(tmp_path, "acceptance", corrupt)
    assert ops.failed == 1, ops.notes
    assert ops.notes[0].startswith("score stratum fv/distance/plain")


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "scan", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
