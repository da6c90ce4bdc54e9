"""Output checks and artifact digests, read from a finished work directory.

Every check is independent of the library: it reads the JSON artifacts with
the standard library and compares them against the synthetic scenes'
analytic truth, the stage results, and the score report the predictions
were built to produce.  Each compared item is one operation; a mismatch is a
failed operation.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import SOLVER_TOL, STAGES

DIGESTED = ("dataset.jsonl", "manifest.json", "balance_report.json")


@dataclass
class Ops:
    """Attempted and failed operations, with the first few failures named."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)

    def merge(self, other: "Ops") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes[: 20 - len(self.notes)])


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def digests(out: Path) -> dict[str, str]:
    """sha256 of the NGT set (names and bytes, in name order) and of the
    dataset, manifest and balance report."""
    ngt = hashlib.sha256()
    for path in sorted((out / "ngt").glob("*.ngt.json")):
        ngt.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    found = {"ngt_set": ngt.hexdigest()}
    for name in DIGESTED:
        path = out / name
        found[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else ""
    return found


def _box_gap(lo1, hi1, lo2, hi2) -> float:
    return math.sqrt(sum(max(0.0, lo1[i] - hi2[i], lo2[i] - hi1[i]) ** 2
                         for i in range(3)))


def _diagonal(lo1, hi1, lo2, hi2) -> float:
    return math.sqrt(sum((max(hi1[i], hi2[i]) - min(lo1[i], lo2[i])) ** 2
                         for i in range(3)))


def check_ngt(out: Path, solver_tol: float) -> Ops:
    """Pair solves, and NGT tables against the synthetic scenes' truth files:
    volumes and dims exactly, box-box distances within ``solver_tol`` times
    the pair's bounding diagonal of the closed-form box gap."""
    ops = Ops()
    truths = sorted((out / "scenes").glob("*.truth.json"))
    ops.add(bool(truths), "no truth files")
    for truth_path in truths:
        scene_id = truth_path.name.removesuffix(".truth.json")
        ngt_path = out / "ngt" / f"{scene_id}.ngt.json"
        ops.add(ngt_path.is_file(), f"{scene_id}: no NGT table")
        if not ngt_path.is_file():
            continue
        truth = {row["instance_id"]: row for row in _load(truth_path)["instances"]}
        table = _load(ngt_path)
        for inst in table["instances"]:
            want = truth.get(inst["instance_id"])
            ops.add(want is not None and want["volume"] == inst["volume"]
                    and want["dims"] == inst["dims"],
                    f"{scene_id}/{inst['instance_id']}: volume or dims differ from truth")
        for a, b, reason in ((r["a"], r["b"], r["reason"]) for r in table["skipped_pairs"]):
            ops.add(False, f"{scene_id}: pair {a}-{b} skipped: {reason}")
        for row in table["pairs"]:
            ta, tb = truth.get(row["a"]), truth.get(row["b"])
            if ta is None or tb is None:
                ops.add(False, f"{scene_id}: pair {row['a']}-{row['b']} has no truth")
                continue
            boxes = (ta["aabb_min"], ta["aabb_max"], tb["aabb_min"], tb["aabb_max"])
            error = abs(row["distance"] - _box_gap(*boxes))
            ops.add(error <= solver_tol * _diagonal(*boxes),
                    f"{scene_id}: pair {row['a']}-{row['b']} distance off the box "
                    f"gap by {error:.3e}")
    return ops


def check_rewrite(out: Path) -> Ops:
    """Rewrite jobs from the run log; a job that ran out of attempts failed."""
    ops = Ops()
    log = out / "run_log.jsonl"
    if log.is_file():
        for line in log.read_text(encoding="utf-8").splitlines():
            row = json.loads(line)
            ops.add(bool(row["ok"]), f"rewrite job {row['job_id']} exhausted its attempts")
    return ops


def check_repeat(work: Path, result: dict, expected_records: int | None) -> Ops:
    """Every operation of one repetition: its stage calls, pair solves and
    rewrite jobs, and the checks on what the stages returned and wrote."""
    ops = check_stages(work, result, expected_records)
    ops.merge(check_ngt(work / "out", SOLVER_TOL))
    ops.merge(check_rewrite(work / "out"))
    return ops


def check_stages(work: Path, result: dict, expected_records: int | None) -> Ops:
    """Stage calls, and checks on what the stages returned and wrote."""
    ops = Ops()
    for stage in STAGES:
        ran = stage in result.get("stage_s", {}) and stage not in result.get("errors", {})
        ops.add(ran, f"stage {stage} raised or did not run: "
                     f"{str(result.get('errors'))[-300:]}")
    out = work / "out"
    ops.add(bool(result.get("selfcheck_ok")),
            f"selfcheck failed: {result.get('selfcheck')}")
    manifest = out / "manifest.json"
    if expected_records is not None and manifest.is_file():
        n = _load(manifest)["n_records"]
        ops.add(n == expected_records, f"{n} records, expected {expected_records}")
    report = work / "report.json"
    expected = result.get("expected_scores")
    ops.add(report.is_file() and expected is not None, "no score report")
    if report.is_file() and expected is not None:
        strata = _load(report)["scores"]["strata"]
        ops.add(sorted(strata) == sorted(expected),
                f"score strata {sorted(strata)} differ from {sorted(expected)}")
        for key, want in expected.items():
            ops.add(strata.get(key) == want,
                    f"score stratum {key}: got {strata.get(key)}, expected {want}")
    return ops
