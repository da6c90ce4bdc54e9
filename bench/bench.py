"""sceneqa benchmark: the whole pipeline on one workload, with output checks.

    python3 bench/bench.py --workload acceptance [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``.  Each repetition is a fresh process (``worker.py``) that sets up
and calls the five stage functions of ``sceneqa.pipeline`` in command-line
order.  Repetitions run back to back (a closed loop, one at a time) until
``--seconds`` is spent, at least one.  Every repetition's artifacts are
checked and digested, then deleted.

``--trace 0`` reports the end-to-end metrics, as the median over
repetitions:

* ``pipeline_s``: wall time from the first stage call to the end of the
  last, without the benchmark's own work (predictions, checks);
* ``cpu_s``: user plus system CPU time of the stages, pool workers included;
* ``peak_rss_mb``: peak resident memory of the process or its largest child;
* ``setup_s``: process start to the first stage call (imports, work
  directory, configuration, short-answer file), over at least seven set-ups.

``--trace 1`` runs the workload once untraced and once traced (always with
``jobs=1``: pool workers are invisible to the tracer) and reports the
per-layer metrics of ``tracing.py`` plus the tracing overhead.  Its spans are
written to ``.bench_out/spans/``.

Failed operations over attempted ones (pair solves, rewrite jobs, stage calls
and output checks) are the result's ``failed`` and ``attempted``; any failure
makes the command exit 1.  Summaries go to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from checks import Ops, check_repeat, digests
from tracing import PER_LAYER_UNITS
from workloads import DEFAULT_SEED, WORKLOADS, nproc

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

END_TO_END_UNITS = {"pipeline_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}
SETUP_SAMPLES = 7
# A run must end within 180 s; no repetition starts that would pass this.
DEADLINE_S = 165.0


class Bench:
    def __init__(self, args):
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.started = time.monotonic()
        self.ops = Ops()
        self.runs: list[dict] = []
        self._count = 0

    def _workdir(self) -> Path:
        self._count += 1
        return OUT / f"work-{self.spec.name}-{os.getpid()}-{self._count}"

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def spawn(self, jobs: int, work: Path, setup_only=False, spans=None) -> dict:
        cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
               "--workload", self.spec.name, "--seed", str(self.args.seed),
               "--jobs", str(jobs), "--work", str(work)]
        cmd += ["--tiny"] * self.args.tiny + ["--setup-only"] * setup_only
        cmd += ["--spans", str(spans)] if spans else []
        proc = subprocess.Popen(cmd + ["--spawned", repr(time.monotonic())],
                                cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=max(self.remaining(), 5.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"errors": {"worker": "timed out"}}
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"errors": {"worker": f"exit {proc.returncode}: {stderr[-2000:]}"}}
        return json.loads(lines[-1])

    def repeat(self, jobs: int, spans=None) -> dict:
        """One checked repetition; its operations go into ``self.ops``."""
        work = self._workdir()
        shutil.rmtree(work, ignore_errors=True)
        try:
            result = self.spawn(jobs, work, spans=spans)
            expected = None if self.args.tiny else self.spec.n_records
            self.ops.merge(check_repeat(work, result, expected))
            run = {
                "jobs": jobs,
                "pipeline_s": sum(result.get("stage_s", {}).values()),
                "cpu_s": sum(result.get("stage_cpu_s", {}).values()),
                "peak_rss_mb": result.get("peak_rss_mb", 0.0),
                "setup_s": result.get("setup_s", 0.0),
                "stage_s": result.get("stage_s", {}),
                "digests": digests(work / "out"),
                "per_layer": result.get("per_layer"),
            }
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if self.runs:
            first = self.runs[0]
            self.ops.add(run["digests"] == first["digests"],
                         f"artifact digests at jobs={jobs} differ from jobs={first['jobs']}")
        self.runs.append(run)
        return run

    def setup_times(self) -> list[float]:
        times = [run["setup_s"] for run in self.runs]
        while len(times) < SETUP_SAMPLES and self.remaining() > 10:
            work = self._workdir()
            try:
                result = self.spawn(self.spec.jobs, work, setup_only=True)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            self.ops.add("setup_s" in result, f"set-up failed: {result.get('errors')}")
            times.append(result.get("setup_s", 0.0))
        return times

    def timed(self) -> dict[str, float]:
        while True:
            self.repeat(self.spec.jobs)
            elapsed = time.monotonic() - self.started
            per_run = elapsed / len(self.runs)
            if elapsed + per_run > self.args.seconds or per_run * 2 > self.remaining():
                break
        values = {name: [run[name] for run in self.runs]
                  for name in ("pipeline_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = self.setup_times()
        for name, vals in values.items():
            print(f"{name}: median {statistics.median(vals):.4f} "
                  f"max {max(vals):.4f} {END_TO_END_UNITS[name]} (n={len(vals)})")
        return {name: statistics.median(vals) for name, vals in values.items()}

    def traced(self) -> dict[str, float]:
        untraced = self.repeat(self.spec.jobs)
        base = untraced if self.spec.jobs == 1 else self.repeat(1)
        spans = OUT / "spans" / f"{self.spec.name}-seed{self.args.seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        traced = self.repeat(1, spans=spans)
        metrics = dict(traced["per_layer"] or {})
        metrics["trace.pipeline_s"] = traced["pipeline_s"]
        metrics["trace.untraced_pipeline_s"] = base["pipeline_s"]
        metrics["trace.overhead_s"] = traced["pipeline_s"] - base["pipeline_s"]
        if self.spec.jobs != 1:
            print(f"note: traced at jobs=1, untraced at jobs={self.spec.jobs} and 1; "
                  f"per-layer geometry spans come from the jobs=1 run")
        print(f"spans: {spans.relative_to(ROOT)}")
        return metrics


def environment(args, spec, runs: list[dict]) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    sha, dirty = None, None
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = ["git", "-C", str(ROOT)]
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                              text=True, env=env)
        status = subprocess.run(git + ["status", "--porcelain", "--", "src"],
                                capture_output=True, text=True, env=env)
        if head.returncode == 0:
            sha, dirty = head.stdout.strip(), bool(status.stdout.strip())
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sceneqa").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "git_sha": sha, "git_dirty": dirty, "src_sha256": src.hexdigest(),
        "seed": args.seed, "workload": spec.name, "tiny": args.tiny,
        "jobs": {name: w.jobs for name, w in WORKLOADS.items()},
        "jobs_run": sorted({run["jobs"] for run in runs}), "runs": len(runs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to a few seconds (self-tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sceneqa" / "__init__.py").is_file():
        print(f"error: no sceneqa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    bench = Bench(args)
    spec = bench.spec
    print(f"workload {spec.name}: {spec.why}")
    metrics = bench.traced() if args.trace else bench.timed()
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS

    env = environment(args, spec, bench.runs)
    print("environment: " + json.dumps(env))
    for name, value in bench.runs[0]["digests"].items():
        print(f"sha256 {name}: {value}")
    ratio = bench.ops.failed / max(bench.ops.attempted, 1)
    print(f"failed_ops_ratio: {ratio:.6g} ({bench.ops.failed}/{bench.ops.attempted} ops)")
    for note in bench.ops.notes:
        print(f"FAILED: {note}")

    result = {
        "correct": bench.ops.failed == 0,
        "attempted": bench.ops.attempted,
        "failed": bench.ops.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    summary = {"environment": env, "digests": bench.runs[0]["digests"],
               "runs": [{k: v for k, v in run.items() if k != "per_layer"}
                        for run in bench.runs],
               "failures": bench.ops.notes, "result": result}
    (results / f"{spec.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
