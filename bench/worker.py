"""One repetition of a workload, run in a fresh process by ``bench.py``.

Set-up (imports, the work directory, the configuration and the short-answer
file) is timed from the moment the parent started this process.  Then the
five public stage functions of ``sceneqa.pipeline`` run in the order the
command line uses: synth, extract, generate, selfcheck, score.  Between
generate and score the benchmark writes the predictions file; that work is
not part of any stage time.

The last line of standard output is one JSON object with the timings, the
CPU time and peak memory of the stages, and what the stages returned.
Output checks are made by the parent, from the artifacts left in the work
directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import STAGES, WORKLOADS, build_predictions, write_saqs


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN gives the largest reaped
    # child (here: the extract pool workers).
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) * 1024 / 1e6


def import_sceneqa(root: Path):
    """Import the package from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "sceneqa" / "__init__.py").is_file():
        raise SystemExit(f"no sceneqa sources under {src}")
    sys.path.insert(0, str(src))
    import sceneqa.pipeline as pipeline

    if Path(pipeline.__file__).resolve().parent != (src / "sceneqa").resolve():
        raise SystemExit(f"sceneqa was imported from {pipeline.__file__}, not {src}")
    return pipeline


def run_once(root: Path, workload: str, seed: int, jobs: int, work: Path,
             spawned: float, tiny: bool = False, tracer=None,
             setup_only: bool = False, after_stage=None) -> dict:
    """Set up and run every stage once; ``after_stage(name, out_dir)`` runs
    after each stage that returned (the benchmark's tests use it)."""
    pipeline = import_sceneqa(root)
    spec = WORKLOADS[workload]
    work.mkdir(parents=True, exist_ok=False)
    out = work / "out"
    data = {**spec.pipeline_config(tiny), "seed": seed, "out_dir": str(out),
            "jobs": jobs}
    if spec.saqs:
        write_saqs(work / "saqs.jsonl", spec.saqs, seed)
        data["saq_file"] = str(work / "saqs.jsonl")
    (work / "config.json").write_text(json.dumps(data, indent=2) + "\n")
    cfg = pipeline.load_config(work / "config.json")
    if tracer is not None:
        tracer.install()
    result = {"setup_s": time.monotonic() - spawned, "stage_s": {},
              "stage_cpu_s": {}, "errors": {}}
    if setup_only:
        return result

    dataset = out / "dataset.jsonl"
    predictions = work / "predictions.jsonl"
    calls = {
        "synth": lambda: pipeline.run_synth(cfg),
        "extract": lambda: pipeline.run_extract(cfg),
        "generate": lambda: pipeline.run_generate(cfg),
        "selfcheck": lambda: pipeline.run_selfcheck(dataset, ngt_dir=cfg.ngt_path),
        "score": lambda: pipeline.run_score(dataset, predictions,
                                            out_path=work / "report.json"),
    }
    for stage in STAGES:
        if stage == "score":
            result["expected_scores"] = build_predictions(dataset, predictions, seed)
        cpu0, t0 = _cpu_s(), time.perf_counter()
        try:
            returned = calls[stage]()
        except Exception:  # a stage that raises is a failed operation
            result["errors"][stage] = traceback.format_exc(limit=4)
            break
        finally:
            result["stage_s"][stage] = time.perf_counter() - t0
            result["stage_cpu_s"][stage] = _cpu_s() - cpu0
        if stage == "selfcheck":
            result["selfcheck"] = {name: failures[:5] for name, failures
                                   in returned.checks.items()}
            result["selfcheck_ok"] = returned.ok
        if after_stage is not None:
            after_stage(stage, out)
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
        result["per_layer"] = tracer.metrics()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="trace the run and write its spans here")
    args = parser.parse_args(argv)

    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer(run_id=Path(args.work).name)
    result = run_once(Path(args.root), args.workload, args.seed, args.jobs,
                      Path(args.work), args.spawned, tiny=args.tiny,
                      tracer=tracer, setup_only=args.setup_only)
    if tracer is not None:
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
