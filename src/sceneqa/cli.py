"""Command line interface.

Subcommands cover the pipeline end to end::

    sceneqa synth     --out out --seed 7           # synthetic scenes + truth
    sceneqa extract   --out out --jobs 2           # scenes -> ground-truth tables
    sceneqa generate  --out out --stub-llm         # tables -> dataset.jsonl
    sceneqa selfcheck --out out                    # audit the dataset
    sceneqa score     --out out --predictions p.jsonl

Exit codes: 0 success, 1 unexpected failure, 2 configuration problem,
3 unreadable or malformed inputs (a scene with no instances left after
label exclusion among them), 4 generation shortfall (not enough valid
candidates or rewrite attempts), 5 self-check failure.  Codes 1 to 4 are
the ``exit_code`` of the :class:`~sceneqa.errors.SceneQaError` raised; a
missing or unreadable input file (a directory, or bytes that are not UTF-8)
is 3, and a configuration file that is either is 2.  An output that cannot
be written is 1, and the error names its path.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, SceneQaError
from .pipeline import (
    CONFIG_KEYS,
    PipelineConfig,
    load_config,
    run_extract,
    run_generate,
    run_score,
    run_selfcheck,
    run_synth,
)

EXIT_OK = 0
EXIT_SELFCHECK = 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sceneqa",
        description="Numerical question answering over annotated 3D scenes: "
                    "ground-truth extraction, dataset generation, and scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--config", help="JSON configuration file")
        sp.add_argument("--seed", type=int, help="master seed override")
        sp.add_argument("--out", dest="out_dir", help="output directory override")
        sp.add_argument("--jobs", type=int,
                        help="most worker processes for per-scene synth and "
                             "extract; workers start only when the per-scene "
                             "time (estimated from scene size, then measured) "
                             "shows they repay their start-up; outputs are "
                             "identical for any value")

    sp = sub.add_parser("synth", help="write synthetic scenes with analytic ground truth")
    add_common(sp)
    sp.add_argument("--count", type=int, dest="synth_scenes",
                    help="number of scenes to synthesize")

    sp = sub.add_parser("extract", help="extract ground-truth tables from scenes")
    add_common(sp)
    sp.add_argument("--scenes", help="glob of scene JSON files")
    sp.add_argument("--ngt-dir", help="directory for ground-truth tables")

    sp = sub.add_parser("generate", help="generate the question-answer dataset")
    add_common(sp)
    sp.add_argument("--ngt-dir", help="directory of ground-truth tables")
    sp.add_argument("--stub-llm", action="store_true", default=None,
                    help="use the offline rewrite stub instead of a service")

    sp = sub.add_parser("score", help="score model predictions against a dataset")
    add_common(sp)
    sp.add_argument("--dataset", help="dataset JSONL (default: <out>/dataset.jsonl)")
    sp.add_argument("--predictions", required=True,
                    help="predictions JSONL with qa_id and output fields")
    sp.add_argument("--report", help="also write the JSON report here")

    sp = sub.add_parser("selfcheck", help="audit a generated dataset")
    add_common(sp)
    sp.add_argument("--dataset", help="dataset JSONL (default: <out>/dataset.jsonl)")
    sp.add_argument("--ngt-dir", help="tables for ground-truth agreement "
                                      "(default: <out>/ngt when present)")

    return parser


def _configure(args: argparse.Namespace) -> PipelineConfig:
    return load_config(args.config, **{key: value for key, value in vars(args).items()
                                       if key in CONFIG_KEYS})


def _dataset_path(args: argparse.Namespace, cfg: PipelineConfig) -> Path:
    return Path(args.dataset) if args.dataset else cfg.dataset_path


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _configure(args)
        if args.command == "synth":
            paths = run_synth(cfg)
            print(f"wrote {len(paths)} scenes to {cfg.synth_path}")
        elif args.command == "extract":
            paths = run_extract(cfg)
            print(f"wrote {len(paths)} ground-truth tables to {cfg.ngt_path}")
        elif args.command == "generate":
            task_counts = run_generate(cfg)
            # a quota that is not met raises, so no records means none were asked for
            counts = ", ".join(f"{k}={v}" for k, v in task_counts.items()) \
                or ("no questions requested: every fv_*, ni_*, rewrite_pm and "
                    "rewrite_fv key is 0")
            print(f"wrote {sum(task_counts.values())} records to {cfg.dataset_path} ({counts})")
        elif args.command == "score":
            report_path = Path(args.report) if args.report else None
            _, _, table = run_score(_dataset_path(args, cfg), args.predictions,
                                    out_path=report_path)
            print(table)
            if report_path is not None:
                print(f"report written to {report_path}")
        elif args.command == "selfcheck":
            ngt_dir = args.ngt_dir
            if ngt_dir is None and cfg.ngt_path.is_dir():
                ngt_dir = cfg.ngt_path
            result = run_selfcheck(_dataset_path(args, cfg), ngt_dir=ngt_dir,
                                   approx_band=cfg.approx_band_in,
                                   n_options=cfg.n_options)
            for line in result.summary_lines():
                print(line)
            if not result.ok:
                return EXIT_SELFCHECK
        else:  # pragma: no cover - argparse enforces the choices
            raise ConfigError(f"unknown command {args.command!r}")
        return EXIT_OK
    except SceneQaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # an output that cannot be written; inputs raise the above
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
