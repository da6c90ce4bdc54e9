"""End-to-end pipeline: flat-file configuration plus the stage drivers the
command line exposes (synthesize scenes, extract ground truth, generate the
dataset, score predictions, self-check).

Every artifact is reproducible byte for byte from the seed: nothing written
here embeds timestamps, hostnames, or worker-dependent ordering.  ``jobs`` is
an upper bound on the worker processes for per-scene synth and extract:
workers start only when the per-scene time, estimated from scene size until
a scene has run and measured after, shows they repay their start-up (see
:func:`_map_scenes`).  Outputs are identical for any value, because each
scene draws from its own seed and writes its own files, and results come
back in sorted scene order.
"""

from __future__ import annotations

import glob as globlib
import math
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .audit import SelfCheckResult, selfcheck
from .errors import (
    ConfigError,
    InvalidSpecError,
    MalformedFileError,
    SceneQaError,
    SchemaViolationError,
)
from .evaluate import (
    ConsistencyReport,
    EvalReport,
    format_report_table,
    read_predictions,
)
from .geometry import DEFAULT_TOL
from .ngt import NgtTable, extract_ngt, read_ngt, write_ngt
from .rewrite import (
    EchoStubClient,
    HttpServiceClient,
    PROMPT_VERSION,
    load_saqs,
    make_jobs,
    run_rewrite_track,
)
from .rulegen import (
    BalanceReport,
    RulegenConfig,
    build_schedules,
    checked_records,
    iter_dataset,
    iter_rule_dataset,
    write_dataset,
)
from .scene import (
    DEFAULT_EXCLUDED_LABELS,
    SyntheticSpec,
    _validate_spec,
    generate_synthetic_scene,
    load_scene,
    random_indoor_spec,
    write_scene,
    write_truth,
)
from .templates import DEFAULT_APPROX_BAND, TEMPLATE_BANK_VERSION
from .util import derive_seed, read_json, write_json, write_jsonl

FORMAT_VERSION = "1.0.0"

# Keys that say how or where a run executes rather than what it produces
# (worker counts and filesystem locations).  They are excluded from the
# manifest echo so semantically identical runs stay byte-identical even when
# launched with different directories or parallelism.
_EXECUTION_ONLY_KEYS = ("jobs", "out_dir", "scenes", "ngt_dir", "synth_dir", "saq_file")


@dataclass(frozen=True)
class PipelineConfig(RulegenConfig):
    """Run settings; the question-generation fields and the check of every
    field against its annotation are inherited from :class:`RulegenConfig`,
    so a config is whole or refused."""

    seed: int = 0
    out_dir: str = "out"
    scenes: str = ""
    ngt_dir: str = ""
    excluded_labels: tuple[str, ...] = tuple(sorted(DEFAULT_EXCLUDED_LABELS))
    solver_tol: float = DEFAULT_TOL
    jobs: int = 1

    rewrite_pm: int = 0
    rewrite_fv: int = 0
    n_options: int = 5
    saq_file: str = ""
    stub_llm: bool = False
    service_endpoint: str = ""
    service_model: str = ""
    service_timeout: float = 30.0
    service_retries: int = 2
    service_temperature: float | None = None
    service_max_tokens: int | None = None

    synth_scenes: int = 3
    synth_boxes: int = 41
    synth_points_per_box: int = 24
    synth_dir: str = ""

    def __post_init__(self):
        super().__post_init__()
        if self.jobs < 1:
            raise ConfigError(f"jobs must be at least 1, got {self.jobs!r}")
        if not 2 <= self.n_options <= 5:
            raise ConfigError(f"n_options must be 2 to 5, got {self.n_options!r}")
        for key in ("solver_tol", "service_timeout"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be positive, got {getattr(self, key)!r}")
        object.__setattr__(self, "excluded_labels", tuple(
            label.strip().lower() for label in self.excluded_labels
        ))

    @property
    def synth_path(self) -> Path:
        return Path(self.synth_dir) if self.synth_dir else Path(self.out_dir) / "scenes"

    @property
    def scene_glob(self) -> str:
        return self.scenes or str(self.synth_path / "*.scene.json")

    @property
    def ngt_path(self) -> Path:
        return Path(self.ngt_dir) if self.ngt_dir else Path(self.out_dir) / "ngt"

    @property
    def dataset_path(self) -> Path:
        return Path(self.out_dir) / "dataset.jsonl"

    def echo(self) -> dict:
        row = {}
        for f in sorted(fields(self), key=lambda f: f.name):
            if f.name in _EXECUTION_ONLY_KEYS:
                continue
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            row[f.name] = value
        return row


CONFIG_KEYS = {f.name for f in fields(PipelineConfig)}


def config_from_dict(data: dict, **overrides) -> PipelineConfig:
    """The config of a JSON object, with each override that is not None (a
    command-line flag) put over its key; an unknown key or a value of the
    wrong kind raises :class:`ConfigError` naming the key."""
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    data = {**data, **{key: value for key, value in overrides.items() if value is not None}}
    unknown = sorted(set(data) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {unknown}")
    return PipelineConfig(**data)


def load_config(path: str | Path | None = None, **overrides) -> PipelineConfig:
    """The config read from the JSON file at ``path`` (the defaults without
    one), with ``overrides`` applied as :func:`config_from_dict` does."""
    data = {}
    if path is not None:
        if not Path(path).exists():
            raise ConfigError(f"configuration file not found: {path}")
        try:
            data = read_json(path)
        except SceneQaError as exc:
            raise ConfigError(str(exc)) from exc
    return config_from_dict(data, **overrides)


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


# Wall time charged for each ``spawn`` worker before it repays anything: a
# fresh interpreter that imports numpy and sceneqa.  BENCH_11.json
# ("pool_startup", 2 cores, CPython 3.11.7, numpy 2.4.6) measured a pool that
# maps a no-op over sceneqa.pipeline at a median 0.26 s with one worker and
# 0.37 s with two, and a forced pool on 50 acceptance-sized scenes added
# 0.20-0.23 s per worker over ideal parallel work.  The constant is about
# twice that, so a pool is started only when it should save twice what it
# costs: one that merely breaks even loses on a noisy host.
_WORKER_START_S = 0.5

# Scene time per unit of size, for choosing a pool before any scene has run.
# For extract, with every pair of a scene solved in lockstep, BENCH_22.json
# ("extract_rates", same host) measured 14.3-19.2 ns per scene-file byte on
# 41 x 20,000-point scenes and 17.4-21.1 on 41 x 5,000, and 290-510 on the
# 35 kB acceptance-size scenes, where the 820 pair solves outweigh the
# bytes (legacy text-point files took 40-47 ns per byte, BENCH_11.json).  Synth,
# with the scene file streamed, measured 0.21-0.43 us per point on scenes of
# 0.2-2 million points (BENCH_19.json "synth_rates"; it was 0.51-0.93 while
# the writer built the whole document).  Both constants sit near the low
# end, so the estimate tends to fall below the real time and to err towards
# running serially.
_SYNTH_S_PER_POINT = 0.25e-6
_EXTRACT_S_PER_BYTE = 14e-9


def _map_scenes(fn, cfg: PipelineConfig, items: list, estimate_s: float) -> list:
    """``[fn(cfg, item) for item in items]``, handing the rest to worker
    processes once the time per item says workers would repay their
    start-up.

    ``jobs`` is an upper bound.  The parent runs the items in order and times
    them.  Before each item it takes the time per item (``estimate_s``, from
    sizes known up front, until an item has run; then the measured mean),
    the ``left`` items remaining and ``w = min(jobs, left)``, and hands the
    rest to ``w`` workers only when ``per_item * (left - ceil(left / w))``,
    the time they would save, exceeds ``w * _WORKER_START_S``.  With
    ``jobs=1`` or one item left, ``w = 1`` saves nothing and no pool starts.

    ``fn`` handles one scene from start to finish (its own seed, its own
    output files), so the results and every file written are the same
    either way; they come back in the order of ``items``.
    """
    results = []
    elapsed = 0.0
    for done, item in enumerate(items):
        left = len(items) - done
        workers = min(cfg.jobs, left)
        per_item = elapsed / done if done else estimate_s
        if per_item * (left - math.ceil(left / workers)) > workers * _WORKER_START_S:
            break
        start = time.perf_counter()
        results.append(fn(cfg, item))
        elapsed += time.perf_counter() - start
    else:
        return results
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        return results + list(pool.map(fn, [cfg] * left, items[done:]))


def _synth_spec(cfg: PipelineConfig, scene_id: str) -> SyntheticSpec:
    rng = np.random.default_rng(derive_seed(cfg.seed, f"synth:{scene_id}"))
    return random_indoor_spec(scene_id, rng, n_boxes=cfg.synth_boxes,
                              points_per_box=cfg.synth_points_per_box)


def _synth_scene(cfg: PipelineConfig, scene_id: str) -> Path:
    scene, truth = generate_synthetic_scene(
        _synth_spec(cfg, scene_id), seed=derive_seed(cfg.seed, f"noise:{scene_id}")
    )
    scene_path = cfg.synth_path / f"{scene_id}.scene.json"
    write_scene(scene, scene_path)
    write_truth(scene_id, truth, cfg.synth_path / f"{scene_id}.truth.json")
    return scene_path


def _extract_scene(cfg: PipelineConfig, path: str) -> Path:
    scene = load_scene(path)
    # The id names the output file, so it must be one file-name component.
    if scene.scene_id in (".", "..") or any(c in scene.scene_id for c in "/\\\0"):
        raise SchemaViolationError(f"{path}: scene_id {scene.scene_id!r} is not a file name")
    table = extract_ngt(scene, excluded_labels=frozenset(cfg.excluded_labels),
                        tol=cfg.solver_tol)
    target = cfg.ngt_path / f"{scene.scene_id}.ngt.json"
    write_ngt(table, target)
    return target


def run_synth(cfg: PipelineConfig) -> list[Path]:
    """Write ``synth_scenes`` synthetic scenes (plus their analytic ground
    truth) under the scenes directory; a ``synth_boxes`` or
    ``synth_points_per_box`` outside the limits of :mod:`~sceneqa.scene` is a
    :class:`ConfigError` naming the key, raised before any directory is made."""
    scene_ids = [f"synth{i:04d}" for i in range(cfg.synth_scenes)]
    if scene_ids:
        try:
            spec = _synth_spec(cfg, scene_ids[0])  # raises on the box count alone
        except InvalidSpecError as exc:
            raise ConfigError(f"synth_boxes: {exc}") from None
        try:
            _validate_spec(spec)  # of a random spec, only the point count can fail
        except InvalidSpecError as exc:
            raise ConfigError(f"synth_points_per_box: {exc}") from None
    cfg.synth_path.mkdir(parents=True, exist_ok=True)
    points = cfg.synth_boxes * cfg.synth_points_per_box
    return _map_scenes(_synth_scene, cfg, scene_ids, points * _SYNTH_S_PER_POINT)


def run_extract(cfg: PipelineConfig) -> list[Path]:
    """Extract a ground-truth table for every scene matched by the glob; two
    scene files of one ``scene_id`` (one table) are refused, naming both."""
    scene_paths = sorted(globlib.glob(cfg.scene_glob))
    if not scene_paths:
        raise MalformedFileError(f"no scene files match {cfg.scene_glob!r}")
    cfg.ngt_path.mkdir(parents=True, exist_ok=True)
    # a path that is not a file is named by load_scene (exit 3), not by this estimate
    sizes = [Path(p).stat().st_size for p in scene_paths if Path(p).is_file()]
    mean_bytes = sum(sizes) / len(scene_paths)
    targets = _map_scenes(_extract_scene, cfg, scene_paths, mean_bytes * _EXTRACT_S_PER_BYTE)
    first: dict[Path, str] = {}
    for path, target in zip(scene_paths, targets):
        if first.setdefault(target, path) != path:
            raise SchemaViolationError(
                f"{first[target]} and {path} hold one scene_id; both write {target}")
    return targets


def _load_tables(ngt_dir: Path) -> list[NgtTable]:
    paths = sorted(ngt_dir.glob("*.ngt.json"))
    if not paths:
        raise MalformedFileError(f"no ground-truth tables found in {ngt_dir}")
    return [read_ngt(path) for path in paths]


def _rewrite_client(cfg: PipelineConfig):
    if cfg.stub_llm:
        return EchoStubClient()
    if not cfg.service_endpoint or not cfg.service_model:
        raise ConfigError(
            "rewriting needs service_endpoint and service_model, or stub_llm "
            "for offline runs"
        )
    return HttpServiceClient(
        cfg.service_endpoint, cfg.service_model, timeout=cfg.service_timeout,
        retries=cfg.service_retries, temperature=cfg.service_temperature,
        max_tokens=cfg.service_max_tokens,
    )


def run_generate(cfg: PipelineConfig) -> dict[str, int]:
    """Produce dataset.jsonl plus its balance report, run log, and manifest;
    returns the record count of each task, in task order.

    Before any table is read, the rewrite settings are checked, the client
    built and the rewrite jobs planned from the short answers.  The dataset
    is then written a record at a time, the rule records scene by scene and
    then the rewrite track's, holding only record ids, balance tallies and
    rewrite records.  A shortfall, a duplicate id or a balance breach raises
    inside the writer, so no artifact is committed.
    """
    rewriting = cfg.rewrite_pm or cfg.rewrite_fv
    if rewriting:
        if not cfg.saq_file:
            raise ConfigError("rewriting needs saq_file")
        client = _rewrite_client(cfg)
        jobs = make_jobs(load_saqs(cfg.saq_file), cfg.rewrite_pm, cfg.rewrite_fv,
                         build_schedules(cfg.seed), cfg.n_options)
    tables = _load_tables(cfg.ngt_path)
    log_rows: list[dict] = []

    def rewrite_records():
        track = run_rewrite_track(jobs, client)
        log_rows.extend(track.log_rows)
        yield from track.records

    streams = [iter_rule_dataset(tables, cfg, cfg.seed)]
    if rewriting:
        streams.append(rewrite_records())
    balance = BalanceReport()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_dataset(checked_records(streams, balance, cfg.n_options), cfg.dataset_path)
    write_json(balance.to_dict(), out / "balance_report.json")
    write_jsonl(log_rows, out / "run_log.jsonl")

    task_counts: dict[str, int] = {}
    for key, stratum in sorted(balance.strata.items()):  # keyed "task/category/variant"
        task = key.split("/", 1)[0]
        task_counts[task] = task_counts.get(task, 0) + stratum.total
    manifest = {
        "format_version": FORMAT_VERSION,
        "package_version": __version__,
        "template_bank_version": TEMPLATE_BANK_VERSION,
        "prompt_version": PROMPT_VERSION,
        "seed": cfg.seed,
        "config": cfg.echo(),
        "scenes": [table.scene_id for table in tables],
        "n_records": sum(task_counts.values()),
        "task_counts": task_counts,
        "artifacts": ["dataset.jsonl", "balance_report.json", "run_log.jsonl"],
    }
    write_json(manifest, out / "manifest.json")
    return task_counts


def run_score(dataset_path: str | Path, predictions_path: str | Path,
              out_path: str | Path | None = None,
              ) -> tuple[EvalReport, ConsistencyReport, str]:
    """Score a predictions file against a dataset, read once a line at a
    time into both reports; returns them and an aligned text table,
    optionally writing the combined JSON report.  A record that cannot be
    scored raises :class:`SchemaViolationError` naming file, line and record."""
    predictions = read_predictions(predictions_path)
    report, consistency = EvalReport(), ConsistencyReport()
    for line, record in iter_dataset(dataset_path):
        try:
            report.add(record, predictions.get(record.qa_id))
        except SchemaViolationError as exc:
            raise SchemaViolationError(f"{dataset_path}: line {line}: {exc}") from None
        consistency.add(record, predictions)
    variants = sorted({scores.variant for scores in report.strata.values()})
    tables = [
        f"[variant: {variant}]\n{format_report_table(report, variant=variant)}"
        for variant in variants
    ]
    table_text = "\n\n".join(tables)
    if out_path is not None:
        write_json(
            {"scores": report.to_dict(), "consistency": consistency.to_dict()},
            out_path,
        )
    return report, consistency, table_text


def run_selfcheck(dataset_path: str | Path,
                  ngt_dir: str | Path | None = None,
                  approx_band: float = DEFAULT_APPROX_BAND,
                  n_options: int = 5) -> SelfCheckResult:
    """Audit a dataset in one :func:`~sceneqa.audit.selfcheck` pass; with a
    table directory the stored answers are also re-derived from ground
    truth, using ``approx_band`` (the generating ``approx_band_in``) for
    "approximately equal", and ``selfcheck`` raises the scenes it lacks.
    PM letters are balanced over ``n_options``."""
    tables = None if ngt_dir is None else {
        table.scene_id: table for table in _load_tables(Path(ngt_dir))}
    return selfcheck((record for _, record in iter_dataset(dataset_path)), tables=tables,
                     approx_band=approx_band, n_options=n_options)
