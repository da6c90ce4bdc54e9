"""Spans and counters around the public functions of each ``sceneqa`` layer.

The tracer replaces module attributes (``sceneqa.geometry.hull_distance``,
``sceneqa.pipeline.extract_ngt``, ...) with wrappers that record a span per
call: name, start, end and the span open when the call began.  Every module
of the package that bound the same function object by ``from . import`` gets
the wrapper too, so a call is seen whichever module makes it.  The library
itself is not modified.

Spans live in memory and are written out once, at the end of the run.  Pool
workers are separate processes the tracer cannot see, so a traced run uses
``jobs=1``.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from collections import defaultdict

LAYERS = ("pipeline", "scene", "geometry", "ngt", "rulegen", "rewrite",
          "audit", "evaluate", "util")

# Metric name -> unit, in report order.  BENCHMARK.json lists the same names.
PER_LAYER_UNITS = {
    "pipeline.synth_s": "s", "pipeline.extract_s": "s",
    "pipeline.generate_s": "s", "pipeline.selfcheck_s": "s",
    "pipeline.score_s": "s",
    "scene.synth_s": "s", "scene.write_s": "s", "scene.load_s": "s",
    "scene.points": "count", "scene.bytes": "B",
    "geometry.hull_distance.calls": "count",
    "geometry.hull_distance.self_s": "s",
    "geometry.hull_distance.p50_ms": "ms", "geometry.hull_distance.p99_ms": "ms",
    "geometry.iterations": "count", "geometry.support_bytes": "B",
    "geometry.measure_s": "s",
    "ngt.extract_ngt.self_s": "s", "ngt.extract_ngt.p50_ms": "ms",
    "ngt.pairs": "count", "ngt.skipped_pairs": "count", "ngt.write_s": "s",
    "ngt.read_s": "s", "ngt.read_calls": "count",
    "rulegen.generate_rule_dataset.self_s": "s", "rulegen.gen_fv_numeric_s": "s",
    "rulegen.gen_ni_s": "s", "rulegen.gen_cot_variant_s": "s",
    "rulegen.records": "count", "rulegen.assemble_dataset_s": "s",
    "rulegen.write_dataset_s": "s", "rulegen.read_dataset_s": "s",
    "rulegen.read_dataset.calls": "count",
    "rewrite.run_rewrite_track_s": "s", "rewrite.jobs": "count",
    "rewrite.attempts": "count", "rewrite.client_calls": "count",
    "rewrite.ok_per_attempt": "ratio",
    "audit.selfcheck.self_s": "s", "audit.oracle_responses_s": "s",
    "audit.failures": "count",
    "evaluate.score_records_s.audit": "s", "evaluate.score_records_s.score": "s",
    "evaluate.consistency_report_s.audit": "s",
    "evaluate.consistency_report_s.score": "s",
    "evaluate.read_predictions_s": "s", "evaluate.predictions": "count",
    "util.json_bytes_written": "B", "util.json_bytes_read": "B",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count", "trace.pipeline_s": "s",
    "trace.untraced_pipeline_s": "s", "trace.overhead_s": "s",
}

# Spans that decide which caller an evaluate span is attributed to.
_CALLERS = {"audit.selfcheck": "audit", "pipeline.run_score": "score"}


class Tracer:
    """Span recorder for one run; ``install`` patches, ``uninstall`` restores."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, after=None, span: bool = True):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not span:
                result = fn(*args, **kwargs)
            else:
                index = len(spans)
                spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
                stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spans[index][2] = clock()
                    stack.pop()
            if after is not None:
                after(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _patch(self, owner, attr: str, name: str, after=None, span: bool = True):
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, after, span)
        if isinstance(owner, type):
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for module_name, module in list(sys.modules.items()):
            if module_name != "sceneqa" and not module_name.startswith("sceneqa."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapper)

    def install(self) -> None:
        from sceneqa import (audit, evaluate, geometry, ngt, pipeline, rewrite,
                             rulegen, scene, util)

        for stage in ("synth", "extract", "generate", "selfcheck", "score"):
            self._patch(pipeline, f"run_{stage}", f"pipeline.run_{stage}")
        self._patch(scene, "generate_synthetic_scene", "scene.generate_synthetic_scene")
        self._patch(scene, "write_scene", "scene.write_scene")
        self._patch(scene, "load_scene", "scene.load_scene", _count_scene)
        self._patch(geometry, "hull_distance", "geometry.hull_distance", _count_solve)
        self._patch(geometry, "aabb", "geometry.aabb")
        self._patch(geometry, "centroid", "geometry.centroid")
        self._patch(ngt, "extract_ngt", "ngt.extract_ngt", _count_pairs)
        self._patch(ngt, "write_ngt", "ngt.write_ngt")
        self._patch(ngt, "read_ngt", "ngt.read_ngt")
        for fn in ("generate_rule_dataset", "gen_fv_numeric", "gen_ni",
                   "gen_cot_variant", "assemble_dataset", "write_dataset",
                   "read_dataset"):
            after = _count_records if fn == "generate_rule_dataset" else None
            self._patch(rulegen, fn, f"rulegen.{fn}", after)
        self._patch(rewrite, "run_rewrite_track", "rewrite.run_rewrite_track",
                    _count_rewrite)
        self._patch(rewrite.EchoStubClient, "complete", "rewrite.client_complete",
                    _count_client)
        self._patch(audit, "selfcheck", "audit.selfcheck", _count_audit)
        self._patch(audit, "oracle_responses", "audit.oracle_responses")
        self._patch(evaluate, "score_records", "evaluate.score_records")
        self._patch(evaluate, "consistency_report", "evaluate.consistency_report")
        self._patch(evaluate, "read_predictions", "evaluate.read_predictions",
                    _count_predictions)
        self._patch(util, "write_json", "util.write_json", _count_written)
        self._patch(util, "write_jsonl", "util.write_jsonl", _count_written)
        self._patch(util, "read_json", "util.read_json", _count_read)
        # read_jsonl is a generator: a span would close before any line is
        # read, so it is counted but not timed.
        self._patch(util, "read_jsonl", "util.read_jsonl", _count_read, span=False)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": index, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics (without the ``trace.*`` run comparison)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        durations: dict[str, list[float]] = defaultdict(list)
        by_caller: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        for index, (name, start, end, parent) in enumerate(spans):
            took = end - start
            total[name] += took
            own[name] += took - child_time[index]
            calls[name] += 1
            layer_self[name.split(".", 1)[0]] += took - child_time[index]
            if name in ("geometry.hull_distance", "ngt.extract_ngt"):
                durations[name].append(took)
            if name.startswith("evaluate."):
                by_caller[f"{name}_s.{self._caller(index)}"] += took
        c = self.counts
        attempts = c["rewrite.attempts"]
        solves = durations["geometry.hull_distance"]
        return {
            "pipeline.synth_s": total["pipeline.run_synth"],
            "pipeline.extract_s": total["pipeline.run_extract"],
            "pipeline.generate_s": total["pipeline.run_generate"],
            "pipeline.selfcheck_s": total["pipeline.run_selfcheck"],
            "pipeline.score_s": total["pipeline.run_score"],
            "scene.synth_s": total["scene.generate_synthetic_scene"],
            "scene.write_s": total["scene.write_scene"],
            "scene.load_s": total["scene.load_scene"],
            "scene.points": c["scene.points"],
            "scene.bytes": c["scene.bytes"],
            "geometry.hull_distance.calls": calls["geometry.hull_distance"],
            "geometry.hull_distance.self_s": own["geometry.hull_distance"],
            "geometry.hull_distance.p50_ms": _quantile_ms(solves, 0.50),
            "geometry.hull_distance.p99_ms": _quantile_ms(solves, 0.99),
            "geometry.iterations": c["geometry.iterations"],
            "geometry.support_bytes": c["geometry.support_bytes"],
            "geometry.measure_s": total["geometry.aabb"] + total["geometry.centroid"],
            "ngt.extract_ngt.self_s": own["ngt.extract_ngt"],
            "ngt.extract_ngt.p50_ms": _quantile_ms(durations["ngt.extract_ngt"], 0.50),
            "ngt.pairs": c["ngt.pairs"],
            "ngt.skipped_pairs": c["ngt.skipped_pairs"],
            "ngt.write_s": total["ngt.write_ngt"],
            "ngt.read_s": total["ngt.read_ngt"],
            "ngt.read_calls": calls["ngt.read_ngt"],
            "rulegen.generate_rule_dataset.self_s": own["rulegen.generate_rule_dataset"],
            "rulegen.gen_fv_numeric_s": total["rulegen.gen_fv_numeric"],
            "rulegen.gen_ni_s": total["rulegen.gen_ni"],
            "rulegen.gen_cot_variant_s": total["rulegen.gen_cot_variant"],
            "rulegen.records": c["rulegen.records"],
            "rulegen.assemble_dataset_s": total["rulegen.assemble_dataset"],
            "rulegen.write_dataset_s": total["rulegen.write_dataset"],
            "rulegen.read_dataset_s": total["rulegen.read_dataset"],
            "rulegen.read_dataset.calls": calls["rulegen.read_dataset"],
            "rewrite.run_rewrite_track_s": total["rewrite.run_rewrite_track"],
            "rewrite.jobs": c["rewrite.jobs"],
            "rewrite.attempts": attempts,
            "rewrite.client_calls": c["rewrite.client_calls"],
            "rewrite.ok_per_attempt": c["rewrite.ok"] / attempts if attempts else 0.0,
            "audit.selfcheck.self_s": own["audit.selfcheck"],
            "audit.oracle_responses_s": total["audit.oracle_responses"],
            "audit.failures": c["audit.failures"],
            **{f"evaluate.{fn}_s.{caller}": by_caller[f"evaluate.{fn}_s.{caller}"]
               for fn in ("score_records", "consistency_report")
               for caller in ("audit", "score")},
            "evaluate.read_predictions_s": total["evaluate.read_predictions"],
            "evaluate.predictions": c["evaluate.predictions"],
            "util.json_bytes_written": c["util.json_bytes_written"],
            "util.json_bytes_read": c["util.json_bytes_read"],
            **{f"{layer}.self_s": layer_self[layer] for layer in LAYERS},
            "trace.spans": len(spans),
        }

    def _caller(self, index: int) -> str:
        parent = self.spans[index][3]
        while parent >= 0:
            caller = _CALLERS.get(self.spans[parent][0])
            if caller is not None:
                return caller
            parent = self.spans[parent][3]
        return "other"


def _quantile_ms(values: list[float], q: float) -> float:
    """Nearest-rank quantile in milliseconds; 0.0 when nothing was timed."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] * 1e3


# -- counters, called with (counts, call args, return value) ----------------

def _count_scene(counts, args, scene):
    counts["scene.points"] += sum(len(inst.points) for inst in scene.instances)
    counts["scene.bytes"] += os.path.getsize(args[0])


def _count_solve(counts, args, result):
    counts["geometry.iterations"] += result.iterations
    # Each iteration's support query reads every row of both clouds.
    counts["geometry.support_bytes"] += result.iterations * (len(args[0]) + len(args[1])) * 24


def _count_pairs(counts, args, table):
    counts["ngt.pairs"] += len(table.pairs)
    counts["ngt.skipped_pairs"] += len(table.skipped_pairs)


def _count_records(counts, args, records):
    counts["rulegen.records"] += len(records)


def _count_rewrite(counts, args, track):
    counts["rewrite.jobs"] += len(track.log_rows)
    counts["rewrite.attempts"] += sum(row["attempts"] for row in track.log_rows)
    counts["rewrite.ok"] += sum(1 for row in track.log_rows if row["ok"])


def _count_client(counts, args, text):
    counts["rewrite.client_calls"] += 1


def _count_audit(counts, args, result):
    counts["audit.failures"] += sum(len(f) for f in result.checks.values())


def _count_predictions(counts, args, predictions):
    counts["evaluate.predictions"] += len(predictions)


def _count_written(counts, args, result):
    counts["util.json_bytes_written"] += os.path.getsize(args[1])


def _count_read(counts, args, result):
    counts["util.json_bytes_read"] += os.path.getsize(args[0])
