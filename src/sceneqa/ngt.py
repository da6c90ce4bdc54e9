"""Numeric ground truth (NGT) extraction.

For every retained instance of a scene this computes centroid, axis-aligned
bounding box, box dims and box volume, as a
:class:`~sceneqa.scene.InstanceMeasurement` (the row type synthetic truth
uses too, so both files write the same instance keys); for every unordered
pair of retained instances, the convex-hull distance.  Non-informative labels
(by default "item" and "object") are dropped before anything is measured.

The pair distances of a scene come from one call to
:func:`~sceneqa.geometry.pairwise_hull_distances`, which solves all pairs in
lockstep and hands the few that leave its path back to
:func:`~sceneqa.geometry.hull_distance`; every distance is the one that
function returns for the pair.

Pairs whose distance solve fails to certify are recorded in ``skipped_pairs``
with a reason instead of aborting the scene; question generation never uses
them.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

from . import geometry
from .errors import EmptyAfterFilterError, NotConvergedError, SchemaViolationError
from .scene import (DEFAULT_EXCLUDED_LABELS, InstanceMeasurement, Scene, instance_rows,
                    pair_rows, write_rows)
from .util import finite_number, read_json


def pair_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class NgtTable:
    """All numeric ground truth for one scene.

    The label counts and the unique-label index are built once, from the
    (immutable) ``instances``, when the table is made; question generation
    and the audits look them up once per record.
    """

    scene_id: str
    instances: tuple[InstanceMeasurement, ...]
    pairs: dict[tuple[str, str], float] = field(default_factory=dict)
    skipped_pairs: tuple[tuple[str, str, str], ...] = ()
    _label_counts: dict[str, int] = field(init=False, repr=False, compare=False)
    _unique: dict[str, InstanceMeasurement] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        counts: dict[str, int] = {}
        for inst in self.instances:
            counts[inst.label] = counts.get(inst.label, 0) + 1
        unique = {inst.label: inst for inst in self.instances if counts[inst.label] == 1}
        object.__setattr__(self, "_label_counts", counts)
        object.__setattr__(self, "_unique", unique)

    def label_counts(self) -> Mapping[str, int]:
        """Instances per label, as a read-only view."""
        return MappingProxyType(self._label_counts)

    def unique_label_instances(self) -> Mapping[str, InstanceMeasurement]:
        """Instances whose label appears exactly once (unambiguous referents),
        as a read-only view."""
        return MappingProxyType(self._unique)

    def distance(self, a: str, b: str) -> float:
        return self.pairs[pair_key(a, b)]

    def has_pair(self, a: str, b: str) -> bool:
        return pair_key(a, b) in self.pairs


def _measure_instance(inst) -> InstanceMeasurement:
    box = geometry.aabb(inst.points)
    return InstanceMeasurement(
        instance_id=inst.instance_id,
        label=inst.label,
        centroid=geometry.centroid(inst.points),
        aabb_min=box.min_corner,
        aabb_max=box.max_corner,
        dims=box.extents,
        volume=geometry.aabb_volume(box),
    )


def extract_ngt(
    scene: Scene,
    excluded_labels: Iterable[str] = DEFAULT_EXCLUDED_LABELS,
    tol: float = geometry.DEFAULT_TOL,
) -> NgtTable:
    """Measure one scene into an :class:`NgtTable`.

    Instances are processed in sorted-id order, so the output depends only on
    the scene.  Raises :class:`EmptyAfterFilterError` if label filtering
    removes every instance.
    """
    excluded = {str(lbl).strip().lower() for lbl in excluded_labels}
    retained = sorted(
        (inst for inst in scene.instances if inst.label not in excluded),
        key=lambda inst: inst.instance_id,
    )
    if not retained:
        raise EmptyAfterFilterError(
            f"scene {scene.scene_id!r}: no instances left after excluding labels "
            f"{sorted(excluded)}"
        )

    measured = tuple(_measure_instance(inst) for inst in retained)

    pairs: dict[tuple[str, str], float] = {}
    skipped: list[tuple[str, str, str]] = []
    distances = geometry.pairwise_hull_distances(
        [inst.points for inst in retained], tol=tol)
    for (inst_a, inst_b), distance in zip(itertools.combinations(retained, 2),
                                          distances):
        key = pair_key(inst_a.instance_id, inst_b.instance_id)
        if isinstance(distance, NotConvergedError):
            skipped.append((key[0], key[1], f"not_converged: {distance}"))
        else:
            pairs[key] = distance

    return NgtTable(scene.scene_id, measured, pairs, tuple(skipped))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _require(data: Mapping, key: str, source: str):
    if key not in data:
        raise SchemaViolationError(f"{source}: missing required key {key!r}")
    return data[key]


def _string(row: Mapping, key: str) -> str:
    value = row[key]
    # type(), not isinstance(): sys.intern takes no str subclass
    if type(value) is not str:
        raise ValueError(f"{key!r} must be a string, got {value!r}")
    return value


def _number(row: Mapping, key: str) -> float:
    value = row[key]
    if not finite_number(value):
        raise ValueError(f"{key!r} must be a finite number, got {value!r}")
    return float(value)


def _point(row: Mapping, key: str) -> tuple[float, float, float]:
    value = row[key]
    if (not isinstance(value, (list, tuple)) or len(value) != 3
            or not all(map(finite_number, value))):
        raise ValueError(f"{key!r} must be a list of three finite numbers, got {value!r}")
    return tuple(map(float, value))


def ngt_from_dict(data, source: str = "<dict>") -> NgtTable:
    """One NGT document as a table; a document that breaks the schema raises
    :class:`SchemaViolationError` naming ``source`` and the offending row.

    Ids, labels and skip reasons must be JSON strings, distances and
    volumes finite numbers, and centroids, box corners and dims lists of
    three finite numbers; nothing is coerced.

    Instance ids, labels and the ids in pair rows go through
    :func:`sys.intern`.  A table with n instances keys n(n-1)/2 pairs by
    their ids, so interning makes every pair key reuse the instance's own id
    objects instead of holding two fresh copies per pair, and tables share
    their labels and ids with each other and with the loaded records.  The
    interned values are at most one per instance of the scenes read; the
    scene id and the skip reasons are kept as read.
    """
    if not isinstance(data, dict):
        raise SchemaViolationError(f"{source}: NGT document must be an object")
    scene_id = _require(data, "scene_id", source)
    raw_instances = _require(data, "instances", source)
    raw_pairs = _require(data, "pairs", source)
    raw_skipped = _require(data, "skipped_pairs", source)
    if not isinstance(scene_id, str) or not scene_id:
        raise SchemaViolationError(f"{source}: 'scene_id' must be a non-empty string")
    if not isinstance(raw_instances, list) or not raw_instances:
        raise SchemaViolationError(f"{source}: 'instances' must be a non-empty list")
    if not isinstance(raw_pairs, list) or not isinstance(raw_skipped, list):
        raise SchemaViolationError(f"{source}: 'pairs'/'skipped_pairs' must be lists")

    def rows(name: str, raw: list, parse) -> list:
        parsed = []
        for pos, row in enumerate(raw):
            try:
                parsed.append(parse(row))
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaViolationError(
                    f"{source}: {name}[{pos}] malformed: {exc}") from exc
        return parsed

    instances = rows("instances", raw_instances, lambda row: InstanceMeasurement(
        instance_id=sys.intern(_string(row, "instance_id")),
        label=sys.intern(_string(row, "label")),
        centroid=_point(row, "centroid"),
        aabb_min=_point(row, "aabb_min"),
        aabb_max=_point(row, "aabb_max"),
        dims=_point(row, "dims"),
        volume=_number(row, "volume"),
    ))
    ids = [inst.instance_id for inst in instances]
    if len(set(ids)) != len(ids):
        raise SchemaViolationError(f"{source}: duplicate instance ids")

    pairs = dict(rows("pairs", raw_pairs, lambda row: (
        pair_key(sys.intern(_string(row, "a")), sys.intern(_string(row, "b"))),
        _number(row, "distance"))))
    skipped = rows("skipped_pairs", raw_skipped, lambda row: (
        sys.intern(_string(row, "a")), sys.intern(_string(row, "b")),
        _string(row, "reason")))

    # Every unordered pair of instances exactly once, in one of the lists.
    skipped_keys = {pair_key(a, b) for a, b, _ in skipped}
    if len(pairs) < len(raw_pairs) or len(skipped_keys) < len(skipped):
        raise SchemaViolationError(f"{source}: a pair is listed twice")
    if not skipped_keys.isdisjoint(pairs):
        raise SchemaViolationError(f"{source}: a pair is both measured and skipped")
    recorded, expected = len(pairs) + len(skipped_keys), len(ids) * (len(ids) - 1) // 2
    if recorded != expected:
        raise SchemaViolationError(
            f"{source}: pair coverage mismatch: {recorded} recorded vs "
            f"{expected} expected unordered pairs"
        )
    id_set = set(ids)
    for a, b in itertools.chain(pairs, skipped_keys):
        if a == b or a not in id_set or b not in id_set:
            raise SchemaViolationError(
                f"{source}: pair ({a!r}, {b!r}) is not two distinct instances")

    return NgtTable(scene_id, tuple(instances), pairs, tuple(skipped))


def write_ngt(table: NgtTable, path: str | Path) -> None:
    """Write ``table`` as ``{"scene_id", "instances", "pairs": [{"a", "b",
    "distance"}, ...], "skipped_pairs": [{"a", "b", "reason"}, ...]}``, pairs
    in key order (:func:`~sceneqa.scene.write_rows`)."""
    skipped = (((a, b), reason) for a, b, reason in table.skipped_pairs)
    write_rows(path, table.scene_id, [
        ("scene_id", table.scene_id),
        ("instances", instance_rows(table.instances)),
        ("pairs", pair_rows(sorted(table.pairs.items()))),
        ("skipped_pairs", pair_rows(skipped, "reason")),
    ])


def read_ngt(path: str | Path) -> NgtTable:
    return ngt_from_dict(read_json(path), source=str(path))
