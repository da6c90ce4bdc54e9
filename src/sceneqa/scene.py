"""Scene model: annotated 3D scenes, loaders, and synthetic-scene generation.

A scene is a set of labeled instances, each carrying a point set sampled from
the object's surface or volume.  Scenes arrive three ways:

* native JSON (:func:`load_scene` / :func:`write_scene`), the package's own
  lossless format, points packed as base64 float64 (lists are still read);
* mesh + segmentation + aggregation triplets as shipped by common RGB-D scan
  datasets (:func:`import_scan_triplet`);
* synthetic generation (:func:`generate_synthetic_scene`), which also returns
  exact analytic ground truth so downstream extraction can be audited without
  any numerical slack.

Analytic truth and extracted NGT tables share one instance row,
:class:`InstanceMeasurement`, and one row writer, :func:`write_rows`, so the
two files carry the same keys in the same order and layout.
"""

from __future__ import annotations

import base64
import itertools
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterator

import numpy as np

from .geometry import PointSet
from .errors import (
    InconsistentTripletError,
    InvalidSpecError,
    MalformedFileError,
    SchemaViolationError,
)
from .util import _encode_str, _write_replacing, finite_number, read_json

DEFAULT_EXCLUDED_LABELS = frozenset({"item", "object"})


@dataclass(frozen=True)
class Instance:
    """One annotated object.  Labels are normalized to lowercase at creation."""

    instance_id: str
    label: str
    points: PointSet

    def __post_init__(self):
        if not self.instance_id:
            raise SchemaViolationError("instance_id must be non-empty")
        norm = self.label.strip().lower()
        if not norm:
            raise SchemaViolationError(
                f"instance {self.instance_id!r}: label must be non-empty"
            )
        object.__setattr__(self, "label", norm)


@dataclass(frozen=True)
class Scene:
    scene_id: str
    instances: tuple[Instance, ...]

    def __post_init__(self):
        if not self.scene_id:
            raise SchemaViolationError("scene_id must be non-empty")
        object.__setattr__(self, "instances", tuple(self.instances))
        if not self.instances:
            raise SchemaViolationError(f"scene {self.scene_id!r} has no instances")
        ids = [inst.instance_id for inst in self.instances]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise SchemaViolationError(
                f"scene {self.scene_id!r}: duplicate instance ids {dupes}"
            )


# ---------------------------------------------------------------------------
# Native JSON interchange
# ---------------------------------------------------------------------------


def _all_points_are_xyz(points: list) -> bool:
    """True when every row is a list or tuple of three non-bool numbers.

    Subclasses count (``np.float64`` rows passed through the dict API, say).
    The checks map builtins over the rows and test each distinct coordinate
    type once, so a dense cloud costs a few C-level passes, not a Python loop.
    """
    if not all(map(isinstance, points, itertools.repeat((list, tuple)))):
        return False
    if set(map(len, points)) != {3}:
        return False
    return all(
        issubclass(t, (int, float)) and not issubclass(t, bool)
        for t in set(map(type, itertools.chain.from_iterable(points)))
    )


def _instance_coords(raw: dict) -> np.ndarray:
    """An instance's coordinates from exactly one of ``points_b64`` (base64 of
    row-major ``<f8`` bytes) and legacy ``points`` rows; PointSet checks them."""
    if ("points_b64" in raw) == ("points" in raw):
        raise SchemaViolationError("needs exactly one of 'points' and 'points_b64'")
    if "points_b64" in raw:
        if not isinstance(raw["points_b64"], str):
            raise SchemaViolationError("'points_b64' must be a base64 string")
        try:
            data = base64.b64decode(raw["points_b64"], validate=True)
        except ValueError as exc:
            raise SchemaViolationError(f"'points_b64' is not valid base64: {exc}") from None
        if not data or len(data) % 24:
            raise SchemaViolationError(
                f"'points_b64' holds {len(data)} bytes, not a positive multiple of 24")
        return np.frombuffer(data, "<f8").reshape(-1, 3)
    points = raw["points"]
    if not isinstance(points, list) or not points:
        raise SchemaViolationError("'points' must be a non-empty list")
    if not _all_points_are_xyz(points):
        raise SchemaViolationError("every point must be [x, y, z] numbers")
    # The rows are checked, so one flat pass fills the array.
    flat = np.fromiter(itertools.chain.from_iterable(points), np.float64, 3 * len(points))
    return flat.reshape(-1, 3)


def scene_from_dict(data, source: str = "<dict>") -> Scene:
    """Build a :class:`Scene` from a scene document; every error names ``source``."""
    try:
        return _scene_from_dict(data)
    except SchemaViolationError as exc:
        raise SchemaViolationError(f"{source}: {exc}") from exc


def _scene_from_dict(data) -> Scene:
    if not isinstance(data, dict):
        raise SchemaViolationError("scene document must be an object")
    scene_id = data.get("scene_id")
    if not isinstance(scene_id, str) or not scene_id:
        raise SchemaViolationError("'scene_id' must be a non-empty string")
    raw_instances = data.get("instances")
    if not isinstance(raw_instances, list) or not raw_instances:
        raise SchemaViolationError("'instances' must be a non-empty list")
    instances = []
    for pos, raw in enumerate(raw_instances):
        if not isinstance(raw, dict):
            raise SchemaViolationError(f"instance #{pos} is not an object")
        iid = raw.get("instance_id")
        label = raw.get("label")
        if not isinstance(iid, str) or not iid:
            raise SchemaViolationError(
                f"instance #{pos}: 'instance_id' must be a non-empty string")
        if not isinstance(label, str):
            raise SchemaViolationError(f"instance {iid!r}: 'label' must be a string")
        try:
            points = PointSet(_instance_coords(raw))
        except SchemaViolationError as exc:
            raise SchemaViolationError(f"instance {iid!r}: {exc}") from exc
        instances.append(Instance(iid, label, points))
    return Scene(scene_id, tuple(instances))


def load_scene(path: str | Path) -> Scene:
    """Load a scene from native JSON.  Round-trips :func:`write_scene` bit for bit."""
    return scene_from_dict(read_json(path), source=str(path))


# Coordinates are encoded this many bytes at a time: a whole number of points
# (24 bytes each) and so of base64's 3-byte groups, which makes the slices'
# base64 join into the base64 of the whole instance.
_PACK_SLICE_BYTES = 24 * 4096


def write_scene(scene: Scene, path: str | Path) -> None:
    """Write ``scene`` as native JSON, replacing ``path`` only once complete.

    The document is ``{"scene_id", "instances": [{"instance_id", "label",
    "points_b64"}, ...]}``, where ``points_b64`` is the base64 of the
    instance's row-major ``<f8`` coordinates.  Packed float64 is about a third
    the size of the points as JSON text and needs no per-coordinate
    formatting or parsing.

    The text is exactly ``json.dumps(doc, indent=2, ensure_ascii=False)``
    plus a newline, but it is streamed: one instance at a time, its base64 a
    :data:`_PACK_SLICE_BYTES` slice at a time.  So beyond the scene itself
    the writer holds one slice's encodings, not the whole document.
    """
    def write(fh) -> None:
        fh.write(f'{{\n  "scene_id": {_encode_str(scene.scene_id)},\n  "instances": [')
        separator = "\n"
        for inst in scene.instances:
            fh.write(f'{separator}    {{\n'
                     f'      "instance_id": {_encode_str(inst.instance_id)},\n'
                     f'      "label": {_encode_str(inst.label)},\n'
                     f'      "points_b64": "')
            packed = memoryview(np.ascontiguousarray(inst.points.coords, "<f8")).cast("B")
            for start in range(0, len(packed), _PACK_SLICE_BYTES):
                fh.write(base64.b64encode(packed[start:start + _PACK_SLICE_BYTES]).decode("ascii"))
            fh.write('"\n    }')
            separator = ",\n"
        fh.write("\n  ]\n}\n")

    _write_replacing(path, write)


# ---------------------------------------------------------------------------
# Scan-dataset triplet import (PLY mesh + segmentation + aggregation)
# ---------------------------------------------------------------------------

_PLY_NUMPY_TYPES = {
    "char": "i1", "int8": "i1", "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2", "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4", "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}


def read_ply_vertices(path: str | Path) -> np.ndarray:
    """Read the x/y/z vertex coordinates from an ascii or binary-LE PLY file.

    Only the vertex element is consumed; faces and extra vertex properties
    (color, normals, alpha...) are skipped.  The vertex element must be the
    first element in the file, which holds for the scan exports this targets.
    """
    raw = Path(path).read_bytes()
    end = raw.find(b"end_header\n")
    if not raw.startswith(b"ply") or end < 0:
        raise MalformedFileError(f"{path}: not a PLY file (missing header)")
    header_lines = raw[:end].decode("ascii", errors="replace").splitlines()
    data_start = end + len(b"end_header\n")

    fmt = None
    elements: list[tuple[str, int]] = []
    properties: dict[str, list[tuple[str, str]]] = {}
    current = None
    for line in header_lines[1:]:
        parts = line.split()
        if not parts or parts[0] == "comment":
            continue
        try:
            if parts[0] == "format":
                fmt = parts[1]
            elif parts[0] == "element":
                current, count = parts[1], int(parts[2])
                if count < 0:
                    raise ValueError
                elements.append((current, count))
                properties[current] = []
            elif parts[0] == "property" and current is not None:
                if parts[1] == "list":
                    properties[current].append(("list", f"{parts[2]}:{parts[3]}:{parts[4]}"))
                else:
                    properties[current].append((parts[2], _PLY_NUMPY_TYPES[parts[1]]))
        except (IndexError, KeyError, ValueError):
            raise MalformedFileError(f"{path}: bad PLY header line {line!r}") from None

    if fmt not in ("ascii", "binary_little_endian"):
        raise MalformedFileError(f"{path}: unsupported PLY format {fmt!r}")
    if not elements or elements[0][0] != "vertex":
        raise MalformedFileError(f"{path}: vertex element must come first")
    n_vertices = elements[0][1]
    vertex_props = properties["vertex"]
    prop_names = [name for name, _ in vertex_props]
    if any(name == "list" for name in prop_names):
        raise MalformedFileError(f"{path}: list property inside vertex element")
    for axis in ("x", "y", "z"):
        if axis not in prop_names:
            raise MalformedFileError(f"{path}: vertex element lacks property {axis!r}")

    if fmt == "ascii":
        # The vertex rows are the first n_vertices lines that are not blank.
        lines = raw[data_start:].decode("ascii", errors="replace").split("\n")
        rows = list(itertools.islice(filter(str.strip, lines), n_vertices))
        if len(rows) < n_vertices:
            raise MalformedFileError(f"{path}: truncated vertex data")
        if not rows:
            return np.empty((0, 3))
        try:
            return np.loadtxt(rows, usecols=[prop_names.index(a) for a in "xyz"],
                              comments=None, ndmin=2)
        except ValueError as exc:
            raise MalformedFileError(f"{path}: bad vertex row: {exc}") from exc

    dtype = np.dtype(
        [(name, "<" + typ) for name, typ in vertex_props]
    )
    needed = n_vertices * dtype.itemsize
    if len(raw) - data_start < needed:
        raise MalformedFileError(f"{path}: truncated vertex data")
    table = np.frombuffer(raw, dtype=dtype, count=n_vertices, offset=data_start)
    return np.stack(
        [table["x"], table["y"], table["z"]], axis=1
    ).astype(np.float64)


def import_scan_triplet(
    mesh_path: str | Path,
    aggregation_path: str | Path,
    segmentation_path: str | Path,
    scene_id: str | None = None,
) -> Scene:
    """Assemble a :class:`Scene` from a mesh / aggregation / segmentation triplet.

    The segmentation file maps every vertex to an over-segment id; the
    aggregation file groups segment ids into labeled object instances.  Any
    disagreement between the three files (vertex-count mismatch, unknown or
    doubly-claimed segment ids, duplicate object ids, instances left with no
    vertices) raises :class:`InconsistentTripletError`.
    """
    vertices = read_ply_vertices(mesh_path)

    seg_doc = read_json(segmentation_path)
    if not isinstance(seg_doc, dict) or not isinstance(seg_doc.get("segIndices"), list):
        raise SchemaViolationError(
            f"{segmentation_path}: expected an object with a 'segIndices' list"
        )
    seg_indices = np.asarray(seg_doc["segIndices"])
    if seg_indices.shape != (vertices.shape[0],):
        raise InconsistentTripletError(
            f"{segmentation_path}: {seg_indices.shape[0]} segment entries for "
            f"{vertices.shape[0]} mesh vertices"
        )

    agg_doc = read_json(aggregation_path)
    if not isinstance(agg_doc, dict) or not isinstance(agg_doc.get("segGroups"), list):
        raise SchemaViolationError(
            f"{aggregation_path}: expected an object with a 'segGroups' list"
        )

    known_segments: dict[int, np.ndarray] = {}
    uniq, inverse = np.unique(seg_indices, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    bounds = np.searchsorted(inverse[order], np.arange(len(uniq) + 1))
    for k, seg_id in enumerate(uniq):
        known_segments[int(seg_id)] = order[bounds[k]:bounds[k + 1]]

    instances = []
    seen_object_ids: set[int] = set()
    claimed: set[int] = set()
    for pos, group in enumerate(agg_doc["segGroups"]):
        if not isinstance(group, dict):
            raise SchemaViolationError(
                f"{aggregation_path}: segGroups[{pos}] is not an object"
            )
        try:
            object_id = int(group["objectId"])
            label = str(group["label"])
            segments = [int(s) for s in group["segments"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaViolationError(
                f"{aggregation_path}: segGroups[{pos}] missing objectId/label/segments"
            ) from exc
        if object_id in seen_object_ids:
            raise InconsistentTripletError(
                f"{aggregation_path}: duplicate objectId {object_id}"
            )
        seen_object_ids.add(object_id)
        vertex_blocks = []
        for seg in segments:
            if seg not in known_segments:
                raise InconsistentTripletError(
                    f"{aggregation_path}: objectId {object_id} references segment "
                    f"{seg} absent from {segmentation_path}"
                )
            if seg in claimed:
                raise InconsistentTripletError(
                    f"{aggregation_path}: segment {seg} claimed by more than one object"
                )
            claimed.add(seg)
            vertex_blocks.append(known_segments[seg])
        if not vertex_blocks:
            raise InconsistentTripletError(
                f"{aggregation_path}: objectId {object_id} has no segments"
            )
        idx = np.sort(np.concatenate(vertex_blocks))
        instances.append(Instance(str(object_id), label, PointSet(vertices[idx])))

    if scene_id is None:
        scene_id = Path(mesh_path).stem
    return Scene(scene_id, tuple(instances))


# ---------------------------------------------------------------------------
# Synthetic scenes with exact analytic truth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoxSpec:
    """Axis-aligned box: points are its 8 corners plus mirrored interior pairs."""

    label: str
    center: tuple[float, float, float]
    dims: tuple[float, float, float]
    n_points: int = 24


@dataclass(frozen=True)
class SyntheticSpec:
    scene_id: str
    boxes: tuple[BoxSpec, ...] = ()


@dataclass(frozen=True)
class InstanceMeasurement:
    """One instance's centroid, axis-aligned box and box volume: the row
    type of both analytic truth and extracted NGT tables, written in field
    order by :func:`instance_rows`."""

    instance_id: str
    label: str
    centroid: tuple[float, float, float]
    aabb_min: tuple[float, float, float]
    aabb_max: tuple[float, float, float]
    dims: tuple[float, float, float]
    volume: float


@dataclass(frozen=True)
class AnalyticTruth:
    """Exact per-instance boxes plus closed-form box-to-box hull gaps."""

    instances: dict[str, InstanceMeasurement] = field(default_factory=dict)
    box_gaps: dict[tuple[str, str], float] = field(default_factory=dict)


def _validate_spec(spec: SyntheticSpec) -> None:
    if not spec.scene_id:
        raise InvalidSpecError("scene_id must be non-empty")
    if not spec.boxes:
        raise InvalidSpecError(f"{spec.scene_id}: spec contains no boxes")
    for box in spec.boxes:
        if any(d <= 0 for d in box.dims):
            raise InvalidSpecError(f"{spec.scene_id}: box dims must be positive")
        if box.n_points < 8:
            raise InvalidSpecError(
                f"{spec.scene_id}: a box needs n_points >= 8 for its corners"
            )
        if not box.label.strip():
            raise InvalidSpecError(f"{spec.scene_id}: empty box label")


def _box_points(rng: np.random.Generator, n_points: int, center: np.ndarray,
                lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    corners = np.array(
        list(itertools.product(*zip(lo, hi))), dtype=np.float64
    )
    rest = n_points - 8
    pairs = rest // 2
    blocks = [corners]
    if pairs:
        # Each sample is followed by its reflection through the center.  The
        # reflections are clipped back into [lo, hi] so the sampled AABB can
        # never exceed the declared one by a final rounding ulp.
        samples = rng.uniform(lo, hi, size=(pairs, 3))
        mirrored = np.empty((2 * pairs, 3), dtype=np.float64)
        mirrored[0::2] = samples
        mirrored[1::2] = np.clip(2.0 * center - samples, lo, hi)
        blocks.append(mirrored)
    if rest % 2:
        blocks.append(center[None, :])
    return np.concatenate(blocks, axis=0)


def generate_synthetic_scene(
    spec: SyntheticSpec, seed: int
) -> tuple[Scene, AnalyticTruth]:
    """Sample a scene from ``spec`` deterministically.

    Draw order is fixed: boxes in spec order, one block of random draws per
    box, and the k-th box gets instance id ``o{k:03d}``.  Construction
    guarantees, exactly in floating point: the sampled AABB of every box
    equals its declared AABB, and (to symmetric-rounding noise ~1e-16) the
    sample centroid sits on the declared center.  ``AnalyticTruth.box_gaps``
    holds the closed-form hull distance of every box pair, keyed by sorted
    id pair in ``itertools.combinations`` order and computed for all pairs
    at once from the declared corners.
    """
    _validate_spec(spec)
    rng = np.random.default_rng(seed)
    centers = np.array([box.center for box in spec.boxes], dtype=np.float64)
    half = np.array([box.dims for box in spec.boxes], dtype=np.float64) / 2.0
    lows, highs = centers - half, centers + half
    ids = [f"o{k:03d}" for k in range(len(spec.boxes))]
    instances: list[Instance] = []
    truth_instances: dict[str, InstanceMeasurement] = {}

    for k, box in enumerate(spec.boxes):
        inst = Instance(ids[k], box.label, PointSet(
            _box_points(rng, box.n_points, centers[k], lows[k], highs[k])))
        lo, hi = tuple(lows[k].tolist()), tuple(highs[k].tolist())
        # from the declared box, not from the points, so that truth does not
        # call the geometry it checks; the same bytes, as the points span it
        dims = (hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2])
        instances.append(inst)
        truth_instances[inst.instance_id] = InstanceMeasurement(
            inst.instance_id, inst.label, tuple(centers[k].tolist()), lo, hi,
            dims, dims[0] * dims[1] * dims[2],
        )

    # One array expression; each gap takes the IEEE steps of the scalar
    # sqrt(max(0, lo1 - hi2, lo2 - hi1) ** 2 summed in axis order), so it has
    # that form's bits (a zero gap's sign is lost in the square).
    i, j = np.triu_indices(len(ids), 1)
    g = np.maximum(0.0, np.maximum(lows[i] - highs[j], lows[j] - highs[i]))
    g = g * g
    gaps = np.sqrt((g[:, 0] + g[:, 1]) + g[:, 2]).tolist()
    keys = ((a, b) if a <= b else (b, a) for a, b in itertools.combinations(ids, 2))
    truth = AnalyticTruth(truth_instances, dict(zip(keys, gaps)))
    return Scene(spec.scene_id, tuple(instances)), truth


# ---------------------------------------------------------------------------
# Randomized indoor-style specs (used by the dataset synthesizer)
# ---------------------------------------------------------------------------

_LABEL_BANK = (
    "chair", "table", "sofa", "bed", "lamp", "desk", "cabinet", "stool",
    "shelf", "monitor", "pillow", "curtain", "mirror", "sink", "refrigerator",
    "microwave", "toaster", "guitar", "backpack", "bookshelf", "nightstand",
    "dresser", "armchair", "ottoman", "wardrobe", "bench", "piano", "plant",
    "television", "radiator", "printer", "whiteboard", "trash can",
    "coffee table", "kitchen counter", "tissue box", "door", "window",
)

# (label multiplicity profile) duplicated labels give the quantity questions
# both clearly-different and equal counts to draw from.
_DUP_COUNTS = (2, 2, 3, 5)


def random_indoor_spec(
    scene_id: str,
    rng: np.random.Generator,
    n_boxes: int = 41,
    points_per_box: int = 24,
) -> SyntheticSpec:
    """Build a random room-like spec: disjoint boxes on a jittered grid.

    Boxes are placed one per grid cell (cell pitch 2 m, dims <= 1.3 m), so all
    hull gaps are strictly positive and comfortably above display resolution.
    One box carries the non-informative label "object" to exercise label
    filtering downstream.
    """
    if n_boxes < sum(_DUP_COUNTS) + 2:
        raise InvalidSpecError(
            f"{scene_id}: need at least {sum(_DUP_COUNTS) + 2} boxes"
        )
    labels: list[str] = []
    bank = list(_LABEL_BANK)
    perm = rng.permutation(len(bank))
    bank = [bank[i] for i in perm]
    for k, count in enumerate(_DUP_COUNTS):
        labels.extend([bank[k]] * count)
    n_unique = n_boxes - len(labels) - 1
    if n_unique > len(bank) - len(_DUP_COUNTS):
        raise InvalidSpecError(f"{scene_id}: label bank too small for {n_boxes} boxes")
    labels.extend(bank[len(_DUP_COUNTS):len(_DUP_COUNTS) + n_unique])
    labels.append("object")

    side = int(np.ceil(np.sqrt(n_boxes)))
    cells = [(i, j) for i in range(side) for j in range(side)]
    order = rng.permutation(len(cells))
    boxes = []
    for k, label in enumerate(labels):
        ci, cj = cells[order[k]]
        dims = rng.uniform(0.4, 1.3, size=3)
        jitter = rng.uniform(-0.2, 0.2, size=2)
        cx = 2.0 * ci + 1.0 + jitter[0]
        cy = 2.0 * cj + 1.0 + jitter[1]
        cz = dims[2] / 2.0
        boxes.append(
            BoxSpec(
                label=label,
                center=(float(cx), float(cy), float(cz)),
                dims=(float(dims[0]), float(dims[1]), float(dims[2])),
                n_points=points_per_box,
            )
        )
    return SyntheticSpec(scene_id=scene_id, boxes=tuple(boxes))


# ---------------------------------------------------------------------------
# Ground-truth documents: NGT tables and synthetic truth
# ---------------------------------------------------------------------------


def _number(value) -> str:
    """``value`` as ``json.dumps`` writes it; ValueError if the readers refuse it."""
    if finite_number(value):
        return repr(value)  # the type is exactly float or int
    raise ValueError(f"{value!r} is not a finite number")


# An InstanceMeasurement as ``json.dumps(indent=2)`` lays out an item of a
# top-level list, a %s per string or number, built from the fields in order.
_INSTANCE_LAYOUT = tuple((f.name, f.type) for f in fields(InstanceMeasurement))
_INSTANCE_ROW = "{\n      %s\n    }" % ",\n      ".join(
    f'"{name}": ' + ("[\n        %s,\n        %s,\n        %s\n      ]"
                     if kind.startswith("tuple") else "%s")
    for name, kind in _INSTANCE_LAYOUT)


def instance_rows(instances) -> Iterator[str]:
    """The row text of each :class:`InstanceMeasurement`."""
    for inst in instances:
        cells = []
        for name, kind in _INSTANCE_LAYOUT:
            value = getattr(inst, name)
            if kind == "str":
                cells.append(_encode_str(value))
            elif kind == "float":
                cells.append(_number(value))
            elif len(value) == 3:
                cells.extend(map(_number, value))
            else:
                raise ValueError(f"{name!r} must be three numbers, got {value!r}")
        yield _INSTANCE_ROW % tuple(cells)


def pair_rows(items, key: str = "distance") -> Iterator[str]:
    """The ``{"a", "b", key}`` row text of each ``((a, b), value)``."""
    row = '{\n      "a": %%s,\n      "b": %%s,\n      "%s": %%s\n    }' % key
    value_text = _encode_str if key == "reason" else _number
    for (a, b), value in items:
        yield row % (_encode_str(a), _encode_str(b), value_text(value))


def write_rows(path: str | Path, scene_id: str, members) -> None:
    """Write the object of ``members``, ``(key, string or row texts)`` in
    order, a row at a time through a temporary file: exactly ``json.dumps(
    doc, indent=2, ensure_ascii=False)`` and a newline.  A value the table
    readers refuse raises :class:`SchemaViolationError` naming ``path``,
    ``scene_id`` and the row, and leaves ``path`` as it was."""
    def write(fh) -> None:
        separator = "{"
        for key, value in members:
            fh.write(f'{separator}\n  "{key}": ')
            separator = ","
            if isinstance(value, str):
                fh.write(_encode_str(value))
                continue
            pos = 0
            try:
                for row in value:
                    fh.write((",\n    " if pos else "[\n    ") + row)
                    pos += 1
            except (TypeError, ValueError) as exc:
                raise SchemaViolationError(
                    f"{path}: scene {scene_id!r}: {key}[{pos}]: {exc}") from exc
            fh.write("\n  ]" if pos else "[]")
        fh.write("\n}\n")

    _write_replacing(path, write)


def write_truth(scene_id: str, truth: AnalyticTruth, path: str | Path) -> None:
    """Write ``truth`` as ``{"instances", "box_gaps"}``, gaps in key order."""
    write_rows(path, scene_id, [
        ("instances", instance_rows(truth.instances.values())),
        ("box_gaps", pair_rows(sorted(truth.box_gaps.items()))),
    ])
