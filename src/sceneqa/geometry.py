"""Convex geometry kernel: AABBs, centroids, and hull-to-hull distance.

Hull distance comes in two independent implementations:

* :func:`hull_distance` — a support-function minimization in the Minkowski
  difference (GJK-style).  It never builds an explicit hull mesh; each step
  queries one support point and re-solves a <=4-point min-norm subproblem in
  closed form.  Termination is certified by the sandwich bound
  ``||v|| - <v, w>/||v|| <= eps``: the current iterate is an upper bound and
  the support plane gives a lower bound, so a returned distance is always
  within tolerance of the true value.
* :func:`hull_distance_oracle` — Wolfe's minimum-norm-point algorithm on the
  explicit Minkowski difference, stopped by the same style of support-plane
  certificate.  It shares no code with the GJK path and exists so the two
  can cross-check each other.

Both treat a point set's convex hull implicitly; intersecting hulls yield a
distance of exactly 0.0.

:func:`pairwise_hull_distances` runs :func:`hull_distance` on every pair of
a scene's point sets in lockstep: one iteration of all pairs per step, in
numpy, with the same float operations in the same order, and one support
product per point set per step.  A pair retires when it certifies.  A pair
whose next step would leave that path (the iteration cap, a repeated support
vertex, the exact re-solve after no descent, a simplex of 4 points) is
handed back to :func:`hull_distance` and solved again from scratch, so
every result, distance or error, is that function's.

A :class:`PointSet` is the one checked form of a point cloud.  Every function
here takes one, or turns any other input into one first, so a bad raw array
raises the same :class:`SchemaViolationError` with the same text as a bad
cloud in a scene file.  A point set keeps its per-axis bounds, so an instance
measured once and solved against 40 others reduces its coordinates once, not
once per pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import NotConvergedError, SchemaViolationError

DEFAULT_TOL = 1e-9


class PointSet:
    """An immutable (n, 3) block of finite float64 coordinates, n >= 1.

    This is the one checked form of a point cloud: the functions below take
    its coordinates as they are and build one from an input of any other
    type.  Its per-axis minimum and maximum are computed once, here, and kept
    read-only beside the coordinates, so :func:`aabb` and every
    :func:`hull_distance` solve that the cloud takes part in read them
    instead of reducing the array again.
    """

    __slots__ = ("_coords", "_lo", "_hi")

    def __init__(self, coords):
        arr = np.array(coords, dtype=np.float64, order="C")
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise SchemaViolationError(
                f"point set must have shape (n, 3), got {arr.shape}")
        if arr.shape[0] < 1:
            raise SchemaViolationError("point set must contain at least one point")
        if not np.all(np.isfinite(arr)):
            raise SchemaViolationError("point set contains non-finite coordinates")
        lo, hi = arr.min(axis=0), arr.max(axis=0)
        for block in (arr, lo, hi):
            block.setflags(write=False)
        self._coords, self._lo, self._hi = arr, lo, hi

    def __reduce__(self):
        # Rebuilt through __init__, so an unpickled set is checked again and
        # its arrays are read-only (pickle would hand back writable copies).
        return (PointSet, (self._coords,))

    @property
    def coords(self) -> np.ndarray:
        return self._coords

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """``(coords.min(axis=0), coords.max(axis=0))``, both read-only."""
        return self._lo, self._hi

    def __len__(self) -> int:
        return self._coords.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return np.array_equal(self._coords, other._coords)

    def __hash__(self):  # pragma: no cover - mutability guard only
        return hash((self._coords.shape[0], self._coords.tobytes()))

    def __repr__(self) -> str:
        return f"PointSet(n={len(self)})"


def _point_set(points) -> PointSet:
    return points if isinstance(points, PointSet) else PointSet(points)


# ---------------------------------------------------------------------------
# Axis-aligned bounding boxes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Aabb:
    min_corner: tuple[float, float, float]
    max_corner: tuple[float, float, float]

    @property
    def extents(self) -> tuple[float, float, float]:
        return (
            self.max_corner[0] - self.min_corner[0],
            self.max_corner[1] - self.min_corner[1],
            self.max_corner[2] - self.min_corner[2],
        )


def aabb(points) -> Aabb:
    lo, hi = _point_set(points).bounds
    return Aabb(tuple(lo.tolist()), tuple(hi.tolist()))


def aabb_volume(box: Aabb) -> float:
    ex, ey, ez = box.extents
    return ex * ey * ez


def centroid(points) -> tuple[float, float, float]:
    c = _point_set(points).coords.mean(axis=0)
    return (float(c[0]), float(c[1]), float(c[2]))


# ---------------------------------------------------------------------------
# GJK-style hull distance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HullDistanceResult:
    """Certified hull distance with witness points on each hull.

    ``coeffs_a`` / ``coeffs_b`` give the convex weights over input-point
    indices that realize the witnesses, so callers can audit that each witness
    truly lies in its hull.
    """

    distance: float
    witness_a: tuple[float, float, float]
    witness_b: tuple[float, float, float]
    iterations: int
    coeffs_a: dict[int, float]
    coeffs_b: dict[int, float]


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _combo(ws, idxs, lam):
    x = y = z = 0.0
    for i, l in zip(idxs, lam):
        w = ws[i]
        x += l * w[0]
        y += l * w[1]
        z += l * w[2]
    return (x, y, z)


# Subsets that contain the most recently added point, sizes ascending.  After
# a support point is appended at index n-1, the improved min-norm point (if
# any) must use it; older subsets were already covered by the previous iterate.
_SUBSETS_WITH_LAST = {
    1: ((0,),),
    2: ((1,), (0, 1)),
    3: ((2,), (0, 2), (1, 2), (0, 1, 2)),
    4: ((3,), (0, 3), (1, 3), (2, 3), (0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 2, 3)),
}

_LAMBDA_FEASIBLE = -1e-12


def _solve_subset(ws, idxs):
    """Min-norm point of the affine hull of ``ws[idxs]``; None if infeasible.

    Returns (lam, v, n2) with lam clamped to the simplex, so v is always a
    true convex combination (a valid upper-bound witness) even when the
    unconstrained affine solve was slightly outside.
    """
    k = len(idxs)
    if k == 1:
        w = ws[idxs[0]]
        return (1.0,), w, _dot(w, w)
    if k == 2:
        y1, y2 = ws[idxs[0]], ws[idxs[1]]
        d = (y1[0] - y2[0], y1[1] - y2[1], y1[2] - y2[2])
        den = _dot(d, d)
        if den <= 0.0:
            return None
        t = _dot(y1, d) / den
        lam = (1.0 - t, t)
    elif k == 3:
        y1, y2, y3 = (ws[i] for i in idxs)
        u = (y2[0] - y1[0], y2[1] - y1[1], y2[2] - y1[2])
        w3 = (y3[0] - y1[0], y3[1] - y1[1], y3[2] - y1[2])
        g11, g12, g22 = _dot(u, u), _dot(u, w3), _dot(w3, w3)
        det = g11 * g22 - g12 * g12
        if det <= 0.0:
            return None
        b1, b2 = -_dot(y1, u), -_dot(y1, w3)
        s = (b1 * g22 - b2 * g12) / det
        t = (g11 * b2 - g12 * b1) / det
        lam = (1.0 - s - t, s, t)
    else:
        y1, y2, y3, y4 = (ws[i] for i in idxs)
        u = (y2[0] - y1[0], y2[1] - y1[1], y2[2] - y1[2])
        w3 = (y3[0] - y1[0], y3[1] - y1[1], y3[2] - y1[2])
        x = (y4[0] - y1[0], y4[1] - y1[1], y4[2] - y1[2])
        # Cramer on [u w3 x] z = -y1 via scalar triple products.
        cx = (w3[1] * x[2] - w3[2] * x[1],
              w3[2] * x[0] - w3[0] * x[2],
              w3[0] * x[1] - w3[1] * x[0])
        det = _dot(u, cx)
        if det == 0.0:
            return None
        m = (-y1[0], -y1[1], -y1[2])
        s = _dot(m, cx) / det
        cx2 = (m[1] * x[2] - m[2] * x[1],
               m[2] * x[0] - m[0] * x[2],
               m[0] * x[1] - m[1] * x[0])
        t = _dot(u, cx2) / det
        cx3 = (w3[1] * m[2] - w3[2] * m[1],
               w3[2] * m[0] - w3[0] * m[2],
               w3[0] * m[1] - w3[1] * m[0])
        r = _dot(u, cx3) / det
        lam = (1.0 - s - t - r, s, t, r)

    if any(l < _LAMBDA_FEASIBLE for l in lam):
        return None
    total = 0.0
    clamped = []
    for l in lam:
        l = l if l > 0.0 else 0.0
        clamped.append(l)
        total += l
    if total <= 0.0:
        return None
    lam = tuple(l / total for l in clamped)
    v = _combo(ws, idxs, lam)
    return lam, v, _dot(v, v)


def _exact_affine_weights(ys):
    """Weights of the min-norm point of the affine hull of the exact points
    ``ys``, or None if they are affinely dependent."""
    y0 = ys[0]
    ds = [[y[c] - y0[c] for c in range(3)] for y in ys[1:]]
    k = len(ds)
    # Normal equations (D D^T) mu = -D y0, by Gauss-Jordan elimination.
    rows = [[_dot(di, dj) for dj in ds] + [-_dot(di, y0)] for di in ds]
    for col in range(k):
        pivot = next((r for r in range(col, k) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(k):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    mu = [rows[i][k] / rows[i][i] for i in range(k)]
    return [1 - sum(mu), *mu]


def _exact_min_norm(ws):
    """Min-norm point of the hull of ``ws`` (at most 4 points), solved in
    rational arithmetic over every subset and rounded once at the end.

    Returns ``(idxs, lam, n2, v)`` like the float path.  It runs only when
    that path stops making progress, so its cost does not matter.
    :func:`_solve_subset` is not reused because its float constants and
    clamping would round the rational values.
    """
    from fractions import Fraction

    pts = [[Fraction(c) for c in w] for w in ws]
    best = None
    for m in range(1, len(pts) + 1):
        for idxs in _SUBSETS_WITH_LAST[m]:
            lam = _exact_affine_weights([pts[i] for i in idxs])
            if lam is None or min(lam) < 0:
                continue
            v = [sum(l * pts[i][c] for l, i in zip(lam, idxs)) for c in range(3)]
            n2 = _dot(v, v)
            if best is None or n2 < best[0]:
                best = (n2, idxs, lam, v)
    _, idxs, lam, v = best
    v = (float(v[0]), float(v[1]), float(v[2]))
    return idxs, tuple(float(l) for l in lam), _dot(v, v), v


def _iteration_cap(na, nb, max_iterations):
    """The iteration cap of a pair of sets of ``na`` and ``nb`` points
    (numbers or arrays of them)."""
    return max_iterations if max_iterations is not None else 10 * (na + nb) + 100


def hull_distance(a, b, tol: float = DEFAULT_TOL,
                  max_iterations: int | None = None) -> HullDistanceResult:
    """Distance between the convex hulls of two point sets.

    ``tol`` is relative to the bounding diagonal of the union of both sets.
    Raises :class:`NotConvergedError` if the iteration cap (default
    ``10 * (len(a) + len(b)) + 100``) is hit before the sandwich bound closes;
    intersecting hulls return distance 0.0.

    Either input may be a :class:`PointSet` or anything that builds one; an
    input that is not an (n, 3) block of finite numbers raises
    :class:`SchemaViolationError`.  The bounding diagonal comes from each
    set's stored per-axis bounds, so a solve over two point sets reduces
    neither array.  Only the rows the solver touches (the first pair, each
    support pair and the final simplex) are converted to Python floats, so
    the per-call Python work does not grow with the number of points.
    """
    a, b = _point_set(a), _point_set(b)
    arr_a, (lo_a, hi_a) = a.coords, a.bounds
    arr_b, (lo_b, hi_b) = b.coords, b.bounds
    na, nb = arr_a.shape[0], arr_b.shape[0]

    # sqrt of the dot product is what np.linalg.norm computes for a vector,
    # bit for bit, without its dispatch.
    span = np.maximum(hi_a, hi_b) - np.minimum(lo_a, lo_b)
    diag = sqrt(float(span.dot(span)))
    eps = tol * diag if diag > 0.0 else tol
    cap = _iteration_cap(na, nb, max_iterations)

    pa, pb = arr_a[0].tolist(), arr_b[0].tolist()
    w0 = (pa[0] - pb[0], pa[1] - pb[1], pa[2] - pb[2])
    simplex_w = [w0]
    simplex_ij = [(0, 0)]
    lam = (1.0,)
    v = w0
    n2 = _dot(v, v)
    best_lb = 0.0

    def _result(distance: float, iterations: int) -> HullDistanceResult:
        coeffs_a: dict[int, float] = {}
        coeffs_b: dict[int, float] = {}
        wa = [0.0, 0.0, 0.0]
        wb = [0.0, 0.0, 0.0]
        for (ia, ib), l in zip(simplex_ij, lam):
            if l == 0.0:
                continue
            coeffs_a[ia] = coeffs_a.get(ia, 0.0) + l
            coeffs_b[ib] = coeffs_b.get(ib, 0.0) + l
            pa, pb = arr_a[ia].tolist(), arr_b[ib].tolist()
            for c in range(3):
                wa[c] += l * pa[c]
                wb[c] += l * pb[c]
        return HullDistanceResult(
            distance=distance,
            witness_a=(wa[0], wa[1], wa[2]),
            witness_b=(wb[0], wb[1], wb[2]),
            iterations=iterations,
            coeffs_a=coeffs_a,
            coeffs_b=coeffs_b,
        )

    gap = float("inf")
    for iteration in range(1, cap + 1):
        vn = sqrt(n2)
        if vn <= eps:
            return _result(0.0, iteration)

        ia = int(arr_a.dot(v).argmin())
        ib = int(arr_b.dot(v).argmax())
        pa, pb = arr_a[ia].tolist(), arr_b[ib].tolist()
        w = (pa[0] - pb[0], pa[1] - pb[1], pa[2] - pb[2])

        lb = _dot(v, w) / vn
        if lb > best_lb:
            best_lb = lb
        gap = vn - best_lb
        if gap <= eps:
            return _result(vn, iteration)

        # When the float solve below stops making progress, rounding in its
        # closed forms may have left v slightly off the simplex's min-norm
        # point, enough to keep the bound open when the hulls nearly touch.
        # The simplex is then re-solved exactly; only if that does not move v
        # is the solve given up.
        if (ia, ib) in simplex_ij:
            best = _exact_min_norm(simplex_w)
            if best[3] == v:
                raise NotConvergedError(
                    f"support stalled after {iteration} iterations (gap {gap:.3e})",
                    iterations=iteration, gap=gap,
                )
        else:
            simplex_w.append(w)
            simplex_ij.append((ia, ib))
            best = None
            for idxs in _SUBSETS_WITH_LAST[len(simplex_w)]:
                sol = _solve_subset(simplex_w, idxs)
                if sol is None:
                    continue
                cand_lam, cand_v, cand_n2 = sol
                if best is None or cand_n2 < best[2]:
                    best = (idxs, cand_lam, cand_n2, cand_v)
            if best is None or best[2] >= n2:
                best = _exact_min_norm(simplex_w)
                if best[3] == v:
                    raise NotConvergedError(
                        f"no descent after {iteration} iterations (gap {gap:.3e})",
                        iterations=iteration, gap=gap,
                    )
        idxs, lam, n2, v = best
        keep_w, keep_ij, keep_lam = [], [], []
        for i, l in zip(idxs, lam):
            if l > 0.0:
                keep_w.append(simplex_w[i])
                keep_ij.append(simplex_ij[i])
                keep_lam.append(l)
        simplex_w, simplex_ij, lam = keep_w, keep_ij, tuple(keep_lam)

    raise NotConvergedError(
        f"iteration cap {cap} reached (gap {gap:.3e})", iterations=cap, gap=gap
    )


# ---------------------------------------------------------------------------
# Every pair of a scene in lockstep
# ---------------------------------------------------------------------------


def pairwise_hull_distances(sets, tol: float = DEFAULT_TOL,
                            max_iterations: int | None = None) -> list:
    """:func:`hull_distance` of every unordered pair of ``sets``, in
    :func:`itertools.combinations` order: each entry is the pair's distance,
    or the :class:`NotConvergedError` its solve raised.

    The pairs advance together, one iteration of :func:`hull_distance` per
    step, with numpy in place of the per-pair Python arithmetic, and retire
    as they certify.  A pair that reaches the iteration cap, repeats a
    support vertex, makes no descent (so needs the exact re-solve) or would
    grow its simplex to 4 points is handed back to :func:`hull_distance`
    and solved again from scratch, so every entry is that function's
    result for the pair.
    """
    sets = [_point_set(s) for s in sets]
    results = _lockstep(sets, tol, max_iterations)
    for k, (i, j) in enumerate(itertools.combinations(range(len(sets)), 2)):
        if results[k] is None:
            try:
                results[k] = hull_distance(sets[i], sets[j], tol=tol,
                                           max_iterations=max_iterations).distance
            except NotConvergedError as exc:
                results[k] = exc
    return results


def _rows_dot(u, v):
    """:func:`_dot` of each row of two (m, 3) arrays, with its rounding."""
    p = u * v
    return (p[:, 0] + p[:, 1]) + p[:, 2]


def _rows_subset(ys):
    """:func:`_solve_subset` over the rows of 2 or 3 stacked (m, 3) points.

    Returns ``(ok, lam, v, n2)``: ``ok`` is False on the rows where that
    function returns None, and ``lam`` lists one weight column per point.
    The float steps are its own, in its order.
    """
    if len(ys) == 2:
        y1, y2 = ys
        d = y1 - y2
        den = _rows_dot(d, d)
        ok = ~(den <= 0.0)
        t = _rows_dot(y1, d) / den
        lam = (1.0 - t, t)
    else:
        y1, y2, y3 = ys
        u, w3 = y2 - y1, y3 - y1
        g11, g12, g22 = _rows_dot(u, u), _rows_dot(u, w3), _rows_dot(w3, w3)
        det = g11 * g22 - g12 * g12
        ok = ~(det <= 0.0)
        b1, b2 = -_rows_dot(y1, u), -_rows_dot(y1, w3)
        s = (b1 * g22 - b2 * g12) / det
        t = (g11 * b2 - g12 * b1) / det
        lam = (1.0 - s - t, s, t)
    total = 0.0
    clamped = []
    for l in lam:
        ok &= ~(l < _LAMBDA_FEASIBLE)
        l = np.where(l > 0.0, l, 0.0)
        clamped.append(l)
        total = total + l
    ok &= ~(total <= 0.0)
    lam = [l / total for l in clamped]
    v = 0.0
    for l, y in zip(lam, ys):
        v = v + l[:, None] * y
    return ok, lam, v, _rows_dot(v, v)


def _supports(sets, a, b, v):
    """Support indices and points of every row r:
    ``argmin(sets[a[r]].coords.dot(v[r]))`` and
    ``argmax(sets[b[r]].coords.dot(v[r]))``, as in :func:`hull_distance`.

    Each point set takes one product, over the directions of every row that
    uses it on either side.  A stacked matrix-vector product is the BLAS call
    of ``ndarray.dot`` with one direction, hence the same bits; one
    matrix-matrix product over all the directions would round differently.
    """
    m = len(v)
    # Sorted by set, the a-side rows (order < m) of each set come first.
    order = np.argsort(np.concatenate([a, b]), kind="stable")
    dirs = v[order % m, :, None]
    mins = np.bincount(a, minlength=len(sets)).tolist()
    maxs = np.bincount(b, minlength=len(sets)).tolist()
    found = np.empty(2 * m, dtype=np.intp)
    points = np.empty((2 * m, 3))
    s = 0
    for point_set, k_min, k_max in zip(sets, mins, maxs):
        e = s + k_min + k_max
        if e > s:
            coords = point_set.coords
            values = np.matmul(coords, dirs[s:e])[:, :, 0]
            found[s:s + k_min] = values[:k_min].argmin(axis=1)
            found[s + k_min:e] = values[k_min:].argmax(axis=1)
            points[s:e] = coords[found[s:e]]
        s = e
    idx, pts = np.empty_like(found), np.empty_like(points)
    idx[order], pts[order] = found, points
    return idx[:m], pts[:m], idx[m:], pts[m:]


def _lockstep(sets, tol, max_iterations) -> list:
    """Run :func:`hull_distance` on every pair of ``sets`` at once.

    Returns one entry per pair in combinations order: the distance of each
    pair this path certified, and None for each pair it hands back (the
    cases :func:`pairwise_hull_distances` lists, where :func:`hull_distance`
    raises, re-solves exactly or solves a tetrahedron).  Every other step
    repeats that function's float operations in its order, so a certified
    distance is its distance, bit for bit.
    """
    a, b = np.triu_indices(len(sets), 1)
    results = [None] * len(a)
    if not len(a):
        return results
    lo = np.array([s.bounds[0] for s in sets])
    hi = np.array([s.bounds[1] for s in sets])
    sizes = np.array([len(s) for s in sets])
    span = np.maximum(hi[a], hi[b]) - np.minimum(lo[a], lo[b])
    # The stacked product runs the ddot of ``span.dot(span)``; an
    # elementwise sum would round differently.
    diag = np.sqrt(np.matmul(span[:, None, :], span[:, :, None])[:, 0, 0])
    eps = np.where(diag > 0.0, tol * diag, tol)
    cap = np.full(len(a), _iteration_cap(sizes[a], sizes[b], max_iterations))

    # Per live pair: its index, its simplex (points and support indices in
    # hull_distance's order, ``size`` of them; slot 2 takes the new support
    # point, and a simplex of 3 is handed back on its next step), the
    # iterate v, its squared norm and the best lower bound.
    pair = np.arange(len(a))
    first = np.array([s.coords[0] for s in sets])
    v = first[a] - first[b]
    simplex = v[:, None, :].repeat(3, axis=1)
    simplex_ij = np.zeros((len(a), 3, 2), dtype=np.intp)
    size = np.ones(len(a), dtype=np.intp)
    n2 = _rows_dot(v, v)
    best_lb = np.zeros(len(a))

    iteration = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while len(pair):
            iteration += 1
            over = cap < iteration
            vn = np.sqrt(n2)
            zero = ~over & (vn <= eps)

            ia, pa, ib, pb = _supports(sets, a, b, v)
            w = pa - pb
            lb = _rows_dot(v, w) / vn
            best_lb = np.where(lb > best_lb, lb, best_lb)
            certified = ~over & ~zero & (vn - best_lb <= eps)
            repeat = ((simplex_ij[:, :, 0] == ia[:, None])
                      & (simplex_ij[:, :, 1] == ib[:, None])
                      & (np.arange(3) < size[:, None])).any(axis=1)

            # The subsets with the new point, in _SUBSETS_WITH_LAST order; the
            # first strict minimum wins.  Those with slot 1 exist only where
            # the simplex held 2 points.
            simplex[:, 2], simplex_ij[:, 2, 0], simplex_ij[:, 2, 1] = w, ia, ib
            two = size == 2
            best_n2, best_v = _rows_dot(w, w), w
            keep = np.zeros((len(pair), 3), dtype=bool)
            keep[:, 2] = True
            for idxs in _SUBSETS_WITH_LAST[3][1:]:
                ok, lam, cand_v, cand_n2 = _rows_subset([simplex[:, i] for i in idxs])
                better = ok & (cand_n2 < best_n2) & (two if 1 in idxs else True)
                best_n2 = np.where(better, cand_n2, best_n2)
                best_v = np.where(better[:, None], cand_v, best_v)
                cand_keep = np.zeros_like(keep)
                for i, l in zip(idxs, lam):
                    cand_keep[:, i] = l > 0.0
                keep = np.where(better[:, None], cand_keep, keep)

            done = zero | certified
            for k, distance in zip(pair[done].tolist(),
                                   np.where(zero, 0.0, vn)[done].tolist()):
                results[k] = distance
            handed_back = over | (~done & (repeat | (size == 3) | (best_n2 >= n2)))
            live = ~(done | handed_back)

            # The points with positive weight, in order, are the next simplex.
            order = np.argsort(~keep, axis=1, kind="stable")[live]
            simplex = np.take_along_axis(simplex[live], order[:, :, None], axis=1)
            simplex_ij = np.take_along_axis(simplex_ij[live], order[:, :, None], axis=1)
            pair, a, b, eps, cap = (x[live] for x in (pair, a, b, eps, cap))
            size = keep.sum(axis=1)[live]
            v, n2, best_lb = best_v[live], best_n2[live], best_lb[live]
    return results


# ---------------------------------------------------------------------------
# Independent oracle: Wolfe's minimum-norm-point algorithm
# ---------------------------------------------------------------------------


def hull_distance_oracle(a, b, tol: float = DEFAULT_TOL,
                         max_iterations: int = 20000) -> float:
    """Hull distance via Wolfe's minimum-norm-point algorithm; cross-check oracle.

    Works on the explicit Minkowski difference ``P = {a_i - b_j}`` (an
    ``m * n`` by 3 array) and shares no code with :func:`hull_distance`
    (Wolfe, *Math. Prog.* 11, 1976).  It starts at the point of ``P``
    nearest the origin.  Each major step adds the support point
    ``argmin_p x.p`` to a corral; a minor cycle then moves the weights
    towards the corral's affine min-norm point (a least-squares solve),
    dropping every point whose weight reaches zero.

    Stops when ``||x|| <= tol * diag`` (returns exactly 0.0; ``diag`` is the
    bounding diagonal of both sets), or when the support-plane certificate
    ``||x|| - min_p x.p / ||x|| <= tol * diag`` closes (returns ``||x||``).
    A step that makes no progress (the support point is already in the
    corral, or the minor cycle does not shorten ``x``) returns ``||x||``
    only if ``||x||^2 - min_p x.p`` is within the rounding scale
    ``64 * eps * max_p ||p||^2``; otherwise, and at the iteration cap, it
    raises :class:`NotConvergedError`.
    """
    a, b = _point_set(a), _point_set(b)
    arr_a, (lo_a, hi_a) = a.coords, a.bounds
    arr_b, (lo_b, hi_b) = b.coords, b.bounds
    lo, hi = np.minimum(lo_a, lo_b), np.maximum(hi_a, hi_b)
    atol = tol * float(np.linalg.norm(hi - lo))

    P = (arr_a[:, None, :] - arr_b[None, :, :]).reshape(-1, 3)
    norms2 = np.einsum("ij,ij->i", P, P)
    rounding = 64 * np.finfo(np.float64).eps * float(norms2.max())
    corral = [int(norms2.argmin())]
    lam = np.ones(1)
    x = P[corral[0]]

    for iteration in range(1, max_iterations + 1):
        x2 = float(x @ x)
        ub = sqrt(x2)
        if ub <= atol:
            return 0.0
        proj = P @ x
        q = int(proj.argmin())
        low = float(proj[q])
        gap = ub - low / ub
        if gap <= atol:
            return ub

        stalled = q in corral
        if not stalled:
            corral.append(q)
            lam = np.append(lam, 0.0)
            while True:
                S = P[corral]
                mu = np.linalg.lstsq((S[1:] - S[0]).T, -S[0], rcond=None)[0]
                alpha = np.concatenate(([1.0 - mu.sum()], mu))
                neg = alpha < 0.0
                done = not neg.any()
                if done:
                    lam = alpha
                else:
                    # Step from the current weights towards alpha until the
                    # first weight reaches zero.
                    ratio = np.full(lam.shape, np.inf)
                    ratio[neg] = lam[neg] / (lam[neg] - alpha[neg])
                    first = int(ratio.argmin())
                    lam = ratio[first] * alpha + (1.0 - ratio[first]) * lam
                    lam[first] = 0.0
                keep = lam > 0.0
                corral = [c for c, k in zip(corral, keep) if k]
                lam = lam[keep] / lam[keep].sum()
                if done:
                    break
            x = lam @ P[corral]
            stalled = float(x @ x) >= x2
        if stalled:
            if x2 - low <= rounding:
                return ub
            raise NotConvergedError(
                f"oracle stalled after {iteration} iterations (gap {gap:.3e})",
                iterations=iteration, gap=gap,
            )

    raise NotConvergedError(
        f"oracle failed to certify within {max_iterations} iterations",
        iterations=max_iterations,
    )
