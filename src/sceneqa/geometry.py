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

A :class:`PointSet` is the one checked form of a point cloud.  Every function
here takes one, or turns any other input into one first, so a bad raw array
raises the same :class:`SchemaViolationError` with the same text as a bad
cloud in a scene file.  A point set keeps its per-axis bounds, so an instance
measured once and solved against 40 others reduces its coordinates once, not
once per pair.
"""

from __future__ import annotations

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
    cap = max_iterations if max_iterations is not None else 10 * (na + nb) + 100

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
