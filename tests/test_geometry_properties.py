"""Property-based invariants of the hull distance solver.

The solver must behave like a metric-compatible geometric primitive:
symmetric in its arguments, equivariant under translation and positive
scaling, bounded above by the closest vertex pair, monotone when hulls
grow, and zero against itself.  At room coordinates (dense clouds far from
the origin) its certificate is re-checked with numpy and its distance
against the independent oracle.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from sceneqa.geometry import DEFAULT_TOL, hull_distance, hull_distance_oracle

_settings = settings(max_examples=60, deadline=None)

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
point = st.tuples(finite, finite, finite)


@st.composite
def cloud(draw, min_size=1, max_size=10):
    pts = draw(st.lists(point, min_size=min_size, max_size=max_size))
    return np.asarray(pts, dtype=np.float64)


@given(cloud(), cloud())
@_settings
def test_symmetry(a, b):
    d_ab = hull_distance(a, b).distance
    d_ba = hull_distance(b, a).distance
    assert abs(d_ab - d_ba) <= 1e-6


@given(cloud(), cloud(), point)
@_settings
def test_translation_equivariance(a, b, shift):
    t = np.asarray(shift)
    base = hull_distance(a, b).distance
    moved = hull_distance(a + t, b + t).distance
    assert abs(base - moved) <= 1e-6


@given(cloud(), cloud(), st.floats(min_value=0.1, max_value=8.0))
@_settings
def test_positive_scale_equivariance(a, b, scale):
    base = hull_distance(a, b).distance
    scaled = hull_distance(a * scale, b * scale).distance
    assert abs(scaled - scale * base) <= 1e-6 * max(1.0, scale)


@given(cloud(), cloud())
@_settings
def test_bounded_by_closest_vertex_pair(a, b):
    res = hull_distance(a, b)
    closest = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2).min()
    assert res.distance <= closest + 1e-9


@given(cloud(), cloud(), cloud(min_size=1, max_size=4))
@_settings
def test_growing_a_hull_never_increases_distance(a, b, extra):
    base = hull_distance(a, b).distance
    grown = hull_distance(np.vstack([a, extra]), b).distance
    assert grown <= base + 1e-6


@given(cloud())
@_settings
def test_distance_to_self_is_zero(a):
    res = hull_distance(a, a)
    assert res.distance == 0.0


@given(cloud(), cloud())
@_settings
def test_witnesses_realize_the_distance(a, b):
    res = hull_distance(a, b)
    gap = np.linalg.norm(np.subtract(res.witness_a, res.witness_b))
    assert abs(gap - res.distance) <= 1e-6
    for coeffs, pts in ((res.coeffs_a, a), (res.coeffs_b, b)):
        lam = np.array(list(coeffs.values()))
        assert np.all(lam >= 0.0)
        assert abs(lam.sum() - 1.0) <= 1e-9


# -- dense clouds far from the origin ----------------------------------------

far = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)
near = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False)


@st.composite
def room_pair(draw, max_points=1000):
    """Two boxes of jittered points, up to 1.5 m across, placed within 3 m of
    each other (often overlapping) around a common point up to 10^4 from the
    origin on each axis."""
    n_a = draw(st.integers(min_value=1, max_value=max_points))
    n_b = draw(st.integers(min_value=1, max_value=max_points))
    offset = np.array(draw(st.tuples(far, far, far)))
    shift = np.array(draw(st.tuples(near, near, near)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    a = offset + rng.uniform(-1.0, 1.0, (n_a, 3)) * rng.uniform(0.01, 0.75, 3)
    b = offset + shift + rng.uniform(-1.0, 1.0, (n_b, 3)) * rng.uniform(0.01, 0.75, 3)
    return a, b


def _diagonal(a, b):
    lo = np.minimum(a.min(axis=0), b.min(axis=0))
    hi = np.maximum(a.max(axis=0), b.max(axis=0))
    return float(np.linalg.norm(hi - lo))


def _rounding(a, b):
    """Allowance for rounding in sums and dot products of coordinates."""
    return 64 * np.finfo(np.float64).eps * max(1.0, float(np.abs(a).max()),
                                               float(np.abs(b).max()))


@given(room_pair())
@settings(max_examples=60, deadline=None)
def test_certificate_holds_for_dense_clouds_far_from_origin(pair):
    a, b = pair
    res = hull_distance(a, b)
    eps = DEFAULT_TOL * _diagonal(a, b)
    slack = _rounding(a, b)
    for coeffs, pts, witness in ((res.coeffs_a, a, res.witness_a),
                                 (res.coeffs_b, b, res.witness_b)):
        idx = np.fromiter(coeffs.keys(), dtype=np.int64)
        lam = np.fromiter(coeffs.values(), dtype=np.float64)
        assert np.all(lam > 0.0) and abs(lam.sum() - 1.0) <= 1e-12
        assert np.abs(lam @ pts[idx] - np.asarray(witness)).max() <= slack
    v = np.subtract(res.witness_a, res.witness_b)
    gap = float(np.linalg.norm(v))
    if res.distance == 0.0:
        assert gap <= eps + slack
        return
    assert abs(gap - res.distance) <= slack
    u = v / gap
    lower = float((a @ u).min() - (b @ u).max())
    assert lower <= res.distance + slack
    assert res.distance - lower <= eps + slack


@given(room_pair(max_points=50))
@settings(max_examples=100, deadline=None)
def test_oracle_agrees_far_from_origin(pair):
    a, b = pair
    gjk = hull_distance(a, b).distance
    oracle = hull_distance_oracle(a, b)
    assert abs(gjk - oracle) <= 2 * DEFAULT_TOL * _diagonal(a, b) + _rounding(a, b)
