"""Convex-hull distance solver, its certificate oracle, and box statistics.

Closed-form constructions (segments, point-to-triangle, separated boxes)
provide exact expected values; a frozen bank of random point-cloud pairs
pins the solver against oracle distances computed once at a 1e-10
certificate and recorded here as literals.
"""

import math

import numpy as np
import pytest

from sceneqa.errors import NotConvergedError, SchemaViolationError
from sceneqa.geometry import (
    DEFAULT_TOL,
    Aabb,
    aabb,
    aabb_volume,
    centroid,
    hull_distance,
    hull_distance_oracle,
)
from sceneqa.scene import PointSet


class TestAabbAndCentroid:
    CLOUD = np.array([[0.0, -1.0, 2.0], [3.0, 4.0, -5.0], [1.0, 0.0, 0.0]])

    def test_aabb_matches_naive_loop(self):
        box = aabb(self.CLOUD)
        lo = [min(row[k] for row in self.CLOUD) for k in range(3)]
        hi = [max(row[k] for row in self.CLOUD) for k in range(3)]
        assert box.min_corner == tuple(lo)
        assert box.max_corner == tuple(hi)

    def test_volume_is_product_of_extents(self):
        box = Aabb((0.0, 0.0, 0.0), (1.98, 2.32, 0.83))
        assert aabb_volume(box) == 1.98 * 2.32 * 0.83

    def test_centroid_matches_naive_mean(self):
        c = centroid(self.CLOUD)
        expected = [sum(row[k] for row in self.CLOUD) / 3 for k in range(3)]
        np.testing.assert_allclose(c, expected, rtol=0, atol=1e-15)

    def test_accepts_point_sets_and_arrays(self, monkeypatch):
        ps, box = PointSet(self.CLOUD), aabb(self.CLOUD)
        monkeypatch.setattr(PointSet, "__init__", None)  # no set can be built now
        assert aabb(ps) == box  # a PointSet is passed through as is

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(SchemaViolationError):
            aabb(np.zeros((0, 3)))
        with pytest.raises(SchemaViolationError):
            centroid(np.array([[1.0, np.nan, 0.0]]))
        with pytest.raises(SchemaViolationError):
            aabb(np.zeros((3, 2)))


class TestHullDistanceClosedForm:
    def test_skew_segments(self):
        a = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        b = np.array([[1.0, -1.0, 1.0], [1.0, 1.0, 1.0]])
        res = hull_distance(a, b)
        assert res.distance == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(res.witness_a, [1.0, 0.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(res.witness_b, [1.0, 0.0, 1.0], atol=1e-9)

    def test_point_above_triangle_interior(self):
        tri = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        pt = np.array([[0.5, 0.5, 2.0]])
        res = hull_distance(pt, tri)
        assert res.distance == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(res.witness_b, [0.5, 0.5, 0.0], atol=1e-9)

    def test_point_beyond_triangle_edge(self):
        tri = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        pt = np.array([[3.0, 0.0, 0.0]])
        res = hull_distance(pt, tri)
        assert res.distance == pytest.approx(1.0, abs=1e-12)

    def test_singletons(self):
        res = hull_distance([[0.0, 0.0, 0.0]], [[3.0, 4.0, 0.0]])
        assert res.distance == pytest.approx(5.0, abs=1e-12)

    def test_intersecting_hulls_report_zero(self):
        a = np.array([[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2]], dtype=float)
        b = a * 0.25 + 0.2
        res = hull_distance(a, b)
        assert res.distance == 0.0

    def test_nearly_touching_hulls_certify(self):
        # The gap is far below the scale of the clouds: rounding in the
        # closed-form subset solves alone cannot close the bound here.
        origin = np.zeros((1, 3))
        res = hull_distance(origin, np.array([[0.0, 1e-7, 0.0], [0.0, 0.0, 8.0]]))
        assert res.distance == pytest.approx(1e-7, rel=1e-9)
        res = hull_distance(origin, np.array([[0.0, 2.0, 1.0], [0.0, -1e-7, 0.0]]))
        assert res.distance == pytest.approx(1e-7 / math.hypot(2.0 + 1e-7, 1.0),
                                             rel=1e-9)

    def test_touching_boxes_report_zero(self):
        its = np.array(np.meshgrid([0, 1], [0, 1], [0, 1])).T.reshape(-1, 3).astype(float)
        a = its
        b = its + np.array([1.0, 0.0, 0.0])  # shares the x=1 face
        res = hull_distance(a, b)
        assert res.distance <= 1e-9

    def test_tiny_gap_resolved(self):
        its = np.array(np.meshgrid([0, 1], [0, 1], [0, 1])).T.reshape(-1, 3).astype(float)
        gap = 1e-7
        res = hull_distance(its, its + np.array([1.0 + gap, 0.0, 0.0]))
        assert res.distance == pytest.approx(gap, abs=1e-9)

    def test_duplicated_and_collinear_points(self):
        a = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                      [2.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
        b = a + np.array([0.0, 3.0, 4.0])
        res = hull_distance(a, b)
        assert res.distance == pytest.approx(5.0, abs=1e-12)


# Frozen bank: sizes drawn with default_rng(977121); distances computed once
# by the certificate oracle at tol=1e-10 / 200k iterations. None means the
# hulls intersect and exactly 0.0 is required.
_FROZEN_SEED = 977121
_FROZEN_EXPECTED = [
    None,
    5.029385184446906,
    None,
    2.804782661989338,
    0.47904517554528386,
    0.8090824475469948,
    1.0670638982558551,
    1.3135185335410962,
    1.930458353854081,
    1.261118362734066,
]


def _frozen_cases():
    rng = np.random.default_rng(_FROZEN_SEED)
    for expected in _FROZEN_EXPECTED:
        na, nb = int(rng.integers(4, 30)), int(rng.integers(4, 30))
        a = rng.normal(size=(na, 3)) * rng.uniform(0.5, 2.0)
        b = rng.normal(size=(nb, 3)) * rng.uniform(0.5, 2.0) + rng.uniform(-6, 6, size=3)
        yield a, b, expected


class TestHullDistanceFrozenBank:
    def test_solver_matches_frozen_oracle_distances(self):
        for a, b, expected in _frozen_cases():
            res = hull_distance(a, b)
            if expected is None:
                assert res.distance == 0.0
            else:
                assert res.distance == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("tol,iterations,distance", [
        (DEFAULT_TOL, 51, 14.694454617913621),
        (1e-2, 46, 14.71955480815048),
    ])
    def test_point_sets_and_arrays_solve_alike(self, tol, iterations, distance):
        """A PointSet's stored bounds and an array's per-call reduction give
        the same tolerance, hence the same steps and bits.  At tol 1e-2 where
        the solve stops depends on the bounding diagonal.  The summed
        iterations and distances were computed before the bounds were
        stored."""
        total_iterations, total_distance = 0, 0.0
        for a, b, _ in _frozen_cases():
            res = hull_distance(a, b, tol=tol)
            assert hull_distance(PointSet(a), PointSet(b), tol=tol) == res
            total_iterations += res.iterations
            total_distance += res.distance
        assert (total_iterations, total_distance) == (iterations, distance)

    def test_live_oracle_matches_frozen_values(self):
        for a, b, expected in _frozen_cases():
            if expected is None:
                continue
            d = hull_distance_oracle(a, b, tol=1e-8)
            assert d == pytest.approx(expected, abs=1e-6)


class TestHullDistanceContract:
    def test_witnesses_are_convex_combinations_at_distance(self):
        for a, b, expected in _frozen_cases():
            if expected is None:
                continue
            res = hull_distance(a, b)
            for coeffs, cloud, witness in (
                (res.coeffs_a, a, res.witness_a),
                (res.coeffs_b, b, res.witness_b),
            ):
                idx = list(coeffs)
                lam = np.array([coeffs[i] for i in idx])
                assert np.all(lam >= 0) and lam.sum() == pytest.approx(1.0, abs=1e-12)
                np.testing.assert_allclose(
                    lam @ cloud[idx], witness, atol=1e-9
                )
            gap = np.linalg.norm(np.subtract(res.witness_a, res.witness_b))
            assert gap == pytest.approx(res.distance, abs=1e-9)

    def test_distance_bounded_by_closest_vertex_pair(self):
        for a, b, _ in _frozen_cases():
            res = hull_distance(a, b)
            pairwise = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2).min()
            assert res.distance <= pairwise + 1e-9

    def test_budget_exhaustion_raises_with_context(self):
        a = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        b = np.array([[1.0, -1.0, 1.0], [1.0, 1.0, 1.0]])
        with pytest.raises(NotConvergedError) as excinfo:
            hull_distance(a, b, max_iterations=0)
        assert excinfo.value.iterations == 0

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(SchemaViolationError):
            hull_distance(np.zeros((0, 3)), np.ones((2, 3)))
        with pytest.raises(SchemaViolationError):
            hull_distance([[np.inf, 0, 0]], [[0, 0, 0]])


class TestOracle:
    def test_certificate_failure_raises(self):
        rng = np.random.default_rng(4242)
        a = rng.normal(size=(25, 3))
        b = rng.normal(size=(25, 3)) + np.array([4.0, 0.5, -0.25])
        with pytest.raises(NotConvergedError):
            hull_distance_oracle(a, b, tol=1e-12, max_iterations=2)

    def test_oracle_on_closed_form_case(self):
        a = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        b = np.array([[1.0, -1.0, 1.0], [1.0, 1.0, 1.0]])
        assert hull_distance_oracle(a, b, tol=1e-9) == pytest.approx(1.0, abs=1e-7)

    def test_certifies_a_point_just_outside_a_cloud(self):
        """One point 1e-6 outside a 43-point hull, along the outward normal at
        its nearest hull point: a gap just above tolerance, where a
        first-order method stalls short of its certificate (a projected-
        gradient oracle failed trials 23 and 114 of these 120)."""
        rng = np.random.default_rng(7)
        for _ in range(120):
            a = rng.uniform(-10.0, 10.0, (43, 3))
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            w = np.array(hull_distance(a, [100.0 * d]).witness_a)
            n = (100.0 * d - w) / np.linalg.norm(100.0 * d - w)
            b = [w + 1e-6 * n]
            span = np.maximum(a.max(axis=0), b[0]) - np.minimum(a.min(axis=0), b[0])
            diag = np.linalg.norm(span)
            rounding = 64 * np.finfo(np.float64).eps * max(1.0, np.abs(a).max(),
                                                           np.abs(b).max())
            gjk = hull_distance(a, b).distance
            assert abs(hull_distance_oracle(a, b) - gjk) <= 2 * DEFAULT_TOL * diag + rounding

    def test_overlapping_clouds_give_exactly_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = rng.normal(size=(int(rng.integers(4, 40)), 3))
            b = rng.normal(size=(int(rng.integers(4, 40)), 3)) + rng.uniform(-0.3, 0.3, 3)
            b = np.vstack([b, a.mean(axis=0)])
            assert hull_distance_oracle(a, b) == 0.0
            assert hull_distance_oracle(a, a) == 0.0
