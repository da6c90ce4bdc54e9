"""Convex-hull distance solver, its certificate oracle, and box statistics.

Closed-form constructions (segments, point-to-triangle, separated boxes)
provide exact expected values; a frozen bank of random point-cloud pairs
pins the solver against oracle distances computed once at a 1e-10
certificate and recorded here as literals.  The lockstep pass over every
pair of a scene is checked against the per-pair solver, pair for pair.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sceneqa import geometry
from sceneqa.errors import NotConvergedError, SchemaViolationError
from sceneqa.geometry import (
    DEFAULT_TOL,
    Aabb,
    aabb,
    aabb_volume,
    centroid,
    hull_distance,
    hull_distance_oracle,
    pairwise_hull_distances,
)
from sceneqa.pipeline import PipelineConfig, run_synth
from sceneqa.scene import PointSet, load_scene


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


# ---------------------------------------------------------------------------
# Every pair of a scene in lockstep
# ---------------------------------------------------------------------------


def _per_pair(sets, **kwargs):
    """hull_distance on each pair in turn: its distance, or the skip reason
    extraction records for it."""
    out = []
    for a, b in itertools.combinations(sets, 2):
        try:
            out.append(hull_distance(a, b, **kwargs).distance)
        except NotConvergedError as exc:
            out.append(f"not_converged: {exc}")
    return out


def _in_lockstep(sets, **kwargs):
    return [f"not_converged: {r}" if isinstance(r, NotConvergedError) else r
            for r in pairwise_hull_distances(sets, **kwargs)]


@pytest.fixture()
def handed_back(monkeypatch):
    """The pairs the lockstep pass hands back to hull_distance."""
    calls = []

    def spy(a, b, **kwargs):
        calls.append((a, b))
        return hull_distance(a, b, **kwargs)

    monkeypatch.setattr(geometry, "hull_distance", spy)
    return calls


@pytest.fixture(scope="module")
def pinned_scenes(tmp_path_factory):
    """The instances of the two scenes the pipeline digests pin (seed
    424243), in extraction order."""
    cfg = PipelineConfig(seed=424243, out_dir=str(tmp_path_factory.mktemp("pinned")),
                         synth_scenes=2)
    return [[inst.points for inst in sorted(load_scene(path).instances,
                                            key=lambda inst: inst.instance_id)]
            for path in run_synth(cfg)]


_CUBE = np.array(np.meshgrid([0, 1], [0, 1], [0, 1])).T.reshape(-1, 3).astype(float)
_LINE = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                  [2.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
_TETRA = np.array([[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2]], dtype=float)
_ORIGIN = np.zeros((1, 3))

_small = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
_cloud = st.lists(st.tuples(_small, _small, _small), min_size=1, max_size=10)


class TestPairwiseHullDistances:
    """Distances equal hull_distance's by ==, and an unconverged pair fails
    with the same text, hence the same skip reason."""

    def test_every_pair_of_the_pinned_scenes(self, pinned_scenes, handed_back):
        for sets in pinned_scenes:
            assert _in_lockstep(sets) == _per_pair(sets)
        assert handed_back == []

    def test_pinned_scenes_under_an_iteration_cap(self, pinned_scenes):
        """With two iterations allowed, pairs that certify in time and pairs
        that fail at the cap sit side by side."""
        sets = pinned_scenes[0]
        expected = _per_pair(sets, max_iterations=2)
        assert {type(r) for r in expected} == {float, str}
        assert _in_lockstep(sets, max_iterations=2) == expected

    @pytest.mark.parametrize("sets,handbacks", [
        # duplicated and collinear points certify in lockstep
        ([_LINE, _LINE + np.array([0.0, 3.0, 4.0])], 0),
        # a unit-cube pair 1e-7 apart certifies in lockstep
        ([_CUBE, _CUBE + np.array([1.0 + 1e-7, 0.0, 0.0])], 0),
        # nearly touching: no subset descends, so the exact re-solve is due
        ([_ORIGIN, np.array([[0.0, 1e-7, 0.0], [0.0, 0.0, 8.0]])], 1),
        # nearly touching: the support pair is already in the simplex
        ([_ORIGIN, np.array([[0.0, 2.0, 1.0], [0.0, -1e-7, 0.0]])], 1),
        # intersecting hulls: the simplex would grow to 4 points
        ([_TETRA, _TETRA * 0.25 + 0.2], 1),
        # all of them as one scene
        ([_LINE, _CUBE, _ORIGIN, _TETRA, _TETRA * 0.25 + 0.2,
          np.array([[0.0, 2.0, 1.0], [0.0, -1e-7, 0.0]])], None),
    ])
    def test_hand_made_cases(self, sets, handbacks, handed_back):
        assert _in_lockstep(sets) == _per_pair(sets)
        if handbacks is not None:
            assert len(handed_back) == handbacks

    def test_the_iteration_cap_hands_every_pair_back(self, handed_back):
        sets = [_LINE, _CUBE + 5.0, _TETRA - 5.0]
        expected = _per_pair(sets, max_iterations=0)
        assert expected == ["not_converged: iteration cap 0 reached (gap inf)"] * 3
        assert _in_lockstep(sets, max_iterations=0) == expected
        assert len(handed_back) == 3

    def test_fewer_than_two_sets_have_no_pairs(self):
        assert pairwise_hull_distances([]) == []
        assert pairwise_hull_distances([_CUBE]) == []

    @given(st.lists(_cloud, min_size=2, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_small_random_scenes(self, clouds):
        sets = [np.asarray(c, dtype=np.float64) for c in clouds]
        assert _in_lockstep(sets) == _per_pair(sets)

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=2, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_dense_clouds_at_room_coordinates(self, seed, count):
        """A few boxes of a few hundred jittered points, up to 1.5 m across
        and within 3 m of each other, about 10^3 from the origin."""
        rng = np.random.default_rng(seed)
        offset = rng.uniform(-1500.0, 1500.0, 3)
        sets = [offset + rng.uniform(-3.0, 3.0, 3)
                + rng.uniform(-1.0, 1.0, (int(rng.integers(100, 400)), 3))
                * rng.uniform(0.01, 0.75, 3)
                for _ in range(count)]
        assert _in_lockstep(sets) == _per_pair(sets)

    def test_near_tied_support_about_1e4_from_the_origin(self):
        """Two rows of a cloud whose products with the first search
        direction ``a[0] - b[0]`` agree to within rounding: the second lies
        across that direction from the first, so the BLAS kernel's rounding
        picks the support point.  Which one is picked moves some distances
        in their last bits (swapping the two rows does so here), yet both
        solvers must pick alike, and both stay within tolerance of the
        oracle, which shares no code with them."""
        def unit(x):
            return x / np.linalg.norm(x)

        rng = np.random.default_rng(14)
        trials, within_an_ulp = 300, 0
        for _ in range(trials):
            offset = rng.uniform(-1e4, 1e4, 3)
            a = offset + rng.uniform(-0.5, 0.5, (12, 3))
            centre = offset + unit(rng.normal(size=3)) * rng.uniform(2.0, 3.0)
            b = centre + rng.uniform(-0.4, 0.4, (12, 3))
            direction = a[0] - b[0]
            tied = centre + 0.8 * unit(direction)
            across = tied + 0.5 * unit(np.cross(direction, rng.normal(size=3)))
            b = np.vstack([b, tied, across])
            products = b.dot(direction)
            assert set(np.argsort(products)[-2:].tolist()) == {12, 13}
            within_an_ulp += abs(products[12] - products[13]) <= np.spacing(abs(products[12]))

            sets = [a, b, b + unit(rng.normal(size=3))]
            assert _in_lockstep(sets) == _per_pair(sets)
            both = np.vstack([a, b])
            slack = (2 * DEFAULT_TOL * np.linalg.norm(np.ptp(both, axis=0))
                     + 64 * np.finfo(np.float64).eps * np.abs(both).max())
            gjk = hull_distance(a, b).distance
            assert abs(hull_distance_oracle(a, b) - gjk) <= slack
        assert within_an_ulp >= trials * 3 // 4

    def test_rotated_lattices_at_room_coordinates(self):
        """Rotated boxes of lattice points about 2e3 from the origin, where
        support values tie to within rounding: a support query that rounds
        otherwise than ``ndarray.dot`` (as a matrix-matrix product over all
        directions does with some BLAS kernels) picks other vertices and
        moves some distances in their last bits."""
        rng = np.random.default_rng(1)
        for _ in range(40):
            offset = rng.uniform(-2e3, 2e3, 3)
            sets = []
            for _ in range(6):
                side = np.linspace(0, rng.uniform(0.2, 1.5), int(rng.integers(2, 5)))
                grid = np.array(np.meshgrid(side, side, side)).T.reshape(-1, 3)
                rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
                sets.append(offset + rng.uniform(-2, 2, 3) + grid @ rotation)
            assert _in_lockstep(sets) == _per_pair(sets)
