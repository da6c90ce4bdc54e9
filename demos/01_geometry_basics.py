# Convex-hull distances, bounding boxes, and centroids.
#
# Everything downstream (ground-truth tables, question generation, scoring)
# rests on a few geometric primitives, so this walkthrough starts there.
# Run it from the repository root:
#
#     python3 demos/01_geometry_basics.py

import numpy as np

from sceneqa import aabb, aabb_volume, centroid, hull_distance, hull_distance_oracle

# ---------------------------------------------------------------------------
# Axis-aligned bounding boxes and centroids
# ---------------------------------------------------------------------------
# A "point set" here is anything shaped (n, 3).  The AABB is the smallest
# axis-aligned box containing every point; the centroid is the plain mean.

cloud = np.array([
    [0.0, 0.0, 0.0],
    [2.0, 0.5, 0.0],
    [1.0, 3.0, 0.2],
    [0.5, 1.0, 1.5],
])
box = aabb(cloud)
print("min corner:", box.min_corner)
print("max corner:", box.max_corner)
print("extents:   ", box.extents)
print("volume:    ", aabb_volume(box))
print("centroid:  ", centroid(cloud))

# ---------------------------------------------------------------------------
# Hull distance with a certificate
# ---------------------------------------------------------------------------
# The distance between two objects is the minimum distance between their
# convex hulls — not between their centroids and not between bounding boxes.
# The solver returns the distance plus *witness points*, one on each hull,
# that realize it, along with the convex weights proving each witness really
# lies in its hull.

segment = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
other = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0]])  # skew segment, 1 above

result = hull_distance(segment, other)
print("\nskew segments")
print("distance: ", result.distance)                        # exactly 1.0
print("witness a:", tuple(map(float, result.witness_a)))    # (1, 0, 0)
print("witness b:", tuple(map(float, result.witness_b)))    # (1, 0, 1)
print("iterations:", result.iterations)

# The coefficients are a dict {input point index: convex weight}.  They sum
# to one, and combining the inputs with them reproduces the witness:
weights = {i: float(w) for i, w in result.coeffs_a.items()}
combo = sum(w * segment[i] for i, w in weights.items())
print("weights on hull A:", weights, "-> recombined:", combo)

# ---------------------------------------------------------------------------
# Overlapping hulls have distance zero
# ---------------------------------------------------------------------------

tetra = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
shifted = tetra + 0.25  # overlaps the original
print("\noverlapping tetrahedra ->", hull_distance(tetra, shifted).distance)

# ---------------------------------------------------------------------------
# Cross-checking with an independent oracle
# ---------------------------------------------------------------------------
# A completely separate algorithm (accelerated projected gradient over the
# product of simplices, with a support-plane certificate) double-checks the
# solver.  The two must agree to high precision on any input.

rng = np.random.default_rng(7)
a = rng.normal(size=(30, 3))
b = rng.normal(size=(25, 3)) + np.array([5.0, 1.0, -0.5])

fast = hull_distance(a, b).distance
slow = hull_distance_oracle(a, b, tol=1e-10, max_iterations=200_000)
print("\nrandom clouds")
print(f"solver: {fast:.12f}")
print(f"oracle: {slow:.12f}")
print(f"difference: {abs(fast - slow):.2e}")
assert abs(fast - slow) < 1e-8
