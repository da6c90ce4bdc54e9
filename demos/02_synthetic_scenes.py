# Synthetic indoor scenes with analytic ground truth, and table extraction.
#
# Synthetic scenes are the package's self-test instrument: every box is
# sampled so that its bounding box equals the declared one *exactly* (the
# eight corners are always included, interior points are mirrored pairs that
# keep the mean on the center).  That makes extraction verifiable to the
# last bit instead of "roughly right".
#
#     python3 demos/02_synthetic_scenes.py

import numpy as np

from sceneqa import extract_ngt, generate_synthetic_scene, random_indoor_spec
from sceneqa.scene import box_gap

# ---------------------------------------------------------------------------
# Build a scene from a random specification
# ---------------------------------------------------------------------------
# A spec lists labelled boxes with dimensions and centers.  `random_indoor_spec` produces a furniture-like layout: one floor
# "object" plus ~40 labelled items resting on the floor, with duplicate
# labels (several chairs) so counting questions have something to count.

rng = np.random.default_rng(20240817)
spec = random_indoor_spec("demo0000", rng, n_boxes=25, points_per_box=24)
scene, truth = generate_synthetic_scene(spec, seed=12345)

print("scene:", scene.scene_id)
print("instances:", len(scene.instances))
labels = {}
for inst in scene.instances:
    labels[inst.label] = labels.get(inst.label, 0) + 1
duplicated = {k: v for k, v in labels.items() if v > 1}
print("labels appearing more than once:", duplicated)

# ---------------------------------------------------------------------------
# Extract the numeric ground truth
# ---------------------------------------------------------------------------
# The table holds, per instance: bounding box, dimensions, volume, centroid;
# and per instance pair: the convex-hull distance.  Generic labels such as
# "object" and "item" are excluded by default — they name clutter, not
# askable referents.

table = extract_ngt(scene)
print("\ninstances kept after filtering:", len(table.instances))
print("pair distances stored:", len(table.pairs))

first = table.instances[0]
print(f"\nexample instance {first.instance_id} ({first.label})")
print("  dims:    ", first.dims)
print("  volume:  ", first.volume)
print("  centroid:", tuple(round(c, 6) for c in first.centroid))

# ---------------------------------------------------------------------------
# Verify against the analytic truth
# ---------------------------------------------------------------------------
# Boxes: extraction must reproduce the declared AABB, dims and volume
# exactly, the centroid to 1e-9, and each pair distance must equal the
# closed-form box-to-box gap.

worst_centroid = 0.0
for inst in table.instances:
    declared = truth.instances[inst.instance_id]
    assert inst.aabb_min == declared.aabb_min
    assert inst.aabb_max == declared.aabb_max
    assert inst.volume == declared.volume
    worst_centroid = max(worst_centroid, max(
        abs(g - d) for g, d in zip(inst.centroid, declared.centroid)))

worst_gap = 0.0
for (ia, ib), measured in table.pairs.items():
    ta, tb = truth.instances[ia], truth.instances[ib]
    exact = box_gap(ta.aabb_min, ta.aabb_max, tb.aabb_min, tb.aabb_max)
    worst_gap = max(worst_gap, abs(measured - exact))

print("\nboxes reproduced exactly; worst centroid error:", worst_centroid)
print("worst hull-gap error vs closed form:", worst_gap)
assert worst_centroid <= 1e-9
assert worst_gap <= 1e-9

# ---------------------------------------------------------------------------
# What the questions will ask about
# ---------------------------------------------------------------------------
# Counting uses label multiplicities; volume and distance questions only use
# labels that appear exactly once, so "the chair" is never ambiguous.

counts = table.label_counts()
unique = table.unique_label_instances()
print("\nlabel counts (first five):",
      dict(sorted(counts.items())[:5]))
print("uniquely-named instances:", len(unique), "of", len(table.instances))
