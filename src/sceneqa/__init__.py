"""Numerical question answering over annotated 3D indoor scenes.

The package turns per-instance point clouds into exact numerical ground
truth (counts, convex-hull distances, bounding-box volumes), generates
balanced yes/no, multiple-choice, and numeric question datasets from it,
and scores model predictions with exact and threshold accuracy.
"""

__version__ = "0.1.0"

from .errors import SceneQaError
from .geometry import (
    Aabb,
    aabb,
    aabb_volume,
    centroid,
    hull_distance,
    hull_distance_oracle,
)
from .ngt import NgtTable, extract_ngt, read_ngt, write_ngt
from .rulegen import (
    QaRecord,
    RulegenConfig,
    assemble_dataset,
    extract_answer,
    generate_rule_dataset,
    read_dataset,
    write_dataset,
)
from .scene import (
    Scene,
    generate_synthetic_scene,
    load_scene,
    random_indoor_spec,
    write_scene,
)
from .evaluate import (
    consistency_report,
    format_report_table,
    score_records,
    threshold_accuracy,
)
from .audit import oracle_responses, selfcheck

__all__ = [
    "Aabb",
    "NgtTable",
    "QaRecord",
    "RulegenConfig",
    "Scene",
    "SceneQaError",
    "aabb",
    "aabb_volume",
    "assemble_dataset",
    "centroid",
    "consistency_report",
    "extract_answer",
    "extract_ngt",
    "format_report_table",
    "generate_rule_dataset",
    "generate_synthetic_scene",
    "hull_distance",
    "hull_distance_oracle",
    "load_scene",
    "oracle_responses",
    "random_indoor_spec",
    "read_dataset",
    "read_ngt",
    "score_records",
    "selfcheck",
    "threshold_accuracy",
    "write_dataset",
    "write_ngt",
    "write_scene",
    "__version__",
]
