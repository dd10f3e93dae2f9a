"""Local group bias auditing for binary classifiers.

A trained model can score near-identically for two demographic groups on a
whole evaluation corpus while performing very differently on some coherent
subset of it.  This package finds such subsets: it clusters evaluation
instances under a joint objective (k-means coherence plus a weighted reward
for large per-cluster performance gaps between the two groups) and reports
which clusters carry bias that corpus-level metrics hide.
"""

from .data import (
    Dataset,
    LoganConfig,
    ValidationError,
    build_dataset,
    standardize_features,
)
from .metrics import (
    GapResult,
    MetricKind,
    global_bias,
    group_gaps,
    performance,
    random_split_baseline,
)
from .clustering import (
    ClusterModel,
    kmeanspp_init,
    logan_fit,
)
from .postprocess import (
    ClusterReport,
    ComparisonReport,
    cluster_reports,
    compare,
    merge_small_clusters,
)
from .selection import GridCell, GridResult, grid_search
from .synthetic import PlantedBiasSpec, generate

__version__ = "0.1.0"

__all__ = [
    "ClusterModel",
    "ClusterReport",
    "ComparisonReport",
    "Dataset",
    "GapResult",
    "GridCell",
    "GridResult",
    "LoganConfig",
    "MetricKind",
    "PlantedBiasSpec",
    "ValidationError",
    "build_dataset",
    "cluster_reports",
    "compare",
    "generate",
    "global_bias",
    "grid_search",
    "group_gaps",
    "kmeanspp_init",
    "logan_fit",
    "merge_small_clusters",
    "performance",
    "random_split_baseline",
    "standardize_features",
]
