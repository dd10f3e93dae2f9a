"""Dataset types, ingestion validation, and feature standardization.

Everything downstream assumes a *binary* group attribute: a dataset holds
exactly two distinct group identities, kept in lexicographic order so that
all reported gaps are reproducible.  Datasets are immutable once built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Any, Iterable, Mapping

import numpy as np


class ValidationError(ValueError):
    """Raised when records or configuration violate a dataset invariant."""


@dataclass(frozen=True)
class Instance:
    """One evaluation example: feature vector plus group, label, prediction.

    ``score`` is an optional classifier confidence for class 1 (required by
    the AUC metric); ``text`` is optional raw text used only for building
    per-cluster token summaries.
    """

    id: str
    features: tuple[float, ...]
    group: str
    label: int
    prediction: int
    score: float | None = None
    text: str | None = None

    @property
    def correct(self) -> bool:
        return self.prediction == self.label


@dataclass(frozen=True)
class Dataset:
    """Validated, immutable collection of instances with a fixed dimension.

    ``groups`` holds the two group identities in lexicographic order; all
    per-group outputs elsewhere follow this order.
    """

    instances: tuple[Instance, ...]
    dim: int
    groups: tuple[str, str]

    @property
    def n(self) -> int:
        return len(self.instances)

    @cached_property
    def feature_matrix(self) -> np.ndarray:
        """(n, dim) float64 matrix of instance features."""
        mat = np.array([inst.features for inst in self.instances], dtype=np.float64)
        mat.setflags(write=False)
        return mat

    @cached_property
    def group_codes(self) -> np.ndarray:
        """(n,) int8 array: 0 for ``groups[0]``, 1 for ``groups[1]``."""
        codes = np.array(
            [0 if inst.group == self.groups[0] else 1 for inst in self.instances],
            dtype=np.int8,
        )
        codes.setflags(write=False)
        return codes

    @cached_property
    def correct_flags(self) -> np.ndarray:
        """(n,) int8 array: 1 where prediction equals label."""
        flags = np.array(
            [1 if inst.correct else 0 for inst in self.instances], dtype=np.int8
        )
        flags.setflags(write=False)
        return flags

    def group_sizes(self) -> tuple[int, int]:
        n1 = int(np.sum(self.group_codes == 0))
        return n1, self.n - n1


@dataclass(frozen=True)
class LoganConfig:
    """Knobs for the full detection pipeline.

    ``lam`` weights the bias-gap reward against the clustering loss;
    ``min_cluster_total`` / ``min_clusters`` drive small-cluster merging;
    ``min_per_group`` and ``bias_threshold`` gate which clusters may be
    flagged as biased.  ``normalize_clustering_loss`` divides the clustering
    loss by n inside the optimized objective (off by default, so ``lam``
    acts on the raw inertia scale).
    """

    k: int = 10
    lam: float = 1.0
    max_iter: int = 100
    seed: int = 0
    min_cluster_total: int = 20
    min_clusters: int = 5
    min_per_group: int = 20
    bias_threshold: float = 0.05
    standardize: bool = False
    normalize_clustering_loss: bool = False

    def __post_init__(self) -> None:
        if self.min_clusters < 1:
            raise ValidationError(f"min_clusters must be >= 1, got {self.min_clusters}")
        if self.k < self.min_clusters:
            raise ValidationError(
                f"k ({self.k}) must be >= min_clusters ({self.min_clusters})"
            )
        if not math.isfinite(self.lam) or self.lam < 0:
            raise ValidationError(f"lam must be finite and >= 0, got {self.lam}")
        if self.max_iter < 1:
            raise ValidationError(f"max_iter must be >= 1, got {self.max_iter}")
        if not math.isfinite(self.bias_threshold) or self.bias_threshold < 0:
            raise ValidationError(
                f"bias_threshold must be finite and >= 0, got {self.bias_threshold}"
            )
        if self.min_cluster_total < 0 or self.min_per_group < 0:
            raise ValidationError("count thresholds must be >= 0")

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _check_binary(value: Any, name: str, row_id: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value not in (0, 1):
        raise ValidationError(f"{name} must be 0 or 1 for instance {row_id!r}, got {value!r}")
    return value


def _check_score(value: Any, row_id: str) -> float | None:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"score must be a number for instance {row_id!r}")
    score = float(value)
    if not 0.0 <= score <= 1.0:
        raise ValidationError(
            f"score {score} outside [0, 1] for instance {row_id!r}"
        )
    return score


def _row_to_instance(row: Mapping[str, Any]) -> Instance:
    if "id" not in row or not isinstance(row["id"], str) or not row["id"]:
        raise ValidationError(f"instance record missing a string 'id': {row!r}")
    rid = row["id"]
    for key in ("features", "group", "label", "pred"):
        if key not in row:
            raise ValidationError(f"instance {rid!r} missing field {key!r}")
    raw_features = row["features"]
    if not isinstance(raw_features, (list, tuple)) or len(raw_features) == 0:
        raise ValidationError(f"features of instance {rid!r} must be a nonempty list")
    feats = []
    for v in raw_features:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValidationError(f"non-numeric feature in instance {rid!r}: {v!r}")
        fv = float(v)
        if not math.isfinite(fv):
            raise ValidationError(f"non-finite feature in instance {rid!r}: {v!r}")
        feats.append(fv)
    group = row["group"]
    if not isinstance(group, str) or not group:
        raise ValidationError(f"group of instance {rid!r} must be a nonempty string")
    text = row.get("text")
    if text is not None and not isinstance(text, str):
        raise ValidationError(f"text of instance {rid!r} must be a string")
    return Instance(
        id=rid,
        features=tuple(feats),
        group=group,
        label=_check_binary(row["label"], "label", rid),
        prediction=_check_binary(row["pred"], "pred", rid),
        score=_check_score(row.get("score"), rid),
        text=text,
    )


def build_dataset(rows: Iterable[Mapping[str, Any]]) -> Dataset:
    """Validate raw records and assemble a Dataset.

    Each record needs ``id``, ``features``, ``group``, ``label`` and ``pred``
    (optional ``score`` and ``text``).  The feature dimension is inferred
    from the first record; group order is canonicalized lexicographically.

    Raises ValidationError on: empty input, dimension mismatch, duplicate
    ids, non-finite features, labels or predictions outside {0, 1}, scores
    outside [0, 1], or a group count other than exactly two.
    """
    instances = [_row_to_instance(row) for row in rows]
    if not instances:
        raise ValidationError("cannot build a dataset from zero records")
    dim = len(instances[0].features)
    seen_ids: set[str] = set()
    for inst in instances:
        if len(inst.features) != dim:
            raise ValidationError(
                f"instance {inst.id!r} has {len(inst.features)} features, expected {dim}"
            )
        if inst.id in seen_ids:
            raise ValidationError(f"duplicate instance id {inst.id!r}")
        seen_ids.add(inst.id)
    group_names = sorted({inst.group for inst in instances})
    if len(group_names) != 2:
        raise ValidationError(
            f"dataset must contain exactly two groups, found {len(group_names)}: "
            f"{group_names}"
        )
    return Dataset(
        instances=tuple(instances),
        dim=dim,
        groups=(group_names[0], group_names[1]),
    )


def standardize_features(dataset: Dataset) -> Dataset:
    """Return a copy of the dataset with z-scored feature coordinates.

    Each coordinate is centered to mean 0 and scaled to unit (population)
    standard deviation.  Constant coordinates are set to exactly 0.  The
    input dataset is left untouched.
    """
    mat = np.array(dataset.feature_matrix, dtype=np.float64)
    constant = np.all(mat == mat[0], axis=0)
    mean = mat.mean(axis=0)
    std = mat.std(axis=0)
    out = mat - mean
    scale_cols = ~constant & (std > 0)
    out[:, scale_cols] /= std[scale_cols]
    out[:, constant] = 0.0
    new_instances = tuple(
        replace(inst, features=tuple(float(v) for v in out[i]))
        for i, inst in enumerate(dataset.instances)
    )
    return Dataset(instances=new_instances, dim=dataset.dim, groups=dataset.groups)
