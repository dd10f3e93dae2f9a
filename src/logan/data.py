"""Dataset columns, ingestion validation, and feature standardization.

A dataset is a set of read-only per-row columns (features, group, label,
prediction, optional score and text), filled by one row validator.
Everything downstream assumes a *binary* group attribute: a dataset holds
exactly two distinct group identities, kept in lexicographic order so that
all reported gaps are reproducible.  Datasets are immutable once built.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping, Sequence

import numpy as np


class ValidationError(ValueError):
    """Raised when records or configuration violate a dataset invariant."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """Validated, immutable per-row columns with a fixed feature dimension.

    ``feature_matrix`` is the (n, dim) float64 feature array; ``group_codes``
    (0 for ``groups[0]``, 1 for ``groups[1]``), ``labels`` and ``preds`` are
    int8.  ``scores`` holds each row's classifier confidence for class 1
    (required by the AUC metric), NaN where a row has none; ``texts`` holds
    optional raw text, used only for per-cluster token summaries.
    ``groups`` holds the two group identities in lexicographic order; all
    per-group outputs elsewhere follow this order.  Array columns are made
    read-only on construction.
    """

    ids: tuple[str, ...]
    feature_matrix: np.ndarray
    group_codes: np.ndarray
    labels: np.ndarray
    preds: np.ndarray
    scores: np.ndarray
    texts: tuple[str | None, ...]
    groups: tuple[str, str]

    def __post_init__(self) -> None:
        for column in (self.feature_matrix, self.group_codes, self.labels,
                       self.preds, self.scores):
            column.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.feature_matrix.shape[1]

    @property
    def correct_flags(self) -> np.ndarray:
        """(n,) int8 array: 1 where prediction equals label."""
        return (self.labels == self.preds).astype(np.int8)

    def group_sizes(self) -> tuple[int, int]:
        n1 = int(np.sum(self.group_codes == 0))
        return n1, self.n - n1


@dataclass(frozen=True)
class LoganConfig:
    """Knobs for the full detection pipeline; each field is the ``detect``
    and ``baseline`` flag of its name, with ``metadata["help"]`` as help.

    ``min_cluster_total`` / ``min_clusters`` drive small-cluster merging;
    ``min_per_group`` and ``bias_threshold`` gate which clusters may be
    flagged as biased.  The bias weight is an argument of each fit.
    """

    k: int = field(default=10, metadata={"help": "initial cluster count"})
    max_iter: int = 100
    seed: int = field(default=0, metadata={"help": "RNG seed"})
    min_cluster_total: int = 20
    min_clusters: int = 5
    min_per_group: int = 20
    bias_threshold: float = 0.05

    def __post_init__(self) -> None:
        if self.min_clusters < 1:
            raise ValidationError(f"min_clusters must be >= 1, got {self.min_clusters}")
        if self.k < self.min_clusters:
            raise ValidationError(
                f"k ({self.k}) must be >= min_clusters ({self.min_clusters})"
            )
        if self.max_iter < 1:
            raise ValidationError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if not math.isfinite(self.bias_threshold) or self.bias_threshold < 0:
            raise ValidationError(
                f"bias_threshold must be finite and >= 0, got {self.bias_threshold}"
            )
        if self.min_cluster_total < 0 or self.min_per_group < 0:
            raise ValidationError("count thresholds must be >= 0")


def _check_binary(value: Any, name: str, row_id: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value not in (0, 1):
        raise ValidationError(f"{name} must be 0 or 1 for instance {row_id!r}, got {value!r}")
    return value


def _check_score(value: Any, row_id: str) -> float:
    if value is None:
        return math.nan
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"score must be a number for instance {row_id!r}")
    try:
        score = float(value)
    except OverflowError:  # an int too large for a float
        raise ValidationError(f"score outside [0, 1] for instance {row_id!r}") from None
    if not 0.0 <= score <= 1.0:
        raise ValidationError(
            f"score {score} outside [0, 1] for instance {row_id!r}"
        )
    return score


_NUMBER_TYPES = frozenset((float, int))


def _is_clean(values: Sequence[Any]) -> bool:
    """True when every value is a float or a non-bool int and converts to
    a finite float.  ``fsum`` raises on an int too large for a float, and
    its sum is NaN or infinite if any value is, so a finite sum clears
    every value.  A sum that overflows from finite values also raises;
    that row, like every row that is not clean, goes to the caller's
    per-value loop, which accepts it or names the bad value."""
    if not set(map(type, values)) <= _NUMBER_TYPES:
        return False
    try:
        return math.isfinite(math.fsum(values))
    except (OverflowError, ValueError):  # ValueError: inf + -inf
        return False


class DatasetBuilder:
    """Fills the columns of a Dataset one validated record at a time.

    ``add`` is the single row validator: loaders call it once per parsed
    record and attach their own line numbers to its errors.  ``finish``
    applies the checks that need every record.
    """

    def __init__(self) -> None:
        self._seen_ids: set[str] = set()
        self._dim: int | None = None
        self._features = array("d")  # row-major, unboxed
        # (id, group, label, pred, score, text) per accepted record
        self._rows: list[tuple[str, str, int, int, float, str | None]] = []

    def add(self, row: Mapping[str, Any]) -> None:
        """Validate one record and append it; a rejected record leaves the
        columns untouched.

        The record needs ``id``, ``features``, ``group``, ``label`` and
        ``pred`` (optional ``score`` and ``text``); the feature dimension
        is fixed by the first record.  Raises ValidationError on a missing
        field, non-numeric or non-finite features, a dimension mismatch, a
        duplicate id, labels or predictions outside {0, 1}, or a score
        outside [0, 1].
        """
        if "id" not in row or not isinstance(row["id"], str) or not row["id"]:
            raise ValidationError(f"instance record missing a string 'id': {row!r}")
        rid = row["id"]
        for key in ("features", "group", "label", "pred"):
            if key not in row:
                raise ValidationError(f"instance {rid!r} missing field {key!r}")
        raw_features = row["features"]
        if not isinstance(raw_features, (list, tuple)) or len(raw_features) == 0:
            raise ValidationError(f"features of instance {rid!r} must be a nonempty list")
        feats = raw_features
        if not _is_clean(raw_features):
            # name the first bad value
            feats = []
            for v in raw_features:
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise ValidationError(f"non-numeric feature in instance {rid!r}: {v!r}")
                try:
                    fv = float(v)
                except OverflowError:  # an int too large for a float
                    raise ValidationError(
                        f"feature out of float range in instance {rid!r}"
                    ) from None
                if not math.isfinite(fv):
                    raise ValidationError(f"non-finite feature in instance {rid!r}: {v!r}")
                feats.append(fv)
        group = row["group"]
        if not isinstance(group, str) or not group:
            raise ValidationError(f"group of instance {rid!r} must be a nonempty string")
        text = row.get("text")
        if text is not None and not isinstance(text, str):
            raise ValidationError(f"text of instance {rid!r} must be a string")
        label, pred, score = row["label"], row["pred"], row.get("score")
        if type(label) is not int or label not in (0, 1):
            label = _check_binary(label, "label", rid)
        if type(pred) is not int or pred not in (0, 1):
            pred = _check_binary(pred, "pred", rid)
        if type(score) is not float or not 0.0 <= score <= 1.0:
            score = _check_score(score, rid)
        if self._dim is None:
            self._dim = len(feats)
        elif len(feats) != self._dim:
            raise ValidationError(
                f"instance {rid!r} has {len(feats)} features, expected {self._dim}"
            )
        if rid in self._seen_ids:
            raise ValidationError(f"duplicate instance id {rid!r}")
        self._seen_ids.add(rid)
        self._features.extend(feats)
        self._rows.append((rid, group, label, pred, score, text))

    def finish(self) -> Dataset:
        """Assemble the Dataset; group order is canonicalized
        lexicographically.  Raises ValidationError on zero records or a
        group count other than exactly two."""
        n = len(self._rows)
        if n == 0:
            raise ValidationError("cannot build a dataset from zero records")
        ids, groups, labels, preds, scores, texts = zip(*self._rows)
        group_names = sorted(set(groups))
        if len(group_names) != 2:
            raise ValidationError(
                f"dataset must contain exactly two groups, found {len(group_names)}: "
                f"{group_names}"
            )
        second = group_names[1]
        return Dataset(
            ids=ids,
            feature_matrix=np.array(self._features, dtype=np.float64).reshape(n, self._dim),
            group_codes=np.array([g == second for g in groups], dtype=np.int8),
            labels=np.array(labels, dtype=np.int8),
            preds=np.array(preds, dtype=np.int8),
            scores=np.array(scores, dtype=np.float64),
            texts=texts,
            groups=(group_names[0], second),
        )


def build_dataset(rows: Iterable[Mapping[str, Any]]) -> Dataset:
    """Validate raw records (see ``DatasetBuilder.add``) and assemble a
    Dataset.  Raises ValidationError on the first invalid record, on empty
    input, or on a group count other than exactly two."""
    builder = DatasetBuilder()
    for row in rows:
        builder.add(row)
    return builder.finish()


def standardize_features(dataset: Dataset) -> Dataset:
    """Return a copy of the dataset with z-scored feature coordinates.

    Each coordinate is centered to mean 0 and scaled to unit (population)
    standard deviation.  Constant coordinates are set to exactly 0.  The
    input dataset is left untouched.  Raises ``ValidationError`` when a
    coordinate's mean or standard deviation is not finite.
    """
    mat = dataset.feature_matrix
    constant = np.all(mat == mat[0], axis=0)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        mean = mat.mean(axis=0)
        std = mat.std(axis=0)
    bad = ~(np.isfinite(mean) & np.isfinite(std))
    if bad.any():
        raise ValidationError(
            f"feature coordinate {int(bad.argmax())} has a mean or standard "
            "deviation that overflows float64; rescale the features"
        )
    out = mat - mean
    scale_cols = ~constant & (std > 0)
    out[:, scale_cols] /= std[scale_cols]
    out[:, constant] = 0.0
    return replace(dataset, feature_matrix=out)
