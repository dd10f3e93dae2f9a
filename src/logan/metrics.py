"""Subset performance metrics and between-group gap computations.

All operations are pure functions of a dataset's columns and a subset of
its rows, given as integer row indices or a boolean mask (rows keep their
order either way).  Metrics that are undefined on a subset (AUC with a
single class, FPR with no negatives, anything on an empty subset) return
``None`` rather than raising; callers treat such subsets as
non-detectable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import Dataset


class MetricKind(Enum):
    """Performance metric used to measure the between-group disparity."""

    ACCURACY = "accuracy"
    SUBGROUP_AUC = "auc"
    FPR = "fpr"


@dataclass(frozen=True)
class GapResult:
    """Per-group performance on one subset plus their absolute difference.

    ``gap`` is None whenever either group's performance is undefined
    (empty group, degenerate AUC/FPR subset).
    """

    perf_group1: float | None
    perf_group2: float | None
    gap: float | None
    n_group1: int
    n_group2: int


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``, tied values sharing their mean rank."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def _auc_from_arrays(labels: np.ndarray, scores: np.ndarray) -> float | None:
    """Rank-based AUC (Mann-Whitney form); ties between a positive and a
    negative score are credited 0.5.  None when either class is absent."""
    n_pos = int(np.sum(labels == 1))
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _average_ranks(scores)
    rank_sum = float(np.sum(ranks[labels == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _require_scores(dataset: Dataset, idx: np.ndarray) -> None:
    """Raise ValueError naming the first of the rows ``idx`` without a
    score."""
    missing = np.isnan(dataset.scores[idx])
    if missing.any():
        first = dataset.ids[idx[np.argmax(missing)]]
        raise ValueError(f"AUC requires a score on every instance; missing for {first!r}")


def performance(dataset: Dataset, rows: np.ndarray, kind: MetricKind) -> float | None:
    """Performance of the model on the selected rows under the given metric.

    Accuracy: fraction of rows with prediction == label.
    FPR: among label==0 rows, fraction predicted 1 (None if no
    negatives).  Subgroup AUC: probability a random (positive, negative)
    pair is ranked correctly by score, ties credited 0.5 (None if either
    class is absent; raises ValueError if any score is missing).

    Returns None on an empty subset.
    """
    idx = np.arange(dataset.n)[rows]
    if len(idx) == 0:
        return None
    if kind is MetricKind.ACCURACY:
        return int(np.count_nonzero(dataset.labels[idx] == dataset.preds[idx])) / len(idx)
    if kind is MetricKind.FPR:
        negatives = idx[dataset.labels[idx] == 0]
        if len(negatives) == 0:
            return None
        return int(np.count_nonzero(dataset.preds[negatives] == 1)) / len(negatives)
    if kind is MetricKind.SUBGROUP_AUC:
        _require_scores(dataset, idx)
        return _auc_from_arrays(dataset.labels[idx], dataset.scores[idx])
    raise ValueError(f"unknown metric kind: {kind!r}")


def group_gap(dataset: Dataset, rows: np.ndarray, kind: MetricKind) -> GapResult:
    """Per-group performance on the selected rows and the absolute gap
    between them; groups follow ``dataset.groups``."""
    idx = np.arange(dataset.n)[rows]
    if len(idx) == 0:
        raise ValueError("group_gap requires a nonempty subset")
    if kind is MetricKind.SUBGROUP_AUC:
        _require_scores(dataset, idx)  # the first in row order, not group order
    in_first = dataset.group_codes[idx] == 0
    sub1 = idx[in_first]
    sub2 = idx[~in_first]
    p1 = performance(dataset, sub1, kind)
    p2 = performance(dataset, sub2, kind)
    gap = None if p1 is None or p2 is None else abs(p1 - p2)
    return GapResult(
        perf_group1=p1,
        perf_group2=p2,
        gap=gap,
        n_group1=len(sub1),
        n_group2=len(sub2),
    )


def global_bias(dataset: Dataset, kind: MetricKind) -> GapResult:
    """Corpus-level gap: the group disparity over the entire dataset."""
    return group_gap(dataset, np.arange(dataset.n), kind)


def random_split_baseline(
    dataset: Dataset,
    kind: MetricKind,
    runs: int = 5,
    seed: int = 0,
) -> tuple[float, float]:
    """Mean and std of the gap between two random pseudo-groups.

    Each run partitions the rows uniformly at random into two
    pseudo-groups whose sizes match the real group sizes, then measures the
    performance gap between them.  This calibrates how large a gap arises
    from sampling noise alone, which is what a bias threshold has to beat.

    Runs where the gap is undefined are skipped; if every run is undefined
    the result is (nan, nan).  For AUC, a row without a score raises
    ValueError naming the first such row in file order, before any run.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if kind is MetricKind.SUBGROUP_AUC:
        _require_scores(dataset, np.arange(dataset.n))
    rng = np.random.default_rng(seed)
    n1, _ = dataset.group_sizes()
    gaps = []
    for _ in range(runs):
        perm = rng.permutation(dataset.n)
        pa = performance(dataset, perm[:n1], kind)
        pb = performance(dataset, perm[n1:], kind)
        if pa is None or pb is None:
            continue
        gaps.append(abs(pa - pb))
    if not gaps:
        return math.nan, math.nan
    return float(np.mean(gaps)), float(np.std(gaps))
