"""Per-cell performance metrics and between-group gap computations.

All operations are pure functions of a dataset's columns and a partition
of its rows into cells: ``cells[i]`` in ``[0, n_cells)`` is the cell of
row i (a cluster, the whole corpus, one half of a random split).  Sizes,
accuracy and FPR are read off one count, ``counts``; only AUC reads rows.
Metrics that are undefined on a cell (AUC with a single class, FPR with
no negatives, anything on an empty cell) are ``None`` rather than
raising; callers treat such cells as non-detectable.
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
    """Per-group performance in one cell plus their absolute difference.

    ``gap`` is None whenever either group's performance is undefined
    (empty group, degenerate AUC/FPR cell).
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


def _require_scores(dataset: Dataset) -> None:
    """Raise ValueError naming the first row without a score."""
    missing = np.isnan(dataset.scores)
    if missing.any():
        first = dataset.ids[int(np.argmax(missing))]
        raise ValueError(f"AUC requires a score on every instance; missing for {first!r}")


def _check_cells(dataset: Dataset, cells: np.ndarray, n_cells: int) -> np.ndarray:
    """``cells`` as an index array; ValueError unless it holds one integer
    id in ``[0, n_cells)`` per row."""
    cells = np.asarray(cells)
    if cells.shape != (dataset.n,) or not np.issubdtype(cells.dtype, np.integer):
        raise ValueError(f"cells must hold one integer id per row, got {cells.shape}")
    if cells.size and not 0 <= cells.min() <= cells.max() < n_cells:
        raise ValueError(f"cell ids must lie in [0, {n_cells})")
    return cells.astype(np.intp, copy=False)


def counts(dataset: Dataset, cells: np.ndarray, n_cells: int) -> np.ndarray:
    """Each cell's rows by (label, prediction): an ``(n_cells, 4)`` int
    array whose columns count TN, FP, FN and TP; row i lies in cell
    ``cells[i]``.  Accuracy, FPR and sizes are read off it."""
    cells = _check_cells(dataset, cells, n_cells)
    codes = 4 * cells + 2 * dataset.labels + dataset.preds
    return np.bincount(codes, minlength=4 * n_cells).reshape(n_cells, 4)


def _rates(table: np.ndarray, kind: MetricKind) -> tuple[list[int], list[float | None]]:
    """Size and accuracy or FPR of each cell of a ``counts`` table."""
    rows = np.reshape(table, (-1, 4)).tolist()
    sizes = [sum(c) for c in rows]
    if kind is MetricKind.ACCURACY:
        return sizes, [(c[0] + c[3]) / n if n else None for c, n in zip(rows, sizes)]
    if kind is MetricKind.FPR:
        return sizes, [fp / (tn + fp) if tn + fp else None for tn, fp, _, _ in rows]
    raise ValueError(f"{kind.value} is not read from counts")


def performance(
    dataset: Dataset, cells: np.ndarray, n_cells: int, kind: MetricKind
) -> tuple[list[int], list[float | None]]:
    """Size and performance of each cell; row i lies in cell ``cells[i]``.

    Accuracy: fraction of rows with prediction == label.
    FPR: among label==0 rows, fraction predicted 1 (None if no
    negatives).  Subgroup AUC: probability a random (positive, negative)
    pair is ranked correctly by score, ties credited 0.5 (None if either
    class is absent; raises ValueError if any score is missing).

    Every metric is None on an empty cell.
    """
    if kind is not MetricKind.SUBGROUP_AUC:
        return _rates(counts(dataset, cells, n_cells), kind)
    cells = _check_cells(dataset, cells, n_cells)
    _require_scores(dataset)
    sizes = np.bincount(cells, minlength=n_cells).tolist()
    # rows in ascending order, though no order changes a bit: average ranks
    # depend only on the values, and half-integer rank sums below 2**53 are exact
    members = np.split(np.argsort(cells, kind="stable"), np.cumsum(sizes)[:-1])
    return sizes, [_auc_from_arrays(dataset.labels[m], dataset.scores[m]) for m in members]


def group_gaps(
    dataset: Dataset, cells: np.ndarray, n_cells: int, kind: MetricKind
) -> list[GapResult]:
    """Per-group performance in each cell and the absolute gap between
    them; groups follow ``dataset.groups``."""
    cells = _check_cells(dataset, cells, n_cells)
    return _paired(*performance(dataset, 2 * cells + dataset.group_codes, 2 * n_cells, kind))


def table_gaps(table: np.ndarray, kind: MetricKind) -> list[GapResult]:
    """``group_gaps`` read off a (cell, group, label, prediction) count."""
    return _paired(*_rates(table, kind))


def _paired(sizes: list[int], perfs: list[float | None]) -> list[GapResult]:
    return [
        GapResult(p1, p2, None if p1 is None or p2 is None else abs(p1 - p2), n1, n2)
        for p1, p2, n1, n2 in zip(perfs[::2], perfs[1::2], sizes[::2], sizes[1::2])
    ]


def global_bias(dataset: Dataset, kind: MetricKind) -> GapResult:
    """Corpus-level gap: the group disparity over the entire dataset."""
    return group_gaps(dataset, np.zeros(dataset.n, dtype=np.intp), 1, kind)[0]


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
    ValueError naming the first such row in file order.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    n1, _ = dataset.group_sizes()
    gaps = []
    for _ in range(runs):
        perm = rng.permutation(dataset.n)
        cells = np.zeros(dataset.n, dtype=np.intp)
        cells[perm[n1:]] = 1
        _, (pa, pb) = performance(dataset, cells, 2, kind)
        if pa is None or pb is None:
            continue
        gaps.append(abs(pa - pb))
    if not gaps:
        return math.nan, math.nan
    return float(np.mean(gaps)), float(np.std(gaps))
