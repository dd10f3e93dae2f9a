"""Grid search over the bias-loss weight, with the k-means baseline.

Each candidate weight runs the fit -> merge -> count pipeline from the
same k-means++ seeds, drawn once, and the same config; the weight is an
argument of the fit and the only varying factor.  A cell keeps its merged
model and its ``cluster_table``, the count of rows that the choice, the
biased flags and ``cluster_reports`` all read.  The winner is the weight
whose clustering exposes the most biased clusters; ties go to the larger
maximum gap, then to the smaller weight.  The rule is order-free, so
permuting the grid cannot change the choice.

The k-means baseline every cell is compared against is the same pipeline
at weight 0 (``kmeans_fit`` is ``logan_fit`` with the weight off), so it is
fitted as one more cell, the first, and returned beside the grid's cells.
Each distinct weight is fitted once: a grid holding 0 reuses the baseline
cell, and a repeated weight reuses its first cell.

The cells share nothing but their inputs, so they run concurrently in
worker processes forked from the caller by ``logan.workers.ForkMap``, one
per usable CPU (at most one per cell).  The workers inherit the dataset,
config and seeds through the fork; only each weight's index goes to a
worker and only each finished cell comes back.  Every cell runs the same
code on the same inputs as in the caller, so the results are bit-identical
to fitting the cells one after another, which is what happens when there
is one usable CPU or one cell, when the platform cannot fork, or when the
caller is a daemonic process (which may not have children).  Forking a
process that runs other threads can leave a lock held in the child
forever, so do not call ``grid_search`` from a multi-threaded program.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

from . import clustering
from .clustering import ClusterModel, check_lam, logan_fit
from .data import Dataset, LoganConfig
from .metrics import MetricKind, table_gaps
from .postprocess import bias_flags, cluster_table, merge_small_clusters


@dataclass(frozen=True)
class GridCell:
    """One evaluated grid point: merged model, its ``cluster_table`` and bias summary."""

    lam: float
    model: ClusterModel
    table: np.ndarray
    biased_count: int
    max_gap: float


@dataclass(frozen=True)
class GridResult:
    """All grid cells (in the order given), the selected one, and the
    weight-0 cell, whose merged model is the k-means baseline."""

    cells: tuple[GridCell, ...]
    chosen: GridCell
    baseline: GridCell

    @property
    def chosen_lambda(self) -> float:
        return self.chosen.lam


def grid_search(
    dataset: Dataset,
    cfg: LoganConfig,
    lambdas: Sequence[float],
    initial_centroids: np.ndarray | None = None,
) -> GridResult:
    """Fit, merge and count once per candidate weight; pick the best.

    Every fit starts from ``initial_centroids``, or, when they are not
    given, from the k-means++ seeds of ``cfg.seed``, drawn once here.
    ``max_gap`` per cell is the largest accuracy gap over detectable
    clusters (0 when none is detectable).  The k-means baseline is fitted
    too, as the weight-0 cell, and each distinct weight only once.  The
    cells run in forked worker processes (see the module docstring); an
    exception raised by a cell is raised here, that of the baseline first
    and then of the first failing cell in grid order, and a worker that
    dies raises ``RuntimeError``.  The grid passes ``check_grid`` before
    any fit.
    """
    grid = check_grid(lambdas)
    if initial_centroids is None:
        initial_centroids = clustering.kmeanspp_init(dataset, cfg.k, cfg.seed)
    # the baseline first, so it is fitted (and fails) first
    weights = list(dict.fromkeys([0.0, *grid]))
    # imported here, so that importing logan loads no worker code
    from .workers import ForkMap

    with ForkMap(partial(_fit_cell, dataset, cfg, initial_centroids), weights) as results:
        fitted = results()
    by_weight = dict(zip(weights, fitted))
    # each entry keeps its own weight, so a -0.0 entry still reads -0.0
    cells = [replace(by_weight[lam], lam=lam) for lam in grid]
    best = max(cells, key=lambda c: (c.biased_count, c.max_gap, -c.lam))
    return GridResult(cells=tuple(cells), chosen=best, baseline=fitted[0])


def check_grid(lambdas: Sequence[float]) -> list[float]:
    """The grid's weights as floats; raise ``ValueError`` unless there is
    one at least and each passes ``check_lam``."""
    if len(lambdas) == 0:
        raise ValueError("lambda grid must be nonempty")
    grid = [float(lam) for lam in lambdas]
    for lam in grid:
        check_lam(lam)
    return grid


def _fit_cell(
    dataset: Dataset,
    cfg: LoganConfig,
    initial_centroids: np.ndarray | None,
    lam: float,
) -> GridCell:
    fit = logan_fit(dataset, cfg, lam, initial_centroids)
    model = merge_small_clusters(fit, dataset, cfg)
    table = cluster_table(model, dataset)
    flagged = [(r.gap, *bias_flags(r, cfg)) for r in table_gaps(table, MetricKind.ACCURACY)]
    gaps = [gap for gap, detectable, _ in flagged if detectable and gap is not None]
    return GridCell(lam, model, table, sum(b for _, _, b in flagged), max(gaps, default=0.0))
