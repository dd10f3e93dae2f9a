"""Grid search over the bias-loss weight, with the k-means baseline.

The k-means baseline every cell is compared against is the pipeline at
weight 0.  It is fitted first, in the caller, from the k-means++ seeds of
``cfg.seed``, drawn once; a failing baseline is raised before any other
cell starts.  Every weight above 0 then runs the fit -> merge -> count
pipeline from that fit's final centroids, before merging, with the same
config; the weight is an argument of the fit and the only varying factor.
A warm start makes a cell's work the moves that its weight buys over
k-means: a weight that buys none converges in one sweep on the k-means
fit itself.  Regularization paths warm-start each penalty the same way
(Friedman, Hastie & Tibshirani, J. Stat. Softw. 2010).

A cell keeps its merged model and its ``cluster_table``, the count of rows
that the choice, the biased flags and ``cluster_reports`` all read.  The
winner is the weight whose clustering exposes the most biased clusters;
ties go to the larger maximum gap, then to the smaller weight.  The rule
is order-free, so permuting the grid cannot change the choice.  Each
distinct weight is fitted once: a grid holding 0 reuses the baseline cell,
and a repeated weight reuses its first cell.

The cells above weight 0 share nothing but their inputs, so they run
concurrently in worker processes forked from the caller by
``logan.workers.ForkMap``, one per usable CPU (at most one per cell).  The
workers inherit the dataset, config and k-means centroids through the
fork; only each weight's index goes to a worker and only each finished
cell comes back.  Every cell runs the same code on the same inputs as in
the caller, so the results are bit-identical to fitting the cells one
after another, which is what happens when there is one usable CPU or one
cell, when the platform cannot fork, or when the caller is a daemonic
process (which may not have children).  Forking a process that runs other
threads can leave a lock held in the child forever, so do not call
``grid_search`` from a multi-threaded program.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

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
) -> GridResult:
    """Fit, merge and count once per candidate weight; pick the best.

    The k-means fit, the weight-0 cell, starts from the k-means++ seeds of
    ``cfg.seed``; every other weight starts from that fit's final
    centroids, before merging.  ``max_gap`` per cell is the largest
    accuracy gap over detectable clusters (0 when none is detectable).
    The baseline is fitted in the caller, and each distinct weight only
    once; the other cells run in forked worker processes (see the module
    docstring).  An exception raised by a cell is raised here, that of the
    baseline before any worker starts and then that of the first failing
    cell in grid order, and a worker that dies raises ``RuntimeError``.
    The grid passes ``check_grid`` before any fit.
    """
    grid = check_grid(lambdas)
    kmeans = logan_fit(dataset, cfg, 0.0)
    baseline = _cell(dataset, cfg, 0.0, kmeans)
    # -0.0 == 0.0, so both reuse the baseline cell
    weights = list(dict.fromkeys(lam for lam in grid if lam != 0.0))
    # imported here, so that importing logan loads no worker code
    from .workers import ForkMap

    with ForkMap(partial(_fit_cell, dataset, cfg, kmeans.centroids), weights) as results:
        by_weight = {0.0: baseline, **dict(zip(weights, results()))}
    # each entry keeps its own weight, so a -0.0 entry still reads -0.0
    cells = [replace(by_weight[lam], lam=lam) for lam in grid]
    best = max(cells, key=lambda c: (c.biased_count, c.max_gap, -c.lam))
    return GridResult(cells=tuple(cells), chosen=best, baseline=baseline)


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
    initial_centroids: np.ndarray,
    lam: float,
) -> GridCell:
    return _cell(dataset, cfg, lam, logan_fit(dataset, cfg, lam, initial_centroids))


def _cell(dataset: Dataset, cfg: LoganConfig, lam: float, fit: ClusterModel) -> GridCell:
    """The grid cell of ``fit``: its merged model, count and bias summary."""
    model = merge_small_clusters(fit, dataset, cfg)
    table = cluster_table(model, dataset)
    detectable, biased = bias_flags(table, cfg)
    accuracy = table_gaps(table, MetricKind.ACCURACY)
    gaps = [r.gap for r, d in zip(accuracy, detectable) if d and r.gap is not None]
    return GridCell(lam, model, table, sum(biased), max(gaps, default=0.0))
