"""Grid search over the bias-loss weight.

Each candidate weight runs the full fit -> merge -> report pipeline from
the same seed, so the weight is the only varying factor.  The winner is the
weight whose clustering exposes the most biased clusters; ties go to the
larger maximum gap, then to the smaller weight.  The rule is order-free, so
permuting the grid cannot change the choice.

The cells share nothing but their inputs, so they run concurrently in
worker processes forked from the caller, one per usable CPU (at most one
per cell).  The workers inherit the dataset, config and seeds through the
fork; only each weight goes to a worker and only each finished cell comes
back.  Every cell runs the same code on the same inputs as in the caller,
so the results are bit-identical to fitting the cells one after another,
which is what happens when there is one usable CPU or one cell, when the
platform cannot fork, or when the caller is a daemonic process (which may
not have children).  Forking a process that runs other threads can leave
a lock held in the child forever, so do not call ``grid_search`` from a
multi-threaded program.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .clustering import ClusterModel, logan_fit
from .data import Dataset, LoganConfig
from .postprocess import ClusterReport, cluster_reports, merge_small_clusters


@dataclass(frozen=True)
class GridCell:
    """One evaluated grid point: merged model plus its bias summary."""

    lam: float
    model: ClusterModel
    reports: tuple[ClusterReport, ...]
    biased_count: int
    max_gap: float


@dataclass(frozen=True)
class GridResult:
    """All grid cells (in the order given) and the selected one."""

    cells: tuple[GridCell, ...]
    chosen: GridCell

    @property
    def chosen_lambda(self) -> float:
        return self.chosen.lam


def grid_search(
    dataset: Dataset,
    cfg: LoganConfig,
    lambdas: Sequence[float],
    initial_centroids: np.ndarray | None = None,
) -> GridResult:
    """Fit, merge and report once per candidate weight; pick the best.

    Every fit starts from ``initial_centroids``, or from the k-means++
    seeds of ``cfg.seed`` when they are not given.  ``max_gap`` per cell is
    the largest accuracy gap over detectable clusters (0 when none is
    detectable).  The cells run in forked worker processes (see the module
    docstring); an exception raised by a cell is raised here, that of the
    first failing cell in grid order, and a worker that dies raises
    ``concurrent.futures.process.BrokenProcessPool``, a ``RuntimeError``.
    """
    if len(lambdas) == 0:
        raise ValueError("lambda grid must be nonempty")
    if any(lam < 0 for lam in lambdas):
        raise ValueError("lambda values must be >= 0")
    workers = _worker_count(len(lambdas))
    context = _fork_context() if workers > 1 else None
    if context is None:
        cells = [_fit_cell(dataset, cfg, initial_centroids, lam) for lam in lambdas]
    else:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(
            workers,
            mp_context=context,
            initializer=_init_worker,
            initargs=(dataset, cfg, initial_centroids),
        )
        try:
            cells = list(pool.map(_worker_cell, lambdas))
        finally:
            # after a failed cell, start none of the later ones, as the
            # in-process loop would not
            pool.shutdown(cancel_futures=True)
    best = max(cells, key=lambda c: (c.biased_count, c.max_gap, -c.lam))
    return GridResult(cells=tuple(cells), chosen=best)


def _fit_cell(
    dataset: Dataset,
    cfg: LoganConfig,
    initial_centroids: np.ndarray | None,
    lam: float,
) -> GridCell:
    cell_cfg = replace(cfg, lam=float(lam))
    model = merge_small_clusters(
        logan_fit(dataset, cell_cfg, initial_centroids), dataset, cell_cfg
    )
    reports = cluster_reports(model, dataset, cell_cfg)
    gaps = [
        r.accuracy_gap()
        for r in reports
        if r.detectable and r.accuracy_gap() is not None
    ]
    return GridCell(
        lam=float(lam),
        model=model,
        reports=tuple(reports),
        biased_count=sum(1 for r in reports if r.biased),
        max_gap=max(gaps, default=0.0),
    )


def _worker_count(n_cells: int) -> int:
    """One worker per CPU this process may run on, at most one per cell."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    return min(n_cells, cpus)


def _fork_context():
    """The fork start method's context, or None where workers cannot be
    forked here.  Fork, not the platform default: a spawned or forkserver
    worker would import logan afresh and receive a pickled copy of the
    dataset."""
    import multiprocessing

    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
    ):
        return None
    return multiprocessing.get_context("fork")


# The inputs every cell of a worker process shares, set once per worker by
# _init_worker.  Under fork, initargs are inherited, not pickled.
_worker_inputs: tuple = ()


def _init_worker(
    dataset: Dataset, cfg: LoganConfig, initial_centroids: np.ndarray | None
) -> None:
    global _worker_inputs
    _worker_inputs = (dataset, cfg, initial_centroids)


def _worker_cell(lam: float) -> GridCell:
    return _fit_cell(*_worker_inputs, lam)
