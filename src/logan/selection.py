"""Grid search over the bias-loss weight.

Each candidate weight runs the full fit -> merge -> report pipeline from
the same seed, so the weight is the only varying factor.  The winner is the
weight whose clustering exposes the most biased clusters; ties go to the
larger maximum gap, then to the smaller weight.  The rule is order-free, so
permuting the grid cannot change the choice.
"""

from __future__ import annotations

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
    detectable).
    """
    if len(lambdas) == 0:
        raise ValueError("lambda grid must be nonempty")
    if any(lam < 0 for lam in lambdas):
        raise ValueError("lambda values must be >= 0")
    cells = []
    for lam in lambdas:
        cell_cfg = replace(cfg, lam=float(lam))
        model = merge_small_clusters(
            logan_fit(dataset, cell_cfg, initial_centroids), dataset, cell_cfg
        )
        reports = cluster_reports(model, dataset, cell_cfg)
        biased_count = sum(1 for r in reports if r.biased)
        gaps = [
            r.accuracy_gap()
            for r in reports
            if r.detectable and r.accuracy_gap() is not None
        ]
        cells.append(
            GridCell(
                lam=float(lam),
                model=model,
                reports=tuple(reports),
                biased_count=biased_count,
                max_gap=max(gaps, default=0.0),
            )
        )
    best = max(cells, key=lambda c: (c.biased_count, c.max_gap, -c.lam))
    return GridResult(cells=tuple(cells), chosen=best)
