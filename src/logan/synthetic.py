"""Planted-bias dataset generation and brute-force verification oracles.

The generator builds a Gaussian-mixture dataset where exactly one component
carries a large between-group accuracy gap while the corpus-level gap stays
near zero: the other components receive a small compensating tilt in the
opposite direction, computed from the realized group counts, so the
expected global gap is exactly zero.  This is the scenario a corpus-level
audit misses and a local audit must find.

The brute-force functions are deliberately naive reference implementations
used to cross-check the optimized code paths; keep them independent of the
modules they verify.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import Dataset, build_dataset

GROUP_1 = "a"
GROUP_2 = "b"


@dataclass(frozen=True)
class PlantedBiasSpec:
    """Recipe for a planted-local-bias dataset, one ``synth`` flag per field.

    ``planted_component`` receives an accuracy gap of ``planted_gap``
    (split ±gap/2 around ``background_acc`` between the two groups);
    component means sit ``component_separation`` standard deviations apart
    so the mixture structure is easily recoverable by clustering.
    """

    n_clusters: int = field(default=5, metadata={"flag": "components"})
    n_per_component: int = 400
    dim: int = 2
    component_separation: float = field(default=8.0, metadata={"flag": "separation"})
    planted_component: int = 0
    planted_gap: float = 0.30
    background_acc: float = 0.85
    group_balance: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_clusters < 1 or self.n_per_component < 1 or self.dim < 1:
            raise ValueError("n_clusters, n_per_component and dim must be >= 1")
        if not 0.0 <= self.planted_gap <= 1.0:
            raise ValueError(f"planted_gap must be in [0, 1], got {self.planted_gap}")
        if not math.isfinite(self.background_acc):
            raise ValueError(f"background_acc must be finite, got {self.background_acc}")
        lo = self.background_acc - self.planted_gap / 2.0
        hi = self.background_acc + self.planted_gap / 2.0
        if lo < 0.0 or hi > 1.0:
            raise ValueError(
                f"background_acc ± planted_gap/2 = [{lo}, {hi}] leaves [0, 1]"
            )
        if not 0.0 < self.group_balance < 1.0:
            raise ValueError(f"group_balance must be in (0, 1), got {self.group_balance}")
        if not 0 <= self.planted_component < self.n_clusters:
            raise ValueError(
                f"planted_component {self.planted_component} out of range "
                f"[0, {self.n_clusters})"
            )
        if not 0.0 < self.component_separation < math.inf:
            raise ValueError(
                "component_separation must be finite and positive, "
                f"got {self.component_separation}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


_GLOBAL_GAP_LIMIT = 0.02
_MAX_RESAMPLES = 10


def _accuracy_targets(
    spec: PlantedBiasSpec, comp: np.ndarray, in_group1: np.ndarray
) -> np.ndarray:
    """Per-instance probability of a correct prediction.

    The planted component gets background ± gap/2 per group; the remaining
    components get a small opposite tilt sized from the realized counts so
    the expected corpus-level accuracy is identical for both groups.
    """
    planted = comp == spec.planted_component
    half_gap = spec.planted_gap / 2.0
    targets = np.full(len(comp), spec.background_acc, dtype=np.float64)
    if spec.planted_gap == 0.0:
        return targets
    tilt = []
    for grp_mask, sign in ((in_group1, 1.0), (~in_group1, -1.0)):
        n_planted = int(np.sum(grp_mask & planted))
        n_other = int(np.sum(grp_mask & ~planted))
        if n_other == 0:
            raise ValueError(
                "cannot balance the global gap: a group has no instances "
                "outside the planted component"
            )
        tilt.append(sign * n_planted * half_gap / n_other)
    targets[in_group1 & planted] = spec.background_acc + half_gap
    targets[~in_group1 & planted] = spec.background_acc - half_gap
    targets[in_group1 & ~planted] = spec.background_acc - tilt[0]
    targets[~in_group1 & ~planted] = spec.background_acc - tilt[1]
    bad = (targets < 0.0) | (targets > 1.0)
    if bad.any():
        raise ValueError("infeasible spec: an accuracy target leaves [0, 1]")
    return targets


def generate(spec: PlantedBiasSpec) -> Dataset:
    """Draw a planted-bias dataset; deterministic for a given spec.

    Prediction noise is redrawn (up to 10 attempts) until the realized
    corpus-level accuracy gap is below 2%, so the planted bias is genuinely
    invisible at the global level.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_clusters * spec.n_per_component
    means = np.zeros((spec.n_clusters, spec.dim), dtype=np.float64)
    means[:, 0] = np.arange(spec.n_clusters) * spec.component_separation
    comp = np.repeat(np.arange(spec.n_clusters), spec.n_per_component)
    features = means[comp] + rng.standard_normal((n, spec.dim))
    in_group1 = rng.random(n) < spec.group_balance
    if int(in_group1.sum()) in (0, n):
        raise ValueError("degenerate draw: one group received no instances")
    labels = rng.integers(0, 2, size=n)
    targets = _accuracy_targets(spec, comp, in_group1)

    for _ in range(_MAX_RESAMPLES):
        correct = rng.random(n) < targets
        preds = np.where(correct, labels, 1 - labels)
        acc1 = float(np.mean(correct[in_group1]))
        acc2 = float(np.mean(correct[~in_group1]))
        if abs(acc1 - acc2) < _GLOBAL_GAP_LIMIT:
            break
    else:
        raise RuntimeError(
            f"could not realize a global gap below {_GLOBAL_GAP_LIMIT} in "
            f"{_MAX_RESAMPLES} attempts"
        )

    noise = rng.random(n)
    scores = np.where(preds == 1, 0.5 + 0.5 * noise, 0.5 * noise)
    rows = []
    for i in range(n):
        rows.append(
            {
                "id": f"c{comp[i]}-{i:05d}",
                "features": [float(v) for v in features[i]],
                "group": GROUP_1 if in_group1[i] else GROUP_2,
                "label": int(labels[i]),
                "pred": int(preds[i]),
                "score": float(scores[i]),
            }
        )
    return build_dataset(rows)


_BRUTE_FORCE_CAP = 2_000_000


def brute_force_objective(
    dataset: Dataset, k: int, lam: float
) -> tuple[float, np.ndarray]:
    """Exhaustive minimum of the joint objective over all k^n assignments.

    Centroids sit at cluster means; empty clusters contribute nothing.
    Only usable on tiny instances (k^n capped at 2e6).
    """
    n = dataset.n
    if k**n > _BRUTE_FORCE_CAP:
        raise ValueError(f"instance too large for enumeration: {k}^{n} > {_BRUTE_FORCE_CAP}")
    X = dataset.feature_matrix
    g = dataset.group_codes
    w = dataset.correct_flags
    best_total = math.inf
    best_assign: tuple[int, ...] | None = None
    for assign in itertools.product(range(k), repeat=n):
        aa = np.asarray(assign)
        l_c = 0.0
        l_b = 0.0
        for j in range(k):
            members = aa == j
            if not members.any():
                continue
            pts = X[members]
            mu = pts.mean(axis=0)
            l_c += float(np.sum((pts - mu) ** 2))
            n1 = int(np.sum(members & (g == 0)))
            n2 = int(np.sum(members & (g == 1)))
            if n1 > 0 and n2 > 0:
                c1 = int(np.sum(members & (g == 0) & (w == 1)))
                c2 = int(np.sum(members & (g == 1) & (w == 1)))
                d = c1 / n1 - c2 / n2
                l_b -= d * d
        total = l_c + lam * l_b
        if total < best_total:
            best_total = total
            best_assign = assign
    assert best_assign is not None
    return best_total, np.array(best_assign, dtype=np.int64)


def brute_force_auc(labels: Sequence[int], scores: Sequence[float]) -> float:
    """All-pairs AUC with 0.5 credit for score ties; the reference the
    rank-based implementation is checked against.  A missing score is
    NaN."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    if np.isnan(scores).any():
        raise ValueError("brute_force_auc requires a score on every instance")
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("brute_force_auc requires both classes present")
    greater = np.sum(pos[:, None] > neg[None, :])
    ties = np.sum(pos[:, None] == neg[None, :])
    return float((greater + 0.5 * ties) / (len(pos) * len(neg)))
