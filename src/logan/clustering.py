"""Bias-aware k-means clustering.

The optimizer minimizes a joint objective over hard assignments:

    total = clustering_loss + lam * bias_loss

where ``clustering_loss`` is the usual k-means inertia (sum of squared
Euclidean distances from instances to their cluster centroid) and
``bias_loss`` is the *negated* sum over clusters of the squared accuracy
gap between the two groups inside each cluster.  Clusters missing one of
the groups contribute 0 to the bias loss (their gap is undefined and so
carries no evidence).  With ``lam == 0`` this is plain Lloyd k-means.

The solver alternates two steps until no assignment changes in a full
sweep (or ``max_iter`` is hit):

  * assignment sweep: visit instances in ascending index order; for the
    instance's current cluster p and every candidate q, compute the exact
    change of the total objective if the instance moved from p to q, with
    centroids held fixed; only the gap terms of p and q change, so the
    bias part is updated from running per-cluster counts in O(1) per
    candidate.  Move to the best candidate (ties toward the lowest cluster
    index; staying scores 0) and apply the move immediately.
  * centroid update: recompute each centroid as the mean of its members.
    A cluster that lost all members is re-seeded with the instance
    farthest from the cluster's stale centroid (only instances whose own
    cluster keeps at least one other member are eligible; ties toward the
    lowest instance index).

The sweep is evaluated in numpy blocks of consecutive visits, and is exact
(bit-identical to the one-instance-at-a-time loop that
``tests/helpers.py`` keeps as the reference) for four reasons.  Centroids
are fixed during a sweep, and an unvisited instance keeps its cluster p
until it is visited, so its distance part ``dist_scale * (D[i, q] -
D[i, p])`` is fixed for the whole sweep: it is computed once per sweep
for every visit.  An instance that an order visits again after it moved gets
the distance part of its new cluster.  The bias part depends on the
running counts only through one (8, k) table indexed by the instance's
kind (group, correct): rows 0-3 hold the reward lost by leaving a cluster
and rows 4-7 the reward gained by joining it, both built with the same
scalar arithmetic as the loop.  A delta adds its leave entry and then its
join entry to its distance part, the loop's order.  A move changes only
the two table columns of the clusters it touches.  So every row of a block
before its first mover sees exactly the state the loop would, ``argmin``
with the stay column set to 0.0 applies the loop's lowest-index tie-break,
and after a move the sweep refreshes two columns and resumes right after
the mover.  Deltas must be finite, because ``argmin`` picks a NaN where
the loop's ``<`` never does; squared distances that overflow are rejected
before the sweep.

At lambda = 0 the sweep is the argmin of each row of ``_sq_dists``
(lowest index on ties), and ``_LloydBounds`` evaluates only the rows whose
argmin can have changed (Hamerly, SDM 2010).  Each row keeps an upper bound
U on its true distance to its own centroid and a lower bound L on its true
distance to every other centroid.  After a centroid update U grows by the
distance its own centroid moved and L shrinks by the largest such distance
(triangle inequality); shifts and bounds are rounded outward.  A computed
squared distance over d coordinates is within (d+2)*2**-53 of the true one
relatively, plus d*2**-1074 from squares that underflow.  So a row with
U*(1+rho) + s < L*(1-rho), rho = (d+2)*2**-52 (twice that bound, which also
covers the rounding of the test) and s = sqrt(8*d*2**-1074), computes a
distance to its own centroid strictly below every other one: the full
argmin keeps it, and no tie is possible.  The other rows get exact
``_sq_dists`` rows, their argmin and fresh bounds.  NaN and infinite bounds
never certify a row, a row moved by a re-seed loses its bounds, and every
row is evaluated while data and centroids span a box whose squared
diagonal comes near overflow, so overflow is reported exactly when the
full matrix would show it.  Assignments, centroids and traces are those of
a full argmin in every iteration, bit for bit.

Squared distances come from ``_sq_dists``, in numpy alone: it adds the
squared coordinate differences from the first coordinate to the last,
starting at 0, as a plain per-pair loop does.  Summing in any other order
(``np.sum``, ``einsum``, the ``|x|^2 - 2 x.c + |c|^2`` expansion) changes
low bits of the distances, and through ties and the sweep, the fits.

Every accepted sweep move has non-positive delta and the centroid update
can only lower the clustering loss, so the recorded per-iteration totals
are non-increasing except across a re-seed, which is a forced assignment
change outside the delta rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .data import Dataset, LoganConfig


@dataclass(frozen=True, eq=False)
class ClusterModel:
    """Result of one fitted run: centroids, assignments, objective trace.

    ``objective_trace`` holds one ``(clustering_loss, bias_loss, total)``
    triple per recorded state: index 0 is the state after initialization
    (nearest-seed assignment plus one centroid update), each following
    entry the state after one full iteration (sweep + centroid update).
    ``clustering_loss`` is recorded raw even when the optimizer scales it
    inside ``total``.
    """

    centroids: np.ndarray
    assignment: np.ndarray
    objective_trace: tuple[tuple[float, float, float], ...]
    converged: bool
    iterations_run: int

    @property
    def n_clusters(self) -> int:
        return len(self.centroids)

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.n_clusters)


def kmeanspp_init(dataset: Dataset, k: int, seed: int) -> np.ndarray:
    """k-means++ seeding: first centroid uniform over instances, each next
    one sampled proportionally to squared distance from the nearest chosen
    centroid.  Deterministic for a given seed.  Raises ``ValueError`` when
    the squared distances overflow float64."""
    n = dataset.n
    if k > n:
        raise ValueError(f"k={k} exceeds the number of instances ({n})")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    X = dataset.feature_matrix
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, dataset.dim), dtype=np.float64)
    idx = int(rng.integers(n))
    centroids[0] = X[idx]
    with np.errstate(over="ignore"):  # inf, rejected before sampling
        closest = np.sum((X - centroids[0]) ** 2, axis=1)
        for j in range(1, k):
            total = closest.sum()
            _check_finite(total)
            if total > 0.0:
                idx = int(rng.choice(n, p=closest / float(total)))
            else:
                # fewer distinct positions than k: fall back to uniform
                idx = int(rng.integers(n))
            centroids[j] = X[idx]
            np.minimum(closest, np.sum((X - centroids[j]) ** 2, axis=1), out=closest)
    return centroids


def _term(n1: int, n2: int, c1: int, c2: int) -> float:
    if n1 == 0 or n2 == 0:
        return 0.0
    return (c1 / n1 - c2 / n2) ** 2


def _apply_move(
    X: np.ndarray,
    i: int,
    p: int,
    q: int,
    group: int,
    wi: int,
    assign: np.ndarray,
    n1: list[int],
    n2: list[int],
    c1: list[int],
    c2: list[int],
    term: list[float],
    sums: np.ndarray,
) -> None:
    """Move instance i (of ``group``, correct flag ``wi``) from cluster p
    to q, updating the assignment and the running tallies in place."""
    if group == 0:
        n1[p] -= 1
        c1[p] -= wi
        n1[q] += 1
        c1[q] += wi
    else:
        n2[p] -= 1
        c2[p] -= wi
        n2[q] += 1
        c2[q] += wi
    term[p] = _term(n1[p], n2[p], c1[p], c2[p])
    term[q] = _term(n1[q], n2[q], c1[q], c2[q])
    sums[p] -= X[i]
    sums[q] += X[i]
    assign[i] = q


def _sq_dists(
    cols: np.ndarray, centroids: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """(n, k) squared Euclidean distances from each instance to each
    centroid; ``cols`` is the (dim, n) transpose of the feature matrix.
    Each distance sums its squared coordinate differences from the first
    coordinate to the last, starting at 0 (see the module docstring).
    Written into ``out`` when it is given."""
    if out is None:
        out = np.empty((cols.shape[1], len(centroids)), dtype=np.float64)
    # (k, n) buffers: each coordinate costs three ufunc calls for all
    # centroids at once, instead of three per centroid
    acc = np.zeros((len(centroids), cols.shape[1]), dtype=np.float64)
    diff = np.empty_like(acc)
    with np.errstate(over="ignore"):  # inf, as in a loop; sweeps reject it
        for col, c in zip(cols, centroids.T):
            np.subtract(col, c[:, None], out=diff)
            diff *= diff
            acc += diff
    out[...] = acc.T
    return out


def _check_finite(dist: np.ndarray) -> None:
    if not np.isfinite(dist).all():
        raise ValueError(
            "squared distances to the centroids overflow float64; "
            "rescale the features (e.g. --standardize)"
        )


# A fit whose data and centroids fit in a box with a smaller squared
# diagonal cannot overflow a squared distance, whatever the rounding.
_SAFE_SQ_SPAN = 2.0**1020


class _LloydBounds:
    """Hamerly bounds that let the lambda = 0 assignment skip the rows whose
    nearest centroid cannot change (see the module docstring).

    ``upper[i]`` bounds the true distance from instance i to its own
    centroid from above and ``lower[i]`` its distance to every other
    centroid from below; inf in ``upper`` marks a row with no bounds.
    """

    def __init__(self, cols: np.ndarray, k: int) -> None:
        dim, n = cols.shape
        self.cols = cols
        self.box = (cols.min(axis=1), cols.max(axis=1))
        self.upper = np.full(n, np.inf)
        self.lower = np.zeros(n)
        self.dist = np.empty((n, k), dtype=np.float64)
        rho = (dim + 2) * 2.0**-52
        self.err = dim * 2.0**-1074  # absolute error of underflowing squares
        self.slack = math.sqrt(8.0 * self.err)
        self.certify = (1.0 + rho, 1.0 - rho)
        self.fresh = (1.0 + 2.0 * rho, 1.0 - 2.0 * rho)

    def invalidate(self, i: int) -> None:
        self.upper[i] = np.inf

    def nearest(self, centroids: np.ndarray, assign: np.ndarray) -> int:
        """Set ``assign`` to the argmin of the full ``_sq_dists`` matrix
        (lowest index on ties) and return the number of rows that changed
        cluster; only rows the bounds cannot certify are evaluated."""
        with np.errstate(over="ignore", invalid="ignore"):
            span = np.maximum(self.box[1], centroids.max(axis=0)) - np.minimum(
                self.box[0], centroids.min(axis=0)
            )
            safe = float(span @ span) < _SAFE_SQ_SPAN
        if safe:
            up, down = self.certify
            certified = self.upper * up + self.slack < self.lower * down
            certified &= np.isfinite(self.lower)
            rows = np.flatnonzero(~certified)
        else:
            # a distance may overflow: evaluate every row, as the full
            # argmin does, so that _check_finite raises exactly when it would
            rows = np.arange(len(assign))
        # np.take gathers a C-contiguous copy, which _sq_dists reads faster
        # than the strided one of self.cols[:, rows]
        cols = self.cols if len(rows) == len(assign) else np.take(self.cols, rows, axis=1)
        dist = _sq_dists(cols, centroids, out=self.dist[: len(rows)])
        _check_finite(dist)
        best = dist.argmin(axis=1)
        moves = int(np.count_nonzero(best != assign[rows]))
        assign[rows] = best
        at_best = (np.arange(len(rows)), best)
        own = dist[at_best]
        dist[at_best] = np.inf
        up, down = self.fresh
        self.upper[rows] = np.sqrt(own + self.err) * up
        self.lower[rows] = np.sqrt(np.maximum(dist.min(axis=1) - self.err, 0.0)) * down
        return moves

    def shift(self, old: np.ndarray, new: np.ndarray, assign: np.ndarray) -> None:
        """Loosen the bounds by how far the centroids moved from ``old`` to
        ``new``: each upper bound by its own centroid's shift, each lower
        bound by the largest shift, rounding outward."""
        with np.errstate(over="ignore", invalid="ignore"):  # NaN never certifies
            diff = new - old
            moved = np.sqrt(np.sum(diff * diff, axis=1) + self.err) * self.fresh[0]
            # The factors undo the rounding of the sum or difference: the
            # upper bound only rises and a positive lower bound only falls.
            self.upper += moved[assign]
            self.upper *= 1.0 + 2.0**-51
            self.lower -= moved.max()
            self.lower *= 1.0 - 2.0**-51


def _set_bias_column(
    table: np.ndarray,
    j: int,
    n1: Sequence[int],
    n2: Sequence[int],
    c1: Sequence[int],
    c2: Sequence[int],
    term: Sequence[float],
    lam: float,
) -> None:
    """Fill column j of the (8, k) bias table from cluster j's counts.

    For an instance of kind ``2 * group + correct``, row ``kind`` holds the
    bias part of the move delta when it leaves cluster j and row
    ``4 + kind`` when it joins it, computed with the same expressions as the
    one-instance-at-a-time loop."""
    a1, a2, b1, b2, t = n1[j], n2[j], c1[j], c2[j], term[j]
    table[:, j] = (
        lam * (t - _term(a1 - 1, a2, b1, b2)),
        lam * (t - _term(a1 - 1, a2, b1 - 1, b2)),
        lam * (t - _term(a1, a2 - 1, b1, b2)),
        lam * (t - _term(a1, a2 - 1, b1, b2 - 1)),
        lam * (t - _term(a1 + 1, a2, b1, b2)),
        lam * (t - _term(a1 + 1, a2, b1 + 1, b2)),
        lam * (t - _term(a1, a2 + 1, b1, b2)),
        lam * (t - _term(a1, a2 + 1, b1, b2 + 1)),
    )


# Visits evaluated by the first block of a sweep.  Only speed depends on
# it: most sweeps of a fit move few instances, so blocks grow long fast.
_FIRST_BLOCK = 64


def _sweep_blocked(
    X: np.ndarray,
    dist: np.ndarray,
    assign: np.ndarray,
    n1: list[int],
    n2: list[int],
    c1: list[int],
    c2: list[int],
    term: list[float],
    sums: np.ndarray,
    g: np.ndarray,
    w: np.ndarray,
    lam: float,
    dist_scale: float,
    order: np.ndarray,
) -> int:
    """One greedy assignment sweep with centroids fixed, visiting the
    instances in ``order``; returns the number of moves applied and updates
    ``assign``, the counts, ``term`` and ``sums`` in place.

    ``dist`` holds the (n, k) squared distances and is only read.  The
    distance part of every visit's delta is computed once, up front, into
    a new (len(order), k) array.  Visits are then evaluated in blocks:
    every row of a block before its first mover stays put, the mover is
    applied, and the next block starts right after it.  The block length
    doubles while no move is found and restarts at twice the distance to
    the last move."""
    _check_finite(dist)
    n_visits = len(order)
    k = dist.shape[1]
    visits = np.arange(n_visits)
    own = assign[order]
    kinds = (2 * g.astype(np.intp) + w)[order]
    repeats = np.bincount(order, minlength=1).max() > 1
    part = dist.take(order, axis=0)
    np.subtract(part, part[visits, own][:, None], out=part)
    part *= dist_scale
    # flat indices of each visit's leave entry in the table and of its
    # stay column in ``delta``, and its row of join entries
    leave_at = kinds * k + own
    stay_at = visits * k + own
    join_at = kinds + 4
    table = np.empty((8, k), dtype=np.float64)
    for j in range(k):
        _set_bias_column(table, j, n1, n2, c1, c2, term, lam)
    delta = np.empty_like(part)
    moves = 0
    start = 0
    length = _FIRST_BLOCK
    while start < n_visits:
        end = min(start + length, n_visits)
        block = delta[start:end]
        np.add(part[start:end], table.take(leave_at[start:end])[:, None], out=block)
        block += table.take(join_at[start:end], axis=0)
        delta.put(stay_at[start:end], 0.0)
        best = block.argmin(axis=1)
        moved = best != own[start:end]
        r = int(moved.argmax())
        if not moved[r]:
            start = end
            length *= 2
            continue
        v = start + r
        i = int(order[v])
        p = int(own[v])
        q = int(best[r])
        _apply_move(
            X, i, p, q, int(g[i]), int(w[i]), assign, n1, n2, c1, c2, term, sums
        )
        _set_bias_column(table, p, n1, n2, c1, c2, term, lam)
        _set_bias_column(table, q, n1, n2, c1, c2, term, lam)
        if repeats:
            # later visits of instance i leave q, not p
            later = v + 1 + np.flatnonzero(order[v + 1 :] == i)
            own[later] = q
            part[later] = dist_scale * (dist[i] - dist[i, q])
            leave_at[later] = kinds[later] * k + q
            stay_at[later] = later * k + q
        moves += 1
        start = v + 1
        length = 2 * (r + 1)
    return moves


def _fit_core(
    dataset: Dataset,
    centroids: np.ndarray,
    cfg: LoganConfig,
    sweep_order: Sequence[int] | None = None,
) -> ClusterModel:
    """Alternate assignment sweeps and centroid updates from a given seed
    state.  ``sweep_order`` overrides the ascending visit order (used by
    permutation-equivariance tests)."""
    X = dataset.feature_matrix
    cols = np.ascontiguousarray(X.T)
    n = len(X)
    k = len(centroids)
    lam = cfg.lam
    dist_scale = 1.0 / n if cfg.normalize_clustering_loss else 1.0
    g = dataset.group_codes
    w = dataset.correct_flags
    kinds = 2 * g.astype(np.intp) + w  # 2 * group + correct
    order = np.arange(n) if sweep_order is None else np.asarray(sweep_order, np.intp)

    def tallies(assign: np.ndarray):
        """Per-cluster n1, n2, c1, c2 and gap terms (as lists) and feature
        sums, recounted in full."""
        by_kind = np.bincount(4 * assign + kinds, minlength=4 * k).reshape(k, 4)
        counts = [
            (by_kind[:, 0] + by_kind[:, 1]).tolist(),
            (by_kind[:, 2] + by_kind[:, 3]).tolist(),
            by_kind[:, 1].tolist(),
            by_kind[:, 3].tolist(),
        ]
        sums = np.empty((k, len(cols)), dtype=np.float64)
        for j, col in enumerate(cols):
            sums[:, j] = np.bincount(assign, weights=col, minlength=k)
        return (*counts, [_term(*cluster) for cluster in zip(*counts)], sums)

    centroids = np.array(centroids, dtype=np.float64)
    assign = _sq_dists(cols, centroids).argmin(axis=1)
    n1, n2, c1, c2, term, sums = tallies(assign)
    if lam == 0.0:
        bounds = _LloydBounds(cols, k)
    else:
        dist = np.empty((n, k), dtype=np.float64)
    gathered = np.empty_like(X, order="C")

    def record() -> tuple[float, float, float]:
        # mode="clip" writes straight into ``out``; "raise" would buffer.
        np.take(centroids, assign, axis=0, mode="clip", out=gathered)
        diffs = np.subtract(X, gathered, out=gathered)
        l_c = float(np.einsum("ij,ij->", diffs, diffs))
        l_b = -float(sum(term))
        return (l_c, l_b, dist_scale * l_c + lam * l_b)

    def update_centroids() -> None:
        # Re-seed any emptied cluster with the instance farthest from its
        # stale centroid; donors must leave a nonempty cluster behind.
        while True:
            sizes = np.add(n1, n2)
            if sizes.all():
                break
            e = int(sizes.argmin())
            eligible = sizes[assign] >= 2
            if not eligible.any():
                raise RuntimeError("no eligible donor instance for empty cluster")
            dist_to_e = np.sum((X - centroids[e]) ** 2, axis=1)
            donor = int(np.where(eligible, dist_to_e, -1.0).argmax())
            _apply_move(
                X, donor, int(assign[donor]), e, int(g[donor]), int(w[donor]),
                assign, n1, n2, c1, c2, term, sums,
            )
            if lam == 0.0:
                bounds.invalidate(donor)
        centroids[:] = sums / sizes[:, None]

    # Initial half-step: nearest-seed assignment plus one centroid update,
    # so the first sweep already works against cluster means.
    update_centroids()
    trace = [record()]
    converged = False
    iterations = 0
    for _ in range(cfg.max_iter):
        iterations += 1
        if lam == 0.0:
            # Bias term is inert: the sequential sweep reduces to batch
            # nearest-centroid assignment (ties toward the lowest index).
            moves = bounds.nearest(centroids, assign)
            if moves:
                n1, n2, c1, c2, term, sums = tallies(assign)
            previous = centroids.copy()
            update_centroids()
            bounds.shift(previous, centroids, assign)
        else:
            _sq_dists(cols, centroids, out=dist)
            moves = _sweep_blocked(
                X, dist, assign, n1, n2, c1, c2, term, sums, g, w, lam, dist_scale, order
            )
            update_centroids()
        trace.append(record())
        if moves == 0:
            converged = True
            break

    assignment = assign.astype(np.int64)
    assignment.setflags(write=False)
    final_centroids = centroids.copy()
    final_centroids.setflags(write=False)
    return ClusterModel(
        centroids=final_centroids,
        assignment=assignment,
        objective_trace=tuple(trace),
        converged=converged,
        iterations_run=iterations,
    )


def logan_fit(
    dataset: Dataset,
    cfg: LoganConfig,
    initial_centroids: np.ndarray | None = None,
) -> ClusterModel:
    """Fit the joint clustering / bias objective on a dataset.

    Initialization is k-means++ from ``cfg.seed`` unless explicit
    ``initial_centroids`` are given.  The run is fully deterministic for a
    given (dataset, config, init).
    """
    if initial_centroids is None:
        centroids = kmeanspp_init(dataset, cfg.k, cfg.seed)
    else:
        centroids = np.array(initial_centroids, dtype=np.float64)
        if centroids.ndim != 2 or centroids.shape[1] != dataset.dim:
            raise ValueError(
                f"initial centroids must have shape (k, {dataset.dim})"
            )
        if len(centroids) > dataset.n:
            raise ValueError(
                f"k={len(centroids)} exceeds the number of instances ({dataset.n})"
            )
    return _fit_core(dataset, centroids, cfg)


def kmeans_fit(
    dataset: Dataset,
    cfg: LoganConfig,
    initial_centroids: np.ndarray | None = None,
) -> ClusterModel:
    """Plain k-means baseline: the same solver with the bias weight off."""
    return logan_fit(dataset, replace(cfg, lam=0.0), initial_centroids)

