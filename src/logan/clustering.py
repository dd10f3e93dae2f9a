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

The sweep is evaluated in numpy blocks of consecutive visits, and is
exact (bit-identical to the one-instance-at-a-time loop kept in
``_sweep_sequential``) for four reasons.  Centroids are fixed during a
sweep, and an unvisited instance keeps its cluster p until it is visited,
so its distance part ``dist_scale * (D[i, q] - D[i, p])`` is fixed for the
whole sweep.  The bias part depends on the running counts only through two
(4, k) tables indexed by the instance's kind (group, correct): the reward
lost by leaving p and the reward gained by joining q, both built with the
same scalar arithmetic as the loop and added in the loop's order.  A move
changes only the two table columns of the clusters it touches.  So every
row of a block before its first mover sees exactly the state the loop
would, ``argmin`` with the stay column set to 0.0 applies the loop's
lowest-index tie-break, and after a move the sweep refreshes two columns
and resumes right after the mover.  Deltas must be finite, because
``argmin`` picks a NaN where the loop's ``<`` never does; squared
distances that overflow are rejected before the sweep.

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


@dataclass
class ClusterStats:
    """Running per-cluster tallies the solver keeps incrementally updated.

    ``group_counts[j, g]`` and ``correct_counts[j, g]`` count members and
    correct predictions of group g in cluster j; ``sums`` holds per-cluster
    feature sums so centroids can be recomputed as ``sums / sizes``.
    ``centroids`` stay fixed during an assignment sweep and are refreshed
    by the centroid update.
    """

    sizes: np.ndarray
    group_counts: np.ndarray
    correct_counts: np.ndarray
    sums: np.ndarray
    centroids: np.ndarray

    @classmethod
    def from_assignment(
        cls,
        dataset: Dataset,
        assignment: np.ndarray,
        centroids: np.ndarray,
    ) -> "ClusterStats":
        k = len(centroids)
        assignment = np.asarray(assignment, dtype=np.int64)
        g = dataset.group_codes
        w = dataset.correct_flags
        sizes = np.bincount(assignment, minlength=k)
        group_counts = np.zeros((k, 2), dtype=np.int64)
        correct_counts = np.zeros((k, 2), dtype=np.int64)
        for grp in (0, 1):
            mask = g == grp
            group_counts[:, grp] = np.bincount(assignment[mask], minlength=k)
            correct_counts[:, grp] = np.bincount(
                assignment[mask & (w == 1)], minlength=k
            )
        X = dataset.feature_matrix
        sums = np.zeros((k, X.shape[1]), dtype=np.float64)
        np.add.at(sums, assignment, X)
        return cls(
            sizes=sizes,
            group_counts=group_counts,
            correct_counts=correct_counts,
            sums=sums,
            centroids=np.array(centroids, dtype=np.float64),
        )

    def gap_terms(self) -> np.ndarray:
        """Squared accuracy gap per cluster, 0 where a group is absent."""
        n1 = self.group_counts[:, 0].astype(np.float64)
        n2 = self.group_counts[:, 1].astype(np.float64)
        ok = (n1 > 0) & (n2 > 0)
        terms = np.zeros(len(self.sizes), dtype=np.float64)
        terms[ok] = (
            self.correct_counts[ok, 0] / n1[ok]
            - self.correct_counts[ok, 1] / n2[ok]
        ) ** 2
        return terms

    def bias_loss(self) -> float:
        return -float(np.sum(self.gap_terms()))


def objective(
    dataset: Dataset,
    stats: ClusterStats,
    assignment: np.ndarray,
    lam: float,
    clustering_scale: float = 1.0,
) -> tuple[float, float, float]:
    """Evaluate (clustering_loss, bias_loss, total) for one state.

    ``clustering_loss`` is returned raw; ``total`` applies
    ``clustering_scale`` (1/n when the config normalizes the clustering
    loss, 1 otherwise) before adding ``lam * bias_loss``.
    """
    diffs = dataset.feature_matrix - stats.centroids[assignment]
    l_c = float(np.einsum("ij,ij->", diffs, diffs))
    l_b = stats.bias_loss()
    return l_c, l_b, clustering_scale * l_c + lam * l_b


def kmeanspp_init(dataset: Dataset, k: int, seed: int) -> np.ndarray:
    """k-means++ seeding: first centroid uniform over instances, each next
    one sampled proportionally to squared distance from the nearest chosen
    centroid.  Deterministic for a given seed."""
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
    closest = np.sum((X - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(closest.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=closest / total))
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


def _sweep_sequential(
    X: np.ndarray,
    dist_rows: list[list[float]],
    assign: list[int],
    n1: list[int],
    n2: list[int],
    c1: list[int],
    c2: list[int],
    term: list[float],
    sums: np.ndarray,
    g: Sequence[int],
    w: Sequence[int],
    lam: float,
    dist_scale: float,
    order: Sequence[int],
) -> int:
    """One greedy assignment sweep with centroids fixed; returns the number
    of moves applied.  Mutates assign/counts/term/sums in place."""
    k = len(n1)
    moves = 0
    for i in order:
        p = assign[i]
        row = dist_rows[i]
        dp = row[p]
        a = g[i]
        wi = w[i]
        if a == 0:
            pn1, pn2, pc1, pc2 = n1[p] - 1, n2[p], c1[p] - wi, c2[p]
        else:
            pn1, pn2, pc1, pc2 = n1[p], n2[p] - 1, c1[p], c2[p] - wi
        term_p_after = _term(pn1, pn2, pc1, pc2)
        base = lam * (term[p] - term_p_after)
        best_q = -1
        best_delta = math.inf
        for q in range(k):
            if q == p:
                delta = 0.0
            else:
                if a == 0:
                    qn1, qn2, qc1, qc2 = n1[q] + 1, n2[q], c1[q] + wi, c2[q]
                else:
                    qn1, qn2, qc1, qc2 = n1[q], n2[q] + 1, c1[q], c2[q] + wi
                if qn1 == 0 or qn2 == 0:
                    term_q_after = 0.0
                else:
                    term_q_after = (qc1 / qn1 - qc2 / qn2) ** 2
                delta = dist_scale * (row[q] - dp) + base + lam * (term[q] - term_q_after)
            if delta < best_delta:
                best_delta = delta
                best_q = q
        if best_q != p:
            moves += 1
            if a == 0:
                n1[p] -= 1
                c1[p] -= wi
                n1[best_q] += 1
                c1[best_q] += wi
            else:
                n2[p] -= 1
                c2[p] -= wi
                n2[best_q] += 1
                c2[best_q] += wi
            term[p] = _term(n1[p], n2[p], c1[p], c2[p])
            term[best_q] = _term(n1[best_q], n2[best_q], c1[best_q], c2[best_q])
            sums[p] -= X[i]
            sums[best_q] += X[i]
            assign[i] = best_q
    return moves


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


def _sq_dists(cols: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances from each instance to each
    centroid; ``cols`` is the (dim, n) transpose of the feature matrix.
    Each distance sums its squared coordinate differences from the first
    coordinate to the last, starting at 0 (see the module docstring)."""
    out = np.empty((cols.shape[1], len(centroids)), dtype=np.float64)
    acc = np.empty(cols.shape[1], dtype=np.float64)
    diff = np.empty_like(acc)
    with np.errstate(over="ignore"):  # inf, as in a loop; sweeps reject it
        for q, centroid in enumerate(centroids):
            acc.fill(0.0)
            for col, c in zip(cols, centroid):
                np.subtract(col, c, out=diff)
                diff *= diff
                acc += diff
            out[:, q] = acc
    return out


def _check_finite(dist: np.ndarray) -> None:
    if not np.isfinite(dist).all():
        raise ValueError(
            "squared distances to the centroids overflow float64; "
            "rescale the features (e.g. --standardize)"
        )


def _set_bias_column(
    leave: np.ndarray,
    join: np.ndarray,
    j: int,
    n1: Sequence[int],
    n2: Sequence[int],
    c1: Sequence[int],
    c2: Sequence[int],
    term: Sequence[float],
    lam: float,
) -> None:
    """Fill column j of the bias tables from cluster j's counts.

    Row ``2 * group + correct`` holds the bias part of the move delta for
    an instance of that kind: ``leave`` when it leaves cluster j, ``join``
    when it joins it (the same expressions as ``_sweep_sequential``)."""
    a1, a2, b1, b2, t = n1[j], n2[j], c1[j], c2[j], term[j]
    leave[:, j] = (
        lam * (t - _term(a1 - 1, a2, b1, b2)),
        lam * (t - _term(a1 - 1, a2, b1 - 1, b2)),
        lam * (t - _term(a1, a2 - 1, b1, b2)),
        lam * (t - _term(a1, a2 - 1, b1, b2 - 1)),
    )
    join[:, j] = (
        lam * (t - _term(a1 + 1, a2, b1, b2)),
        lam * (t - _term(a1 + 1, a2, b1 + 1, b2)),
        lam * (t - _term(a1, a2 + 1, b1, b2)),
        lam * (t - _term(a1, a2 + 1, b1, b2 + 1)),
    )


def _bias_tables(
    n1: Sequence[int],
    n2: Sequence[int],
    c1: Sequence[int],
    c2: Sequence[int],
    term: Sequence[float],
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    k = len(term)
    leave = np.empty((4, k), dtype=np.float64)
    join = np.empty((4, k), dtype=np.float64)
    for j in range(k):
        _set_bias_column(leave, join, j, n1, n2, c1, c2, term, lam)
    return leave, join


def _move_deltas(
    dist_rows: np.ndarray,
    own: np.ndarray,
    kinds: np.ndarray,
    leave: np.ndarray,
    join: np.ndarray,
    dist_scale: float,
) -> np.ndarray:
    """Objective delta of moving each row's instance from cluster ``own[r]``
    to every other cluster, in the loop's order of operations; the own
    column holds the loop's 0.0 for staying."""
    rows = np.arange(len(own))
    delta = dist_scale * (dist_rows - dist_rows[rows, own][:, None])
    delta += leave[kinds, own][:, None]
    delta += join[kinds]
    delta[rows, own] = 0.0
    return delta


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
    """The assignment sweep of ``_sweep_sequential`` (same in-place updates,
    bit-identical result; ``dist``, ``assign``, ``g``, ``w`` and ``order``
    are arrays), evaluated in blocks of visits: every row of a block before
    its first mover stays put, the mover is applied, and the next block
    starts right after it.  The block length doubles while no move is found
    and restarts at twice the distance to the last move."""
    _check_finite(dist)
    kinds = 2 * g.astype(np.intp) + w
    leave, join = _bias_tables(n1, n2, c1, c2, term, lam)
    n_visits = len(order)
    moves = 0
    start = 0
    length = _FIRST_BLOCK
    while start < n_visits:
        idx = order[start : start + length]
        own_blk = assign[idx]
        delta = _move_deltas(dist[idx], own_blk, kinds[idx], leave, join, dist_scale)
        best = delta.argmin(axis=1)
        moved = best != own_blk
        r = int(moved.argmax())
        if not moved[r]:
            start += len(idx)
            length *= 2
            continue
        i = int(idx[r])
        p = int(own_blk[r])
        q = int(best[r])
        _apply_move(
            X, i, p, q, int(g[i]), int(w[i]), assign, n1, n2, c1, c2, term, sums
        )
        _set_bias_column(leave, join, p, n1, n2, c1, c2, term, lam)
        _set_bias_column(leave, join, q, n1, n2, c1, c2, term, lam)
        moves += 1
        start += r + 1
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
    first, ok = g == 0, w == 1
    count_masks = (first, ~first, first & ok, ~first & ok)  # rows of n1, n2, c1, c2
    order = np.arange(n) if sweep_order is None else np.asarray(sweep_order, np.intp)

    def tallies(assign: np.ndarray):
        """Per-cluster n1, n2, c1, c2 and gap terms (as lists) and feature
        sums, recounted in full."""
        counts = [np.bincount(assign[mask], minlength=k).tolist() for mask in count_masks]
        sums = np.empty((k, len(cols)), dtype=np.float64)
        for j, col in enumerate(cols):
            sums[:, j] = np.bincount(assign, weights=col, minlength=k)
        return (*counts, [_term(*cluster) for cluster in zip(*counts)], sums)

    centroids = np.array(centroids, dtype=np.float64)
    assign = _sq_dists(cols, centroids).argmin(axis=1)
    n1, n2, c1, c2, term, sums = tallies(assign)

    def record() -> tuple[float, float, float]:
        diffs = X - centroids[assign]
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
        centroids[:] = sums / sizes[:, None]

    # Initial half-step: nearest-seed assignment plus one centroid update,
    # so the first sweep already works against cluster means.
    update_centroids()
    trace = [record()]
    converged = False
    iterations = 0
    for _ in range(cfg.max_iter):
        iterations += 1
        dist = _sq_dists(cols, centroids)
        if lam == 0.0:
            # Bias term is inert: the sequential sweep reduces to batch
            # nearest-centroid assignment (ties toward the lowest index).
            new_assign = dist.argmin(axis=1)
            moves = int(np.count_nonzero(new_assign != assign))
            if moves:
                assign = new_assign
                n1, n2, c1, c2, term, sums = tallies(assign)
        else:
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


def best_single_move_delta(
    dataset: Dataset,
    model: ClusterModel,
    cfg: LoganConfig,
) -> float:
    """Most negative objective delta over all single-instance moves, with
    the model's centroids held fixed.  A converged fit yields >= 0 (no
    improving move survives at termination)."""
    stats = ClusterStats.from_assignment(dataset, model.assignment, model.centroids)
    dist = _sq_dists(np.ascontiguousarray(dataset.feature_matrix.T), model.centroids)
    _check_finite(dist)
    dist_scale = 1.0 / dataset.n if cfg.normalize_clustering_loss else 1.0
    own = np.asarray(model.assignment, dtype=np.intp)
    kinds = 2 * dataset.group_codes.astype(np.intp) + dataset.correct_flags
    leave, join = _bias_tables(
        *stats.group_counts.T.tolist(), *stats.correct_counts.T.tolist(),
        stats.gap_terms().tolist(), cfg.lam,
    )
    delta = _move_deltas(dist, own, kinds, leave, join, dist_scale)
    return min(0.0, float(delta.min()))
