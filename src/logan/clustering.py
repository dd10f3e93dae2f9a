"""Bias-aware k-means clustering.

The optimizer minimizes a joint objective over hard assignments:

    total = clustering_loss + lam * bias_loss

where ``clustering_loss`` is the usual k-means inertia (sum of squared
Euclidean distances from instances to their cluster centroid) and
``bias_loss`` is the *negated* sum over clusters of the squared accuracy
gap between the two groups inside each cluster.  Clusters missing one of
the groups contribute 0 to the bias loss (their gap is undefined and so
carries no evidence).  With ``lam == 0`` this is plain Lloyd k-means.

An instance's *kind* is ``2 * group + correct``, from 0 to 3.  The bias
loss sees a cluster only through its counts of members by kind, so the fit
keeps them as one four-entry list ``c`` per cluster: the groups hold
``c[0] + c[1]`` and ``c[2] + c[3]`` members, of which ``c[1]`` and ``c[3]``
are predicted correctly.  A move changes two counts, one in each cluster.
The kind counts are the fit's only per-cluster tally besides the feature
sums: a gap term is computed from them wherever it is needed.

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
    farthest from the cluster's stale centroid by ``_sq_dists`` (only
    instances whose own cluster keeps at least one other member are
    eligible; ties toward the lowest instance index).

The sweep is evaluated in numpy blocks of consecutive visits, and is exact
(bit-identical to the one-instance-at-a-time loop that
``tests/helpers.py`` keeps as the reference) for four reasons.  Centroids
are fixed during a sweep, and an instance is visited once and keeps its
cluster p until then: its distance part ``D[i, q] - D[i, p]`` is fixed
for the whole sweep and is computed once per sweep for every instance.
The bias part depends on the running counts only through one (8, k)
table indexed by the instance's kind: rows 0-3 hold the reward lost by
leaving a cluster and rows 4-7 the reward gained by joining it, both
built from the kind counts with the same scalar arithmetic as the loop.
A delta adds its leave entry and then its join entry to its distance
part, the loop's order.  A move changes only the two table columns of
the clusters it touches.  So every row of a block before its first mover
sees exactly the state the loop would, ``argmin`` with the stay column
set to 0.0 applies the loop's lowest-index tie-break, and after a move
the sweep refreshes two columns and resumes right after the mover.
Deltas must be finite, because ``argmin`` picks a NaN where the loop's
``<`` never does; squared distances that overflow are rejected before
the sweep.

Two pieces of lambda > 0 work are skipped without changing a bit.  The fit
keeps its (n, k) distance matrix from the nearest-seed assignment on, with
the centroids its columns were computed for, and before each sweep
recomputes only the columns whose centroid changed (any coordinate
compares unequal).  Every entry is computed on its own, in the same
coordinate order, so a kept column holds what a fresh one would: a
coordinate that only swaps +0 for -0 compares equal and gives the same
squares, and a NaN never compares equal.  A fit started from a converged
k-means fit therefore computes no distances in its first sweep.  And the
sweep never reads the feature sums, so it collects each move's (instance,
p, q) and applies them at the end with one ``np.add.at`` that subtracts
x from cluster p and adds it to q, move by move.  ``np.add.at`` adds
unbuffered in index order and ``a - b == a + (-b)`` in IEEE arithmetic,
so each sum sees the operations of per-move updates in their order.

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

Every squared distance of a fit, in its k-means++ seeding, its sweeps and
its re-seeds, and every one that ``postprocess.merge_small_clusters`` ranks
merge partners by, comes from ``_sq_dists``, in one numpy pass over all
rows: it adds the squared coordinate differences from the first coordinate
to the last, starting at 0, as a plain per-pair loop does.  Summing in any
other order (``np.sum``, ``einsum``, the ``|x|^2 - 2 x.c + |c|^2``
expansion) changes low bits of the distances, and through ties and the
sweep, the seeds, the fits and the merges.

A fit computes no objective while it runs.  It logs each state (the
state after initialization, then the state after each iteration) as a copy
of its k centroids and the rows whose cluster changed since the previous
state, taken from the assignment step's and the re-seeds' own lists of
moves; only the first state's assignment is kept in full.
``ClusterModel.objective_trace`` replays the log on demand: the
clustering loss by ``inertia``, the bias loss from kind counts recounted
per state.  Every accepted sweep move has non-positive delta and the
centroid update can only lower the clustering loss, so the per-state
totals are non-increasing except across a re-seed, which is a forced
assignment change outside the delta rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, LoganConfig, ValidationError


def inertia(X: np.ndarray, centroids: np.ndarray, assignment: np.ndarray) -> float:
    """Sum of squared distances from the rows of ``X`` to their assigned
    centroid: the clustering loss of the objective."""
    diffs = X - centroids[assignment]
    return float(np.einsum("ij,ij->", diffs, diffs))


def _kinds(dataset: Dataset) -> np.ndarray:
    """Each instance's kind, ``2 * group + correct``."""
    return 2 * dataset.group_codes.astype(np.intp) + dataset.correct_flags


def _kind_counts(assign: np.ndarray, kinds: np.ndarray, k: int) -> list[list[int]]:
    """Each of the k clusters' counts of members by kind, as a list of four
    ints per cluster."""
    return np.bincount(4 * assign + kinds, minlength=4 * k).reshape(k, 4).tolist()


@dataclass(frozen=True, eq=False)
class FitLog:
    """The states a fit passed through, logged cheaply enough to keep every
    one: state 0 is the state after initialization (nearest-seed assignment
    plus one centroid update), each later state the state after one full
    iteration (sweep + centroid update).

    ``centroids[t]`` holds state t's centroids and ``start`` state 0's
    assignment.  ``moves[t - 1]`` holds the rows whose cluster changed from
    state t - 1 to state t and their new clusters, in the order the fit
    moved them: a row a re-seed takes after its sweep move is listed twice,
    and numpy's fancy assignment leaves it at its last entry.
    """

    lam: float
    start: np.ndarray
    centroids: tuple[np.ndarray, ...]
    moves: tuple[tuple[np.ndarray, np.ndarray], ...]

    def replay(self, dataset: Dataset) -> tuple[tuple[float, float, float], ...]:
        """One ``(clustering_loss, bias_loss, total)`` triple per state, with
        the bias loss summed over the clusters' gap terms in cluster order."""
        if len(self.start) != dataset.n:
            raise ValueError(f"the fit saw {len(self.start)} rows, the dataset has {dataset.n}")
        X = dataset.feature_matrix
        kinds = _kinds(dataset)
        k = len(self.centroids[0])
        assign = self.start.astype(np.intp)
        trace = []
        for t, centroids in enumerate(self.centroids):
            if t:
                rows, to = self.moves[t - 1]
                assign[rows] = to
            counts = _kind_counts(assign, kinds, k)
            l_c = inertia(X, centroids, assign)
            l_b = -float(sum(map(_gap_term, counts)))
            trace.append((l_c, l_b, l_c + self.lam * l_b))
        return tuple(trace)


@dataclass(frozen=True, eq=False)
class ClusterModel:
    """Result of one fitted run: centroids, assignments and the log of the
    states the fit passed through.

    ``log`` is None for a model built by hand, whose objective trace is
    empty.  A model merged from a fit keeps the fit's log.
    """

    centroids: np.ndarray
    assignment: np.ndarray
    converged: bool
    iterations_run: int
    log: FitLog | None = None

    @property
    def n_clusters(self) -> int:
        return len(self.centroids)

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.n_clusters)

    def objective_trace(self, dataset: Dataset) -> tuple[tuple[float, float, float], ...]:
        """One ``(clustering_loss, bias_loss, total)`` triple per state of
        the fit (see ``FitLog``), computed from the log on ``dataset``, the
        fit's data."""
        return () if self.log is None else self.log.replay(dataset)


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
    cols = np.ascontiguousarray(X.T)
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, dataset.dim), dtype=np.float64)
    idx = int(rng.integers(n))
    centroids[0] = X[idx]
    closest = np.full(n, np.inf)
    for j in range(1, k):
        np.minimum(closest, _sq_dists(cols, centroids[j - 1 : j])[:, 0], out=closest)
        with np.errstate(over="ignore"):  # finite weights may sum to inf
            total = closest.sum()
        _check_finite(total)
        if total > 0.0:
            idx = int(rng.choice(n, p=closest / float(total)))
        else:
            # fewer distinct positions than k: fall back to uniform
            idx = int(rng.integers(n))
        centroids[j] = X[idx]
    return centroids


def _term(n1: int, n2: int, c1: int, c2: int) -> float:
    if n1 == 0 or n2 == 0:
        return 0.0
    d = c1 / n1 - c2 / n2
    return d * d  # as numpy squares; a scalar ** 2 calls libm pow


def _gap_term(c: Sequence[int]) -> float:
    """Gap term of a cluster with kind counts ``c``."""
    return _term(c[0] + c[1], c[2] + c[3], c[1], c[3])


def _apply_move(
    i: int, p: int, q: int, kind: int, assign: np.ndarray, counts: list[list[int]]
) -> None:
    """Move instance i of ``kind`` from cluster p to q, updating the
    assignment and kind counts in place; the caller updates the feature
    sums."""
    counts[p][kind] -= 1
    counts[q][kind] += 1
    assign[i] = q


def _sq_dists(cols: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """New C-contiguous (n, k) squared Euclidean distances from each
    instance to each centroid; ``cols`` is the (dim, n) transpose of the
    feature matrix.  Each distance sums its squared coordinate differences
    from the first coordinate to the last, starting at 0 (see the module
    docstring)."""
    # (k, n) buffers: each coordinate costs three ufunc calls for all
    # centroids at once, instead of three per centroid
    k, n = len(centroids), cols.shape[1]
    acc = np.zeros((k, n), dtype=np.float64)
    diff = np.empty_like(acc)
    with np.errstate(over="ignore"):  # inf, as in a loop; fits reject it
        for col, c in zip(cols, centroids.T):
            np.subtract(col, c[:, None], out=diff)
            diff *= diff
            acc += diff
    out = diff.reshape(n, k)  # the result reuses diff's memory: no third buffer
    out[...] = acc.T
    return out


def _feature_sums(cols: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    """(k, dim) per-cluster feature sums of the instances assigned by
    ``assign``; ``cols`` is the (dim, n) transpose of the feature matrix.
    Each sum adds its cluster's rows in row order, starting at 0."""
    sums = np.empty((k, len(cols)), dtype=np.float64)
    for j, col in enumerate(cols):
        sums[:, j] = np.bincount(assign, weights=col, minlength=k)
    return sums


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

    def __init__(self, cols: np.ndarray) -> None:
        dim, n = cols.shape
        self.cols = cols
        self.box = (cols.min(axis=1), cols.max(axis=1))
        self.upper = np.full(n, np.inf)
        self.lower = np.zeros(n)
        rho = (dim + 2) * 2.0**-52
        self.err = dim * 2.0**-1074  # absolute error of underflowing squares
        self.slack = math.sqrt(8.0 * self.err)
        self.certify = (1.0 + rho, 1.0 - rho)
        self.fresh = (1.0 + 2.0 * rho, 1.0 - 2.0 * rho)

    def invalidate(self, i: int) -> None:
        self.upper[i] = np.inf

    def nearest(
        self, centroids: np.ndarray, assign: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Set ``assign`` to the argmin of the full ``_sq_dists`` matrix
        (lowest index on ties) and return the rows that changed cluster and
        their new clusters; only rows the bounds cannot certify are
        evaluated."""
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
        dist = _sq_dists(cols, centroids)
        _check_finite(dist)
        best = dist.argmin(axis=1)
        changed = best != assign[rows]
        moved = (rows[changed], best[changed])
        assign[rows] = best
        at_best = (np.arange(len(rows)), best)
        own = dist[at_best]
        dist[at_best] = np.inf
        up, down = self.fresh
        self.upper[rows] = np.sqrt(own + self.err) * up
        self.lower[rows] = np.sqrt(np.maximum(dist.min(axis=1) - self.err, 0.0)) * down
        return moved

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


def _set_bias_column(table: np.ndarray, j: int, c: Sequence[int], lam: float) -> None:
    """Fill column j of the (8, k) bias table from cluster j's kind counts
    ``c``.

    For an instance of kind ``2 * group + correct``, row ``kind`` holds the
    bias part of the move delta when it leaves cluster j and row
    ``4 + kind`` when it joins it, computed with the same expressions as the
    one-instance-at-a-time loop."""
    a1, a2, b1, b2 = c[0] + c[1], c[2] + c[3], c[1], c[3]
    t = _term(a1, a2, b1, b2)
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


# Visits evaluated by the first block of a sweep, and at least by the block
# after a move.  Only speed depends on them: most sweeps of a fit move few
# instances, so blocks grow long fast.
_FIRST_BLOCK = 64
_MIN_BLOCK = 32


def _sweep_blocked(
    X: np.ndarray,
    dist: np.ndarray,
    assign: np.ndarray,
    counts: list[list[int]],
    sums: np.ndarray,
    kinds: np.ndarray,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One greedy assignment sweep with centroids fixed, visiting the
    instances in ascending order; returns the moved instances and their
    new clusters, in move order, and updates ``assign``, ``counts`` and
    ``sums`` in place.
    ``kinds`` holds each instance's kind.

    ``dist`` holds the (n, k) squared distances and is only read.  The
    distance part of every instance's delta is computed once, up front,
    into a new (n, k) array.  Instances are then evaluated in blocks: every
    row of a block before its first mover stays put, the mover is applied,
    and the next block starts right after it.  The block length doubles
    while no move is found and restarts at twice the distance to the last
    move, or ``_MIN_BLOCK`` if that is longer.  A move updates ``assign``
    and ``counts`` at once; ``sums`` gets every move's update at the end,
    in move order (see the module docstring)."""
    _check_finite(dist)
    n, k = dist.shape
    rows = np.arange(n)
    own = assign.copy()  # each instance's cluster before the sweep
    part = dist - dist[rows, own][:, None]
    # flat indices of each instance's leave entry in the table and of its
    # stay column in ``delta``, and its row of join entries
    leave_at = kinds * k + own
    stay_at = rows * k + own
    join_at = kinds + 4
    table = np.empty((8, k), dtype=np.float64)
    for j in range(k):
        _set_bias_column(table, j, counts[j], lam)
    delta = np.empty_like(part)
    movers: list[tuple[int, int, int]] = []  # (instance, old, new cluster)
    start = 0
    length = _FIRST_BLOCK
    while start < n:
        end = min(start + length, n)
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
        i = start + r
        p = int(own[i])
        q = int(best[r])
        _apply_move(i, p, q, int(kinds[i]), assign, counts)
        _set_bias_column(table, p, counts[p], lam)
        _set_bias_column(table, q, counts[q], lam)
        movers.append((i, p, q))
        start = i + 1
        length = max(2 * (r + 1), _MIN_BLOCK)
    applied = np.array(movers, dtype=np.intp).reshape(-1, 3)
    if movers:
        # clusters [p1, q1, p2, q2, ...] get [-x1, x1, -x2, x2, ...], in order
        x = X[applied[:, 0]]
        np.add.at(sums, applied[:, 1:].ravel(), np.stack((-x, x), axis=1).reshape(-1, X.shape[1]))
    return applied[:, 0], applied[:, 2]


def check_lam(lam: float) -> None:
    """Raise ``ValidationError`` unless the bias weight is finite and >= 0."""
    if not math.isfinite(lam) or lam < 0:
        raise ValidationError(f"lam must be finite and >= 0, got {lam}")


def logan_fit(
    dataset: Dataset,
    cfg: LoganConfig,
    lam: float,
    initial_centroids: np.ndarray | None = None,
) -> ClusterModel:
    """Fit the joint clustering / bias objective at bias weight ``lam``,
    alternating assignment sweeps and centroid updates; at ``lam == 0``
    this is plain k-means.

    Initialization is k-means++ from ``cfg.seed`` unless explicit
    ``initial_centroids`` are given, a finite array of shape
    ``(cfg.k, dataset.dim)``.  The run is fully deterministic for a given
    (dataset, config, lam, init).  ``lam`` must pass ``check_lam``.

    At lambda > 0 the distances to the seeds are kept, and before each
    sweep only the columns of the centroids that changed since their last
    computation are recomputed (see the module docstring).  The states are
    logged in a ``FitLog``; no objective is computed here.
    """
    check_lam(lam)
    k = cfg.k
    if initial_centroids is None:
        centroids = kmeanspp_init(dataset, k, cfg.seed)
    else:
        centroids = np.array(initial_centroids, dtype=np.float64)
        if centroids.shape != (k, dataset.dim):
            raise ValueError(
                f"initial centroids must have shape (k, d) = ({k}, {dataset.dim}), "
                f"got {centroids.shape}"
            )
        if not np.isfinite(centroids).all():
            raise ValueError("initial centroids must be finite")
        if k > dataset.n:
            raise ValueError(f"k={k} exceeds the number of instances ({dataset.n})")
    X = dataset.feature_matrix
    cols = np.ascontiguousarray(X.T)
    kinds = _kinds(dataset)
    dist = _sq_dists(cols, centroids)
    assign = dist.argmin(axis=1)
    counts, sums = _kind_counts(assign, kinds, k), _feature_sums(cols, assign, k)
    if lam == 0.0:
        bounds = _LloydBounds(cols)
        del dist  # each evaluation makes its own
    else:
        seen = centroids.copy()  # the centroids of the columns of ``dist``
    reseeds: list[tuple[int, int]] = []  # (donor, emptied cluster) since the last state

    def update_centroids() -> None:
        # Re-seed each emptied cluster, in ascending order, with the instance
        # farthest from its stale centroid by ``_sq_dists``; donors must
        # leave a nonempty cluster behind, so no re-seed empties a cluster.
        sizes = np.sum(counts, axis=1)
        for e in np.flatnonzero(sizes == 0).tolist():
            eligible = sizes[assign] >= 2
            if not eligible.any():
                raise RuntimeError("no eligible donor instance for empty cluster")
            far = _sq_dists(cols, centroids[e : e + 1])[:, 0]
            donor = int(np.where(eligible, far, -1.0).argmax())
            p = int(assign[donor])
            _apply_move(donor, p, e, int(kinds[donor]), assign, counts)
            sums[p] -= X[donor]
            sums[e] += X[donor]
            sizes[p] -= 1
            sizes[e] += 1
            reseeds.append((donor, e))
            if lam == 0.0:
                bounds.invalidate(donor)
        centroids[:] = sums / sizes[:, None]

    # Initial half-step: nearest-seed assignment plus one centroid update,
    # so the first sweep already works against cluster means.
    update_centroids()
    # the one (n,) array of the log, in the narrowest type that holds k - 1
    start = assign.astype(np.min_scalar_type(k - 1))
    snapshots = [centroids.copy()]
    moves: list[tuple[np.ndarray, np.ndarray]] = []
    converged = False
    iterations = 0
    for _ in range(cfg.max_iter):
        iterations += 1
        reseeds.clear()
        if lam == 0.0:
            # Bias term is inert: the sequential sweep reduces to batch
            # nearest-centroid assignment (ties toward the lowest index).
            rows, to = bounds.nearest(centroids, assign)
            if len(rows):
                counts, sums = _kind_counts(assign, kinds, k), _feature_sums(cols, assign, k)
            update_centroids()
            bounds.shift(snapshots[-1], centroids, assign)
        else:
            stale = np.flatnonzero(np.any(centroids != seen, axis=1))
            if len(stale):
                dist[:, stale] = _sq_dists(cols, centroids[stale])
                seen[stale] = centroids[stale]
            rows, to = _sweep_blocked(X, dist, assign, counts, sums, kinds, lam)
            update_centroids()
        snapshots.append(centroids.copy())
        donors, emptied = np.array(reseeds, dtype=np.intp).reshape(-1, 2).T
        moves.append((np.concatenate((rows, donors)), np.concatenate((to, emptied))))
        if len(rows) == 0:
            converged = True
            break

    assignment = assign.astype(np.int64)
    assignment.setflags(write=False)
    final_centroids = snapshots[-1]  # the last state's, shared with the log
    final_centroids.setflags(write=False)
    return ClusterModel(
        centroids=final_centroids,
        assignment=assignment,
        converged=converged,
        iterations_run=iterations,
        log=FitLog(lam, start, tuple(snapshots), tuple(moves)),
    )
