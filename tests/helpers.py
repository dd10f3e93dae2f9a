"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from logan.clustering import ClusterStats, _sq_dists, _term
from logan.data import Dataset, build_dataset


def rows_from_arrays(features, groups, labels, preds, scores=None, texts=None):
    rows = []
    for i in range(len(features)):
        row = {
            "id": f"r{i:04d}",
            "features": [float(v) for v in features[i]],
            "group": groups[i],
            "label": int(labels[i]),
            "pred": int(preds[i]),
        }
        if scores is not None:
            row["score"] = float(scores[i])
        if texts is not None:
            row["text"] = texts[i]
        rows.append(row)
    return rows


def make_dataset(features, groups, labels, preds, scores=None, texts=None) -> Dataset:
    return build_dataset(rows_from_arrays(features, groups, labels, preds, scores, texts))


def assert_same_dataset(actual: Dataset, expected: Dataset) -> None:
    """Every column equal exactly: features bit for bit, missing scores
    (NaN) in the same rows, missing texts (None) in the same rows."""
    assert actual.ids == expected.ids
    assert actual.groups == expected.groups
    assert actual.feature_matrix.dtype == expected.feature_matrix.dtype == np.float64
    assert actual.feature_matrix.shape == expected.feature_matrix.shape
    assert actual.feature_matrix.tobytes() == expected.feature_matrix.tobytes()
    for name in ("group_codes", "labels", "preds"):
        a, b = getattr(actual, name), getattr(expected, name)
        assert a.dtype == b.dtype == np.int8, name
        assert np.array_equal(a, b), name
    assert actual.scores.tobytes() == expected.scores.tobytes()
    assert actual.texts == expected.texts


def random_dataset(
    rng: np.random.Generator,
    n: int,
    dim: int = 2,
    n_blobs: int = 3,
    spread: float = 5.0,
    with_scores: bool = True,
) -> Dataset:
    """Random blob dataset with random groups/labels/predictions."""
    centers = rng.uniform(-spread, spread, size=(n_blobs, dim))
    which = rng.integers(n_blobs, size=n)
    features = centers[which] + rng.standard_normal((n, dim))
    groups = np.where(rng.random(n) < 0.5, "a", "b")
    # both groups must appear
    groups[0] = "a"
    groups[-1] = "b"
    labels = rng.integers(0, 2, size=n)
    correct = rng.random(n) < rng.uniform(0.5, 0.95)
    preds = np.where(correct, labels, 1 - labels)
    scores = None
    if with_scores:
        u = rng.random(n)
        scores = np.where(preds == 1, 0.5 + 0.5 * u, 0.5 * u)
    return make_dataset(features, groups.tolist(), labels, preds, scores)


def reference_best_single_move_delta(dataset: Dataset, model, cfg) -> float:
    """One-instance-at-a-time reference for ``best_single_move_delta``:
    the most negative objective delta over all single moves, or 0."""
    stats = ClusterStats.from_assignment(dataset, model.assignment, model.centroids)
    n = dataset.n
    k = model.n_clusters
    lam = cfg.lam
    dist_scale = 1.0 / n if cfg.normalize_clustering_loss else 1.0
    g = dataset.group_codes
    w = dataset.correct_flags
    dist_mat = cdist(dataset.feature_matrix, model.centroids, "sqeuclidean")
    n1 = stats.group_counts[:, 0].tolist()
    n2 = stats.group_counts[:, 1].tolist()
    c1 = stats.correct_counts[:, 0].tolist()
    c2 = stats.correct_counts[:, 1].tolist()
    term = stats.gap_terms().tolist()
    best = 0.0
    for i in range(n):
        p = int(model.assignment[i])
        a = int(g[i])
        wi = int(w[i])
        if a == 0:
            term_p_after = _term(n1[p] - 1, n2[p], c1[p] - wi, c2[p])
        else:
            term_p_after = _term(n1[p], n2[p] - 1, c1[p], c2[p] - wi)
        base = lam * (term[p] - term_p_after)
        dp = float(dist_mat[i, p])
        for q in range(k):
            if q == p:
                continue
            if a == 0:
                term_q_after = _term(n1[q] + 1, n2[q], c1[q] + wi, c2[q])
            else:
                term_q_after = _term(n1[q], n2[q] + 1, c1[q], c2[q] + wi)
            delta = (
                dist_scale * (float(dist_mat[i, q]) - dp)
                + base
                + lam * (term[q] - term_q_after)
            )
            if delta < best:
                best = delta
    return best


def reference_lloyd(dataset: Dataset, seeds: np.ndarray, cfg):
    """Lloyd k-means as ``kmeans_fit`` defines it, taking the argmin of the
    full ``_sq_dists`` matrix (lowest index on ties) in every iteration.

    Nearest-seed assignment and a centroid update come first, then
    assignment and update until nothing moves or ``cfg.max_iter`` is hit.
    Tallies are recounted after an assignment that moved something.  A
    cluster left empty takes the instance farthest from its stale centroid
    among those whose cluster keeps another member (lowest index on ties),
    and its tallies move with it.  Returns (assignment, centroids,
    objective trace, iterations run, converged).
    """
    X = dataset.feature_matrix
    cols = np.ascontiguousarray(X.T)
    n = len(X)
    scale = 1.0 / n if cfg.normalize_clustering_loss else 1.0
    g = dataset.group_codes
    w = dataset.correct_flags
    centroids = np.array(seeds, dtype=np.float64)
    assign = _sq_dists(cols, centroids).argmin(axis=1)
    stats = ClusterStats.from_assignment(dataset, assign, centroids)

    def update():
        while True:
            sizes = stats.group_counts.sum(axis=1)
            if sizes.all():
                break
            e = int(sizes.argmin())
            far = np.sum((X - centroids[e]) ** 2, axis=1)
            i = int(np.where(sizes[assign] >= 2, far, -1.0).argmax())
            p, a = int(assign[i]), int(g[i])
            stats.group_counts[p, a] -= 1
            stats.group_counts[e, a] += 1
            stats.correct_counts[p, a] -= int(w[i])
            stats.correct_counts[e, a] += int(w[i])
            stats.sums[p] -= X[i]
            stats.sums[e] += X[i]
            assign[i] = e
        centroids[:] = stats.sums / sizes[:, None]

    def record():
        diffs = X - centroids[assign]
        l_c = float(np.einsum("ij,ij->", diffs, diffs))
        terms = [
            _term(*counts, *correct)
            for counts, correct in zip(stats.group_counts.tolist(), stats.correct_counts.tolist())
        ]
        l_b = -float(sum(terms))
        return (l_c, l_b, scale * l_c + 0.0 * l_b)

    update()
    trace = [record()]
    for iteration in range(1, cfg.max_iter + 1):
        dist = _sq_dists(cols, centroids)
        if not np.isfinite(dist).all():
            raise ValueError("squared distances overflow")
        nearest = dist.argmin(axis=1)
        moved = bool(np.any(nearest != assign))
        if moved:
            assign = nearest
            stats = ClusterStats.from_assignment(dataset, assign, centroids)
        update()
        trace.append(record())
        if not moved:
            return assign, centroids, tuple(trace), iteration, True
    return assign, centroids, tuple(trace), cfg.max_iter, False
