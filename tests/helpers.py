"""Shared builders for the test suite, and the one-instance-at-a-time
references the fast solver paths are checked against."""

from __future__ import annotations

import math
import os
import re
from collections import Counter
from dataclasses import dataclass
from sys import intern
from typing import Any, Mapping, Sequence

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from logan.clustering import (
    ClusterModel,
    _check_finite,
    _set_bias_column,
    _sq_dists,
    _term,
)
from logan.data import Dataset, LoganConfig, ValidationError, build_dataset
from logan.io import _parse_jsonl
from logan.metrics import GapResult, MetricKind, _auc_from_arrays


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


def serial_load_jsonl(path) -> Dataset:
    """The one-pass JSONL loader that ``load_jsonl`` falls back to."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        return _parse_jsonl(fh).finish()


def split_offset(path) -> int | None:
    """Where ``load_jsonl`` splits a regular file, from its bytes: just
    past the first line feed at or after the middle, or None where there
    is no such line feed or it is the last byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    at = data.find(b"\n", len(data) // 2)
    return at + 1 if 0 <= at < len(data) - 1 else None


def assert_no_child_left() -> None:
    """This process has no child, running or unreaped, of any kind."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def component_of(row_id: str) -> int:
    """The mixture component index that ``logan.synthetic.generate``
    encodes in a row id (``c<component>-<row>``)."""
    return int(row_id.split("-")[0][1:])


def reference_performance(dataset: Dataset, rows, kind: MetricKind) -> float | None:
    """``performance`` of one subset of rows (indices or a mask), computed
    on that subset alone, rows in the order given; None on an empty
    subset."""
    idx = np.arange(dataset.n)[rows]
    if len(idx) == 0:
        return None
    if kind is MetricKind.ACCURACY:
        return int(np.count_nonzero(dataset.labels[idx] == dataset.preds[idx])) / len(idx)
    if kind is MetricKind.FPR:
        negatives = idx[dataset.labels[idx] == 0]
        if len(negatives) == 0:
            return None
        return int(np.count_nonzero(dataset.preds[negatives] == 1)) / len(negatives)
    assert not np.isnan(dataset.scores[idx]).any()
    return _auc_from_arrays(dataset.labels[idx], dataset.scores[idx])


def reference_group_gap(dataset: Dataset, rows, kind: MetricKind) -> GapResult:
    """The per-group result of ``group_gaps`` for one nonempty subset of
    rows, each group's rows taken out and measured on their own."""
    idx = np.arange(dataset.n)[rows]
    assert len(idx) > 0
    in_first = dataset.group_codes[idx] == 0
    sub1 = idx[in_first]
    sub2 = idx[~in_first]
    p1 = reference_performance(dataset, sub1, kind)
    p2 = reference_performance(dataset, sub2, kind)
    gap = None if p1 is None or p2 is None else abs(p1 - p2)
    return GapResult(
        perf_group1=p1,
        perf_group2=p2,
        gap=gap,
        n_group1=len(sub1),
        n_group2=len(sub2),
    )


def reference_add(row: Mapping[str, Any]) -> tuple:
    """What ``DatasetBuilder.add`` accepts for one record, as a plain loop
    that checks one value at a time: the record's (id, features, group,
    label, pred, score, text), or the ValidationError message naming its
    first bad value.  Dimension and duplicate checks span records and are
    left to the builder."""

    def binary(value, name):
        if isinstance(value, bool) or not isinstance(value, int) or value not in (0, 1):
            raise ValidationError(
                f"{name} must be 0 or 1 for instance {rid!r}, got {value!r}"
            )
        return value

    try:
        if "id" not in row or not isinstance(row["id"], str) or not row["id"]:
            raise ValidationError(f"instance record missing a string 'id': {row!r}")
        rid = row["id"]
        for key in ("features", "group", "label", "pred"):
            if key not in row:
                raise ValidationError(f"instance {rid!r} missing field {key!r}")
        raw_features = row["features"]
        if not isinstance(raw_features, (list, tuple)) or len(raw_features) == 0:
            raise ValidationError(f"features of instance {rid!r} must be a nonempty list")
        feats = []
        for v in raw_features:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValidationError(f"non-numeric feature in instance {rid!r}: {v!r}")
            try:
                fv = float(v)
            except OverflowError:
                raise ValidationError(
                    f"feature out of float range in instance {rid!r}"
                ) from None
            if not math.isfinite(fv):
                raise ValidationError(f"non-finite feature in instance {rid!r}: {v!r}")
            feats.append(fv)
        group = row["group"]
        if not isinstance(group, str) or not group:
            raise ValidationError(f"group of instance {rid!r} must be a nonempty string")
        text = row.get("text")
        if text is not None and not isinstance(text, str):
            raise ValidationError(f"text of instance {rid!r} must be a string")
        label = binary(row["label"], "label")
        pred = binary(row["pred"], "pred")
        score = row.get("score")
        if score is None:
            score = math.nan
        elif isinstance(score, bool) or not isinstance(score, (int, float)):
            raise ValidationError(f"score must be a number for instance {rid!r}")
        else:
            try:
                score = float(score)
            except OverflowError:
                raise ValidationError(
                    f"score outside [0, 1] for instance {rid!r}"
                ) from None
            if not 0.0 <= score <= 1.0:
                raise ValidationError(f"score {score} outside [0, 1] for instance {rid!r}")
    except ValidationError as exc:
        return (str(exc),)
    return rid, feats, group, label, pred, score, text


_TOKEN_RE = re.compile(r"[a-z0-9']+")


def reference_tokenize_texts(
    texts: Sequence[str | None],
) -> tuple[list[list[str] | None], Counter[str]]:
    """Token list of every text, each lowercased and tokenized on its own
    (None where a row has no text), and the corpus token counts."""
    tokens = [
        None if text is None else [intern(t) for t in _TOKEN_RE.findall(text.lower())]
        for text in texts
    ]
    return tokens, Counter(t for toks in tokens if toks is not None for t in toks)


def reference_top_tokens(
    texts: Sequence[str | None], assignment: Sequence[int], n_clusters: int, top_n: int
) -> list[tuple[str, ...] | None]:
    """Each cluster's ``top_tokens``, counted member by member from the
    token lists of ``reference_tokenize_texts``: None for a cluster
    without text, otherwise the tokens ranked by the ratio of in-cluster
    to corpus relative frequency, ties broken lexicographically."""
    tokens, corpus_counts = reference_tokenize_texts(texts)
    corpus_total = sum(corpus_counts.values())
    tops: list[tuple[str, ...] | None] = []
    for j in range(n_clusters):
        member_tokens = [tokens[i] for i, a in enumerate(assignment) if a == j]
        if all(toks is None for toks in member_tokens):
            tops.append(None)
            continue
        counts: Counter[str] = Counter()
        for toks in member_tokens:
            if toks is not None:
                counts.update(toks)
        total = sum(counts.values())
        if total == 0:
            tops.append(())
            continue
        ranked = sorted(
            counts,
            key=lambda tok: (
                -(counts[tok] / total) / (max(corpus_counts[tok], counts[tok]) / corpus_total),
                tok,
            ),
        )
        tops.append(tuple(ranked[:top_n]))
    return tops


def _left_to_right_sq_dist(a: np.ndarray, b: np.ndarray) -> float:
    total = 0.0
    for x, y in zip(a.tolist(), b.tolist()):
        diff = x - y
        total += diff * diff
    return total


def reference_merge_small_clusters(
    model: ClusterModel, dataset: Dataset, cfg: LoganConfig
) -> ClusterModel:
    """``merge_small_clusters`` one live cluster at a time: the smallest
    live cluster by ``min`` over (size, id), its nearest live neighbour by
    ``min`` over (squared distance, id), each distance summed in a Python
    loop from the first coordinate to the last, starting at 0."""
    k = model.n_clusters
    sizes = model.cluster_sizes().tolist()
    sums = np.zeros((k, dataset.dim), dtype=np.float64)
    np.add.at(sums, model.assignment, dataset.feature_matrix)
    centroids = [np.array(model.centroids[j]) for j in range(k)]
    live = list(range(k))
    owner = np.arange(k)

    while len(live) > cfg.min_clusters and any(
        sizes[j] < cfg.min_cluster_total for j in live
    ):
        s = min(live, key=lambda j: (sizes[j], j))
        t = min(
            (j for j in live if j != s),
            key=lambda j: (_left_to_right_sq_dist(centroids[s], centroids[j]), j),
        )
        sums[t] += sums[s]
        sizes[t] += sizes[s]
        owner[owner == s] = t
        live.remove(s)
        if sizes[t] > 0:
            centroids[t] = sums[t] / sizes[t]

    if len(live) == k:
        return model
    return ClusterModel(
        centroids=np.stack([centroids[old] for old in live]),
        assignment=np.searchsorted(live, owner)[model.assignment],
        converged=model.converged,
        iterations_run=model.iterations_run,
        log=model.log,
    )


@dataclass
class ClusterStats:
    """Per-cluster tallies counted from scratch, the reference for the
    tallies the solver keeps up to date move by move.

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
) -> tuple[float, float, float]:
    """Evaluate (clustering_loss, bias_loss, total) for one state."""
    diffs = dataset.feature_matrix - stats.centroids[assignment]
    l_c = float(np.einsum("ij,ij->", diffs, diffs))
    l_b = stats.bias_loss()
    return l_c, l_b, l_c + lam * l_b


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
) -> int:
    """One greedy assignment sweep with centroids fixed, one instance at a
    time in ascending order (the reference for ``clustering._sweep_blocked``);
    returns the number of moves applied.  Mutates assign/counts/term/sums in
    place."""
    k = len(n1)
    moves = 0
    for i in range(len(assign)):
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
                    d = qc1 / qn1 - qc2 / qn2
                    term_q_after = d * d
                delta = row[q] - dp + base + lam * (term[q] - term_q_after)
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


def best_single_move_delta(dataset: Dataset, model: ClusterModel, lam: float) -> float:
    """Most negative objective delta over all single-instance moves, with
    the model's centroids held fixed, computed for every move at once from
    the sweep's bias table.  A converged fit yields >= 0 (no improving move
    survives at termination)."""
    dist = _sq_dists(np.ascontiguousarray(dataset.feature_matrix.T), model.centroids)
    _check_finite(dist)
    own = np.asarray(model.assignment, dtype=np.intp)
    kinds = 2 * dataset.group_codes.astype(np.intp) + dataset.correct_flags
    k = model.n_clusters
    counts = np.bincount(4 * own + kinds, minlength=4 * k).reshape(k, 4).tolist()
    table = np.empty((8, k), dtype=np.float64)
    for j in range(k):
        _set_bias_column(table, j, counts[j], lam)
    rows = np.arange(len(own))
    delta = dist - dist[rows, own][:, None]
    delta += table[kinds, own][:, None]
    delta += table[4 + kinds]
    delta[rows, own] = 0.0
    return min(0.0, float(delta.min()))


def reference_best_single_move_delta(dataset: Dataset, model, lam: float) -> float:
    """One-instance-at-a-time reference for ``best_single_move_delta``:
    the most negative objective delta over all single moves, or 0."""
    stats = ClusterStats.from_assignment(dataset, model.assignment, model.centroids)
    n = dataset.n
    k = model.n_clusters
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
            delta = float(dist_mat[i, q]) - dp + base + lam * (term[q] - term_q_after)
            if delta < best:
                best = delta
    return best


def reference_lloyd(dataset: Dataset, seeds: np.ndarray, cfg):
    """Lloyd k-means as ``logan_fit`` defines it at lambda 0, taking the
    argmin of the full ``_sq_dists`` matrix (lowest index on ties) in every
    iteration.

    Nearest-seed assignment and a centroid update come first, then
    assignment and update until nothing moves or ``cfg.max_iter`` is hit.
    Tallies are recounted after an assignment that moved something.  A
    cluster left empty takes the instance farthest from its stale centroid
    by ``_sq_dists`` among those whose cluster keeps another member (lowest
    index on ties), and its tallies move with it.  Returns (assignment, centroids,
    objective trace, iterations run, converged).
    """
    X = dataset.feature_matrix
    cols = np.ascontiguousarray(X.T)
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
            far = _sq_dists(cols, centroids[e : e + 1])[:, 0]
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
        return (l_c, l_b, l_c + 0.0 * l_b)

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


def reference_logan_fit(
    dataset: Dataset,
    seeds: np.ndarray,
    cfg: LoganConfig,
    lam: float,
):
    """``logan_fit`` for lam > 0 as the one-instance-at-a-time loop: every
    iteration computes the distances afresh and runs ``_sweep_sequential``,
    then the centroid update.

    Nearest-seed assignment and a centroid update come first.  Tallies are
    counted once and then kept up to date move by move, as the fit keeps
    them.  A cluster left empty takes the instance farthest from its stale
    centroid by ``_sq_dists`` among those whose cluster keeps another
    member (lowest index on ties).  Returns (assignment, centroids, objective trace, iterations
    run, converged).
    """
    X = dataset.feature_matrix
    cols = np.ascontiguousarray(X.T)
    g = dataset.group_codes.tolist()
    w = dataset.correct_flags.tolist()
    centroids = np.array(seeds, dtype=np.float64)
    assign = _sq_dists(cols, centroids).argmin(axis=1).tolist()
    stats = ClusterStats.from_assignment(dataset, assign, centroids)
    n1, n2 = stats.group_counts.T.tolist()
    c1, c2 = stats.correct_counts.T.tolist()
    term = [_term(*cluster) for cluster in zip(n1, n2, c1, c2)]
    sums = stats.sums

    def update():
        while True:
            sizes = np.add(n1, n2)
            if sizes.all():
                break
            e = int(sizes.argmin())
            far = _sq_dists(cols, centroids[e : e + 1])[:, 0]
            i = int(np.where(sizes[assign] >= 2, far, -1.0).argmax())
            p = assign[i]
            if g[i] == 0:
                n1[p], c1[p], n1[e], c1[e] = n1[p] - 1, c1[p] - w[i], n1[e] + 1, c1[e] + w[i]
            else:
                n2[p], c2[p], n2[e], c2[e] = n2[p] - 1, c2[p] - w[i], n2[e] + 1, c2[e] + w[i]
            term[p] = _term(n1[p], n2[p], c1[p], c2[p])
            term[e] = _term(n1[e], n2[e], c1[e], c2[e])
            sums[p] -= X[i]
            sums[e] += X[i]
            assign[i] = e
        centroids[:] = sums / sizes[:, None]

    def record():
        diffs = X - centroids[assign]
        l_c = float(np.einsum("ij,ij->", diffs, diffs))
        l_b = -float(sum(term))
        return (l_c, l_b, l_c + lam * l_b)

    update()
    trace = [record()]
    for iteration in range(1, cfg.max_iter + 1):
        dist = _sq_dists(cols, centroids)
        if not np.isfinite(dist).all():
            raise ValueError("squared distances overflow")
        moves = _sweep_sequential(
            X, dist.tolist(), assign, n1, n2, c1, c2, term, sums, g, w, lam
        )
        update()
        trace.append(record())
        if moves == 0:
            return np.array(assign), centroids, tuple(trace), iteration, True
    return np.array(assign), centroids, tuple(trace), cfg.max_iter, False
