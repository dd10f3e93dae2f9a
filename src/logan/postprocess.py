"""Small-cluster merging, per-cluster bias reports, and model comparison.

A fitted model typically over-segments (k is chosen large on purpose);
merging folds clusters below a size floor into their nearest neighbour so
reports are computed on populations big enough to mean something.  A
cluster is *detectable* when both groups clear ``min_per_group`` and
*biased* when, in addition, its accuracy gap reaches ``bias_threshold``.
"""

from __future__ import annotations

import re
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clustering import ClusterModel
from .data import Dataset, LoganConfig
from .metrics import GapResult, MetricKind, counts, group_gaps, table_gaps


@dataclass(frozen=True)
class ClusterReport:
    """Per-cluster group counts, per-group performance, gaps and flags.

    ``perf_group1``/``perf_group2``/``gap`` are keyed by MetricKind; a None
    value marks a metric undefined on that slice.  All but AUC are read off
    the ``cluster_table``.  ``biased`` implies ``detectable`` and always
    refers to the accuracy gap.
    """

    cluster_id: int
    n_group1: int
    n_group2: int
    perf_group1: dict[MetricKind, float | None]
    perf_group2: dict[MetricKind, float | None]
    gap: dict[MetricKind, float | None]
    detectable: bool
    biased: bool
    top_tokens: tuple[str, ...] | None = None

    @property
    def size(self) -> int:
        return self.n_group1 + self.n_group2


@dataclass(frozen=True)
class ComparisonReport:
    """Candidate-vs-baseline clustering comparison.

    ``inertia_ratio`` is candidate inertia over baseline inertia (None when
    the baseline inertia is 0).  ``bcr`` is the fraction of detectable
    clusters flagged biased; ``bir`` the fraction of instances inside
    detectable clusters that fall in biased ones; ``mean_abs_bias`` the mean
    accuracy gap over biased clusters (None when there are none).  Raw
    counts are included so alternative denominators can be recomputed.
    """

    inertia_ratio: float | None
    bcr: float
    bir: float
    mean_abs_bias: float | None
    n_clusters: int
    n_detectable: int
    n_biased: int
    n_instances: int
    n_instances_detectable: int
    n_instances_biased: int


def inertia(dataset: Dataset, model: ClusterModel) -> float:
    """Sum of squared distances from instances to their assigned centroid."""
    diffs = dataset.feature_matrix - model.centroids[model.assignment]
    return float(np.einsum("ij,ij->", diffs, diffs))


def merge_small_clusters(
    model: ClusterModel, dataset: Dataset, cfg: LoganConfig
) -> ClusterModel:
    """Iteratively fold undersized clusters into their nearest neighbour.

    While some cluster holds fewer than ``cfg.min_cluster_total`` instances
    and more than ``cfg.min_clusters`` clusters remain, the smallest
    cluster (ties toward the lowest id) is absorbed by the live cluster
    whose centroid is nearest to its own (ties likewise), and the merged
    centroid is recomputed as the member mean.  Cluster ids are compacted
    afterwards.  Returns the input model unchanged when nothing merges.
    """
    k = model.n_clusters
    sizes = model.cluster_sizes()
    X = dataset.feature_matrix
    sums = np.zeros((k, dataset.dim), dtype=np.float64)
    np.add.at(sums, model.assignment, X)
    centroids = np.array(model.centroids, dtype=np.float64)
    alive = np.ones(k, dtype=bool)
    owner = np.arange(k)  # the live cluster that holds each original one
    # a merged-away cluster ranks after every live one as the smallest
    dead_size = np.iinfo(sizes.dtype).max

    while np.count_nonzero(alive) > cfg.min_clusters:
        s = int(np.argmin(np.where(alive, sizes, dead_size)))
        if sizes[s] >= cfg.min_cluster_total:
            break
        alive[s] = False
        others = np.flatnonzero(alive)
        t = int(others[np.argmin(np.sum((centroids[others] - centroids[s]) ** 2, axis=1))])
        sums[t] += sums[s]
        sizes[t] += sizes[s]
        owner[owner == s] = t
        if sizes[t] > 0:
            centroids[t] = sums[t] / sizes[t]

    if alive.all():
        return model
    live = np.flatnonzero(alive)
    new_assign = np.searchsorted(live, owner)[model.assignment]
    new_centroids = centroids[live]
    new_assign.setflags(write=False)
    new_centroids.setflags(write=False)
    return ClusterModel(
        centroids=new_centroids,
        assignment=new_assign,
        objective_trace=model.objective_trace,
        converged=model.converged,
        iterations_run=model.iterations_run,
    )


_TOKEN_RE = re.compile(r"[a-z0-9']+")


@dataclass(frozen=True)
class TokenIds:
    """Every row's tokens as ids into ``vocabulary``: ``ids`` holds the
    tokens of row 0, then those of row 1, and so on, and ``lengths[i]`` is
    the number of tokens of row i (0 for a row without text)."""

    vocabulary: tuple[str, ...]
    ids: np.ndarray
    lengths: np.ndarray


def tokenize(texts: Sequence[str | None]) -> TokenIds:
    """The ``TokenIds`` of ``texts``: a token is a run of ``[a-z0-9']`` in
    a lowercased text, and ids are numbered in order of first appearance."""
    vocabulary: dict[str, int] = {}
    ids = array("i")
    lengths = array("i")
    for text in texts:
        tokens = _TOKEN_RE.findall(text.lower()) if text is not None else []
        lengths.append(len(tokens))
        ids.extend([vocabulary.setdefault(token, len(vocabulary)) for token in tokens])
    return TokenIds(
        tuple(vocabulary), np.frombuffer(ids, dtype=np.intc), np.frombuffer(lengths, dtype=np.intc)
    )


def interpret_cluster(
    cluster_counts: Counter[str],
    corpus_counts: Counter[str],
    top_n: int = 10,
) -> tuple[str, ...]:
    """Tokens most over-represented in a cluster relative to the corpus.

    ``cluster_counts`` holds the token counts of the cluster's texts and
    ``corpus_counts`` those of every text, the cluster's included.  Ranks
    tokens by the ratio of within-cluster relative frequency to corpus
    relative frequency; ties break lexicographically.  Raises ValueError
    when the cluster holds no token.
    """
    if not cluster_counts:
        raise ValueError("no cluster instance carries a text token")
    cluster_total = sum(cluster_counts.values())
    corpus_total = sum(corpus_counts.values())
    ranked = sorted(
        cluster_counts,
        key=lambda tok: (
            -(cluster_counts[tok] / cluster_total)
            / (max(corpus_counts[tok], cluster_counts[tok]) / corpus_total),
            tok,
        ),
    )
    return tuple(ranked[:top_n])


def cluster_table(model: ClusterModel, dataset: Dataset) -> np.ndarray:
    """The model's ``(k, 2, 2, 2)`` (cluster, group, label, prediction) count."""
    k = model.n_clusters
    return counts(dataset, 2 * model.assignment + dataset.group_codes, 2 * k).reshape(k, 2, 2, 2)


def bias_flags(r: GapResult, cfg: LoganConfig) -> tuple[bool, bool]:
    """(detectable, biased) of a cluster from its accuracy result ``r``;
    the one place the rule lives."""
    detectable = r.n_group1 >= cfg.min_per_group and r.n_group2 >= cfg.min_per_group
    return detectable, detectable and r.gap is not None and r.gap >= cfg.bias_threshold


def cluster_reports(
    model: ClusterModel,
    dataset: Dataset,
    cfg: LoganConfig,
    kinds: Sequence[MetricKind] = (MetricKind.ACCURACY,),
    top_tokens: int = 0,
    table: np.ndarray | None = None,
    tokens: TokenIds | None = None,
) -> list[ClusterReport]:
    """One report per cluster of a (typically merged) model.

    The accuracy gap is always computed, since the biased flag depends on
    it; further requested metric kinds are added alongside.  ``table`` is
    the model's ``cluster_table`` (``ValueError`` on a wrong shape),
    counted here when not given.  When ``top_tokens`` > 0 and a cluster
    carries text, the report includes the cluster's most over-represented
    tokens, counted from ``tokens``, the ``tokenize`` of the dataset's
    texts (``ValueError`` when it covers another number of rows),
    tokenized here when not given.  The count is one ``bincount`` over
    (cluster, token id), of k times the vocabulary size.
    """
    wanted = list(dict.fromkeys([MetricKind.ACCURACY, *kinds]))
    k = model.n_clusters
    if table is None:
        table = cluster_table(model, dataset)
    elif np.shape(table) != (k, 2, 2, 2):
        raise ValueError(f"table must have shape ({k}, 2, 2, 2), got {np.shape(table)}")
    results = {
        kind: group_gaps(dataset, model.assignment, k, kind)
        if kind is MetricKind.SUBGROUP_AUC
        else table_gaps(table, kind)
        for kind in wanted
    }
    # token counts of each cluster's texts, None where no member has text
    token_counts: list[Counter[str] | None] = [None] * k
    corpus_counts: Counter[str] = Counter()
    if top_tokens > 0:
        if tokens is None:
            tokens = tokenize(dataset.texts)
        elif len(tokens.lengths) != dataset.n:
            raise ValueError(f"tokens must cover {dataset.n} rows, got {len(tokens.lengths)}")
        vocabulary = tokens.vocabulary
        size = len(vocabulary)
        # one (cluster, token id) key per token
        keys = np.repeat(model.assignment * size, tokens.lengths)
        keys += tokens.ids
        per_cluster = np.bincount(keys, minlength=k * size).reshape(k, size)
        corpus_counts = Counter(dict(zip(vocabulary, per_cluster.sum(axis=0).tolist())))
        with_text = [text is not None for text in dataset.texts]
        for j in np.unique(model.assignment[with_text]).tolist():
            (present,) = np.nonzero(per_cluster[j])
            names = [vocabulary[t] for t in present.tolist()]
            token_counts[j] = Counter(dict(zip(names, per_cluster[j, present].tolist())))
    reports = []
    for j, accuracy in enumerate(results[MetricKind.ACCURACY]):
        detectable, biased = bias_flags(accuracy, cfg)
        cluster_tokens = token_counts[j]
        top: tuple[str, ...] | None = None
        if cluster_tokens is not None:
            top = (
                interpret_cluster(cluster_tokens, corpus_counts, top_n=top_tokens)
                if cluster_tokens
                else ()
            )
        reports.append(
            ClusterReport(
                cluster_id=j,
                n_group1=accuracy.n_group1,
                n_group2=accuracy.n_group2,
                perf_group1={kind: res[j].perf_group1 for kind, res in results.items()},
                perf_group2={kind: res[j].perf_group2 for kind, res in results.items()},
                gap={kind: res[j].gap for kind, res in results.items()},
                detectable=detectable,
                biased=biased,
                top_tokens=top,
            )
        )
    return reports


def compare(
    candidate: ClusterModel,
    baseline: ClusterModel,
    dataset: Dataset,
    reports: Sequence[ClusterReport],
) -> ComparisonReport:
    """Compare a candidate clustering against a baseline on one dataset.

    The inertia ratio measures how much clustering quality the candidate
    gave up; the bias-detection stats (bcr, bir, mean gap) are computed on
    ``reports``, the candidate's ``cluster_reports``.  Empty denominators
    yield 0 by definition.
    """
    inertia_candidate = inertia(dataset, candidate)
    inertia_baseline = inertia(dataset, baseline)
    ratio = None if inertia_baseline == 0.0 else inertia_candidate / inertia_baseline
    detectable = [r for r in reports if r.detectable]
    biased = [r for r in detectable if r.biased]
    n_inst_detectable = sum(r.size for r in detectable)
    n_inst_biased = sum(r.size for r in biased)
    # bias_flags gives every biased cluster an accuracy gap
    gaps = [r.gap[MetricKind.ACCURACY] for r in biased]
    return ComparisonReport(
        inertia_ratio=ratio,
        bcr=len(biased) / len(detectable) if detectable else 0.0,
        bir=n_inst_biased / n_inst_detectable if n_inst_detectable else 0.0,
        mean_abs_bias=float(np.mean(gaps)) if gaps else None,
        n_clusters=len(reports),
        n_detectable=len(detectable),
        n_biased=len(biased),
        n_instances=dataset.n,
        n_instances_detectable=n_inst_detectable,
        n_instances_biased=n_inst_biased,
    )
