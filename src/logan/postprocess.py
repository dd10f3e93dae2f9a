"""Small-cluster merging, per-cluster bias reports, and model comparison.

A fitted model typically over-segments (k is chosen large on purpose);
merging folds clusters below a size floor into their nearest neighbour so
reports are computed on populations big enough to mean something.  A
cluster is *detectable* when both groups clear ``min_per_group`` and
*biased* when, in addition, its accuracy gap reaches ``bias_threshold``.
"""

from __future__ import annotations

import re
from sys import intern
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clustering import ClusterModel
from .data import Dataset, LoganConfig
from .metrics import MetricKind, group_gap


@dataclass(frozen=True)
class ClusterReport:
    """Per-cluster group counts, per-group performance, gaps and flags.

    ``perf_group1``/``perf_group2``/``gap`` are keyed by MetricKind; a None
    value marks a metric undefined on that slice.  ``biased`` implies
    ``detectable`` and always refers to the accuracy gap.
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

    def accuracy_gap(self) -> float | None:
        return self.gap.get(MetricKind.ACCURACY)


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
    sizes = model.cluster_sizes().tolist()
    X = dataset.feature_matrix
    sums = np.zeros((k, dataset.dim), dtype=np.float64)
    np.add.at(sums, model.assignment, X)
    centroids = [np.array(model.centroids[j]) for j in range(k)]
    live = list(range(k))
    owner = np.arange(k)  # the live cluster that holds each original one

    while len(live) > cfg.min_clusters and any(
        sizes[j] < cfg.min_cluster_total for j in live
    ):
        s = min(live, key=lambda j: (sizes[j], j))
        t = min(
            (j for j in live if j != s),
            key=lambda j: (float(np.sum((centroids[s] - centroids[j]) ** 2)), j),
        )
        sums[t] += sums[s]
        sizes[t] += sizes[s]
        owner[owner == s] = t
        live.remove(s)
        if sizes[t] > 0:
            centroids[t] = sums[t] / sizes[t]

    if len(live) == k:
        return model
    new_assign = np.searchsorted(live, owner)[model.assignment]
    new_centroids = np.stack([centroids[old] for old in live])
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


def tokenize_texts(
    texts: Sequence[str | None],
) -> tuple[list[list[str] | None], Counter[str]]:
    """Token list of every text (None where a row has no text) and the
    token counts of the whole corpus; each text is tokenized once.  Tokens
    are interned, so the lists share one string per distinct token."""
    tokens = [
        None if text is None else [intern(t) for t in _TOKEN_RE.findall(text.lower())]
        for text in texts
    ]
    return tokens, Counter(t for toks in tokens if toks is not None for t in toks)


def interpret_cluster(
    cluster_tokens: Sequence[list[str] | None],
    corpus_counts: Counter[str],
    top_n: int = 10,
) -> tuple[str, ...]:
    """Tokens most over-represented in a cluster relative to the corpus.

    ``cluster_tokens`` holds the token list of each cluster member (None
    for a member without text) and ``corpus_counts`` the corpus token
    counts, both as ``tokenize_texts`` returns them.  Ranks tokens by the
    ratio of within-cluster relative frequency to corpus relative
    frequency; ties break lexicographically.  Raises ValueError when no
    cluster member carries text.
    """
    cluster_counts: Counter[str] = Counter()
    saw_text = False
    for toks in cluster_tokens:
        if toks is None:
            continue
        saw_text = True
        cluster_counts.update(toks)
    if not saw_text:
        raise ValueError("no cluster instance carries text")
    cluster_total = sum(cluster_counts.values())
    corpus_total = sum(corpus_counts.values())
    if cluster_total == 0 or corpus_total == 0:
        return ()
    ranked = sorted(
        cluster_counts,
        key=lambda tok: (
            -(cluster_counts[tok] / cluster_total)
            / (max(corpus_counts[tok], cluster_counts[tok]) / corpus_total),
            tok,
        ),
    )
    return tuple(ranked[:top_n])


def cluster_reports(
    model: ClusterModel,
    dataset: Dataset,
    cfg: LoganConfig,
    kinds: Sequence[MetricKind] = (MetricKind.ACCURACY,),
    top_tokens: int = 0,
) -> list[ClusterReport]:
    """One report per cluster of a (typically merged) model.

    The accuracy gap is always computed, since the biased flag depends on
    it; further requested metric kinds are added alongside.  When
    ``top_tokens`` > 0 and a cluster carries text, the report includes the
    cluster's most over-represented tokens.
    """
    wanted = list(dict.fromkeys([MetricKind.ACCURACY, *kinds]))
    if top_tokens > 0:
        tokens, corpus_counts = tokenize_texts(dataset.texts)
    reports = []
    for j in range(model.n_clusters):
        members = model.assignment == j
        results = {kind: group_gap(dataset, members, kind) for kind in wanted}
        counts = results[MetricKind.ACCURACY]
        detectable = (
            counts.n_group1 >= cfg.min_per_group
            and counts.n_group2 >= cfg.min_per_group
        )
        biased = detectable and counts.gap is not None and counts.gap >= cfg.bias_threshold
        top: tuple[str, ...] | None = None
        if top_tokens > 0:
            member_tokens = [tokens[i] for i in np.flatnonzero(members)]
            if any(toks is not None for toks in member_tokens):
                top = interpret_cluster(member_tokens, corpus_counts, top_n=top_tokens)
        reports.append(
            ClusterReport(
                cluster_id=j,
                n_group1=counts.n_group1,
                n_group2=counts.n_group2,
                perf_group1={kind: res.perf_group1 for kind, res in results.items()},
                perf_group2={kind: res.perf_group2 for kind, res in results.items()},
                gap={kind: res.gap for kind, res in results.items()},
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
    gaps = [r.accuracy_gap() for r in biased]
    return ComparisonReport(
        inertia_ratio=ratio,
        bcr=len(biased) / len(detectable) if detectable else 0.0,
        bir=n_inst_biased / n_inst_detectable if n_inst_detectable else 0.0,
        mean_abs_bias=float(np.mean([g for g in gaps if g is not None]))
        if gaps
        else None,
        n_clusters=len(reports),
        n_detectable=len(detectable),
        n_biased=len(biased),
        n_instances=dataset.n,
        n_instances_detectable=n_inst_detectable,
        n_instances_biased=n_inst_biased,
    )
