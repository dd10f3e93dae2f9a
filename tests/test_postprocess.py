import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logan.clustering import ClusterModel, _sq_dists, inertia, logan_fit
from logan.data import LoganConfig
from logan.metrics import MetricKind, table_gaps
from logan.postprocess import (
    bias_flags,
    cluster_reports,
    compare,
    merge_small_clusters,
    tokenize,
)

from helpers import (
    make_dataset,
    random_dataset,
    reference_merge_small_clusters,
    reference_top_tokens,
)


def manual_model(centroids, assignment):
    centroids = np.asarray(centroids, dtype=np.float64)
    assignment = np.asarray(assignment, dtype=np.int64)
    return ClusterModel(
        centroids=centroids,
        assignment=assignment,
        converged=True,
        iterations_run=1,
    )


def dataset_at_centroids(centroids, assignment, groups=None):
    n = len(assignment)
    feats = [list(map(float, centroids[j])) for j in assignment]
    groups = groups or ["a", "b"] * (n // 2 + 1)
    return make_dataset(feats, groups[:n], [0] * n, [0] * n)


# ------------------------------------------------------------------- merging

def test_merge_noop_when_all_clusters_large():
    rng = np.random.default_rng(1)
    d = random_dataset(rng, 200, n_blobs=2)
    cfg = LoganConfig(k=2, min_clusters=2, min_cluster_total=20)
    model = logan_fit(d, cfg, 0.0)
    assert model.cluster_sizes().min() >= 20
    merged = merge_small_clusters(model, d, cfg)
    assert merged is model


def test_merge_nine_singletons_down_to_floor():
    # one 40-strong cluster plus nine singletons: merging must stop at the
    # floor of five clusters, with every instance still accounted for
    centroids = [[0.0, 0.0]] + [
        [30.0 * np.cos(a), 30.0 * np.sin(a)] for a in np.linspace(0, 5.6, 9)
    ]
    assignment = [0] * 40 + list(range(1, 10))
    model = manual_model(centroids, assignment)
    d = dataset_at_centroids(centroids, assignment)
    cfg = LoganConfig(k=10, min_clusters=5, min_cluster_total=20)
    merged = merge_small_clusters(model, d, cfg)
    assert merged.n_clusters == 5
    sizes = merged.cluster_sizes()
    assert sizes.sum() == 49
    assert sizes.max() >= 40  # the big cluster survived intact


def test_merge_smallest_into_nearest():
    centroids = [[0.0], [1.0], [50.0]]
    assignment = [0] * 25 + [1] * 3 + [2] * 25
    model = manual_model(centroids, assignment)
    d = dataset_at_centroids(centroids, assignment)
    cfg = LoganConfig(k=3, min_clusters=2, min_cluster_total=20)
    merged = merge_small_clusters(model, d, cfg)
    assert merged.n_clusters == 2
    sizes = merged.cluster_sizes().tolist()
    assert sorted(sizes) == [25, 28]
    # cluster 1 folded into cluster 0; merged centroid is the member mean
    big = int(np.argmax(merged.cluster_sizes() == 28))
    expected = (25 * 0.0 + 3 * 1.0) / 28
    assert merged.centroids[big][0] == pytest.approx(expected)


def test_merge_ranks_partners_by_sq_dists_at_d16():
    """Clusters 0 and 1 sit at the same coordinates in two orders, so in
    exact arithmetic they are equally far from the small cluster 2 at the
    origin.  Summed left to right, as ``_sq_dists`` sums, cluster 1 is the
    nearer; numpy's pairwise ``np.sum`` ranks cluster 0 nearer.  The merge
    folds cluster 2 into cluster 1."""
    rng = np.random.default_rng(11)
    v = rng.standard_normal(16)
    centroids = np.stack([4.0 + v, 4.0 + v[rng.permutation(16)], np.zeros(16)])
    near = _sq_dists(np.zeros((16, 1)), centroids[:2])[0]
    assert near[1] < near[0]
    assert np.sum(centroids[0] ** 2) < np.sum(centroids[1] ** 2)
    assignment = [0] * 25 + [1] * 25 + [2] * 3
    model = manual_model(centroids, assignment)
    d = dataset_at_centroids(centroids, assignment)
    cfg = LoganConfig(k=3, min_clusters=2, min_cluster_total=20)
    for merge in (merge_small_clusters, reference_merge_small_clusters):
        merged = merge(model, d, cfg)
        assert merged.assignment.tolist() == [0] * 25 + [1] * 28
        assert merged.centroids[0].tobytes() == centroids[0].tobytes()


def test_merge_conserves_and_bounds_merge_count():
    rng = np.random.default_rng(33)
    for trial in range(20):
        n = int(rng.integers(30, 200))
        k = int(rng.integers(2, 12))
        d = random_dataset(rng, n, dim=2)
        assignment = rng.integers(0, k, size=n)
        assignment[:k] = np.arange(k)  # every cluster nonempty
        centroids = np.stack(
            [d.feature_matrix[assignment == j].mean(axis=0) for j in range(k)]
        )
        model = manual_model(centroids, assignment)
        min_clusters = int(rng.integers(1, k + 1))
        cfg = LoganConfig(
            k=k,
            min_clusters=min_clusters,
            min_cluster_total=int(rng.integers(0, 40)),
        )
        merged = merge_small_clusters(model, d, cfg)
        assert merged.cluster_sizes().sum() == n
        assert k - merged.n_clusters <= k - min_clusters
        assert (
            merged.cluster_sizes().min() >= cfg.min_cluster_total
            or merged.n_clusters == min_clusters
        )


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([1, 16, 768]),
    st.lists(st.integers(0, 5), min_size=2, max_size=12),
    st.integers(1, 12),
    st.integers(0, 8),
    st.integers(0, 2**32 - 1),
)
def test_merge_matches_the_per_pair_reference(dim, sizes, min_clusters, min_total, seed):
    """Tied sizes and empty clusters; the first smallest cluster sits at
    the origin and the others on a few permutations of one vector, so its
    neighbours are duplicates or equidistant, and their distances differ in
    the last bit when the squares are summed in another order.  The
    vectorised merge folds the same clusters as the per-pair loop and gives
    the same bits."""
    # a seeded generator, not hypothesis' randoms, which favour zeros
    rnd = random.Random(seed)
    k = len(sizes)
    assignment = [j for j, size in enumerate(sizes) for _ in range(size)]
    if len(assignment) < 2:
        assignment += [0, k - 1]
    rnd.shuffle(assignment)
    n = len(assignment)
    base = [rnd.choice((0.0, 0.1, 0.3, -0.7, 1.0)) for _ in range(dim)]
    pool = [rnd.sample(base, dim) for _ in range(rnd.randint(1, k))]
    centroids = [rnd.choice(pool) for _ in range(k)]
    centroids[sizes.index(min(sizes))] = [0.0] * dim
    model = manual_model(centroids, assignment)
    d = make_dataset(
        [[rnd.uniform(-2, 2) for _ in range(dim)] for _ in range(n)],
        ["a", "b"] * (n // 2) + ["a"] * (n % 2),
        [0] * n,
        [0] * n,
    )
    cfg = LoganConfig(k=k, min_clusters=min(min_clusters, k), min_cluster_total=min_total)
    merged = merge_small_clusters(model, d, cfg)
    expected = reference_merge_small_clusters(model, d, cfg)
    if expected is model:
        assert merged is model
    assert merged.assignment.tobytes() == expected.assignment.tobytes()
    assert merged.centroids.tobytes() == expected.centroids.tobytes()
    assert merged.centroids.shape == expected.centroids.shape


# ------------------------------------------------------------------- reports

def biased_fixture():
    # cluster 0: both groups 25 strong, gap 0.6 - 0.2; cluster 1: balanced
    feats, groups, labels, preds = [], [], [], []
    for i in range(25):
        feats.append([0.0, 0.0])
        groups.append("a")
        labels.append(1)
        preds.append(1 if i < 15 else 0)  # 0.6 accuracy
    for i in range(25):
        feats.append([0.0, 0.0])
        groups.append("b")
        labels.append(1)
        preds.append(1 if i < 5 else 0)  # 0.2 accuracy
    for i in range(50):
        feats.append([20.0, 0.0])
        groups.append("a" if i % 2 == 0 else "b")
        labels.append(1)
        preds.append(1)
    d = make_dataset(feats, groups, labels, preds)
    model = manual_model([[0.0, 0.0], [20.0, 0.0]], [0] * 50 + [1] * 50)
    return d, model


def test_cluster_reports_flags_and_gaps():
    d, model = biased_fixture()
    cfg = LoganConfig(k=2, min_clusters=2)
    reports = cluster_reports(model, d, cfg)
    assert len(reports) == 2
    first = reports[0]
    assert (first.n_group1, first.n_group2) == (25, 25)
    assert first.perf_group1[MetricKind.ACCURACY] == pytest.approx(0.6)
    assert first.perf_group2[MetricKind.ACCURACY] == pytest.approx(0.2)
    assert first.gap[MetricKind.ACCURACY] == pytest.approx(0.4)
    assert first.detectable and first.biased
    second = reports[1]
    assert second.gap[MetricKind.ACCURACY] == 0.0
    assert second.detectable and not second.biased


def test_cluster_reports_detectability_threshold():
    d, model = biased_fixture()
    cfg = LoganConfig(k=2, min_clusters=2, min_per_group=26)
    reports = cluster_reports(model, d, cfg)
    assert not reports[0].detectable
    assert not reports[0].biased  # biased implies detectable


def test_cluster_reports_extra_metric_kinds():
    d, model = biased_fixture()
    cfg = LoganConfig(k=2, min_clusters=2)
    reports = cluster_reports(model, d, cfg, kinds=(MetricKind.FPR,))
    # all labels are 1: FPR undefined, accuracy still present for the flag
    assert reports[0].gap[MetricKind.FPR] is None
    assert reports[0].gap[MetricKind.ACCURACY] == pytest.approx(0.4)


# ------------------------------------------------------------ the flag rule

def hand_table(*clusters):
    """A ``cluster_table`` from each cluster's (correct, wrong) row count
    per group; every row has label 1, so its correct rows predict 1."""
    table = np.zeros((len(clusters), 2, 2, 2), dtype=np.int64)
    for j, groups in enumerate(clusters):
        for g, (right, wrong) in enumerate(groups):
            table[j, g, 1] = wrong, right
    return table


def checked_flags(table, cfg):
    """``bias_flags`` of ``table``, each flag a Python bool, as JSON needs."""
    detectable, biased = bias_flags(table, cfg)
    assert all(type(flag) is bool for flag in detectable + biased)
    return detectable, biased


def test_bias_flags_gap_at_the_threshold_is_biased():
    # accuracies 3/4 and 1/4 lie exactly 0.5 apart
    table = hand_table(((3, 1), (1, 3)), ((2, 2), (2, 2)))
    cfg = LoganConfig(k=2, min_clusters=1, min_per_group=4, bias_threshold=0.5)
    assert checked_flags(table, cfg) == ([True, True], [True, False])
    above = replace(cfg, bias_threshold=math.nextafter(0.5, 1.0))
    assert checked_flags(table, above) == ([True, True], [False, False])


def test_bias_flags_group_at_min_per_group_is_detectable():
    table = hand_table(((4, 0), (0, 4)), ((3, 0), (0, 4)), ((4, 0), (0, 3)))
    cfg = LoganConfig(k=3, min_clusters=1, min_per_group=4)
    assert checked_flags(table, cfg) == ([True, False, False], [True, False, False])


def test_bias_flags_empty_group_without_a_floor_is_detectable_not_biased():
    table = hand_table(((2, 1), (0, 0)))
    assert table_gaps(table, MetricKind.ACCURACY)[0].gap is None
    cfg = LoganConfig(k=1, min_clusters=1, min_per_group=0, bias_threshold=0.0)
    assert checked_flags(table, cfg) == ([True], [False])


def test_bias_flags_one_cluster_and_an_all_zero_cluster():
    cfg = LoganConfig(k=1, min_clusters=1, min_per_group=1)
    assert checked_flags(hand_table(((5, 0), (0, 5))), cfg) == ([True], [True])
    table = hand_table(((0, 0), (0, 0)), ((5, 0), (0, 5)))
    assert checked_flags(table, cfg) == ([False, True], [False, True])
    no_floor = replace(cfg, min_per_group=0)
    assert checked_flags(table, no_floor) == ([True, True], [False, True])


@st.composite
def flag_cases(draw):
    """A random ``cluster_table`` and a config whose threshold is often one
    of the table's own gaps."""
    k = draw(st.integers(1, 6))
    cells = draw(st.lists(st.integers(0, 12), min_size=8 * k, max_size=8 * k))
    table = np.array(cells, dtype=np.int64).reshape(k, 2, 2, 2)
    gaps = [r.gap for r in table_gaps(table, MetricKind.ACCURACY) if r.gap is not None]
    if gaps and draw(st.booleans()):
        threshold = draw(st.sampled_from(gaps))
    else:
        threshold = draw(st.floats(0.0, 1.0))
    floor = draw(st.integers(0, 30))
    return table, LoganConfig(k=k, min_clusters=1, min_per_group=floor, bias_threshold=threshold)


@settings(max_examples=300, deadline=None)
@given(flag_cases())
def test_bias_flags_match_the_per_cluster_rule(case):
    table, cfg = case
    expected = []
    for r in table_gaps(table, MetricKind.ACCURACY):
        detectable = r.n_group1 >= cfg.min_per_group and r.n_group2 >= cfg.min_per_group
        expected.append((detectable, detectable and r.gap is not None and r.gap >= cfg.bias_threshold))
    assert list(zip(*checked_flags(table, cfg))) == expected


# ---------------------------------------------------------------- comparison

def test_compare_model_with_itself():
    rng = np.random.default_rng(3)
    d = random_dataset(rng, 150, n_blobs=3)
    cfg = LoganConfig(k=3, min_clusters=3)
    model = logan_fit(d, cfg, 0.0)
    report = compare(model, model, d, cluster_reports(model, d, cfg))
    assert report.inertia_ratio == 1.0
    assert 0.0 <= report.bcr <= 1.0
    assert 0.0 <= report.bir <= 1.0


def test_compare_all_correct_predictor():
    feats = [[float(i % 7), 0.0] for i in range(100)]
    d = make_dataset(feats, ["a", "b"] * 50, [1, 0] * 50, [1, 0] * 50)
    cfg = LoganConfig(k=2, min_clusters=2)
    model = logan_fit(d, cfg, 0.0)
    report = compare(model, model, d, cluster_reports(model, d, cfg))
    assert report.bcr == 0.0
    assert report.bir == 0.0
    assert report.mean_abs_bias is None


def test_compare_zero_baseline_inertia_undefined():
    feats = [[0.0, 0.0]] * 4
    d = make_dataset(feats, ["a", "b", "a", "b"], [1] * 4, [1] * 4)
    model = manual_model([[0.0, 0.0]], [0] * 4)
    cfg = LoganConfig(k=1, min_clusters=1)
    report = compare(model, model, d, cluster_reports(model, d, cfg))
    assert report.inertia_ratio is None


def test_inertia_matches_trace():
    rng = np.random.default_rng(9)
    d = random_dataset(rng, 80)
    model = logan_fit(d, LoganConfig(k=4, min_clusters=4), 0.0)
    assert inertia(d.feature_matrix, model.centroids, model.assignment) == pytest.approx(
        model.objective_trace(d)[-1][0]
    )


# ------------------------------------------------------------- token summary

def cluster_top_tokens(cluster_text, corpus_extra_text, n_each=2):
    """``top_tokens`` of a cluster of ``n_each`` rows of ``cluster_text``
    in a corpus of those plus ``n_each`` rows of ``corpus_extra_text``."""
    n = 2 * n_each
    assignment = [0] * n_each + [1] * n_each
    d = make_dataset(
        [[float(a)] for a in assignment],
        ["a", "b"] * n_each,
        [1] * n,
        [1] * n,
        texts=[cluster_text] * n_each + [corpus_extra_text] * n_each,
    )
    model = manual_model([[0.0], [1.0]], assignment)
    cfg = LoganConfig(k=2, min_clusters=1)
    return cluster_reports(model, d, cfg, tokens=tokenize(d.texts))[0].top_tokens


def test_interpret_cluster_overrepresented_tokens():
    assert cluster_top_tokens("alpha beta", "gamma") == ("alpha", "beta")


def test_interpret_cluster_tie_is_lexicographic():
    assert cluster_top_tokens("zeta alpha", "gamma gamma") == ("alpha", "zeta")


def test_interpret_cluster_without_text_raises():
    feats = [[0.0], [1.0]]
    d = make_dataset(feats, ["a", "b"], [1, 1], [1, 1])
    model = manual_model([[0.0], [1.0]], [0, 1])
    cfg = LoganConfig(k=2, min_clusters=1)
    reports = cluster_reports(model, d, cfg, tokens=tokenize(d.texts))
    assert [r.top_tokens for r in reports] == [None, None]


def test_tokens_must_cover_every_row():
    feats = [[0.0], [1.0]]
    d = make_dataset(feats, ["a", "b"], [1, 1], [1, 1], texts=["red", "blue"])
    model = manual_model([[0.0], [1.0]], [0, 1])
    cfg = LoganConfig(k=2, min_clusters=1)
    with pytest.raises(ValueError, match="tokens must cover 2 rows"):
        cluster_reports(model, d, cfg, tokens=tokenize(d.texts[:-1]))


# Characters whose lowercase forms hold token characters (the Kelvin sign
# and dotted capital I), sigma in its capital, medial and final forms, and
# separators, so the oracle sees tokens split and joined across rows.
_TEXT_CHARS = "abZ09' -\n.\u212a\u0130\u03a3\u03c3\u03c2\u00e9"


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4),
    st.lists(
        st.one_of(st.none(), st.text(alphabet=_TEXT_CHARS, max_size=12)),
        min_size=4,
        max_size=30,
    ),
    st.randoms(use_true_random=False),
)
def test_top_tokens_match_the_per_row_oracle(k, texts, rnd):
    """One count per cluster over its joined texts gives the tuples of
    counting each row's token list, row by row."""
    n = len(texts)
    k = min(k, n // 2)
    assignment = [i % k for i in range(n)]
    rnd.shuffle(assignment)
    d = make_dataset(
        [[float(a)] for a in assignment],
        ["a", "b"] * (n // 2) + ["a"] * (n % 2),
        [1] * n,
        [1] * n,
        texts=texts,
    )
    model = manual_model([[float(j)] for j in range(k)], assignment)
    reports = cluster_reports(
        model, d, LoganConfig(k=k, min_clusters=1), tokens=tokenize(d.texts)
    )
    expected = reference_top_tokens(texts, assignment, k, 10)
    assert [r.top_tokens for r in reports] == expected
