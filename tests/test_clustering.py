import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from logan.clustering import (
    ClusterModel,
    ClusterStats,
    _LloydBounds,
    _fit_core,
    _sq_dists,
    _sweep_blocked,
    _sweep_sequential,
    _term,
    best_single_move_delta,
    kmeans_fit,
    kmeanspp_init,
    logan_fit,
    objective,
)
from logan.data import LoganConfig, build_dataset
from logan.synthetic import brute_force_objective

from helpers import (
    make_dataset,
    random_dataset,
    reference_best_single_move_delta,
    reference_lloyd,
    rows_from_arrays,
)


def cfg_for(k, lam=0.0, seed=0, **kw):
    kw.setdefault("min_clusters", min(k, 5))
    return LoganConfig(k=k, lam=lam, seed=seed, **kw)


# ---------------------------------------------------------------- k-means++

def test_kmeanspp_k_equals_n_returns_all_points():
    feats = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [3.0, 3.0], [5.0, 1.0]]
    d = make_dataset(feats, ["a", "b"] * 2 + ["a"], [0] * 5, [0] * 5)
    cents = kmeanspp_init(d, k=5, seed=3)
    assert {tuple(c) for c in cents} == {tuple(f) for f in feats}


def test_kmeanspp_separated_pairs_split():
    feats = [[0.0, 0.0], [0.5, 0.0], [100.0, 0.0], [100.5, 0.0]]
    d = make_dataset(feats, ["a", "b", "a", "b"], [0] * 4, [0] * 4)
    hits = 0
    for seed in range(100):
        cents = kmeanspp_init(d, k=2, seed=seed)
        sides = {cents[0][0] < 50.0, cents[1][0] < 50.0}
        if sides == {True, False}:
            hits += 1
    assert hits >= 95


def test_kmeanspp_deterministic():
    rng = np.random.default_rng(0)
    d = random_dataset(rng, 60)
    a = kmeanspp_init(d, k=6, seed=123)
    b = kmeanspp_init(d, k=6, seed=123)
    assert np.array_equal(a, b)


def test_kmeanspp_k_too_large():
    d = make_dataset([[0.0], [1.0]], ["a", "b"], [0, 0], [0, 0])
    with pytest.raises(ValueError, match="exceeds"):
        kmeanspp_init(d, k=3, seed=0)


# ---------------------------------------------------------------- objective

def single_cluster_dataset():
    # six identical points; group a 3/4 correct, group b 1/2 correct
    feats = [[2.0, -1.0]] * 6
    groups = ["a", "a", "a", "a", "b", "b"]
    labels = [1, 1, 0, 0, 1, 0]
    preds = [1, 1, 0, 1, 1, 1]
    return make_dataset(feats, groups, labels, preds)


def test_objective_single_cluster_hand_values():
    d = single_cluster_dataset()
    assignment = np.zeros(6, dtype=np.int64)
    stats = ClusterStats.from_assignment(d, assignment, np.array([[2.0, -1.0]]))
    l_c, l_b, total = objective(d, stats, assignment, lam=1.0)
    assert l_c == 0.0
    assert l_b == pytest.approx(-0.0625)  # gap 0.25 squared, negated
    assert total == pytest.approx(-0.0625)


def test_objective_lambda_zero_equals_clustering_loss():
    rng = np.random.default_rng(4)
    d = random_dataset(rng, 40)
    model = kmeans_fit(d, cfg_for(4, seed=1))
    stats = ClusterStats.from_assignment(d, model.assignment, model.centroids)
    l_c, _, total = objective(d, stats, model.assignment, lam=0.0)
    assert total == l_c


def test_objective_single_group_clusters_contribute_zero():
    feats = [[0.0], [0.1], [10.0], [10.1]]
    d = make_dataset(feats, ["a", "a", "b", "b"], [1, 0, 1, 0], [1, 1, 0, 0])
    assignment = np.array([0, 0, 1, 1])
    cents = np.array([[0.05], [10.05]])
    stats = ClusterStats.from_assignment(d, assignment, cents)
    _, l_b, _ = objective(d, stats, assignment, lam=7.0)
    assert l_b == 0.0


# ------------------------------------------------------------------ fitting

def test_lambda_zero_matches_kmeans_exactly():
    rng = np.random.default_rng(8)
    d = random_dataset(rng, 200, dim=3, n_blobs=4)
    cfg = cfg_for(5, lam=0.0, seed=17)
    a = logan_fit(d, cfg)
    b = kmeans_fit(d, LoganConfig(k=5, lam=99.0, seed=17, min_clusters=5))
    assert np.array_equal(a.assignment, b.assignment)
    assert a.centroids.tobytes() == b.centroids.tobytes()


def test_kmeans_two_pairs_centroids_at_midpoints():
    feats = [[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0]]
    d = make_dataset(feats, ["a", "b", "a", "b"], [0] * 4, [0] * 4)
    model = kmeans_fit(
        d,
        cfg_for(2, min_clusters=2),
        initial_centroids=np.array([[0.0, 0.0], [10.0, 0.0]]),
    )
    assert model.converged
    got = sorted(tuple(c) for c in model.centroids)
    assert got == [(0.5, 0.0), (10.5, 0.0)]


def test_kmeans_inertia_never_increases():
    rng = np.random.default_rng(21)
    for seed in range(5):
        d = random_dataset(rng, 150, dim=2, n_blobs=4)
        model = kmeans_fit(d, cfg_for(6, seed=seed))
        inertias = [step[0] for step in model.objective_trace]
        for earlier, later in zip(inertias, inertias[1:]):
            assert later <= earlier + 1e-9 * abs(earlier)


def test_fit_deterministic_same_seed():
    rng = np.random.default_rng(2)
    d = random_dataset(rng, 120, dim=3)
    cfg = cfg_for(5, lam=10.0, seed=77)
    a = logan_fit(d, cfg)
    b = logan_fit(d, cfg)
    assert a.centroids.tobytes() == b.centroids.tobytes()
    assert np.array_equal(a.assignment, b.assignment)
    assert a.objective_trace == b.objective_trace
    assert a.converged == b.converged
    assert a.iterations_run == b.iterations_run


def test_trace_monotone_and_bias_loss_bounded():
    rng = np.random.default_rng(31)
    for trial in range(12):
        lam = [0.0, 1.0, 10.0, 100.0][trial % 4]
        d = random_dataset(rng, int(rng.integers(40, 140)), dim=2)
        k = int(rng.integers(2, 7))
        model = logan_fit(d, cfg_for(k, lam=lam, seed=trial))
        totals = [step[2] for step in model.objective_trace]
        for earlier, later in zip(totals, totals[1:]):
            assert later <= earlier + 1e-9 * abs(earlier)
        for _, l_b, _ in model.objective_trace:
            assert -k <= l_b <= 0.0


def test_incremental_stats_match_scratch_recompute():
    rng = np.random.default_rng(13)
    d = random_dataset(rng, 160, dim=3)
    model = logan_fit(d, cfg_for(6, lam=25.0, seed=5))
    stats = ClusterStats.from_assignment(d, model.assignment, model.centroids)
    means = stats.sums / stats.sizes[:, None]
    assert np.allclose(means, model.centroids, rtol=1e-9, atol=1e-12)
    l_c, l_b, _ = objective(d, stats, model.assignment, lam=25.0)
    assert model.objective_trace[-1][0] == pytest.approx(l_c, rel=1e-12)
    assert model.objective_trace[-1][1] == l_b


def test_local_minimum_certificate_on_converged_runs():
    rng = np.random.default_rng(19)
    checked = 0
    for trial in range(10):
        lam = [0.0, 5.0, 50.0][trial % 3]
        d = random_dataset(rng, 90, dim=2)
        cfg = cfg_for(4, lam=lam, seed=trial)
        model = logan_fit(d, cfg)
        if not model.converged:
            continue
        checked += 1
        assert best_single_move_delta(d, model, cfg) >= -1e-9
    assert checked >= 5


def test_oracle_lower_bound_tiny_instances():
    rng = np.random.default_rng(23)
    for trial in range(6):
        d = random_dataset(rng, 8, dim=2, n_blobs=2)
        for lam in (0.0, 10.0):
            cfg = cfg_for(2, lam=lam, seed=trial, min_clusters=2)
            model = logan_fit(d, cfg)
            oracle_total, _ = brute_force_objective(d, k=2, lam=lam)
            assert oracle_total <= model.objective_trace[-1][2] + 1e-9


def test_oracle_splits_distant_pairs():
    feats = [[0.0, 0.0], [1.0, 0.0], [50.0, 0.0], [51.0, 0.0]]
    d = make_dataset(feats, ["a", "b", "a", "b"], [0] * 4, [0] * 4)
    _, assign = brute_force_objective(d, k=2, lam=0.0)
    assert assign[0] == assign[1]
    assert assign[2] == assign[3]
    assert assign[0] != assign[2]


def test_empty_cluster_reseed_duplicate_seeds():
    # duplicate initial centroids force an empty cluster at the first update
    feats = [[0.0], [1.0], [2.0]]
    d = make_dataset(feats, ["a", "b", "a"], [1, 1, 0], [1, 1, 0])
    for lam in (0.0, 1.0):
        model = logan_fit(
            d,
            cfg_for(2, lam=lam, min_clusters=2),
            initial_centroids=np.array([[1.0], [1.0]]),
        )
        sizes = model.cluster_sizes()
        assert sizes.min() >= 1
        assert sizes.sum() == 3


def test_sequential_sweep_matches_batch_at_lambda_zero():
    rng = np.random.default_rng(41)
    d = random_dataset(rng, 50, dim=2)
    k = 4
    cents = kmeanspp_init(d, k, seed=9)
    X = d.feature_matrix
    from scipy.spatial.distance import cdist

    dist = cdist(X, cents, "sqeuclidean")
    start = dist.argmin(axis=1).tolist()
    stats = ClusterStats.from_assignment(d, np.array(start), cents)
    n1 = stats.group_counts[:, 0].tolist()
    n2 = stats.group_counts[:, 1].tolist()
    c1 = stats.correct_counts[:, 0].tolist()
    c2 = stats.correct_counts[:, 1].tolist()
    term = stats.gap_terms().tolist()
    # perturb the starting assignment so the sweep has genuine work to do
    assign = list(start)
    assign[0] = (assign[0] + 1) % k
    stats2 = ClusterStats.from_assignment(d, np.array(assign), cents)
    n1 = stats2.group_counts[:, 0].tolist()
    n2 = stats2.group_counts[:, 1].tolist()
    c1 = stats2.correct_counts[:, 0].tolist()
    c2 = stats2.correct_counts[:, 1].tolist()
    term = stats2.gap_terms().tolist()
    sums = np.array(stats2.sums)
    moves = _sweep_sequential(
        X,
        dist.tolist(),
        assign,
        n1,
        n2,
        c1,
        c2,
        term,
        sums,
        d.group_codes.tolist(),
        d.correct_flags.tolist(),
        0.0,
        1.0,
        range(d.n),
    )
    assert moves >= 1
    assert assign == dist.argmin(axis=1).tolist()


def test_permutation_equivariance_with_fixed_init():
    rng = np.random.default_rng(55)
    feats = rng.normal(size=(30, 2))
    groups = (["a", "b"] * 15)
    labels = rng.integers(0, 2, 30).tolist()
    preds = rng.integers(0, 2, 30).tolist()
    rows = rows_from_arrays(feats, groups, labels, preds)
    d = build_dataset(rows)
    cents = kmeanspp_init(d, 3, seed=1)
    cfg = cfg_for(3, lam=20.0, min_clusters=3)
    base = _fit_core(d, cents, cfg)

    perm = rng.permutation(30)
    d_perm = build_dataset([rows[i] for i in perm])
    # visit original instances in their original order
    position = np.empty(30, dtype=int)
    for new_idx, old_idx in enumerate(perm):
        position[old_idx] = new_idx
    permuted = _fit_core(d_perm, cents, cfg, sweep_order=position.tolist())
    for old_idx in range(30):
        assert permuted.assignment[position[old_idx]] == base.assignment[old_idx]


def test_normalized_clustering_loss_option():
    rng = np.random.default_rng(61)
    d = random_dataset(rng, 80, dim=2)
    cfg = cfg_for(4, lam=2.0, seed=3, normalize_clustering_loss=True)
    model = logan_fit(d, cfg)
    for l_c, l_b, total in model.objective_trace:
        assert total == l_c / d.n + 2.0 * l_b


def test_k_larger_than_n_rejected():
    d = make_dataset([[0.0], [1.0]], ["a", "b"], [0, 0], [0, 0])
    with pytest.raises(ValueError, match="exceeds"):
        logan_fit(d, cfg_for(3, min_clusters=1))


def test_bad_initial_centroid_shape_rejected():
    d = make_dataset([[0.0, 1.0], [1.0, 2.0]], ["a", "b"], [0, 0], [0, 0])
    with pytest.raises(ValueError, match="shape"):
        logan_fit(d, cfg_for(2, min_clusters=2), initial_centroids=np.zeros((2, 3)))


def test_brute_force_lambda_zero_equals_pure_kmeans_enumeration():
    rng = np.random.default_rng(71)
    d = random_dataset(rng, 7, dim=2)
    X = d.feature_matrix

    best = np.inf
    for assign in itertools.product(range(2), repeat=7):
        aa = np.array(assign)
        inertia = 0.0
        for j in range(2):
            pts = X[aa == j]
            if len(pts):
                inertia += float(np.sum((pts - pts.mean(axis=0)) ** 2))
        best = min(best, inertia)
    oracle_total, _ = brute_force_objective(d, k=2, lam=0.0)
    assert oracle_total == pytest.approx(best, rel=1e-12)


def test_term_helper():
    assert _term(0, 5, 0, 3) == 0.0
    assert _term(4, 2, 3, 1) == pytest.approx(0.0625)


# ------------------------------------------- blocked sweep vs the sequential loop

LAMBDAS = (1e-9, 1.0, 1e4)


@st.composite
def sweep_states(draw):
    """A random mid-fit state on an integer grid, so exact distance ties
    occur; some clusters hold a single group, and the visit order may
    repeat instances."""
    n = draw(st.integers(1, 300))
    k = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(-3, 4, size=(n, dim)).astype(np.float64)
    centroids = rng.integers(-6, 7, size=(k, dim)) / 2.0
    dist = cdist(X, centroids, "sqeuclidean")
    if draw(st.booleans()):
        assign = dist.argmin(axis=1)
    else:
        assign = rng.integers(0, k, size=n)
    g = rng.integers(0, 2, size=n)
    one_group = rng.random(k) < draw(st.sampled_from([0.0, 0.5]))
    g[one_group[assign]] = rng.integers(0, 2, size=k)[assign][one_group[assign]]
    w = rng.integers(0, 2, size=n)
    order = draw(st.sampled_from(["ascending", "permuted", "repeats"]))
    if order == "ascending":
        order = np.arange(n)
    elif order == "permuted":
        order = rng.permutation(n)
    else:
        order = rng.integers(0, n, size=n)
    lam = draw(st.sampled_from(LAMBDAS))
    dist_scale = draw(st.sampled_from([1.0, 1.0 / n]))
    return X, dist, assign, g.astype(np.int8), w.astype(np.int8), order, lam, dist_scale


def _sweep_args(X, dist, assign, g, w):
    k = dist.shape[1]
    n1 = [int(np.sum((assign == j) & (g == 0))) for j in range(k)]
    n2 = [int(np.sum((assign == j) & (g == 1))) for j in range(k)]
    c1 = [int(np.sum((assign == j) & (g == 0) & (w == 1))) for j in range(k)]
    c2 = [int(np.sum((assign == j) & (g == 1) & (w == 1))) for j in range(k)]
    term = [_term(n1[j], n2[j], c1[j], c2[j]) for j in range(k)]
    sums = np.zeros((k, X.shape[1]))
    np.add.at(sums, assign, X)
    return assign.tolist(), n1, n2, c1, c2, term, sums


@settings(max_examples=300, deadline=None)
@given(sweep_states())
def test_blocked_sweep_matches_sequential_loop_exactly(state):
    X, dist, assign, g, w, order, lam, dist_scale = state
    ref = _sweep_args(X, dist, assign, g, w)
    got = _sweep_args(X, dist, assign, g, w)
    got = (np.array(got[0], dtype=np.intp), *got[1:])
    ref_moves = _sweep_sequential(
        X, dist.tolist(), *ref, g.tolist(), w.tolist(), lam, dist_scale, order.tolist()
    )
    got_moves = _sweep_blocked(X, dist, *got, g, w, lam, dist_scale, order)
    assert got_moves == ref_moves
    assert got[0].tolist() == ref[0]
    for ref_part, got_part in zip(ref[1:5], got[1:5]):
        assert got_part == ref_part
    assert np.array(got[5]).tobytes() == np.array(ref[5]).tobytes()
    assert got[6].tobytes() == ref[6].tobytes()


@settings(max_examples=100, deadline=None)
@given(
    sweep_states(),
    st.sampled_from((0.0, *LAMBDAS)),
    st.booleans(),
)
def test_best_single_move_delta_matches_loop_exactly(state, lam, normalize):
    X, _, assign, g, w, _, _, _ = state
    assume(len(g) >= 2)
    g[-1] = 1 - g[0]  # build_dataset needs both groups
    k = int(assign.max()) + 1
    d = make_dataset(X, ["a" if a == 0 else "b" for a in g], w, np.ones(len(w)))
    centroids = np.random.default_rng(len(X)).integers(-6, 7, size=(k, X.shape[1])) / 2.0
    model = ClusterModel(
        centroids=centroids,
        assignment=assign,
        objective_trace=(),
        converged=False,
        iterations_run=0,
    )
    cfg = cfg_for(k, lam=lam, min_clusters=1, normalize_clustering_loss=normalize)
    assert best_single_move_delta(d, model, cfg) == reference_best_single_move_delta(
        d, model, cfg
    )


def test_overflowing_distances_rejected():
    feats = [[0.0, 0.0], [1.0, 0.0], [1e200, 0.0], [-1e200, 0.0]]
    d = make_dataset(feats, ["a", "b", "a", "b"], [0, 1, 0, 1], [0, 1, 1, 1])
    for lam in (0.0, 1.0):
        cfg = cfg_for(2, lam=lam, min_clusters=2)
        with pytest.raises(ValueError, match="overflow"):
            logan_fit(d, cfg, initial_centroids=np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="overflow float64; rescale the features"):
        kmeanspp_init(d, 2, seed=0)


# ------------------------------------- bound-pruned k-means vs full-argmin Lloyd

@st.composite
def lloyd_states(draw):
    """A dataset, seeds and config for a lambda = 0 fit.  Integer-grid
    features give exact distance ties and duplicate points; seeds drawn
    from the rows with replacement repeat and force re-seeds; the data may
    sit far from the origin; scales reach where squares underflow."""
    n = draw(st.integers(2, 80))
    dim = draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        X = rng.integers(-3, 4, size=(n, dim)).astype(np.float64)
    else:
        centers = rng.uniform(-6.0, 6.0, size=(draw(st.integers(1, 5)), dim))
        X = centers[rng.integers(len(centers), size=n)] + rng.standard_normal((n, dim))
    offset = draw(st.sampled_from([0.0, 1e6, -1e12]))
    scale = draw(st.sampled_from([1e-160, 1e-150, 1e-8, 1.0, 1e8, 1e150]))
    X = (X + offset) * scale
    groups = ["a", *np.where(rng.random(n - 2) < 0.5, "a", "b").tolist(), "b"]
    labels = rng.integers(0, 2, size=n)
    d = make_dataset(X, groups, labels, np.where(rng.random(n) < 0.8, labels, 1 - labels))
    if draw(st.booleans()):
        seeds = d.feature_matrix[rng.integers(n, size=k)]
    else:
        seeds = kmeanspp_init(d, k, seed=int(rng.integers(1000)))
    cfg = cfg_for(
        k,
        min_clusters=1,
        max_iter=draw(st.sampled_from([1, 2, 3, 100])),
        normalize_clustering_loss=draw(st.booleans()),
    )
    return d, seeds, cfg


@settings(max_examples=200, deadline=None)
@given(lloyd_states())
def test_kmeans_fit_matches_full_argmin_lloyd_exactly(state):
    d, seeds, cfg = state
    model = kmeans_fit(d, cfg, initial_centroids=seeds)
    assign, centroids, trace, iterations, converged = reference_lloyd(d, seeds, cfg)
    assert model.assignment.tolist() == assign.tolist()
    assert model.centroids.tobytes() == centroids.tobytes()
    assert np.array(model.objective_trace).tobytes() == np.array(trace).tobytes()
    assert model.iterations_run == iterations
    assert model.converged == converged


# ------------------------------------------- numpy distances vs scipy's cdist

@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 8),
    st.integers(1, 60),
    st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6, 1e155]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_sq_dists_matches_cdist_bitwise(dim, k, n, scale, on_grid, seed):
    """Integer-grid inputs give exact ties; at scale 1e155 some squared
    differences overflow to inf."""
    rng = np.random.default_rng(seed)
    if on_grid:
        X = rng.integers(-3, 4, size=(n, dim)) * scale
        centroids = rng.integers(-6, 7, size=(k, dim)) / 2.0 * scale
    else:
        X = rng.standard_normal((n, dim)) * scale
        centroids = rng.standard_normal((k, dim)) * scale
    with np.errstate(over="ignore"):
        expected = cdist(X, centroids, "sqeuclidean")
    got = _sq_dists(np.ascontiguousarray(X.T), centroids)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_sq_dists_single_instance_and_overflow():
    X = np.array([[1e200, -3.0]])
    centroids = np.array([[0.0, 0.0], [1e200, -3.0], [-1e200, 1.0]])
    got = _sq_dists(np.ascontiguousarray(X.T), centroids)
    assert got.tolist() == [[np.inf, 0.0, np.inf]]
    assert got.tobytes() == cdist(X, centroids, "sqeuclidean").tobytes()


def test_lloyd_bounds_evaluate_every_row_when_distances_may_overflow():
    cols = np.array([[0.0, 1.0, 2.0]])
    bounds = _LloydBounds(cols, 2)
    bounds.upper[:] = 0.0
    bounds.lower[:] = 1.0  # certify every row
    assign = np.zeros(3, dtype=np.intp)
    assert bounds.nearest(np.array([[0.0], [1.5]]), assign) == 0
    assert assign.tolist() == [0, 0, 0]
    with pytest.raises(ValueError, match="overflow"):
        bounds.nearest(np.array([[0.0], [1e200]]), assign)
