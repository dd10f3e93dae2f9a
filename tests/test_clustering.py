import itertools
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from logan import clustering
from logan.clustering import (
    ClusterModel,
    _LloydBounds,
    _gap_term,
    _set_bias_column,
    _sq_dists,
    _sweep_blocked,
    _term,
    kmeanspp_init,
    logan_fit,
)
from logan.data import LoganConfig, ValidationError
from logan.postprocess import merge_small_clusters
from logan.synthetic import PlantedBiasSpec, brute_force_objective, generate

from helpers import (
    ClusterStats,
    _sweep_sequential,
    best_single_move_delta,
    make_dataset,
    objective,
    random_dataset,
    reference_best_single_move_delta,
    reference_lloyd,
    reference_logan_fit,
    reference_merge_small_clusters,
)


def cfg_for(k, seed=0, **kw):
    kw.setdefault("min_clusters", min(k, 5))
    return LoganConfig(k=k, seed=seed, **kw)


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


def _kmeanspp_sq_dists_calls(monkeypatch, k):
    """The shapes of each ``_sq_dists`` call of a k-means++ seeding."""
    d = random_dataset(np.random.default_rng(2), 60, dim=9)
    real = clustering._sq_dists
    calls = []

    def spy(cols, centroids):
        calls.append((cols.shape, centroids.shape))
        return real(cols, centroids)

    monkeypatch.setattr(clustering, "_sq_dists", spy)
    kmeanspp_init(d, k=k, seed=4)
    return calls


def test_kmeanspp_weights_come_from_sq_dists(monkeypatch):
    """One ``_sq_dists`` call per seed but the last, whose distances no
    draw reads, against that seed alone."""
    assert _kmeanspp_sq_dists_calls(monkeypatch, 6) == [((9, 60), (1, 9))] * 5


def test_kmeanspp_one_seed_computes_no_distance(monkeypatch):
    assert _kmeanspp_sq_dists_calls(monkeypatch, 1) == []


def test_kmeanspp_weights_whose_sum_overflows_are_rejected():
    """Every two rows are 1.62e308 apart squared, which is finite, but the
    weights of the first seed sum past float64: a ``ValueError``, and no
    floating-point warning."""
    d = make_dataset(9e153 * np.eye(5), ["a", "b"] * 2 + ["a"], [0] * 5, [0] * 5)
    with pytest.raises(ValueError, match="overflow float64"):
        kmeanspp_init(d, k=2, seed=0)


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
    model = logan_fit(d, cfg_for(4, seed=1), 0.0)
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
    """Seeded from ``cfg.seed``, the lambda 0 fit is Lloyd k-means from the
    k-means++ seeds of that seed."""
    rng = np.random.default_rng(8)
    d = random_dataset(rng, 200, dim=3, n_blobs=4)
    cfg = cfg_for(5, seed=17)
    a = logan_fit(d, cfg, 0.0)
    assign, centroids, _, _, _ = reference_lloyd(d, kmeanspp_init(d, 5, 17), cfg)
    assert np.array_equal(a.assignment, assign)
    assert a.centroids.tobytes() == centroids.tobytes()


def test_kmeans_two_pairs_centroids_at_midpoints():
    feats = [[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0]]
    d = make_dataset(feats, ["a", "b", "a", "b"], [0] * 4, [0] * 4)
    model = logan_fit(
        d,
        cfg_for(2, min_clusters=2),
        0.0,
        initial_centroids=np.array([[0.0, 0.0], [10.0, 0.0]]),
    )
    assert model.converged
    got = sorted(tuple(c) for c in model.centroids)
    assert got == [(0.5, 0.0), (10.5, 0.0)]


def test_kmeans_inertia_never_increases():
    rng = np.random.default_rng(21)
    for seed in range(5):
        d = random_dataset(rng, 150, dim=2, n_blobs=4)
        model = logan_fit(d, cfg_for(6, seed=seed), 0.0)
        inertias = [step[0] for step in model.objective_trace(d)]
        for earlier, later in zip(inertias, inertias[1:]):
            assert later <= earlier + 1e-9 * abs(earlier)


def test_fit_deterministic_same_seed():
    rng = np.random.default_rng(2)
    d = random_dataset(rng, 120, dim=3)
    cfg = cfg_for(5, seed=77)
    a = logan_fit(d, cfg, 10.0)
    b = logan_fit(d, cfg, 10.0)
    assert a.centroids.tobytes() == b.centroids.tobytes()
    assert np.array_equal(a.assignment, b.assignment)
    assert a.objective_trace(d) == b.objective_trace(d)
    assert a.converged == b.converged
    assert a.iterations_run == b.iterations_run


def test_trace_monotone_and_bias_loss_bounded():
    rng = np.random.default_rng(31)
    for trial in range(12):
        lam = [0.0, 1.0, 10.0, 100.0][trial % 4]
        d = random_dataset(rng, int(rng.integers(40, 140)), dim=2)
        k = int(rng.integers(2, 7))
        model = logan_fit(d, cfg_for(k, seed=trial), lam)
        totals = [step[2] for step in model.objective_trace(d)]
        for earlier, later in zip(totals, totals[1:]):
            assert later <= earlier + 1e-9 * abs(earlier)
        for _, l_b, _ in model.objective_trace(d):
            assert -k <= l_b <= 0.0


def test_incremental_stats_match_scratch_recompute():
    rng = np.random.default_rng(13)
    d = random_dataset(rng, 160, dim=3)
    model = logan_fit(d, cfg_for(6, seed=5), 25.0)
    stats = ClusterStats.from_assignment(d, model.assignment, model.centroids)
    means = stats.sums / stats.sizes[:, None]
    assert np.allclose(means, model.centroids, rtol=1e-9, atol=1e-12)
    l_c, l_b, _ = objective(d, stats, model.assignment, lam=25.0)
    trace = model.objective_trace(d)
    assert trace[-1][0] == pytest.approx(l_c, rel=1e-12)
    assert trace[-1][1] == l_b


def test_local_minimum_certificate_on_converged_runs():
    rng = np.random.default_rng(19)
    checked = 0
    for trial in range(10):
        lam = [0.0, 5.0, 50.0][trial % 3]
        d = random_dataset(rng, 90, dim=2)
        model = logan_fit(d, cfg_for(4, seed=trial), lam)
        if not model.converged:
            continue
        checked += 1
        assert best_single_move_delta(d, model, lam) >= -1e-9
    assert checked >= 5


def test_oracle_lower_bound_tiny_instances():
    rng = np.random.default_rng(23)
    for trial in range(6):
        d = random_dataset(rng, 8, dim=2, n_blobs=2)
        for lam in (0.0, 10.0):
            cfg = cfg_for(2, seed=trial, min_clusters=2)
            model = logan_fit(d, cfg, lam)
            oracle_total, _ = brute_force_objective(d, k=2, lam=lam)
            assert oracle_total <= model.objective_trace(d)[-1][2] + 1e-9


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
            cfg_for(2, min_clusters=2),
            lam,
            initial_centroids=np.array([[1.0], [1.0]]),
        )
        sizes = model.cluster_sizes()
        assert sizes.min() >= 1
        assert sizes.sum() == 3


def assert_matches_the_reference_loops(d, seeds, cfg, lam):
    """Fit from ``seeds`` and compare with ``reference_lloyd`` at lam 0 and
    ``reference_logan_fit`` above, bit for bit; return the model."""
    model = logan_fit(d, cfg, lam, initial_centroids=seeds)
    if lam == 0.0:
        assign, centroids, trace, iterations, converged = reference_lloyd(d, seeds, cfg)
    else:
        assign, centroids, trace, iterations, converged = reference_logan_fit(
            d, seeds, cfg, lam
        )
    assert model.assignment.tolist() == np.asarray(assign).tolist()
    assert model.centroids.tobytes() == centroids.tobytes()
    assert np.array(model.objective_trace(d)).tobytes() == np.array(trace).tobytes()
    assert (model.iterations_run, model.converged) == (iterations, converged)
    return model


def _repeated_points(dim):
    """Six distinct points, each repeated three times, and twelve seeds
    drawn from the rows, of which at most six are distinct."""
    rng = np.random.default_rng(dim)
    X = np.repeat(rng.standard_normal((6, dim)) * 3.0, 3, axis=0)
    groups = ["a", "b"] * 9
    labels = rng.integers(0, 2, size=18)
    d = make_dataset(X, groups, labels, np.where(rng.random(18) < 0.7, labels, 1 - labels))
    return d, X[rng.integers(18, size=12)]


@pytest.mark.parametrize("dim", [2, 9, 16, 37, 768])
def test_many_reseeds_match_the_reference_loops_exactly(dim):
    """Six distinct points, each repeated: twelve seeds of which only six
    are distinct leave clusters empty, and every one is re-seeded.  The
    re-seed ranks donors by ``_sq_dists``."""
    d, seeds = _repeated_points(dim)
    for lam in (0.0, 5.0):
        assert_matches_the_reference_loops(d, seeds, cfg_for(12, min_clusters=1), lam)


def _count_moves(monkeypatch):
    """Patch ``_LloydBounds.nearest`` and ``_apply_move`` to count, in the
    returned one-entry list, every row a fit moves: the rows whose cluster
    the lambda = 0 assignment changes, the sweep moves and the re-seeds."""
    moved = [0]
    nearest = _LloydBounds.nearest
    apply_move = clustering._apply_move

    def counting_nearest(self, centroids, assign):
        before = assign.copy()
        result = nearest(self, centroids, assign)
        moved[0] += int(np.count_nonzero(assign != before))
        return result

    def counting_apply_move(*args):
        moved[0] += 1
        apply_move(*args)

    monkeypatch.setattr(_LloydBounds, "nearest", counting_nearest)
    monkeypatch.setattr(clustering, "_apply_move", counting_apply_move)
    return moved


def _log_cases():
    """(dataset, seeds, config) of a fit with many moves and of one that
    re-seeds in every iteration (k exceeds the number of distinct rows)."""
    d = generate(PlantedBiasSpec(n_per_component=60, seed=0))
    yield d, kmeanspp_init(d, 5, seed=0), cfg_for(5, min_clusters=2, min_cluster_total=70)
    d, seeds = _repeated_points(2)
    yield d, seeds, cfg_for(12, min_clusters=1, min_cluster_total=4, max_iter=6)


@pytest.mark.parametrize("lam", [0.0, 5.0])
def test_fit_log_holds_every_state_and_only_the_rows_that_moved(monkeypatch, lam):
    """One centroid snapshot per state, the last one the model's, and no
    more row entries than the fit made moves and re-seeds."""
    for d, seeds, cfg in _log_cases():
        moved = _count_moves(monkeypatch)
        model = logan_fit(d, cfg, lam, initial_centroids=seeds)
        log = model.log
        assert len(log.centroids) == model.iterations_run + 1
        assert len(log.moves) == model.iterations_run
        assert log.centroids[-1].tobytes() == model.centroids.tobytes()
        assert len(log.start) == d.n
        assert all(len(rows) == len(to) for rows, to in log.moves)
        assert 0 < sum(len(rows) for rows, _ in log.moves) <= moved[0]


@pytest.mark.parametrize("lam", [0.0, 5.0])
def test_merged_model_keeps_its_fit_trace(lam):
    for d, seeds, cfg in _log_cases():
        model = logan_fit(d, cfg, lam, initial_centroids=seeds)
        trace = np.array(model.objective_trace(d)).tobytes()
        for merge in (merge_small_clusters, reference_merge_small_clusters):
            merged = merge(model, d, cfg)
            assert merged.n_clusters < model.n_clusters
            assert np.array(merged.objective_trace(d)).tobytes() == trace


def test_reseed_from_a_seed_too_far_to_square():
    """Every squared distance to the seed 1e200 overflows, so every row
    joins cluster 0 and the re-seed of cluster 1 sees inf for each donor:
    it takes row 0, the lowest index, without a floating-point warning."""
    feats = [[float(i)] for i in range(6)]
    d = make_dataset(feats, ["a", "b"] * 3, [1, 0, 1, 1, 0, 1], [1, 1, 1, 0, 0, 1])
    seeds = np.array([[0.0], [1e200]])
    for lam in (0.0, 5.0):
        model = assert_matches_the_reference_loops(d, seeds, cfg_for(2), lam)
        assert model.assignment.tolist() == [1, 1, 0, 0, 0, 0]
        assert model.centroids.ravel().tolist() == [3.5, 0.5]
        assert model.iterations_run == 2


def test_reseed_ranks_donors_by_sq_dists_at_d16():
    """Rows 0 and 1 hold the same coordinates in two orders, so in exact
    arithmetic they are equally far from the emptied cluster's seed at the
    origin.  Summed left to right, as ``_sq_dists`` sums, row 0 is the
    farther; numpy's pairwise ``np.sum`` ranks row 1 farther.  The re-seed
    takes row 0, which keeps cluster 1 to itself."""
    rng = np.random.default_rng(11)
    v = rng.standard_normal(16)
    X = np.stack([4.0 + v, 4.0 + v[rng.permutation(16)], np.full(16, 4.0), np.full(16, 3.6)])
    far = _sq_dists(np.ascontiguousarray(X.T), np.zeros((1, 16)))[:, 0]
    assert far[0] > far[1] > far[2:].max()
    assert np.sum(X[0] ** 2) < np.sum(X[1] ** 2)
    d = make_dataset(X, ["a", "b", "a", "b"], [1, 1, 1, 0], [1, 0, 1, 1])
    seeds = np.stack([np.full(16, 4.0), np.zeros(16)])
    for lam in (0.0, 5.0):
        model = assert_matches_the_reference_loops(d, seeds, cfg_for(2), lam)
        assert model.assignment.tolist() == [1, 0, 0, 0]


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
    )
    assert moves >= 1
    assert assign == dist.argmin(axis=1).tolist()


def test_k_larger_than_n_rejected():
    d = make_dataset([[0.0], [1.0]], ["a", "b"], [0, 0], [0, 0])
    with pytest.raises(ValueError, match="exceeds"):
        logan_fit(d, cfg_for(3, min_clusters=1), 0.0)


def test_bad_initial_centroid_shape_rejected():
    """Initial centroids must hold one row of d coordinates per cluster of
    ``cfg.k``: a wrong width, an empty array, or fewer rows than k (which
    would fit fewer clusters than ``min_clusters``) are refused."""
    d = make_dataset([[0.0, 1.0], [1.0, 2.0]], ["a", "b"], [0, 0], [0, 0])
    for shape in [(2, 3), (0, 2), (1, 2)]:
        wanted = re.escape(f"initial centroids must have shape (k, d) = (2, 2), got {shape}")
        for lam in (0.0, 5.0):
            with pytest.raises(ValueError, match=f"^{wanted}$"):
                logan_fit(d, cfg_for(2, min_clusters=2), lam, initial_centroids=np.zeros(shape))


@pytest.mark.parametrize("lam", [0.0, 5.0])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_initial_centroids_rejected(lam, bad):
    d = generate(PlantedBiasSpec(n_per_component=50, seed=0))
    seeds = kmeanspp_init(d, 6, 0)
    seeds[2, 1] = bad
    with pytest.raises(ValueError, match="initial centroids must be finite"):
        logan_fit(d, cfg_for(6), lam, initial_centroids=seeds)


@pytest.mark.parametrize(
    "lam, shown", [(-0.5, "-0.5"), (-1.0, "-1.0"), (float("nan"), "nan"), (float("inf"), "inf")]
)
def test_logan_fit_rejects_a_bad_weight(lam, shown):
    d = make_dataset([[0.0], [1.0], [2.0]], ["a", "b", "a"], [0, 1, 0], [0, 1, 1])
    with pytest.raises(ValidationError, match=rf"^lam must be finite and >= 0, got {shown}$"):
        logan_fit(d, cfg_for(2, min_clusters=2), lam)


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


def _np_term(n1, n2, c1, c2):
    """``_term`` of every cluster at once, squared with numpy's ``** 2``."""
    ok = (n1 != 0) & (n2 != 0)
    p1 = np.divide(c1, n1, out=np.zeros(n1.shape), where=ok)
    p2 = np.divide(c2, n2, out=np.zeros(n1.shape), where=ok)
    return np.where(ok, (p1 - p2) ** 2, 0.0)


def test_numpy_bias_table_matches_set_bias_column_bit_for_bit():
    # numpy squares as x * x, so _term must too for a vectorized table to agree
    rng = np.random.default_rng(0)
    for _ in range(400):
        k = int(rng.integers(1, 12))
        c = rng.integers(0, rng.choice([3, 30, 300, 3000]), size=(k, 4))
        c[rng.random(k) < 0.2, :2] = 0  # clusters without a group-1 member
        c[rng.random(k) < 0.2, 2:] = 0  # and without a group-2 member
        a1, a2, b1, b2 = c[:, 0] + c[:, 1], c[:, 2] + c[:, 3], c[:, 1], c[:, 3]
        t = _np_term(a1, a2, b1, b2)
        after = [
            _np_term(a1 - 1, a2, b1, b2),
            _np_term(a1 - 1, a2, b1 - 1, b2),
            _np_term(a1, a2 - 1, b1, b2),
            _np_term(a1, a2 - 1, b1, b2 - 1),
            _np_term(a1 + 1, a2, b1, b2),
            _np_term(a1 + 1, a2, b1 + 1, b2),
            _np_term(a1, a2 + 1, b1, b2),
            _np_term(a1, a2 + 1, b1, b2 + 1),
        ]
        for lam in (0.37, 1.0, 5.0, 100.0):
            want = np.empty((8, k))
            for j in range(k):
                _set_bias_column(want, j, c[j].tolist(), lam)
            got = np.stack([lam * (t - term) for term in after])
            assert got.tobytes() == want.tobytes()


# ------------------------------------------- blocked sweep vs the sequential loop

LAMBDAS = (1e-9, 1.0, 1e4)


@st.composite
def sweep_states(draw):
    """A random mid-fit state on an integer grid, so exact distance ties
    occur; some clusters hold a single group."""
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
    lam = draw(st.sampled_from(LAMBDAS))
    return X, dist, assign, g.astype(np.int8), w.astype(np.int8), lam


def _sweep_args(X, dist, assign, g, w):
    """The tallies of one state, counted afresh twice: as the n1, n2, c1, c2
    lists that ``_sweep_sequential`` takes, and as the kind counts and
    per-instance kinds that ``_sweep_blocked`` takes."""
    k = dist.shape[1]
    n1 = [int(np.sum((assign == j) & (g == 0))) for j in range(k)]
    n2 = [int(np.sum((assign == j) & (g == 1))) for j in range(k)]
    c1 = [int(np.sum((assign == j) & (g == 0) & (w == 1))) for j in range(k)]
    c2 = [int(np.sum((assign == j) & (g == 1) & (w == 1))) for j in range(k)]
    term = [_term(n1[j], n2[j], c1[j], c2[j]) for j in range(k)]
    sums = np.zeros((k, X.shape[1]))
    np.add.at(sums, assign, X)
    kinds = 2 * g.astype(np.intp) + w
    counts = [[int(np.sum((assign == j) & (kinds == a))) for a in range(4)] for j in range(k)]
    ref = (assign.tolist(), n1, n2, c1, c2, term, sums)
    got = (np.array(assign, dtype=np.intp), counts, sums.copy())
    return ref, got, kinds


def _kind_counts(n1, n2, c1, c2):
    return [[a1 - b1, b1, a2 - b2, b2] for a1, a2, b1, b2 in zip(n1, n2, c1, c2)]


@settings(max_examples=300, deadline=None)
@given(sweep_states())
def test_blocked_sweep_matches_sequential_loop_exactly(state):
    X, dist, assign, g, w, lam = state
    ref, got, kinds = _sweep_args(X, dist, assign, g, w)
    ref_moves = _sweep_sequential(X, dist.tolist(), *ref, g.tolist(), w.tolist(), lam)
    rows, to = _sweep_blocked(X, dist, *got, kinds, lam)
    assert len(rows) == len(to) == ref_moves
    assert got[0][rows].tolist() == to.tolist()
    assert got[0].tolist() == ref[0]
    assert got[1] == _kind_counts(*ref[1:5])
    assert np.array([_gap_term(c) for c in got[1]]).tobytes() == np.array(ref[5]).tobytes()
    assert got[2].tobytes() == ref[6].tobytes()


def test_blocked_sweep_sums_each_delta_in_the_loops_order():
    """A near tie the fuzz test is unlikely to draw: moving instance 0 from
    cluster 0 to 1 changes the objective by -5.6e-17 when the delta is
    summed as (distance part + leave) + join, the loop's order, and by
    exactly 0.0, so the instance stays, in every other order."""
    X = np.zeros((6, 1))
    dist = np.array([[1.0, 0.1388888888888889], [0.0, 100.0], *[[100.0, 0.0]] * 4])
    assign = np.array([0, 0, 1, 1, 1, 1])
    g = np.array([0, 1, 0, 0, 0, 1], dtype=np.int8)
    w = np.array([1, 0, 1, 0, 0, 0], dtype=np.int8)
    ref, got, kinds = _sweep_args(X, dist, assign, g, w)
    assert _sweep_sequential(X, dist.tolist(), *ref, g.tolist(), w.tolist(), 1.0) == 1
    rows, to = _sweep_blocked(X, dist, *got, kinds, 1.0)
    assert (rows.tolist(), to.tolist()) == ([0], [1])
    assert got[0].tolist() == ref[0] == [1, 0, 1, 1, 1, 1]


def test_blocked_sweep_updates_sums_in_move_order():
    """Cluster 0 first gains instance 0 and then loses instance 1.  In move
    order its sum is (1.0 + 1e-20) - 1.0 == 0.0; all subtractions before
    all additions would give (1.0 - 1.0) + 1e-20 instead."""
    assert (1.0 + 1e-20) - 1.0 != (1.0 - 1.0) + 1e-20
    X = np.array([[1e-20], [1.0], [0.0], [0.0]])
    dist = np.array([[0.0, 100.0], [100.0, 0.0], [0.0, 100.0], [100.0, 0.0]])
    assign = np.array([1, 0, 0, 1])
    g = np.array([0, 1, 0, 1], dtype=np.int8)
    w = np.array([1, 1, 0, 1], dtype=np.int8)
    ref, got, kinds = _sweep_args(X, dist, assign, g, w)
    assert _sweep_sequential(X, dist.tolist(), *ref, g.tolist(), w.tolist(), 1.0) == 2
    rows, to = _sweep_blocked(X, dist, *got, kinds, 1.0)
    assert (rows.tolist(), to.tolist()) == ([0, 1], [0, 1])
    assert got[0].tolist() == ref[0] == [0, 1, 0, 1]
    assert got[2].tobytes() == ref[6].tobytes()
    assert got[2][:, 0].tolist() == [0.0, 1.0]


@settings(max_examples=100, deadline=None)
@given(sweep_states(), st.sampled_from((0.0, *LAMBDAS)))
def test_best_single_move_delta_matches_loop_exactly(state, lam):
    X, _, assign, g, w, _ = state
    assume(len(g) >= 2)
    g[-1] = 1 - g[0]  # build_dataset needs both groups
    k = int(assign.max()) + 1
    d = make_dataset(X, ["a" if a == 0 else "b" for a in g], w, np.ones(len(w)))
    centroids = np.random.default_rng(len(X)).integers(-6, 7, size=(k, X.shape[1])) / 2.0
    model = ClusterModel(
        centroids=centroids,
        assignment=assign,
        converged=False,
        iterations_run=0,
    )
    assert best_single_move_delta(d, model, lam) == reference_best_single_move_delta(
        d, model, lam
    )


def test_overflowing_distances_rejected():
    feats = [[0.0, 0.0], [1.0, 0.0], [1e200, 0.0], [-1e200, 0.0]]
    d = make_dataset(feats, ["a", "b", "a", "b"], [0, 1, 0, 1], [0, 1, 1, 1])
    for lam in (0.0, 1.0):
        cfg = cfg_for(2, min_clusters=2)
        with pytest.raises(ValueError, match="overflow"):
            logan_fit(d, cfg, lam, initial_centroids=np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="overflow float64; rescale the features"):
        kmeanspp_init(d, 2, seed=0)


# ------------------------------------- bound-pruned k-means vs full-argmin Lloyd

@st.composite
def lloyd_states(draw):
    """A dataset, seeds and config for a fit.  Integer-grid
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
    cfg = cfg_for(k, min_clusters=1, max_iter=draw(st.sampled_from([1, 2, 3, 100])))
    return d, seeds, cfg


@settings(max_examples=200, deadline=None)
@given(lloyd_states())
def test_kmeans_fit_matches_full_argmin_lloyd_exactly(state):
    d, seeds, cfg = state
    model = logan_fit(d, cfg, 0.0, initial_centroids=seeds)
    assign, centroids, trace, iterations, converged = reference_lloyd(d, seeds, cfg)
    assert model.assignment.tolist() == assign.tolist()
    assert model.centroids.tobytes() == centroids.tobytes()
    assert np.array(model.objective_trace(d)).tobytes() == np.array(trace).tobytes()
    assert model.iterations_run == iterations
    assert model.converged == converged


# ------------------------------------ lambda > 0 fit vs the one-instance loop

@settings(max_examples=150, deadline=None)
@given(lloyd_states(), st.sampled_from(LAMBDAS))
def test_logan_fit_matches_sequential_reference_exactly(state, lam):
    """The whole fit, so a distance buffer that one sweep leaves stale for
    the next would show."""
    d, seeds, cfg = state
    model = logan_fit(d, cfg, lam, initial_centroids=seeds)
    assign, centroids, trace, iterations, converged = reference_logan_fit(d, seeds, cfg, lam)
    assert model.assignment.tolist() == assign.tolist()
    assert model.centroids.tobytes() == centroids.tobytes()
    assert np.array(model.objective_trace(d)).tobytes() == np.array(trace).tobytes()
    assert model.iterations_run == iterations
    assert model.converged == converged


def _count_distance_columns(monkeypatch):
    """Patch ``_sq_dists`` to append the number of centroid columns of each
    call to the returned list."""
    columns = []
    real = clustering._sq_dists

    def counting(cols, centroids):
        columns.append(len(centroids))
        return real(cols, centroids)

    monkeypatch.setattr(clustering, "_sq_dists", counting)
    return columns


def test_warm_start_that_buys_nothing_reuses_every_distance_column(monkeypatch):
    """Every prediction is correct, so no move changes a gap term: started
    from a converged k-means fit, the lambda fit converges in one sweep and
    that sweep reuses all k columns of the nearest-seed distances."""
    d = generate(PlantedBiasSpec(planted_gap=0.0, background_acc=1.0, seed=0))
    cfg = LoganConfig()
    kmeans = logan_fit(d, cfg, 0.0)
    assert kmeans.converged
    columns = _count_distance_columns(monkeypatch)
    model = logan_fit(d, cfg, 5.0, initial_centroids=kmeans.centroids)
    assert columns == [cfg.k]
    assert model.converged and model.iterations_run == 1
    assert model.assignment.tolist() == kmeans.assignment.tolist()
    assign, centroids, trace, _, _ = reference_logan_fit(d, kmeans.centroids, cfg, 5.0)
    assert model.assignment.tolist() == assign.tolist()
    assert model.centroids.tobytes() == centroids.tobytes()
    assert np.array(model.objective_trace(d)).tobytes() == np.array(trace).tobytes()


def test_lambda_fit_recomputes_only_the_columns_of_moved_centroids(monkeypatch):
    """After the first sweep, which moves every seed, only some clusters
    change per sweep, and only their distance columns are computed."""
    d = generate(PlantedBiasSpec(n_per_component=60, seed=0))
    cfg = LoganConfig()
    seeds = kmeanspp_init(d, cfg.k, cfg.seed)
    columns = _count_distance_columns(monkeypatch)
    model = logan_fit(d, cfg, 10.0, initial_centroids=seeds)
    assert model.converged and model.iterations_run >= 3
    assert columns[:2] == [cfg.k, cfg.k]  # the seeds, then every moved seed
    assert len(columns) <= 1 + model.iterations_run
    assert all(0 < c < cfg.k for c in columns[2:])
    assign, centroids, trace, iterations, _ = reference_logan_fit(d, seeds, cfg, 10.0)
    assert model.assignment.tolist() == assign.tolist()
    assert model.centroids.tobytes() == centroids.tobytes()
    assert np.array(model.objective_trace(d)).tobytes() == np.array(trace).tobytes()
    assert model.iterations_run == iterations


# ------------------------------------------- numpy distances vs scipy's cdist

@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 8),
    st.integers(1, 60) | st.sampled_from([8193, 16421]),
    st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6, 1e155]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example(dim=3, k=4, n=16421, scale=1.0, on_grid=False, seed=1)
def test_sq_dists_matches_cdist_bitwise(dim, k, n, scale, on_grid, seed):
    """Integer-grid inputs give exact ties; at scale 1e155 some squared
    differences overflow to inf.  Past 8,192 rows the distances are still
    computed in one pass."""
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
    assert got.shape == expected.shape and got.flags.c_contiguous
    assert got.tobytes() == expected.tobytes()


def test_sq_dists_single_instance_and_overflow():
    X = np.array([[1e200, -3.0]])
    centroids = np.array([[0.0, 0.0], [1e200, -3.0], [-1e200, 1.0]])
    got = _sq_dists(np.ascontiguousarray(X.T), centroids)
    assert got.tolist() == [[np.inf, 0.0, np.inf]]
    assert got.tobytes() == cdist(X, centroids, "sqeuclidean").tobytes()


def test_lloyd_bounds_evaluate_every_row_when_distances_may_overflow():
    cols = np.array([[0.0, 1.0, 2.0]])
    bounds = _LloydBounds(cols)
    bounds.upper[:] = 0.0
    bounds.lower[:] = 1.0  # certify every row
    assign = np.zeros(3, dtype=np.intp)
    rows, to = bounds.nearest(np.array([[0.0], [1.5]]), assign)
    assert len(rows) == len(to) == 0
    assert assign.tolist() == [0, 0, 0]
    with pytest.raises(ValueError, match="overflow"):
        bounds.nearest(np.array([[0.0], [1e200]]), assign)
