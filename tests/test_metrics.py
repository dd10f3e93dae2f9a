import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from logan.metrics import (
    GapResult,
    MetricKind,
    _auc_from_arrays,
    _average_ranks,
    counts,
    global_bias,
    group_gaps,
    performance,
    random_split_baseline,
    table_gaps,
)
from logan.synthetic import brute_force_auc

from helpers import make_dataset, reference_group_gap, reference_performance


def dataset_of(labels, preds, groups=None, scores=None):
    n = len(labels)
    groups = groups or ["a", "b"] * (n // 2 + 1)
    return make_dataset(
        features=[[float(i)] for i in range(n)],
        groups=groups[:n],
        labels=labels,
        preds=preds,
        scores=scores,
    )


def every_row(d):
    return np.arange(d.n)


def in_cell_0(d, rows):
    """Cell ids with the rows ``rows`` in cell 0 and every other row in
    cell 1."""
    cells = np.ones(d.n, dtype=np.intp)
    cells[rows] = 0
    return cells


def performance_of(d, rows, kind):
    _, values = performance(d, in_cell_0(d, rows), 2, kind)
    return values[0]


def group_gap_of(d, rows, kind):
    return group_gaps(d, in_cell_0(d, rows), 2, kind)[0]


def test_accuracy_three_of_four():
    d = dataset_of([1, 0, 1, 0], [1, 0, 0, 0])
    assert performance_of(d, every_row(d), MetricKind.ACCURACY) == 0.75


def test_accuracy_empty_subset_undefined():
    d = dataset_of([1, 0], [1, 0])
    assert performance_of(d, [], MetricKind.ACCURACY) is None


def test_fpr_counts_negatives_only():
    # labels: 0 0 0 1; predictions flag two of the three negatives
    d = dataset_of([0, 0, 0, 1], [1, 1, 0, 1])
    assert performance_of(d, every_row(d), MetricKind.FPR) == pytest.approx(2 / 3)


def test_fpr_undefined_without_negatives():
    d = dataset_of([1, 1], [1, 0])
    assert performance_of(d, every_row(d), MetricKind.FPR) is None


def test_auc_perfect_separation():
    d = dataset_of([1, 0, 1, 0], [1, 0, 0, 0], scores=[0.9, 0.1, 0.8, 0.2])
    assert performance_of(d, every_row(d), MetricKind.SUBGROUP_AUC) == 1.0


def test_auc_single_tied_pair():
    d = dataset_of([1, 0], [1, 0], scores=[0.5, 0.5])
    assert performance_of(d, every_row(d), MetricKind.SUBGROUP_AUC) == 0.5


def test_auc_reversed_scores():
    d = dataset_of([1, 0], [1, 0], scores=[0.1, 0.9])
    assert performance_of(d, every_row(d), MetricKind.SUBGROUP_AUC) == 0.0


def test_auc_mixed_with_tie():
    # pairs: (0.6 vs 0.5) correct, (0.4 vs 0.5) wrong -> 0.5
    d = dataset_of([1, 1, 0], [1, 1, 0], scores=[0.6, 0.4, 0.5])
    assert performance_of(d, every_row(d), MetricKind.SUBGROUP_AUC) == 0.5


def test_auc_single_class_undefined():
    d = dataset_of([1, 1], [1, 1], scores=[0.3, 0.7])
    assert performance_of(d, every_row(d), MetricKind.SUBGROUP_AUC) is None


def test_auc_missing_score_raises():
    d = dataset_of([1, 0], [1, 0])
    with pytest.raises(ValueError, match="score"):
        performance_of(d, every_row(d), MetricKind.SUBGROUP_AUC)


@pytest.mark.parametrize("seed", range(20))
def test_auc_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 200))
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    # quantized scores make ties frequent
    scores = rng.integers(0, 6, size=n) / 5.0
    d = dataset_of(labels.tolist(), labels.tolist(), scores=scores.tolist())
    fast = performance_of(d, every_row(d), MetricKind.SUBGROUP_AUC)
    slow = brute_force_auc(d.labels, d.scores)
    assert fast == pytest.approx(slow, abs=1e-12)


@given(st.lists(st.tuples(st.integers(0, 1), st.floats(0, 1)), min_size=2, max_size=60))
@settings(max_examples=200, deadline=None)
def test_auc_reversal_property(pairs):
    labels = np.array([p[0] for p in pairs])
    scores = np.array([p[1] for p in pairs])
    auc = _auc_from_arrays(labels, scores)
    if auc is None:
        return
    flipped = _auc_from_arrays(labels, -scores)
    assert abs(auc - (1.0 - flipped)) < 1e-12
    assert 0.0 <= auc <= 1.0


def test_group_gap_direct_count():
    # group a: 3/4 correct, group b: 1/2 correct
    d = dataset_of(
        [1, 1, 0, 0, 1, 0],
        [1, 1, 0, 1, 1, 1],
        groups=["a", "a", "a", "a", "b", "b"],
    )
    res = group_gap_of(d, every_row(d), MetricKind.ACCURACY)
    assert res.perf_group1 == 0.75
    assert res.perf_group2 == 0.5
    assert res.gap == 0.25
    assert (res.n_group1, res.n_group2) == (4, 2)


def test_group_gap_symmetric_zero():
    # identical (label, pred) multisets in both groups
    d = dataset_of(
        [1, 0, 1, 0],
        [1, 1, 1, 1],
        groups=["a", "a", "b", "b"],
    )
    res = group_gap_of(d, every_row(d), MetricKind.ACCURACY)
    assert res.gap == 0.0


def test_group_gap_empty_group_undefined():
    d = dataset_of([1, 0, 1], [1, 0, 1], groups=["a", "a", "b"])
    subset = [0, 1]  # group b absent from the evaluated slice
    res = group_gap_of(d, subset, MetricKind.ACCURACY)
    assert res.perf_group2 is None
    assert res.gap is None
    assert res.n_group2 == 0


def test_group_gap_permutation_invariant():
    # relabelling the cells permutes the results and changes none of them
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 2, 30).tolist()
    preds = rng.integers(0, 2, 30).tolist()
    groups = (["a", "b"] * 15)
    d = dataset_of(labels, preds, groups=groups)
    cells = rng.integers(0, 4, 30)
    relabel = rng.permutation(4)
    for kind in (MetricKind.ACCURACY, MetricKind.FPR):
        res = group_gaps(d, cells, 4, kind)
        res_perm = group_gaps(d, relabel[cells], 4, kind)
        assert [res_perm[relabel[j]] for j in range(4)] == res


def test_global_bias_duplicated_group_is_zero():
    # same records tagged a and b -> exact symmetry
    labels = [1, 0, 1, 1]
    preds = [1, 0, 0, 1]
    d = make_dataset(
        features=[[float(i % 4)] for i in range(8)],
        groups=["a"] * 4 + ["b"] * 4,
        labels=labels * 2,
        preds=preds * 2,
    )
    assert global_bias(d, MetricKind.ACCURACY).gap == 0.0


def test_random_split_all_correct_is_zero():
    d = make_dataset(
        features=[[float(i)] for i in range(12)],
        groups=["a", "b"] * 6,
        labels=[1, 0] * 6,
        preds=[1, 0] * 6,
    )
    mean, std = random_split_baseline(d, MetricKind.ACCURACY, runs=5, seed=9)
    assert mean == 0.0
    assert std == 0.0


def test_random_split_deterministic():
    rng = np.random.default_rng(11)
    labels = rng.integers(0, 2, 40).tolist()
    preds = rng.integers(0, 2, 40).tolist()
    d = make_dataset(
        features=[[float(i)] for i in range(40)],
        groups=["a", "b"] * 20,
        labels=labels,
        preds=preds,
    )
    first = random_split_baseline(d, MetricKind.ACCURACY, runs=5, seed=42)
    second = random_split_baseline(d, MetricKind.ACCURACY, runs=5, seed=42)
    assert first == second
    other = random_split_baseline(d, MetricKind.ACCURACY, runs=5, seed=43)
    assert first != other  # different seed, different splits (generically)


def test_random_split_requires_runs():
    d = make_dataset([[0.0], [1.0]], ["a", "b"], [0, 1], [0, 1])
    with pytest.raises(ValueError):
        random_split_baseline(d, MetricKind.ACCURACY, runs=0)


def test_metric_bounds_on_random_subsets():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        labels = rng.integers(0, 2, n).tolist()
        preds = rng.integers(0, 2, n).tolist()
        scores = rng.random(n).tolist()
        d = dataset_of(labels, preds, scores=scores)
        for kind in MetricKind:
            value = performance_of(d, every_row(d), kind)
            if value is not None:
                assert 0.0 <= value <= 1.0


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
        min_size=1,
        max_size=60,
    )
)
def test_average_ranks_match_rankdata_bitwise(values):
    v = np.array(values, dtype=np.float64)
    assert _average_ranks(v).tobytes() == rankdata(v, method="average").tobytes()


@pytest.mark.parametrize(
    "cells, shown",
    [
        ([0, 1, 0], "one integer id per row"),
        ([0, -1, 0, 1], r"\[0, 2\)"),
        ([0, 1, 2, 1], r"\[0, 2\)"),
        ([0.0, 1.0, 0.0, 1.0], "one integer id per row"),
    ],
)
@pytest.mark.parametrize("compute", [performance, group_gaps])
def test_cells_hold_one_id_in_range_per_row(compute, cells, shown):
    d = dataset_of([1, 0, 1, 0], [1, 0, 0, 0])
    with pytest.raises(ValueError, match=shown):
        compute(d, np.array(cells), 2, MetricKind.ACCURACY)


N_CELLS = 7
# appended to every drawn partition: cell 4 holds group "a" only, cell 5
# label 1 only (FPR and AUC undefined), and cell 6 stays empty
FIXED_ROWS = [
    (4, "a", 1, 0, 0.5),
    (4, "a", 0, 1, 0.5),
    (5, "a", 1, 1, 0.25),
    (5, "b", 1, 0, 0.25),
]


# (cell, group, label, prediction, score) rows of a random partition
PARTITION_ROWS = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.sampled_from("ab"),
        st.integers(0, 1),
        st.integers(0, 1),
        # few distinct scores, so ties are frequent
        st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
    ),
    max_size=60,
)


def partition_of(rows):
    """The cell ids and dataset of ``rows`` plus ``FIXED_ROWS``."""
    rows = rows + FIXED_ROWS
    d = make_dataset(
        features=[[float(i)] for i in range(len(rows))],
        groups=[r[1] for r in rows],
        labels=[r[2] for r in rows],
        preds=[r[3] for r in rows],
        scores=[r[4] for r in rows],
    )
    return np.array([r[0] for r in rows]), d


@settings(max_examples=300, deadline=None)
@given(PARTITION_ROWS)
def test_group_gaps_match_the_per_subset_reference_bitwise(rows):
    cells, d = partition_of(rows)
    for kind in MetricKind:
        sizes, values = performance(d, cells, N_CELLS, kind)
        gaps = group_gaps(d, cells, N_CELLS, kind)
        for j in range(N_CELLS):
            members = np.flatnonzero(cells == j)
            assert sizes[j] == len(members) and type(sizes[j]) is int
            # repr tells every float bit pattern apart, and Python from numpy scalars
            assert repr(values[j]) == repr(reference_performance(d, members, kind))
            if len(members) == 0:
                assert gaps[j] == GapResult(None, None, None, 0, 0)
            else:
                assert repr(gaps[j]) == repr(reference_group_gap(d, members, kind))
    assert gaps[6].n_group1 == gaps[6].n_group2 == 0
    assert gaps[4].perf_group2 is None or gaps[4].perf_group1 is None
    assert gaps[5].gap is None


@seed(20201016)
@settings(max_examples=200, deadline=None)
@given(PARTITION_ROWS)
def test_table_reads_the_group_gaps_of_the_rows_bitwise(rows):
    """Accuracy and FPR read off the (cell, group, label, prediction)
    table equal ``group_gaps`` on the rows; the table's columns count
    (label, prediction) pairs in TN, FP, FN, TP order."""
    cells, d = partition_of(rows)
    flat = counts(d, cells, N_CELLS)
    assert flat.shape == (N_CELLS, 4)
    for j in range(N_CELLS):
        member = cells == j
        assert flat[j].tolist() == [
            int(np.sum(member & (d.labels == label) & (d.preds == pred)))
            for label in (0, 1)
            for pred in (0, 1)
        ]
    table = counts(d, 2 * cells + d.group_codes, 2 * N_CELLS).reshape(N_CELLS, 2, 2, 2)
    assert table.sum(axis=1).tolist() == flat.reshape(N_CELLS, 2, 2).tolist()
    for kind in (MetricKind.ACCURACY, MetricKind.FPR):
        assert repr(table_gaps(table, kind)) == repr(group_gaps(d, cells, N_CELLS, kind))
    with pytest.raises(ValueError, match="auc is not read from counts"):
        table_gaps(table, MetricKind.SUBGROUP_AUC)


def reference_random_split(d, kind, runs, seed):
    """``random_split_baseline`` measured half by half, each half's rows in
    permutation order."""
    rng = np.random.default_rng(seed)
    n1, _ = d.group_sizes()
    gaps = []
    for _ in range(runs):
        perm = rng.permutation(d.n)
        pa = reference_performance(d, perm[:n1], kind)
        pb = reference_performance(d, perm[n1:], kind)
        if pa is not None and pb is not None:
            gaps.append(abs(pa - pb))
    if not gaps:
        return float("nan"), float("nan")
    return float(np.mean(gaps)), float(np.std(gaps))


@pytest.mark.parametrize("kind", list(MetricKind))
@pytest.mark.parametrize("seed", range(6))
def test_random_split_matches_the_per_half_reference_bitwise(kind, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 300))
    labels = rng.integers(0, 2, n)
    preds = rng.integers(0, 2, n)
    # quantized scores make ties frequent
    scores = rng.integers(0, 5, n) / 4.0
    d = dataset_of(labels.tolist(), preds.tolist(), scores=scores.tolist())
    got = random_split_baseline(d, kind, runs=5, seed=seed)
    expected = reference_random_split(d, kind, 5, seed)
    assert np.array(got).tobytes() == np.array(expected).tobytes()
