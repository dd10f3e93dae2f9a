import math

import numpy as np
import pytest

from logan.data import (
    LoganConfig,
    ValidationError,
    build_dataset,
    standardize_features,
)

from helpers import make_dataset, rows_from_arrays


def base_rows():
    return rows_from_arrays(
        features=[[0.0, 1.0], [1.0, 2.0], [2.0, 3.0], [3.0, 4.0]],
        groups=["a", "b", "a", "b"],
        labels=[0, 1, 1, 0],
        preds=[0, 1, 0, 0],
    )


def test_build_dataset_basic():
    d = build_dataset(base_rows())
    assert d.n == 4
    assert d.dim == 2
    assert d.groups == ("a", "b")
    assert d.ids == ("r0000", "r0001", "r0002", "r0003")


def test_group_order_is_lexicographic():
    rows = base_rows()
    for row in rows:
        row["group"] = "zeta" if row["group"] == "a" else "alpha"
    d = build_dataset(rows)
    assert d.groups == ("alpha", "zeta")


def test_dimension_mismatch_rejected():
    rows = base_rows()
    rows[2]["features"] = [1.0, 2.0, 3.0]
    with pytest.raises(ValidationError, match="features"):
        build_dataset(rows)


def test_three_groups_rejected():
    rows = base_rows()
    rows[0]["group"] = "c"
    with pytest.raises(ValidationError, match="exactly two groups"):
        build_dataset(rows)


def test_single_group_rejected():
    rows = base_rows()
    for row in rows:
        row["group"] = "a"
    with pytest.raises(ValidationError, match="exactly two groups"):
        build_dataset(rows)


def test_duplicate_ids_rejected():
    rows = base_rows()
    rows[1]["id"] = rows[0]["id"]
    with pytest.raises(ValidationError, match="duplicate"):
        build_dataset(rows)


def test_non_finite_feature_rejected():
    rows = base_rows()
    rows[0]["features"] = [math.nan, 1.0]
    with pytest.raises(ValidationError, match="non-finite"):
        build_dataset(rows)


@pytest.mark.parametrize("field,value", [("label", 2), ("pred", -1), ("label", True)])
def test_bad_label_or_pred_rejected(field, value):
    rows = base_rows()
    rows[0][field] = value
    with pytest.raises(ValidationError):
        build_dataset(rows)


def test_score_out_of_range_rejected():
    rows = base_rows()
    rows[0]["score"] = 1.5
    with pytest.raises(ValidationError, match="score"):
        build_dataset(rows)


def test_empty_input_rejected():
    with pytest.raises(ValidationError, match="zero records"):
        build_dataset([])


def test_cached_arrays():
    d = build_dataset(base_rows())
    assert d.feature_matrix.shape == (4, 2)
    assert d.group_codes.tolist() == [0, 1, 0, 1]
    assert d.correct_flags.tolist() == [1, 1, 0, 1]
    assert d.group_sizes() == (2, 2)


def test_standardize_two_point_column():
    d = make_dataset([[1.0], [3.0]], ["a", "b"], [0, 0], [0, 0])
    z = standardize_features(d)
    assert z.feature_matrix[:, 0].tolist() == [-1.0, 1.0]


def test_standardize_constant_column_zeroed():
    d = make_dataset([[5.0, 1.0], [5.0, 3.0], [5.0, 5.0]], ["a", "b", "a"], [0] * 3, [0] * 3)
    z = standardize_features(d)
    assert z.feature_matrix[:, 0].tolist() == [0.0, 0.0, 0.0]
    col1 = z.feature_matrix[:, 1]
    assert abs(col1.mean()) < 1e-12
    assert abs(col1.std() - 1.0) < 1e-12


def test_standardize_leaves_input_untouched():
    d = make_dataset([[1.0], [3.0]], ["a", "b"], [0, 0], [0, 0])
    standardize_features(d)
    assert d.feature_matrix[:, 0].tolist() == [1.0, 3.0]


def test_standardize_already_standardized_unchanged():
    d = make_dataset([[-1.0], [1.0]], ["a", "b"], [0, 0], [0, 0])
    z = standardize_features(d)
    for a, b in zip(d.feature_matrix, z.feature_matrix):
        assert abs(a[0] - b[0]) < 1e-12


def test_standardize_idempotent():
    rng = np.random.default_rng(7)
    feats = rng.normal(3.0, 2.5, size=(40, 3))
    d = make_dataset(feats, ["a", "b"] * 20, [0] * 40, [0] * 40)
    once = standardize_features(d)
    twice = standardize_features(once)
    for a, b in zip(once.feature_matrix, twice.feature_matrix):
        for x, y in zip(a, b):
            assert abs(x - y) < 1e-9


def test_config_invariants():
    LoganConfig()  # defaults are valid
    with pytest.raises(ValidationError):
        LoganConfig(k=3, min_clusters=5)
    with pytest.raises(ValidationError):
        LoganConfig(lam=-0.5)
    with pytest.raises(ValidationError):
        LoganConfig(max_iter=0)
    with pytest.raises(ValidationError):
        LoganConfig(bias_threshold=-0.01)
    with pytest.raises(ValidationError):
        LoganConfig(min_clusters=0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="finite"):
            LoganConfig(lam=bad)
        with pytest.raises(ValidationError, match="finite"):
            LoganConfig(bias_threshold=bad)


def test_config_to_dict_round_trip():
    cfg = LoganConfig(k=7, lam=2.5, seed=11, standardize=True)
    assert LoganConfig(**cfg.to_dict()) == cfg
