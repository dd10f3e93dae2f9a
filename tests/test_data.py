import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logan.data import (
    LoganConfig,
    ValidationError,
    build_dataset,
    standardize_features,
)
from logan.io import LoadError, load_csv, load_jsonl

from helpers import make_dataset, reference_add, rows_from_arrays


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


# ------------------------------------------- feature validation, both paths

@pytest.mark.parametrize(
    "features, message",
    [
        ([1.0, True], "non-numeric feature in instance 'r0000': True"),
        ([1.0, "2"], "non-numeric feature in instance 'r0000': '2'"),
        ([1.0, None], "non-numeric feature in instance 'r0000': None"),
        ([math.nan, 1.0], "non-finite feature in instance 'r0000': nan"),
        ([1.0, -math.inf], "non-finite feature in instance 'r0000': -inf"),
        ([math.inf, -math.inf], "non-finite feature in instance 'r0000': inf"),
        ([10**400, -(10**400)], "feature out of float range in instance 'r0000'"),
        ([1.0, 10**400], "feature out of float range in instance 'r0000'"),
        ([True, math.nan], "non-numeric feature in instance 'r0000': True"),
    ],
)
def test_bad_feature_is_named(features, message):
    rows = base_rows()
    rows[0]["features"] = features
    with pytest.raises(ValidationError) as err:
        build_dataset(rows)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "literal, message",
    [
        ("NaN", "line 2: non-finite feature in instance 'r1': nan"),
        ("Infinity", "line 2: non-finite feature in instance 'r1': inf"),
        ("-Infinity", "line 2: non-finite feature in instance 'r1': -inf"),
        ("9" * 401, "line 2: feature out of float range in instance 'r1'"),
        ("true", "line 2: non-numeric feature in instance 'r1': True"),
        ('"0.5"', "line 2: non-numeric feature in instance 'r1': '0.5'"),
    ],
)
def test_bad_jsonl_feature_is_named(tmp_path, literal, message):
    path = tmp_path / "data.jsonl"
    path.write_text(
        '{"id": "r0", "features": [0.5, 1], "group": "a", "label": 1, "pred": 1}\n'
        f'{{"id": "r1", "features": [1, {literal}], "group": "b", "label": 0, "pred": 0}}\n',
        encoding="utf-8",
    )
    with pytest.raises(LoadError) as err:
        load_jsonl(path)
    assert str(err.value) == message


def test_finite_features_whose_sum_overflows_are_accepted():
    rows = base_rows()
    rows[0]["features"] = [1e308, 1e308]
    rows[1]["features"] = [-1e308, 1e308]
    d = build_dataset(rows)
    assert d.feature_matrix[:2].tolist() == [[1e308, 1e308], [-1e308, 1e308]]


def test_int_and_float_mixes_and_tuples_give_the_same_floats():
    rows = base_rows()
    rows[0]["features"] = [1, 2.5]
    rows[1]["features"] = (2**60 + 1, -3)
    rows[2]["features"] = (0.1, 7)
    d = build_dataset(rows)
    assert d.feature_matrix.dtype == np.float64
    expected = [[1.0, 2.5], [float(2**60 + 1), -3.0], [0.1, 7.0], [3.0, 4.0]]
    assert d.feature_matrix.tobytes() == np.array(expected).tobytes()


def test_csv_rows_through_both_paths(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "id,f0,f1,group,label,pred,score\np0,0.25,-1,a,1,1,0.9\np1,2,1e3,b,0,1,1\n",
        encoding="utf-8",
    )
    d = load_csv(path)
    assert d.feature_matrix.tolist() == [[0.25, -1.0], [2.0, 1000.0]]
    assert d.labels.tolist() == [1, 0] and d.preds.tolist() == [1, 1]
    assert d.scores.tolist() == [0.9, 1.0]
    path.write_text(
        "id,f0,f1,group,label,pred\np0,0.25,-1,a,1,1\np1,2,-inf,b,0,1\n",
        encoding="utf-8",
    )
    with pytest.raises(LoadError) as err:
        load_csv(path)
    assert str(err.value) == "line 3: non-finite feature in instance 'p1': -inf"


_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**70), 2**70),
    st.sampled_from([10**400, -(10**400), 1e308, -1e308, True, False, None, "1", 0, 1]),
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda dim: st.lists(
            st.fixed_dictionaries(
                {
                    "features": st.lists(_VALUES, min_size=dim, max_size=dim)
                    | st.lists(_VALUES, min_size=dim, max_size=dim).map(tuple),
                    "group": st.sampled_from(["a", "b", ""]),
                    "label": st.sampled_from([0, 1, 2, True, 1.0, "1"]),
                    "pred": st.sampled_from([0, 1, -1, False]),
                    "score": st.one_of(
                        st.none(),
                        st.floats(-0.5, 1.5),
                        st.sampled_from([0, 1, 2, True, "0.5", math.nan, 10**400]),
                    ),
                }
            ),
            min_size=1,
            max_size=4,
        )
    )
)
def test_builder_matches_the_per_value_loop(rows):
    """Columns, or the first error message, as the reference loop gives
    them; two clean rows at the end supply both groups."""
    dim = len(rows[0]["features"])
    rows = [{"id": f"r{i}", **row} for i, row in enumerate(rows)]
    rows += [
        {"id": f"z{g}", "features": [0.0] * dim, "group": g, "label": 1, "pred": 1}
        for g in ("a", "b")
    ]
    expected = [reference_add(row) for row in rows]
    first_error = next((e[0] for e in expected if len(e) == 1), None)
    if first_error is not None:
        with pytest.raises(ValidationError) as err:
            build_dataset(rows)
        assert str(err.value) == first_error
        return
    d = build_dataset(rows)
    ids, feats, _, labels, preds, scores, texts = zip(*expected)
    assert d.ids == ids
    assert d.feature_matrix.tobytes() == np.array(feats, dtype=np.float64).tobytes()
    assert d.group_codes.tolist() == [int(e[2] == "b") for e in expected]
    assert d.labels.tolist() == list(labels) and d.preds.tolist() == list(preds)
    assert d.scores.tobytes() == np.array(scores, dtype=np.float64).tobytes()
    assert d.texts == texts


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


@pytest.mark.parametrize("value", [1e160, -1e160, 1e308])
def test_standardize_rejects_overflowing_statistics(value):
    feats = [[0.0, 1.0], [value, 2.0], [1.0, 3.0]]
    d = make_dataset(feats, ["a", "b", "a"], [0] * 3, [0] * 3)
    with pytest.raises(ValidationError, match="feature coordinate 0 .* overflows"):
        standardize_features(d)


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
        LoganConfig(max_iter=0)
    with pytest.raises(ValidationError):
        LoganConfig(bias_threshold=-0.01)
    with pytest.raises(ValidationError):
        LoganConfig(min_clusters=0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="finite"):
            LoganConfig(bias_threshold=bad)


def test_config_to_dict_round_trip():
    cfg = LoganConfig(k=7, seed=11, bias_threshold=0.1)
    assert LoganConfig(**asdict(cfg)) == cfg
