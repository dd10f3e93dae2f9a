import numpy as np
import pytest

from logan.data import build_dataset
from logan.metrics import MetricKind, global_bias, group_gaps
from logan.synthetic import PlantedBiasSpec, generate

from helpers import assert_same_dataset, brute_force_auc, component_of


def component_gap(dataset, comp):
    cells = np.array([component_of(rid) for rid in dataset.ids])
    return group_gaps(dataset, cells, cells.max() + 1, MetricKind.ACCURACY)[comp].gap


def test_generate_defaults_shape():
    d = generate(PlantedBiasSpec(n_per_component=50, seed=0))
    assert d.n == 250
    assert d.dim == 2
    assert d.groups == ("a", "b")
    assert not np.isnan(d.scores).any()


def test_generate_deterministic():
    spec = PlantedBiasSpec(n_per_component=60, seed=42)
    a = generate(spec)
    b = generate(spec)
    assert_same_dataset(a, b)


def test_planted_component_carries_the_gap():
    spec = PlantedBiasSpec(seed=5)  # defaults: 5 x 400, gap 0.30
    d = generate(spec)
    realized = component_gap(d, spec.planted_component)
    assert 0.22 <= realized <= 0.38
    assert global_bias(d, MetricKind.ACCURACY).gap < 0.02


def test_zero_planted_gap_is_flat_everywhere():
    # with no planted gap each component's gap is pure binomial noise
    # (sigma ~ 0.036 at 400/component), so most draws sit below 0.05 and
    # none strays far from it
    gaps = []
    for seed in range(10):
        spec = PlantedBiasSpec(planted_gap=0.0, n_per_component=400, seed=seed)
        d = generate(spec)
        assert global_bias(d, MetricKind.ACCURACY).gap < 0.02
        gaps.extend(component_gap(d, comp) for comp in range(spec.n_clusters))
    assert max(gaps) < 0.10
    assert sum(g < 0.05 for g in gaps) / len(gaps) >= 0.75


def test_components_are_separated():
    spec = PlantedBiasSpec(n_per_component=30, seed=2)
    d = generate(spec)
    X = d.feature_matrix
    comps = np.array([component_of(rid) for rid in d.ids])
    means = np.stack([X[comps == c].mean(axis=0) for c in range(spec.n_clusters)])
    for i in range(spec.n_clusters):
        for j in range(i + 1, spec.n_clusters):
            assert np.linalg.norm(means[i] - means[j]) > spec.component_separation / 2


def test_generated_dataset_passes_validation():
    d = generate(PlantedBiasSpec(n_per_component=25, seed=9))
    rebuilt = build_dataset(
        [
            {
                "id": d.ids[i],
                "features": d.feature_matrix[i].tolist(),
                "group": d.groups[d.group_codes[i]],
                "label": int(d.labels[i]),
                "pred": int(d.preds[i]),
                "score": float(d.scores[i]),
            }
            for i in range(d.n)
        ]
    )
    assert_same_dataset(rebuilt, d)


def test_spec_validation():
    with pytest.raises(ValueError):
        PlantedBiasSpec(planted_gap=1.5)
    with pytest.raises(ValueError):
        PlantedBiasSpec(background_acc=0.9, planted_gap=0.3)  # 0.9+0.15 > 1
    with pytest.raises(ValueError):
        PlantedBiasSpec(planted_component=7, n_clusters=5)
    with pytest.raises(ValueError):
        PlantedBiasSpec(group_balance=0.0)
    with pytest.raises(ValueError):
        PlantedBiasSpec(n_per_component=0)


def test_single_component_with_gap_is_infeasible():
    with pytest.raises(ValueError, match="planted"):
        generate(PlantedBiasSpec(n_clusters=1, planted_component=0, n_per_component=100))


def test_brute_force_auc_examples():
    def pair(labels, scores):
        rows = [
            {
                "id": f"x{i}",
                "features": [float(i)],
                "group": "a" if i % 2 == 0 else "b",
                "label": labels[i],
                "pred": labels[i],
                "score": scores[i],
            }
            for i in range(len(labels))
        ]
        d = build_dataset(rows)
        return d.labels, d.scores

    assert brute_force_auc(*pair([1, 0], [0.9, 0.1])) == 1.0
    assert brute_force_auc(*pair([1, 0], [0.1, 0.9])) == 0.0
    assert brute_force_auc(*pair([1, 1, 0], [0.6, 0.4, 0.5])) == 0.5


def test_brute_force_auc_degenerate_raises():
    rows = [
        {"id": "x0", "features": [0.0], "group": "a", "label": 1, "pred": 1, "score": 0.5},
        {"id": "x1", "features": [1.0], "group": "b", "label": 1, "pred": 1, "score": 0.5},
    ]
    d = build_dataset(rows)
    with pytest.raises(ValueError, match="both classes"):
        brute_force_auc(d.labels, d.scores)


def test_brute_force_objective_cap():
    d = generate(PlantedBiasSpec(n_per_component=10, seed=0))
    from helpers import brute_force_objective

    with pytest.raises(ValueError, match="too large"):
        brute_force_objective(d, k=3, lam=0.0)
