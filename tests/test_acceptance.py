"""Acceptance gate: one test per release criterion, each printing a PASS
line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import json
import time

import numpy as np
import pytest

from logan.cli import main
from logan.clustering import ClusterModel, kmeanspp_init, logan_fit
from logan.data import LoganConfig
from logan.io import AuditReport, LoadError, load_jsonl, write_jsonl
from logan.metrics import MetricKind, global_bias, performance, random_split_baseline
from logan.postprocess import cluster_reports, compare, merge_small_clusters
from logan.selection import grid_search
from logan.synthetic import (
    PlantedBiasSpec,
    brute_force_auc,
    brute_force_objective,
    generate,
)

from helpers import best_single_move_delta, make_dataset, random_dataset, reference_lloyd


def _pass(num: int, message: str) -> None:
    print(f"[criterion {num}] PASS - {message}")


def test_criterion_1_lambda_zero_reduction():
    rng = np.random.default_rng(1001)
    dataset = random_dataset(rng, 1000, dim=8, n_blobs=6)
    started = time.monotonic()
    for seed in range(20):
        cfg = LoganConfig(k=10, seed=seed)
        a = logan_fit(dataset, cfg, 0.0)
        assign, centroids, _, _, _ = reference_lloyd(dataset, kmeanspp_init(dataset, 10, seed), cfg)
        assert np.array_equal(a.assignment, assign)
        assert a.centroids.tobytes() == centroids.tobytes()
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _pass(1, f"lam=0 identical to full-argmin Lloyd k-means for 20 seeds in {elapsed:.2f}s")


def _random_run_grid(n_runs: int):
    rng = np.random.default_rng(2002)
    lams = [0.0, 1.0, 10.0, 100.0]
    for trial in range(n_runs):
        n = int(rng.integers(50, 151))
        dim = int(rng.choice([2, 4, 8]))
        k = int(rng.integers(3, 9))
        dataset = random_dataset(rng, n, dim=dim, n_blobs=int(rng.integers(2, 5)))
        cfg = LoganConfig(k=k, seed=trial, min_clusters=min(k, 5))
        yield dataset, cfg, lams[trial % 4]


def test_criterion_2_monotone_descent():
    runs = 0
    for dataset, cfg, lam in _random_run_grid(100):
        model = logan_fit(dataset, cfg, lam)
        totals = [step[2] for step in model.objective_trace(dataset)]
        for earlier, later in zip(totals, totals[1:]):
            assert later <= earlier + 1e-9 * abs(earlier), (
                f"objective rose: {earlier} -> {later} (lam={lam}, seed={cfg.seed})"
            )
        runs += 1
    assert runs == 100
    _pass(2, "objective trace non-increasing across 100 random runs")


def test_criterion_3_local_minimum_certificate():
    checked = 0
    for dataset, cfg, lam in _random_run_grid(80):
        if checked == 50:
            break
        model = logan_fit(dataset, cfg, lam)
        if not model.converged:
            continue
        assert best_single_move_delta(dataset, model, lam) >= -1e-9
        checked += 1
    assert checked == 50
    _pass(3, "no improving single-point move in 50 converged runs")


def test_criterion_4_oracle_bound():
    rng = np.random.default_rng(4004)
    matched_restart_cases = 0
    for trial in range(30):
        n = int(rng.integers(6, 11))
        dataset = random_dataset(rng, n, dim=2, n_blobs=2)
        lam = 0.0 if trial % 2 == 0 else 10.0
        cfg = LoganConfig(k=2, seed=trial, min_clusters=2)
        model = logan_fit(dataset, cfg, lam)
        oracle_total, _ = brute_force_objective(dataset, k=2, lam=lam)
        assert oracle_total <= model.objective_trace(dataset)[-1][2] + 1e-9
        if lam == 0.0:
            finals = []
            for restart in range(10):
                restarted = logan_fit(
                    dataset, LoganConfig(k=2, seed=restart, min_clusters=2), 0.0
                )
                finals.append(restarted.objective_trace(dataset)[-1][2])
            tolerance = 1e-9 * max(1.0, abs(oracle_total))
            assert min(finals) <= oracle_total + tolerance, (
                f"no restart reached the enumerated optimum on trial {trial}"
            )
            matched_restart_cases += 1
    assert matched_restart_cases == 15
    _pass(4, "enumeration bounds the solver on 30 tiny instances")


def test_criterion_5_auc_equivalence():
    rng = np.random.default_rng(5005)
    levels_pool = [2, 3, 5, 11, 0]  # 0 -> continuous scores
    for trial in range(1000):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[int(rng.integers(n))] ^= 1
        levels = levels_pool[trial % len(levels_pool)]
        if levels:
            scores = rng.integers(0, levels, size=n) / (levels - 1) if levels > 1 else np.zeros(n)
        else:
            scores = rng.random(n)
        subset = make_dataset(
            features=[[0.0]] * n,
            groups=["a", "b"] * (n // 2) + ["a"] * (n % 2),
            labels=labels,
            preds=labels,
            scores=scores,
        )
        _, (fast,) = performance(subset, np.zeros(n, dtype=np.intp), 1, MetricKind.SUBGROUP_AUC)
        slow = brute_force_auc(subset.labels, subset.scores)
        assert fast is not None
        assert abs(fast - slow) <= 1e-12
    _pass(5, "rank AUC equals all-pairs AUC on 1000 subsets")


def test_criterion_6_hidden_bias_discovery():
    started = time.monotonic()
    grid = [1.0, 5.0, 10.0, 100.0]
    hits = 0
    bcr_logan = []
    bcr_kmeans = []
    for seed in range(10):
        dataset = generate(PlantedBiasSpec(seed=seed))
        assert global_bias(dataset, MetricKind.ACCURACY).gap < 0.02
        cfg = LoganConfig(seed=seed)
        baseline = merge_small_clusters(logan_fit(dataset, cfg, 0.0), dataset, cfg)
        chosen = grid_search(dataset, cfg, grid).chosen
        if chosen.max_gap >= 0.25:
            hits += 1
        versus = compare(
            chosen.model, baseline, dataset, cluster_reports(chosen.model, dataset, cfg)
        )
        assert versus.inertia_ratio is not None and versus.inertia_ratio <= 1.05
        bcr_logan.append(versus.bcr)
        baseline_reports = cluster_reports(baseline, dataset, cfg)
        bcr_kmeans.append(compare(baseline, baseline, dataset, baseline_reports).bcr)
    elapsed = time.monotonic() - started
    assert hits >= 9, f"planted cluster found in only {hits}/10 seeds"
    assert np.mean(bcr_logan) >= np.mean(bcr_kmeans)
    assert elapsed < 30.0
    _pass(
        6,
        f"planted bias found {hits}/10, BCR {np.mean(bcr_logan):.2f} vs "
        f"{np.mean(bcr_kmeans):.2f}, in {elapsed:.1f}s",
    )


def test_criterion_7_merge_contract():
    rng = np.random.default_rng(7007)
    for trial in range(200):
        n = int(rng.integers(30, 250))
        k = int(rng.integers(2, 13))
        dataset = random_dataset(rng, n, dim=2)
        assignment = rng.integers(0, k, size=n)
        assignment[:k] = np.arange(k)
        centroids = np.stack(
            [dataset.feature_matrix[assignment == j].mean(axis=0) for j in range(k)]
        )
        model = ClusterModel(
            centroids=centroids,
            assignment=np.array(assignment, dtype=np.int64),
            converged=True,
            iterations_run=1,
        )
        min_clusters = int(rng.integers(1, k + 1))
        cfg = LoganConfig(
            k=k,
            min_clusters=min_clusters,
            min_cluster_total=int(rng.integers(0, 60)),
        )
        merged = merge_small_clusters(model, dataset, cfg)
        sizes = merged.cluster_sizes()
        assert sizes.sum() == n
        assert sizes.min() >= cfg.min_cluster_total or merged.n_clusters == min_clusters
        assert k - merged.n_clusters <= k - min_clusters
    _pass(7, "merge contract held on 200 fuzzed models")


def test_criterion_8_determinism_and_round_trips(tmp_path):
    data_path = tmp_path / "planted.jsonl"
    write_jsonl(generate(PlantedBiasSpec(n_per_component=80, seed=0)), data_path)

    def run(report_path):
        return main(
            [
                "detect",
                "--input",
                str(data_path),
                "--output",
                str(report_path),
                "--seed",
                "0",
            ]
        )

    code_a = run(tmp_path / "a.json")
    code_b = run(tmp_path / "b.json")
    assert code_a == code_b

    def normalized(path):
        data = json.loads(path.read_text())
        data["provenance"].pop("created_at")
        return json.dumps(data, indent=2)

    assert normalized(tmp_path / "a.json") == normalized(tmp_path / "b.json")

    text = (tmp_path / "a.json").read_text(encoding="utf-8")
    assert AuditReport.from_json(text).to_json() == text

    fixtures = {
        "bad_json.jsonl": '{"id": "x0"',
        "missing_field.jsonl": json.dumps(
            {"id": "x0", "features": [0.0], "group": "a", "label": 1}
        ),
        "bad_score.jsonl": json.dumps(
            {
                "id": "x0",
                "features": [0.0],
                "group": "a",
                "label": 1,
                "pred": 1,
                "score": 2.0,
            }
        ),
        "bad_label.jsonl": json.dumps(
            {"id": "x0", "features": [0.0], "group": "a", "label": 5, "pred": 1}
        ),
    }
    good_line = json.dumps(
        {"id": "ok", "features": [0.0], "group": "b", "label": 0, "pred": 0}
    )
    for name, bad_line in fixtures.items():
        path = tmp_path / name
        path.write_text(good_line + "\n" + bad_line + "\n", encoding="utf-8")
        with pytest.raises(LoadError) as err:
            load_jsonl(path)
        assert err.value.line == 2, f"{name} did not report line 2"
    _pass(8, "byte-identical reruns, lossless round-trips, line-numbered rejects")


def test_criterion_9_random_split_baseline():
    clean = make_dataset(
        features=[[float(i % 9), float(i % 4)] for i in range(200)],
        groups=["a", "b"] * 100,
        labels=[i % 2 for i in range(200)],
        preds=[i % 2 for i in range(200)],
    )
    assert random_split_baseline(clean, MetricKind.ACCURACY, runs=5, seed=1) == (0.0, 0.0)

    below = 0
    for seed in range(10):
        dataset = generate(PlantedBiasSpec(seed=seed))
        mean, std = random_split_baseline(
            dataset, MetricKind.ACCURACY, runs=5, seed=seed
        )
        if mean + std < 0.05:
            below += 1
    assert below >= 9, f"random-split mean+std below 0.05 in only {below}/10 seeds"
    _pass(9, f"all-correct baseline exactly (0, 0); planted below 0.05 in {below}/10")
