"""Self-checks for the benchmark's own code.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from checks import check_audit, normalized_report
from generate import InputSpec, make_rows
from run import END_TO_END, PER_LAYER, ROOT, SRC, layer_metrics, self_times

SPEC = InputSpec(n=200, dim=3, with_text=True)


def _report(biased: list[bool], sizes: list[int], created_at: str = "t0") -> dict:
    return {
        "clusters": [
            {"cluster_id": j, "n_group1": size - size // 2, "n_group2": size // 2, "biased": flag}
            for j, (flag, size) in enumerate(zip(biased, sizes))
        ],
        "provenance": {"seed": 0, "created_at": created_at},
    }


def test_generator_is_deterministic_per_seed():
    assert make_rows(SPEC, (7, 0)) == make_rows(SPEC, (7, 0))
    assert make_rows(SPEC, (7, 0)) != make_rows(SPEC, (7, 1))
    assert make_rows(SPEC, (7, 0)) != make_rows(SPEC, (8, 0))


def test_check_accepts_a_consistent_audit():
    text = json.dumps(_report([True, False], [60, 140]), indent=2)
    normalized, problems = check_audit(2, text, 200)
    assert problems == []
    assert "created_at" not in normalized


def test_check_rejects_a_nan_report():
    text = json.dumps(_report([False], [200])).replace('"seed": 0', '"seed": NaN')
    normalized, problems = check_audit(0, text, 200)
    assert normalized is None
    assert any("non-finite" in p for p in problems)


@pytest.mark.parametrize("exit_code, biased", [(0, [True, False]), (2, [False, False])])
def test_check_rejects_an_exit_code_that_disagrees_with_the_report(exit_code, biased):
    _, problems = check_audit(exit_code, json.dumps(_report(biased, [100, 100])), 200)
    assert any("biased clusters" in p for p in problems)


def test_check_rejects_bad_exit_codes_and_sizes():
    _, problems = check_audit(1, json.dumps(_report([False], [199])), 200)
    assert any("not in" in p for p in problems)
    assert any("sum to 199" in p for p in problems)


def test_normalized_report_ignores_only_created_at():
    a, b = _report([False], [200], "t0"), _report([False], [200], "t1")
    assert normalized_report(a) == normalized_report(b)
    b["provenance"]["seed"] = 1
    assert normalized_report(a) != normalized_report(b)


def test_self_times_add_up_to_the_root():
    spans = [
        {"id": 0, "name": "cli.run_detect", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "selection.grid", "parent": 0, "start": 1.0, "end": 7.0},
        {"id": 2, "name": "clustering.logan_fit", "parent": 1, "start": 1.5, "end": 6.0},
    ]
    assert self_times(spans) == [4.0, 1.5, 4.5]
    assert sum(self_times(spans)) == 10.0


def test_layer_metrics_cover_every_per_layer_name():
    fit = {"lam": 5.0, "n": 100, "k": 10, "iterations": 3, "converged": True, "moved_vs_kmeans": 4}
    spans = [
        {"id": 0, "name": "cli.run_detect", "parent": None, "start": 0.0, "end": 2.0},
        {"id": 1, "name": "clustering.logan_fit", "parent": 0, "start": 0.5, "end": 1.5, "fit": fit},
    ]
    m = layer_metrics({"spans": spans, "missing": ["logan.cli.gone"]})
    assert m["clustering.candidate_evals"] == 3000
    assert m["clustering.moved_vs_kmeans.lam5"] == 4
    assert m["clustering.logan_fit_s.lam1"] == 0
    assert m["cli.uncovered_s"] == 1.0
    assert m["bench.missing_spans"] == 1
    derived = {"cli.cpu_s", "bench.trace_overhead_s", "bench.generate_s"}
    assert set(m) | derived == set(PER_LAYER)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_tracer_reports_a_vanished_function_as_missing(monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    import trace_audit

    monkeypatch.setattr(trace_audit, "TARGETS", (
        ("logan.cli", "no_such_function", "x.gone"),
        ("logan.no_such_module.Thing", "method", "x.gone"),
        ("logan.cli", "run_detect", "cli.run_detect"),
    ))
    import logan.cli

    original = logan.cli.run_detect
    tracer = trace_audit.Tracer()
    try:
        tracer.install()
        assert tracer.missing == ["logan.cli.no_such_function", "logan.no_such_module.Thing.method"]
        assert logan.cli.run_detect is not original
    finally:
        logan.cli.run_detect = original


def test_the_benchmark_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(__file__).parent.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "detect-planted", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
