import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import logan
from logan import selection
from logan.cli import main, run_detect
from logan.data import LoganConfig
from logan.io import write_jsonl
from logan.selection import grid_search
from logan.synthetic import PlantedBiasSpec, generate

from helpers import make_dataset, random_dataset

import pytest


def small_cfg(seed=0):
    return LoganConfig(k=4, min_clusters=2, min_cluster_total=5, min_per_group=3, seed=seed)


def test_single_element_grid():
    rng = np.random.default_rng(1)
    d = random_dataset(rng, 60)
    result = grid_search(d, small_cfg(), [7.5])
    assert result.chosen_lambda == 7.5
    assert len(result.cells) == 1
    assert result.chosen.lam == 7.5


def test_zero_grid_on_unbiased_data():
    feats = [[float(i % 5), 0.0] for i in range(80)]
    d = make_dataset(feats, ["a", "b"] * 40, [1, 0] * 40, [1, 0] * 40)
    result = grid_search(d, small_cfg(), [0.0])
    assert result.chosen_lambda == 0.0
    assert result.chosen.biased_count == 0


def test_grid_order_does_not_change_choice():
    d = generate(PlantedBiasSpec(n_per_component=80, seed=3))
    cfg = LoganConfig(k=8, min_clusters=5, seed=11)
    grid = [1.0, 5.0, 10.0, 100.0]
    forward = grid_search(d, cfg, grid)
    backward = grid_search(d, cfg, grid[::-1])
    assert forward.chosen_lambda == backward.chosen_lambda


def test_cells_reproducible():
    rng = np.random.default_rng(5)
    d = random_dataset(rng, 120)
    cfg = small_cfg(seed=9)
    a = grid_search(d, cfg, [1.0, 10.0])
    b = grid_search(d, cfg, [1.0, 10.0])
    assert a.chosen_lambda == b.chosen_lambda
    for cell_a, cell_b in zip(a.cells, b.cells):
        assert np.array_equal(cell_a.model.assignment, cell_b.model.assignment)
        assert cell_a.biased_count == cell_b.biased_count
        assert cell_a.max_gap == cell_b.max_gap


def test_empty_or_negative_grid_rejected():
    rng = np.random.default_rng(2)
    d = random_dataset(rng, 30)
    with pytest.raises(ValueError):
        grid_search(d, small_cfg(), [])
    with pytest.raises(ValueError):
        grid_search(d, small_cfg(), [1.0, -2.0])


# ------------------------------------------- cells in forked worker processes

def force_workers(monkeypatch, n):
    monkeypatch.setattr(selection, "_worker_count", lambda n_cells: n)


def patch_fit(monkeypatch, wrap):
    """Replace the fit every cell calls; forked workers inherit the patch."""
    monkeypatch.setattr(selection, "logan_fit", wrap(selection.logan_fit))


@pytest.fixture(scope="module")
def planted_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "planted.jsonl"
    write_jsonl(generate(PlantedBiasSpec(n_per_component=80, seed=0)), path)
    return path


def test_pool_gives_the_in_process_result(monkeypatch):
    """A grid longer than the worker count, with a repeated weight."""
    d = generate(PlantedBiasSpec(n_per_component=80, seed=3))
    cfg = LoganConfig(k=8, min_clusters=5, seed=11)
    grid = [5.0, 0.0, 100.0, 5.0, 1.0]
    force_workers(monkeypatch, 1)
    serial = grid_search(d, cfg, grid)

    caller = os.getpid()

    def in_worker_only(fit):
        def wrapped(*args):
            if os.getpid() == caller:
                raise AssertionError("a cell ran in the calling process")
            return fit(*args)

        return wrapped

    patch_fit(monkeypatch, in_worker_only)
    force_workers(monkeypatch, 2)
    pooled = grid_search(d, cfg, grid)

    assert [c.lam for c in pooled.cells] == grid
    assert pooled.chosen_lambda == serial.chosen_lambda
    assert pooled.cells.index(pooled.chosen) == serial.cells.index(serial.chosen)
    for a, b in zip(serial.cells, pooled.cells):
        assert a.model.assignment.tobytes() == b.model.assignment.tobytes()
        assert a.model.centroids.tobytes() == b.model.centroids.tobytes()
        assert repr(a.model.objective_trace) == repr(b.model.objective_trace)
        assert (a.model.converged, a.model.iterations_run) == (
            b.model.converged,
            b.model.iterations_run,
        )
        assert repr(a.reports) == repr(b.reports)
        assert (a.biased_count, repr(a.max_gap)) == (b.biased_count, repr(b.max_gap))


def failing_at(*lams):
    def wrap(fit):
        def wrapped(dataset, cfg, initial_centroids):
            if cfg.lam in lams:
                raise ValueError(f"cell lam={cfg.lam} failed")
            return fit(dataset, cfg, initial_centroids)

        return wrapped

    return wrap


@pytest.mark.parametrize("workers", [1, 2])
def test_first_failing_cell_raises_its_exception(monkeypatch, workers):
    d = generate(PlantedBiasSpec(n_per_component=40, seed=3))
    cfg = LoganConfig(k=6, min_clusters=3, seed=1)
    force_workers(monkeypatch, workers)
    patch_fit(monkeypatch, failing_at(10.0, 5.0))
    with pytest.raises(ValueError, match=r"^cell lam=5\.0 failed$"):
        grid_search(d, cfg, [1.0, 5.0, 10.0, 100.0])
    assert multiprocessing.active_children() == []


def test_failing_cell_is_one_error_line_from_the_cli(monkeypatch, planted_file, tmp_path, capsys):
    force_workers(monkeypatch, 2)
    patch_fit(monkeypatch, failing_at(10.0))
    out = tmp_path / "report.json"
    code = main(["detect", "--input", str(planted_file), "--output", str(out)])
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err == "error: cell lam=10.0 failed\n"


_DYING_CELL = """
import multiprocessing, os, sys
from logan import cli, selection
fit = selection.logan_fit
def dying_fit(dataset, cfg, initial_centroids):
    if cfg.lam == 5.0:
        os._exit(7)
    return fit(dataset, cfg, initial_centroids)
selection.logan_fit = dying_fit
selection._worker_count = lambda n_cells: 2
code = cli.main(sys.argv[1:])
print(len(multiprocessing.active_children()))
sys.exit(code)
"""


def test_dead_worker_fails_the_audit(planted_file, tmp_path):
    """A cell that kills its worker: exit 1, no hang, no leftover worker."""
    out = tmp_path / "report.json"
    src = str(Path(logan.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _DYING_CELL, "detect", "--input", str(planted_file),
         "--output", str(out)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout == "0\n"
    assert proc.stderr.startswith("error: A process in the process pool was terminated")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_run_detect_leaves_no_worker_behind(monkeypatch, planted_file):
    force_workers(monkeypatch, 2)
    run_detect(planted_file, LoganConfig(seed=0), [1.0, 5.0, 10.0], None)
    assert multiprocessing.active_children() == []


def _grid_in_daemon(dataset, cfg):
    grid_search(dataset, cfg, [1.0, 5.0])


def test_daemonic_caller_fits_in_process(monkeypatch):
    """A daemonic process may not have children, so its cells run in it."""
    force_workers(monkeypatch, 2)
    d = generate(PlantedBiasSpec(n_per_component=40, seed=3))
    cfg = LoganConfig(k=6, min_clusters=3, seed=1)
    proc = multiprocessing.get_context("fork").Process(
        target=_grid_in_daemon, args=(d, cfg), daemon=True
    )
    proc.start()
    proc.join(timeout=120)
    alive = proc.is_alive()
    if alive:
        proc.kill()
        proc.join()
    assert not alive
    assert proc.exitcode == 0
