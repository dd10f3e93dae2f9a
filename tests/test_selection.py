import multiprocessing
import os
import subprocess
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

import logan
from logan import cli, clustering, metrics, postprocess, selection, workers
from logan.cli import main, run_detect
from logan.clustering import logan_fit
from logan.data import LoganConfig, ValidationError
from logan.io import write_jsonl
from logan.metrics import MetricKind
from logan.postprocess import cluster_reports, cluster_table, compare, merge_small_clusters
from logan.selection import grid_search
from logan.synthetic import PlantedBiasSpec, generate

from helpers import assert_no_child_left, make_dataset, random_dataset

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


@pytest.mark.parametrize("bad, shown", [(float("nan"), "nan"), (float("inf"), "inf"), (-1, "-1.0")])
def test_bad_weight_is_rejected_before_any_fit(monkeypatch, bad, shown):
    """Every grid entry is checked before the seeds are drawn or a cell is
    fitted, wherever in the grid the bad entry sits."""
    rng = np.random.default_rng(2)
    d = random_dataset(rng, 30)
    calls = []

    def counting(fit):
        def wrapped(*args):
            calls.append(args)
            return fit(*args)

        return wrapped

    force_workers(monkeypatch, 1)
    patch_fit(monkeypatch, counting)
    monkeypatch.setattr(clustering, "kmeanspp_init", counting(clustering.kmeanspp_init))
    with pytest.raises(ValidationError, match=rf"^lam must be finite and >= 0, got {shown}$"):
        grid_search(d, small_cfg(), [1.0, 5.0, bad])
    assert calls == []


# ------------------------------------------- cells in forked worker processes

def force_workers(monkeypatch, n):
    monkeypatch.setattr(workers, "usable_cpus", lambda: n)


def patch_fit(monkeypatch, wrap):
    """Replace the fit every cell calls; forked workers inherit the patch."""
    monkeypatch.setattr(selection, "logan_fit", wrap(selection.logan_fit))


@pytest.fixture(scope="module")
def planted_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "planted.jsonl"
    write_jsonl(generate(PlantedBiasSpec(n_per_component=80, seed=0)), path)
    return path


@pytest.fixture(scope="module")
def text_file(tmp_path_factory):
    d = generate(PlantedBiasSpec(n_per_component=80, seed=0))
    path = tmp_path_factory.mktemp("data") / "texts.jsonl"
    texts = tuple(f"row{i % 13} Tok{i % 7} shared" for i in range(d.n))
    write_jsonl(replace(d, texts=texts), path)
    return path


def assert_same_model(a, b, dataset):
    assert a.assignment.tobytes() == b.assignment.tobytes()
    assert a.centroids.tobytes() == b.centroids.tobytes()
    assert repr(a.objective_trace(dataset)) == repr(b.objective_trace(dataset))
    assert (a.converged, a.iterations_run) == (b.converged, b.iterations_run)


def assert_same_cell(a, b, dataset, cfg):
    assert repr(a.lam) == repr(b.lam)
    assert_same_model(a.model, b.model, dataset)
    assert a.table.tobytes() == b.table.tobytes()
    assert repr(cluster_reports(a.model, dataset, cfg)) == repr(
        cluster_reports(b.model, dataset, cfg)
    )
    assert (a.biased_count, repr(a.max_gap)) == (b.biased_count, repr(b.max_gap))


def in_worker_only(fit, caller_fits=None):
    """Wrap a fit so that calling it in this process fails, unless
    ``caller_fits`` is given and the weight is 0: that fit, the k-means
    fit, is recorded in ``caller_fits``."""
    caller = os.getpid()

    def wrapped(*args):
        if os.getpid() == caller:
            if caller_fits is None or args[2] != 0.0:
                raise AssertionError("a cell ran in the calling process")
            caller_fits.append(args[2])
        return fit(*args)

    return wrapped


def test_pool_gives_the_in_process_result(monkeypatch):
    """A grid longer than the worker count, with a repeated weight."""
    d = generate(PlantedBiasSpec(n_per_component=80, seed=3))
    cfg = LoganConfig(k=8, min_clusters=5, seed=11)
    grid = [5.0, 0.0, 100.0, 5.0, 1.0]
    force_workers(monkeypatch, 1)
    serial = grid_search(d, cfg, grid)

    caller_fits = []
    patch_fit(monkeypatch, lambda fit: in_worker_only(fit, caller_fits))
    force_workers(monkeypatch, 2)
    pooled = grid_search(d, cfg, grid)

    assert caller_fits == [0.0]
    assert [c.lam for c in pooled.cells] == grid
    assert pooled.chosen_lambda == serial.chosen_lambda
    assert pooled.cells.index(pooled.chosen) == serial.cells.index(serial.chosen)
    for a, b in zip(serial.cells, pooled.cells):
        assert_same_cell(a, b, d, cfg)


@pytest.mark.parametrize("workers", [1, 2])
def test_baseline_cell_is_the_merged_kmeans_fit(monkeypatch, workers):
    d = generate(PlantedBiasSpec(n_per_component=80, seed=3))
    cfg = LoganConfig(k=8, min_clusters=5, seed=11)
    grid = [1.0, 5.0, 100.0]
    force_workers(monkeypatch, workers)
    result = grid_search(d, cfg, grid)
    kmeans = logan_fit(d, cfg, 0.0)
    assert_same_model(result.baseline.model, merge_small_clusters(kmeans, d, cfg), d)
    assert result.baseline.lam == 0.0
    assert [c.lam for c in result.cells] == grid
    # every other cell starts from the k-means fit, before merging
    for lam, cell in zip(grid, result.cells):
        assert_same_cell(cell, selection._fit_cell(d, cfg, kmeans.centroids, lam), d, cfg)


def test_each_distinct_weight_is_fitted_once(monkeypatch):
    """A grid holding 0, -0 and a repeated weight: both zeros reuse the
    baseline cell, -0 keeps its sign, and the cells and choice are those of
    fitting every entry, the zeros from the k-means++ seeds of ``cfg.seed``
    and the others from the k-means fit."""
    d = generate(PlantedBiasSpec(n_per_component=80, seed=3))
    cfg = LoganConfig(k=8, min_clusters=5, seed=11)
    grid = [5.0, 0.0, 100.0, 5.0, -0.0, 1.0]
    kmeans = logan_fit(d, cfg, 0.0)
    warm = kmeans.centroids
    every_entry = [
        selection._fit_cell(d, cfg, warm, lam) if lam else selection._cell(d, cfg, lam, kmeans)
        for lam in grid
    ]
    fitted = []
    starts = []

    def counting(fit):
        def wrapped(dataset, cfg, lam, initial_centroids=None):
            fitted.append(lam)
            starts.append(initial_centroids)
            return fit(dataset, cfg, lam, initial_centroids)

        return wrapped

    force_workers(monkeypatch, 1)
    patch_fit(monkeypatch, counting)
    result = grid_search(d, cfg, grid)
    assert fitted == [0.0, 5.0, 100.0, 1.0]
    assert starts[0] is None
    assert all(start.tobytes() == warm.tobytes() for start in starts[1:])
    assert result.cells[1].model is result.cells[4].model is result.baseline.model
    for a, b in zip(every_entry, result.cells):
        assert_same_cell(a, b, d, cfg)
    best = max(every_entry, key=lambda c: (c.biased_count, c.max_gap, -c.lam))
    assert result.cells.index(result.chosen) == every_entry.index(best)


def test_detect_fits_only_kmeans_in_the_calling_process(monkeypatch, planted_file):
    """With a pool, k-means++ and the k-means fit are the caller's only
    clustering steps: every cell with a weight above 0 is fitted in a
    worker, to the serial report."""
    cfg = LoganConfig(seed=0)
    grid = [1.0, 5.0, 10.0, 100.0]
    force_workers(monkeypatch, 1)
    serial = asdict(run_detect(planted_file, cfg, grid, None))
    force_workers(monkeypatch, 2)
    caller_fits = []
    patch_fit(monkeypatch, lambda fit: in_worker_only(fit, caller_fits))
    monkeypatch.setattr(clustering, "logan_fit", in_worker_only(clustering.logan_fit))
    pooled = asdict(run_detect(planted_file, cfg, grid, None))
    assert caller_fits == [0.0]
    for report in (serial, pooled):
        report["provenance"].pop("created_at")
    assert repr(pooled) == repr(serial)


@pytest.mark.parametrize("workers", [1, 2])
def test_seeds_are_drawn_once(monkeypatch, workers):
    """The caller draws the k-means++ seeds once, and the k-means fit, from
    which every other cell starts, fits from them."""
    d = generate(PlantedBiasSpec(n_per_component=80, seed=3))
    cfg = LoganConfig(k=8, min_clusters=5, seed=11)
    grid = [1.0, 5.0, 100.0]
    caller = os.getpid()
    draw = clustering.kmeanspp_init
    drawn = []

    def drawing(*args):
        if os.getpid() != caller:
            raise AssertionError("a worker drew seeds")
        seeds = draw(*args)
        drawn.append(seeds.copy())  # the fit updates this array in place
        return seeds

    force_workers(monkeypatch, workers)
    monkeypatch.setattr(clustering, "kmeanspp_init", drawing)
    result = grid_search(d, cfg, grid)
    assert len(drawn) == 1
    kmeans = logan_fit(d, cfg, 0.0, drawn[0])
    assert len(drawn) == 1
    given = [selection._cell(d, cfg, 0.0, kmeans)]
    given += [selection._fit_cell(d, cfg, kmeans.centroids, lam) for lam in grid]
    for a, b in zip((result.baseline, *result.cells), given):
        assert_same_cell(a, b, d, cfg)


@pytest.mark.parametrize("workers", [1, 2])
def test_weight_that_buys_nothing_costs_one_sweep(monkeypatch, workers):
    """With every prediction correct, every gap and so the bias term is 0,
    and each cell above weight 0 converges in one sweep with no move: it
    ends on the k-means fit, before merging, bit for bit.  Nothing merges
    here, so each cell's model is its fit."""
    d = generate(PlantedBiasSpec(n_per_component=80, planted_gap=0.0, background_acc=1.0, seed=3))
    assert d.correct_flags.all()
    cfg = LoganConfig(k=8, min_clusters=5, min_cluster_total=0, seed=11)
    kmeans = logan_fit(d, cfg, 0.0)
    assert kmeans.converged and kmeans.iterations_run > 1
    force_workers(monkeypatch, workers)
    result = grid_search(d, cfg, [1.0, 5.0, 10.0, 100.0])
    assert_same_model(result.baseline.model, kmeans, d)
    for cell in result.cells:
        assert (cell.model.converged, cell.model.iterations_run) == (True, 1)
        assert cell.model.assignment.tobytes() == kmeans.assignment.tobytes()
        assert cell.model.centroids.tobytes() == kmeans.centroids.tobytes()


def test_warm_start_ends_no_higher_in_fewer_iterations():
    """On the default spec at gaps 0 and 0.30, seeds 0-9, a fit started
    from the k-means fit ends no higher on the joint objective than one
    started from the k-means++ seeds in at least half of the fits above
    weight 0, and the warm fits run fewer iterations in total.  A warm fit
    that ends on the cold fit's partition counts as no higher: the two
    objectives then differ only by the rounding of the running sums."""
    no_higher = fits = cold_iterations = warm_iterations = 0
    for gap in (0.0, 0.30):
        for seed in range(10):
            d = generate(PlantedBiasSpec(planted_gap=gap, seed=seed))
            cfg = LoganConfig(seed=seed)
            warm_start = logan_fit(d, cfg, 0.0).centroids
            for lam in (1.0, 5.0, 10.0, 100.0):
                cold = logan_fit(d, cfg, lam)
                warm = logan_fit(d, cfg, lam, warm_start)
                fits += 1
                no_higher += np.array_equal(warm.assignment, cold.assignment) or (
                    warm.objective_trace(d)[-1][2] <= cold.objective_trace(d)[-1][2]
                )
                cold_iterations += cold.iterations_run
                warm_iterations += warm.iterations_run
    assert 2 * no_higher >= fits, f"no higher in {no_higher} of {fits} fits"
    assert warm_iterations < cold_iterations


def test_failing_baseline_starts_no_worker(monkeypatch):
    """The k-means fit runs in the caller first, so a failing baseline is
    raised before any worker is forked."""
    d = generate(PlantedBiasSpec(n_per_component=40, seed=3))
    cfg = LoganConfig(k=6, min_clusters=3, seed=1)
    forked = []
    fork = workers._fork_child

    def counting(*args):
        forked.append(args)
        return fork(*args)

    force_workers(monkeypatch, 2)
    monkeypatch.setattr(workers, "_fork_child", counting)
    grid_search(d, cfg, [1.0, 5.0, 10.0])
    assert len(forked) == 2
    forked.clear()
    patch_fit(monkeypatch, failing_at(0.0))
    with pytest.raises(ValueError, match=r"^cell lam=0\.0 failed$"):
        grid_search(d, cfg, [1.0, 5.0, 10.0])
    assert forked == []


@pytest.mark.parametrize("lambdas", [None, [1.0, 5.0]])
def test_run_detect_builds_the_chosen_reports_once(monkeypatch, planted_file, lambdas):
    """One report pass serves the JSON report and, in detect mode, the
    comparison."""
    built = []
    compared = []

    def building(*args, **kwargs):
        built.append(cluster_reports(*args, **kwargs))
        return built[-1]

    def comparing(candidate, baseline, dataset, reports):
        compared.append(reports)
        return compare(candidate, baseline, dataset, reports)

    force_workers(monkeypatch, 1)
    monkeypatch.setattr(cli, "cluster_reports", building)
    monkeypatch.setattr(cli, "compare", comparing)
    report = run_detect(planted_file, LoganConfig(seed=0), lambdas, None)
    assert len(built) == 1
    if lambdas is None:
        assert compared == []
        assert report.comparison is None
    else:
        assert len(compared) == 1
        assert compared[0] is built[0]


@pytest.mark.parametrize(
    "cfg",
    [
        LoganConfig(k=8, min_clusters=5, seed=11),
        # every cluster detectable, even one that lacks a group
        LoganConfig(k=8, min_clusters=5, min_cluster_total=0, min_per_group=0, seed=2),
        # no cluster detectable
        LoganConfig(k=8, min_clusters=5, min_per_group=10_000, seed=3),
    ],
)
def test_cell_summary_is_what_its_reports_derive(monkeypatch, cfg):
    """Each cell's table is its merged model's count; its biased count and
    maximum gap, read off the table, are those of the model's reports, as
    a Python int and float; and reports read off the table equal reports
    counted afresh, for every metric."""
    d = generate(PlantedBiasSpec(n_per_component=60, seed=cfg.seed))
    force_workers(monkeypatch, 1)
    result = grid_search(d, cfg, [1.0, 5.0, 100.0])
    kinds = tuple(MetricKind)
    for cell in (result.baseline, *result.cells):
        assert cell.table.shape == (cell.model.n_clusters, 2, 2, 2)
        assert cell.table.tobytes() == cluster_table(cell.model, d).tobytes()
        reports = cluster_reports(cell.model, d, cfg)
        gaps = [r.gap[MetricKind.ACCURACY] for r in reports if r.detectable]
        gaps = [g for g in gaps if g is not None]
        assert type(cell.biased_count) is int and type(cell.max_gap) is float
        assert cell.biased_count == sum(r.biased for r in reports)
        assert repr(cell.max_gap) == repr(max(gaps, default=0.0))
        assert repr(cluster_reports(cell.model, d, cfg, kinds, table=cell.table)) == repr(
            cluster_reports(cell.model, d, cfg, kinds)
        )


@pytest.mark.parametrize("kinds", [(MetricKind.ACCURACY,), tuple(MetricKind)])
def test_run_detect_counts_each_fitted_cell_once(monkeypatch, planted_file, kinds):
    """One count per fitted cell (the baseline, 1 and 5) and none for the
    chosen cell's reports, AUC among them or not; the two-cell counts of
    the corpus gaps come before and those of the five accuracy random
    splits after."""
    calls = []
    grids = []
    count = metrics.counts
    search = cli.grid_search

    def counting(dataset, cells, n_cells):
        calls.append((n_cells, np.array(cells)))
        return count(dataset, cells, n_cells)

    def searching(*args):
        grids.append(search(*args))
        return grids[-1]

    force_workers(monkeypatch, 1)
    for module in (metrics, postprocess):
        monkeypatch.setattr(module, "counts", counting)
    monkeypatch.setattr(cli, "grid_search", searching)
    run_detect(planted_file, LoganConfig(seed=0), [1.0, 5.0], None, metrics=kinds)
    (grid,) = grids
    fitted = (grid.baseline, *grid.cells)
    rated = sum(kind is not MetricKind.SUBGROUP_AUC for kind in kinds)
    n_cells = [2 * c.model.n_clusters for c in fitted]
    assert [n for n, _ in calls] == [*[2] * rated, *n_cells, *[2] * 5]
    dataset = cli.load_dataset(planted_file)
    for (_, cells), cell in zip(calls[rated : rated + 3], fitted):
        assert cells.tolist() == (2 * cell.model.assignment + dataset.group_codes).tolist()


def test_reports_reject_a_table_of_another_shape():
    """A table must be the model's ``(k, 2, 2, 2)`` count: one of another
    model with fewer clusters, or a flat one, is refused."""
    d = generate(PlantedBiasSpec(n_per_component=60, seed=11))
    cfg = LoganConfig(k=6, min_clusters=1, seed=11)
    model = logan_fit(d, cfg, 0.0)
    other = logan_fit(d, LoganConfig(k=5, min_clusters=1, seed=11), 0.0)
    table = cluster_table(model, d)
    for wrong in (cluster_table(other, d), table.reshape(-1, 4)):
        with pytest.raises(ValueError, match=r"^table must have shape \(6, 2, 2, 2\), got"):
            cluster_reports(model, d, cfg, table=wrong)


def test_run_detect_rejects_an_empty_grid(planted_file):
    with pytest.raises(ValueError, match="^lambda grid must be nonempty$"):
        run_detect(planted_file, LoganConfig(seed=0), [], None)


def failing_at(*lams):
    def wrap(fit):
        def wrapped(dataset, cfg, lam, initial_centroids=None):
            if lam in lams:
                raise ValueError(f"cell lam={lam} failed")
            return fit(dataset, cfg, lam, initial_centroids)

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
    assert_no_child_left()


def test_failing_cell_is_one_error_line_from_the_cli(monkeypatch, planted_file, tmp_path, capsys):
    force_workers(monkeypatch, 2)
    patch_fit(monkeypatch, failing_at(10.0))
    out = tmp_path / "report.json"
    code = main(["detect", "--input", str(planted_file), "--output", str(out)])
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err == "error: cell lam=10.0 failed\n"


@pytest.mark.parametrize("workers", [1, 2])
def test_failing_baseline_is_the_error_detect_prints(
    monkeypatch, planted_file, tmp_path, capsys, workers
):
    force_workers(monkeypatch, workers)
    patch_fit(monkeypatch, failing_at(5.0, 0.0))
    out = tmp_path / "report.json"
    code = main(["detect", "--input", str(planted_file), "--output", str(out)])
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err == "error: cell lam=0.0 failed\n"
    assert_no_child_left()


_DYING_CELL = """
import os, sys, time
from logan import cli, selection, workers
fit = selection.logan_fit
tokenize = cli.tokenize
def dying_fit(dataset, cfg, lam, initial_centroids=None):
    if lam == 5.0:
        os._exit(7)
    return fit(dataset, cfg, lam, initial_centroids)
def slow_tokenize(texts):
    time.sleep(60)
    return tokenize(texts)
selection.logan_fit = dying_fit
cli.tokenize = slow_tokenize
workers.usable_cpus = lambda: 2
code = cli.main(sys.argv[1:])
try:
    print(os.waitpid(-1, os.WNOHANG))
except ChildProcessError:
    print("no child")
sys.exit(code)
"""


def test_dead_worker_fails_the_audit(text_file, tmp_path):
    """A cell that kills its worker while the texts are still being
    tokenized in another child: exit 1, no hang, no leftover child."""
    out = tmp_path / "report.json"
    src = str(Path(logan.__file__).resolve().parents[1])
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", _DYING_CELL, "detect", "--input", str(text_file),
         "--output", str(out)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert time.monotonic() - started < 30  # the tokenizer sleeps 60 s
    assert proc.returncode == 1
    assert proc.stdout == "no child\n"
    assert proc.stderr.startswith(
        "error: a worker process ended without returning a result (exit code 7)\n"
    )
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_dead_tokenizer_fails_the_audit(monkeypatch, text_file, tmp_path, capsys):
    """A tokenizer child that dies: exit 1 with one error line, no report
    and no leftover child."""
    caller = os.getpid()

    def dying(texts):
        if os.getpid() == caller:
            raise AssertionError("the texts were tokenized in the calling process")
        os._exit(3)

    force_workers(monkeypatch, 2)
    monkeypatch.setattr(cli, "tokenize", dying)
    out = tmp_path / "report.json"
    code = main(["baseline", "--input", str(text_file), "--output", str(out)])
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err == (
        "error: a worker process ended without returning a result (exit code 3)\n"
    )
    assert_no_child_left()


def test_run_detect_leaves_no_worker_behind(monkeypatch, planted_file):
    force_workers(monkeypatch, 2)
    run_detect(planted_file, LoganConfig(seed=0), [1.0, 5.0, 10.0], None)
    assert_no_child_left()


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
