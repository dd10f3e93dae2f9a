"""Benchmark for ``logan``: real CLI audits, one process at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

The load is a closed loop with one client: the next audit starts when the
previous one has exited, as in a CI job that runs ``logan`` once per
evaluation set and waits for its exit code.  Every input is generated from
``--seed`` by ``generate.py``; the audited package is the one under
``src/`` next to this directory.

``--trace 0`` measures what a user pays, per audit: ``audit_s`` (spawn to
exit, interpreter start included), ``peak_rss_mb`` (from ``os.wait4``) and
``setup_s`` (a fresh interpreter running ``import logan``, sampled between
audits).  Each value is the median over the run.  ``--trace 1`` alternates
untraced audits with audits run through ``trace_audit.py`` on the same
input and reports the per-layer metrics of ``PER_LAYER``, each a median
over the traced audits, plus the tracing overhead.  ``--workload all`` runs
both modes on every workload and prints every metric.

Every audit is checked (see ``checks.py``); the last line of output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from checks import check_audit, report_sha256
from generate import InputSpec, write_input

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_SCRIPT = Path(__file__).resolve().parent / "trace_audit.py"

# Distinct inputs per untraced run.  The audits cycle through them, input 0
# twice first, so every run repeats an input and averages over label draws
# whose fit iteration counts differ.
INPUTS_PER_RUN = 5
# setup_s is sampled before every SETUP_EVERY-th audit rather than in one
# burst, so its median covers the same stretch of time as audit_s.
SETUP_EVERY = 2
AUDIT_TIMEOUT_S = 150.0

# The CLI's default lambda grid; per-lambda metrics are named after it.
GRID = (1.0, 5.0, 10.0, 100.0)


@dataclass(frozen=True)
class Workload:
    cli_args: tuple[str, ...]
    spec: InputSpec


WORKLOADS = {
    "detect-planted": Workload(("detect",), InputSpec(n=5000, dim=2)),
    "detect-bites": Workload(("detect",), InputSpec(n=5000, dim=16, scale=0.05)),
    "baseline-text": Workload(
        ("baseline", "--standardize", "--metrics", "accuracy,auc,fpr"),
        InputSpec(n=20000, dim=16, with_text=True),
    ),
}

END_TO_END = {"audit_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def lam_tag(lam: float) -> str:
    return "lam" + format(lam, "g")


PER_LAYER = {
    "clustering.logan_fit_s": "s",
    **{f"clustering.logan_fit_s.{lam_tag(lam)}": "s" for lam in GRID},
    "clustering.candidate_evals": "count",
    "clustering.ns_per_candidate": "ns",
    "clustering.iterations": "count",
    **{f"clustering.iterations.{lam_tag(lam)}": "count" for lam in GRID},
    "clustering.unconverged_fits": "count",
    **{f"clustering.moved_vs_kmeans.{lam_tag(lam)}": "count" for lam in GRID},
    "clustering.kmeanspp_s": "s",
    "clustering.kmeans_fit_s": "s",
    "clustering.kmeans_iterations": "count",
    "io.load_s": "s",
    "io.load_mb_per_s": "MB/s",
    "data.standardize_s": "s",
    "data.dataset_mb": "MB",
    "postprocess.reports_s": "s",
    "postprocess.reports_calls": "count",
    "postprocess.merge_s": "s",
    "postprocess.merge_calls": "count",
    "postprocess.compare_s": "s",
    "metrics.random_split_s": "s",
    "metrics.global_gaps_s": "s",
    "selection.grid_s": "s",
    "selection.self_s": "s",
    "selection.biased_count": "count",
    "io.serialize_s": "s",
    "cli.run_detect_s": "s",
    "cli.uncovered_s": "s",
    "cli.cpu_s": "s",
    "bench.trace_overhead_s": "s",
    "bench.generate_s": "s",
    "bench.missing_spans": "count",
}


class BenchError(Exception):
    """The benchmark cannot run here (no package, or a broken set-up)."""


@dataclass(frozen=True)
class Outcome:
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    cpu_s: float


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd: list[str], stderr_path: Path) -> Outcome:
    """Run one process to completion; time it from spawn to exit."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(AUDIT_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        exit_code=proc.returncode,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,
        cpu_s=usage.ru_utime + usage.ru_stime,
    )


def import_logan() -> float:
    """Seconds for a fresh interpreter to run ``import logan``."""
    outcome = spawn([sys.executable, "-c", "import logan"], WORK / "setup.err")
    if outcome.exit_code != 0:
        detail = (WORK / "setup.err").read_text(errors="replace").strip()
        raise BenchError(f"'import logan' failed: {detail.splitlines()[-1] if detail else outcome.exit_code}")
    return outcome.wall_s


@dataclass
class Input:
    path: Path
    info: dict


class Run:
    """Audits of one workload and seed, with their checks."""

    def __init__(self, name: str, seed: int, n_inputs: int) -> None:
        if not (SRC / "logan" / "__init__.py").is_file():
            raise BenchError(f"no logan package under {SRC}")
        self.name = name
        self.workload = WORKLOADS[name]
        WORK.mkdir(exist_ok=True)
        start = time.perf_counter()
        self.inputs = []
        for j in range(n_inputs):
            path = WORK / f"{name}-s{seed}-{j}.jsonl"
            self.inputs.append(Input(path, write_input(self.workload.spec, (seed, j), path)))
        self.generate_s = time.perf_counter() - start
        self.references: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        for j, inp in enumerate(self.inputs):
            print(f"input {j}: {inp.path.relative_to(ROOT)} {inp.info['n']} x {inp.info['dim']}, "
                  f"{inp.info['bytes']} bytes, sha256 {inp.info['sha256']}")
        print(f"generate_s {self.generate_s:.4f} s")

    def cli_args(self, j: int, report: Path) -> list[str]:
        # Relative paths: the report echoes its input path, and it must
        # hash the same in every checkout.
        return [*self.workload.cli_args, "--input", str(self.inputs[j].path.relative_to(ROOT)),
                "--output", str(report.relative_to(ROOT))]

    def audit(self, j: int, traced: bool) -> tuple[Outcome, dict | None]:
        """Run and check one audit of input j; return it and its spans."""
        report = WORK / f"{self.name}-report.json"
        spans = WORK / f"{self.name}-spans.json"
        for stale in (report, spans):
            stale.unlink(missing_ok=True)
        if traced:
            cmd = [sys.executable, str(TRACE_SCRIPT), str(spans), *self.cli_args(j, report)]
        else:
            cmd = [sys.executable, "-m", "logan", *self.cli_args(j, report)]
        outcome = spawn(cmd, WORK / f"{self.name}.err")
        text = report.read_text() if report.exists() else None
        normalized, problems = check_audit(outcome.exit_code, text, self.inputs[j].info["n"])
        if normalized is not None:
            reference = self.references.setdefault(j, normalized)
            if normalized != reference:
                problems.append("report differs from an earlier audit of the same input")
        trace = None
        if traced:
            try:
                trace = json.loads(spans.read_text())
            except (OSError, ValueError):
                problems.append("traced audit wrote no readable spans")
        self.attempted += 1
        self.failed += bool(problems)
        kind = "traced" if traced else "audit"
        print(f"{kind} input {j}: {outcome.wall_s:.4f} s, cpu {outcome.cpu_s:.4f} s, "
              f"exit {outcome.exit_code}, peak {outcome.peak_rss_mb:.1f} MB" + "".join(f"\n  FAIL: {p}" for p in problems))
        if problems:
            err = (WORK / f"{self.name}.err").read_text(errors="replace").strip()
            if err:
                print("  stderr: " + err.splitlines()[-1])
        return outcome, trace

    def print_report_hashes(self) -> None:
        for j, text in sorted(self.references.items()):
            print(f"report_sha256 input {j}: {report_sha256(text)}")
        print(f"error_rate {self.failed / self.attempted:.4f} ({self.failed} of {self.attempted} audits failed)")


def measure_end_to_end(name: str, seed: int, seconds: float) -> tuple[Run, dict]:
    run = Run(name, seed, INPUTS_PER_RUN)
    import_logan()  # unmeasured: writes the bytecode any installed package has
    setup: list[float] = []
    outcomes: list[Outcome] = []
    busy = 0.0  # seconds spent in audits, the window --seconds bounds
    for i, j in enumerate(itertools.chain([0], itertools.cycle(range(INPUTS_PER_RUN)))):
        if len(outcomes) >= 2 and busy + statistics.median(o.wall_s for o in outcomes) > seconds:
            break
        if i % SETUP_EVERY == 0:
            setup.append(import_logan())
        outcomes.append(run.audit(j, traced=False)[0])
        busy += outcomes[-1].wall_s
    run.print_report_hashes()
    print(f"{len(outcomes)} audits, {len(setup)} imports measured")
    return run, {
        "audit_s": statistics.median(o.wall_s for o in outcomes),
        "peak_rss_mb": statistics.median(o.peak_rss_mb for o in outcomes),
        "setup_s": statistics.median(setup),
    }


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced audit, from its spans.

    ``*_s`` is the summed duration of a layer's spans, its children
    included; ``selection.self_s`` and ``cli.uncovered_s`` are self times
    (duration minus the children's).  The self times of all spans add up to
    the ``cli.run_detect`` total.
    """
    spans = trace["spans"]
    own = self_times(spans)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in by_name[name])

    def self_time(name: str) -> float:
        return sum(own[s["id"]] for s in by_name[name])

    fits = [s["fit"] for s in by_name["clustering.logan_fit"] if "fit" in s]
    kmeans = [s["fit"] for s in by_name["clustering.kmeans_fit"] if "fit" in s]
    loads = by_name["io.load"]
    grids = by_name["selection.grid"]
    evals = sum((f["n"] or 0) * (f["k"] or 0) * (f["iterations"] or 0) for f in fits)
    load_s = total("io.load")
    m: dict[str, float] = {
        "clustering.logan_fit_s": total("clustering.logan_fit"),
        "clustering.candidate_evals": evals,
        "clustering.iterations": sum(f["iterations"] or 0 for f in fits),
        "clustering.unconverged_fits": sum(f["converged"] is False for f in fits + kmeans),
        "clustering.kmeanspp_s": total("clustering.kmeanspp"),
        "clustering.kmeans_fit_s": total("clustering.kmeans_fit"),
        "clustering.kmeans_iterations": sum(f["iterations"] or 0 for f in kmeans),
        "io.load_s": load_s,
        "io.load_mb_per_s": sum(s.get("input_bytes", 0) for s in loads) / 1e6 / load_s if load_s else 0.0,
        "data.standardize_s": total("data.standardize"),
        "data.dataset_mb": sum(s["rss_end"] - s["rss_start"] for s in loads) / 1e6,
        "postprocess.reports_s": total("postprocess.reports"),
        "postprocess.reports_calls": len(by_name["postprocess.reports"]),
        "postprocess.merge_s": total("postprocess.merge"),
        "postprocess.merge_calls": len(by_name["postprocess.merge"]),
        "postprocess.compare_s": total("postprocess.compare"),
        "metrics.random_split_s": total("metrics.random_split"),
        "metrics.global_gaps_s": total("metrics.global_gaps"),
        "selection.grid_s": total("selection.grid"),
        "selection.self_s": self_time("selection.grid"),
        "selection.biased_count": sum(s.get("biased_count") or 0 for s in grids),
        "io.serialize_s": total("io.serialize"),
        "cli.run_detect_s": total("cli.run_detect"),
        "cli.uncovered_s": self_time("cli.run_detect"),
        "bench.missing_spans": len(trace["missing"]),
    }
    m["clustering.ns_per_candidate"] = 1e9 * m["clustering.logan_fit_s"] / evals if evals else 0.0
    for lam in GRID:
        tag = lam_tag(lam)
        cells = [s for s in by_name["clustering.logan_fit"] if s.get("fit", {}).get("lam") == lam]
        m[f"clustering.logan_fit_s.{tag}"] = sum(s["end"] - s["start"] for s in cells)
        m[f"clustering.iterations.{tag}"] = sum(s["fit"]["iterations"] or 0 for s in cells)
        m[f"clustering.moved_vs_kmeans.{tag}"] = sum(s["fit"].get("moved_vs_kmeans", 0) for s in cells)
    return m


def describe_trace(trace: dict) -> None:
    """Print where a traced audit's time went and what it could not wrap."""
    spans = trace["spans"]
    self_by_name: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        self_by_name[s["name"]] += own
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    print(f"self times of {len(spans)} spans sum to {sum(self_by_name.values()):.4f} s; "
          f"span roots total {roots:.4f} s")
    for name, value in sorted(self_by_name.items(), key=lambda kv: -kv[1]):
        print(f"  self {name} {value:.4f} s")
    for missing in trace["missing"]:
        print(f"  missing span: {missing} (not found, not wrapped)")


def measure_layers(name: str, seed: int, seconds: float) -> tuple[Run, dict]:
    run = Run(name, seed, 1)
    untraced: list[Outcome] = []
    traced: list[Outcome] = []
    layers: list[dict] = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start + untraced[-1].wall_s + traced[-1].wall_s <= seconds:
        untraced.append(run.audit(0, traced=False)[0])
        outcome, trace = run.audit(0, traced=True)
        traced.append(outcome)
        if trace is not None:
            layers.append(layer_metrics(trace))
            last_trace = trace
    if layers:
        describe_trace(last_trace)
        (WORK / f"spans-{name}-s{seed}.json").write_text(json.dumps(last_trace))
    run.print_report_hashes()
    metrics = {key: statistics.median(m[key] for m in layers) if layers else 0.0
               for key in PER_LAYER if key not in ("cli.cpu_s", "bench.trace_overhead_s", "bench.generate_s")}
    metrics["cli.cpu_s"] = statistics.median(o.cpu_s for o in untraced)
    metrics["bench.trace_overhead_s"] = (
        statistics.median(o.wall_s for o in traced) - statistics.median(o.wall_s for o in untraced)
    )
    metrics["bench.generate_s"] = run.generate_s
    return run, metrics


def print_metrics(metrics: dict, units: dict, prefix: str = "") -> dict:
    out = {}
    for key, unit in units.items():
        print(f"metric {prefix}{key} {metrics[key]:.6g} {unit}")
        out[prefix + key] = {"value": metrics[key], "unit": unit}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # Exit through the normal unwinding on SIGTERM, so spawn() kills and
    # reaps the audit it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [0, 1] if args.workload == "all" else [args.trace]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            for mode in modes:
                print(f"== {name} seed {args.seed} trace {mode}: logan "
                      + " ".join(WORKLOADS[name].cli_args) + " --input <input> --output <report>")
                measure = measure_layers if mode else measure_end_to_end
                run, metrics = measure(name, args.seed, args.seconds)
                prefix = f"{name}." if args.workload == "all" else ""
                result["metrics"].update(print_metrics(metrics, PER_LAYER if mode else END_TO_END, prefix))
                result["attempted"] += run.attempted
                result["failed"] += run.failed
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
