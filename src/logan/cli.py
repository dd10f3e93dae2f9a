"""Command-line surface tying the audit pipeline together.

Subcommands:
  detect        full audit: k-means baseline, weight grid search, merged
                cluster reports, comparison, JSON report
  baseline      k-means-only audit (no bias-seeking weight)
  synth         write a planted-bias synthetic dataset
  random-split  print the random-split gap baseline for a dataset

Exit codes: 0 = clean run, 2 = at least one biased cluster found (usable
as a CI gate), 1 = any error.
"""

from __future__ import annotations

import argparse
import math
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, NoReturn, Sequence

from . import __version__
from .clustering import kmeans_fit
from .data import LoganConfig, ValidationError, standardize_features
from .io import (
    AuditReport,
    LoadError,
    cluster_report_to_dict,
    comparison_to_dict,
    emit_plot_data,
    file_sha256,
    gap_result_to_dict,
    load_dataset,
    write_jsonl,
)
from .metrics import MetricKind, global_bias, random_split_baseline
from .postprocess import cluster_reports, compare, merge_small_clusters
from .selection import grid_search
from .synthetic import PlantedBiasSpec, generate

_RANDOM_SPLIT_RUNS = 5
_TOP_TOKENS = 10


def _parse_metrics(raw: str) -> list[MetricKind]:
    kinds = []
    for name in raw.split(","):
        name = name.strip().lower()
        if not name:
            continue
        try:
            kind = MetricKind(name)
        except ValueError:
            valid = ", ".join(m.value for m in MetricKind)
            raise ValueError(f"unknown metric {name!r} (valid: {valid})")
        if kind not in kinds:
            kinds.append(kind)
    if not kinds:
        raise ValueError("no metrics requested")
    return kinds


def _parse_lambdas(raw: str) -> list[float]:
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"could not parse lambda grid {raw!r}")
    if not values:
        raise ValueError("lambda grid is empty")
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"lambda grid {raw!r} holds a non-finite value")
    return values


def run_detect(
    input_path: str | Path,
    cfg: LoganConfig,
    lambdas: Sequence[float] | None,
    output_path: str | Path | None,
    fmt: str = "jsonl",
    metrics: Sequence[MetricKind] = (MetricKind.ACCURACY,),
    plot_path: str | Path | None = None,
) -> AuditReport:
    """Run the audit pipeline on one input file and write the report.

    With a lambda grid this is the full bias-seeking audit (grid search
    against a k-means baseline); with ``lambdas=None`` it audits the plain
    k-means clustering only.
    """
    dataset = load_dataset(input_path, fmt)
    if cfg.standardize:
        dataset = standardize_features(dataset)

    baseline_model = merge_small_clusters(kmeans_fit(dataset, cfg), dataset, cfg)
    if lambdas is not None:
        grid = grid_search(dataset, cfg, lambdas)
        audited_model = grid.chosen.model
        chosen_lambda: float | None = grid.chosen_lambda
        comparison = comparison_to_dict(
            compare(audited_model, baseline_model, dataset, cfg)
        )
    else:
        audited_model = baseline_model
        chosen_lambda = None
        comparison = None

    has_text = all(inst.text is not None for inst in dataset.instances)
    reports = cluster_reports(
        audited_model,
        dataset,
        cfg,
        kinds=tuple(metrics),
        top_tokens=_TOP_TOKENS if has_text else 0,
    )

    config_echo: dict[str, Any] = cfg.to_dict()
    config_echo.pop("lam", None)
    config_echo["lambdas"] = list(lambdas) if lambdas is not None else None
    config_echo["chosen_lambda"] = chosen_lambda
    config_echo["metrics"] = [m.value for m in metrics]
    config_echo["groups"] = list(dataset.groups)
    config_echo["mode"] = "detect" if lambdas is not None else "baseline"

    mean_gap, std_gap = random_split_baseline(
        dataset, MetricKind.ACCURACY, runs=_RANDOM_SPLIT_RUNS, seed=cfg.seed
    )
    report = AuditReport(
        config=config_echo,
        global_gaps={
            kind.value: gap_result_to_dict(global_bias(dataset, kind))
            for kind in metrics
        },
        random_split={
            "metric": MetricKind.ACCURACY.value,
            "runs": _RANDOM_SPLIT_RUNS,
            "mean": mean_gap,
            "std": std_gap,
        },
        clusters=[cluster_report_to_dict(r) for r in reports],
        comparison=comparison,
        provenance={
            "input": str(input_path),
            "input_sha256": file_sha256(input_path),
            "seed": cfg.seed,
            "version": __version__,
            "created_at": datetime.now(timezone.utc).isoformat(),
        },
    )
    if output_path is not None:
        report.save(output_path)
    if plot_path is not None:
        emit_plot_data(report, plot_path)
    return report


def _add_audit_flags(parser: argparse.ArgumentParser, with_lambdas: bool) -> None:
    parser.add_argument("--input", required=True, help="dataset file to audit")
    parser.add_argument(
        "--format", choices=("jsonl", "csv"), default="jsonl", help="input format"
    )
    parser.add_argument("--k", type=int, default=10, help="initial cluster count")
    if with_lambdas:
        parser.add_argument(
            "--lambdas",
            default="1,5,10,100",
            help="comma-separated bias-weight grid",
        )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument("--bias-threshold", type=float, default=0.05)
    parser.add_argument("--min-per-group", type=int, default=20)
    parser.add_argument("--min-cluster-total", type=int, default=20)
    parser.add_argument("--min-clusters", type=int, default=5)
    parser.add_argument("--max-iter", type=int, default=100)
    parser.add_argument(
        "--standardize", action="store_true", help="z-score features before clustering"
    )
    parser.add_argument(
        "--metrics",
        default="accuracy",
        help="comma-separated metrics to report (accuracy,auc,fpr)",
    )
    parser.add_argument("--output", required=True, help="where to write the JSON report")
    parser.add_argument("--plot-data", help="optional per-(cluster,group) CSV path")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, not argparse's 2, which
    here means "bias found"."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="logan", description="Audit a classifier for local group bias."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser("detect", help="full bias-seeking audit")
    _add_audit_flags(detect, with_lambdas=True)

    baseline = sub.add_parser("baseline", help="k-means-only audit")
    _add_audit_flags(baseline, with_lambdas=False)

    synth = sub.add_parser("synth", help="write a synthetic dataset")
    synth.add_argument("--preset", choices=("planted-bias",), required=True)
    synth.add_argument("--components", type=int, default=5)
    synth.add_argument("--n-per-component", type=int, default=400)
    synth.add_argument("--dim", type=int, default=2)
    synth.add_argument("--separation", type=float, default=8.0)
    synth.add_argument("--planted-component", type=int, default=0)
    synth.add_argument("--planted-gap", type=float, default=0.30)
    synth.add_argument("--background-acc", type=float, default=0.85)
    synth.add_argument("--group-balance", type=float, default=0.5)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--output", required=True)

    split = sub.add_parser("random-split", help="random-split gap baseline")
    split.add_argument("--input", required=True)
    split.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    split.add_argument(
        "--metric",
        default="accuracy",
        choices=[m.value for m in MetricKind],
    )
    split.add_argument("--runs", type=int, default=5)
    split.add_argument("--seed", type=int, default=0)
    return parser


def _config_from_args(args: argparse.Namespace) -> LoganConfig:
    return LoganConfig(
        k=args.k,
        max_iter=args.max_iter,
        seed=args.seed,
        min_cluster_total=args.min_cluster_total,
        min_clusters=args.min_clusters,
        min_per_group=args.min_per_group,
        bias_threshold=args.bias_threshold,
        standardize=args.standardize,
    )


def _cmd_audit(args: argparse.Namespace, with_lambdas: bool) -> int:
    cfg = _config_from_args(args)
    lambdas = _parse_lambdas(args.lambdas) if with_lambdas else None
    metrics = _parse_metrics(args.metrics)
    report = run_detect(
        args.input,
        cfg,
        lambdas,
        args.output,
        fmt=args.format,
        metrics=metrics,
        plot_path=args.plot_data,
    )
    n_biased = report.n_biased_clusters()
    print(
        f"audited {args.input}: {len(report.clusters)} clusters, "
        f"{n_biased} biased (report: {args.output})"
    )
    return 2 if n_biased > 0 else 0


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = PlantedBiasSpec(
        n_clusters=args.components,
        n_per_component=args.n_per_component,
        dim=args.dim,
        component_separation=args.separation,
        planted_component=args.planted_component,
        planted_gap=args.planted_gap,
        background_acc=args.background_acc,
        group_balance=args.group_balance,
        seed=args.seed,
    )
    dataset = generate(spec)
    write_jsonl(dataset, args.output)
    print(f"wrote {dataset.n} instances to {args.output}")
    return 0


def _cmd_random_split(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.input, args.format)
    mean, std = random_split_baseline(
        dataset, MetricKind(args.metric), runs=args.runs, seed=args.seed
    )
    print(
        f"random-split gap ({args.metric}, {args.runs} runs): "
        f"mean={mean:.6f} std={std:.6f}"
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "detect":
            return _cmd_audit(args, with_lambdas=True)
        if args.command == "baseline":
            return _cmd_audit(args, with_lambdas=False)
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "random-split":
            return _cmd_random_split(args)
        parser.error(f"unknown command {args.command!r}")
    except (LoadError, ValidationError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
