"""Command-line surface tying the audit pipeline together.

Subcommands:
  detect        full audit: k-means baseline, weight grid search, merged
                cluster reports, comparison, JSON report
  baseline      k-means-only audit: the grid's weight-0 cell alone
  synth         write a planted-bias synthetic dataset

Exit codes: 0 = clean run, 2 = at least one biased cluster found (usable
as a CI gate), 1 = any error.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import sys
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, NoReturn, Sequence, get_type_hints

from . import __version__
from .data import LoganConfig, ValidationError, standardize_features
from .io import (
    AuditReport,
    LoadError,
    file_sha256,
    load_dataset,
    to_plain,
    write_jsonl,
)
from .metrics import MetricKind, global_bias, random_split_baseline
from .postprocess import cluster_reports, compare, tokenize
from .selection import check_grid, grid_search
from .synthetic import PlantedBiasSpec, generate
from .workers import ForkMap

# the runs of the report's random split baseline, owned by its signature
_SPLIT_RUNS = inspect.signature(random_split_baseline).parameters["runs"].default


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
    return check_grid(values)


def run_detect(
    input_path: str | Path,
    cfg: LoganConfig,
    lambdas: Sequence[float] | None,
    output_path: str | Path | None,
    fmt: str = "jsonl",
    metrics: Sequence[MetricKind] = (MetricKind.ACCURACY,),
    standardize: bool = False,
) -> AuditReport:
    """Run the audit pipeline on one input file and write the report.

    With a lambda grid this is the full bias-seeking audit (grid search
    against a k-means baseline); with ``lambdas=None`` it audits the plain
    k-means clustering only, the grid's weight-0 cell on its own.  The
    chosen cell's reports are built once, for the report and the
    comparison alike.  ``standardize`` z-scores the features first.  When
    every row has text, the texts are tokenized in a forked child while
    the grid runs (see ``logan.workers``); do not call this from a
    multi-threaded program.
    """
    dataset = load_dataset(input_path, fmt)
    if standardize:
        dataset = standardize_features(dataset)
    # before any fit, so a row without the score an AUC needs fails fast
    global_gaps = {kind: global_bias(dataset, kind) for kind in metrics}

    detect = lambdas is not None
    has_text = all(text is not None for text in dataset.texts)
    # the texts are tokenized in a forked child while the grid runs
    with ForkMap(tokenize, [dataset.texts] if has_text else [], parent_works=True) as tokens:
        # the weight-0 cell is the k-means baseline; baseline mode audits it alone
        grid = grid_search(dataset, cfg, lambdas if detect else [0.0])
        tokenized = tokens()
    reports = cluster_reports(
        grid.chosen.model,
        dataset,
        cfg,
        kinds=tuple(metrics),
        table=grid.chosen.table,
        tokens=tokenized[0] if has_text else None,
    )
    comparison = None
    if detect:
        comparison = compare(grid.chosen.model, grid.baseline.model, dataset, reports)

    mean_gap, std_gap = random_split_baseline(dataset, MetricKind.ACCURACY, seed=cfg.seed)
    sections = {
        "config": {
            **to_plain(cfg),
            "standardize": standardize,
            "lambdas": [cell.lam for cell in grid.cells] if detect else None,
            "chosen_lambda": grid.chosen_lambda if detect else None,
            "metrics": metrics,
            "groups": dataset.groups,
            "mode": "detect" if detect else "baseline",
        },
        "global_gaps": global_gaps,
        "random_split": {
            "metric": MetricKind.ACCURACY,
            "runs": _SPLIT_RUNS,
            "mean": mean_gap,
            "std": std_gap,
        },
        "clusters": reports,
        "comparison": comparison,
        "provenance": {
            "input": str(input_path),
            "input_sha256": file_sha256(input_path),
            "seed": cfg.seed,
            "version": __version__,
            "created_at": datetime.now(timezone.utc).isoformat(),
        },
    }
    report = AuditReport(**to_plain(sections))
    if output_path is not None:
        report.save(output_path)
    return report


def _add_field_flags(parser: argparse.ArgumentParser, cls: type) -> None:
    """Add one flag per field of the dataclass ``cls``, ``--field-name`` or
    ``--{metadata["flag"]}``, parsed into the field's name, with the
    field's type, default and ``metadata["help"]``."""
    types = get_type_hints(cls)
    for f in fields(cls):
        flag = f.metadata.get("flag", f.name.replace("_", "-"))
        parser.add_argument(
            f"--{flag}",
            dest=f.name,
            metavar=flag.replace("-", "_").upper(),
            type=types[f.name],
            default=f.default,
            help=f.metadata.get("help"),
        )


def _from_args(cls: type, args: argparse.Namespace) -> Any:
    """The dataclass ``cls`` built from the flags ``_add_field_flags`` added."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def _add_audit_flags(parser: argparse.ArgumentParser, with_lambdas: bool) -> None:
    parser.add_argument("--input", required=True, help="dataset file to audit")
    parser.add_argument(
        "--format", choices=("jsonl", "csv"), default="jsonl", help="input format"
    )
    _add_field_flags(parser, LoganConfig)
    if with_lambdas:
        parser.add_argument(
            "--lambdas",
            default="1,5,10,100",
            help="comma-separated bias-weight grid",
        )
    parser.add_argument(
        "--standardize", action="store_true", help="z-score features before clustering"
    )
    parser.add_argument(
        "--metrics",
        default="accuracy",
        help="comma-separated metrics to report (accuracy,auc,fpr)",
    )
    parser.add_argument("--output", required=True, help="where to write the JSON report")


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
    _add_field_flags(synth, PlantedBiasSpec)
    synth.add_argument("--output", required=True)
    return parser


def _cmd_audit(args: argparse.Namespace, with_lambdas: bool) -> int:
    cfg = _from_args(LoganConfig, args)
    lambdas = _parse_lambdas(args.lambdas) if with_lambdas else None
    metrics = _parse_metrics(args.metrics)
    report = run_detect(
        args.input,
        cfg,
        lambdas,
        args.output,
        fmt=args.format,
        metrics=metrics,
        standardize=args.standardize,
    )
    n_biased = report.n_biased_clusters()
    print(
        f"audited {args.input}: {len(report.clusters)} clusters, "
        f"{n_biased} biased (report: {args.output})"
    )
    return 2 if n_biased > 0 else 0


def _cmd_synth(args: argparse.Namespace) -> int:
    dataset = generate(_from_args(PlantedBiasSpec, args))
    write_jsonl(dataset, args.output)
    print(f"wrote {dataset.n} instances to {args.output}")
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
        parser.error(f"unknown command {args.command!r}")
    except (LoadError, ValidationError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entrypoint() -> NoReturn:
    """Run ``main`` and exit with its code, for the ``logan`` script and
    ``python -m logan``.  Every object left is frozen first, so the
    interpreter's final cycle collection, which would only free memory the
    exiting process gives back anyway, skips them."""
    code = main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
