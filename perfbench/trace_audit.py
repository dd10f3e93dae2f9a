"""Run one ``logan`` CLI audit with a span around each layer's public calls.

Usage: python3 trace_audit.py SPANS_OUT LOGAN_ARGS...

The package is left untouched: before ``logan.cli.main`` runs, the public
functions that ``cli.run_detect`` reaches are replaced, in the module that
calls them, by wrappers that record a span (name, start, end, parent) and,
for fits, the counts read off the returned ``ClusterModel``.  A function
that no longer exists is listed as missing instead of failing the run.
The spans are written to SPANS_OUT as JSON when the audit ends, and the
process exits with the CLI's exit code.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# (module, attribute, span name).  A name wrapped in several modules is one
# layer seen from several call sites: cli and selection import these names
# directly, so each importing module gets its own wrapper.
TARGETS = (
    ("logan.cli", "run_detect", "cli.run_detect"),
    ("logan.cli", "load_dataset", "io.load"),
    ("logan.cli", "standardize_features", "data.standardize"),
    ("logan.cli", "kmeans_fit", "clustering.kmeans_fit"),
    ("logan.clustering", "kmeanspp_init", "clustering.kmeanspp"),
    ("logan.cli", "grid_search", "selection.grid"),
    ("logan.selection", "logan_fit", "clustering.logan_fit"),
    ("logan.cli", "merge_small_clusters", "postprocess.merge"),
    ("logan.selection", "merge_small_clusters", "postprocess.merge"),
    ("logan.cli", "cluster_reports", "postprocess.reports"),
    ("logan.selection", "cluster_reports", "postprocess.reports"),
    ("logan.postprocess", "cluster_reports", "postprocess.reports"),
    ("logan.cli", "compare", "postprocess.compare"),
    ("logan.cli", "random_split_baseline", "metrics.random_split"),
    ("logan.cli", "global_bias", "metrics.global_gaps"),
    ("logan.io.AuditReport", "save", "io.serialize"),
)

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


def _resolve(path: str):
    """Import ``path`` as a module, or as an attribute of a module; None if
    neither exists."""
    try:
        return importlib.import_module(path)
    except ImportError:
        pass
    module, _, attr = path.rpartition(".")
    try:
        return getattr(importlib.import_module(module), attr, None)
    except ImportError:
        return None


def _fit_facts(args, result) -> dict:
    """Counts of one fit, read off its arguments and returned model."""
    assignment = getattr(result, "assignment", None)
    cfg = args[1] if len(args) > 1 else None
    return {
        "lam": getattr(cfg, "lam", None),
        "n": len(assignment) if assignment is not None else None,
        "k": getattr(result, "n_clusters", None),
        "iterations": getattr(result, "iterations_run", None),
        "converged": getattr(result, "converged", None),
        "assignment": assignment,
    }


class Tracer:
    """Holds the spans of one audit; wrappers append to it as calls return."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.missing: list[str] = []

    def install(self) -> None:
        for owner_path, attr, name in TARGETS:
            owner = _resolve(owner_path)
            target = getattr(owner, attr, None) if owner is not None else None
            if target is None:
                self.missing.append(f"{owner_path}.{attr}")
                continue
            setattr(owner, attr, self._wrap(target, name))

    def _wrap(self, target, name: str):
        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self.stack[-1] if self.stack else None,
                "rss_start": _rss_bytes(),
                "start": time.perf_counter(),
            }
            self.spans.append(span)
            self.stack.append(span["id"])
            try:
                result = target(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["rss_end"] = _rss_bytes()
                self.stack.pop()
            if name in ("clustering.logan_fit", "clustering.kmeans_fit"):
                span["fit"] = _fit_facts(args, result)
            elif name == "io.load" and args:
                span["input_bytes"] = os.path.getsize(args[0])
            elif name == "selection.grid":
                chosen = getattr(result, "chosen", None)
                span["biased_count"] = getattr(chosen, "biased_count", None)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        kmeans = [s["fit"]["assignment"] for s in self.spans
                  if s["name"] == "clustering.kmeans_fit" and "fit" in s]
        for span in self.spans:
            fit = span.get("fit")
            if fit is None:
                continue
            assignment = fit.pop("assignment")
            if span["name"] == "clustering.logan_fit" and kmeans and kmeans[0] is not None \
                    and assignment is not None:
                fit["moved_vs_kmeans"] = int((assignment != kmeans[0]).sum())
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "missing": self.missing}, fh)


def main(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import logan.cli

    try:
        return logan.cli.main(cli_args)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
