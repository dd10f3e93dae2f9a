"""Correctness checks applied to every audit the benchmark runs.

An audit fails if its exit code is not 0 or 2, if the exit code disagrees
with the report's biased-cluster count, if the report is not strict JSON
(NaN and Infinity are rejected), or if its cluster sizes do not sum to the
number of input rows.  Repetitions of one input must also produce the same
report once ``provenance.created_at`` is removed; ``normalized_report``
gives the text they are compared by, and its sha256 is the report hash the
benchmark prints.
"""

from __future__ import annotations

import hashlib
import json


def _reject_constant(name: str) -> None:
    raise ValueError(f"non-finite number {name} in report")


def strict_loads(text: str) -> dict:
    """Parse JSON, rejecting the NaN/Infinity extensions Python accepts."""
    return json.loads(text, parse_constant=_reject_constant)


def normalized_report(report: dict) -> str:
    """The report serialized as the CLI writes it, minus ``created_at``."""
    trimmed = dict(report)
    trimmed["provenance"] = {
        k: v for k, v in report.get("provenance", {}).items() if k != "created_at"
    }
    return json.dumps(trimmed, indent=2) + "\n"


def report_sha256(normalized: str) -> str:
    return hashlib.sha256(normalized.encode()).hexdigest()


def check_audit(exit_code: int, report_text: str | None, n_rows: int) -> tuple[str | None, list[str]]:
    """Check one audit; return its normalized report and the problems found.

    The normalized report is None when the report is missing or unparsable.
    """
    problems = []
    if exit_code not in (0, 2):
        problems.append(f"exit code {exit_code} not in {{0, 2}}")
    if report_text is None:
        return None, problems + ["no report written"]
    try:
        report = strict_loads(report_text)
        clusters = report["clusters"]
        n_biased = sum(1 for c in clusters if c["biased"])
        total = sum(c["n_group1"] + c["n_group2"] for c in clusters)
    except (ValueError, KeyError, TypeError) as exc:
        return None, problems + [f"unreadable report: {exc}"]
    if exit_code in (0, 2) and (exit_code == 2) != (n_biased > 0):
        problems.append(f"exit code {exit_code} but {n_biased} biased clusters")
    if total != n_rows:
        problems.append(f"cluster sizes sum to {total}, input has {n_rows} rows")
    return normalized_report(report), problems
