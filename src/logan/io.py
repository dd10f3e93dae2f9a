"""File ingestion and audit report serialization.

JSONL is the primary dataset format (one object per line with ``id``,
``features``, ``group``, ``label``, ``pred`` and optional ``score`` and
``text``); CSV carries the same columns with features split across
``f0..f{d-1}``.  Reports serialize to JSON with full float precision so a
report round-trips byte-identically.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from .data import Dataset, build_dataset
from .metrics import GapResult
from .postprocess import ClusterReport, ComparisonReport


class LoadError(ValueError):
    """Malformed input file; carries the offending line number if known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


_REQUIRED_FIELDS = ("id", "features", "group", "label", "pred")


def _check_line_fields(obj: dict[str, Any], line_no: int) -> dict[str, Any]:
    for key in _REQUIRED_FIELDS:
        if key not in obj:
            raise LoadError(f"missing required field {key!r}", line_no)
    score = obj.get("score")
    if score is not None:
        if isinstance(score, bool) or not isinstance(score, (int, float)):
            raise LoadError(f"score must be a number, got {score!r}", line_no)
        if not 0.0 <= float(score) <= 1.0:
            raise LoadError(f"score {score} outside [0, 1]", line_no)
    label = obj.get("label")
    pred = obj.get("pred")
    for name, val in (("label", label), ("pred", pred)):
        if isinstance(val, bool) or not isinstance(val, int) or val not in (0, 1):
            raise LoadError(f"{name} must be 0 or 1, got {val!r}", line_no)
    if not isinstance(obj["features"], list):
        raise LoadError("features must be an array of numbers", line_no)
    text = obj.get("text")
    if text is not None and not isinstance(text, str):
        raise LoadError(f"text must be a string, got {text!r}", line_no)
    return {key: obj[key] for key in (*_REQUIRED_FIELDS, "score", "text") if key in obj}


def load_jsonl(path: str | Path) -> Dataset:
    """Load a dataset from a JSONL file; errors name the offending line."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                obj = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise LoadError(f"invalid JSON ({exc.msg})", line_no) from exc
            if not isinstance(obj, dict):
                raise LoadError("each line must hold a JSON object", line_no)
            rows.append(_check_line_fields(obj, line_no))
    return build_dataset(rows)


_FEATURE_COL_RE = re.compile(r"^f(\d+)$")


def load_csv(path: str | Path) -> Dataset:
    """Load a dataset from CSV with features in columns ``f0..f{d-1}``."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise LoadError("missing header row", 1)
        feature_cols: dict[int, str] = {}
        for col in reader.fieldnames:
            match = _FEATURE_COL_RE.match(col)
            if match:
                feature_cols[int(match.group(1))] = col
        if not feature_cols:
            raise LoadError("no feature columns (expected f0..f{d-1})", 1)
        dim = len(feature_cols)
        if sorted(feature_cols) != list(range(dim)):
            raise LoadError("feature columns must be contiguous f0..f{d-1}", 1)
        for key in ("id", "group", "label", "pred"):
            if key not in reader.fieldnames:
                raise LoadError(f"missing required column {key!r}", 1)
        for record in reader:
            line_no = reader.line_num
            try:
                features = [float(record[feature_cols[i]]) for i in range(dim)]
            except (TypeError, ValueError) as exc:
                raise LoadError("non-numeric feature value", line_no) from exc
            def parse_binary(name: str) -> int:
                raw = (record.get(name) or "").strip()
                if raw not in ("0", "1"):
                    raise LoadError(f"{name} must be 0 or 1, got {raw!r}", line_no)
                return int(raw)
            obj: dict[str, Any] = {
                "id": record.get("id") or "",
                "features": features,
                "group": record.get("group") or "",
                "label": parse_binary("label"),
                "pred": parse_binary("pred"),
            }
            raw_score = (record.get("score") or "").strip()
            if raw_score:
                try:
                    score = float(raw_score)
                except ValueError as exc:
                    raise LoadError(f"score must be a number, got {raw_score!r}", line_no) from exc
                if not 0.0 <= score <= 1.0:
                    raise LoadError(f"score {score} outside [0, 1]", line_no)
                obj["score"] = score
            raw_text = record.get("text")
            if raw_text:
                obj["text"] = raw_text
            rows.append(obj)
    return build_dataset(rows)


def load_dataset(path: str | Path, fmt: str = "jsonl") -> Dataset:
    if fmt == "jsonl":
        return load_jsonl(path)
    if fmt == "csv":
        return load_csv(path)
    raise ValueError(f"unknown input format {fmt!r}")


def write_jsonl(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset in the JSONL input format (lossless round-trip)."""
    with open(path, "w", encoding="utf-8") as fh:
        for inst in dataset.instances:
            obj: dict[str, Any] = {
                "id": inst.id,
                "features": list(inst.features),
                "group": inst.group,
                "label": inst.label,
                "pred": inst.prediction,
            }
            if inst.score is not None:
                obj["score"] = inst.score
            if inst.text is not None:
                obj["text"] = inst.text
            fh.write(json.dumps(obj, allow_nan=False) + "\n")


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _clean_float(value: float | None) -> float | None:
    if value is None:
        return None
    value = float(value)
    if math.isnan(value):
        return None
    return value


def gap_result_to_dict(result: GapResult) -> dict[str, Any]:
    return {
        "perf_group1": _clean_float(result.perf_group1),
        "perf_group2": _clean_float(result.perf_group2),
        "gap": _clean_float(result.gap),
        "n_group1": result.n_group1,
        "n_group2": result.n_group2,
    }


def cluster_report_to_dict(report: ClusterReport) -> dict[str, Any]:
    out: dict[str, Any] = {
        "cluster_id": report.cluster_id,
        "n_group1": report.n_group1,
        "n_group2": report.n_group2,
        "perf_group1": {k.value: _clean_float(v) for k, v in report.perf_group1.items()},
        "perf_group2": {k.value: _clean_float(v) for k, v in report.perf_group2.items()},
        "gap": {k.value: _clean_float(v) for k, v in report.gap.items()},
        "detectable": report.detectable,
        "biased": report.biased,
    }
    if report.top_tokens is not None:
        out["top_tokens"] = list(report.top_tokens)
    return out


def comparison_to_dict(report: ComparisonReport) -> dict[str, Any]:
    out = asdict(report)
    out["inertia_ratio"] = _clean_float(report.inertia_ratio)
    out["mean_abs_bias"] = _clean_float(report.mean_abs_bias)
    return out


@dataclass(frozen=True)
class AuditReport:
    """Full audit output: config echo, global gaps, per-cluster reports,
    baseline comparison and provenance.  All sections hold plain
    JSON-compatible values, so serialization is lossless by construction."""

    config: dict[str, Any]
    global_gaps: dict[str, Any]
    random_split: dict[str, Any]
    clusters: list[dict[str, Any]]
    comparison: dict[str, Any] | None
    provenance: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": self.config,
            "global_gaps": self.global_gaps,
            "random_split": self.random_split,
            "clusters": self.clusters,
            "comparison": self.comparison,
            "provenance": self.provenance,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False) + "\n"

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "AuditReport":
        return cls(
            config=data["config"],
            global_gaps=data["global_gaps"],
            random_split=data["random_split"],
            clusters=data["clusters"],
            comparison=data["comparison"],
            provenance=data["provenance"],
        )

    @classmethod
    def from_json(cls, text: str) -> "AuditReport":
        return cls.from_dict(json.loads(text))

    def n_biased_clusters(self) -> int:
        return sum(1 for c in self.clusters if c["biased"])

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "AuditReport":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_plot_data(report: AuditReport, path: str | Path) -> None:
    """Write per-(cluster, group) accuracy rows as CSV for external plotting.

    Columns: cluster_id, group, n, accuracy, gap, biased — sorted by
    cluster id then group, numbers at full precision.
    """
    if not report.clusters:
        raise ValueError("report has no clusters to plot")
    groups = report.config["groups"]
    rows = []
    for cluster in sorted(report.clusters, key=lambda c: c["cluster_id"]):
        for pos, group in enumerate(sorted(groups)):
            side = "perf_group1" if pos == 0 else "perf_group2"
            count = cluster["n_group1"] if pos == 0 else cluster["n_group2"]
            rows.append(
                [
                    _csv_cell(cluster["cluster_id"]),
                    group,
                    _csv_cell(count),
                    _csv_cell(cluster[side].get("accuracy")),
                    _csv_cell(cluster["gap"].get("accuracy")),
                    _csv_cell(cluster["biased"]),
                ]
            )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster_id", "group", "n", "accuracy", "gap", "biased"])
        writer.writerows(rows)
