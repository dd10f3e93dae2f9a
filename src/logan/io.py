"""File ingestion and audit report serialization.

JSONL is the primary dataset format (one object per line with ``id``,
``features``, ``group``, ``label``, ``pred`` and optional ``score`` and
``text``); CSV carries the same columns with features split across
``f0..f{d-1}``.

The report dataclasses are the report schema: ``to_plain`` turns a
``GapResult``, ``ClusterReport``, ``ComparisonReport`` or ``LoganConfig``
into JSON data whose keys are its field names, and ``AuditReport``
serializes that data with full float precision, so a report round-trips
byte-identically.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
import stat
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from functools import partial
from io import BytesIO, TextIOWrapper
from pathlib import Path
from typing import Any, Iterable, Iterator

from .data import Dataset, DatasetBuilder, ValidationError
from .workers import ForkMap


class LoadError(ValueError):
    """Malformed input file; carries the offending line number if known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _add_row(builder: DatasetBuilder, row: dict[str, Any], line_no: int) -> None:
    try:
        builder.add(row)
    except ValidationError as exc:
        raise LoadError(str(exc), line_no) from exc


# Read with errors="surrogateescape", each byte that is not UTF-8 becomes
# one lone surrogate in U+DC80..U+DCFF, which decoded UTF-8 never holds.
# The file then splits into lines exactly as a strict read would (universal
# newlines included), and each line is checked on its own.
_UNDECODED_RE = re.compile("[\udc80-\udcff]")


def _utf8_lines(lines: Iterable[str]) -> Iterator[str]:
    """Yield the lines of a file opened with errors="surrogateescape";
    raise LoadError naming the first line that is not valid UTF-8."""
    for line_no, line in enumerate(lines, start=1):
        if not line.isascii():
            bad = _UNDECODED_RE.search(line)
            if bad:
                byte = ord(bad.group()) - 0xDC00
                raise LoadError(f"byte 0x{byte:02x} is not valid UTF-8", line_no)
        yield line


def _parse_jsonl(lines: Iterable[str]) -> DatasetBuilder:
    """The records of JSONL text lines; errors name the offending line,
    counted from the first line given."""
    builder = DatasetBuilder()
    for line_no, line in enumerate(_utf8_lines(lines), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            obj = json.loads(stripped)
        except (ValueError, RecursionError) as exc:  # also digit limit, nesting depth
            raise LoadError(f"invalid JSON ({getattr(exc, 'msg', exc)})", line_no) from exc
        if not isinstance(obj, dict):
            raise LoadError("each line must hold a JSON object", line_no)
        _add_row(builder, obj, line_no)
    return builder


def _parse_part(path: str | Path, start: int, stop: int | None = None) -> DatasetBuilder:
    """``_parse_jsonl`` of the file's bytes ``[start, stop)``.  ``start``
    and ``stop`` must each follow a line feed byte, so the part holds whole
    lines; a part from 0 is never sought, so a pipe reads too, and a part
    with a ``stop`` is read in one read."""
    with open(path, "rb") as raw:
        if start > 0:
            raw.seek(start)
        stream = raw if stop is None else BytesIO(raw.read(stop - start))
        with TextIOWrapper(stream, encoding="utf-8", errors="surrogateescape") as text:
            return _parse_jsonl(text)


def load_jsonl(path: str | Path) -> Dataset:
    """Load a dataset from a JSONL file; errors name the offending line.

    A regular file is split just past the first line feed byte at or after
    its middle, unless that is its last byte or there is none.  The halves
    are parsed at once: a forked child (see ``logan.workers``) streams the
    second, while this process reads the first whole, in one read, and
    parses it.  When either half fails, or the two disagree on the feature
    dimension or share an id, the whole file is parsed again in one pass,
    which raises the error of the first bad line.
    """
    split = size = 0
    with open(path, "rb") as fh:
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            size = fh.seek(0, os.SEEK_END)
            fh.seek(size // 2)
            fh.readline()
            split = fh.tell()
    builder = None
    if split < size:
        with ForkMap(partial(_parse_part, path), [split], parent_works=True) as tail:
            try:
                builder = _parse_part(path, 0, split)
                builder.extend(tail()[0])
            except Exception:  # the one pass raises it with its line number
                builder = None
    if builder is None:
        builder = _parse_part(path, 0)
    return builder.finish()


_FEATURE_COL_RE = re.compile(r"^f(\d+)$")


def _parse_number(raw: str) -> float | str:
    """The float a CSV cell holds, or the cell itself for the validator to
    reject."""
    try:
        return float(raw)
    except ValueError:
        return raw


def load_csv(path: str | Path) -> Dataset:
    """Load a dataset from CSV with features in columns ``f0..f{d-1}``.

    Cells are parsed to the JSONL types where they can be; the row
    validator rejects the rest, and errors name the offending line.  A
    header that repeats a column or names one feature index twice (``f1``
    and ``f01``), and a row with more or fewer cells than the header, are
    rejected too.
    """
    builder = DatasetBuilder()
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.DictReader(_utf8_lines(fh))
        if reader.fieldnames is None:
            raise LoadError("missing header row", 1)
        width = len(reader.fieldnames)
        if len(set(reader.fieldnames)) != width:
            repeated = next(
                col for i, col in enumerate(reader.fieldnames) if col in reader.fieldnames[:i]
            )
            raise LoadError(f"column {repeated!r} repeats in the header", 1)
        feature_cols: dict[int, str] = {}
        for col in reader.fieldnames:
            match = _FEATURE_COL_RE.match(col)
            if match:
                index = int(match.group(1))
                if index in feature_cols:
                    first = feature_cols[index]
                    raise LoadError(
                        f"columns {first!r} and {col!r} both name feature {index}", 1
                    )
                feature_cols[index] = col
        if not feature_cols:
            raise LoadError("no feature columns (expected f0..f{d-1})", 1)
        dim = len(feature_cols)
        if sorted(feature_cols) != list(range(dim)):
            raise LoadError("feature columns must be contiguous f0..f{d-1}", 1)
        for key in ("id", "group", "label", "pred"):
            if key not in reader.fieldnames:
                raise LoadError(f"missing required column {key!r}", 1)
        last = reader.fieldnames[-1]
        for record in reader:
            # DictReader files surplus cells under None and fills missing ones with None
            extra = record.get(None)
            if extra is not None or record[last] is None:
                cells = width + len(extra or ()) - list(record.values()).count(None)
                raise LoadError(
                    f"row has {cells} cells, but the header has {width}", reader.line_num
                )
            obj: dict[str, Any] = {
                "id": record["id"],
                "features": [_parse_number(record[feature_cols[i]]) for i in range(dim)],
                "group": record["group"],
            }
            for name in ("label", "pred"):
                raw = record[name].strip()
                obj[name] = int(raw) if raw in ("0", "1") else raw
            raw_score = (record.get("score") or "").strip()
            if raw_score:
                obj["score"] = _parse_number(raw_score)
            raw_text = record.get("text")
            if raw_text:
                obj["text"] = raw_text
            _add_row(builder, obj, reader.line_num)
    return builder.finish()


def load_dataset(path: str | Path, fmt: str = "jsonl") -> Dataset:
    if fmt == "jsonl":
        return load_jsonl(path)
    if fmt == "csv":
        return load_csv(path)
    raise ValueError(f"unknown input format {fmt!r}")


def write_jsonl(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset in the JSONL input format (lossless round-trip)."""
    columns = zip(
        dataset.ids,
        dataset.feature_matrix.tolist(),
        dataset.group_codes.tolist(),
        dataset.labels.tolist(),
        dataset.preds.tolist(),
        dataset.scores.tolist(),
        dataset.texts,
    )
    with open(path, "w", encoding="utf-8") as fh:
        for rid, features, code, label, pred, score, text in columns:
            obj: dict[str, Any] = {
                "id": rid,
                "features": features,
                "group": dataset.groups[code],
                "label": label,
                "pred": pred,
            }
            if not math.isnan(score):
                obj["score"] = score
            if text is not None:
                obj["text"] = text
            fh.write(json.dumps(obj, allow_nan=False) + "\n")


def file_sha256(path: str | Path) -> str | None:
    """sha256 of a regular file; None for another file, which the load drained."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def to_plain(value: Any) -> Any:
    """``value`` as plain JSON data; the one place the report format lives.

    A dataclass becomes the dict of its fields in declaration order, less
    any field that holds its ``None`` default; an ``Enum`` (a dict key
    too) becomes its value, a tuple a list, and NaN ``None``.
    """
    if is_dataclass(value):
        return {
            f.name: to_plain(getattr(value, f.name))
            for f in fields(value)
            if f.default is not None or getattr(value, f.name) is not None
        }
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {to_plain(key): to_plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_plain(item) for item in value]
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


@dataclass(frozen=True)
class AuditReport:
    """Full audit output: config echo, global gaps, random-split baseline,
    per-cluster reports, baseline comparison and provenance.

    Each section holds the ``to_plain`` data of its source values: a
    ``global_gaps`` entry has the fields of a ``GapResult``, a ``clusters``
    entry those of a ``ClusterReport`` and ``comparison`` those of a
    ``ComparisonReport``, so serialization is lossless by construction.
    """

    config: dict[str, Any]
    global_gaps: dict[str, Any]
    random_split: dict[str, Any]
    clusters: list[dict[str, Any]]
    comparison: dict[str, Any] | None
    provenance: dict[str, Any]

    def to_json(self) -> str:
        return json.dumps(vars(self), indent=2, allow_nan=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "AuditReport":
        return cls(**json.loads(text))

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
