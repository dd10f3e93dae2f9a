import contextlib
import csv
import dataclasses
import enum
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import logan
import logan.io

from logan import workers
from logan.cli import _from_args, build_parser, main, run_detect
from logan.clustering import FitLog
from logan.data import LoganConfig, ValidationError, build_dataset
from logan.io import (
    AuditReport,
    LoadError,
    emit_plot_data,
    load_csv,
    load_dataset,
    load_jsonl,
    to_plain,
    write_jsonl,
)
from logan.metrics import GapResult, MetricKind, random_split_baseline
from logan.postprocess import ClusterReport, ComparisonReport
from logan.synthetic import PlantedBiasSpec, generate

from helpers import assert_no_child_left, assert_same_dataset, serial_load_jsonl, split_offset


def jsonl_line(i, **overrides):
    obj = {
        "id": f"x{i}",
        "features": [float(i), 0.5],
        "group": "a" if i % 2 == 0 else "b",
        "label": i % 2,
        "pred": i % 2,
    }
    obj.update(overrides)
    return json.dumps(obj)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ------------------------------------------------------------------- loaders

def test_load_jsonl_three_lines(tmp_path):
    path = tmp_path / "data.jsonl"
    write_lines(path, [jsonl_line(i) for i in range(3)])
    d = load_jsonl(path)
    assert d.n == 3
    assert d.dim == 2


def test_load_jsonl_missing_group_names_line(tmp_path):
    path = tmp_path / "data.jsonl"
    lines = [jsonl_line(0), jsonl_line(1), jsonl_line(2)]
    obj = json.loads(lines[1])
    del obj["group"]
    lines[1] = json.dumps(obj)
    write_lines(path, lines)
    with pytest.raises(LoadError, match="line 2") as err:
        load_jsonl(path)
    assert err.value.line == 2


def test_load_jsonl_score_range_error(tmp_path):
    path = tmp_path / "data.jsonl"
    write_lines(path, [jsonl_line(0), jsonl_line(1, score=1.5)])
    with pytest.raises(LoadError, match="line 2.*score"):
        load_jsonl(path)


def test_load_jsonl_invalid_json(tmp_path):
    path = tmp_path / "data.jsonl"
    write_lines(path, [jsonl_line(0), "{not json", jsonl_line(2)])
    with pytest.raises(LoadError, match="line 2"):
        load_jsonl(path)


def test_load_jsonl_non_object_line(tmp_path):
    path = tmp_path / "data.jsonl"
    write_lines(path, [jsonl_line(0), "[1, 2]"])
    with pytest.raises(LoadError, match="line 2"):
        load_jsonl(path)


def test_load_jsonl_bad_label(tmp_path):
    path = tmp_path / "data.jsonl"
    write_lines(path, [jsonl_line(0, label=3), jsonl_line(1)])
    with pytest.raises(LoadError, match="line 1.*label"):
        load_jsonl(path)


CSV_HEADER = "id,f0,f1,group,label,pred"


@pytest.mark.parametrize(
    "suffix, lines, bad_line",
    [
        (".jsonl", [jsonl_line(0), jsonl_line(1, features=["x"])], 2),
        (".jsonl", [jsonl_line(0), jsonl_line(1), jsonl_line(2, id="x0")], 3),
        (".jsonl", [jsonl_line(0), jsonl_line(1, features=[1.0, 2.0, 3.0])], 2),
        (".csv", [CSV_HEADER, "p0,0.0,1.0,a,1,1", "p1,nan,1.0,b,0,0"], 3),
        (".csv", [CSV_HEADER, "p0,0.0,1.0,a,1,1", "p1,1.0,1.0,b,0,0", ",2.0,1.0,a,1,0"], 4),
    ],
    ids=["jsonl-non-numeric-feature", "jsonl-duplicate-id", "jsonl-dimension",
         "csv-nan-feature", "csv-empty-id"],
)
def test_row_validation_errors_name_the_line(tmp_path, suffix, lines, bad_line):
    path = tmp_path / f"data{suffix}"
    write_lines(path, lines)
    with pytest.raises(LoadError, match=f"^line {bad_line}: ") as err:
        load_dataset(path, suffix[1:])
    assert err.value.line == bad_line


def test_load_jsonl_unknown_fields_ignored(tmp_path):
    path = tmp_path / "data.jsonl"
    write_lines(
        path,
        [jsonl_line(0, extra="junk"), jsonl_line(1, another=[1, 2, 3])],
    )
    assert load_jsonl(path).n == 2


def test_jsonl_round_trip_identity(tmp_path):
    d = generate(PlantedBiasSpec(n_per_component=20, seed=4))
    path = tmp_path / "out.jsonl"
    write_jsonl(d, path)
    assert_same_dataset(load_jsonl(path), d)


def test_jsonl_round_trip_optional_fields(tmp_path):
    path = tmp_path / "data.jsonl"
    write_lines(
        path,
        [
            jsonl_line(0, text="hello there", score=0.25),
            jsonl_line(1),  # no score, no text
        ],
    )
    d = load_jsonl(path)
    out = tmp_path / "echo.jsonl"
    write_jsonl(d, out)
    assert_same_dataset(load_jsonl(out), d)
    assert d.texts[0] == "hello there"
    assert math.isnan(d.scores[1])


def test_load_csv_basic(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "id,f0,f1,group,label,pred,score,text\n"
        'p0,0.25,1.5,a,1,1,0.9,"hello, quoted"\n'
        "p1,1.0,2.0,b,0,1,0.2,\n",
        encoding="utf-8",
    )
    d = load_csv(path)
    assert d.n == 2
    assert d.dim == 2
    assert d.feature_matrix[0].tolist() == [0.25, 1.5]
    assert d.texts[0] == "hello, quoted"
    assert d.texts[1] is None
    assert d.scores[1] == 0.2


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,f0,label,pred\np0,0.0,1,1\n", encoding="utf-8")
    with pytest.raises(LoadError, match="group"):
        load_csv(path)


def test_load_csv_non_contiguous_features(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,f0,f2,group,label,pred\np0,0,1,a,1,1\n", encoding="utf-8")
    with pytest.raises(LoadError, match="contiguous"):
        load_csv(path)


def test_load_csv_bad_feature_names_line(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "id,f0,group,label,pred\np0,0.0,a,1,1\np1,oops,b,0,0\n", encoding="utf-8"
    )
    with pytest.raises(LoadError, match="line 3"):
        load_csv(path)


def test_load_csv_repeated_header_column(tmp_path):
    """A repeated feature column would otherwise shadow the first one."""
    path = tmp_path / "data.csv"
    path.write_text(
        "id,f0,f0,group,label,pred\np0,0.0,9.0,a,1,1\np1,1.0,8.0,b,0,0\n", encoding="utf-8"
    )
    with pytest.raises(LoadError, match="^line 1: column 'f0' repeats in the header$"):
        load_csv(path)


def test_load_csv_row_wider_than_the_header(tmp_path):
    path = tmp_path / "data.csv"
    write_lines(path, [CSV_HEADER, "p0,0.0,1.0,a,1,1", "p1,1.0,1.0,b,0,0,x,y", "p2,2,1,a,1,1"])
    with pytest.raises(LoadError, match="^line 3: row has 8 cells, but the header has 6$"):
        load_csv(path)


def test_load_csv_row_narrower_than_the_header(tmp_path):
    """A row short of its trailing score cell would otherwise load as scoreless."""
    path = tmp_path / "data.csv"
    lines = [CSV_HEADER + ",score", "p0,0.0,1.0,a,1,1,0.5", "p1,1.0,1.0,b,0,0", "p2,2,1,a,1,1,0.5"]
    write_lines(path, lines)
    with pytest.raises(LoadError, match="^line 3: row has 6 cells, but the header has 7$"):
        load_csv(path)


def test_load_csv_feature_index_named_twice(tmp_path):
    """``f01`` would otherwise shadow ``f1`` and leave the dimension short."""
    path = tmp_path / "data.csv"
    write_lines(path, ["id,f0,f1,f01,group,label,pred", "r1,1.0,2.0,100.0,a,1,1"])
    with pytest.raises(
        LoadError, match="^line 1: columns 'f1' and 'f01' both name feature 1$"
    ):
        load_csv(path)


@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
def test_invalid_utf8_names_its_line(tmp_path, suffix):
    """A byte that is not UTF-8 is named with its line, in both formats."""
    if suffix == ".jsonl":
        lines = [jsonl_line(i, text="cafe") for i in range(4)]
    else:
        lines = [CSV_HEADER + ",text"] + [f"p{i},{i}.0,1.0,{'ab'[i % 2]},1,1,cafe" for i in range(4)]
    lines[2] = lines[2].replace("cafe", "caf\N{LATIN SMALL LETTER E WITH ACUTE}")
    data = ("\n".join(lines) + "\n").encode("utf-8")
    path = tmp_path / f"data{suffix}"
    path.write_bytes(data.replace(b"\xc3\xa9", b"\xff"))
    with pytest.raises(LoadError, match="^line 3: byte 0xff is not valid UTF-8$") as err:
        load_dataset(path, suffix[1:])
    assert err.value.line == 3


# ----------------------------------------------- the JSONL load in two halves

def load_outcome(load, path):
    """The dataset ``load(path)`` returns, or the type, text and line of
    the error it raises."""
    try:
        return load(path)
    except (LoadError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def assert_same_outcome(path):
    split, serial = load_outcome(load_jsonl, path), load_outcome(serial_load_jsonl, path)
    if isinstance(serial, tuple):
        assert split == serial
    else:
        assert_same_dataset(split, serial)
    return split


# Raw in a JSON string (json.dumps escapes the control characters): U+2028
# and NEL, which str.splitlines splits on and universal newlines do not.
_VALUE_CHARS = "ab \t\f\x1c \x85\r\n\"\\\N{LATIN SMALL LETTER E WITH ACUTE}"
# Lines that hold only whitespace, \f and \x1c among it, raw.
_BLANK_LINES = ["", " ", "\t", "\f", "\x1c", "  ", "\x1c\f "]


@st.composite
def jsonl_files(draw):
    """(file text, rows): 1-40 valid rows in two groups, one line each with
    LF, CRLF or lone-CR endings, blank and whitespace-only lines between
    them, and a final line ending or none."""
    n = draw(st.integers(1, 40))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    rows = []
    for i in range(n):
        row = {
            "id": f"r{i}",
            "features": [draw(finite), draw(st.integers(-5, 5))],
            "group": "a" if i % 2 == 0 else "b ",
            "label": draw(st.integers(0, 1)),
            "pred": draw(st.integers(0, 1)),
        }
        if draw(st.booleans()):
            row["score"] = draw(st.floats(0.0, 1.0))
        if draw(st.booleans()):
            row["text"] = draw(st.text(alphabet=_VALUE_CHARS, max_size=8))
        rows.append(row)
    ending = st.sampled_from(["\n", "\r\n", "\r"])
    parts = []
    for row in rows:
        for blank in draw(st.lists(st.sampled_from(_BLANK_LINES), max_size=2)):
            parts.append(blank + draw(ending))
        parts.append(json.dumps(row, ensure_ascii=False) + draw(ending))
    text = "".join(parts)
    if not draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text, rows


@settings(max_examples=150, deadline=None)
@given(jsonl_files(), st.sampled_from([1, 2]))
def test_split_load_is_the_serial_load(drawn, cpus):
    """A valid file is cut where ``split_offset`` says, its two halves
    parse without the one-pass fallback, and the load returns exactly what
    one pass over the file returns, which holds the rows as written."""
    text, rows = drawn
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(workers, "usable_cpus", lambda: cpus)
        path = Path(tmp) / "data.jsonl"
        path.write_bytes(text.encode("utf-8"))
        split = split_offset(path)
        event(f"split: {split is not None}")
        parts = []  # the parts this process parses; a child's go unseen
        real = logan.io._parse_part

        def spy(*args):
            parts.append(args)
            return real(*args)

        mp.setattr(logan.io, "_parse_part", spy)
        loaded = assert_same_outcome(path)
        # the first half stops at the split, and one pass runs only unsplit
        heads = [args for args in parts if len(args) == 3]
        assert heads == ([(path, 0, split)] if split else [])
        assert ((path, 0) in parts) == (split is None)
        if len(rows) > 1:
            assert_same_dataset(loaded, build_dataset(rows))
        assert_no_child_left()


def _padded_lines(n, width=100):
    """n valid rows, each padded with spaces to ``width`` bytes with its
    line feed, so a same-width edit keeps the split where it was."""
    return [jsonl_line(i, text="cafe").ljust(width - 1) for i in range(n)]


@pytest.mark.parametrize(
    "defect",
    ["bad row in the head", "bad row in the tail", "id repeated across the halves",
     "new dimension at the first tail row", "non-UTF-8 byte in the tail"],
)
def test_split_load_errors_are_the_serial_errors(tmp_path, monkeypatch, defect):
    """Each half's error, and each conflict between the halves, is raised
    with the text and line of one pass over the file, and leaves no child."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    path = tmp_path / "data.jsonl"
    lines = _padded_lines(40)
    write_lines(path, lines)
    split = split_offset(path)
    first = path.read_bytes()[:split].count(b"\n")  # index of the tail's first line
    assert 10 < first < 30
    width = len(lines[0])
    edits = {
        "bad row in the head": (3, "{not json"),
        "bad row in the tail": (first + 2, "[1, 2]"),
        "id repeated across the halves": (first + 5, jsonl_line(first + 5, id="x1")),
        "new dimension at the first tail row": (first, jsonl_line(first, features=[1.0] * 3)),
        "non-UTF-8 byte in the tail": (first + 1, lines[first + 1].replace("cafe", "caf\x00")),
    }
    index, line = edits[defect]
    lines[index] = line.ljust(width)
    data = ("\n".join(lines) + "\n").encode("utf-8").replace(b"caf\x00", b"caf\xff")
    path.write_bytes(data)
    assert split_offset(path) == split
    outcome = assert_same_outcome(path)
    assert outcome[0] is LoadError and outcome[2] == index + 1
    assert_no_child_left()


def test_head_error_while_the_tail_is_parsed_leaves_no_child(tmp_path, monkeypatch):
    """A bad first line fails the parent's half at once, while the child
    still parses its half; the child is killed and reaped."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    path = tmp_path / "data.jsonl"
    write_lines(path, ["{not json", *(jsonl_line(i, text="cafe " * 20) for i in range(4000))])
    with pytest.raises(LoadError, match=r"^line 1: invalid JSON"):
        load_jsonl(path)
    assert_no_child_left()


def test_only_a_split_regular_file_forks_a_child(tmp_path, monkeypatch):
    """One child parses the tail of a regular file cut in two.  A pipe, a
    file whose first line feed past the middle is its last byte, and a
    load on one usable CPU fork none.  Each load is the one-pass load."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)

    def forks_to_load(path, cpus, expected_path=None):
        monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
        forks.clear()
        loaded = load_jsonl(path)
        assert_same_dataset(loaded, serial_load_jsonl(expected_path or path))
        assert_no_child_left()
        return len(forks)

    split = tmp_path / "split.jsonl"
    write_lines(split, [jsonl_line(i) for i in range(6)])
    assert split_offset(split) is not None
    assert forks_to_load(split, 2) == 1
    assert forks_to_load(split, 1) == 0
    last = tmp_path / "last.jsonl"
    write_lines(last, [jsonl_line(0), jsonl_line(1, text="x" * 500)])
    assert split_offset(last) is None
    assert forks_to_load(last, 2) == 0
    read_end, write_end = os.pipe()
    with open(write_end, "wb") as feed:  # well under a pipe's buffer
        feed.write(split.read_bytes())
    try:
        assert forks_to_load(f"/dev/fd/{read_end}", 2, expected_path=split) == 0
    finally:
        os.close(read_end)


def test_load_csv_score_range(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "id,f0,group,label,pred,score\np0,0.0,a,1,1,0.5\np1,1.0,b,0,0,2.5\n",
        encoding="utf-8",
    )
    with pytest.raises(LoadError, match="score"):
        load_csv(path)


# ----------------------------------------------------------------- pipeline

@pytest.fixture(scope="module")
def planted_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "planted.jsonl"
    write_jsonl(generate(PlantedBiasSpec(n_per_component=80, seed=0)), path)
    return path


def detect_args(input_path, output_path, **extra):
    args = [
        "detect",
        "--input",
        str(input_path),
        "--output",
        str(output_path),
        "--seed",
        "0",
    ]
    for key, value in extra.items():
        args.extend([f"--{key.replace('_', '-')}", str(value)])
    return args


def test_detect_finds_planted_bias(planted_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(detect_args(planted_file, out))
    assert code == 2
    report = AuditReport.load(out)
    assert report.n_biased_clusters() >= 1
    assert report.config["mode"] == "detect"
    assert report.config["chosen_lambda"] in (1.0, 5.0, 10.0, 100.0)
    assert report.comparison is not None
    assert report.global_gaps["accuracy"]["gap"] < 0.02


def test_detect_all_correct_exits_zero(tmp_path):
    path = tmp_path / "clean.jsonl"
    lines = [
        jsonl_line(i, label=i % 2, pred=i % 2, features=[float(i % 10), 1.0])
        for i in range(120)
    ]
    write_lines(path, lines)
    out = tmp_path / "report.json"
    code = main(detect_args(path, out, min_clusters=2, k=4))
    assert code == 0
    report = AuditReport.load(out)
    assert report.n_biased_clusters() == 0
    assert report.random_split["mean"] == 0.0


def test_detect_missing_input_exits_one(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(detect_args(tmp_path / "nope.jsonl", out))
    assert code == 1
    assert not out.exists()
    assert "error" in capsys.readouterr().err


def test_too_deeply_nested_line_is_named(planted_file, tmp_path, capsys):
    """A JSON array nested past the decoder's recursion limit is one more
    invalid line, named like the others."""
    lines = planted_file.read_text(encoding="utf-8").splitlines()
    path = tmp_path / "deep.jsonl"
    write_lines(path, [*lines[:5], "[" * 100_000, *lines[5:]])
    out = tmp_path / "report.json"
    assert main(detect_args(path, out)) == 1
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: line 6: invalid JSON (")


@pytest.mark.parametrize(
    "flag, value", [("lambdas", "nan"), ("lambdas", "inf"), ("bias_threshold", "nan")]
)
def test_detect_non_finite_flag_exits_one(planted_file, tmp_path, capsys, flag, value):
    out = tmp_path / "report.json"
    code = main(detect_args(planted_file, out, **{flag: value}))
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_every_config_field_is_a_cli_flag():
    """Every flag of ``detect`` set away from its default moves every
    config field away from its default, so no field is a knob that no
    flag reaches."""
    required = ["detect", "--input", "in.csv", "--output", "out.json"]
    flags = (
        "--format csv --k 7 --lambdas 2,3 --seed 3 --bias-threshold 0.1 --min-per-group 5 "
        "--min-cluster-total 6 --min-clusters 4 --max-iter 9 --standardize --metrics auc "
        "--plot-data plot.csv"
    ).split()
    parser = build_parser()
    defaults = vars(parser.parse_args(required))
    args = parser.parse_args([*required, *flags])
    for name, value in vars(args).items():
        if name not in ("command", "input", "output"):
            assert value != defaults[name], name
    cfg = _from_args(LoganConfig, args)
    for field in dataclasses.fields(LoganConfig):
        assert getattr(cfg, field.name) != field.default, field.name


def test_every_synth_spec_field_is_a_cli_flag():
    """The ``synth`` mirror of the test above, for ``PlantedBiasSpec``."""
    required = ["synth", "--preset", "planted-bias", "--output", "out.jsonl"]
    flags = (
        "--components 4 --n-per-component 300 --dim 3 --separation 6 --planted-component 1 "
        "--planted-gap 0.25 --background-acc 0.8 --group-balance 0.4 --seed 7"
    ).split()
    parser = build_parser()
    defaults = vars(parser.parse_args(required))
    args = parser.parse_args([*required, *flags])
    for name, value in vars(args).items():
        if name not in ("command", "preset", "output"):
            assert value != defaults[name], name
    spec = _from_args(PlantedBiasSpec, args)
    for field in dataclasses.fields(PlantedBiasSpec):
        assert getattr(spec, field.name) != field.default, field.name


@pytest.mark.parametrize(
    "argv, cls",
    [
        (["detect", "--input", "in.jsonl", "--output", "out.json"], LoganConfig),
        (["baseline", "--input", "in.jsonl", "--output", "out.json"], LoganConfig),
        (["synth", "--preset", "planted-bias", "--output", "out.jsonl"], PlantedBiasSpec),
    ],
)
def test_parsed_defaults_rebuild_the_default_dataclass(argv, cls):
    # repr, not ==, so that an int where the default is a float shows too
    assert repr(_from_args(cls, build_parser().parse_args(argv))) == repr(cls())


@pytest.mark.parametrize(
    "grid, message",
    [
        ("-1", "lam must be finite and >= 0, got -1.0"),
        ("nan", "lam must be finite and >= 0, got nan"),
        ("1,inf", "lam must be finite and >= 0, got inf"),
        (",", "lambda grid must be nonempty"),
    ],
)
def test_invalid_lambda_grid_fails_before_the_input_is_read(tmp_path, capsys, grid, message):
    out = tmp_path / "report.json"
    argv = ["detect", "--input", str(tmp_path / "missing.jsonl"), "--output", str(out)]
    assert main([*argv, f"--lambdas={grid}"]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["detect", "baseline", "random-split", "synth"])
def test_negative_seed_is_named(planted_file, tmp_path, capsys, command):
    out = tmp_path / "out"
    args = {
        "detect": ["detect", "--input", str(planted_file), "--output", str(out)],
        "baseline": ["baseline", "--input", str(planted_file), "--output", str(out)],
        "random-split": ["random-split", "--input", str(planted_file)],
        "synth": ["synth", "--preset", "planted-bias", "--output", str(out)],
    }[command]
    assert main([*args, "--seed", "-1"]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


def test_usage_error_exits_one_and_help_zero(planted_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(detect_args(planted_file, tmp_path / "report.json") + ["--bogus"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["detect", "--help"])
    assert exc.value.code == 0


def test_baseline_mode(planted_file, tmp_path):
    out = tmp_path / "baseline.json"
    code = main(
        [
            "baseline",
            "--input",
            str(planted_file),
            "--output",
            str(out),
            "--seed",
            "0",
        ]
    )
    assert code in (0, 2)
    report = AuditReport.load(out)
    assert report.config["mode"] == "baseline"
    assert report.config["chosen_lambda"] is None
    assert report.comparison is None


def test_detect_deterministic_outputs(planted_file, tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(detect_args(planted_file, out_a)) == main(
        detect_args(planted_file, out_b)
    )

    def strip_timestamp(path):
        data = json.loads(path.read_text())
        data["provenance"].pop("created_at")
        return json.dumps(data, indent=2)

    assert strip_timestamp(out_a) == strip_timestamp(out_b)


def test_report_json_round_trip(planted_file, tmp_path):
    out = tmp_path / "report.json"
    main(detect_args(planted_file, out))
    text = out.read_text(encoding="utf-8")
    assert AuditReport.from_json(text).to_json() == text


def test_detect_with_all_metrics(planted_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(detect_args(planted_file, out, metrics="accuracy,auc,fpr"))
    assert code == 2
    report = AuditReport.load(out)
    assert set(report.global_gaps) == {"accuracy", "auc", "fpr"}
    for cluster in report.clusters:
        assert set(cluster["gap"]) == {"accuracy", "auc", "fpr"}


def test_unknown_metric_is_an_error(planted_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(detect_args(planted_file, out, metrics="accuracy,f1"))
    assert code == 1
    assert "unknown metric" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["detect", "baseline"])
def test_auc_without_a_score_fails_before_any_fit(tmp_path, capsys, monkeypatch, command):
    """The first scoreless row in file order is named (x7, group b, before
    x10 of group a), and no clustering starts."""
    lines = [
        jsonl_line(i, **({} if i in (7, 10) else {"score": 0.25 + 0.5 * (i % 2)}))
        for i in range(40)
    ]
    path = tmp_path / "data.jsonl"
    write_lines(path, lines)
    calls = []

    def no_fit(*args, **kwargs):
        calls.append(args)
        raise RuntimeError("a fit ran")

    monkeypatch.setattr(logan.clustering, "kmeanspp_init", no_fit)
    monkeypatch.setattr(logan.cli, "grid_search", no_fit)
    out = tmp_path / "report.json"
    code = main([command, "--input", str(path), "--output", str(out), "--metrics", "auc"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: AUC requires a score on every instance; missing for 'x7'\n"
    )
    assert calls == []
    assert not out.exists()


# ---------------------------------------------------------------- plot data

def test_emit_plot_data_rows_and_round_trip(planted_file, tmp_path):
    out = tmp_path / "report.json"
    plot = tmp_path / "plot.csv"
    main(detect_args(planted_file, out) + ["--plot-data", str(plot)])
    report = AuditReport.load(out)
    with open(plot, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * len(report.clusters)
    ids = [int(r["cluster_id"]) for r in rows]
    assert ids == sorted(ids)
    by_cluster = {c["cluster_id"]: c for c in report.clusters}
    for row in rows:
        cluster = by_cluster[int(row["cluster_id"])]
        side = "perf_group1" if row["group"] == report.config["groups"][0] else "perf_group2"
        expected = cluster[side]["accuracy"]
        if row["accuracy"] == "":
            assert expected is None
        else:
            assert float(row["accuracy"]) == expected
        assert row["biased"] == ("true" if cluster["biased"] else "false")


def test_emit_plot_data_requires_clusters():
    report = AuditReport(
        config={"groups": ["a", "b"]},
        global_gaps={},
        random_split={},
        clusters=[],
        comparison=None,
        provenance={},
    )
    with pytest.raises(ValueError, match="clusters"):
        emit_plot_data(report, "/tmp/unused.csv")


# -------------------------------------------------------------- subcommands

def test_synth_subcommand_round_trip(tmp_path, capsys):
    out = tmp_path / "synth.jsonl"
    code = main(
        [
            "synth",
            "--preset",
            "planted-bias",
            "--n-per-component",
            "30",
            "--seed",
            "7",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    assert "150 instances" in capsys.readouterr().out
    assert load_jsonl(out).n == 150


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "flag, field", [("background-acc", "background_acc"), ("separation", "component_separation")]
)
def test_synth_non_finite_flag_is_named(tmp_path, capsys, flag, field, value):
    out = tmp_path / "synth.jsonl"
    args = ["synth", "--preset", "planted-bias", f"--{flag}", value, "--output", str(out)]
    assert main(args) == 1
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {field} must be finite"), err


def test_random_split_subcommand(planted_file, capsys):
    code = main(
        ["random-split", "--input", str(planted_file), "--runs", "5", "--seed", "3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "mean=" in out and "std=" in out


def test_random_split_defaults_have_one_owner(planted_file, capsys):
    """``random-split`` without ``--runs`` and ``--seed``, and the report's
    noise baseline at seed 0, both give what ``random_split_baseline``
    gives at its own defaults."""
    mean, std = random_split_baseline(load_dataset(planted_file), MetricKind.ACCURACY)
    assert main(["random-split", "--input", str(planted_file)]) == 0
    assert capsys.readouterr().out == (
        f"random-split gap (accuracy, 5 runs): mean={mean:.6f} std={std:.6f}\n"
    )
    report = run_detect(planted_file, LoganConfig(seed=0), None, None)
    assert report.random_split == {"metric": "accuracy", "runs": 5, "mean": mean, "std": std}


def test_random_split_auc_names_the_first_scoreless_row(tmp_path, capsys):
    """``random-split --metric auc`` names the first row without a score in
    file order, the row ``baseline --metrics auc`` names, not the first one
    that a permutation reaches."""
    lines = [
        jsonl_line(i, **({} if i in (3, 90) else {"score": 0.25 + 0.5 * (i % 2)}))
        for i in range(100)
    ]
    path = tmp_path / "data.jsonl"
    write_lines(path, lines)
    expected = "error: AUC requires a score on every instance; missing for 'x3'\n"
    for seed in range(3):
        code = main(["random-split", "--input", str(path), "--metric", "auc",
                     "--seed", str(seed)])
        assert code == 1
        assert capsys.readouterr().err == expected
    out = tmp_path / "report.json"
    assert main(["baseline", "--input", str(path), "--output", str(out), "--metrics", "auc"]) == 1
    assert capsys.readouterr().err == expected


def test_run_detect_library_entry(planted_file, tmp_path):
    cfg = LoganConfig(seed=0)
    report = run_detect(planted_file, cfg, [1.0, 10.0], tmp_path / "r.json")
    assert report.config["lambdas"] == [1.0, 10.0]
    assert (tmp_path / "r.json").exists()


def test_run_detect_echoes_the_checked_grid(planted_file, tmp_path):
    """A numpy int grid is echoed as the floats that were fitted."""
    report = run_detect(planted_file, LoganConfig(seed=0), np.array([1, 5]), tmp_path / "r.json")
    assert report.config["lambdas"] == [1.0, 5.0]
    assert all(type(lam) is float for lam in report.config["lambdas"])
    assert AuditReport.load(tmp_path / "r.json") == report


def field_names(cls):
    return [f.name for f in dataclasses.fields(cls)]


def test_report_keys_are_the_dataclass_fields(planted_file, tmp_path):
    out = tmp_path / "report.json"
    main(detect_args(planted_file, out, metrics="accuracy,auc,fpr"))
    report = json.loads(out.read_text(encoding="utf-8"))
    cluster_fields = [name for name in field_names(ClusterReport) if name != "top_tokens"]
    assert report["clusters"]
    for cluster in report["clusters"]:
        assert list(cluster) == cluster_fields
    assert list(report["comparison"]) == field_names(ComparisonReport)
    assert list(report["global_gaps"]) == ["accuracy", "auc", "fpr"]
    for gap in report["global_gaps"].values():
        assert list(gap) == field_names(GapResult)


class Colour(enum.Enum):
    RED = "red"


@dataclasses.dataclass
class Sample:
    by_colour: dict
    pair: tuple
    ratio: float
    required: object
    optional: object = None
    present: object = None


def test_to_plain_converts_a_dataclass():
    sample = Sample(
        by_colour={Colour.RED: math.nan},
        pair=(1, Colour.RED),
        ratio=math.nan,
        required=None,
        present=(0.5,),
    )
    assert to_plain(sample) == {
        "by_colour": {"red": None},
        "pair": [1, "red"],
        "ratio": None,
        "required": None,
        "present": [0.5],
    }
    assert list(to_plain(sample)) == ["by_colour", "pair", "ratio", "required", "present"]


def test_detect_emits_top_tokens_when_text_present(tmp_path):
    path = tmp_path / "texty.jsonl"
    words = ["apple banana", "carrot dill", "eggplant fig", "grape honey"]
    lines = [
        jsonl_line(i, features=[float(i % 4), 0.0], text=words[i % 4])
        for i in range(80)
    ]
    write_lines(path, lines)
    out = tmp_path / "report.json"
    main(detect_args(path, out, k=4, min_clusters=2))
    report = AuditReport.load(out)
    assert all("top_tokens" in c for c in report.clusters)
    assert all(list(c) == field_names(ClusterReport) for c in report.clusters)
    assert any(c["top_tokens"] for c in report.clusters)


def test_detect_emits_no_top_tokens_when_a_row_lacks_text(tmp_path):
    path = tmp_path / "texty.jsonl"
    words = ["apple banana", "carrot dill", "eggplant fig", "grape honey"]
    lines = [
        jsonl_line(i, features=[float(i % 4), 0.0], text=words[i % 4])
        for i in range(79)
    ]
    lines.append(jsonl_line(79, features=[3.0, 0.0]))
    write_lines(path, lines)
    out = tmp_path / "report.json"
    main(detect_args(path, out, k=4, min_clusters=2))
    report = AuditReport.load(out)
    assert report.clusters
    assert not any("top_tokens" in c for c in report.clusters)


def _text_rows(n=240, seed=3):
    """Three blobs whose texts favour blob-specific words, with scores."""
    rng = np.random.default_rng(seed)
    blob = np.arange(n) % 3
    features = np.stack([blob * 6.0, blob * -2.0], axis=1) + rng.standard_normal((n, 2))
    labels = rng.integers(0, 2, size=n)
    preds = np.where(rng.random(n) < 0.8, labels, 1 - labels)
    scores = np.where(preds == 1, 0.5, 0.0) + 0.5 * rng.random(n)
    shared = ["the", "a", "model", "case", "item", "note"]
    topics = [["red", "ruby"], ["green", "jade"], ["blue", "navy"]]
    for i in range(n):
        words = [
            topics[blob[i]][rng.integers(2)] if rng.random() < 0.4 else shared[rng.integers(6)]
            for _ in range(8)
        ]
        yield {
            "id": f"t{i:04d}",
            "features": features[i].tolist(),
            "group": "a" if rng.random() < 0.5 else "b",
            "label": int(labels[i]),
            "pred": int(preds[i]),
            "score": float(scores[i]),
            "text": " ".join(words),
        }


# sha256 of each report without provenance.created_at and provenance.input.
# A change that alters report bytes on purpose updates these and says why in
# CHANGES.md.
PINNED_REPORTS = {
    "detect": "b4afb08f00d5de450c49fea1f6b746d85bde20e0e2bea605924dc9268382b0c3",
    "baseline": "d321265830789d9b870b8d1ee520e300c6d1f1935bd07ffa62731d602ad3b6e8",
    "detect-text": "062c6733304ec1d27676cfb634b4181039d25a582f934b7afa0ed4d2a7e42bfa",
    # d = 16, where numpy's pairwise sums and _sq_dists' left-to-right ones
    # can differ
    "detect-16d": "b35f22d5b3b7b29fb6a7027598b64c44946402b663c1ac6ec06db85aec8287a6",
}


def _pinned_report_sha256(tmp_path, mode):
    """Audit the input of ``mode`` and hash its report as PINNED_REPORTS
    does."""
    path = tmp_path / "input.jsonl"
    if mode in ("detect", "detect-16d"):
        dim = 16 if mode == "detect-16d" else 2
        write_jsonl(generate(PlantedBiasSpec(n_per_component=80, dim=dim, seed=0)), path)
        args = ["detect"]
    else:
        write_lines(path, [json.dumps(row) for row in _text_rows()])
        command = "detect" if mode == "detect-text" else "baseline"
        args = [command, "--standardize", "--metrics", "accuracy,auc,fpr"]
    out = tmp_path / "report.json"
    assert main([*args, "--input", str(path), "--output", str(out)]) in (0, 2)
    report = json.loads(out.read_text(encoding="utf-8"))
    del report["provenance"]["created_at"], report["provenance"]["input"]
    text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("mode", sorted(PINNED_REPORTS))
def test_report_bytes_pinned(tmp_path, mode):
    assert _pinned_report_sha256(tmp_path, mode) == PINNED_REPORTS[mode]


@pytest.mark.parametrize("mode", ["detect", "baseline"])
def test_audits_compute_no_objective_trace(tmp_path, monkeypatch, mode):
    """An audit reads no objective trace, so replaying a fit's log may
    fail (in the forked grid workers too) with the report unchanged."""

    def refuse(log, dataset):
        raise AssertionError("an audit replayed a fit log")

    monkeypatch.setattr(FitLog, "replay", refuse)
    assert _pinned_report_sha256(tmp_path, mode) == PINNED_REPORTS[mode]


def test_detect_standardize_flag(planted_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(detect_args(planted_file, out) + ["--standardize"])
    assert code in (0, 2)
    assert AuditReport.load(out).config["standardize"] is True


def test_module_invocation_smoke(planted_file, tmp_path):
    out = tmp_path / "report.json"
    src = str(Path(logan.__file__).resolve().parents[1])
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "logan",
            "detect",
            "--input",
            str(planted_file),
            "--output",
            str(out),
        ],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode in (0, 2)
    assert out.exists()


def test_module_exit_prints_the_summary_to_a_piped_stdout(planted_file, tmp_path):
    """``python -m logan`` exits through ``entrypoint``, which freezes the
    heap before exit: the summary line still reaches a pipe, and the report
    is the one ``main`` writes in process, which leaves the heap unfrozen."""
    src = str(Path(logan.__file__).resolve().parents[1])
    piped_out = tmp_path / "piped.json"
    proc = subprocess.run(
        [sys.executable, "-m", "logan", *detect_args(planted_file, piped_out)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    frozen = gc.get_freeze_count()
    in_process_out = tmp_path / "in-process.json"
    code = main(detect_args(planted_file, in_process_out))
    assert gc.get_freeze_count() == frozen
    assert proc.returncode == code == 2
    report = AuditReport.load(piped_out)
    assert proc.stdout == (
        f"audited {planted_file}: {len(report.clusters)} clusters, "
        f"{report.n_biased_clusters()} biased (report: {piped_out})\n"
    )

    def without_created_at(path):
        report = json.loads(path.read_text(encoding="utf-8"))
        del report["provenance"]["created_at"]
        return report

    assert without_created_at(piped_out) == without_created_at(in_process_out)


def test_piped_input_audits_alike_with_a_null_hash(planted_file, tmp_path):
    """A piped input, which the load drains, gives the file's exit code
    and clusters and a null hash; a file redirected to stdin is a regular
    file and keeps the file's hash."""
    src = str(Path(logan.__file__).resolve().parents[1])

    def detect(name, input_path, **stdin):
        out = tmp_path / f"{name}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "logan", *detect_args(input_path, out)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            **stdin,
        )
        return proc.returncode, json.loads(out.read_text(encoding="utf-8"))

    code, report = detect("file", planted_file)
    with open(planted_file, "rb") as fh:
        redirected = detect("redirected", "/dev/stdin", stdin=fh)
    piped = detect("piped", "/dev/stdin", input=planted_file.read_bytes())
    digest = hashlib.sha256(planted_file.read_bytes()).hexdigest()
    assert code == 2
    assert report["provenance"]["input_sha256"] == digest
    assert redirected[1]["provenance"]["input_sha256"] == digest
    assert piped[1]["provenance"]["input_sha256"] is None
    for other_code, other in (redirected, piped):
        assert other_code == code
        assert other["clusters"] == report["clusters"]


@pytest.mark.parametrize("digits", [401, 5000])
@pytest.mark.parametrize("field", ["features", "score"])
def test_huge_json_integer_is_a_line_error(tmp_path, capsys, field, digits):
    huge = "9" * digits
    bad = jsonl_line(1, **{field: [0.5, 0.5] if field == "features" else 0.5})
    bad = bad.replace("0.5", huge, 1)
    path = tmp_path / "data.jsonl"
    write_lines(path, [jsonl_line(0), bad, jsonl_line(2)])
    out = tmp_path / "report.json"
    code = main(["baseline", "--input", str(path), "--output", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("standardize", [False, True])
def test_overflowing_features_exit_one_without_warnings(tmp_path, standardize):
    rng = np.random.default_rng(0)
    lines = [
        jsonl_line(i, features=[float(rng.standard_normal() * 1e160), float(rng.standard_normal())])
        for i in range(200)
    ]
    path = tmp_path / "data.jsonl"
    write_lines(path, lines)
    out = tmp_path / "report.json"
    args = ["baseline", "--input", str(path), "--output", str(out)]
    src = str(Path(logan.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "logan", *args, *(["--standardize"] if standardize else [])],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "float64; rescale the features" in proc.stderr
    assert "Warning" not in proc.stderr
    assert not out.exists()


def test_import_leaves_scipy_unloaded():
    src = str(Path(logan.__file__).resolve().parents[1])
    probe = "import logan, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"


_POOL_PROBE = """
import json, sys
import logan
from logan import cli, workers

def pools():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("multiprocessing", "concurrent"))

seen = {"import": pools()}
workers.usable_cpus = lambda: 2
for command in ("detect", "baseline"):
    code = cli.main([command, "--input", sys.argv[1], "--output", sys.argv[2]])
    seen[command] = [code, pools()]
print(json.dumps(seen))
"""


def test_import_leaves_process_pools_unloaded(tmp_path):
    """Neither importing logan nor a two-worker detect or a baseline audit
    of a text input imports a process pool."""
    path = tmp_path / "texts.jsonl"
    write_lines(path, [json.dumps(row) for row in _text_rows()])
    src = str(Path(logan.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _POOL_PROBE, str(path), str(tmp_path / "report.json")],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["import"] == []
    for command in ("detect", "baseline"):
        code, loaded = seen[command]
        assert code in (0, 2)
        assert loaded == []


_NUMPY_MA_PROBE = """
import sys
from logan import cli
code = cli.main(["baseline", "--standardize", "--metrics", "accuracy,auc,fpr",
                 "--input", sys.argv[1], "--output", sys.argv[2]])
print(code, "numpy.ma" in sys.modules)
"""


def test_text_audit_leaves_numpy_ma_unloaded(tmp_path):
    """A baseline audit whose every row has text imports no masked arrays
    (``np.unique`` would, through its masked-array check)."""
    path = tmp_path / "texts.jsonl"
    write_lines(path, [json.dumps(row) for row in _text_rows()])
    src = str(Path(logan.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_MA_PROBE, str(path), str(tmp_path / "report.json")],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    code, loaded = proc.stdout.split()[-2:]
    assert code in ("0", "2")
    assert loaded == "False"


# ------------------------------------------------------- CLI fuzz (bounded)

_FUZZ_FLAGS = {
    "--k": ["1", "2", "3", "5", "0", "-1", "x", "99"],
    "--lambdas": ["1", "0", "0,5,100", "nan", "inf", "-1", "1,x", ",", "1e308"],
    "--seed": ["0", "3", "-2", "x"],
    "--bias-threshold": ["0", "0.05", "1", "-0.1", "nan", "inf", "x"],
    "--min-per-group": ["0", "1", "2", "-1"],
    "--min-cluster-total": ["0", "3", "50", "-1"],
    "--min-clusters": ["1", "2", "0", "x"],
    "--max-iter": ["1", "3", "0"],
    "--metrics": ["accuracy", "auc,fpr", "accuracy,auc,fpr", "bogus", ""],
}

_ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.floats(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)


def _fuzz_rows(n=32):
    """Rows on which group "a" is right about half as often as group "b"."""
    rng = np.random.default_rng(5)
    for i in range(n):
        label = int(rng.integers(2))
        group = "a" if i % 2 else "b"
        right = rng.random() < (0.5 if group == "a" else 0.95)
        yield {
            "id": f"z{i}",
            "features": [float(i % 4), float(rng.normal())],
            "group": group,
            "label": label,
            "pred": label if right else 1 - label,
            "score": float(rng.random()),
        }


@st.composite
def fuzz_inputs(draw):
    """Input lines with at most one line corrupted: a field set to an odd
    value or removed, or the whole line replaced by arbitrary text."""
    fmt = draw(st.sampled_from(["jsonl", "csv"]))
    rows = list(_fuzz_rows())
    at = draw(st.integers(0, len(rows) - 1))
    how = draw(st.sampled_from(["none", "value", "drop", "text"]))
    field = draw(st.sampled_from(["id", "features", "group", "label", "pred", "score"]))
    if how == "value":
        rows[at][field] = draw(_ODD_VALUES)
    elif how == "drop":
        del rows[at][field]
    if fmt == "jsonl":
        lines = [json.dumps(row) for row in rows]
    else:
        lines = ["id,f0,f1,group,label,pred,score"]
        for row in rows:
            feats = row.get("features", [])
            cells = [row.get("id", ""), *(feats if isinstance(feats, list) else [feats])]
            cells += [row.get(key, "") for key in ("group", "label", "pred", "score")]
            lines.append(",".join(map(str, cells)))
    if how == "text":
        lines[at + (fmt == "csv")] = draw(st.text(max_size=30))
    return fmt, lines


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    st.sampled_from(["detect", "baseline"]),
    fuzz_inputs(),
    st.lists(
        st.sampled_from([f"{flag}={v}" for flag, vals in _FUZZ_FLAGS.items() for v in vals]),
        max_size=4,
    ),
    st.booleans(),
)
def test_cli_fuzz_exit_codes_and_reports(command, inputs, flags, standardize):
    fmt, lines = inputs
    if command == "baseline":
        flags = [flag for flag in flags if not flag.startswith("--lambdas=")]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"input.{fmt}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = Path(tmp) / "report.json"
        # small thresholds so that bias can be found; fuzzed flags override
        argv = [command, "--input", str(path), "--format", fmt, "--output", str(out),
                "--min-per-group=3", "--min-cluster-total=6", "--k=4", "--min-clusters=2",
                *flags]
        if standardize:
            argv.append("--standardize")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: usage error
                code = exc.code
        event(f"exit {code}")
        assert code in (0, 1, 2)
        assert "Traceback" not in stderr.getvalue()
        if code == 1:
            assert stderr.getvalue()
        if out.exists():
            report = _strict_json(out.read_text(encoding="utf-8"))
            biased = any(cluster["biased"] for cluster in report["clusters"])
            assert (code == 2) == biased
        else:
            assert code == 1
