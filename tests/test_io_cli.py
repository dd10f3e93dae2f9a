import csv
import json
import subprocess
import sys

import pytest

from logan.cli import main, run_detect
from logan.data import LoganConfig
from logan.io import (
    AuditReport,
    LoadError,
    emit_plot_data,
    load_csv,
    load_jsonl,
    write_jsonl,
)
from logan.synthetic import PlantedBiasSpec, generate


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
    assert load_jsonl(path) == d


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
    assert load_jsonl(out) == d
    assert d.instances[0].text == "hello there"
    assert d.instances[1].score is None


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
    assert d.instances[0].features == (0.25, 1.5)
    assert d.instances[0].text == "hello, quoted"
    assert d.instances[1].text is None
    assert d.instances[1].score == 0.2


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


def test_random_split_subcommand(planted_file, capsys):
    code = main(
        ["random-split", "--input", str(planted_file), "--runs", "5", "--seed", "3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "mean=" in out and "std=" in out


def test_run_detect_library_entry(planted_file, tmp_path):
    cfg = LoganConfig(seed=0)
    report = run_detect(planted_file, cfg, [1.0, 10.0], tmp_path / "r.json")
    assert report.config["lambdas"] == [1.0, 10.0]
    assert (tmp_path / "r.json").exists()


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
    assert any(c["top_tokens"] for c in report.clusters)


def test_detect_standardize_flag(planted_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(detect_args(planted_file, out) + ["--standardize"])
    assert code in (0, 2)
    assert AuditReport.load(out).config["standardize"] is True


def test_module_invocation_smoke(planted_file, tmp_path):
    out = tmp_path / "report.json"
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
        capture_output=True,
        text=True,
    )
    assert proc.returncode in (0, 2)
    assert out.exists()
