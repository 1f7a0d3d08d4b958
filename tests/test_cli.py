import contextlib
import csv
import gc
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kinex
import kinex.cli
from kinex import ParseError, SweepCell
from kinex.cli import load_config, main, read_sweep_table

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"

SMALL_SIM = {
    "simulate": {"n_agents": 120, "t_max": 3000, "seed": 11},
    "output": {"dir": "simout"},
}
SMALL_SWEEP = {
    "sweep": {"lambda_values": [0.2, 1.0], "gamma_values": [0.5, 1.0],
              "n_agents": 80, "t_max": 1500, "replicates": 2, "base_seed": 4},
    "output": {"dir": "sweepout"},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(args)


def read_rows(path):
    lines = [l for l in Path(path).read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


@pytest.fixture(scope="module")
def simout(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sim")
    cfg = write_config(tmp, SMALL_SIM)
    assert run_cli(["simulate", "--config", cfg, "--out", str(tmp / "simout")]) == 0
    return tmp / "simout"


@pytest.fixture(scope="module")
def sweep_table(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    cfg = write_config(tmp, SMALL_SWEEP)
    out = tmp / "sweepout"
    assert run_cli(["sweep", "--config", cfg, "--out", str(out)]) == 0
    return out / "sweep.csv"


class TestSimulate:
    def test_expected_files_exist(self, simout):
        assert (simout / "resolved_config.json").exists()
        assert (simout / "gini_series.csv").exists()
        assert (simout / "gamma_fits.csv").exists()
        assert (simout / "summary.json").exists()
        assert (simout / "snapshots" / "3000.csv").exists()
        assert (simout / "histogram_3000.csv").exists()

    def test_histogram_counts_partition_agents(self, simout):
        rows = read_rows(simout / "histogram_3000.csv")
        assert sum(int(r["count"]) for r in rows) == 120

    def test_schema_comment_heads_every_csv(self, simout):
        for path in list(simout.glob("*.csv")) + list((simout / "snapshots").glob("*.csv")):
            assert path.read_text().startswith("# kinex-schema v1\n"), path

    def test_resolved_config_echoes_defaults(self, simout):
        cfg = json.loads((simout / "resolved_config.json").read_text())
        assert cfg["simulate"]["saving_rate"] == 0.25  # untouched default
        assert cfg["simulate"]["n_agents"] == 120      # file override
        assert cfg["simulate"]["t1"] == 2970           # derived default
        assert cfg["output"]["dir"].endswith("simout")

    def test_summary_reports_final_metrics(self, simout):
        summary = json.loads((simout / "summary.json").read_text())
        assert 0.0 <= summary["final_gini"] < 1.0
        assert summary["total_exchange"] > 0.0
        assert -1.0 <= summary["kendall_tau"] <= 1.0

    def test_full_saving_reports_zero_flow(self, tmp_path):
        cfg = write_config(tmp_path, {
            "simulate": {"n_agents": 50, "t_max": 500, "saving_rate": 1.0},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert run_cli(["simulate", "--config", cfg]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["total_exchange"] == 0.0

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SIM)
        assert run_cli(["simulate", "--config", cfg, "--seed", "99",
                        "--out", str(tmp_path / "o")]) == 0
        resolved = json.loads((tmp_path / "o" / "resolved_config.json").read_text())
        assert resolved["simulate"]["seed"] == 99

    def test_runs_on_pure_defaults(self, tmp_path):
        # no config file at all: N=1000, lam=0.25, gam=0.5, t_max=1e5
        out = tmp_path / "defaults"
        assert run_cli(["simulate", "--out", str(out)]) == 0
        rows = read_rows(out / "histogram_100000.csv")
        assert sum(int(r["count"]) for r in rows) == 1000
        assert (out / "snapshots" / "1000.csv").exists()

    # the last case runs without overflowing, but n * sum(assets) overflows gini
    @pytest.mark.parametrize("n_agents, initial_asset, t_max",
                             [(10, 1e304, 200_000), (10, 1e308, 2000), (1000, 1e305, 100)])
    def test_overflowing_run_exits_one_before_any_table(self, tmp_path, capsys, n_agents,
                                                        initial_asset, t_max):
        cfg = write_config(tmp_path, {"simulate": {"n_agents": n_agents, "t_max": t_max,
                                                   "initial_asset": initial_asset}})
        out = tmp_path / "o"
        assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("kinex: ") and "overflow" in line
        assert [p.name for p in out.iterdir()] == ["resolved_config.json"]

    def test_overflowing_moments_leave_gamma_cells_empty(self, tmp_path):
        cfg = write_config(tmp_path, {"simulate": {"n_agents": 10, "t_max": 2000,
                                                   "initial_asset": 1e159}})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert not [w for w in caught if "overflow" in str(w.message)]
        rows = read_rows(tmp_path / "o" / "gamma_fits.csv")
        assert rows and all(r["shape"] == r["scale"] == "" for r in rows)

    def test_zero_surplus_long_run_concentrates(self, tmp_path):
        cfg = write_config(tmp_path, {
            "simulate": {"n_agents": 1000, "saving_rate": 0.4, "surplus_rate": 0.0,
                         "t_max": 1_000_000, "snapshot_times": [1_000_000]},
            "output": {"dir": str(tmp_path / "kk")},
        })
        assert run_cli(["simulate", "--config", cfg]) == 0
        summary = json.loads((tmp_path / "kk" / "summary.json").read_text())
        assert summary["final_gini"] >= 0.9


class TestSweepAndFit:
    def test_grid_cardinality(self, sweep_table):
        rows = read_rows(sweep_table)
        assert len(rows) == 4
        assert [(r["lambda"], r["gamma"]) for r in rows] == \
               [("0.2", "0.5"), ("0.2", "1.0"), ("1.0", "0.5"), ("1.0", "1.0")]

    def test_full_saving_rows_have_zero_flow(self, sweep_table):
        rows = read_rows(sweep_table)
        for row in rows:
            if row["lambda"] == "1.0":
                assert float(row["mean_f"]) == 0.0

    def test_replicates_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SWEEP)
        out = tmp_path / "r1"
        assert run_cli(["sweep", "--config", cfg, "--replicates", "1",
                        "--out", str(out)]) == 0
        rows = read_rows(out / "sweep.csv")
        assert all(r["replicates"] == "1" for r in rows)
        assert all(float(r["std_g"]) == 0.0 for r in rows)

    def test_round_trip_through_reader(self, sweep_table):
        cells = read_sweep_table(sweep_table)
        assert len(cells) == 4
        assert cells[0].saving_rate == 0.2

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_reader_fills_left_out_and_empty_columns(self, tmp_path, suffix):
        # std_g empty, std_f/std_tau/replicates left out; a numeric zero is a value
        columns = ["lambda", "gamma", "mean_g", "mean_f", "mean_tau", "std_g"]
        table = tmp_path / f"t{suffix}"
        if suffix == ".json":
            table.write_text(json.dumps({"columns": columns,
                                         "rows": [[0.2, 0.0, 0.5, 0.4, 0.0, None]]}))
        else:
            table.write_text(",".join(columns) + "\n0.2,0.0,0.5,0.4,0.0,\n")
        assert read_sweep_table(table) == [SweepCell(
            saving_rate=0.2, surplus_rate=0.0, mean_g=0.5, mean_f=0.4, mean_tau=0.0,
            std_g=0.0, std_f=0.0, std_tau=0.0, replicates=1)]

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_reader_skips_byte_order_mark(self, tmp_path, suffix):
        columns = ["lambda", "gamma", "mean_g", "mean_f", "mean_tau"]
        text = (json.dumps({"columns": columns, "rows": [[0.2, 0.5, 0.5, 0.4, 0.1]]})
                if suffix == ".json" else ",".join(columns) + "\n0.2,0.5,0.5,0.4,0.1\n")
        plain, bom = tmp_path / f"plain{suffix}", tmp_path / f"bom{suffix}"
        plain.write_text(text)
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert len(read_sweep_table(plain)) == 1
        assert read_sweep_table(bom) == read_sweep_table(plain)

    def test_reader_skips_indented_comments(self, tmp_path):
        # a first cell starting with '#' after blanks is a comment, as in a country table
        table = tmp_path / "t.csv"
        table.write_text("lambda,gamma,mean_g,mean_f,mean_tau\n  # a note\n0.2,0.5,0.5,0.4,0.1\n")
        assert len(read_sweep_table(table)) == 1

    def test_reader_reports_file_lines_and_repeated_columns(self, tmp_path):
        header = "lambda,gamma,mean_g,mean_f,mean_tau"
        table = tmp_path / "t.csv"
        # schema comment, header, one good row, then a bad value on file line 4
        table.write_text(f"# kinex-schema v1\n{header}\n0.2,0.5,0.5,0.4,0.1\n"
                         "0.4,oops,0.4,0.3,0.2\n")
        with pytest.raises(ParseError) as info:
            read_sweep_table(table)
        assert info.value.line_number == 4
        table.write_text(f"# kinex-schema v1\n{header},lambda\n0.2,0.5,0.5,0.4,0.1,0.3\n")
        with pytest.raises(ParseError, match="repeated column") as info:
            read_sweep_table(table)
        assert info.value.line_number == 2
        # a JSON table counts its column list as line 1 and its rows from 2
        table = tmp_path / "t.json"
        table.write_text(json.dumps({"columns": header.split(","),
                                     "rows": [[0.2, 0.5, 0.5, 0.4, 0.1], [0.4, 0.5, 0.4]]}))
        with pytest.raises(ParseError, match="expected 5 cells, got 3") as info:
            read_sweep_table(table)
        assert info.value.line_number == 3

    def test_fit_on_exact_law_table(self, tmp_path):
        # cells placed exactly on f/g = 0.5*ln((1-lam)*gamma) + 2 and tau = -f
        rows = ["# kinex-schema v1",
                "lambda,gamma,mean_g,std_g,mean_f,std_f,mean_tau,std_tau,replicates"]
        for lam in (0.1, 0.3, 0.5, 0.7):
            for gam in (0.25, 0.5, 1.0):
                f = 0.5 * math.log((1 - lam) * gam) + 2.0
                rows.append(f"{lam},{gam},1.0,0,{f!r},0,{-f!r},0,1")
        table = tmp_path / "table.csv"
        table.write_text("\n".join(rows) + "\n")
        out = tmp_path / "fitout"
        assert run_cli(["fit", "--table", str(table), "--out", str(out)]) == 0
        report = json.loads((out / "fit_report.json").read_text())
        ratio = report["flow_gini_ratio"]
        assert ratio["slope"] == pytest.approx(0.5, rel=1e-9)
        assert ratio["intercept"] == pytest.approx(2.0, rel=1e-9)
        assert ratio["r_squared"] == pytest.approx(1.0, abs=1e-12)
        tau = report["tau_vs_flow"]
        assert tau["slope"] == pytest.approx(-1.0, rel=1e-9)
        assert tau["r_squared"] == pytest.approx(1.0, abs=1e-12)

    def test_fit_reports_excluded_cells(self, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text(
            "lambda,gamma,mean_g,std_g,mean_f,std_f,mean_tau,std_tau,replicates\n"
            "0.2,0.0,0.5,0,0.5,0,0.5,0,1\n"
            "0.2,0.5,0.5,0,0.5,0,0.5,0,1\n"
            "0.4,0.5,0.4,0,0.4,0,0.6,0,1\n")
        out = tmp_path / "fitout"
        assert run_cli(["fit", "--table", str(table), "--out", str(out)]) == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert report["flow_gini_ratio"]["excluded"] == [{"lambda": 0.2, "gamma": 0.0}]
        assert report["flow_gini_ratio"]["n_points"] == 2

    def test_fit_with_too_few_points_fails(self, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text(
            "lambda,gamma,mean_g,std_g,mean_f,std_f,mean_tau,std_tau,replicates\n"
            "0.2,0.0,0.5,0,0.5,0,0.5,0,1\n")
        assert run_cli(["fit", "--table", str(table), "--out", str(tmp_path / "x")]) == 1

    def test_fit_on_identical_flows_fails_with_one_line(self, tmp_path, capsys):
        # every mean_f is 0.1: the tau-vs-flow fit has one x value, which the
        # mean of the three no longer equals exactly
        table = tmp_path / "table.csv"
        table.write_text(
            "lambda,gamma,mean_g,std_g,mean_f,std_f,mean_tau,std_tau,replicates\n"
            "0.2,0.5,0.5,0,0.1,0,0.5,0,1\n"
            "0.4,0.5,0.4,0,0.1,0,0.6,0,1\n"
            "0.6,0.5,0.3,0,0.1,0,0.8,0,1\n")
        out = tmp_path / "fitout"
        assert run_cli(["fit", "--table", str(table), "--out", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "kinex: all x values identical; fit is singular"
        assert not (out / "fit_report.json").exists()

    def test_json_output_format(self, tmp_path):
        payload = dict(SMALL_SWEEP)
        payload["output"] = {"dir": str(tmp_path / "jout"), "format": "json"}
        cfg = write_config(tmp_path, payload)
        assert run_cli(["sweep", "--config", cfg]) == 0
        doc = json.loads((tmp_path / "jout" / "sweep.json").read_text())
        assert doc["columns"][0] == "lambda"
        assert len(doc["rows"]) == 4
        cells = read_sweep_table(tmp_path / "jout" / "sweep.json")
        assert len(cells) == 4


@pytest.mark.parametrize("command, config, module", [("simulate", SMALL_SIM, "kinex.exchange"),
                                                     ("sweep", SMALL_SWEEP, "kinex.sweep")])
def test_failed_run_exits_one_without_traceback(tmp_path, monkeypatch, capsys,
                                                command, config, module):
    def out_of_memory(params):
        raise MemoryError()  # as a run too large to allocate raises it, with no text

    monkeypatch.setattr(f"{module}.run_simulation", out_of_memory)
    cfg = write_config(tmp_path, config)
    assert run_cli([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("kinex: ") and line.endswith("MemoryError")


def test_colliding_replicate_seeds_exit_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("kinex.sweep.replicate_seed", lambda *coordinates: 7)
    out = tmp_path / "o"
    assert run_cli(["sweep", "--config", write_config(tmp_path, SMALL_SWEEP),
                    "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "kinex: replicate seed collision; choose a different base_seed"]
    assert [p.name for p in out.iterdir()] == ["resolved_config.json"]


class TestEmpirical:
    def test_shipped_table_and_percentile_defaults(self, tmp_path, table1_path):
        out = tmp_path / "emp"
        assert run_cli(["empirical", "--data", str(table1_path), "--out", str(out)]) == 0
        rows = read_rows(out / "derived_countries.csv")
        austria = next(r for r in rows if r["country"] == "Austria")
        assert float(austria["x"]) == pytest.approx(0.185, abs=1e-3)
        report = json.loads((out / "group_fits.json").read_text())
        assert "percentiles" in report["thresholds"]["source"]
        assert report["thresholds"]["low"] < report["thresholds"]["high"]
        assert {g["group"] for g in report["groups"]} == {"high", "middle", "low"}
        assert set(report["incomplete_records"]) == {
            "Australia", "Germany", "Israel", "Japan", "Korea, Rep.", "New Zealand"}

    def test_explicit_thresholds_echoed(self, tmp_path, table1_path):
        out = tmp_path / "emp"
        assert run_cli(["empirical", "--data", str(table1_path),
                        "--thresholds", "450,650", "--out", str(out)]) == 0
        report = json.loads((out / "group_fits.json").read_text())
        assert report["thresholds"] == {"low": 450.0, "high": 650.0, "source": "explicit"}
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["empirical"]["thresholds"] == [450.0, 650.0]

    @pytest.mark.parametrize("text", ["a,b", "1", "1,2,3"])
    def test_bad_threshold_flag_exits_two(self, tmp_path, table1_path, text):
        assert run_cli(["empirical", "--data", str(table1_path), "--thresholds", text,
                        "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_only_incomplete_rows_is_a_runtime_failure(self, tmp_path, capsys):
        # no complete record, then complete records whose largest f is 0
        for table, message in [("Japan,393,,0.280,\n", "no complete records to derive from"),
                               ("Japan,0,0.3,0.28,0.5\nItaly,0,0.33,0.2,0.4\n",
                                "maximum f must be positive")]:
            data = tmp_path / "d.csv"
            data.write_text("country,f,g,lambda,gamma\n" + table)
            assert run_cli(["empirical", "--data", str(data), "--out", str(tmp_path / "o")]) == 1
            assert capsys.readouterr().err == f"kinex: {message}\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]

    def test_parse_error_exits_two(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("country,f,g,lambda,gamma\nX,not-a-number,0.3,0.2,0.2\n")
        assert run_cli(["empirical", "--data", str(data), "--out", str(tmp_path / "o")]) == 2
        assert "line 2" in capsys.readouterr().err


class TestConfigHandling:
    def test_unknown_section_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"simulte": {}})
        assert run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"simulate": {"agents": 5}})
        assert run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_invalid_value_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"simulate": {"saving_rate": 1.5}})
        assert run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_bad_output_format_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"output": {"format": "xml", "dir": str(tmp_path / "o")}})
        assert run_cli(["simulate", "--config", cfg]) == 2

    @pytest.mark.parametrize("out", ["X", "X/sub"])
    @pytest.mark.parametrize("command", ["simulate", "sweep", "fit", "empirical"])
    def test_output_dir_on_a_file_exits_two(self, tmp_path, monkeypatch, capsys, table1_path,
                                            command, out):
        # an existing file X as the output directory, or as one of its parents
        inputs = {"X": b"a file, not a directory\n", "sim.json": json.dumps(SMALL_SIM).encode(),
                  "sweep.json": json.dumps(SMALL_SWEEP).encode(),
                  "table.csv": self.INPUTS["table.csv"].encode()}
        for name, data in inputs.items():
            (tmp_path / name).write_bytes(data)
        extra = {"simulate": ["--config", "sim.json"], "sweep": ["--config", "sweep.json"],
                 "fit": ["--table", "table.csv"], "empirical": ["--data", str(table1_path)]}
        monkeypatch.chdir(tmp_path)
        assert run_cli([command, "--out", out, *extra[command]]) == 2
        [message] = capsys.readouterr().err.splitlines()
        assert message == f"kinex: output dir {out!r}: 'X' is not a directory"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs)
        assert (tmp_path / "X").read_bytes() == inputs["X"]

    def test_missing_data_file_rejected(self, tmp_path):
        assert run_cli(["empirical", "--data", str(tmp_path / "nope.csv"),
                        "--out", str(tmp_path / "o")]) == 2

    def test_usage_error_exits_two(self):
        assert run_cli(["fit"]) == 2  # --table is required
        assert run_cli(["no-such-command"]) == 2

    BAD_VALUES = [
        ("simulate", "simulate", "saving_rate", True),
        ("simulate", "simulate", "saving_rate", "a"),
        ("simulate", "simulate", "t1", 50.5),
        ("simulate", "simulate", "bins", 2.5),
        ("simulate", "output", "dir", 5),
        ("sweep", "sweep", "n_agents", 1),
        ("sweep", "sweep", "t1", 50.5),
        ("sweep", "sweep", "replicates", 1.5),
        ("sweep", "sweep", "t_max", "100"),
        ("sweep", "sweep", "lambda_values", ["a"]),
        ("sweep", "sweep", "lambda_values", 0.5),
        ("empirical", "empirical", "thresholds", ["a", "b"]),
    ]

    @pytest.mark.parametrize("command, section, key, value", BAD_VALUES,
                             ids=[f"{c}-{s}.{k}={v!r}" for c, s, k, v in BAD_VALUES])
    def test_bad_config_value_exits_two_cleanly(self, tmp_path, monkeypatch, capsys,
                                                 table1_path, command, section, key, value):
        small = {"simulate": SMALL_SIM["simulate"], "sweep": SMALL_SWEEP["sweep"]}
        config = {command: dict(small.get(command, {}))}
        config.setdefault(section, {})[key] = value
        argv = [command, "--config", write_config(tmp_path, config)]
        if command == "empirical":
            argv += ["--data", str(table1_path)]
        monkeypatch.chdir(tmp_path)
        assert run_cli(argv) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]  # nothing written

    # input files written for every case below; a case may read any of them.
    # The bytes values are Latin-1 text, which is not valid UTF-8.
    INPUTS = {
        "table.csv": "lambda,gamma,mean_g,mean_f,mean_tau\n"
                     "0.2,0.5,0.5,0.4,0.1\n0.4,0.5,0.4,0.3,0.2\n",
        "bad_row.csv": "lambda,gamma,mean_g,mean_f,mean_tau\nx,y\n",
        "sweep.json": json.dumps({"sweep": SMALL_SWEEP["sweep"]}),
        "xml.json": json.dumps({"output": {"format": "xml"}}),
        "empty.json": "{}",
        "not_json.json": "{not json",
        "list_config.json": "[1, 2]",
        "scalar_section.json": json.dumps({"simulate": 5}),
        "scalar_row.json": json.dumps({"columns": ["lambda", "gamma", "mean_g", "mean_f",
                                                   "mean_tau"], "rows": [5]}),
        "latin1_config.json": '{"output": {"dir": "r\xe9sultats"}}'.encode("latin-1"),
        "latin1_data.csv": "country,f,g,lambda,gamma\n"
                           "C\xf4te d'Ivoire,1,0.3,0.2,0.2\n".encode("latin-1"),
        "latin1_table.csv": "# \xe9t\xe9\nlambda,gamma,mean_g,mean_f,mean_tau\n"
                            "0.2,0.5,0.5,0.4,0.1\n".encode("latin-1"),
        "empty.csv": "",
        "no_columns.csv": "foo,bar\n",
        "no_mean_tau.csv": "lambda,gamma,mean_g,mean_f\n",
        "nan_f.csv": "lambda,gamma,mean_g,mean_f,mean_tau\n0.2,0.5,0.5,nan,0.1\n",
        "nan_tau.csv": "lambda,gamma,mean_g,mean_f,mean_tau\n0.2,0.5,0.5,0.4,nan\n",
        "inf_g.csv": "lambda,gamma,mean_g,mean_f,mean_tau\n"
                     "0.2,0.5,inf,0.4,0.1\n0.4,0.5,0.4,0.3,0.2\n0.6,0.5,0.3,0.2,0.3\n",
        **{f"replicates_{name}.json": json.dumps({
            "columns": ["lambda", "gamma", "mean_g", "mean_f", "mean_tau", "replicates"],
            "rows": [[0.2, 0.5, 0.5, 0.4, 0.1, 2], [0.4, 0.5, 0.4, 0.3, 0.2, value]]})
           for name, value in (("fraction", 2.7), ("negative", -3), ("true", True))},
        "true_g.json": json.dumps({"columns": ["lambda", "gamma", "mean_g", "mean_f", "mean_tau"],
                                   "rows": [[0.2, 0.5, True, 0.4, 0.1],
                                            [0.4, 0.5, 0.4, 0.3, 0.2]]}),
        # rows that are not arrays: their characters or keys would read as the nine cells
        "string_row.json": json.dumps({"columns": list(kinex.cli.SWEEP_COLUMNS),
                                       "rows": ["123456781"]}),
        "object_row.json": json.dumps({"columns": list(kinex.cli.SWEEP_COLUMNS),
                                       "rows": [{str(k): k for k in range(1, 10)}]}),
        "bool_thresholds.json": json.dumps({"empirical": {"thresholds": [False, True]}}),
    }
    # bad sweep tables -> the line reported: the header's, or the bad row's
    TABLE_ERROR_LINES = {"empty.csv": 1, "no_columns.csv": 1, "no_mean_tau.csv": 1,
                         "nan_f.csv": 2, "nan_tau.csv": 2, "inf_g.csv": 2,
                         "replicates_fraction.json": 3, "replicates_negative.json": 3,
                         "replicates_true.json": 3, "true_g.json": 2, "string_row.json": 2,
                         "object_row.json": 2}
    BAD_INPUTS = [
        (["empirical", "--thresholds", "650,450"], {}),
        (["empirical", "--thresholds", "400,inf"], {}),
        (["empirical", "--config", "bool_thresholds.json"], {}),
        (["fit", "--table", "missing.csv"], {}),
        (["fit", "--table", "bad_row.csv"], {}),
        (["sweep", "--config", "sweep.json"], {"KINEX_THREADS": "abc"}),
        (["fit", "--table", "table.csv", "--config", "xml.json"], {}),
        (["fit", "--table", "empty.json"], {}),
        (["fit", "--table", "not_json.json"], {}),
        (["fit", "--table", "scalar_row.json"], {}),
        (["simulate", "--config", "latin1_config.json"], {}),
        (["simulate", "--config", "list_config.json"], {}),
        (["simulate", "--config", "scalar_section.json"], {}),
        (["empirical", "--data", "latin1_data.csv"], {}),
        (["fit", "--table", "latin1_table.csv"], {}),
        *((["fit", "--table", name], {}) for name in TABLE_ERROR_LINES),
    ]

    @pytest.mark.parametrize("argv, env", BAD_INPUTS,
                             ids=[" ".join(argv) + "".join(f" {k}={v}" for k, v in env.items())
                                  for argv, env in BAD_INPUTS])
    def test_bad_input_exits_two_without_writing(self, tmp_path, monkeypatch, capsys,
                                                 table1_path, argv, env):
        for name, content in self.INPUTS.items():
            data = content if isinstance(content, bytes) else content.encode()
            (tmp_path / name).write_bytes(data)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        if argv[0] == "empirical" and "--data" not in argv:
            argv = argv + ["--data", str(table1_path)]
        monkeypatch.chdir(tmp_path)
        assert run_cli(argv) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(self.INPUTS)

    @pytest.mark.parametrize("name, line", TABLE_ERROR_LINES.items())
    def test_bad_sweep_table_reports_its_line(self, tmp_path, capsys, name, line):
        (tmp_path / name).write_text(self.INPUTS[name])
        assert run_cli(["fit", "--table", str(tmp_path / name),
                        "--out", str(tmp_path / "out")]) == 2
        [message] = capsys.readouterr().err.splitlines()
        assert message.startswith(f"kinex: line {line}: ")
        assert not (tmp_path / "out").exists()

    # inputs past a reader's limits: a CSV field longer than csv.field_size_limit()
    # (131,072 characters), JSON nested deeper than the recursion limit, a JSON
    # integer of more digits than int() reads (4,300), a sweep of more jobs than
    # it lists, runs of more steps than the C unit's int64 holds and of more
    # agents than its 32-bit cells index
    DEEP_JSON = "[" * 100_000 + "]" * 100_000
    LONG_INTEGER = "9" * 5000
    OVERSIZED_INPUTS = [
        (["empirical", "--data"], "long_name.csv",
         "country,f,g,lambda,gamma\n" + "A" * 200_000 + ",1,0.3,0.2,0.2\n",
         "kinex: line 2: field larger than field limit"),
        (["fit", "--table"], "long_cell.csv",
         "lambda,gamma,mean_g,mean_f,mean_tau\n0.2,0.5," + "3" * 200_000 + ",0.4,0.1\n",
         "kinex: line 2: field larger than field limit"),
        (["simulate", "--config"], "deep.json", DEEP_JSON, "kinex: config file "),
        (["fit", "--table"], "deep.json", DEEP_JSON,
         "kinex: line 1: not a JSON sweep table: RecursionError"),
        (["simulate", "--config"], "long_integer.json",
         '{"simulate": {"seed": ' + LONG_INTEGER + "}}", "kinex: config file "),
        (["fit", "--table"], "long_integer.json",
         '{"columns": ["lambda", "gamma", "mean_g", "mean_f", "mean_tau"], '
         '"rows": [[0.2, 0.5, 0.5, 0.4, ' + LONG_INTEGER + "]]}",
         "kinex: line 1: not a JSON sweep table: ValueError"),
        (["sweep", "--replicates", str(2**40), "--config"], "sweep.json",
         json.dumps({"sweep": SMALL_SWEEP["sweep"]}),
         "kinex: a sweep runs at most 1,048,576 jobs (cells times replicates), "
         "got 2 x 2 x 1099511627776 = 4,398,046,511,104"),
        (["simulate", "--config"], "t_max.json",
         json.dumps({"simulate": {"n_agents": 10, "saving_rate": 0.5, "surplus_rate": 0.5,
                                  "t_max": 2**64 + 5}}),
         "kinex: need integers 0 <= t1 < t2 <= t_max < 2**63, got t1=None"),
        (["sweep", "--config"], "t_max.json",
         json.dumps({"sweep": {**SMALL_SWEEP["sweep"], "t_max": 2**64 + 5}}),
         "kinex: need integers 0 <= t1 < t2 <= t_max < 2**63, got t1=None"),
        (["simulate", "--config"], "n_agents.json",
         json.dumps({"simulate": {"n_agents": 2**32 + 1, "saving_rate": 0.5,
                                  "surplus_rate": 0.5, "t_max": 10}}),
         "kinex: n_agents must be an integer in [2, 2**32], got 4294967297"),
        (["sweep", "--config"], "n_agents.json",
         json.dumps({"sweep": {**SMALL_SWEEP["sweep"], "n_agents": 2**32 + 1}}),
         "kinex: n_agents must be an integer in [2, 2**32], got 4294967297"),
    ]

    @pytest.mark.parametrize("argv, name, content, message", OVERSIZED_INPUTS,
                             ids=[" ".join(argv) + f" {name}"
                                  for argv, name, _, _ in OVERSIZED_INPUTS])
    def test_oversized_input_exits_two_with_one_line(self, tmp_path, capsys, argv, name,
                                                     content, message):
        (tmp_path / name).write_text(content)
        out = tmp_path / "out"
        assert run_cli(argv + [str(tmp_path / name), "--out", str(out)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(message)
        assert not out.exists()

    def test_config_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(SMALL_SIM).encode())
        assert load_config(str(path))["simulate"]["n_agents"] == 120

    def test_readme_lists_the_defaults(self):
        section = README.read_text(encoding="utf-8").split("### Configuration file", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block) == load_config(None)

    @pytest.mark.parametrize("threads", ["abc", "2.5"])
    def test_non_integer_threads_rejected(self, tmp_path, monkeypatch, threads):
        monkeypatch.setenv("KINEX_THREADS", threads)
        cfg = write_config(tmp_path, SMALL_SWEEP)
        assert run_cli(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()


# the columns each reader needs, and a field length on either side of the
# CSV reader's limit (131,072 characters by default)
CSV_COLUMNS = {"empirical": ["country", "f", "g", "lambda", "gamma"],
               "fit": ["lambda", "gamma", "mean_g", "mean_f", "mean_tau"]}
FIELD_LIMIT = csv.field_size_limit()


@st.composite
def csv_documents(draw, columns):
    """The bytes of a CSV table with ``columns``, or of something near one: the
    header reordered, cut short, doubled or upper-cased; valid rows among rows
    of any text, quoted or not, blank and ``#`` rows, fields around the reader's
    limit, NUL characters, a byte-order mark and bytes that are not UTF-8."""
    header = draw(st.sampled_from([columns, columns[::-1], columns[:-1], columns + columns[:1],
                                   [c.upper() for c in columns], columns + ["notes"]]))
    number = st.floats(min_value=0.01, max_value=0.99).map(repr)
    valid_row = st.tuples(*(st.text("abc ,", min_size=1, max_size=4) if c == "country"
                            else number for c in columns))
    cell = st.one_of(number, st.sampled_from(["", " ", "-", "nan", "inf", "1e400", "-0", "2"]),
                     st.text(max_size=6),
                     st.sampled_from([FIELD_LIMIT - 1, FIELD_LIMIT, FIELD_LIMIT + 1])
                     .map(lambda n: "7" * n))
    any_row = st.lists(cell, max_size=len(columns) + 1)
    rows = [header, *draw(st.lists(st.one_of(valid_row, any_row,
                                             st.sampled_from([(), ("# note",)])), max_size=6))]
    if draw(st.booleans()):  # every field quoted, its quotes doubled
        rows = [['"' + field.replace('"', '""') + '"' for field in row] for row in rows]
    data = "".join(",".join(row) + "\n" for row in rows).encode()
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.booleans()):  # one stray byte: Latin-1's e-acute, 0xff (never UTF-8) or NUL
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xe9", b"\xff", b"\x00"])) + data[at:]
    return data


# an integer cell of more digits than int() reads, put into JSON text in place
# of this string
BIG_INTEGER = "<5000 digits>"


@st.composite
def json_tables(draw):
    """The bytes of a JSON sweep table, or of something near one: the header
    varied as in csv_documents; valid rows among rows of any JSON values and
    rows that are no list; the column list or the row list left out or of
    another type, or a root that is no object; ``NaN``, ``Infinity`` and an
    integer too long to read; text cut short, a byte-order mark and bytes that
    are not UTF-8."""
    columns = CSV_COLUMNS["fit"]
    header = draw(st.sampled_from([columns, columns[::-1], columns[:-1], columns + columns[:1],
                                   [c.upper() for c in columns], columns + ["notes"]]))
    number = st.floats(min_value=0.01, max_value=0.99)
    scalar = st.one_of(number, st.none(), st.booleans(), st.integers(), st.text(max_size=6),
                       st.sampled_from([math.nan, math.inf, -0.0, BIG_INTEGER]))
    value = st.one_of(scalar, st.lists(scalar, max_size=2),
                      st.dictionaries(st.text(max_size=3), scalar, max_size=2))
    valid_row = st.lists(number, min_size=len(columns), max_size=len(columns))
    rows = draw(st.lists(st.one_of(valid_row, st.lists(value, max_size=len(columns) + 1),
                                   value), max_size=6))
    doc = {"schema": "kinex-schema v1", "columns": header, "rows": rows}
    key = draw(st.sampled_from([None, "columns", "rows"]))
    if key and draw(st.booleans()):
        del doc[key]
    elif key:
        doc[key] = draw(value)
    if draw(st.integers(0, 9)) == 0:
        doc = draw(value)
    text = json.dumps(doc).replace(json.dumps(BIG_INTEGER), "9" * 5000)
    if draw(st.integers(0, 3)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    data = text.encode()
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xe9", b"\xff", b"\x00"])) + data[at:]
    return data


class TestCsvText:
    """Any CSV text given to ``kinex empirical --data`` or ``kinex fit --table``,
    and any JSON text given to ``kinex fit --table``, ends in exit 0, 1 or 2,
    never in an exception; an exit 2 prints one ``kinex:`` line and writes no
    output directory."""

    @pytest.mark.parametrize("command, flag, suffix", [
        ("empirical", "--data", ".csv"), ("fit", "--table", ".csv"),
        ("fit", "--table", ".json")], ids=["empirical---data", "fit---table", "fit---table-json"])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    @example(data=None)
    def test_any_csv_text_exits_cleanly(self, command, flag, suffix, data):
        if data is None:  # a table that fits, so exit 0 is reached
            rows = [["A", "400", "0.3", "0.2", "0.2"], ["B", "500", "0.4", "0.3", "0.3"],
                    ["C", "600", "0.35", "0.25", "0.4"]] if command == "empirical" else \
                [["0.2", "0.5", "0.5", "0.4", "0.1"], ["0.4", "0.5", "0.4", "0.3", "0.2"]]
            document = (json.dumps({"columns": CSV_COLUMNS[command], "rows": rows})
                        if suffix == ".json" else
                        "\n".join(",".join(row) for row in [CSV_COLUMNS[command], *rows]))
            document = document.encode()
        elif suffix == ".json":
            document = data.draw(json_tables())
        else:
            document = data.draw(csv_documents(CSV_COLUMNS[command]))
        # a fresh directory per example: function-scoped fixtures persist across them
        with tempfile.TemporaryDirectory() as tmp:
            table, out = Path(tmp) / f"table{suffix}", Path(tmp) / "out"
            table.write_bytes(document)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run_cli([command, flag, str(table), "--out", str(out)])
            if data is None:
                assert code == 0, stderr.getvalue()
            assert code in (0, 1, 2)
            if code == 2:
                [line] = stderr.getvalue().splitlines()
                assert line.startswith("kinex: ")
                assert not out.exists()


# any text a user may put in KINEX_THREADS; an environment value holds no NUL
# and no lone surrogate
thread_text = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"),
            max_size=12),
    st.integers(min_value=-2**70, max_value=2**70).map(str),
    st.sampled_from([" 2 ", "1_0", "0x10", "1e3", "\u0663", "+1", "-0", "9" * 5000]))


class TestThreadsEnvironment:
    """Any ``KINEX_THREADS`` text ends ``kinex sweep`` in exit 0 or 2 with at most
    one ``kinex:`` line and no traceback; an exit 2 writes no output directory."""

    @settings(max_examples=40, deadline=None)
    @given(text=thread_text)
    def test_any_thread_count_text_exits_cleanly(self, text):
        # a fresh directory per example: function-scoped fixtures persist across them
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.dict(os.environ, {"KINEX_THREADS": text}):
            config = write_config(Path(tmp), {"sweep": {
                "lambda_values": [0.2, 0.5], "gamma_values": [0.5], "n_agents": 20,
                "t_max": 200, "replicates": 1}})
            out = Path(tmp) / "out"
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run_cli(["sweep", "--config", config, "--out", str(out)])
            lines = stderr.getvalue().splitlines()
            assert code in (0, 2), lines
            assert len([line for line in lines if line.startswith("kinex:")]) <= 1
            assert "Traceback" not in stderr.getvalue()
            if code == 2:
                assert not out.exists()

    # README: a positive integer in ASCII digits, anything else a configuration error
    @pytest.mark.parametrize("text, code", [
        ("0", 2), ("00", 2), ("-5", 2), ("1_0", 2), (" 2 ", 2), ("٣", 2), ("+1", 2),
        ("1", 0), ("02", 0), ("9" * 5000, 0)],
        ids=["zero", "zeros", "negative", "underscore", "spaces", "arabic-indic", "plus",
             "one", "leading-zero", "5000-digits"])
    def test_each_thread_count_form_exits_as_documented(self, tmp_path, capsys, monkeypatch,
                                                        text, code):
        monkeypatch.setenv("KINEX_THREADS", text)
        config = write_config(tmp_path, {"sweep": {
            "lambda_values": [0.2, 0.5], "gamma_values": [0.5], "n_agents": 20,
            "t_max": 200, "replicates": 1}})
        out = tmp_path / "out"
        assert run_cli(["sweep", "--config", config, "--out", str(out)]) == code
        lines = capsys.readouterr().err.splitlines()
        if code == 2:
            [line] = lines
            assert line.startswith("kinex: ") and "KINEX_THREADS" in line
            assert not out.exists()
        else:
            assert lines == [] and (out / "sweep.csv").exists()



# a value no config key takes as a small valid setting: a wrong type, a bool,
# nan or inf, a negative number, counts at and past int64, the C unit's limit,
# an integer no double holds, a string, a list, null or a nested object.
# Some of them are still valid for some keys (null for t1, 10**30 for
# initial_asset), which runs small
ODD_VALUES = [True, False, math.nan, math.inf, -math.inf, -1, -0.5, 2**63, 2**64 + 5, 10**30,
              10**400, "1", "abc", [1], [], None, {"a": 1}]
odd_values = st.sampled_from(ODD_VALUES)
unit_st = st.floats(min_value=0.0, max_value=1.0)
time_st = st.none() | st.integers(min_value=0, max_value=2000)
# each key's small valid values: no run longer than 2,000 steps, of more than 50
# agents or 100 bins, and no sweep of more than 8 jobs
SMALL_VALUES = {
    "simulate": {
        "n_agents": st.integers(min_value=2, max_value=50),
        "saving_rate": unit_st, "surplus_rate": unit_st,
        "initial_asset": st.floats(min_value=0.1, max_value=100.0),
        "t_max": st.integers(min_value=1, max_value=2000),
        "seed": st.integers(min_value=0, max_value=2**64 - 1),
        "snapshot_times": st.none() | st.lists(st.integers(min_value=0, max_value=2000),
                                               max_size=4),
        "t1": time_st, "t2": time_st,
        "bins": st.integers(min_value=1, max_value=100),
    },
    "sweep": {
        "lambda_values": st.lists(unit_st, min_size=1, max_size=2),
        "gamma_values": st.lists(unit_st, min_size=1, max_size=2),
        "n_agents": st.integers(min_value=2, max_value=50),
        "t_max": st.integers(min_value=1, max_value=2000),
        "t1": time_st, "t2": time_st,
        "replicates": st.integers(min_value=1, max_value=2),
        "base_seed": st.integers(min_value=0, max_value=2**64 - 1),
    },
    "empirical": {"thresholds": st.none() | st.lists(st.floats(min_value=0.0, max_value=1000.0)
                                                     | odd_values, min_size=2, max_size=2)},
    "output": {"dir": st.just("<out>"), "format": st.sampled_from(["csv", "json"])},
}
# keys always in the document, so that no run takes a default size
ALWAYS = {"simulate": {"n_agents", "t_max"}, "output": {"dir"},
          "sweep": {"lambda_values", "gamma_values", "n_agents", "t_max", "replicates"}}


@st.composite
def config_documents(draw):
    """A config document over the four sections and their keys: each value
    small and valid or odd, at a share of odd values drawn per document; now
    and then an unknown key or section, a section that is no object, or a
    root that is no object. ``"<out>"`` stands for the output directory."""
    odd_share = draw(st.sampled_from([0, 1, 3, 10]))  # in tenths
    doc = {}
    for section, keys in SMALL_VALUES.items():
        if section not in ALWAYS and draw(st.booleans()):
            continue
        values = {}
        for key, valid in keys.items():
            if key in ALWAYS.get(section, ()) or draw(st.booleans()):
                odd = draw(st.integers(min_value=0, max_value=9)) < odd_share
                values[key] = draw(odd_values if odd else valid)
        doc[section] = values
    extra = draw(st.sampled_from([None] * 7 + ["key", "section", "not an object"]))
    if extra == "key":
        doc[draw(st.sampled_from(sorted(doc)))]["agents"] = 5
    elif extra == "section":
        doc["simulte"] = {}
    elif extra == "not an object":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(odd_values)
    if draw(st.integers(min_value=0, max_value=19)) == 0:
        doc = draw(odd_values)
    return doc


SMALL_DOCUMENT = {"simulate": {"n_agents": 20, "t_max": 1500}, "output": {"dir": "<out>"},
                  "sweep": {"lambda_values": [0.2], "gamma_values": [0.5, 1.0],
                            "n_agents": 20, "t_max": 300, "replicates": 2}}
# the command that reads each section's values
SECTION_COMMAND = {"simulate": "simulate", "sweep": "sweep", "empirical": "empirical",
                   "output": "fit"}


def run_config_document(command: str, doc, data_path: Path) -> int:
    """Run ``command`` on the config ``doc`` in a fresh working directory with one
    sweep worker, ``fit`` on a fixed table and ``empirical`` on ``data_path``. Assert
    that it exits 0 with nothing on stderr, or prints one ``kinex:`` line and
    no traceback and exits 1 after writing ``resolved_config.json`` or 2 without
    writing anything. Returns the exit code."""
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"KINEX_THREADS": "1"}):
        tmp = Path(tmp)
        out = tmp / "out"
        (tmp / "table.csv").write_text("lambda,gamma,mean_g,mean_f,mean_tau\n"
                                       "0.2,0.5,0.5,0.4,0.1\n0.4,0.5,0.4,0.3,0.2\n")
        (tmp / "config.json").write_text(
            json.dumps(doc).replace(json.dumps("<out>"), json.dumps(str(out))))
        argv = [command, "--config", str(tmp / "config.json")]
        argv += {"fit": ["--table", str(tmp / "table.csv")],
                 "empirical": ["--data", str(data_path)]}.get(command, [])
        stdout, stderr = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)  # where an output dir drawn as a relative path lands
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run_cli(argv)
        finally:
            os.chdir(cwd)
        if code == 0:
            assert stderr.getvalue() == ""
        else:
            [line] = stderr.getvalue().splitlines()
            assert line.startswith("kinex: ")
            assert (code, (out / "resolved_config.json").exists()) in ((1, True), (2, False))
            if code == 2:
                assert sorted(p.name for p in tmp.iterdir()) == ["config.json", "table.csv"]
        return code


class TestConfigDocuments:
    """Any config document ends each command in exit 0 or 2, or in exit 1 for a
    runtime failure, after the config was accepted and written; a failure prints
    one ``kinex:`` line and no traceback, and an exit 2 writes no output."""

    @pytest.mark.parametrize("command", ["simulate", "sweep", "fit", "empirical"])
    @settings(max_examples=60, deadline=None)
    @given(doc=config_documents())
    @example(doc=SMALL_DOCUMENT)
    @example(doc={**SMALL_DOCUMENT, "simulate": {"n_agents": 10, "t_max": 2**64 + 5},
                  "sweep": {**SMALL_DOCUMENT["sweep"], "t_max": 2**64 + 5}})
    def test_any_config_document_exits_cleanly(self, table1_path, command, doc):
        code = run_config_document(command, doc, table1_path)
        if doc == SMALL_DOCUMENT:
            assert code == 0

    # every odd value in each key of an otherwise small valid document, which
    # random documents reach too rarely
    @pytest.mark.parametrize("section, key", [(section, key) for section in SMALL_VALUES
                                              for key in SMALL_VALUES[section]])
    def test_each_odd_value_of_each_key_exits_cleanly(self, table1_path, section, key):
        for value in ODD_VALUES:
            doc = {**SMALL_DOCUMENT, section: {**SMALL_DOCUMENT.get(section, {}), key: value}}
            run_config_document(SECTION_COMMAND[section], doc, table1_path)


def _tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestDeterminism:
    def test_simulate_twice_is_byte_identical(self, tmp_path, monkeypatch):
        for name in ("a", "b"):
            work = tmp_path / name
            work.mkdir()
            monkeypatch.chdir(work)
            cfg = write_config(work, SMALL_SIM)
            assert run_cli(["simulate", "--config", cfg]) == 0
        assert _tree_bytes(tmp_path / "a" / "simout") == _tree_bytes(tmp_path / "b" / "simout")

    def test_sweep_is_byte_identical_across_worker_counts(self, tmp_path, monkeypatch):
        for name, threads in (("a", "1"), ("b", "2")):
            work = tmp_path / name
            work.mkdir()
            monkeypatch.chdir(work)
            monkeypatch.setenv("KINEX_THREADS", threads)
            cfg = write_config(work, SMALL_SWEEP)
            assert run_cli(["sweep", "--config", cfg]) == 0
        assert _tree_bytes(tmp_path / "a" / "sweepout") == _tree_bytes(tmp_path / "b" / "sweepout")


# each line runs in a fresh interpreter, which must end with no numpy module loaded
NUMPY_FREE = {
    "import": "import kinex; kinex.SimulationParams, kinex.SweepCell\n"
              "assert set(kinex.__all__) <= set(dir(kinex))",
    "help": "from kinex.cli import main; assert main(['--help']) == 0",
    "fit": "from kinex.cli import main; assert main(['fit', '--table', 'table.csv']) == 0",
    "empirical": "from kinex.cli import main; assert main(['empirical', '--data', {data!r}]) == 0",
}


def test_simulate_never_imports_sweep(tmp_path):
    (tmp_path / "tiny.json").write_text(json.dumps({"simulate": {"n_agents": 10,
                                                                 "t_max": 100}}))
    code = ("import sys\nfrom kinex.cli import main\n"
            "assert main(['simulate', '--config', 'tiny.json', '--out', 'out']) == 0\n"
            "loaded = {'kinex.sweep', 'concurrent.futures'} & set(sys.modules)\n"
            "assert not loaded, loaded")
    proc = fresh_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_sweep_never_imports_concurrent_futures(tmp_path):
    (tmp_path / "tiny.json").write_text(json.dumps({"sweep": {
        "lambda_values": [0.2, 0.5], "gamma_values": [0.5], "n_agents": 10, "t_max": 100,
        "replicates": 2}}))
    code = ("import sys\nfrom kinex.cli import main\n"
            "assert main(['sweep', '--config', 'tiny.json', '--out', 'out']) == 0\n"
            "assert 'concurrent.futures' not in sys.modules")
    proc = fresh_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", NUMPY_FREE)
def test_analysis_never_imports_numpy(tmp_path, table1_path, name):
    (tmp_path / "table.csv").write_text("lambda,gamma,mean_g,mean_f,mean_tau\n"
                                        "0.2,0.5,0.5,0.4,0.1\n0.4,0.5,0.4,0.3,0.2\n")
    code = (NUMPY_FREE[name].format(data=str(table1_path)) + "\nimport sys\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'numpy']\n"
            "assert not loaded, loaded[:3]")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_star_import_gives_every_public_name():
    names = {}
    exec("from kinex import *", names)
    assert set(kinex.__all__) <= set(names)


def fresh_python(args, cwd, environ=os.environ):
    """A fresh interpreter on ``src`` with ENVIRON, run to its exit."""
    env = dict(environ,
               PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True)


def python_m_kinex(args, cwd):
    """``python -m kinex.cli ARGS``: the command's own exit path."""
    return fresh_python(["-m", "kinex.cli", *args], cwd)


def run_without_blas_env(cwd, openblas_threads, *argv):
    """``kinex.cli.run()`` on ARGV in a fresh interpreter whose environment holds
    no BLAS thread setting but ``OPENBLAS_NUM_THREADS=openblas_threads`` (unless
    None). Its last stdout line is that variable after ``run()``, then the
    count of the process's OS threads ("-" where ``/proc/self/task`` is
    missing). ``Thread.join`` returns before the OS thread is gone, so the
    count is read once one thread is left, or after 2 s; an OpenBLAS thread
    never exits, so it still shows."""
    code = ("import os, sys, time\n"
            "import kinex.cli\n"
            f"sys.argv = ['kinex', *{list(argv)!r}]\n"
            "kinex.cli.run()\n"
            "task = '/proc/self/task'\n"
            "threads = '-'\n"
            "if os.path.isdir(task):\n"
            "    deadline = time.monotonic() + 2.0\n"
            "    while len(os.listdir(task)) > 1 and time.monotonic() < deadline:\n"
            "        time.sleep(0.01)\n"
            "    threads = len(os.listdir(task))\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), threads)\n")
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    return fresh_python(["-c", code], cwd, env)


class TestExitPath:
    """``run`` defaults ``OPENBLAS_NUM_THREADS`` to 1 before ``main`` and freezes the heap
    after it; exit codes and output must not notice."""

    def test_simulate_exits_zero_with_its_whole_summary(self, tmp_path):
        write_config(tmp_path, {"simulate": {"n_agents": 20, "t_max": 1000}}, "tiny.json")
        done = python_m_kinex(["simulate", "--config", "tiny.json", "--out", "out"], tmp_path)
        assert done.returncode == 0, done.stderr
        (line,) = done.stdout.splitlines()
        assert done.stdout == line + "\n"
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert line == (f"simulate: wrote 2 snapshots to out (f={summary['total_exchange']:.6g}, "
                        f"tau={summary['kendall_tau']:.6g})")

    def test_missing_config_exits_two_with_one_line(self, tmp_path):
        done = python_m_kinex(["simulate", "--config", "missing.json"], tmp_path)
        assert done.returncode == 2
        (line,) = done.stderr.splitlines()
        assert line.startswith("kinex: cannot read config file missing.json")
        assert done.stdout == "" and list(tmp_path.iterdir()) == []

    def test_fit_on_one_row_exits_one(self, tmp_path):
        (tmp_path / "table.csv").write_text(
            "lambda,gamma,mean_g,std_g,mean_f,std_f,mean_tau,std_tau,replicates\n"
            "0.2,0.5,0.5,0,0.5,0,0.5,0,1\n")
        done = python_m_kinex(["fit", "--table", "table.csv", "--out", "o"], tmp_path)
        assert done.returncode == 1
        assert done.stderr == ("fit: only 1 usable point(s) for the flow/gini ratio fit; "
                               "need at least 2\n")

    def test_main_leaves_the_collector_as_it_found_it(self, tmp_path, table1_path):
        before = gc.get_freeze_count(), gc.isenabled()
        assert run_cli(["empirical", "--data", str(table1_path),
                        "--out", str(tmp_path / "o")]) == 0
        assert run_cli(["simulate", "--config", str(tmp_path / "missing.json")]) == 2
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    def test_run_freezes_and_atexit_still_runs(self, tmp_path):
        code = ("import atexit, gc, runpy, sys\n"
                "atexit.register(lambda: print('atexit', gc.get_freeze_count() > 0))\n"
                "sys.argv = ['kinex', 'simulate', '--config', 'missing.json']\n"
                "runpy.run_module('kinex.cli', run_name='__main__')\n")
        done = fresh_python(["-c", code], tmp_path)
        assert done.returncode == 2
        assert done.stdout == "atexit True\n"

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_run_loads_openblas_with_one_thread(self, tmp_path, command):
        write_config(tmp_path, {"simulate": {"n_agents": 20, "t_max": 1000},
                                "sweep": {"lambda_values": [0.2, 0.5], "gamma_values": [0.5],
                                          "n_agents": 20, "t_max": 1000, "replicates": 2}},
                     "tiny.json")
        done = run_without_blas_env(tmp_path, None, command, "--config", "tiny.json",
                                    "--out", "out")
        assert done.returncode == 0, done.stderr
        value, threads = done.stdout.splitlines()[-1].split()
        assert value == "1"
        if threads != "-":
            assert threads == "1"  # no OpenBLAS thread beside the main one

    def test_run_keeps_a_caller_set_blas_thread_count(self, tmp_path):
        done = run_without_blas_env(tmp_path, "2", "simulate", "--config", "missing.json")
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1].split()[0] == "2"

    def test_main_leaves_the_environment_as_it_found_it(self, tmp_path, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        before = dict(os.environ)
        write_config(tmp_path, {"simulate": {"n_agents": 20, "t_max": 1000}}, "tiny.json")
        assert run_cli(["simulate", "--config", str(tmp_path / "tiny.json"),
                        "--out", str(tmp_path / "out")]) == 0
        assert dict(os.environ) == before

    def test_console_script_enters_through_run(self):
        text = (README.parent / "pyproject.toml").read_text()
        (target,) = re.findall(r'^kinex = "([\w.]+:\w+)"$', text, re.MULTILINE)
        module, name = target.split(":")
        assert getattr(importlib.import_module(module), name) is kinex.cli.run
