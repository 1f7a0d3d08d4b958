import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import kinex
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

    def test_only_incomplete_rows_is_a_runtime_failure(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("country,f,g,lambda,gamma\nJapan,393,,0.280,\n")
        assert run_cli(["empirical", "--data", str(data), "--out", str(tmp_path / "o")]) == 1

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
    }
    # bad sweep tables -> the line reported: the header's, or the bad row's
    TABLE_ERROR_LINES = {"empty.csv": 1, "no_columns.csv": 1, "no_mean_tau.csv": 1,
                         "nan_f.csv": 2, "nan_tau.csv": 2, "inf_g.csv": 2,
                         "replicates_fraction.json": 3, "replicates_negative.json": 3,
                         "replicates_true.json": 3, "true_g.json": 2}
    BAD_INPUTS = [
        (["empirical", "--thresholds", "650,450"], {}),
        (["empirical", "--thresholds", "400,inf"], {}),
        (["fit", "--table", "missing.csv"], {}),
        (["fit", "--table", "bad_row.csv"], {}),
        (["sweep", "--config", "sweep.json"], {"KINEX_THREADS": "abc"}),
        (["fit", "--table", "table.csv", "--config", "xml.json"], {}),
        (["fit", "--table", "empty.json"], {}),
        (["fit", "--table", "not_json.json"], {}),
        (["fit", "--table", "scalar_row.json"], {}),
        (["simulate", "--config", "latin1_config.json"], {}),
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
    # (131,072 characters), and JSON nested deeper than the recursion limit
    DEEP_JSON = "[" * 100_000 + "]" * 100_000
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
