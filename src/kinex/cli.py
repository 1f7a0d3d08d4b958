"""Command-line front end: simulate, sweep, fit, and empirical workflows.

Configuration lives in one JSON document with ``simulate``, ``sweep``,
``empirical``, and ``output`` sections; unknown keys are rejected and
command-line flags win over file values. ``main`` loads the config,
applies the flags and checks the ``output`` section for every
subcommand. Each subcommand then checks its own section and reads its
inputs, and only then writes the fully-resolved configuration into its
output directory, so a usage or config failure writes no file. All emitted
tables are plot-ready data (CSV by default, JSON via the output format
selector); no images are rendered. This module owns the table format:
``_write_table`` writes every table and ``read_sweep_table`` reads sweeps back.

The ``kinex`` command and ``python -m kinex.cli`` enter through ``run``,
which defaults ``OPENBLAS_NUM_THREADS`` to 1, calls ``main`` and then freezes
the heap; ``main`` alone leaves the environment and the garbage collector as
it found them.

Exit codes: 0 success, 1 runtime/numeric failure, 2 usage/config failure.
Same config + same seed always produce byte-identical output files,
independent of the KINEX_THREADS worker cap and of the exchange backend.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import json
import math
import os
import sys
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import TYPE_CHECKING

# numpy-free: fit and empirical never import numpy. simulate imports the model
# (exchange, metrics, numpy) when it runs, and sweep also the sweep module
from .empirical import (_csv_rows, classify_groups, derive, fit_groups, load_countries,
                        percentile_thresholds)
from .errors import ConfigError, KinexError, ParseError
from .fitting import fit_linear, flow_gini_ratio_points, tau_vs_flow_points
from .params import SimulationParams, SweepCell, SweepSpec, _is_integer, resolve_times

if TYPE_CHECKING:
    import numpy as np


def _field_defaults(cls) -> dict:
    # dataclass field defaults as JSON values (tuples become lists)
    return {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
            for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING}


DEFAULT_CONFIG = {
    "simulate": {
        **_field_defaults(SimulationParams),  # snapshot_times is replaced below
        "n_agents": 1000,
        "saving_rate": 0.25,
        "surplus_rate": 0.5,
        "snapshot_times": None,  # default: decades 10^3.. <= t_max, plus t1/t2
        "t1": None,              # t1/t2 default as in params.resolve_times
        "t2": None,
        "bins": 50,
    },
    "sweep": _field_defaults(SweepSpec),
    "empirical": {
        "thresholds": None,  # [t_low, t_high] in f units; default: 33rd/67th percentiles
    },
    "output": {
        "dir": "out",
        "format": "csv",
    },
}


# ---------------------------------------------------------------------------
# configuration handling


def _refuse_constant(name: str):
    # NaN and Infinity are not RFC 8259 JSON, and resolved_config.json could not hold them
    raise ValueError(f"{name} is not a JSON number")


def load_config(path: str | None) -> dict:
    config = {section: dict(values) for section, values in DEFAULT_CONFIG.items()}
    if path is None:
        return config
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8-sig"),
                         parse_constant=_refuse_constant)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer too long for int()
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"config file {path} is nested too deeply to read") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(raw) - set(config))
    if unknown:
        raise ConfigError(f"unknown config section(s): {', '.join(unknown)}")
    for section, values in raw.items():
        if not isinstance(values, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        bad = sorted(set(values) - set(config[section]))
        if bad:
            raise ConfigError(f"unknown key(s) in config section {section!r}: "
                              f"{', '.join(bad)}")
        config[section].update(values)
    return config


# ---------------------------------------------------------------------------
# the table format: one writer for every table, one reader for the sweep table

SCHEMA_COMMENT = "# kinex-schema v1"

# sweep table columns in file order -> the SweepCell field each one holds
SWEEP_COLUMNS = {"lambda": "saving_rate", "gamma": "surplus_rate",
                 "mean_g": "mean_g", "std_g": "std_g", "mean_f": "mean_f",
                 "std_f": "std_f", "mean_tau": "mean_tau", "std_tau": "std_tau",
                 "replicates": "replicates"}
# columns a table may leave out or empty, with the value they then read as
_OPTIONAL_COLUMNS = {"std_g": 0.0, "std_f": 0.0, "std_tau": 0.0, "replicates": 1}


def _write_table(out_dir: Path, stem: str, columns: list[str],
                 rows: Iterable[Sequence] | tuple[np.ndarray, ...], fmt: str) -> Path:
    # rows hold plain Python values, "" being an empty cell in either format; a
    # numeric table comes instead as a tuple of int64 and float64 numpy columns
    numeric = isinstance(rows, tuple)
    if fmt == "json":
        if numeric:
            rows = zip(*(column.tolist() for column in rows))
        doc = {"schema": SCHEMA_COMMENT.lstrip("# "), "columns": columns, "rows": list(rows)}
        return _write_json(out_dir, f"{stem}.json", doc)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{stem}.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(SCHEMA_COMMENT + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        if numeric:  # the bytes writerows would write, from the C unit when it loads
            from . import _backend
            fh.flush()
            fh.buffer.write(_backend._resolve_backend().format_rows(rows))
        else:
            writer.writerows(rows)
    return path


def _write_json(out_dir: Path, name: str, payload: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)  # RFC 8259 JSON
    path.write_text(text + "\n", encoding="utf-8")
    return path


def read_sweep_table(path: str | Path) -> list[SweepCell]:
    """Read a sweep table previously written by ``kinex sweep``.

    A JSON cell is read from its text, as a CSV cell is, and ``null`` reads
    as an empty cell; the column list and each row must be JSON arrays. A
    ParseError gives a CSV row's file line, or a JSON row's position counting
    the column list as 1.
    """
    path = Path(path)
    if path.suffix == ".json":
        try:
            doc = json.loads(path.read_text(encoding="utf-8-sig"))
            lines = list(enumerate([doc["columns"], *doc["rows"]], start=1))
        # ValueError covers JSONDecodeError and an integer too long for int()
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise ParseError(f"not a JSON sweep table: {exc!r}", 1) from None
        for line_number, line in lines:  # else a string reads as its characters
            if not isinstance(line, list):
                raise ParseError(f"expected a JSON array, got {line!r:.40}", line_number)
    else:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            lines = _csv_rows(fh)
    (header_line, header), *rows = lines or [(1, [])]
    if any(column in header[:k] for k, column in enumerate(header)):
        raise ParseError(f"repeated column name in {header}", header_line)
    missing = [c for c in SWEEP_COLUMNS if c not in header and c not in _OPTIONAL_COLUMNS]
    if missing:
        raise ParseError(f"missing required column(s): {', '.join(missing)}", header_line)
    cells = []
    for line_number, row in rows:
        try:
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} cells, got {len(row)}")
            row = dict(zip(header, row))
            values = {}
            for column, field in SWEEP_COLUMNS.items():
                text = "" if row.get(column) is None else str(row[column])
                value = (_OPTIONAL_COLUMNS[column] if not text and column in _OPTIONAL_COLUMNS
                         else int(text) if field == "replicates" else float(text))
                if not math.isfinite(value) or field == "replicates" and value < 1:
                    raise ValueError(f"column {column!r}: {text!r} is out of range")
                values[field] = value
            cells.append(SweepCell(**values))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad sweep table row: {exc}", line_number) from exc
    return cells


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args, config: dict, out_dir: Path, fmt: str) -> int:
    import numpy as np

    from .exchange import run_simulation
    from .metrics import gamma_fit, gini, histogram, run_indexes

    sim_cfg = config["simulate"]
    t_max = sim_cfg["t_max"]
    try:
        t1, t2 = resolve_times(t_max, sim_cfg["t1"], sim_cfg["t2"])
        sim_cfg["t1"], sim_cfg["t2"] = t1, t2
        snapshot_times = sim_cfg["snapshot_times"]
        if snapshot_times is None:  # the decades 10^3, 10^4, ... up to t_max
            snapshot_times = []
            decade = 1000
            while decade <= t_max:
                snapshot_times.append(decade)
                decade *= 10
        snapshot_times = sorted(set(snapshot_times) | {t1, t2, t_max})
        sim_cfg["snapshot_times"] = snapshot_times
        params = SimulationParams(
            n_agents=sim_cfg["n_agents"], saving_rate=sim_cfg["saving_rate"],
            surplus_rate=sim_cfg["surplus_rate"], initial_asset=sim_cfg["initial_asset"],
            t_max=t_max, seed=sim_cfg["seed"], snapshot_times=tuple(snapshot_times),
        )
        bins = sim_cfg["bins"]
        if not _is_integer(bins) or not 1 <= bins < 2**63:  # numpy takes it as int64
            raise ValueError(f"bins must be an integer in [1, 2**63), got {bins!r}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    _write_json(out_dir, "resolved_config.json", config)

    result = run_simulation(params)
    final_gini, flow, tau = run_indexes(result, t1, t2)  # before any table: it may overflow

    snap_dir = out_dir / "snapshots"
    gini_rows = []
    gamma_rows = []
    for t in snapshot_times:
        assets = result.snapshots[t]
        _write_table(snap_dir, str(t), ["agent", "asset"],
                     (np.arange(assets.size, dtype=np.int64), assets), fmt)
        hist = histogram(assets, bins=bins)
        _write_table(out_dir, f"histogram_{t}", ["bin_lo", "bin_hi", "count"],
                     (hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts), fmt)
        gini_rows.append([t, gini(assets)])
        positive = assets[assets > 0.0]
        try:
            fit = gamma_fit(positive)
            gamma_rows.append([t, int(positive.size), fit.shape, fit.scale])
        except ValueError:  # DegenerateDataError is one
            gamma_rows.append([t, int(positive.size), "", ""])
    _write_table(out_dir, "gini_series", ["t", "gini"], gini_rows, fmt)
    _write_table(out_dir, "gamma_fits", ["t", "n_positive", "shape", "scale"],
                 gamma_rows, fmt)
    _write_json(out_dir, "summary.json", {
        "cumulative_pool": result.cumulative_pool,
        "total_exchange": flow,
        "kendall_tau": tau,
        "final_gini": final_gini,
        "t1": t1,
        "t2": t2,
    })
    print(f"simulate: wrote {len(snapshot_times)} snapshots to {out_dir} "
          f"(f={flow:.6g}, tau={tau:.6g})")
    return 0


def cmd_sweep(args, config: dict, out_dir: Path, fmt: str) -> int:
    from .sweep import _resolve_workers, run_sweep

    sweep_cfg = config["sweep"]
    try:
        spec = SweepSpec(**sweep_cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    workers = _resolve_workers(None)
    sweep_cfg["t1"], sweep_cfg["t2"] = spec.t1, spec.t2
    _write_json(out_dir, "resolved_config.json", config)

    cells = run_sweep(spec, workers)
    rows = [[getattr(c, field) for field in SWEEP_COLUMNS.values()] for c in cells]
    path = _write_table(out_dir, "sweep", list(SWEEP_COLUMNS), rows, fmt)
    print(f"sweep: wrote {len(cells)} cells to {path}")
    return 0


def cmd_fit(args, config: dict, out_dir: Path, fmt: str) -> int:
    try:
        cells = read_sweep_table(args.table)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read sweep table {args.table}: {exc}") from exc
    _write_json(out_dir, "resolved_config.json", config)

    ratio_points, excluded = flow_gini_ratio_points(cells)
    if len(ratio_points) < 2:
        print(f"fit: only {len(ratio_points)} usable point(s) for the flow/gini "
              "ratio fit; need at least 2", file=sys.stderr)
        return 1
    ratio_fit = fit_linear(ratio_points)
    tau_points = tau_vs_flow_points(cells)
    tau_fit = fit_linear(tau_points)

    report = {
        "flow_gini_ratio": {
            **dataclasses.asdict(ratio_fit),
            "x_axis": "ln((1 - lambda) * gamma)",
            "y_axis": "mean_f / mean_g",
            "excluded": [{"lambda": c.saving_rate, "gamma": c.surplus_rate}
                         for c in excluded],
        },
        "tau_vs_flow": {
            **dataclasses.asdict(tau_fit),
            "x_axis": "mean_f",
            "y_axis": "mean_tau",
            "excluded": [],
        },
    }
    _write_json(out_dir, "fit_report.json", report)
    print("fit: flow/gini ratio vs ln((1-lambda)*gamma): "
          f"slope={ratio_fit.slope:.4f} intercept={ratio_fit.intercept:.4f} "
          f"R^2={ratio_fit.r_squared:.4f} "
          f"({ratio_fit.n_points} points, {len(excluded)} excluded)")
    print(f"fit: tau vs flow: slope={tau_fit.slope:.4f} "
          f"intercept={tau_fit.intercept:.4f} R^2={tau_fit.r_squared:.4f} "
          f"({tau_fit.n_points} points)")
    return 0


def cmd_empirical(args, config: dict, out_dir: Path, fmt: str) -> int:
    try:
        records = load_countries(args.data)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read data file {args.data}: {exc}") from exc
    derived, incomplete = derive(records)
    thresholds = config["empirical"]["thresholds"]
    if thresholds is None:
        thresholds = percentile_thresholds(derived)
        thresholds_source = "percentiles(33, 67) of f over complete records"
    else:
        # from the config file, or the --thresholds flag split at its comma
        if not isinstance(thresholds, (list, tuple)) or len(thresholds) != 2:
            raise ConfigError(f"thresholds must be a [low, high] pair, got {thresholds!r}")
        try:  # float() of an int past the largest double raises OverflowError
            if any(isinstance(t, bool) for t in thresholds):  # float(True) is 1.0
                raise TypeError("a JSON boolean is not a number")
            thresholds = (float(thresholds[0]), float(thresholds[1]))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"thresholds must be numbers, got {thresholds!r}") from exc
        if not all(map(math.isfinite, thresholds)):
            raise ConfigError(f"thresholds must be finite, got {list(thresholds)}")
        thresholds_source = "explicit"
    try:
        classified = classify_groups(derived, thresholds)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    config["empirical"]["thresholds"] = list(thresholds)
    _write_json(out_dir, "resolved_config.json", config)

    fits = fit_groups(classified)

    rows = [[r.name, r.f, r.g, r.lam, r.gamma, r.x, r.f_norm, r.y, r.group]
            for r in classified]
    _write_table(out_dir, "derived_countries",
                 ["country", "f", "g", "lambda", "gamma", "x", "f_norm", "y", "group"],
                 rows, fmt)
    payload = {
        "thresholds": {"low": thresholds[0], "high": thresholds[1],
                       "source": thresholds_source},
        "incomplete_records": [r.name for r in incomplete],
        "groups": [
            {
                "group": gf.group,
                "members": list(gf.members),
                "excluded_members": list(gf.excluded),
                "fit": dataclasses.asdict(gf.fit) if gf.fit is not None else None,
                "reason": gf.reason,
            }
            for gf in fits
        ],
    }
    _write_json(out_dir, "group_fits.json", payload)
    for gf in fits:
        if gf.fit is None:
            print(f"empirical: group {gf.group}: unfittable ({gf.reason})")
        else:
            print(f"empirical: group {gf.group}: slope={gf.fit.slope:.4f} "
                  f"intercept={gf.fit.intercept:.4f} R^2={gf.fit.r_squared:.4f} "
                  f"({len(gf.members)} members)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _check_output(output: dict) -> tuple[Path, str]:
    if not isinstance(output["dir"], str):
        raise ConfigError(f"output dir must be a string, got {output['dir']!r}")
    if output["format"] not in ("csv", "json"):
        raise ConfigError(f"output format must be 'csv' or 'json', got {output['format']!r}")
    out_dir = Path(output["dir"])
    # the nearest path that exists must be a directory, or making out_dir fails
    existing = next(path for path in (out_dir, *out_dir.parents) if os.path.lexists(path))
    if not existing.is_dir():
        raise ConfigError(f"output dir {output['dir']!r}: {str(existing)!r} is not a directory")
    return out_dir, output["format"]


def build_parser() -> argparse.ArgumentParser:
    # a flag whose dest is "section.key" overrides that config value
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--out", dest="output.dir", metavar="OUT",
                        help="output directory (default from config)")
    parser = argparse.ArgumentParser(
        prog="kinex",
        description="Kinetic wealth-exchange simulator and analysis toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[common], help="run one simulation and "
                           "dump snapshots, histograms, moment fits, and the Gini series")
    p_sim.add_argument("--seed", type=int, dest="simulate.seed", metavar="SEED",
                       help="override simulate.seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", parents=[common], help="run a (lambda, gamma) "
                             "grid and write the aggregated cell table")
    p_sweep.add_argument("--replicates", type=int, dest="sweep.replicates",
                         metavar="REPLICATES", help="override sweep.replicates")
    p_sweep.set_defaults(func=cmd_sweep)

    p_fit = sub.add_parser("fit", parents=[common],
                           help="fit the emergent relations from a sweep table")
    p_fit.add_argument("--table", required=True, help="sweep table (csv or json)")
    p_fit.set_defaults(func=cmd_fit)

    p_emp = sub.add_parser("empirical", parents=[common], help="derive country "
                           "columns and fit per-GDP-group regressions")
    p_emp.add_argument("--data", required=True, help="country CSV "
                       "(header: country,f,g,lambda,gamma)")
    p_emp.add_argument("--thresholds", type=lambda text: text.split(","),
                       dest="empirical.thresholds", metavar="THRESHOLDS",
                       help="group thresholds LO,HI in f units "
                       "(default: 33rd/67th percentiles)")
    p_emp.set_defaults(func=cmd_empirical)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        config = load_config(args.config)
        for dest, value in vars(args).items():
            if "." in dest and value is not None:
                section, key = dest.split(".")
                config[section][key] = value
        out_dir, fmt = _check_output(config["output"])
        return args.func(args, config, out_dir, fmt)
    except (ConfigError, ParseError) as exc:
        print(f"kinex: {exc}", file=sys.stderr)
        return 2
    except (KinexError, ValueError, OSError, MemoryError, RuntimeError) as exc:
        # a failed run or sweep cell; a bare MemoryError has no text
        print(f"kinex: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def run() -> int:
    """The ``kinex`` command: :func:`main`, then ``gc.freeze()``. Freezing moves
    every live object into the permanent generation, so the collections the
    interpreter runs while it finalizes modules have nothing to walk; atexit
    handlers, module teardown and file flushing still run."""
    # kinex calls no BLAS routine, but numpy's OpenBLAS starts a busy-waiting
    # thread per extra core when it loads. It reads this variable then, and
    # importing this module loads no numpy, so the default is in time; a value
    # the caller set wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
