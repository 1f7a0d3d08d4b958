"""Workload inputs, operations and output digests for the kinex benchmark.

The caller puts the checkout's ``src`` directory on ``sys.path`` before
importing this module. Every input is built from the workload seed alone;
kinex receives only those generated inputs. All calls into kinex go
through module attributes (``kinex.sweep.run_sweep``, ``kinex.cli.main``)
so that the tracer in ``spans.py`` can wrap them.

Each workload offers two ways to run the same operations:

* ``run(workers)`` - the way users run it: a pooled sweep, or the CLI as
  subprocesses. This is what the end-to-end metrics time.
* ``run_inprocess()`` - the same operations serially in this process, so
  that every call into kinex can be traced and checked. Its digests must
  equal those of ``run``.

Both return a dict ``{operation key: digest}``. ``weights[key]`` is the
number of operations behind a key (replicates for ``grid``, commands
for ``cli-io``). A digest that starts with ``FAILED``
marks an operation that exited non-zero.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import kinex
import kinex.cli
import kinex.exchange
import kinex.metrics
import kinex.sweep

DEFAULT_SEED = 0
FAILED = "FAILED"

# The paper's replication grid.
GRID_LAMBDAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
GRID_GAMMAS = (0.1, 0.25, 0.5, 0.75, 1.0)
# (saving rate, surplus rate) of the cli-io simulate run.
SIMULATE_RATES = (0.25, 0.5)
# The CLI's default sweep grid: 19 x 4 = 76 cells.
CLI_LAMBDAS = tuple(round(0.05 * k, 2) for k in range(1, 20))
CLI_GAMMAS = (0.0, 0.1, 0.5, 1.0)

# Conservation drift |sum(m) - N m0| / (N m0) allowed at any snapshot.
DRIFT_LIMIT = 1e-9

SIZES = {
    "full": {
        "grid": {"n_agents": 1000, "t_max": 100_000, "replicates": 2,
                 "lambdas": GRID_LAMBDAS, "gammas": GRID_GAMMAS},
        "cli-io": {"sim_agents": 20_000, "sim_t_max": 200_000, "sim_snapshots": 20,
                   "sweep_agents": 100, "sweep_t_max": 5_000,
                   "lambdas": CLI_LAMBDAS, "gammas": CLI_GAMMAS},
    },
    "quick": {
        "grid": {"n_agents": 100, "t_max": 2_000, "replicates": 2,
                 "lambdas": (0.2, 0.6), "gammas": (0.5, 1.0)},
        "cli-io": {"sim_agents": 200, "sim_t_max": 2_000, "sim_snapshots": 4,
                   "sweep_agents": 50, "sweep_t_max": 500,
                   "lambdas": (0.25, 0.5), "gammas": (0.5, 1.0)},
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def combined_digest(digests: dict) -> str:
    """One digest over all operation digests; this is what golden.json pins."""
    return sha256(json.dumps(digests, sort_keys=True).encode())


def conservation_problems(params, snapshots: dict) -> list[str]:
    """Check wealth conservation and non-negativity at every snapshot."""
    total = params.n_agents * params.initial_asset
    problems = []
    for t, assets in snapshots.items():
        drift = abs(float(assets.sum()) - total) / total
        low = float(assets.min())
        if not drift <= DRIFT_LIMIT:
            problems.append(f"seed {params.seed} t={t}: conservation drift {drift:.3g}")
        if not low >= 0.0:
            problems.append(f"seed {params.seed} t={t}: negative asset {low!r}")
    return problems


def _cell_digest(cell) -> str:
    return ":".join(float(v).hex() for v in (
        cell.saving_rate, cell.surplus_rate, cell.mean_g, cell.std_g,
        cell.mean_f, cell.std_f, cell.mean_tau, cell.std_tau)) + f":{cell.replicates}"


def _sweep_digests(cells) -> dict:
    return {f"{c.saving_rate}/{c.surplus_rate}": _cell_digest(c) for c in cells}


def _sweep_jobs(spec) -> int:
    return len(spec.lambda_values) * len(spec.gamma_values) * spec.replicates


class Workload:
    name: str
    weights: dict
    steps: int  # pairwise exchanges per iteration

    def build(self) -> None:
        """Write input files; part of set-up."""

    def reset(self) -> None:
        """Clear the previous iteration's outputs; done outside the timed section."""

    def sweep_specs(self) -> list:
        return []

    def output_files(self) -> list[Path]:
        return []

    def run(self, workers: int) -> dict:
        raise NotImplementedError

    def run_inprocess(self) -> dict:
        return self.run(1)


class Grid(Workload):
    """``run_sweep`` over the paper's (lambda, gamma) grid."""

    name = "grid"

    def __init__(self, seed: int, size: str, root: Path):
        s = SIZES[size]["grid"]
        self.spec = kinex.SweepSpec(
            lambda_values=s["lambdas"], gamma_values=s["gammas"],
            n_agents=s["n_agents"], t_max=s["t_max"], replicates=s["replicates"],
            base_seed=seed)
        self.weights = {f"{lam}/{gam}": self.spec.replicates
                        for lam in self.spec.lambda_values for gam in self.spec.gamma_values}
        self.steps = _sweep_jobs(self.spec) * self.spec.t_max

    def sweep_specs(self) -> list:
        return [self.spec]

    def run(self, workers: int) -> dict:
        return _sweep_digests(kinex.sweep.run_sweep(self.spec, workers=workers))


class CliIO(Workload):
    """The CLI sequence simulate -> sweep -> fit (reads the sweep table) -> empirical."""

    name = "cli-io"
    COMMANDS = ("simulate", "sweep", "fit", "empirical")

    def __init__(self, seed: int, size: str, root: Path):
        s = SIZES[size]["cli-io"]
        lam, gam = SIMULATE_RATES
        t_max = s["sim_t_max"]
        every = t_max // s["sim_snapshots"]
        self.config = {
            "simulate": {"n_agents": s["sim_agents"], "saving_rate": lam,
                         "surplus_rate": gam, "t_max": t_max, "seed": seed,
                         "snapshot_times": list(range(every, t_max + 1, every))},
            "sweep": {"lambda_values": list(s["lambdas"]), "gamma_values": list(s["gammas"]),
                      "n_agents": s["sweep_agents"], "t_max": s["sweep_t_max"],
                      "replicates": 1, "base_seed": seed},
        }
        self.workdir = root / ".bench_out" / f"cli-io-{size}-s{seed}"
        data = str(root / "data" / "oecd_table1.csv")
        self.argv = {
            "simulate": ["simulate", "--config", "config.json", "--out", "simulate"],
            "sweep": ["sweep", "--config", "config.json", "--out", "sweep"],
            "fit": ["fit", "--table", "sweep/sweep.csv", "--config", "config.json",
                    "--out", "fit"],
            "empirical": ["empirical", "--data", data, "--config", "config.json",
                          "--out", "empirical"],
        }
        self.weights = {cmd: 1 for cmd in self.COMMANDS}
        self.steps = t_max + _sweep_jobs(self.sweep_specs()[0]) * s["sweep_t_max"]

    def build(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        (self.workdir / "config.json").write_text(json.dumps(self.config, indent=2) + "\n")

    def sweep_specs(self) -> list:
        c = self.config["sweep"]
        return [kinex.SweepSpec(lambda_values=c["lambda_values"], gamma_values=c["gamma_values"],
                                n_agents=c["n_agents"], t_max=c["t_max"],
                                replicates=c["replicates"], base_seed=c["base_seed"])]

    def reset(self) -> None:
        for cmd in self.COMMANDS:
            shutil.rmtree(self.workdir / cmd, ignore_errors=True)

    def output_files(self) -> list[Path]:
        return sorted(p for cmd in self.COMMANDS for p in (self.workdir / cmd).rglob("*")
                      if p.is_file())

    def _tree_digest(self, cmd: str) -> str:
        base = self.workdir / cmd
        h = hashlib.sha256()
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            h.update(path.relative_to(base).as_posix().encode() + b"\0")
            h.update(sha256(path.read_bytes()).encode())
        return h.hexdigest()

    def _digest(self, cmd: str, code, err: str) -> str:
        if code != 0:
            return f"{FAILED} {cmd} exit {code}: {err.strip()[-300:]}"
        return self._tree_digest(cmd)

    def run(self, workers: int) -> dict:
        env = dict(os.environ, KINEX_THREADS=str(workers))
        digests = {}
        for cmd in self.COMMANDS:
            proc = subprocess.run([sys.executable, "-m", "kinex.cli", *self.argv[cmd]],
                                  cwd=self.workdir, env=env, capture_output=True, text=True)
            digests[cmd] = self._digest(cmd, proc.returncode, proc.stderr)
        return digests

    def run_inprocess(self) -> dict:
        digests = {}
        old_cwd = os.getcwd()
        old_threads = os.environ.get("KINEX_THREADS")
        os.environ["KINEX_THREADS"] = "1"
        try:
            os.chdir(self.workdir)
            for cmd in self.COMMANDS:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = kinex.cli.main(self.argv[cmd])
                digests[cmd] = self._digest(cmd, code, err.getvalue())
        finally:
            os.chdir(old_cwd)
            if old_threads is None:
                os.environ.pop("KINEX_THREADS", None)
            else:
                os.environ["KINEX_THREADS"] = old_threads
        return digests


WORKLOADS = {cls.name: cls for cls in (Grid, CliIO)}


def make(name: str, seed: int, size: str, root) -> Workload:
    return WORKLOADS[name](seed, size, Path(root))
