"""Parameter-grid execution over (saving_rate, surplus_rate) with replicates.

Each grid cell runs ``replicates`` independent simulations whose seeds are
derived from (base_seed, lambda-index, gamma-index, replicate-index) via an
8-byte BLAKE2b hash, so every cell owns a stable random stream. Per
replicate, the Gini index is taken from the t2 snapshot, the flow from the
accumulated pool over t_max, and the rank correlation between the t1 and
t2 snapshots.

Cells and replicates are embarrassingly parallel: with more than one
worker they are dispatched to a process pool, and the aggregation always
reduces results in (lambda-index, gamma-index, replicate-index) order, so
output tables are bit-identical regardless of scheduling. The
KINEX_THREADS environment variable sets the worker count when the caller
passes none; the count never exceeds ``os.cpu_count()``.
"""

from __future__ import annotations

import hashlib
import os
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .exchange import SimulationParams, run_simulation
from .metrics import gini, kendall_tau, total_exchange


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition. t1/t2 default to 0.99 * t_max and t_max."""

    lambda_values: tuple[float, ...]
    gamma_values: tuple[float, ...]
    n_agents: int = 1000
    t_max: int = 100_000
    t1: int | None = None
    t2: int | None = None
    replicates: int = 5
    base_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "lambda_values", tuple(self.lambda_values))
        object.__setattr__(self, "gamma_values", tuple(self.gamma_values))
        if not self.lambda_values or not self.gamma_values:
            raise ValueError("lambda_values and gamma_values must be non-empty")
        for name, values in (("lambda_values", self.lambda_values),
                             ("gamma_values", self.gamma_values)):
            if any(not 0.0 <= v <= 1.0 for v in values):
                raise ValueError(f"{name} must lie in [0, 1], got {values}")
        if self.t2 is None:
            object.__setattr__(self, "t2", self.t_max)
        if self.t1 is None:
            object.__setattr__(self, "t1", min(round(0.99 * self.t_max), self.t2 - 1))
        if not 0 <= self.t1 < self.t2 <= self.t_max:
            raise ValueError(f"need 0 <= t1 < t2 <= t_max, got t1={self.t1}, "
                             f"t2={self.t2}, t_max={self.t_max}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if not 0 <= self.base_seed < 2**64:
            raise ValueError(f"base_seed must be a 64-bit unsigned integer, got {self.base_seed!r}")


@dataclass(frozen=True)
class SweepCell:
    """Replicate-aggregated metrics for one (lambda, gamma) grid point.

    Standard deviations use the 1/R population normalization and are zero
    when replicates == 1.
    """

    saving_rate: float
    surplus_rate: float
    mean_g: float
    mean_f: float
    mean_tau: float
    std_g: float
    std_f: float
    std_tau: float
    replicates: int


@dataclass(frozen=True)
class GiniSeries:
    saving_rate: float
    surplus_rate: float
    times: tuple[int, ...]
    g_values: tuple[float, ...]


def replicate_seed(base_seed: int, lambda_index: int, gamma_index: int,
                   replicate: int) -> int:
    """Stable 64-bit child seed for one replicate of one grid cell."""
    packed = struct.pack("<QQQQ", base_seed, lambda_index, gamma_index, replicate)
    return int.from_bytes(hashlib.blake2b(packed, digest_size=8).digest(), "little")


def _resolve_workers(workers: int | None) -> int:
    # explicit argument, else KINEX_THREADS, else all cores; never more than the cores
    cores = os.cpu_count() or 1
    if workers is None:
        env = os.environ.get("KINEX_THREADS")
        if not env:
            return cores
        try:
            workers = int(env)
        except ValueError:
            raise ConfigError(f"KINEX_THREADS must be an integer, got {env!r}") from None
    return max(1, min(int(workers), cores))


def _replicate_metrics(spec: SweepSpec, li: int, gi: int, r: int) -> tuple[float, float, float]:
    lam = spec.lambda_values[li]
    gam = spec.gamma_values[gi]
    try:
        params = SimulationParams(
            n_agents=spec.n_agents, saving_rate=lam, surplus_rate=gam,
            t_max=spec.t_max, seed=replicate_seed(spec.base_seed, li, gi, r),
            snapshot_times=(spec.t1, spec.t2),
        )
        result = run_simulation(params)
        g = gini(result.snapshots[spec.t2])
        f = total_exchange(result.cumulative_pool, spec.t_max)
        tau = kendall_tau(result.snapshots[spec.t1], result.snapshots[spec.t2])
    except Exception as exc:
        raise RuntimeError(
            f"sweep cell lambda={lam} gamma={gam} replicate={r} failed: {exc}"
        ) from exc
    return g, f, tau


def _job_args(spec: SweepSpec):
    for li in range(len(spec.lambda_values)):
        for gi in range(len(spec.gamma_values)):
            for r in range(spec.replicates):
                yield spec, li, gi, r


def run_sweep(spec: SweepSpec, workers: int | None = None) -> list[SweepCell]:
    """Evaluate the full grid; rows ordered lambda-major, then gamma.

    ``workers`` overrides the KINEX_THREADS / cpu_count default; either is
    capped at ``os.cpu_count()``. Results are identical for any worker count.
    """
    n_cells = len(spec.lambda_values) * len(spec.gamma_values)
    seeds = [replicate_seed(spec.base_seed, li, gi, r)
             for _, li, gi, r in _job_args(spec)]
    if len(set(seeds)) != len(seeds):
        raise RuntimeError("replicate seed collision; choose a different base_seed")

    n_jobs = n_cells * spec.replicates
    n_workers = min(_resolve_workers(workers), n_jobs)
    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            chunk = max(1, n_jobs // (4 * n_workers))
            outcomes = list(pool.map(_replicate_metrics,
                                     *zip(*_job_args(spec)), chunksize=chunk))
    else:
        outcomes = [_replicate_metrics(*args) for args in _job_args(spec)]

    cells = []
    pos = 0
    for li, lam in enumerate(spec.lambda_values):
        for gi, gam in enumerate(spec.gamma_values):
            block = outcomes[pos:pos + spec.replicates]
            pos += spec.replicates
            gs = np.array([b[0] for b in block])
            fs = np.array([b[1] for b in block])
            taus = np.array([b[2] for b in block])
            cells.append(SweepCell(
                saving_rate=lam, surplus_rate=gam,
                mean_g=float(gs.mean()), mean_f=float(fs.mean()),
                mean_tau=float(taus.mean()),
                std_g=float(gs.std()), std_f=float(fs.std()),
                std_tau=float(taus.std()),
                replicates=spec.replicates,
            ))
    return cells


def gini_time_series(params: SimulationParams, sample_times) -> GiniSeries:
    """Run once and evaluate the Gini index at each sample time.

    Time 0 is allowed and evaluates the all-equal initial state (Gini 0).
    """
    times = tuple(int(t) for t in sample_times)
    run_params = SimulationParams(
        n_agents=params.n_agents, saving_rate=params.saving_rate,
        surplus_rate=params.surplus_rate, initial_asset=params.initial_asset,
        t_max=params.t_max, seed=params.seed, snapshot_times=times,
    )
    result = run_simulation(run_params)
    g_values = tuple(gini(result.snapshots[t]) for t in times)
    return GiniSeries(saving_rate=params.saving_rate, surplus_rate=params.surplus_rate,
                      times=times, g_values=g_values)
