"""Parameter-grid execution over (saving_rate, surplus_rate) with replicates.

Each grid cell runs ``replicates`` independent simulations whose seeds are
derived from (base_seed, lambda-index, gamma-index, replicate-index) via an
8-byte BLAKE2b hash, so every cell owns a stable random stream. Each
replicate is scored by :func:`run_indexes`: the Gini index of the t2
snapshot, the flow from the accumulated pool over t_max, and the rank
correlation between the t1 and t2 snapshots.

Cells and replicates are embarrassingly parallel: each replicate is one
job on a thread pool, and the aggregation always reduces results in
(lambda-index, gamma-index, replicate-index) order, so the cells are
bit-identical regardless of scheduling. The C kernel draws and exchanges
without the GIL, so threads run it in parallel; the Python fallback gets no
speed-up from them. Each worker thread reuses one set of draw buffers for
all its runs. KINEX_THREADS sets the worker count when the caller passes
none; the count never exceeds ``os.cpu_count()``.
"""

from __future__ import annotations

import hashlib
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _backend
from .errors import ConfigError
from .exchange import RunResult, SimulationParams, _is_integer, run_simulation
from .metrics import gini, kendall_tau, total_exchange


def resolve_times(t_max: int, t1: int | None, t2: int | None) -> tuple[int, int]:
    """Return (t1, t2); t2 defaults to t_max, t1 to round(0.99 * t_max) below t2.

    Raises ValueError unless all three are integers with 0 <= t1 < t2 <= t_max.
    """
    if t2 is None:
        t2 = t_max
    if t1 is None and _is_integer(t_max) and _is_integer(t2):
        t1 = min(round(0.99 * t_max), t2 - 1)
    if not all(_is_integer(t) for t in (t_max, t1, t2)) or not 0 <= t1 < t2 <= t_max:
        raise ValueError(f"need integers 0 <= t1 < t2 <= t_max, got t1={t1!r}, "
                         f"t2={t2!r}, t_max={t_max!r}")
    return int(t1), int(t2)


def run_indexes(result: RunResult, t1: int, t2: int) -> tuple[float, float, float]:
    """One run's (g, f, tau): Gini at t2, flow over t_max, Kendall tau from t1 to t2."""
    t2_assets = result.snapshots[t2]
    return (gini(t2_assets), total_exchange(result.cumulative_pool, result.params.t_max),
            kendall_tau(result.snapshots[t1], t2_assets))


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition; the defaults are those of ``kinex sweep``.

    t1/t2 default as in :func:`resolve_times`. Each (lambda, gamma) must
    make a valid :class:`SimulationParams` with the shared fields.
    """

    lambda_values: tuple[float, ...] = tuple(round(0.05 * k, 2) for k in range(1, 20))
    gamma_values: tuple[float, ...] = (0.0, 0.1, 0.5, 1.0)
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
        t1, t2 = resolve_times(self.t_max, self.t1, self.t2)
        object.__setattr__(self, "t1", t1)
        object.__setattr__(self, "t2", t2)
        if not _is_integer(self.replicates) or self.replicates < 1:
            raise ValueError(f"replicates must be an integer >= 1, got {self.replicates!r}")
        if not _is_integer(self.base_seed) or not 0 <= self.base_seed < 2**64:
            raise ValueError(f"base_seed must be a 64-bit unsigned integer, got {self.base_seed!r}")
        for lam in self.lambda_values:
            for gam in self.gamma_values:
                SimulationParams(n_agents=self.n_agents, saving_rate=lam, surplus_rate=gam,
                                 t_max=self.t_max, snapshot_times=(t1, t2))


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


def run_sweep(spec: SweepSpec, workers: int | None = None) -> list[SweepCell]:
    """Evaluate the full grid; rows ordered lambda-major, then gamma.

    ``workers`` overrides the KINEX_THREADS / cpu_count default; either is
    capped at ``os.cpu_count()``. Results are identical for any worker count.
    """
    jobs = [(li, gi, r, replicate_seed(spec.base_seed, li, gi, r))
            for li in range(len(spec.lambda_values))
            for gi in range(len(spec.gamma_values)) for r in range(spec.replicates)]
    if len({seed for *_, seed in jobs}) != len(jobs):
        raise RuntimeError("replicate seed collision; choose a different base_seed")

    def replicate_metrics(li: int, gi: int, r: int, seed: int) -> tuple[float, float, float]:
        lam = spec.lambda_values[li]
        gam = spec.gamma_values[gi]
        try:
            params = SimulationParams(
                n_agents=spec.n_agents, saving_rate=lam, surplus_rate=gam,
                t_max=spec.t_max, seed=seed, snapshot_times=(spec.t1, spec.t2),
            )
            return run_indexes(run_simulation(params), spec.t1, spec.t2)
        except Exception as exc:
            raise RuntimeError(f"sweep cell lambda={lam} gamma={gam} replicate={r} "
                               f"failed: {str(exc) or type(exc).__name__}") from exc

    # once here: concurrent first calls would race to build the kernel and could warn twice
    _backend._resolve_backend()
    with ThreadPoolExecutor(max_workers=min(_resolve_workers(workers), len(jobs)),
                            initializer=_backend._reuse_draw_buffers) as pool:
        # a failed job ends the map, which cancels the jobs not yet started
        outcomes = list(pool.map(replicate_metrics, *zip(*jobs)))

    cells = []
    for pos in range(0, len(jobs), spec.replicates):
        li, gi, _, _ = jobs[pos]
        gs, fs, taus = (np.array(v) for v in zip(*outcomes[pos:pos + spec.replicates]))
        cells.append(SweepCell(
            saving_rate=spec.lambda_values[li], surplus_rate=spec.gamma_values[gi],
            mean_g=float(gs.mean()), mean_f=float(fs.mean()),
            mean_tau=float(taus.mean()),
            std_g=float(gs.std()), std_f=float(fs.std()),
            std_tau=float(taus.std()),
            replicates=spec.replicates,
        ))
    return cells
