"""Parameter-grid execution over (saving_rate, surplus_rate) with replicates.

Each grid cell runs ``replicates`` independent simulations whose seeds are
derived from (base_seed, lambda-index, gamma-index, replicate-index) via an
8-byte BLAKE2b hash, so every cell owns a stable random stream. Each
replicate is scored by :func:`kinex.metrics.run_indexes`: the Gini index
of the t2 snapshot, the flow from the accumulated pool over t_max, and the
rank correlation between the t1 and t2 snapshots.

Cells and replicates are embarrassingly parallel: each replicate is one
job on a thread pool, and the aggregation always reduces results in
(lambda-index, gamma-index, replicate-index) order, so the cells are
bit-identical regardless of scheduling. The C kernel draws and exchanges
without the GIL, so threads run it in parallel; the Python fallback gets no
speed-up from them. The C draws keep one buffer per thread, so each worker
allocates it once for all its runs. KINEX_THREADS sets the worker count when
the caller passes none; the count never exceeds ``os.cpu_count()``.
"""

from __future__ import annotations

import hashlib
import os
import struct
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import _backend
from .errors import ConfigError
from .exchange import run_simulation
from .metrics import run_indexes
from .params import SimulationParams, SweepCell, SweepSpec


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
    with ThreadPoolExecutor(max_workers=min(_resolve_workers(workers), len(jobs))) as pool:
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
