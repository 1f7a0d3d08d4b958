"""Parameter-grid execution over (saving_rate, surplus_rate) with replicates.

Each grid cell runs ``replicates`` independent simulations whose seeds are
derived from (base_seed, lambda-index, gamma-index, replicate-index) via an
8-byte BLAKE2b hash, so every cell owns a stable random stream. Each
replicate is scored by :func:`kinex.metrics.run_indexes`: the Gini index
of the t2 snapshot, the flow from the accumulated pool over t_max, and the
rank correlation between the t1 and t2 snapshots.

Cells and replicates are embarrassingly parallel: each replicate is one
job. The calling thread and ``workers - 1`` more take job indices in order
from one counter, and each outcome is stored by index; the aggregation
reduces them in (lambda-index, gamma-index, replicate-index) order with
numpy's mean and std bits, so the cells are bit-identical regardless of
scheduling. A run is one C call without the GIL, so threads run in
parallel; the Python fallback gets no speed-up from them. KINEX_THREADS, a
positive integer in ASCII digits, sets the worker count when the caller
passes none; the count never exceeds ``os.cpu_count()``.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import threading

from . import _backend
from .errors import ConfigError
from .exchange import run_simulation
from .fitting import _pairwise_sum
from .metrics import run_indexes
from .params import SimulationParams, SweepCell, SweepSpec


def replicate_seed(base_seed: int, lambda_index: int, gamma_index: int,
                   replicate: int) -> int:
    """Stable 64-bit child seed for one replicate of one grid cell."""
    packed = struct.pack("<QQQQ", base_seed, lambda_index, gamma_index, replicate)
    return int.from_bytes(hashlib.blake2b(packed, digest_size=8).digest(), "little")


def _mean_std(values: tuple[float, ...]) -> tuple[float, float]:
    """numpy's ``mean`` and ``std`` (1/R normalization) of float64 values, bit
    for bit: the mean is their pairwise sum over R, and the std the square
    root of the pairwise sum of ``(x - mean) * (x - mean)`` over R."""
    count = len(values)
    mean = _pairwise_sum(list(values)) / count
    return mean, math.sqrt(_pairwise_sum([(x - mean) * (x - mean) for x in values]) / count)


def _resolve_workers(workers: int | None) -> int:
    # explicit argument, else KINEX_THREADS, else all cores; never more than the cores
    cores = os.cpu_count() or 1
    if workers is None:
        env = os.environ.get("KINEX_THREADS")
        if not env:
            return cores
        digits = env.lstrip("0")
        if not (env.isascii() and env.isdigit() and digits):
            raise ConfigError(f"KINEX_THREADS must be a positive integer in ASCII digits, "
                              f"got {env!r}")
        # int() refuses over 4300 digits; a count with more digits than the
        # core count is more workers than cores anyway
        workers = int(digits) if len(digits) <= len(str(cores)) else cores
    return max(1, min(int(workers), cores))


def run_sweep(spec: SweepSpec, workers: int | None = None) -> list[SweepCell]:
    """Evaluate the full grid; rows ordered lambda-major, then gamma.

    ``workers`` overrides the KINEX_THREADS / cpu_count default; either is
    capped at ``os.cpu_count()``. Results are identical for any worker count.
    After a job fails, or raises KeyboardInterrupt, no new job starts; once
    every worker has stopped, the failure of the lowest job index is raised.
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
    outcomes: list = [None] * len(jobs)
    failures: dict[int, BaseException] = {}  # job index -> what it raised
    lock = threading.Lock()
    taken = 0  # jobs handed out, in index order

    def work() -> None:
        # take the next job until none is left or one has failed
        nonlocal taken
        while True:
            with lock:
                if failures or taken == len(jobs):
                    return
                k = taken
                taken += 1
            try:
                outcomes[k] = replicate_metrics(*jobs[k])
            except BaseException as exc:  # raised by run_sweep once every worker is done
                with lock:
                    failures[k] = exc
                return

    threads = [threading.Thread(target=work)
               for _ in range(min(_resolve_workers(workers), len(jobs)) - 1)]
    for thread in threads:
        thread.start()
    try:
        work()
    finally:
        with lock:
            taken = len(jobs)  # however the main thread left, start no new job
        for thread in threads:
            thread.join()
    if failures:
        raise failures[min(failures)]

    cells = []
    for pos in range(0, len(jobs), spec.replicates):
        li, gi, _, _ = jobs[pos]
        (mean_g, std_g), (mean_f, std_f), (mean_tau, std_tau) = (
            _mean_std(values) for values in zip(*outcomes[pos:pos + spec.replicates]))
        cells.append(SweepCell(
            saving_rate=spec.lambda_values[li], surplus_rate=spec.gamma_values[gi],
            mean_g=mean_g, mean_f=mean_f, mean_tau=mean_tau,
            std_g=std_g, std_f=std_f, std_tau=std_tau,
            replicates=spec.replicates,
        ))
    return cells
