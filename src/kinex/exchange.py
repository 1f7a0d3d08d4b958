"""Pairwise wealth-exchange kernel and full simulation runs.

Two agents are drawn uniformly at random each tick. Both withhold a
fraction ``saving_rate`` (lambda) of their assets. The poorer agent stakes
its whole surplus, ``(1 - lambda) * m_p``; the richer stakes the same
amount plus a fraction ``surplus_rate`` (gamma) of the surplus gap,
``(1 - lambda) * (m_p + gamma * (m_r - m_p))``. The combined pool is then
split at a uniform random fraction epsilon: the agent in position i
receives ``eps * pool``, the agent in position j the rest. gamma = 0
recovers the rule where both sides stake only the poorer surplus (which
slowly condenses all wealth into one agent); gamma = 1 recovers the rule
where both sides stake their full surplus.

Determinism: all randomness comes from ``numpy.random.Generator`` backed
by PCG64, seeded with the run seed. :func:`_draw_block` defines the stream:
fixed blocks of ``_BLOCK`` steps (pair indices i, then offsets j, then
epsilons), so a given (seed, t_max) always sees the same stream regardless
of snapshot schedule. ``_BLOCK`` and that draw order are part of the
reproducibility contract; where snapshots split a block is not. The rule
and its float operations have one definition, :func:`_exchange`. Both are
the references any faster kernel must match bit for bit. Seed 0 is legal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _backend
from .params import SimulationParams


# Random draws are made in blocks of this many steps to keep the inner
# loop free of generator calls. Part of the reproducibility contract:
# changing it changes golden outputs.
_BLOCK = 1 << 17


@dataclass(frozen=True)
class RunResult:
    """Snapshots plus the accumulated pool of one run.

    ``snapshots`` maps snapshot time -> copy of the asset vector after
    that many exchanges (time 0 = initial state). ``cumulative_pool`` is
    the plain left-to-right sum of per-step pools.
    """

    snapshots: dict[int, np.ndarray]
    cumulative_pool: float
    params: SimulationParams

    def __post_init__(self):
        if not math.isfinite(self.cumulative_pool):
            raise ValueError(f"the run overflowed: cumulative_pool is {self.cumulative_pool}")
        if self.cumulative_pool < 0:
            raise ValueError("cumulative_pool must be non-negative")


def _draw_block(rng: np.random.Generator, n: int,
                size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw ``size`` steps in contract order: all i, then all j, then all eps.

    j is drawn from the n - 1 agents other than i. This defines the stream:
    the C draws of ``_kernel.c`` reproduce these values and the generator
    state they leave, and ``_backend`` holds them to it on load.
    """
    ii = rng.integers(0, n, size=size)
    jj = rng.integers(0, n - 1, size=size)
    ee = rng.random(size)
    jj += jj >= ii
    return ii, jj, ee


def _exchange(assets: np.ndarray, ii: np.ndarray, jj: np.ndarray, ee: np.ndarray,
              saving_rate: float, surplus_rate: float, cumulative: float) -> float:
    """Apply the exchanges (ii[k], jj[k], ee[k]) in order to float64 ``assets``, in place.

    Returns ``cumulative`` plus each step's pool, added left to right. New
    values are sums of non-negative terms, so assets never go negative.
    """
    lam = saving_rate
    gam = surplus_rate
    oml = 1.0 - lam
    keep = oml * (1.0 - gam)  # the richer side's withheld share of the gap
    m = assets.tolist()
    for i, j, eps in zip(memoryview(ii), memoryview(jj), memoryview(ee)):
        mi = m[i]
        mj = m[j]
        if mi <= mj:
            gap = mj - mi
            pool = oml * (2.0 * mi + gam * gap)
            m[i] = lam * mi + eps * pool
            m[j] = lam * mj + keep * gap + (1.0 - eps) * pool
        else:
            gap = mi - mj
            pool = oml * (2.0 * mj + gam * gap)
            m[i] = lam * mi + keep * gap + eps * pool
            m[j] = lam * mj + (1.0 - eps) * pool
        cumulative += pool
    assets[:] = m
    return cumulative


def run_simulation(params: SimulationParams) -> RunResult:
    """Run ``t_max`` pairwise exchanges from the all-equal initial state.

    Each tick samples a fresh pair and a fresh epsilon. Asset copies are
    recorded at every requested snapshot time and the per-step pool is
    accumulated into a single scalar. Two runs with identical params are
    bit-identical.
    """
    n = params.n_agents
    t_max = params.t_max
    rng = np.random.default_rng(params.seed)
    backend = _backend._resolve_backend()
    buffers = _backend._draw_buffers()

    assets = np.full(n, params.initial_asset)
    snapshots: dict[int, np.ndarray] = {}
    snap_iter = iter(params.snapshot_times)
    next_snap = next(snap_iter, t_max + 1)  # t_max + 1 = "none left"

    cumulative = 0.0
    t = 0
    while t < t_max:
        block = min(_BLOCK, t_max - t)
        ii, jj, ee = backend.draw(rng, n, block, buffers)
        start = t
        end = t + block
        while t < end:
            # steps t+1 .. stop, up to the next snapshot (an empty segment for time 0)
            stop = min(end, next_snap)
            seg = slice(t - start, stop - start)
            cumulative = backend.exchange(assets, ii[seg], jj[seg], ee[seg],
                                          params.saving_rate, params.surplus_rate,
                                          cumulative)
            t = stop
            if t == next_snap:
                snapshots[t] = assets.copy()
                next_snap = next(snap_iter, t_max + 1)

    return RunResult(snapshots=snapshots, cumulative_pool=cumulative, params=params)
