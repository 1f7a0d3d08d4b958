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
by PCG64, seeded with the run seed. Draws are consumed in fixed blocks
(pair indices i, then offsets j, then epsilons) of ``_BLOCK`` steps, so a
given (seed, t_max) always sees the same stream regardless of snapshot
schedule. ``_BLOCK`` and that draw order are part of the reproducibility
contract; ``_CHUNK``, the number of steps the loop takes from a block at a
time, is not. Seed 0 is legal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Random draws are made in blocks of this many steps to keep the inner
# loop free of generator calls. Part of the reproducibility contract:
# changing it changes golden outputs.
_BLOCK = 1 << 17

# Steps of a block converted to Python lists at a time, which bounds the
# memory held by list copies of the draws. Not part of the contract: any
# value gives the same outputs.
_CHUNK = 4096


@dataclass(frozen=True)
class SimulationParams:
    """Full specification of one simulation run.

    ``t_max`` counts pairwise exchanges (one exchange per tick, not one
    sweep of N exchanges). ``snapshot_times`` must be strictly ascending
    integers in [0, t_max]; time 0 denotes the pre-exchange state.
    """

    n_agents: int
    saving_rate: float
    surplus_rate: float
    initial_asset: float = 1.0
    t_max: int = 100_000
    seed: int = 0
    snapshot_times: tuple[int, ...] = ()

    def __post_init__(self):
        if not _is_integer(self.n_agents) or self.n_agents < 2:
            raise ValueError(f"n_agents must be an integer >= 2, got {self.n_agents!r}")
        if not 0.0 <= self.saving_rate <= 1.0:
            raise ValueError(f"saving_rate must be in [0, 1], got {self.saving_rate!r}")
        if not 0.0 <= self.surplus_rate <= 1.0:
            raise ValueError(f"surplus_rate must be in [0, 1], got {self.surplus_rate!r}")
        if not (math.isfinite(self.initial_asset) and self.initial_asset > 0):
            raise ValueError(f"initial_asset must be positive, got {self.initial_asset!r}")
        if not _is_integer(self.t_max) or self.t_max < 1:
            raise ValueError(f"t_max must be a positive integer, got {self.t_max!r}")
        if not _is_integer(self.seed) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        snaps = tuple(self.snapshot_times)
        for t in snaps:
            if not _is_integer(t) or not 0 <= t <= self.t_max:
                raise ValueError(f"snapshot time {t!r} outside [0, t_max]")
        if any(a >= b for a, b in zip(snaps, snaps[1:])):
            raise ValueError(f"snapshot_times must be strictly ascending: {snaps}")
        for name in ("n_agents", "t_max", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "snapshot_times", tuple(int(t) for t in snaps))


def _is_integer(value) -> bool:
    # numpy integers count; bool, although a subclass of int, does not
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class StepOutcome:
    """Result of one pairwise exchange.

    ``pool`` is the total staked amount
    ``(1 - lambda) * (2 * m_p + gamma * (m_r - m_p))``. ``i``/``j`` are
    optional agent indices for callers that record them; :func:`exchange_step`
    leaves them None, and :func:`run_simulation` builds no StepOutcome.
    """

    epsilon: float
    pool: float
    new_mi: float
    new_mj: float
    i: int | None = None
    j: int | None = None


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
        if self.cumulative_pool < 0:
            raise ValueError("cumulative_pool must be non-negative")


def exchange_step(m_i: float, m_j: float, saving_rate: float, surplus_rate: float,
                  epsilon: float) -> StepOutcome:
    """Apply one exchange between assets ``m_i`` and ``m_j``.

    Which side is the poorer one is decided by comparing the entry values
    (ties make both branches identical). The new values are computed as
    retained share + received share, a sum of non-negative terms, so the
    outputs can never go negative even at float precision.
    """
    for name, v in (("m_i", m_i), ("m_j", m_j)):
        if not (math.isfinite(v) and v >= 0):
            raise ValueError(f"{name} must be finite and non-negative, got {v!r}")
    for name, v in (("saving_rate", saving_rate), ("surplus_rate", surplus_rate),
                    ("epsilon", epsilon)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {v!r}")

    lam = saving_rate
    oml = 1.0 - lam
    gam = surplus_rate
    if m_i <= m_j:
        m_p, m_r = m_i, m_j
    else:
        m_p, m_r = m_j, m_i
    gap = m_r - m_p
    pool = oml * (2.0 * m_p + gam * gap)
    new_poor = lam * m_p
    new_rich = lam * m_r + oml * (1.0 - gam) * gap
    if m_i <= m_j:
        new_mi = new_poor + epsilon * pool
        new_mj = new_rich + (1.0 - epsilon) * pool
    else:
        new_mi = new_rich + epsilon * pool
        new_mj = new_poor + (1.0 - epsilon) * pool
    return StepOutcome(epsilon=epsilon, pool=pool, new_mi=new_mi, new_mj=new_mj)


def sample_pair(rng: np.random.Generator, n_agents: int) -> tuple[int, int]:
    """Draw an ordered pair (i, j), i != j, uniform over all such pairs.

    i is uniform over [0, n); j is uniform over the remaining n-1 agents
    (drawn on [0, n-1) and shifted past i).
    """
    if n_agents < 2:
        raise ValueError(f"need at least 2 agents to sample a pair, got {n_agents}")
    i = int(rng.integers(0, n_agents))
    j = int(rng.integers(0, n_agents - 1))
    if j >= i:
        j += 1
    return i, j


def run_simulation(params: SimulationParams) -> RunResult:
    """Run ``t_max`` pairwise exchanges from the all-equal initial state.

    Each tick samples a fresh pair and a fresh epsilon. Asset copies are
    recorded at every requested snapshot time and the per-step pool is
    accumulated into a single scalar. Two runs with identical params are
    bit-identical.
    """
    n = params.n_agents
    t_max = params.t_max
    lam = params.saving_rate
    gam = params.surplus_rate
    oml = 1.0 - lam
    keep = oml * (1.0 - gam)  # the richer side's withheld share of the gap
    rng = np.random.default_rng(params.seed)

    assets = [float(params.initial_asset)] * n
    snapshots: dict[int, np.ndarray] = {}
    snap_iter = iter(params.snapshot_times)
    next_snap = next(snap_iter, t_max + 1)  # t_max + 1 = "none left"
    if next_snap == 0:
        snapshots[0] = np.array(assets)
        next_snap = next(snap_iter, t_max + 1)

    cumulative = 0.0
    t = 0
    while t < t_max:
        block = min(_BLOCK, t_max - t)
        ii = rng.integers(0, n, size=block)
        jj = rng.integers(0, n - 1, size=block)
        ee = rng.random(block)
        jj += jj >= ii  # j is drawn from the n - 1 agents other than i
        start = t
        end = t + block
        while t < end:
            # steps t+1 .. stop; a chunk never runs past the next snapshot
            stop = min(t + _CHUNK, end, next_snap)
            lo = t - start
            hi = stop - start
            eps_chunk = ee[lo:hi]
            for i, j, eps, fps in zip(ii[lo:hi].tolist(), jj[lo:hi].tolist(),
                                      eps_chunk.tolist(), (1.0 - eps_chunk).tolist()):
                mi = assets[i]
                mj = assets[j]
                if mi <= mj:
                    gap = mj - mi
                    pool = oml * (2.0 * mi + gam * gap)
                    assets[i] = lam * mi + eps * pool
                    assets[j] = lam * mj + keep * gap + fps * pool
                else:
                    gap = mi - mj
                    pool = oml * (2.0 * mj + gam * gap)
                    assets[i] = lam * mi + keep * gap + eps * pool
                    assets[j] = lam * mj + fps * pool
                cumulative += pool
            t = stop
            if t == next_snap:
                snapshots[t] = np.array(assets)
                next_snap = next(snap_iter, t_max + 1)

    return RunResult(snapshots=snapshots, cumulative_pool=cumulative, params=params)
