"""Run, grid and cell specifications, checked on construction.

:class:`SimulationParams` specifies one run, :class:`SweepSpec` a
(lambda, gamma) grid with replicates and :class:`SweepCell` one aggregated
grid point. Their field defaults are those of ``kinex simulate`` and
``kinex sweep``. This module imports no numpy, so the commands that only
read specs or tables (``kinex fit``, ``kinex empirical``) start without it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


def _is_integer(value) -> bool:
    # numpy integers count; bool, although a subclass of int, does not
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    # int, float and numpy numbers count; bool does not
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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
        for name in ("saving_rate", "surplus_rate"):
            value = getattr(self, name)
            if not (_is_real(value) and 0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")
        if not (_is_real(self.initial_asset) and math.isfinite(self.initial_asset)
                and self.initial_asset > 0):
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
        for name in ("saving_rate", "surplus_rate", "initial_asset"):  # so both backends
            object.__setattr__(self, name, float(getattr(self, name)))  # compute in doubles
        object.__setattr__(self, "snapshot_times", tuple(int(t) for t in snaps))


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
