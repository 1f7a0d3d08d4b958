"""Evaluation indexes for asset vectors.

gini measures disparity, total_exchange the time-averaged flow of a run,
kendall_tau the rank persistence between two snapshots (the inverse of
turnover); run_indexes scores one run with all three. histogram and
gamma_fit characterize the distribution shape.
All functions are pure and thread-safe.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import _backend
from .errors import DegenerateDataError

if TYPE_CHECKING:
    from .exchange import RunResult


@dataclass(frozen=True)
class GammaFit:
    """Method-of-moments gamma parameters; shape * scale == sample mean."""

    shape: float
    scale: float


@dataclass(frozen=True)
class Histogram:
    bin_edges: np.ndarray  # ascending, length bins + 1
    counts: np.ndarray     # non-negative ints, length bins


def gini(assets) -> float:
    """Gini index of a vector of non-negative assets.

    Sorts ascending into r and returns
    ``2 * sum(i * r_i) / (n * sum(r)) - (n + 1) / n`` with 1-based i.
    0 for perfect equality, (n-1)/n when one agent holds everything.
    """
    a = np.asarray(assets, dtype=float)
    if a.ndim != 1 or a.size < 2:
        raise ValueError(f"gini needs a 1-d vector of length >= 2, got shape {a.shape}")
    r = np.sort(a)
    if not (r[0] >= 0.0 and r[-1] < np.inf):  # numpy sorts nan last and -inf first
        raise ValueError("gini requires finite, non-negative assets")
    total = float(r.sum())  # summed after sorting: permutation-invariant bit for bit
    if total <= 0.0:
        raise DegenerateDataError("gini is undefined for an all-zero vector")
    n = a.size
    if not np.isfinite(2.0 * n * total):
        raise ValueError(f"gini would overflow: n * sum(assets) is {n} * {total}")
    ranks = np.arange(1, n + 1, dtype=float)
    return float(2.0 * (ranks * r).sum() / (n * total) - (n + 1) / n)


def total_exchange(cumulative_pool: float, t_max: int) -> float:
    """Time-averaged flow: the accumulated pool divided by ``2 * t_max``."""
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    if cumulative_pool < 0:
        raise ValueError(f"cumulative_pool must be non-negative, got {cumulative_pool}")
    return cumulative_pool / (2.0 * t_max)


def _inversions(ranks: np.ndarray) -> int:
    """Number of pairs i < j with ranks[i] > ranks[j], for ranks in [0, n).

    Bottom-up merge: at each level, pairs of sorted neighbouring blocks of
    a power-of-two width are compared with one ``searchsorted`` over the
    whole array (a row offset keeps each block apart), then merged. Pad
    entries equal n, above every rank, so they add no inversion.
    """
    n = ranks.size
    size = 1 << (n - 1).bit_length()
    a = np.full(size, n, dtype=np.int64)
    a[:n] = ranks
    inversions = 0
    width = 1
    while width < size:
        rows = a.reshape(-1, 2 * width)
        n_rows = rows.shape[0]
        offset = np.arange(n_rows, dtype=np.int64)[:, None] * (n + 1)
        left = (rows[:, :width] + offset).ravel()
        right = (rows[:, width:] + offset).ravel()
        # left entries <= each right entry, counted from the start of the array
        at_most = np.searchsorted(left, right, side="right")
        # a right entry in row r has (r + 1) * width left entries up to its row's end
        inversions += width * width * (n_rows * (n_rows + 1) // 2) - int(at_most.sum())
        a = np.sort(rows, axis=1).ravel()
        width *= 2
    return inversions


def _pairs_within(counts: np.ndarray) -> int:
    # pairs that share a value, from the number of entries of each value
    return int((counts * (counts - 1) // 2).sum())


def _tau_counts(x: np.ndarray, y: np.ndarray) -> tuple[int, int, int, int]:
    """Agent pairs of two float vectors that are discordant, tied in x, tied
    in y and tied in both: the reference that the C counts must equal.

    Follows Knight (1966): sort the agents by x, then y, and count
    inversions of y's ranks, with O(n log^2 n) numpy work.
    """
    _, x_rank, x_counts = np.unique(x, return_inverse=True, return_counts=True)
    _, y_rank, y_counts = np.unique(y, return_inverse=True, return_counts=True)
    key = x_rank * len(y_counts) + y_rank  # orders agents by x, then y
    _, key_counts = np.unique(key, return_counts=True)
    return (_inversions(y_rank[np.argsort(key)]), _pairs_within(x_counts),
            _pairs_within(y_counts), _pairs_within(key_counts))


def kendall_tau(assets_t1, assets_t2) -> float:
    """Kendall rank correlation between two snapshots of the same agents.

    (K - L) / (n * (n - 1) / 2) where K counts agent pairs whose order
    agrees between the snapshots and L pairs that disagree. Pairs tied in
    either snapshot contribute to neither (the denominator stays the full
    pair count). Two all-equal snapshots have no comparable pair; that
    degenerate tau is defined as 0 and warned about.

    The pairs are counted by Knight's (1966) method: in C without the GIL,
    by radix sorts and a Fenwick tree in O(n log n), or, where the C unit is
    unavailable, by the numpy reference :func:`_tau_counts` in O(n log^2 n).
    Pair counts are exact integers, so the result does not depend on the
    input order or backend.
    """
    x = np.asarray(assets_t1, dtype=float)
    y = np.asarray(assets_t2, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"snapshot length mismatch: {x.shape} vs {y.shape}")
    if x.ndim != 1 or x.size < 2:
        raise ValueError("kendall_tau needs 1-d vectors of length >= 2")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("kendall_tau requires finite assets")
    n_pairs = x.size * (x.size - 1) // 2
    discordant, ties_x, ties_y, ties_both = _backend._resolve_backend().tau_counts(x, y)
    comparable = n_pairs - ties_x - ties_y + ties_both
    if comparable == 0:
        warnings.warn("all agent pairs are tied; tau defined as 0", stacklevel=2)
        return 0.0
    concordant = comparable - discordant
    return (concordant - discordant) / n_pairs


def run_indexes(result: RunResult, t1: int, t2: int) -> tuple[float, float, float]:
    """One run's (g, f, tau): Gini at t2, flow over t_max, Kendall tau from t1 to t2."""
    t2_assets = result.snapshots[t2]
    return (gini(t2_assets), total_exchange(result.cumulative_pool, result.params.t_max),
            kendall_tau(result.snapshots[t1], t2_assets))


def histogram(assets, bins: int = 50) -> Histogram:
    """Linear-bin histogram of an asset vector over [0, max(assets)].

    The top edge is inclusive. The range widens to [0, 1] when no asset is
    positive, to keep the edges ascending.
    """
    a = np.asarray(assets, dtype=float)
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if a.ndim != 1 or a.size == 0:
        raise ValueError("histogram needs a non-empty 1-d vector")
    hi = float(a.max())
    counts, edges = np.histogram(a, bins=bins, range=(0.0, hi if hi > 0.0 else 1.0))
    return Histogram(bin_edges=edges, counts=counts)


def gamma_fit(assets) -> GammaFit:
    """Method-of-moments gamma fit: shape = mean^2/var, scale = var/mean.

    Variance uses the 1/n (population) normalization. Entries must be
    strictly positive; callers exclude zeros beforehand.
    """
    a = np.asarray(assets, dtype=float)
    if a.ndim != 1 or a.size < 2:
        raise ValueError("gamma_fit needs a 1-d vector of length >= 2")
    if not np.all(np.isfinite(a)) or np.any(a <= 0):
        raise ValueError("gamma_fit requires strictly positive, finite entries")
    if a.max() > np.sqrt(np.finfo(float).max / a.size):  # checked before numpy squares them
        raise ValueError("gamma_fit: entries this large overflow the sample moments")
    mean = float(a.mean())
    var = float(a.var())
    if var <= 0.0:
        raise DegenerateDataError("gamma_fit is undefined for a zero-variance sample")
    return GammaFit(shape=mean * mean / var, scale=var / mean)
