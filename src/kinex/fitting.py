"""Ordinary least squares layer for the emergent sweep relations.

Two relations are extracted from an aggregated sweep table: the
flow-to-Gini ratio f/g against the log of the effective stake rate
(1 - lambda) * gamma, and the rank correlation tau against the flow f.
Both are fitted with a free intercept; pure functions, thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DegenerateDataError
from .params import SweepCell


class XYPoint(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


def _pairwise_sum(values: list[float]) -> float:
    """The float64 sum numpy's ``add.reduce`` gives, bit for bit.

    numpy adds its identity 0.0 to a pairwise sum: below 8 values a plain
    loop, up to 128 values eight interleaved partial sums, and above that
    the two halves split at a multiple of 8. So -0.0 values sum to 0.0.
    """
    def block(lo: int, n: int) -> float:
        if n < 8:
            total = 0.0
            for v in values[lo:lo + n]:
                total += v
            return total
        if n <= 128:
            r = values[lo:lo + 8]
            end = lo + n - n % 8
            for i in range(lo + 8, end, 8):
                for k in range(8):
                    r[k] += values[i + k]
            total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
            for v in values[end:lo + n]:
                total += v
            return total
        half = n // 2
        half -= half % 8
        return block(lo, half) + block(lo + half, n - half)

    return 0.0 + block(0, len(values))


def fit_linear(points) -> FitResult:
    """Least squares y = slope * x + intercept with R^2 = 1 - SSres/SStot.

    A constant-y input has SStot = 0 and is reported as a perfect fit
    (R^2 = 1). All-identical x values are a singular fit. The sums are
    numpy's (:func:`_pairwise_sum`) and each square is ``d * d``, as
    ``ndarray ** 2`` computes it, so the fit matches the numpy formulation
    of the same expressions bit for bit.
    """
    pts = [XYPoint(float(p[0]), float(p[1])) for p in points]
    n = len(pts)
    if n < 2:
        raise ValueError(f"fit_linear needs at least 2 points, got {n}")
    x = [p.x for p in pts]
    y = [p.y for p in pts]
    if not all(map(math.isfinite, x + y)):
        raise ValueError("fit_linear requires finite coordinates")
    # before the mean: the mean of three 0.1s is not 0.1, so sxx would not be 0
    if all(v == x[0] for v in x):
        raise DegenerateDataError("all x values identical; fit is singular")
    x_mean = _pairwise_sum(x) / n
    y_mean = _pairwise_sum(y) / n
    dx = [v - x_mean for v in x]
    dy = [v - y_mean for v in y]
    sxx = _pairwise_sum([d * d for d in dx])
    if sxx == 0.0:  # distinct x so close together that their squares underflow
        raise DegenerateDataError("x values too close together; fit is singular")
    slope = _pairwise_sum([a * b for a, b in zip(dx, dy)]) / sxx
    intercept = y_mean - slope * x_mean
    residuals = [v - (slope * u + intercept) for u, v in zip(x, y)]
    ss_res = _pairwise_sum([d * d for d in residuals])
    ss_tot = _pairwise_sum([d * d for d in dy])
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return FitResult(slope=slope, intercept=intercept, r_squared=r_squared, n_points=n)


def flow_gini_ratio_points(cells: list[SweepCell]) -> tuple[list[XYPoint], list[SweepCell]]:
    """Map cells to (ln((1 - lambda) * gamma), mean_f / mean_g).

    Cells with gamma = 0, lambda = 1, or a non-positive mean Gini have no
    point on this axis; they are returned in the exclusion list instead of
    raising.
    """
    points: list[XYPoint] = []
    excluded: list[SweepCell] = []
    for cell in cells:
        stake = (1.0 - cell.saving_rate) * cell.surplus_rate
        if stake <= 0.0 or cell.mean_g <= 0.0:
            excluded.append(cell)
            continue
        points.append(XYPoint(math.log(stake), cell.mean_f / cell.mean_g))
    return points, excluded


def tau_vs_flow_points(cells: list[SweepCell]) -> list[XYPoint]:
    """Map cells to (mean_f, mean_tau)."""
    return [XYPoint(cell.mean_f, cell.mean_tau) for cell in cells]
