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

import numpy as np

from .errors import DegenerateDataError
from .sweep import SweepCell


class XYPoint(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


def fit_linear(points) -> FitResult:
    """Least squares y = slope * x + intercept with R^2 = 1 - SSres/SStot.

    A constant-y input has SStot = 0 and is reported as a perfect fit
    (R^2 = 1). All-identical x values are a singular fit.
    """
    pts = [XYPoint(float(p[0]), float(p[1])) for p in points]
    if len(pts) < 2:
        raise ValueError(f"fit_linear needs at least 2 points, got {len(pts)}")
    x = np.array([p.x for p in pts])
    y = np.array([p.y for p in pts])
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("fit_linear requires finite coordinates")
    # before the mean: the mean of three 0.1s is not 0.1, so sxx would not be 0
    if np.all(x == x[0]):
        raise DegenerateDataError("all x values identical; fit is singular")
    x_mean = x.mean()
    y_mean = y.mean()
    sxx = float(((x - x_mean) ** 2).sum())
    if sxx == 0.0:  # distinct x so close together that their squares underflow
        raise DegenerateDataError("x values too close together; fit is singular")
    slope = float(((x - x_mean) * (y - y_mean)).sum()) / sxx
    intercept = float(y_mean - slope * x_mean)
    ss_res = float(((y - (slope * x + intercept)) ** 2).sum())
    ss_tot = float(((y - y_mean) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return FitResult(slope=slope, intercept=intercept, r_squared=r_squared,
                     n_points=len(pts))


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
