import math

import numpy as np
import pytest

from kinex import (DegenerateDataError, SweepCell, fit_linear,
                   flow_gini_ratio_points, tau_vs_flow_points)


def make_cell(lam, gam, g=0.3, f=0.5, tau=0.4):
    return SweepCell(saving_rate=lam, surplus_rate=gam, mean_g=g, mean_f=f,
                     mean_tau=tau, std_g=0.0, std_f=0.0, std_tau=0.0, replicates=1)


class TestFitLinear:
    def test_exact_line_is_recovered(self):
        pts = [(x, 2.0 * x + 1.0) for x in (-3.0, 0.5, 1.0, 4.0, 9.0)]
        fit = fit_linear(pts)
        assert fit.slope == pytest.approx(2.0, rel=1e-12)
        assert fit.intercept == pytest.approx(1.0, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_points == 5

    def test_zero_covariance_hand_case(self):
        fit = fit_linear([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)])
        assert fit.slope == 0.0
        assert fit.intercept == pytest.approx(1 / 3, rel=1e-12)
        assert fit.r_squared == 0.0

    def test_constant_y_is_a_perfect_fit(self):
        fit = fit_linear([(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)])
        assert fit.slope == 0.0
        assert fit.intercept == 5.0
        assert fit.r_squared == 1.0

    def test_point_order_does_not_matter(self):
        rng = np.random.default_rng(6)
        pts = [(float(x), float(y)) for x, y in rng.random((30, 2))]
        fit_a = fit_linear(pts)
        fit_b = fit_linear(list(reversed(pts)))
        assert fit_a.slope == pytest.approx(fit_b.slope, rel=1e-12)
        assert fit_a.intercept == pytest.approx(fit_b.intercept, rel=1e-12)
        assert fit_a.r_squared == pytest.approx(fit_b.r_squared, rel=1e-12)

    def test_halving_x_doubles_slope(self):
        # fitting against ln(sqrt(s)) instead of ln(s) doubles the slope and
        # leaves intercept and R^2 unchanged
        rng = np.random.default_rng(7)
        x = rng.uniform(-4.0, 0.0, size=25)
        y = 0.5 * x + 2.0 + rng.normal(0.0, 0.05, size=25)
        full = fit_linear(list(zip(x, y)))
        halved = fit_linear(list(zip(x / 2.0, y)))
        assert halved.slope == pytest.approx(2.0 * full.slope, rel=1e-9)
        assert halved.intercept == pytest.approx(full.intercept, rel=1e-9)
        assert halved.r_squared == pytest.approx(full.r_squared, rel=1e-9)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            fit_linear([(1.0, 2.0)])
        with pytest.raises(DegenerateDataError):
            fit_linear([(1.0, 2.0), (1.0, 3.0)])
        with pytest.raises(ValueError):
            fit_linear([(1.0, float("nan")), (2.0, 3.0)])

    @pytest.mark.parametrize("x", [0.1, 0.3])
    def test_identical_x_is_singular_whatever_their_mean_rounds_to(self, x):
        # the mean of three 0.1s is 0.10000000000000002, which once left a
        # tiny nonzero sxx and a slope of 5.33
        with pytest.raises(DegenerateDataError, match="identical"):
            fit_linear([(x, 0.5), (x, 0.6), (x, 0.8)])

    def test_distinct_x_whose_spread_underflows_are_singular(self):
        with pytest.raises(DegenerateDataError, match="too close"):
            fit_linear([(1e-200, 0.5), (2e-200, 0.6)])


class TestFlowGiniRatioPoints:
    def test_unit_stake_maps_to_origin(self):
        points, excluded = flow_gini_ratio_points([make_cell(0.0, 1.0, g=0.4, f=0.8)])
        assert not excluded
        assert points[0].x == 0.0
        assert points[0].y == pytest.approx(2.0, rel=1e-12)

    def test_log_axis_arithmetic(self):
        points, _ = flow_gini_ratio_points([make_cell(0.75, 0.5, g=0.36, f=0.3)])
        assert points[0].x == pytest.approx(math.log(0.125), rel=1e-12)
        assert points[0].y == pytest.approx(0.3 / 0.36, rel=1e-12)

    def test_zero_stake_cells_are_excluded_not_raised(self):
        cells = [make_cell(0.5, 0.0), make_cell(1.0, 0.5), make_cell(0.5, 0.5)]
        points, excluded = flow_gini_ratio_points(cells)
        assert len(points) == 1
        assert {(c.saving_rate, c.surplus_rate) for c in excluded} == \
               {(0.5, 0.0), (1.0, 0.5)}

    def test_zero_gini_cells_are_excluded(self):
        points, excluded = flow_gini_ratio_points([make_cell(0.5, 0.5, g=0.0)])
        assert not points
        assert len(excluded) == 1


class TestTauVsFlowPoints:
    def test_passthrough(self):
        points = tau_vs_flow_points([make_cell(0.2, 0.4, f=0.0, tau=0.37)])
        assert points == [(0.0, 0.37)]

    def test_empty_cells_give_empty_points(self):
        assert tau_vs_flow_points([]) == []
