"""The numpy-free sum, fit, percentiles and sweep cells against numpy, bit for bit.

``kinex fit`` and ``kinex empirical`` compute in plain Python so that they
start without numpy, and ``run_sweep`` reduces its cells the same way.
numpy stays the oracle: ``ndarray.sum()``, the least squares fit written
with arrays, ``np.percentile``, ``np.mean`` and ``np.std``. Results are
compared by ``float.hex``, which tells -0.0 from 0.0.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kinex import DegenerateDataError, DerivedRecord, fit_linear, percentile_thresholds
from kinex.fitting import _pairwise_sum
from kinex.sweep import _mean_std

# the lengths at which numpy's pairwise sum changes shape: the plain loop
# below 8, the eight partial sums up to 128, the split above
EDGE_LENGTHS = [0, 1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 135, 136, 137, 255, 256, 257,
                1000, 1031]
# finite doubles from the subnormals to 1e300, signed zeros among them
FLOATS = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


def bits(value) -> str:
    return float(value).hex()


def sized(elements, lengths):
    return st.sampled_from(lengths).flatmap(
        lambda n: st.lists(elements, min_size=n, max_size=n))


def numpy_sum(values) -> float:
    with np.errstate(all="ignore"):  # an overflow to inf is part of the comparison
        return float(np.array(values, dtype=np.float64).sum())


def numpy_fit(points):
    """The fit as numpy arrays compute it: (slope, intercept, r_squared)."""
    x = np.array([float(p[0]) for p in points])
    y = np.array([float(p[1]) for p in points])
    if np.all(x == x[0]):
        raise DegenerateDataError("all x values identical")
    with np.errstate(all="ignore"):
        x_mean = x.mean()
        y_mean = y.mean()
        sxx = float(((x - x_mean) ** 2).sum())
        if sxx == 0.0:
            raise DegenerateDataError("x values too close together")
        slope = float(((x - x_mean) * (y - y_mean)).sum()) / sxx
        intercept = float(y_mean - slope * x_mean)
        ss_res = float(((y - (slope * x + intercept)) ** 2).sum())
        ss_tot = float(((y - y_mean) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return slope, intercept, r_squared


def assert_fit_matches_numpy(points):
    try:
        expected = numpy_fit(points)
    except DegenerateDataError:
        with pytest.raises(DegenerateDataError):
            fit_linear(points)
        return
    fit = fit_linear(points)
    assert list(map(bits, (fit.slope, fit.intercept, fit.r_squared))) == \
        list(map(bits, expected))
    assert fit.n_points == len(points)


class TestPairwiseSum:
    @settings(max_examples=60, deadline=None)
    @given(sized(FLOATS, EDGE_LENGTHS[:-5]))
    @example([-0.0])
    @example([-0.0] * 9)
    @example([-0.0] * 129)
    @example([1e300] * 8 + [-1e300] * 8)
    def test_drawn_values(self, values):
        assert bits(_pairwise_sum(values)) == bits(numpy_sum(values))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.one_of(st.sampled_from(EDGE_LENGTHS),
                                               st.integers(1, 5000)))
    def test_random_vectors(self, seed, n):
        # normals at magnitudes 1e-300 .. 1e300, a few of them signed zeros
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301, n)
        values[rng.random(n) < 0.05] = -0.0
        assert bits(_pairwise_sum(values.tolist())) == bits(numpy_sum(values))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(EDGE_LENGTHS[1:]))
    def test_one_magnitude(self, seed, n):
        # terms of one scale, where the order of the additions shows in the last bits
        values = np.random.default_rng(seed).random(n)
        assert bits(_pairwise_sum(values.tolist())) == bits(numpy_sum(values))


# replicate counts on either side of the 8 and 128 boundaries of the pairwise sum
REPLICATES = [1, 2, 3, 7, 8, 9, 16, 17, 127, 128, 129, 136, 255, 256, 257, 300]


class TestCellMeanStd:
    """A sweep cell's mean and std over replicates, against numpy's."""

    @staticmethod
    def assert_matches_numpy(values):
        with np.errstate(all="ignore"):  # squares may overflow to inf
            want = (np.mean(np.array(values)), np.std(np.array(values)))
        assert list(map(bits, _mean_std(tuple(values)))) == list(map(bits, want))

    @settings(max_examples=80, deadline=None)
    @given(sized(FLOATS, REPLICATES))
    @example([-0.0])
    @example([-0.0, 0.0, -0.0])
    @example([-0.0] * 129)
    @example([1e300, -1e300] * 4)
    @example([5e-324] * 9)
    def test_drawn_values(self, values):
        self.assert_matches_numpy(values)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(-300, 300))
    def test_random_cells(self, seed, count, exponent):
        # values of one scale, as a cell's g, f or tau replicates are
        rng = np.random.default_rng(seed)
        values = rng.normal(1.0, 0.1, count) * 10.0 ** exponent
        values[rng.random(count) < 0.05] = -0.0
        self.assert_matches_numpy(values.tolist())


class TestFitLinear:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 140).flatmap(
        lambda n: st.lists(st.tuples(FLOATS, FLOATS), min_size=n, max_size=n)))
    @example([(1e-200, 0.0), (2e-200, 1.0)])       # sxx underflows to 0
    @example([(0.0, 1.0), (-0.0, 2.0), (1.0, -0.0)])
    @example([(1e300, 1.0), (-1e300, 2.0), (0.0, 3.0)])  # squares overflow
    def test_drawn_points(self, points):
        assert_fit_matches_numpy(points)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(EDGE_LENGTHS[2:]),
           st.integers(-300, 300))
    def test_noisy_lines(self, seed, n, exponent):
        # a noisy line at one scale, as the sweep and country fits see it
        rng = np.random.default_rng(seed)
        x = rng.uniform(-4.0, 0.0, n) * 10.0 ** exponent
        y = 0.5 * x + 2.0 + rng.normal(0.0, 0.05, n)
        assert_fit_matches_numpy(list(zip(x.tolist(), y.tolist())))


def records(fs):
    return [DerivedRecord(name=str(k), f=f, g=0.3, lam=0.2, gamma=0.2, x=0.16,
                          f_norm=1.0, y=1.0) for k, f in enumerate(fs)]


def assert_thresholds_match_numpy(fs):
    """The thresholds are numpy's bit for bit, but a zero one is +0.0 where
    numpy's sign depends on how its partition orders -0.0 and 0.0."""
    got = percentile_thresholds(records(fs))
    for value, want in zip(got, np.percentile(np.array(fs), (33.0, 67.0)).tolist(), strict=True):
        if want == 0.0:
            assert value == want and bits(value) == bits(0.0)
        else:
            assert bits(value) == bits(want)


class TestPercentiles:
    # f is >= 0, or -0.0 where a table says "-0"
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e300) | st.just(-0.0),
                    min_size=1, max_size=150))
    @example([0.0])
    @example([-0.0])
    @example([-0.0, -0.0, 0.0] + [-0.0] * 11)
    @example([5.0, 5.0, 5.0])
    def test_drawn_values(self, fs):
        assert_thresholds_match_numpy(fs)

    def test_order_of_signed_zeros_leaves_the_thresholds(self):
        # 13 zeros written "-0" and one "0": wherever the "0" stands, both
        # thresholds are +0.0
        for where in range(14):
            fs = [-0.0] * 14
            fs[where] = 0.0
            assert list(map(bits, percentile_thresholds(records(fs)))) == [bits(0.0)] * 2, where

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3000))
    def test_random_vectors(self, seed, n):
        fs = np.random.default_rng(seed).lognormal(6.0, 1.0, n)
        expected = np.percentile(fs, (33.0, 67.0))
        assert list(map(bits, percentile_thresholds(records(fs.tolist())))) == \
            list(map(bits, expected))
