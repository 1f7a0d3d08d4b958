import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kinex import (DegenerateDataError, gamma_fit, gini, histogram, kendall_tau,
                   total_exchange)


def brute_force_tau(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    prod = np.triu(np.sign(x[:, None] - x[None, :]) * np.sign(y[:, None] - y[None, :]), k=1)
    k = int((prod > 0).sum())
    l = int((prod < 0).sum())
    return (k - l) / (n * (n - 1) / 2)


positive_vec = st.lists(st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
                        min_size=2, max_size=50)


class TestGini:
    def test_equal_assets_give_zero(self):
        for n in (2, 10, 1000):
            assert gini(np.full(n, 3.7)) == pytest.approx(0.0, abs=1e-12)

    def test_single_holder_gives_closed_form(self):
        delta = np.zeros(1000)
        delta[123] = 42.0
        assert gini(delta) == pytest.approx(0.999, rel=1e-12)

    def test_hand_evaluated_small_vector(self):
        assert gini([1, 2, 3]) == pytest.approx(2 / 9, rel=1e-12)

    @given(assets=positive_vec, scale=st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariant(self, assets, scale):
        a = np.array(assets)
        assert gini(a * scale) == pytest.approx(gini(a), rel=1e-9, abs=1e-9)

    @given(assets=positive_vec, seed=st.integers(0, 2**32 - 1))
    def test_permutation_invariant(self, assets, seed):
        a = np.array(assets)
        shuffled = np.random.default_rng(seed).permutation(a)
        assert gini(shuffled) == gini(a)

    @given(assets=positive_vec)
    def test_bounded_by_closed_form_extremes(self, assets):
        n = len(assets)
        g = gini(assets)
        assert -1e-12 <= g <= (n - 1) / n + 1e-12

    def test_rejects_degenerate_and_bad_input(self):
        with pytest.raises(DegenerateDataError):
            gini([0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            gini([1.0])
        with pytest.raises(ValueError):
            gini([1.0, -0.5])
        with pytest.raises(ValueError):
            gini([1.0, float("nan")])
        with pytest.raises(ValueError, match="overflow"):  # n * sum(assets) is not finite
            gini(np.full(1000, 1e305))


class TestTotalExchange:
    def test_zero_pool_gives_zero_flow(self):
        assert total_exchange(0.0, 12345) == 0.0

    def test_single_step_example(self):
        # one step with m_i = m_j = 1, lam = 0.25, gamma = 0.5 pools 1.5
        assert total_exchange(1.5, 1) == 0.75

    def test_constant_pool_fixed_point(self):
        # frozen equal population: every pool is 2 * (1 - lam) * m0
        lam, m0, t_max = 0.3, 2.0, 777
        cumulative = t_max * 2.0 * (1.0 - lam) * m0
        assert total_exchange(cumulative, t_max) == pytest.approx((1.0 - lam) * m0, rel=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            total_exchange(1.0, 0)
        with pytest.raises(ValueError):
            total_exchange(-1.0, 10)


class TestKendallTau:
    def test_identical_distinct_vectors_give_one(self):
        v = [3.0, 1.0, 7.0, 2.0]
        assert kendall_tau(v, v) == 1.0

    def test_reversed_ranking_gives_minus_one(self):
        assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0

    def test_single_swap_example(self):
        assert kendall_tau([1, 2, 3], [2, 1, 3]) == pytest.approx(1 / 3, rel=1e-15)

    def test_tied_pairs_count_for_neither_side(self):
        # pairs: (0,1) tied in both, (2,3) concordant, the other four discordant
        assert kendall_tau([1, 1, 2, 3], [4, 4, 1, 2]) == -0.5

    def test_all_equal_snapshots_warn_and_return_zero(self):
        with pytest.warns(UserWarning, match="tied"):
            assert kendall_tau([1.0] * 5, [1.0] * 5) == 0.0

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(8)
        x, y = rng.random(100), rng.random(100)
        assert kendall_tau(x, y) == kendall_tau(y, x)

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(9)
        x, y = rng.random(200), rng.random(200)
        assert kendall_tau(np.exp(x), y) == kendall_tau(x, y)
        assert kendall_tau(x, y**3 + 2.0) == kendall_tau(x, y)

    def test_matches_brute_force_on_random_vectors(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 500))
            x, y = rng.random(n), rng.random(n)
            assert kendall_tau(x, y) == brute_force_tau(x, y)

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            n = int(rng.integers(3, 120))
            x = rng.integers(0, 5, size=n).astype(float)
            y = rng.integers(0, 5, size=n).astype(float)
            if len(set(x)) < 2 and len(set(y)) < 2:
                continue
            assert kendall_tau(x, y) == brute_force_tau(x, y)

    def test_matches_brute_force_on_tie_heavy_vectors(self):
        # few distinct values, lengths across several power-of-two blocks,
        # signed zeros (equal as values) and one constant snapshot
        rng = np.random.default_rng(33)
        for trial in range(60):
            n = int(rng.integers(2, 700))
            levels = int(rng.integers(1, 6))
            x = rng.integers(0, levels, size=n).astype(float)
            y = rng.integers(0, 3, size=n).astype(float)
            if trial % 3 == 0:
                y[y == 0.0] = np.where(rng.random(int((y == 0.0).sum())) < 0.5, 0.0, -0.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # all-tied draws warn and give 0
                assert kendall_tau(x, y) == brute_force_tau(x, y)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_input(self, bad):
        x = [1.0, 2.0, 3.0, 4.0]
        with pytest.raises(ValueError, match="finite"):
            kendall_tau(x, [1.0, bad, 3.0, 4.0])
        with pytest.raises(ValueError, match="finite"):
            kendall_tau([bad, 2.0, 3.0, 4.0], x)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            kendall_tau([1, 2, 3], [1, 2])


class TestHistogram:
    def test_one_point_per_half(self):
        h = histogram([0.5, 2.0], bins=2)
        assert h.counts.tolist() == [1, 1]
        assert h.bin_edges.tolist() == [0.0, 1.0, 2.0]

    def test_constant_sample_lands_in_one_bin(self):
        h = histogram([1.0, 1.0, 1.0], bins=1)
        assert h.counts.tolist() == [3]

    def test_counts_partition_large_sample(self):
        sample = np.random.default_rng(4).gamma(2.0, 1.5, size=100_000)
        h = histogram(sample, bins=50)
        assert int(h.counts.sum()) == 100_000

    def test_top_edge_is_inclusive(self):
        h = histogram([2.0], bins=4)
        assert h.counts.tolist() == [0, 0, 0, 1]

    def test_default_range_starts_at_zero(self):
        h = histogram([1.0, 4.0], bins=4)
        assert h.bin_edges[0] == 0.0
        assert h.bin_edges[-1] == 4.0

    def test_all_zero_assets_widen_range(self):
        h = histogram([0.0, 0.0], bins=2)
        assert int(h.counts.sum()) == 2
        assert h.bin_edges[0] == 0.0

    def test_rejects_zero_bins(self):
        with pytest.raises(ValueError):
            histogram([1.0], bins=0)


class TestGammaFit:
    def test_mean_two_variance_one(self):
        fit = gamma_fit([1.0, 3.0])
        assert fit.shape == pytest.approx(4.0, rel=1e-12)
        assert fit.scale == pytest.approx(0.5, rel=1e-12)

    def test_unit_mean_unit_variance_sample(self):
        sample = np.random.default_rng(10).gamma(1.0, 1.0, size=200_000)
        sample = sample[sample > 0]
        fit = gamma_fit(sample)
        assert fit.shape == pytest.approx(1.0, rel=0.05)
        assert fit.scale == pytest.approx(1.0, rel=0.05)

    def test_round_trip_recovers_known_parameters(self):
        sample = np.random.default_rng(11).gamma(3.5, 0.8, size=100_000)
        fit = gamma_fit(sample)
        assert fit.shape == pytest.approx(3.5, rel=0.05)
        assert fit.scale == pytest.approx(0.8, rel=0.05)

    @given(assets=positive_vec)
    def test_moments_identity(self, assets):
        a = np.array(assets)
        if float(a.var()) <= 0.0:
            return
        fit = gamma_fit(a)
        assert fit.shape * fit.scale == pytest.approx(float(a.mean()), rel=1e-9)

    def test_rejects_degenerate_and_non_positive(self):
        with pytest.raises(DegenerateDataError):
            gamma_fit([2.0, 2.0, 2.0])
        with pytest.raises(ValueError):
            gamma_fit([1.0, 0.0])
        with pytest.raises(ValueError):
            gamma_fit([1.0])
        with pytest.raises(ValueError, match="overflow"):
            gamma_fit([1e200, 3e200])
