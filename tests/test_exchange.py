import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kinex import RunResult, SimulationParams, gamma_fit, gini, run_simulation, total_exchange
from kinex.exchange import _BLOCK, _draw_block, _exchange

assets_st = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
unit_st = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def exchange_once(exchange, mi, mj, lam, gam, eps):
    """One exchange of agent 0 (i) with agent 1 (j) by the loop body ``exchange``,
    over a float64 array; returns (new_mi, new_mj, pool)."""
    assets = np.array([mi, mj], dtype=np.float64)
    pool = exchange(assets, np.array([0], np.int64), np.array([1], np.int64),
                    np.array([eps], np.float64), lam, gam, 0.0)
    return float(assets[0]), float(assets[1]), pool


def exchange_step_tests(exchange):
    """Tests of one step of the loop body ``exchange``, which has the signature
    of ``_exchange``.

    Hypothesis holds each ``@given`` test to one test class, so every loop
    body gets a class of its own.
    """
    step = functools.partial(exchange_once, exchange)

    class TestExchangeStep:
        def test_equal_assets_no_saving_splits_evenly(self):
            assert step(1.0, 1.0, 0.0, 0.0, 0.5) == (1.0, 1.0, 2.0)

        def test_poorer_loses_whole_stake_when_epsilon_zero(self):
            # lam=0.25, gamma=0: each side stakes 0.75, all of it goes to j
            new_mi, new_mj, pool = step(1.0, 3.0, 0.25, 0.0, 0.0)
            assert pool == pytest.approx(1.5, rel=1e-15)
            assert new_mi == pytest.approx(0.25, rel=1e-15)
            assert new_mj == pytest.approx(3.75, rel=1e-15)

        def test_richer_stakes_full_surplus_at_gamma_one(self):
            # richer stakes 0.5*6=3, poorer 1; i takes the whole pool
            new_mi, new_mj, pool = step(2.0, 6.0, 0.5, 1.0, 1.0)
            assert pool == pytest.approx(4.0, rel=1e-15)
            assert new_mi == pytest.approx(5.0, rel=1e-15)
            assert new_mj == pytest.approx(3.0, rel=1e-15)

        @given(mi=assets_st, mj=assets_st, lam=unit_st, gam=unit_st, eps=unit_st)
        def test_conserves_and_stays_non_negative(self, mi, mj, lam, gam, eps):
            new_mi, new_mj, pool = step(mi, mj, lam, gam, eps)
            assert new_mi >= 0.0
            assert new_mj >= 0.0
            assert pool >= 0.0
            total = mi + mj
            assert new_mi + new_mj == pytest.approx(total, rel=1e-12, abs=1e-12)

        @given(mi=assets_st, mj=assets_st, lam=unit_st, gam=unit_st, eps=unit_st)
        def test_swapping_positions_swaps_shares(self, mi, mj, lam, gam, eps):
            # rounding error scales with the pair total, not the (possibly
            # near-zero) individual shares, so tolerate relative to mi + mj
            tol = 1e-12 * (mi + mj + 1.0)
            fwd_i, fwd_j, _ = step(mi, mj, lam, gam, eps)
            rev_i, rev_j, _ = step(mj, mi, lam, gam, 1.0 - eps)
            assert rev_i == pytest.approx(fwd_j, abs=tol)
            assert rev_j == pytest.approx(fwd_i, abs=tol)

        @given(mi=assets_st, mj=assets_st, lam=unit_st, eps=unit_st)
        def test_gamma_zero_matches_poorer_surplus_rule(self, mi, mj, lam, eps):
            tol = 1e-12 * (mi + mj + 1.0)
            new_mi, _, out_pool = step(mi, mj, lam, 0.0, eps)
            m_p = min(mi, mj)
            pool = 2.0 * (1.0 - lam) * m_p
            assert out_pool == pytest.approx(pool, abs=tol)
            expect_i = mi - (1.0 - lam) * m_p + eps * pool
            assert new_mi == pytest.approx(expect_i, abs=tol)

        @given(mi=assets_st, mj=assets_st, lam=unit_st, eps=unit_st)
        def test_gamma_one_matches_full_surplus_rule(self, mi, mj, lam, eps):
            tol = 1e-12 * (mi + mj + 1.0)
            new_mi, _, out_pool = step(mi, mj, lam, 1.0, eps)
            pool = (1.0 - lam) * (mi + mj)
            assert out_pool == pytest.approx(pool, abs=tol)
            expect_i = lam * mi + eps * pool
            assert new_mi == pytest.approx(expect_i, abs=tol)

    return TestExchangeStep


TestExchangeStep = exchange_step_tests(_exchange)


class TestSamplePair:
    """The pair draws of ``_draw_block``, the stream every run consumes."""

    def test_two_agents_always_yield_both(self):
        ii, jj, _ = _draw_block(np.random.default_rng(1), 2, 50)
        assert all({i, j} == {0, 1} for i, j in zip(ii.tolist(), jj.tolist()))

    def test_indices_distinct_and_in_range(self):
        ii, jj, ee = _draw_block(np.random.default_rng(2), 10, 2000)
        assert (ii != jj).all()
        assert ((0 <= ii) & (ii < 10) & (0 <= jj) & (jj < 10)).all()
        assert ((0.0 <= ee) & (ee < 1.0)).all()

    def test_fixed_seed_reproduces_sequence(self):
        a = _draw_block(np.random.default_rng(99), 10, 200)
        b = _draw_block(np.random.default_rng(99), 10, 200)
        for x, y in zip(a, b):
            assert x.tobytes() == y.tobytes()

    def test_index_frequencies_uniform(self):
        # chi-square oracle over both pair positions; fixed seed keeps it
        # deterministic. df = 999, mean 999, std ~44.7; bound is mean + 6 std.
        n = 1000
        draws = 1_000_000
        ii, jj, _ = _draw_block(np.random.default_rng(2024), n, draws)
        counts = np.bincount(ii, minlength=n) + np.bincount(jj, minlength=n)
        expected = 2 * draws / n
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 999 + 6 * math.sqrt(2 * 999)


class TestSimulationParams:
    def test_defaults_are_valid(self):
        p = SimulationParams(n_agents=2, saving_rate=0.5, surplus_rate=0.5)
        assert p.initial_asset == 1.0
        assert p.seed == 0

    @pytest.mark.parametrize("kwargs", [
        dict(n_agents=1),
        dict(saving_rate=-0.01),
        dict(saving_rate=1.01),
        dict(surplus_rate=2.0),
        dict(initial_asset=0.0),
        dict(initial_asset=float("inf")),
        dict(t_max=0),
        dict(seed=-1),
        dict(seed=2**64),
        dict(snapshot_times=(5, 5)),
        dict(snapshot_times=(10, 2)),
        dict(snapshot_times=(200,)),
        dict(n_agents=10.0),
        dict(t_max=True),
        dict(seed=True),
        dict(seed=np.True_),
        dict(snapshot_times=(True, 50)),
        dict(snapshot_times=(50.0,)),
        dict(saving_rate=True),
        dict(surplus_rate=False),
        dict(initial_asset=True),
        dict(saving_rate="a"),
        dict(surplus_rate=None),
        dict(initial_asset="1.0"),
        dict(saving_rate=np.True_),
    ])
    def test_rejects_invalid_parameters(self, kwargs):
        base = dict(n_agents=10, saving_rate=0.5, surplus_rate=0.5, t_max=100)
        base.update(kwargs)
        with pytest.raises(ValueError):
            SimulationParams(**base)

    def test_accepts_numpy_integers(self):
        p = SimulationParams(n_agents=np.int64(10), saving_rate=0.5, surplus_rate=0.5,
                             t_max=np.int64(100), seed=np.uint64(3),
                             snapshot_times=(np.int64(0), np.int32(100)))
        assert p == SimulationParams(n_agents=10, saving_rate=0.5, surplus_rate=0.5,
                                     t_max=100, seed=3, snapshot_times=(0, 100))
        assert all(type(v) is int for v in (p.n_agents, p.t_max, p.seed, *p.snapshot_times))


def replay_one_step_at_a_time(params: SimulationParams) -> tuple[dict, float]:
    """Reference run: the same draw blocks, one ``_exchange`` call per tick.

    It checks every step against the snapshot times itself, so it shares
    none of the snapshot segmentation of a run.
    """
    lam, gam = params.saving_rate, params.surplus_rate
    rng = np.random.default_rng(params.seed)
    assets = np.full(params.n_agents, params.initial_asset)
    snapshots = {0: assets.copy()} if 0 in params.snapshot_times else {}
    cumulative = 0.0
    t = 0
    while t < params.t_max:
        block = min(_BLOCK, params.t_max - t)
        ii, jj, ee = _draw_block(rng, params.n_agents, block)
        for k in range(block):
            cumulative = _exchange(assets, ii[k:k + 1], jj[k:k + 1], ee[k:k + 1],
                                   lam, gam, cumulative)
            t += 1
            if t in params.snapshot_times:
                snapshots[t] = assets.copy()
    return snapshots, cumulative


# a step count well inside one block, so that runs cross it a few times
SPAN = 4096

# (n, lambda, gamma, t_max, snapshot times): a short run, then multiples of
# SPAN and block boundaries, one step either side of them, time 0 and the
# extreme rates
REPLAY_CASES = [
    (7, 0.3, 0.6, 123, (123,)),
    (2, 0.0, 0.0, 2 * SPAN + 3, (0, 1, SPAN - 1, SPAN, SPAN + 1, 2 * SPAN + 3)),
    (2, 1.0, 1.0, SPAN + 1, (SPAN + 1,)),
    (13, 0.0, 1.0, 3 * SPAN, (SPAN, 2 * SPAN - 1, 3 * SPAN)),
    (9, 1.0, 0.0, SPAN - 1, (0, SPAN - 1)),
    (50, 0.25, 0.5, _BLOCK + SPAN + 2,
     (_BLOCK - 1, _BLOCK, _BLOCK + 1, _BLOCK + SPAN, _BLOCK + SPAN + 2)),
]


class TestRunSimulation:
    def test_conserves_total_wealth(self):
        p = SimulationParams(n_agents=100, saving_rate=0.3, surplus_rate=0.7,
                             t_max=20_000, seed=5, snapshot_times=(20_000,))
        total = run_simulation(p).snapshots[20_000].sum()
        assert total == pytest.approx(100.0, rel=1e-9)

    def test_full_saving_freezes_everything(self):
        p = SimulationParams(n_agents=50, saving_rate=1.0, surplus_rate=0.5,
                             t_max=1000, seed=9, snapshot_times=(1000,))
        result = run_simulation(p)
        assert result.cumulative_pool == 0.0
        assert (result.snapshots[1000] == 1.0).all()

    def test_snapshot_zero_is_initial_state(self):
        p = SimulationParams(n_agents=10, saving_rate=0.2, surplus_rate=0.2,
                             initial_asset=2.5, t_max=100, seed=1,
                             snapshot_times=(0, 100))
        result = run_simulation(p)
        assert (result.snapshots[0] == 2.5).all()
        assert set(result.snapshots) == {0, 100}

    def test_identical_params_are_bit_identical(self):
        p = SimulationParams(n_agents=200, saving_rate=0.4, surplus_rate=0.3,
                             t_max=5000, seed=77, snapshot_times=(2500, 5000))
        a = run_simulation(p)
        b = run_simulation(p)
        assert a.cumulative_pool == b.cumulative_pool
        for t in (2500, 5000):
            assert a.snapshots[t].tobytes() == b.snapshots[t].tobytes()

    @pytest.mark.parametrize("n, lam, gam, t_max, snaps", REPLAY_CASES,
                             ids=[f"n{c[0]}-lam{c[1]}-gam{c[2]}-T{c[3]}" for c in REPLAY_CASES])
    def test_run_loop_replays_through_exchange_step(self, n, lam, gam, t_max, snaps):
        # cutting blocks at snapshots must not change a bit
        p = SimulationParams(n_agents=n, saving_rate=lam, surplus_rate=gam,
                             t_max=t_max, seed=11, snapshot_times=snaps)
        result = run_simulation(p)
        snapshots, cumulative = replay_one_step_at_a_time(p)
        assert set(result.snapshots) == set(snaps) == set(snapshots)
        for t in snaps:
            assert result.snapshots[t].tobytes() == snapshots[t].tobytes(), t
        assert float.hex(cumulative) == float.hex(result.cumulative_pool)

    @pytest.mark.parametrize("initial_asset, t_max", [(1e304, 200_000), (1e308, 10)])
    def test_overflowing_run_raises(self, initial_asset, t_max):
        p = SimulationParams(n_agents=10, saving_rate=0.25, surplus_rate=0.5,
                             initial_asset=initial_asset, t_max=t_max)
        with pytest.raises(ValueError, match="overflow"):
            run_simulation(p)

    @pytest.mark.parametrize("pool", [math.inf, math.nan])
    def test_result_rejects_a_pool_that_is_not_finite(self, pool):
        p = SimulationParams(n_agents=10, saving_rate=0.25, surplus_rate=0.5)
        with pytest.raises(ValueError, match="overflow"):
            RunResult(snapshots={}, cumulative_pool=pool, params=p)

    def test_population_stays_non_negative(self):
        p = SimulationParams(n_agents=100, saving_rate=0.0, surplus_rate=0.0,
                             t_max=50_000, seed=3, snapshot_times=(1000, 50_000))
        result = run_simulation(p)
        for snap in result.snapshots.values():
            assert (snap >= 0.0).all()
            assert np.isfinite(snap).all()


class TestOracles:
    # Seed spread of f at N=1000, T=1e5, gamma=1, measured over seeds 0-199:
    # standard deviations 0.00233, 0.00124, 0.00058, 0.00019 at these lambdas
    SEED_SD = {0.0: 0.00233, 0.25: 0.00124, 0.5: 0.00058, 0.75: 0.00019}
    SEEDS = 8

    @pytest.mark.parametrize("lam", sorted(SEED_SD))
    def test_full_surplus_flow_is_one_minus_lambda(self, lam):
        # At gamma=1 the pool is (1 - lam) * (m_i + m_j), and a uniform pair of
        # distinct agents holds 2 * m0 on average whatever the state, since
        # wealth is conserved: E[f] = (1 - lam) * m0 exactly, from the first
        # step. The mean over 8 seeds must lie within 5 standard errors.
        fs = [total_exchange(run_simulation(SimulationParams(
            n_agents=1000, saving_rate=lam, surplus_rate=1.0, t_max=100_000,
            seed=seed)).cumulative_pool, 100_000) for seed in range(self.SEEDS)]
        bound = 5 * self.SEED_SD[lam] / math.sqrt(self.SEEDS)
        assert abs(sum(fs) / self.SEEDS - (1.0 - lam)) < bound

    # Seed spread of f / prediction - 1 below, measured over seeds 0-199:
    # standard deviations 0.00174, 0.00278, 0.00131; means -0.00010, +0.00005,
    # +0.00003, so the trapezoid average of the Gini adds no visible bias
    FLOW_GINI_SD = {(0.25, 0.5): 0.00174, (0.5, 0.1): 0.00278, (0.75, 0.25): 0.00131}

    @pytest.mark.parametrize("lam, gam", sorted(FLOW_GINI_SD))
    def test_flow_follows_the_gini(self, lam, gam):
        # A step's pool is (1 - lam) * (2 * min(m_i, m_j) + gam * |m_i - m_j|),
        # and over a uniform pair of distinct agents E|m_i - m_j| is
        # 2 * m0 * G * n / (n - 1), so with wealth conserved
        # E[pool | state] = 2 * (1 - lam) * m0 * (1 - (1 - gam) * n / (n - 1) * G)
        # exactly. Hence f = (1 - lam) * m0 * (1 - (1 - gam) * n / (n - 1) * Gbar),
        # Gbar the Gini averaged over the run: here by the trapezoid rule over
        # snapshots every 500 steps. The mean relative error over 8 seeds must
        # lie within 5 standard errors.
        n, t_max, every = 1000, 100_000, 500
        errors = []
        for seed in range(self.SEEDS):
            result = run_simulation(SimulationParams(
                n_agents=n, saving_rate=lam, surplus_rate=gam, t_max=t_max, seed=seed,
                snapshot_times=tuple(range(0, t_max + 1, every))))
            g = np.array([gini(a) for a in result.snapshots.values()])
            g_bar = float((g[1:] + g[:-1]).mean() / 2)
            predicted = (1.0 - lam) * (1.0 - (1.0 - gam) * n / (n - 1) * g_bar)
            errors.append(total_exchange(result.cumulative_pool, t_max) / predicted - 1.0)
        bound = 5 * self.FLOW_GINI_SD[lam, gam] / math.sqrt(self.SEEDS)
        assert abs(sum(errors) / self.SEEDS) < bound

    # Seed spread of the shape below (the mean of the moment fits at 10
    # snapshots), measured over seeds 0-99: standard deviations 0.0334,
    # 0.0639, 0.1604; means 2.012, 4.017, 10.019
    SHAPE_SD = {0.25: 0.0334, 0.5: 0.0639, 0.75: 0.1604}

    @pytest.mark.parametrize("lam", sorted(SHAPE_SD))
    def test_full_surplus_wealth_is_gamma_shaped(self, lam):
        # At gamma=1 the rule is the Chakraborti-Chakrabarti saving model, whose
        # stationary wealth is close to a gamma law of shape 1 + 3 lam / (1 - lam)
        # (Patriarca, Chakraborti & Kaski, Phys. Rev. E 70, 016104 (2004)). Fit
        # at 10 snapshots over the second half of each run, once it has settled;
        # the mean over 8 seeds must lie within 5 standard errors.
        n, t_max = 1000, 200_000
        times = tuple(range(t_max // 2 + t_max // 20, t_max + 1, t_max // 20))
        shapes = []
        for seed in range(self.SEEDS):
            result = run_simulation(SimulationParams(
                n_agents=n, saving_rate=lam, surplus_rate=1.0, t_max=t_max, seed=seed,
                snapshot_times=times))
            shapes.append(np.mean([gamma_fit(a).shape for a in result.snapshots.values()]))
        bound = 5 * self.SHAPE_SD[lam] / math.sqrt(self.SEEDS)
        assert abs(sum(shapes) / self.SEEDS - (1.0 + 3.0 * lam / (1.0 - lam))) < bound
