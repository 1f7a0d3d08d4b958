import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kinex import SimulationParams, exchange_step, run_simulation, sample_pair
from kinex.exchange import _BLOCK, _CHUNK

assets_st = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
unit_st = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestExchangeStep:
    def test_equal_assets_no_saving_splits_evenly(self):
        out = exchange_step(1.0, 1.0, 0.0, 0.0, 0.5)
        assert out.pool == 2.0
        assert out.new_mi == 1.0
        assert out.new_mj == 1.0

    def test_poorer_loses_whole_stake_when_epsilon_zero(self):
        # lam=0.25, gamma=0: each side stakes 0.75, all of it goes to j
        out = exchange_step(1.0, 3.0, 0.25, 0.0, 0.0)
        assert out.pool == pytest.approx(1.5, rel=1e-15)
        assert out.new_mi == pytest.approx(0.25, rel=1e-15)
        assert out.new_mj == pytest.approx(3.75, rel=1e-15)

    def test_richer_stakes_full_surplus_at_gamma_one(self):
        # richer stakes 0.5*6=3, poorer 1; i takes the whole pool
        out = exchange_step(2.0, 6.0, 0.5, 1.0, 1.0)
        assert out.pool == pytest.approx(4.0, rel=1e-15)
        assert out.new_mi == pytest.approx(5.0, rel=1e-15)
        assert out.new_mj == pytest.approx(3.0, rel=1e-15)

    @given(mi=assets_st, mj=assets_st, lam=unit_st, gam=unit_st, eps=unit_st)
    def test_conserves_and_stays_non_negative(self, mi, mj, lam, gam, eps):
        out = exchange_step(mi, mj, lam, gam, eps)
        assert out.new_mi >= 0.0
        assert out.new_mj >= 0.0
        assert out.pool >= 0.0
        total = mi + mj
        assert out.new_mi + out.new_mj == pytest.approx(total, rel=1e-12, abs=1e-12)

    @given(mi=assets_st, mj=assets_st, lam=unit_st, gam=unit_st, eps=unit_st)
    def test_swapping_positions_swaps_shares(self, mi, mj, lam, gam, eps):
        # rounding error scales with the pair total, not the (possibly
        # near-zero) individual shares, so tolerate relative to mi + mj
        tol = 1e-12 * (mi + mj + 1.0)
        fwd = exchange_step(mi, mj, lam, gam, eps)
        rev = exchange_step(mj, mi, lam, gam, 1.0 - eps)
        assert rev.new_mi == pytest.approx(fwd.new_mj, abs=tol)
        assert rev.new_mj == pytest.approx(fwd.new_mi, abs=tol)

    @given(mi=assets_st, mj=assets_st, lam=unit_st, eps=unit_st)
    def test_gamma_zero_matches_poorer_surplus_rule(self, mi, mj, lam, eps):
        tol = 1e-12 * (mi + mj + 1.0)
        out = exchange_step(mi, mj, lam, 0.0, eps)
        m_p = min(mi, mj)
        pool = 2.0 * (1.0 - lam) * m_p
        assert out.pool == pytest.approx(pool, abs=tol)
        expect_i = mi - (1.0 - lam) * m_p + eps * pool
        assert out.new_mi == pytest.approx(expect_i, abs=tol)

    @given(mi=assets_st, mj=assets_st, lam=unit_st, eps=unit_st)
    def test_gamma_one_matches_full_surplus_rule(self, mi, mj, lam, eps):
        tol = 1e-12 * (mi + mj + 1.0)
        out = exchange_step(mi, mj, lam, 1.0, eps)
        pool = (1.0 - lam) * (mi + mj)
        assert out.pool == pytest.approx(pool, abs=tol)
        expect_i = lam * mi + eps * pool
        assert out.new_mi == pytest.approx(expect_i, abs=tol)

    @pytest.mark.parametrize("args", [
        (-1.0, 1.0, 0.5, 0.5, 0.5),
        (1.0, float("nan"), 0.5, 0.5, 0.5),
        (1.0, float("inf"), 0.5, 0.5, 0.5),
        (1.0, 1.0, -0.1, 0.5, 0.5),
        (1.0, 1.0, 0.5, 1.1, 0.5),
        (1.0, 1.0, 0.5, 0.5, 2.0),
    ])
    def test_rejects_bad_arguments(self, args):
        with pytest.raises(ValueError):
            exchange_step(*args)


class TestSamplePair:
    def test_two_agents_always_yield_both(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            i, j = sample_pair(rng, 2)
            assert {i, j} == {0, 1}

    def test_indices_distinct_and_in_range(self):
        rng = np.random.default_rng(2)
        for _ in range(2000):
            i, j = sample_pair(rng, 10)
            assert i != j
            assert 0 <= i < 10 and 0 <= j < 10

    def test_fixed_seed_reproduces_sequence(self):
        rng_a = np.random.default_rng(99)
        rng_b = np.random.default_rng(99)
        assert [sample_pair(rng_a, 10) for _ in range(200)] == \
               [sample_pair(rng_b, 10) for _ in range(200)]

    def test_rejects_fewer_than_two_agents(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_pair(rng, 1)

    def test_index_frequencies_uniform(self):
        # chi-square oracle over both pair positions; fixed seed keeps it
        # deterministic. df = 999, mean 999, std ~44.7; bound is mean + 6 std.
        rng = np.random.default_rng(2024)
        n = 1000
        draws = 1_000_000
        counts = np.zeros(n, dtype=np.int64)
        for _ in range(draws):
            i, j = sample_pair(rng, n)
            counts[i] += 1
            counts[j] += 1
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


def replay_through_exchange_step(params: SimulationParams) -> tuple[dict, float]:
    """Reference run: the same block draws, one exchange_step per tick."""
    n, lam, gam = params.n_agents, params.saving_rate, params.surplus_rate
    rng = np.random.default_rng(params.seed)
    assets = [params.initial_asset] * n
    snapshots = {0: np.array(assets)} if 0 in params.snapshot_times else {}
    cumulative = 0.0
    t = 0
    while t < params.t_max:
        block = min(_BLOCK, params.t_max - t)
        ii = rng.integers(0, n, size=block).tolist()
        jj = rng.integers(0, n - 1, size=block).tolist()
        ee = rng.random(block).tolist()
        for k in range(block):
            i, j = ii[k], jj[k]
            if j >= i:
                j += 1
            out = exchange_step(assets[i], assets[j], lam, gam, ee[k])
            assets[i], assets[j] = out.new_mi, out.new_mj
            cumulative += out.pool
            t += 1
            if t in params.snapshot_times:
                snapshots[t] = np.array(assets)
    return snapshots, cumulative


# (n, lambda, gamma, t_max, snapshot times): a short run, then chunk and
# block boundaries, one step either side of them, time 0 and the extreme rates
REPLAY_CASES = [
    (7, 0.3, 0.6, 123, (123,)),
    (2, 0.0, 0.0, 2 * _CHUNK + 3, (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3)),
    (2, 1.0, 1.0, _CHUNK + 1, (_CHUNK + 1,)),
    (13, 0.0, 1.0, 3 * _CHUNK, (_CHUNK, 2 * _CHUNK - 1, 3 * _CHUNK)),
    (9, 1.0, 0.0, _CHUNK - 1, (0, _CHUNK - 1)),
    (50, 0.25, 0.5, _BLOCK + _CHUNK + 2,
     (_BLOCK - 1, _BLOCK, _BLOCK + 1, _BLOCK + _CHUNK, _BLOCK + _CHUNK + 2)),
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
        # the inlined loop must implement exchange_step bit for bit
        p = SimulationParams(n_agents=n, saving_rate=lam, surplus_rate=gam,
                             t_max=t_max, seed=11, snapshot_times=snaps)
        result = run_simulation(p)
        snapshots, cumulative = replay_through_exchange_step(p)
        assert set(result.snapshots) == set(snaps) == set(snapshots)
        for t in snaps:
            assert result.snapshots[t].tobytes() == snapshots[t].tobytes(), t
        assert float.hex(cumulative) == float.hex(result.cumulative_pool)

    def test_population_stays_non_negative(self):
        p = SimulationParams(n_agents=100, saving_rate=0.0, surplus_rate=0.0,
                             t_max=50_000, seed=3, snapshot_times=(1000, 50_000))
        result = run_simulation(p)
        for snap in result.snapshots.values():
            assert (snap >= 0.0).all()
            assert np.isfinite(snap).all()
