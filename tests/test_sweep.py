import os
import time
import warnings

import pytest

import kinex.sweep
from kinex import (ConfigError, SimulationParams, SweepSpec, gini, replicate_seed,
                   run_simulation, run_sweep)
from kinex.sweep import _resolve_workers


def small_spec(**overrides):
    kwargs = dict(lambda_values=(0.2, 0.8), gamma_values=(0.5, 1.0),
                  n_agents=100, t_max=2000, replicates=2, base_seed=7)
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestSweepSpec:
    def test_defaults_follow_snapshot_convention(self):
        spec = SweepSpec(lambda_values=(0.5,), gamma_values=(0.5,), t_max=100_000)
        assert spec.t1 == 99_000
        assert spec.t2 == 100_000

    def test_t1_stays_below_t2_for_tiny_horizons(self):
        spec = SweepSpec(lambda_values=(0.5,), gamma_values=(0.5,), t_max=10)
        assert 0 <= spec.t1 < spec.t2 <= 10

    @pytest.mark.parametrize("kwargs", [
        dict(lambda_values=()),
        dict(gamma_values=()),
        dict(lambda_values=(1.5,)),
        dict(gamma_values=(-0.2,)),
        dict(t1=2000, t2=1000),
        dict(t1=1000, t2=5000),
        dict(replicates=0),
        dict(base_seed=-5),
        dict(n_agents=1),
        dict(replicates=1.5),
        dict(base_seed=1.5),
        dict(t1=1500.5),
        dict(t_max="2000"),
        dict(lambda_values=("a",)),
        dict(gamma_values=(True,)),
    ])
    def test_rejects_invalid_specs(self, kwargs):
        with pytest.raises(ValueError):
            small_spec(**kwargs)


class TestResolveWorkers:
    # resolves the count only; no thread is started
    @pytest.fixture(autouse=True)
    def three_cores(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.delenv("KINEX_THREADS", raising=False)

    def test_defaults_to_all_cores(self):
        assert _resolve_workers(None) == 3

    def test_env_sets_count_below_cores(self, monkeypatch):
        monkeypatch.setenv("KINEX_THREADS", "2")
        assert _resolve_workers(None) == 2

    @pytest.mark.parametrize("threads", ["4", "100000"])
    def test_env_capped_at_cores(self, monkeypatch, threads):
        monkeypatch.setenv("KINEX_THREADS", threads)
        assert _resolve_workers(None) == 3

    def test_argument_wins_and_is_capped(self, monkeypatch):
        monkeypatch.setenv("KINEX_THREADS", "1")
        assert _resolve_workers(2) == 2
        assert _resolve_workers(64) == 3
        assert _resolve_workers(0) == 1

    @pytest.mark.parametrize("threads", ["abc", "2.5", "1e3"])
    def test_non_integer_env_is_config_error(self, monkeypatch, threads):
        monkeypatch.setenv("KINEX_THREADS", threads)
        with pytest.raises(ConfigError, match="KINEX_THREADS"):
            _resolve_workers(None)

    def test_unknown_core_count_means_one(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _resolve_workers(None) == 1


class TestReplicateSeed:
    def test_seed_is_stable(self):
        assert replicate_seed(0, 1, 2, 3) == replicate_seed(0, 1, 2, 3)

    def test_distinct_across_indices(self):
        seeds = {replicate_seed(9, li, gi, r)
                 for li in range(10) for gi in range(10) for r in range(10)}
        assert len(seeds) == 1000

    def test_distinct_across_base_seeds(self):
        assert replicate_seed(0, 0, 0, 0) != replicate_seed(1, 0, 0, 0)


class TestRunSweep:
    def test_output_order_is_lambda_major(self):
        cells = run_sweep(small_spec(), workers=1)
        coords = [(c.saving_rate, c.surplus_rate) for c in cells]
        assert coords == [(0.2, 0.5), (0.2, 1.0), (0.8, 0.5), (0.8, 1.0)]

    def test_full_saving_kills_flow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # all-tied tau in the frozen state
            cells = run_sweep(small_spec(lambda_values=(1.0,)), workers=1)
        assert all(c.mean_f == 0.0 for c in cells)
        assert all(c.std_f == 0.0 for c in cells)

    def test_single_replicate_has_zero_dispersion(self):
        cells = run_sweep(small_spec(replicates=1), workers=1)
        assert all(c.std_g == 0.0 and c.std_f == 0.0 and c.std_tau == 0.0
                   for c in cells)
        assert all(c.replicates == 1 for c in cells)

    def test_identical_specs_reproduce_identical_tables(self):
        assert run_sweep(small_spec(), workers=1) == run_sweep(small_spec(), workers=1)

    def test_worker_count_does_not_change_results(self):
        assert run_sweep(small_spec(), workers=1) == run_sweep(small_spec(), workers=2)

    def test_failures_carry_cell_coordinates(self, monkeypatch):
        started = []

        def fail(params):
            started.append(params.seed)
            time.sleep(0.01)
            raise FloatingPointError("boom")

        monkeypatch.setattr(kinex.sweep, "run_simulation", fail)
        spec = small_spec(replicates=10)  # 40 jobs
        for workers in (1, 2):
            started.clear()
            with pytest.raises(RuntimeError,
                               match="lambda=0.2 gamma=0.5 replicate=0 failed: boom"):
                run_sweep(spec, workers=workers)
            assert len(started) < 40  # the first failure cancels the jobs not yet started


def gini_series(params):
    # Gini index at each snapshot time of one run, in time order
    snapshots = run_simulation(params).snapshots
    return [gini(snapshots[t]) for t in sorted(snapshots)]


class TestGiniTimeSeries:
    def test_time_zero_is_perfect_equality(self):
        params = SimulationParams(n_agents=50, saving_rate=0.4, surplus_rate=0.5,
                                  t_max=500, seed=2, snapshot_times=(0, 100, 500))
        g_values = gini_series(params)
        assert g_values[0] == pytest.approx(0.0, abs=1e-12)
        assert len(g_values) == 3

    def test_high_surplus_rate_nearly_converges_by_horizon(self):
        params = SimulationParams(n_agents=1000, saving_rate=0.4, surplus_rate=1.0,
                                  t_max=100_000, seed=0, snapshot_times=(50_000, 100_000))
        g_values = gini_series(params)
        assert abs(g_values[1] - g_values[0]) < 0.05

    def test_zero_surplus_rate_keeps_concentrating(self):
        # the gamma = 0 rule drifts toward full concentration and is still
        # rising an order of magnitude past the usual horizon
        params = SimulationParams(n_agents=1000, saving_rate=0.4, surplus_rate=0.0,
                                  t_max=1_000_000, seed=0,
                                  snapshot_times=(100_000, 1_000_000))
        g_values = gini_series(params)
        assert g_values[1] > g_values[0]
