"""The compiled exchange kernel against its references, and backend selection.

``_kernel.c`` runs ``exchange._run`` with ``_exchange``'s rule, reproduces
``_draw_block``, counts ``metrics._tau_counts``' pairs and writes
``_format_rows``' CSV rows. These tests hold its draws to ``_draw_block``'s
values and generator state in every bound regime of numpy's 32-bit integer
draws, which are all a run of at most 2**32 agents takes, its tau counts to the numpy ones, its rows to ``str`` and ``repr`` byte for
byte, and its runs and ``kinex simulate`` trees to the same bits on drawn
runs, on the ``REPLAY_CASES`` of test_exchange and on the ``RUN_GOLDENS`` of
test_golden, by handing kinex each backend in turn. They also pin how the
backend is resolved: the C kernel whenever ``gcc`` is on PATH and its draws
and rows pass the load-time probes, else the Python reference with one
warning and the same digests, nothing built at import and no build module
loaded from a warm cache.
"""

import ctypes
import functools
import hashlib
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_metrics
from kinex import (SimulationParams, SweepSpec, _backend, exchange, kendall_tau,
                   run_simulation, run_sweep)
from kinex.cli import main
from kinex._backend import _c_backend, _python_backend, _resolve_backend
from kinex.exchange import _BLOCK, _draw_block
from test_cli import _tree_bytes
from test_exchange import REPLAY_CASES, SPAN, replay_one_step_at_a_time
from test_golden import RUN_GOLDENS, SWEEP_CONFIG, SWEEP_CSV_SHA256

SRC = Path(__file__).resolve().parents[1] / "src"
KERNEL = SRC / "kinex" / "_kernel.c"
TOOLS = Path(__file__).resolve().parents[1] / "tools"
PYTHON = _python_backend()


@functools.cache
def load_c_backend():
    """Skip when there is no gcc and no cached kernel; any other build failure fails."""
    try:
        return _c_backend()
    except (OSError, RuntimeError):
        if shutil.which("gcc") is None:
            pytest.skip("no gcc on PATH to build the C exchange kernel")
        raise


@pytest.fixture(scope="module")
def c_backend():
    return load_c_backend()


@pytest.fixture(params=["c", "python"])
def backend(request):
    return request.getfixturevalue("c_backend") if request.param == "c" else PYTHON


def on(backend):
    """Make kinex take ``backend`` for runs and tau, as if it had resolved it."""
    return mock.patch("kinex._backend._resolve_backend", lambda: backend)


def run_with(backend, params: SimulationParams):
    with on(backend):
        return run_simulation(params)


def bits(result) -> tuple:
    return ({t: a.tobytes() for t, a in result.snapshots.items()},
            float.hex(result.cumulative_pool))


rate_st = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))


@st.composite
def run_params(draw):
    t_max = draw(st.integers(min_value=1, max_value=3 * SPAN + 5))
    times = draw(st.sets(st.integers(min_value=0, max_value=t_max), max_size=5))
    return SimulationParams(
        n_agents=draw(st.integers(min_value=2, max_value=40)),
        saving_rate=draw(rate_st), surplus_rate=draw(rate_st),
        initial_asset=draw(st.floats(min_value=1e-3, max_value=1e3)),
        t_max=t_max, seed=draw(st.integers(min_value=0, max_value=2**64 - 1)),
        snapshot_times=tuple(sorted(times | draw(st.sampled_from([set(), {0}])))))


class TestParity:
    @settings(max_examples=60, deadline=None)
    @given(params=run_params())
    def test_drawn_runs_are_bit_identical(self, c_backend, params):
        assert bits(run_with(c_backend, params)) == bits(run_with(PYTHON, params))

    def test_numpy_float32_rates_run_in_doubles(self, c_backend):
        # in Python, 1.0 - np.float32(0.3) is a float32: the params convert it first
        p = SimulationParams(n_agents=20, saving_rate=np.float32(0.3),
                             surplus_rate=np.float32(0.6), initial_asset=np.float32(1.5),
                             t_max=500, seed=2, snapshot_times=(500,))
        doubles = SimulationParams(n_agents=20, saving_rate=float(np.float32(0.3)),
                                   surplus_rate=float(np.float32(0.6)), initial_asset=1.5,
                                   t_max=500, seed=2, snapshot_times=(500,))
        python = run_with(PYTHON, p)
        assert python.snapshots[500].dtype == np.float64
        assert bits(python) == bits(run_with(c_backend, p)) == bits(run_with(PYTHON, doubles))

    @pytest.mark.parametrize("n, lam, gam, t_max, snaps", REPLAY_CASES,
                             ids=[f"n{c[0]}-lam{c[1]}-gam{c[2]}-T{c[3]}" for c in REPLAY_CASES])
    def test_c_run_replays_through_exchange(self, c_backend, n, lam, gam, t_max, snaps):
        p = SimulationParams(n_agents=n, saving_rate=lam, surplus_rate=gam,
                             t_max=t_max, seed=11, snapshot_times=snaps)
        snapshots, cumulative = replay_one_step_at_a_time(p)
        assert bits(run_with(c_backend, p)) == ({t: a.tobytes() for t, a in snapshots.items()},
                                          float.hex(cumulative))

    @pytest.mark.parametrize("kwargs, snapshot_digests, pool_hex", RUN_GOLDENS,
                             ids=[f"lam{k['saving_rate']}-gam{k['surplus_rate']}-T{k['t_max']}"
                                  for k, _, _ in RUN_GOLDENS])
    def test_golden_runs(self, backend, kwargs, snapshot_digests, pool_hex):
        result = run_with(backend, SimulationParams(snapshot_times=tuple(snapshot_digests),
                                                    **kwargs))
        assert {t: hashlib.sha256(a.tobytes()).hexdigest()
                for t, a in result.snapshots.items()} == snapshot_digests
        assert float.hex(result.cumulative_pool) == pool_hex


def assert_runs_agree(c_backend, params: SimulationParams, seed: int, spare: bool) -> None:
    """The C run and ``exchange._run`` give the same snapshot bytes, pool bits
    and generator state, from ``default_rng(seed)``, entered with a spare
    half-word where ``spare``."""
    want, got = np.random.default_rng(seed), np.random.default_rng(seed)
    if spare:
        for rng in (want, got):
            state = rng.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, (2**32 - seed) % 2**32
            rng.bit_generator.state = state
    want_snapshots, want_pool = PYTHON.run(want, params)
    got_snapshots, got_pool = c_backend.run(got, params)
    assert list(got_snapshots) == list(want_snapshots) == list(params.snapshot_times)
    for t, assets in got_snapshots.items():
        assert assets.dtype == np.float64
        assert assets.tobytes() == want_snapshots[t].tobytes(), (seed, t)
    assert float.hex(got_pool) == float.hex(want_pool), seed
    assert got.bit_generator.state == want.bit_generator.state, seed


class TestRun:
    """One C call per run against ``exchange._run``, the reference, with
    ``_BLOCK`` shrunk so that a run crosses many odd blocks and carries a
    spare half-word from one block's draws into the next. The C run takes
    two steps at once, a lane each, where their four agents are distinct, and
    one step in both lanes where it shares an agent with the next or ends a
    segment: at n = 3 every step runs alone, and at n = 5 and 8 (where about
    70% and 46% of neighbouring steps share an agent) paired and lone steps
    alternate."""

    @pytest.mark.parametrize("block", (1, 2, 3, 7, 64))
    @pytest.mark.parametrize("n", (2, 3, 5, 8, 40))  # at n = 2, j draws nothing
    @pytest.mark.parametrize("t_max", (5, 200))
    def test_run_equals_reference(self, c_backend, monkeypatch, block, n, t_max):
        monkeypatch.setattr(exchange, "_BLOCK", block)
        edges = {0, block - 1, block, block + 1, 2 * block, 3 * block + 1, t_max - 1, t_max}
        # segments of 1, 2, 3, ... steps from a block's start, so that they
        # end on a pair and on a lone step, at odd and even offsets
        offsets = {b * block + o for b in range(3) for o in (1, 3, 6, 10, 15)}
        for seed, times in itertools.product(range(4), ((), edges, offsets)):
            params = SimulationParams(
                n_agents=n, saving_rate=0.3, surplus_rate=0.6, t_max=t_max, seed=seed,
                snapshot_times=tuple(sorted(t for t in times if 0 <= t <= t_max)))
            assert_runs_agree(c_backend, params, seed, spare=seed % 2 == 1)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(min_value=2, max_value=64), t_max=st.integers(min_value=1, max_value=400),
           block=st.integers(min_value=1, max_value=64), data=st.data())
    def test_drawn_runs_equal_reference(self, c_backend, n, t_max, block, data):
        times = data.draw(st.sets(st.integers(min_value=0, max_value=t_max)), label="times")
        seed = data.draw(st.integers(min_value=0, max_value=2**64 - 1), label="seed")
        params = SimulationParams(
            n_agents=n, saving_rate=data.draw(rate_st, label="saving_rate"),
            surplus_rate=data.draw(rate_st, label="surplus_rate"), t_max=t_max, seed=seed,
            snapshot_times=tuple(sorted(times)))
        with mock.patch.object(exchange, "_BLOCK", block):
            assert_runs_agree(c_backend, params, seed, spare=data.draw(st.booleans(), "spare"))

    def test_run_refuses_a_generator_it_cannot_reproduce(self, c_backend):
        params = SimulationParams(n_agents=10, saving_rate=0.5, surplus_rate=0.5, t_max=5)
        with pytest.raises(TypeError, match="PCG64"):
            c_backend.run(np.random.Generator(np.random.PCG64DXSM(0)), params)


def assert_rows_agree(c_backend, *columns):
    assert c_backend.format_rows(columns) == PYTHON.format_rows(columns)


def both_ways(words) -> tuple[np.ndarray, np.ndarray]:
    """64-bit patterns as an int64 and a float64 column."""
    words = np.asarray(words, dtype=np.uint64)
    return words.view(np.int64), words.view(np.float64)


def with_neighbours(x: np.ndarray) -> np.ndarray:
    """x, and the doubles just below and just above each of its values."""
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


class TestFormat:
    """The C rows against csv.writer's: str of each int64, repr of each double."""

    @settings(max_examples=300, deadline=None)
    @given(words=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1,
                          max_size=64))
    def test_drawn_bit_patterns(self, c_backend, words):
        assert_rows_agree(c_backend, *both_ways(words))

    def test_powers_of_two_and_their_neighbours(self, c_backend):
        x = with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))
        assert_rows_agree(c_backend, np.concatenate([x, -x]))

    def test_subnormals(self, c_backend):
        rng = np.random.default_rng(0)
        words = np.concatenate([np.arange(1, 50_001), 2**52 - np.arange(1, 50_001),
                                rng.integers(1, 2**52, 50_000)])
        assert_rows_agree(c_backend, *both_ways(words))

    def test_powers_of_ten_and_their_neighbours(self, c_backend):
        # 1e-05 and 1e+16 take the exponent form, 0.0001 and 1000000000000000.0 not
        x = with_neighbours(np.array([float(f"1e{k}") for k in range(-323, 309)]))
        assert_rows_agree(c_backend, x)
        assert c_backend.format_rows((np.array([1e-4, 1e-5, 1e15, 1e16]),)) == (
            b"0.0001\r\n1e-05\r\n1000000000000000.0\r\n1e+16\r\n")

    def test_zeros_infinities_and_nans(self, c_backend):
        nans = both_ways([0x7FF0000000000001, 0xFFF8000000000000])[1]
        x = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan], nans])
        assert c_backend.format_rows((x,)) == b"0.0\r\n-0.0\r\ninf\r\n-inf\r\n" + b"nan\r\n" * 3
        assert_rows_agree(c_backend, x)

    def test_int64_extremes(self, c_backend):
        ints = np.array([-2**63, 2**63 - 1, -1, 0, 10**18], np.int64)
        assert c_backend.format_rows((ints,)) == (b"-9223372036854775808\r\n9223372036854775807"
                                                  b"\r\n-1\r\n0\r\n1000000000000000000\r\n")
        assert_rows_agree(c_backend, ints)

    def test_histogram_shaped_table(self, c_backend):
        # float, float, int columns, as kinex simulate writes each histogram
        edges = np.linspace(0.0, 7.3, 51)
        counts = np.random.default_rng(1).integers(0, 10**6, 50)
        assert_rows_agree(c_backend, edges[:-1], edges[1:], counts)

    def test_refuses_columns_it_cannot_write(self, c_backend):
        for columns in [(), (np.arange(3, dtype=np.int32),), (np.ones(3, np.float32),),
                        (np.ones((2, 2)),)]:
            with pytest.raises(TypeError):
                c_backend.format_rows(columns)
        for backend in (c_backend, PYTHON):
            with pytest.raises(ValueError):
                backend.format_rows((np.ones(3), np.arange(4)))

    def test_format_probe_mismatch_falls_back_once(self, c_backend, fresh_resolution,
                                                   monkeypatch):
        reference = _backend._format_rows

        def java_digits(columns):  # the reference, with Java's two-digit minimum
            return reference(columns).replace(b"5e-324", b"4.9e-324")

        monkeypatch.setattr(_backend, "_format_rows", java_digits)
        with pytest.warns(RuntimeWarning, match="rows differ from csv.writer's") as caught:
            assert _resolve_backend().name == "python"
            assert _resolve_backend().name == "python"
        assert len(caught) == 1

    def test_simulate_tree_is_the_same_on_both_backends(self, c_backend, tmp_path,
                                                        monkeypatch):
        # N=2000 and 21 snapshots (20 given, plus t1): 42 tables through format_rows
        config = {"simulate": {"n_agents": 2000, "t_max": 20_000,
                               "snapshot_times": list(range(1000, 20_001, 1000))}}
        trees = {}
        for backend in (c_backend, PYTHON):
            (tmp_path / backend.name).mkdir()
            monkeypatch.chdir(tmp_path / backend.name)
            Path("config.json").write_text(json.dumps(config))
            with on(backend):
                assert main(["simulate", "--config", "config.json", "--out", "out"]) == 0
            trees[backend.name] = {path.relative_to("out").as_posix(): path.read_bytes()
                                   for path in Path("out").rglob("*") if path.is_file()}
        assert len([name for name in trees["c"] if name.startswith("snapshots/")]) == 21
        assert trees["c"] == trees["python"]


def assert_counts_agree(c_backend, x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    got = c_backend.tau_counts(x, y)
    assert [type(count) for count in got] == [int] * 4
    assert got == PYTHON.tau_counts(x, y)


# few distinct values, zeros of both signs among them, so most pairs tie
TIE_VALUES = (-0.0, 0.0, 0.5, 1.0, 2.0)
tie_heavy_pair = st.integers(min_value=2, max_value=200).flatmap(
    lambda n: st.tuples(*[st.lists(st.sampled_from(TIE_VALUES), min_size=n, max_size=n)] * 2))
# metrics._inversions merges blocks of width 1, 2, 4, ...: sizes around each power of two
MERGE_EDGE_SIZES = sorted({2, 3} | {2**k + d for k in range(2, 12) for d in (-1, 0, 1)})


# the C radix sort moves entries a byte at a time through 256 buckets
RADIX_SIZES = (2, 3, 255, 256, 257)
# finite extremes of both signs, the two zeros and subnormals
EXTREME_VALUES = (-1.7976931348623157e308, -1e308, -1.5, -2.2250738585072014e-308, -1e-310,
                  -5e-324, -0.0, 0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.5, 1e308,
                  1.7976931348623157e308)
extreme_pair = st.integers(min_value=2, max_value=300).flatmap(
    lambda n: st.tuples(*[st.lists(st.one_of(st.sampled_from(EXTREME_VALUES),
                                             st.floats(allow_nan=False, allow_infinity=False)),
                                   min_size=n, max_size=n)] * 2))


def doubles(bits) -> np.ndarray:
    """The float64 values of 64-bit patterns."""
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


class TestTau:
    @settings(max_examples=150, deadline=None)
    @given(pair=tie_heavy_pair)
    def test_c_counts_equal_numpy_on_tie_heavy_vectors(self, c_backend, pair):
        assert_counts_agree(c_backend, *pair)

    @pytest.mark.parametrize("n", MERGE_EDGE_SIZES)
    def test_c_counts_equal_numpy_at_merge_width_edges(self, c_backend, n):
        rng = np.random.default_rng(n)
        assert_counts_agree(c_backend, rng.random(n), rng.random(n))
        assert_counts_agree(c_backend, rng.integers(0, 3, n), rng.choice(TIE_VALUES, n))

    @pytest.mark.parametrize("n", RADIX_SIZES)
    def test_c_counts_equal_numpy_around_one_digit_of_buckets(self, c_backend, n):
        rng = np.random.default_rng(n)
        assert_counts_agree(c_backend, rng.random(n), rng.random(n))
        # n distinct values, then each of 256 values drawn n times over
        assert_counts_agree(c_backend, rng.permutation(n), rng.permutation(n) % 256)
        assert_counts_agree(c_backend, rng.integers(0, 256, n), -rng.integers(0, 256, n))

    @pytest.mark.parametrize("n", RADIX_SIZES)
    def test_c_counts_equal_numpy_on_keys_one_byte_apart(self, c_backend, n):
        # the keys share all their other bytes, so every other radix pass keeps their order
        rng = np.random.default_rng(n)
        low = rng.integers(0, 256, size=(2, n), dtype=np.uint64)
        one = np.uint64(0x3FF0_0000_0000_0000)  # 1.0
        sign = np.uint64(1 << 63)
        assert_counts_agree(c_backend, doubles(one | low[0]), doubles(one | low[1]))
        assert_counts_agree(c_backend, doubles(one | low[0]), doubles(sign | one | low[1]))
        # top bytes 0x00 to 0x7F are +0.0 and positive normals up to 2**1009, and
        # 0x81 to 0xFF their negatives; 0x80 is -0.0, keyed as +0.0
        top = rng.integers(0, 0x80, size=(2, n), dtype=np.uint64) << np.uint64(56)
        negative = rng.integers(0x81, 0x100, n, dtype=np.uint64) << np.uint64(56)
        assert_counts_agree(c_backend, doubles(top[0]), doubles(top[1]))
        assert_counts_agree(c_backend, doubles(top[0]), doubles(negative))

    @settings(max_examples=150, deadline=None)
    @given(pair=extreme_pair)
    def test_c_counts_equal_numpy_on_extreme_values(self, c_backend, pair):
        assert_counts_agree(c_backend, *pair)

    def test_c_counts_refuse_vectors_they_would_misread(self, c_backend):
        # the kernel reads y as far as x, and needs two agents to count a pair
        for x, y in [(np.ones(3), np.ones(4)), (np.ones(4), np.ones(3)), ([1.0], [2.0])]:
            with pytest.raises(ValueError, match="one length >= 2"):
                c_backend.tau_counts(x, y)

    def test_c_counts_equal_numpy_on_large_run_snapshots(self, c_backend):
        # about e**-2 of the agents have not traded by t = 1e5: they tie at 1.0
        params = SimulationParams(n_agents=100_000, saving_rate=0.5, surplus_rate=0.5,
                                  t_max=200_000, seed=4, snapshot_times=(100_000, 200_000))
        result = run_with(c_backend, params)
        assert_counts_agree(c_backend, result.snapshots[100_000], result.snapshots[200_000])

    def test_all_tied_pair_warns_once_and_gives_zero(self, backend):
        with on(backend), pytest.warns(UserWarning, match="tied") as caught:
            assert kendall_tau([2.0] * 7, [0.0, -0.0] * 3 + [0.0]) == 0.0
        assert len(caught) == 1

    def test_input_types_give_one_tau_on_both_backends(self, c_backend):
        rng = np.random.default_rng(6)
        ints = rng.integers(0, 40, size=(2, 301))
        wide = rng.random((2, 602))
        for x, y in [(ints[0].tolist(), ints[1].tolist()), (ints[0], ints[1]),
                     (wide[0].astype(np.float32), wide[1].astype(np.float32)),
                     (wide[0, ::2], wide[1, ::2])]:
            want = kendall_tau(np.array(x, dtype=np.float64), np.array(y, dtype=np.float64))
            for backend in (c_backend, PYTHON):
                with on(backend):
                    assert kendall_tau(x, y) == want, (backend.name, type(x))

    @pytest.mark.parametrize("name", ["test_matches_brute_force_on_random_vectors",
                                      "test_matches_brute_force_with_ties",
                                      "test_matches_brute_force_on_tie_heavy_vectors"])
    def test_brute_force_cases_on_each_backend(self, backend, name):
        with on(backend):
            getattr(test_metrics.TestKendallTau(), name)()


# numpy's bounded integer draws by the bound n - 1 of i and n - 2 of j: n = 2
# draws nothing for j; 3 and 1000 take 32-bit Lemire draws, which at 2**31 + 1
# reject about half the time; 2**32 - 1 gives i the largest Lemire bound;
# 2**32, the most agents a run takes, draws plain 32-bit words for i
DRAW_NS = (2, 3, 1000, 2**31 + 1, 2**32 - 1, 2**32)
DRAW_SIZES = (1, 2, 3, 4097)


class TestDraws:
    @pytest.mark.parametrize("n", DRAW_NS)
    def test_c_draws_equal_draw_block(self, c_backend, n):
        # two consecutive blocks of every pair of sizes: an odd count of 32-bit
        # draws leaves a spare half-word that the next draw, in this block or
        # the next, takes first
        for seed, sizes in itertools.product(range(16), itertools.product(DRAW_SIZES, repeat=2)):
            want, got = np.random.default_rng(seed), np.random.default_rng(seed)
            for size in sizes:
                for w, g in zip(_draw_block(want, n, size), c_backend.draw(got, n, size)):
                    assert w.dtype == g.dtype and w.tobytes() == g.tobytes(), (seed, sizes)
                assert got.bit_generator.state == want.bit_generator.state, (seed, sizes)

    def test_c_draws_refuse_what_they_cannot_reproduce(self, c_backend):
        with pytest.raises(ValueError, match="n >= 2"):  # the kernel would divide by zero
            c_backend.draw(np.random.default_rng(0), 1, 5)
        with pytest.raises(ValueError, match=r"at most 2\*\*32"):  # past the 32-bit cells
            c_backend.draw(np.random.default_rng(0), 2**32 + 1, 5)
        with pytest.raises(TypeError, match="PCG64"):
            c_backend.draw(np.random.Generator(np.random.PCG64DXSM(0)), 10, 5)

    def test_draw_probe_mismatch_falls_back_once(self, c_backend, fresh_resolution,
                                                 monkeypatch):
        def shifted(rng, n, size):  # the reference, one eps off by one ulp
            ii, jj, ee = _draw_block(rng, n, size)
            ee[-1] = np.nextafter(ee[-1], 1.0)
            return ii, jj, ee

        monkeypatch.setattr(exchange, "_draw_block", shifted)
        with pytest.warns(RuntimeWarning, match="draws differ from numpy's") as caught:
            assert _resolve_backend().name == "python"
            assert _resolve_backend().name == "python"
        assert len(caught) == 1


class TestScratch:
    """A C run's scratch lives only as long as the run, on every thread."""

    def test_a_run_frees_its_scratch_on_every_thread(self, c_backend, monkeypatch):
        # numpy reports its array data to tracemalloc; the lock keeps the sweep's
        # two workers from running, and so from allocating scratch, at once
        lock = threading.Lock()
        readings = []  # (peak over the baseline, bytes left once the run returned)

        def traced_run(params):
            with lock:
                baseline = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                result = run_simulation(params)
                current, peak = tracemalloc.get_traced_memory()
                readings.append((peak - baseline, current - baseline))
            return result

        params = SimulationParams(n_agents=20, saving_rate=0.5, surplus_rate=0.5,
                                  t_max=3 * _BLOCK + 5)
        monkeypatch.setattr("kinex.sweep.run_simulation", traced_run)
        with on(c_backend):
            run_simulation(params)  # once untraced, so no first-call cache is counted
            tracemalloc.start()
            try:
                traced_run(params)  # on the main thread
                thread = threading.Thread(target=traced_run, args=(params,))
                thread.start()
                thread.join(timeout=60)
                run_sweep(SweepSpec(lambda_values=(0.2, 0.5), gamma_values=(0.5,),
                                    n_agents=20, t_max=params.t_max, replicates=2), workers=2)
            finally:
                tracemalloc.stop()
        assert not thread.is_alive() and len(readings) == 1 + 1 + 4
        for peak, left in readings:
            # one scratch of a 32-bit i and j per step of a block, not 24 bytes a step
            assert 8 * _BLOCK <= peak < 9 * _BLOCK, readings
            assert left < 8 * 1024, readings  # the two snapshots of 20 agents and so on


# n = 3 * 2**30: Lemire's excl is 3 * 2**30 and its threshold 2**30, so a 32-bit
# draw is rejected a quarter of the time (leftover < 2**30) and is a false alarm
# of the paired fast check half the time (2**30 <= leftover < excl)
REJECTING_N = 3 * 2**30


def assert_c_draws_equal_draw_block(c_backend, want, got, n, sizes):
    """Draw a block of each size from ``want`` by _draw_block and from ``got``
    by the C draws: the same values and dtypes, and the same state dict."""
    for size in sizes:
        for w, g in zip(_draw_block(want, n, size), c_backend.draw(got, n, size)):
            assert w.dtype == g.dtype and w.tobytes() == g.tobytes(), sizes
        assert got.bit_generator.state == want.bit_generator.state, sizes


def first_rejection(seed, n, size):
    """Where numpy's Lemire test first rejects among the first ``size`` i draws
    of a fresh generator (None if nowhere), and the leftovers of the 32-bit
    words next_uint32 hands out, low half first, which are exact up to there."""
    words = np.random.default_rng(seed).bit_generator.random_raw((size + 1) // 2)
    halves = np.stack([words & 0xFFFFFFFF, words >> 32], axis=1).ravel()[:size]
    leftovers = (halves * np.uint64(n)) & 0xFFFFFFFF
    rejected = np.flatnonzero(leftovers < (2**32 - n) % n)
    return (int(rejected[0]) if rejected.size else None), leftovers


class TestPairedDraws:
    """The C draws take both 32-bit halves of a word at once for a 32-bit bound
    and hand a pair with a low leftover, a spare half-word and an odd tail to
    the scalar path; each seam must give _draw_block's values and state."""

    def test_often_rejecting_bound(self, c_backend):
        for seed, sizes in itertools.product(range(24), [(1000, 1001), (2, 4097), (1, 2)]):
            want, got = np.random.default_rng(seed), np.random.default_rng(seed)
            assert_c_draws_equal_draw_block(c_backend, want, got, REJECTING_N, sizes)

    @pytest.mark.parametrize("where", ["first pair", "last pair", "high half only"])
    def test_rejection_at_a_seam(self, c_backend, where):
        size = 16

        def lands(seed):
            at, leftovers = first_rejection(seed, REJECTING_N, size)
            if at is None:
                return False
            if where == "first pair":
                return at < 2
            if where == "last pair":
                return at >= size - 2
            # the low half of its pair passes even the fast check
            return at % 2 == 1 and leftovers[at - 1] >= REJECTING_N

        seed = next(seed for seed in range(10_000) if lands(seed))
        for sizes in [(size, 3), (size, size)]:
            want, got = np.random.default_rng(seed), np.random.default_rng(seed)
            assert_c_draws_equal_draw_block(c_backend, want, got, REJECTING_N, sizes)

    @pytest.mark.parametrize("n", (3, 1000, REJECTING_N))
    def test_even_block_entered_with_a_spare_half_word(self, c_backend, n):
        # a spare of 0 has leftover 0, which every one of these bounds rejects
        for seed, spare in itertools.product(range(8), (0, 1, 2**31, 2**32 - 1)):
            want, got = np.random.default_rng(seed), np.random.default_rng(seed)
            for rng in (want, got):
                state = rng.bit_generator.state
                state["has_uint32"], state["uinteger"] = 1, spare
                rng.bit_generator.state = state
            assert_c_draws_equal_draw_block(c_backend, want, got, n, (4, 2))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(min_value=3, max_value=2**32),
           seed=st.integers(min_value=0, max_value=2**64 - 1),
           sizes=st.tuples(st.integers(min_value=1, max_value=64),
                           st.integers(min_value=1, max_value=64)))
    def test_paired_draws_equal_draw_block(self, c_backend, n, seed, sizes):
        want, got = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_c_draws_equal_draw_block(c_backend, want, got, n, sizes)


@pytest.fixture
def fresh_resolution():
    """Forget the resolved backend, so the test's environment decides; then again."""
    _resolve_backend.cache_clear()
    yield
    _resolve_backend.cache_clear()


@pytest.fixture
def no_compiler(fresh_resolution, tmp_path, monkeypatch):
    """No gcc on PATH and an empty kernel cache."""
    (tmp_path / "bin").mkdir()
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache"


class TestBackendSelection:
    def test_gcc_on_path_gives_the_c_kernel(self):
        # the backend this process runs everything else on, test_golden included
        if shutil.which("gcc") is None:
            pytest.skip("no gcc on PATH to build the C exchange kernel")
        assert _resolve_backend().name == "c"

    def test_no_compiler_falls_back_once_with_same_digests(self, no_compiler,
                                                           tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.warns(RuntimeWarning, match="no gcc on PATH"):
            assert _resolve_backend().name == "python"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # it warned once, not per run
            assert _resolve_backend().name == "python"
        (tmp_path / "config.json").write_text(json.dumps(SWEEP_CONFIG))
        for threads in ("1", "2"):
            monkeypatch.setenv("KINEX_THREADS", threads)
            with pytest.warns(UserWarning, match="tied"):  # the lambda=1 cells never move
                assert main(["sweep", "--config", "config.json", "--out", threads]) == 0
            csv = (tmp_path / threads / "sweep.csv").read_bytes()
            assert hashlib.sha256(csv).hexdigest() == SWEEP_CSV_SHA256
        kwargs, snapshot_digests, pool_hex = RUN_GOLDENS[1]
        result = run_simulation(SimulationParams(snapshot_times=tuple(snapshot_digests),
                                                 **kwargs))
        assert {t: hashlib.sha256(a.tobytes()).hexdigest()
                for t, a in result.snapshots.items()} == snapshot_digests
        assert float.hex(result.cumulative_pool) == pool_hex
        assert not no_compiler.exists()

    @pytest.mark.parametrize("call", [
        lambda: run_simulation(SimulationParams(n_agents=10, saving_rate=0.5,
                                                surplus_rate=0.5, t_max=100)),
        lambda: run_sweep(SweepSpec(lambda_values=(0.5,), gamma_values=(0.5,), n_agents=10,
                                    t_max=100, replicates=2), workers=1),
    ], ids=["run_simulation", "run_sweep"])
    def test_fallback_warning_names_the_caller(self, no_compiler, call):
        with pytest.warns(RuntimeWarning, match="no gcc on PATH") as caught:
            call()
        assert [w.filename for w in caught] == [__file__]

    def test_fallback_warning_under_python_m_names_cli(self, no_compiler, tmp_path):
        # cli.py runs as __main__ from inside the package; the walk must stop there
        (tmp_path / "tiny.json").write_text(json.dumps({"simulate": {"n_agents": 10,
                                                                     "t_max": 100}}))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-m", "kinex.cli", "simulate", "--config",
                               "tiny.json", "--out", "out"], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stderr.startswith(f"{SRC / 'kinex' / 'cli.py'}:"), done.stderr

    def test_failing_build_falls_back_once_and_leaves_no_file(self, no_compiler, tmp_path):
        gcc = tmp_path / "bin" / "gcc"
        gcc.write_text("#!/bin/sh\necho 'kernel.c:1: error: no luck' >&2\nexit 1\n")
        gcc.chmod(0o755)
        with pytest.warns(RuntimeWarning) as caught:
            assert _resolve_backend().name == "python"
            assert _resolve_backend().name == "python"
        assert len(caught) == 1
        assert "gcc failed: kernel.c:1: error: no luck" in str(caught[0].message)
        assert list((no_compiler / "kinex").iterdir()) == []  # the temporary .so is gone

    def test_unwritable_cache_falls_back(self, c_backend, fresh_resolution,
                                         tmp_path, monkeypatch):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        with pytest.warns(RuntimeWarning, match="C exchange kernel is unavailable"):
            assert _resolve_backend().name == "python"

    def test_cache_home_that_is_a_file_falls_back_once_with_the_c_tree(
            self, c_backend, fresh_resolution, tmp_path, monkeypatch):
        (tmp_path / "tiny.json").write_text(json.dumps({"simulate": {"n_agents": 50,
                                                                     "t_max": 2000}}))

        def simulate(where):  # the same command line in a directory of its own
            (tmp_path / where).mkdir()
            monkeypatch.chdir(tmp_path / where)
            assert main(["simulate", "--config", "../tiny.json", "--out", "out"]) == 0
            return _tree_bytes(tmp_path / where / "out")

        with on(c_backend):
            want = simulate("c")
        blocker = tmp_path / "cache-file"
        blocker.write_text("")
        with pytest.raises(OSError) as refused:
            (blocker / "kinex").mkdir(parents=True, exist_ok=True)
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        with pytest.warns(RuntimeWarning) as caught:
            assert simulate("fallback") == want
            assert simulate("again") == want
        assert len(caught) == 1
        assert f"unavailable ({refused.value})" in str(caught[0].message)
        assert _resolve_backend().name == "python"

    def test_build_leaves_one_library_in_the_cache(self, c_backend, fresh_resolution,
                                                   tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert _resolve_backend().name == "c"
        (library,) = (tmp_path / "kinex").iterdir()  # no temporary file is left behind
        assert library.suffix == ".so"
        # kinex_run is the first export: its speed moved with its offset (_kernel.c)
        loaded = ctypes.CDLL(str(library))
        addresses = {name: ctypes.cast(getattr(loaded, name), ctypes.c_void_p).value
                     for name in ("kinex_run", "kinex_draw", "kinex_tau_counts",
                                  "kinex_format_rows")}
        assert min(addresses, key=addresses.get) == "kinex_run", addresses

    def test_relative_cache_home_is_ignored(self, c_backend, fresh_resolution,
                                            tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("XDG_CACHE_HOME", "relative")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        assert _resolve_backend().name == "c"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["home"]
        assert len(list((tmp_path / "home" / ".cache" / "kinex").iterdir())) == 1

    def test_warm_cache_loads_no_build_module(self, c_backend, tmp_path):
        # the c_backend fixture has built the kernel into this environment's cache
        code = ("import sys\nfrom kinex import _backend\nfrom kinex.cli import main\n"
                "assert _backend._resolve_backend().name == 'c'\n"
                "assert main(['simulate', '--config', 'tiny.json', '--out', 'out']) == 0\n"
                "assert 'subprocess' not in sys.modules")
        (tmp_path / "tiny.json").write_text(json.dumps({"simulate": {"n_agents": 10,
                                                                     "t_max": 100}}))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_import_builds_nothing(self, tmp_path):
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
                   PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c", "import kinex.cli"], env=env, check=True)
        assert list(tmp_path.iterdir()) == []


class TestKernelAB:
    """``tools/kernel_ab.py``, the same-process A/B of ``kinex_run``,
    ``kinex_tau_counts`` and ``kinex_format_rows`` between two versions of
    ``_kernel.c``, on tiny runs."""

    def ab(self, old: Path, new: Path) -> subprocess.CompletedProcess:
        if shutil.which("gcc") is None:
            pytest.skip("no gcc on PATH to build the C exchange kernel")
        return subprocess.run([sys.executable, str(TOOLS / "kernel_ab.py"), str(old), str(new),
                               "--size", "10", "300", "4", "--size", "3", "50", "2",
                               "--rounds", "2"], capture_output=True, text=True)

    def test_kernel_against_itself_is_the_null_ab(self):
        done = self.ab(KERNEL, KERNEL)
        assert done.returncode == 0, done.stderr
        ratio, median = r"\d\.\d{3}", r"\d+\.\d"
        assert len(re.findall(rf"^N=\d+ T=\d+ round [12]: new/old median run {ratio}, "
                              rf"tau {ratio}, rows {ratio}; old {median}, {median}, {median} us; "
                              r"new faster in \d, \d, \d of [24]$", done.stdout, re.M)) == 4, \
            done.stdout

    def test_outputs_that_differ_fail(self, tmp_path):
        source = KERNEL.read_text()
        changed = tmp_path / "changed.c"  # the same run, its pool doubled
        changed.write_text(source.replace("    return cumulative;", "    return cumulative * 2;"))
        assert changed.read_text() != source
        done = self.ab(KERNEL, changed)
        assert done.returncode == 1, done.stderr
        assert done.stdout == "N=10 T=300: outputs differ in call 0 of round 1\n"

    # the same run, then one discordant pair too many, or rows that end in "\n\n"
    @pytest.mark.parametrize("line, changed_line, what", [
        ("    out[0] = discordant;", "    out[0] = discordant + 1;", "tau counts"),
        ("    p[-1] = '\\r';", "    p[-1] = '\\n';", "row bytes")], ids=["tau", "rows"])
    def test_counts_or_rows_that_differ_fail(self, tmp_path, line, changed_line, what):
        source = KERNEL.read_text()
        changed = tmp_path / "changed.c"
        changed.write_text(source.replace(line, changed_line))
        assert changed.read_text() != source
        done = self.ab(KERNEL, changed)
        assert done.returncode == 1, done.stderr
        assert done.stdout == f"N=10 T=300: {what} differ in call 0 of round 1\n"


class TestBuild:
    """``_backend._build``, the one build of the C unit, with checks of its own:
    warnings as errors, and the C tests under AddressSanitizer and UBSan."""

    # the unit with kinex's build flags, warnings as errors and -Wpedantic: its
    # 128-bit PCG64 arithmetic, the rotate, the bit-mask selects, the exchange
    # rule written once over two lanes of a 16-byte vector, kinex_run's one step
    # path, its uint32 i and j scratch and the j shift it reads in the loop, the
    # tau radix sorts and Fenwick tree and the row formatter must stay
    # warning-clean in ISO C. -Wvector-operation-performance fails the build if
    # gcc turns a 2-lane vector operation into scalar code, which would cost the
    # paired step its gain
    WARNINGS = ("-Wall", "-Wextra", "-Wpedantic", "-Wvector-operation-performance", "-Werror")
    # the C-backed classes that finish in seconds under the sanitizers
    SANITIZED = ("(TestRun or TestTau or TestFormat or TestDraws) "
                 "and not extreme_values and not probe_mismatch")

    def test_unit_compiles_with_warnings_as_errors(self, tmp_path):
        if shutil.which("gcc") is None:
            pytest.skip("no gcc on PATH to build the C exchange kernel")
        _backend._build(KERNEL.read_bytes(), tmp_path / "kernel.so", *self.WARNINGS)
        assert [p.name for p in tmp_path.iterdir()] == ["kernel.so"]

    def test_c_tests_pass_under_sanitizers(self):
        done = subprocess.run([sys.executable, str(TOOLS / "sanitize.py"), __file__, "-q",
                               "-k", self.SANITIZED], capture_output=True, text=True)
        if done.returncode == 77:  # no gcc, or no sanitizer runtime
            pytest.skip(done.stderr.strip())
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
