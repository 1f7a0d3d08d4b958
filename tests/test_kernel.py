"""The compiled exchange kernel against its references, and backend selection.

``_kernel.c`` computes ``_exchange``'s step, reproduces ``_draw_block``,
counts ``metrics._tau_counts``' pairs and writes ``_format_rows``' CSV rows.
These tests hold its loop to the hand-computed steps and properties of
test_exchange, its draws to ``_draw_block``'s values and generator state in
every bound regime of numpy's integer draws, its tau counts to the numpy
ones, its rows to ``str`` and ``repr`` byte for byte, and its runs and
``kinex simulate`` trees to the same bits on drawn runs, on the
``REPLAY_CASES`` of test_exchange and on the ``RUN_GOLDENS`` of
test_golden, by handing kinex each backend in turn. They also pin how the
backend is resolved: the C kernel whenever ``gcc`` is on PATH and its draws
and rows pass the load-time probes, else the Python reference with one
warning and the same digests, and nothing built at import.
"""

import ctypes
import functools
import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_exchange
import test_metrics
from kinex import (SimulationParams, SweepSpec, _backend, exchange, kendall_tau,
                   run_simulation, run_sweep)
from kinex.cli import main
from kinex._backend import _c_backend, _DrawBuffers, _python_backend, _resolve_backend
from kinex.exchange import _draw_block
from test_exchange import REPLAY_CASES, SPAN, replay_one_step_at_a_time
from test_golden import RUN_GOLDENS, SWEEP_CONFIG, SWEEP_CSV_SHA256

SRC = Path(__file__).resolve().parents[1] / "src"
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


def c_exchange(*args):
    """The C loop, loaded (or the test skipped) at its first call."""
    return load_c_backend().exchange(*args)


# test_exchange's hand-computed steps and properties, on the C loop
TestExchangeStep = test_exchange.exchange_step_tests(c_exchange)


class TestArrayContract:
    @pytest.mark.parametrize("case", ["strided indices", "2-d assets", "float32 eps"])
    def test_c_exchange_refuses_arrays_it_would_misread(self, c_backend, case):
        ii, jj, ee = _draw_block(np.random.default_rng(3), 6, 20)
        assets = np.ones(6)
        if case == "strided indices":  # C would step through them as if contiguous
            ii, jj, ee = ii[::2], jj[::2], ee[:10]
        elif case == "2-d assets":
            assets = assets.reshape(2, 3)
        else:
            ee = ee.astype(np.float32)
        with pytest.raises(ctypes.ArgumentError):
            c_backend.exchange(assets, ii, jj, ee, 0.5, 0.5, 0.0)
        assert assets.tobytes() == np.ones(6).tobytes()

    def test_c_exchange_refuses_blocks_of_unequal_length(self, c_backend):
        ii, jj, ee = _draw_block(np.random.default_rng(3), 6, 20)
        assets = np.ones(6)
        with pytest.raises(ValueError, match="one length"):  # C would read past eps
            c_backend.exchange(assets, ii, jj, ee[:10], 0.5, 0.5, 0.0)
        assert assets.tobytes() == np.ones(6).tobytes()

    def test_c_exchange_refuses_read_only_assets(self, c_backend):
        ii, jj, ee = _draw_block(np.random.default_rng(3), 6, 20)
        assets = np.ones(6)
        assets.flags.writeable = False  # C would update it in place
        with pytest.raises(ctypes.ArgumentError):
            c_backend.exchange(assets, ii, jj, ee, 0.5, 0.5, 0.0)
        assert assets.tobytes() == np.ones(6).tobytes()


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
# the C merges pair up blocks of width 1, 2, 4, ...: sizes around each power of two
MERGE_EDGE_SIZES = sorted({2, 3} | {2**k + d for k in range(2, 12) for d in (-1, 0, 1)})


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
# reject about half the time; 2**32 takes plain 32-bit words for i; 2**32 + 1
# and 2**33 + 3 take 64-bit Lemire draws
DRAW_NS = (2, 3, 1000, 2**31 + 1, 2**32, 2**32 + 1, 2**33 + 3)
DRAW_SIZES = (1, 2, 3, 4097)


class TestDraws:
    @pytest.mark.parametrize("n", DRAW_NS)
    def test_c_draws_equal_draw_block(self, c_backend, n):
        # two consecutive blocks of every pair of sizes: an odd count of 32-bit
        # draws leaves a spare half-word that the next draw, in this block or
        # the next, takes first
        buffers = _DrawBuffers()
        for seed, sizes in itertools.product(range(16), itertools.product(DRAW_SIZES, repeat=2)):
            want, got = np.random.default_rng(seed), np.random.default_rng(seed)
            for size in sizes:
                for w, g in zip(_draw_block(want, n, size), c_backend.draw(got, n, size, buffers)):
                    assert w.dtype == g.dtype and w.tobytes() == g.tobytes(), (seed, sizes)
                assert got.bit_generator.state == want.bit_generator.state, (seed, sizes)

    def test_c_draws_refuse_what_they_cannot_reproduce(self, c_backend):
        with pytest.raises(ValueError, match="n >= 2"):  # the kernel would divide by zero
            c_backend.draw(np.random.default_rng(0), 1, 5, _DrawBuffers())
        with pytest.raises(TypeError, match="PCG64"):
            c_backend.draw(np.random.Generator(np.random.PCG64DXSM(0)), 10, 5, _DrawBuffers())

    def test_sweep_workers_reuse_one_set_of_draw_buffers(self, monkeypatch):
        seen = []  # the thread's draw buffers after each run

        def run_and_peek(params):
            result = run_simulation(params)
            seen.append(getattr(_backend._thread_draws, "buffers", None))
            return result

        monkeypatch.setattr("kinex.sweep.run_simulation", run_and_peek)
        run_sweep(SweepSpec(lambda_values=(0.2, 0.5), gamma_values=(0.5,), n_agents=20,
                            t_max=200, replicates=2), workers=1)
        assert len(seen) == 4 and isinstance(seen[0], _DrawBuffers)
        assert all(buffers is seen[0] for buffers in seen)
        run_and_peek(SimulationParams(n_agents=20, saving_rate=0.5, surplus_rate=0.5,
                                      t_max=200))
        assert seen[-1] is None  # a run on any other thread frees its own

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


# n = 3 * 2**30: Lemire's excl is 3 * 2**30 and its threshold 2**30, so a 32-bit
# draw is rejected a quarter of the time (leftover < 2**30) and is a false alarm
# of the paired fast check half the time (2**30 <= leftover < excl)
REJECTING_N = 3 * 2**30


def assert_c_draws_equal_draw_block(c_backend, want, got, n, sizes):
    """Draw a block of each size from ``want`` by _draw_block and from ``got``
    by the C draws: the same values and dtypes, and the same state dict."""
    buffers = _DrawBuffers()
    for size in sizes:
        for w, g in zip(_draw_block(want, n, size), c_backend.draw(got, n, size, buffers)):
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
    @given(n=st.integers(min_value=3, max_value=2**32 - 2),
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

    def test_unwritable_cache_falls_back(self, c_backend, fresh_resolution,
                                         tmp_path, monkeypatch):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        with pytest.warns(RuntimeWarning, match="C exchange kernel is unavailable"):
            assert _resolve_backend().name == "python"

    def test_build_leaves_one_library_in_the_cache(self, c_backend, fresh_resolution,
                                                   tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert _resolve_backend().name == "c"
        (library,) = (tmp_path / "kinex").iterdir()  # no temporary file is left behind
        assert library.suffix == ".so"

    def test_relative_cache_home_is_ignored(self, c_backend, fresh_resolution,
                                            tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("XDG_CACHE_HOME", "relative")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        assert _resolve_backend().name == "c"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["home"]
        assert len(list((tmp_path / "home" / ".cache" / "kinex").iterdir())) == 1

    def test_import_builds_nothing(self, tmp_path):
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
                   PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c", "import kinex.cli"], env=env, check=True)
        assert list(tmp_path.iterdir()) == []
