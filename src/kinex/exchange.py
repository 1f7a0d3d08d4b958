"""Pairwise wealth-exchange kernel and full simulation runs.

Two agents are drawn uniformly at random each tick. Both withhold a
fraction ``saving_rate`` (lambda) of their assets. The poorer agent stakes
its whole surplus, ``(1 - lambda) * m_p``; the richer stakes the same
amount plus a fraction ``surplus_rate`` (gamma) of the surplus gap,
``(1 - lambda) * (m_p + gamma * (m_r - m_p))``. The combined pool is then
split at a uniform random fraction epsilon: the agent in position i
receives ``eps * pool``, the agent in position j the rest. gamma = 0
recovers the rule where both sides stake only the poorer surplus (which
slowly condenses all wealth into one agent); gamma = 1 recovers the rule
where both sides stake their full surplus.

Determinism: all randomness comes from ``numpy.random.Generator`` backed
by PCG64, seeded with the run seed. :func:`_draw_block` defines the stream:
fixed blocks of ``_BLOCK`` steps (pair indices i, then offsets j, then
epsilons), so a given (seed, t_max) always sees the same stream regardless
of snapshot schedule. ``_BLOCK`` and that draw order are part of the
reproducibility contract; where a block is split, at snapshot times and
in ``_CHUNK``-step pieces in :func:`_exchange`, is not. :func:`_exchange`
is the one definition of the rule and its float operations. Both are the
references any faster kernel must match bit for bit. Seed 0 is legal.

Backends: ``_kernel.c`` holds a C loop that does :func:`_exchange`'s float
operations in the same order (choosing the poorer side with masks instead
of a branch), a C reproduction of :func:`_draw_block`'s numpy algorithms
(which draws a 32-bit bound two values per 64-bit word, and one at a time
where numpy's rejection test may apply) and a C count of
``metrics._tau_counts``' pairs. :func:`_load_kernel`
builds it with the system ``gcc`` into a per-user cache. The C draws must
give :func:`_draw_block`'s values and generator state on a fixed probe
each time the library is loaded. Runs and tau take the C backend when it
is cached or can be built and passes the probe, and the Python references
otherwise, with one warning. Only the draws, the loop body, the asset
container (a list, or a float64 array for C) and the tau pair counts
depend on the backend, and the results are bit-identical. The backend is
resolved once per process on first use, never at import.

The C draws write into arrays the caller passes in. A sweep worker thread
keeps one set of them for all its runs (:func:`_reuse_draw_buffers`); any
other run allocates its own and frees them when it returns.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import sys
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np


# Random draws are made in blocks of this many steps to keep the inner
# loop free of generator calls. Part of the reproducibility contract:
# changing it changes golden outputs.
_BLOCK = 1 << 17

# Steps that _exchange copies from the draws into lists at a time, which
# bounds the memory of those copies; the C kernel takes each segment whole.
# Not part of the contract: any value gives the same outputs.
_CHUNK = 4096

_KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")
# -ffp-contract=off forbids fused multiply-adds. -ffast-math and
# -march=native must never be added: either one changes result bits.
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SimulationParams:
    """Full specification of one simulation run.

    ``t_max`` counts pairwise exchanges (one exchange per tick, not one
    sweep of N exchanges). ``snapshot_times`` must be strictly ascending
    integers in [0, t_max]; time 0 denotes the pre-exchange state.
    """

    n_agents: int
    saving_rate: float
    surplus_rate: float
    initial_asset: float = 1.0
    t_max: int = 100_000
    seed: int = 0
    snapshot_times: tuple[int, ...] = ()

    def __post_init__(self):
        if not _is_integer(self.n_agents) or self.n_agents < 2:
            raise ValueError(f"n_agents must be an integer >= 2, got {self.n_agents!r}")
        for name in ("saving_rate", "surplus_rate"):
            value = getattr(self, name)
            if not (_is_real(value) and 0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")
        if not (_is_real(self.initial_asset) and math.isfinite(self.initial_asset)
                and self.initial_asset > 0):
            raise ValueError(f"initial_asset must be positive, got {self.initial_asset!r}")
        if not _is_integer(self.t_max) or self.t_max < 1:
            raise ValueError(f"t_max must be a positive integer, got {self.t_max!r}")
        if not _is_integer(self.seed) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        snaps = tuple(self.snapshot_times)
        for t in snaps:
            if not _is_integer(t) or not 0 <= t <= self.t_max:
                raise ValueError(f"snapshot time {t!r} outside [0, t_max]")
        if any(a >= b for a, b in zip(snaps, snaps[1:])):
            raise ValueError(f"snapshot_times must be strictly ascending: {snaps}")
        for name in ("n_agents", "t_max", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))
        for name in ("saving_rate", "surplus_rate", "initial_asset"):  # so both backends
            object.__setattr__(self, name, float(getattr(self, name)))  # compute in doubles
        object.__setattr__(self, "snapshot_times", tuple(int(t) for t in snaps))


def _is_integer(value) -> bool:
    # numpy integers count; bool, although a subclass of int, does not
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    # int, float and numpy numbers count; bool does not
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class RunResult:
    """Snapshots plus the accumulated pool of one run.

    ``snapshots`` maps snapshot time -> copy of the asset vector after
    that many exchanges (time 0 = initial state). ``cumulative_pool`` is
    the plain left-to-right sum of per-step pools.
    """

    snapshots: dict[int, np.ndarray]
    cumulative_pool: float
    params: SimulationParams

    def __post_init__(self):
        if self.cumulative_pool < 0:
            raise ValueError("cumulative_pool must be non-negative")


def _draw_block(rng: np.random.Generator, n: int,
                size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw ``size`` steps in contract order: all i, then all j, then all eps.

    j is drawn from the n - 1 agents other than i. This defines the stream:
    the C draws of ``_kernel.c`` reproduce these values and the generator
    state they leave, and :func:`_check_draws` holds them to it on load.
    """
    ii = rng.integers(0, n, size=size)
    jj = rng.integers(0, n - 1, size=size)
    ee = rng.random(size)
    jj += jj >= ii
    return ii, jj, ee


class _DrawBuffers:
    """The i, j and eps arrays that the C draws write into.

    Allocated on first use and reallocated only for a larger block, so the
    runs that share one set allocate nothing after the first.
    """

    def __init__(self):
        self._ii = self._jj = np.empty(0, np.int64)
        self._ee = np.empty(0)

    def take(self, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if len(self._ee) < size:
            self._ii = np.empty(size, np.int64)
            self._jj = np.empty(size, np.int64)
            self._ee = np.empty(size)
        return self._ii[:size], self._jj[:size], self._ee[:size]


# The draw buffers of a thread that called _reuse_draw_buffers. Thread-local,
# so no two runs share them; they are freed when the thread exits.
_thread_draws = threading.local()


def _reuse_draw_buffers() -> None:
    """Make every later run on this thread draw into one set of buffers.

    The sweep's worker threads call it as their pool initializer. Other
    threads, the main thread included, allocate buffers per run, so none
    outlive a run there.
    """
    _thread_draws.buffers = _DrawBuffers()


def _exchange(assets: list, ii: np.ndarray, jj: np.ndarray, ee: np.ndarray,
              saving_rate: float, surplus_rate: float, cumulative: float) -> float:
    """Apply the exchanges (ii[k], jj[k], ee[k]) in order to ``assets``, in place.

    Returns ``cumulative`` plus each step's pool, added left to right. New
    values are sums of non-negative terms, so assets never go negative.
    """
    lam = saving_rate
    gam = surplus_rate
    oml = 1.0 - lam
    keep = oml * (1.0 - gam)  # the richer side's withheld share of the gap
    for lo in range(0, len(ii), _CHUNK):
        chunk = slice(lo, lo + _CHUNK)
        for i, j, eps, fps in zip(ii[chunk].tolist(), jj[chunk].tolist(),
                                  ee[chunk].tolist(), (1.0 - ee[chunk]).tolist()):
            mi = assets[i]
            mj = assets[j]
            if mi <= mj:
                gap = mj - mi
                pool = oml * (2.0 * mi + gam * gap)
                assets[i] = lam * mi + eps * pool
                assets[j] = lam * mj + keep * gap + fps * pool
            else:
                gap = mi - mj
                pool = oml * (2.0 * mj + gam * gap)
                assets[i] = lam * mi + keep * gap + eps * pool
                assets[j] = lam * mj + fps * pool
            cumulative += pool
    return cumulative


def _load_kernel() -> tuple[Callable, Callable, Callable]:
    """Load ``_kernel.c``, building it into the cache first if it is not there.

    Returns its exchange, a function with the signature of :func:`_exchange`
    that takes a float64 asset array, its draws and its tau pair counts, with
    the signatures of a backend's ``draw`` and ``tau_counts``. The cached
    library is keyed by the SHA-256 of the source, the flags and the
    platform. It is compiled to a temporary file and renamed into place, so
    processes may build at the same time.
    Raises OSError when there is no ``gcc``, the build fails or the cache
    is unwritable.
    """
    import ctypes
    import hashlib
    import shutil
    import subprocess
    import sysconfig
    import tempfile

    source = _KERNEL_SOURCE.read_bytes()
    key = hashlib.sha256(b"\0".join([source, " ".join(_CFLAGS).encode(),
                                     sysconfig.get_platform().encode()])).hexdigest()
    xdg = os.environ.get("XDG_CACHE_HOME", "")  # a relative value is ignored, as XDG says
    cache = (Path(xdg) if os.path.isabs(xdg) else Path.home() / ".cache") / "kinex"
    path = cache / f"exchange-{key[:16]}.so"
    if not path.exists():
        gcc = shutil.which("gcc")
        if gcc is None:
            raise OSError("no gcc on PATH")
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        try:
            build = subprocess.run([gcc, *_CFLAGS, "-x", "c", "-", "-o", tmp],
                                   input=source, capture_output=True)
            if build.returncode:
                raise OSError(f"gcc failed: {build.stderr.decode(errors='replace').strip()}")
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    library = ctypes.CDLL(str(path))
    kernel = library.kinex_exchange
    kernel.restype = ctypes.c_double
    kernel.argtypes = (ctypes.c_void_p,) * 4 + (ctypes.c_int64,) + (ctypes.c_double,) * 3
    draw_kernel = library.kinex_draw
    draw_kernel.restype = None
    draw_kernel.argtypes = ((ctypes.POINTER(ctypes.c_uint64),) + (ctypes.c_int64,) * 2
                            + (ctypes.c_void_p,) * 3)
    tau_kernel = library.kinex_tau_counts
    tau_kernel.restype = None
    tau_kernel.argtypes = (ctypes.c_void_p,) * 2 + (ctypes.c_int64,) + (ctypes.c_void_p,) * 2

    def exchange(assets: np.ndarray, ii: np.ndarray, jj: np.ndarray, ee: np.ndarray,
                 saving_rate: float, surplus_rate: float, cumulative: float) -> float:
        # the kernel reads raw memory; _draw_block's slices are contiguous
        if not (ii.dtype == jj.dtype == np.int64 and ee.dtype == assets.dtype == np.float64):
            raise TypeError("the C exchange kernel needs int64 ii/jj and float64 ee/assets")
        return kernel(assets.ctypes.data, ii.ctypes.data, jj.ctypes.data, ee.ctypes.data,
                      len(ii), saving_rate, surplus_rate, cumulative)

    def draw(rng: np.random.Generator, n: int, size: int,
             buffers: _DrawBuffers) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # _draw_block(rng, n, size) into the buffers; the generator state goes
        # to C and back through numpy's public state dict
        if n < 2:  # the kernel would divide by zero
            raise ValueError(f"need n >= 2 agents to draw pairs, got {n}")
        ii, jj, ee = buffers.take(size)
        bitgen = rng.bit_generator
        with bitgen.lock:
            state = bitgen.state
            if state["bit_generator"] != "PCG64":
                raise TypeError(f"the C draws need PCG64, not {state['bit_generator']}")
            pcg = state["state"]
            words = (ctypes.c_uint64 * 6)(pcg["state"] >> 64, pcg["state"] & _MASK64,
                                          pcg["inc"] >> 64, pcg["inc"] & _MASK64,
                                          state["has_uint32"], state["uinteger"])
            draw_kernel(words, n, size, ii.ctypes.data, jj.ctypes.data, ee.ctypes.data)
            pcg["state"] = words[0] << 64 | words[1]
            state["has_uint32"], state["uinteger"] = words[4], words[5]
            bitgen.state = state
        return ii, jj, ee

    def tau_counts(x: np.ndarray, y: np.ndarray) -> tuple[int, int, int, int]:
        # the kernel reads raw memory: contiguous float64 vectors of one length
        x = np.ascontiguousarray(x, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.float64)
        if not (x.ndim == y.ndim == 1 and x.size == y.size >= 2):
            raise ValueError("the C tau counts need two 1-d vectors of one length >= 2")
        work = np.empty(2 * x.size, np.int64)
        out = np.empty(4, np.int64)
        tau_kernel(x.ctypes.data, y.ctypes.data, x.size, work.ctypes.data, out.ctypes.data)
        return tuple(out.tolist())

    return exchange, draw, tau_counts


def _check_draws(draw: Callable) -> None:
    """Raise RuntimeError unless ``draw`` gives :func:`_draw_block`'s values and
    generator state: at n = 2 (j draws nothing), on a 32-bit bound that
    rejects about half its draws, at 2**32 (plain 32-bit words) and on a
    64-bit bound; in two consecutive blocks of odd sizes, so a spare
    half-word carries from one draw to the next and across blocks."""
    for n in (2, 1000, 2**31 + 1, 2**32, 2**33 + 3):
        want, got = np.random.default_rng(n), np.random.default_rng(n)
        for size in (5, 1001):
            if not (all(map(np.array_equal, _draw_block(want, n, size),
                            draw(got, n, size, _DrawBuffers())))
                    and got.bit_generator.state == want.bit_generator.state):
                raise RuntimeError(f"its draws differ from numpy's at n={n}")


class _Backend(NamedTuple):
    name: str             # "c" or "python"
    exchange: Callable    # the loop body, with the signature of _exchange
    draw: Callable        # (rng, n, size, _DrawBuffers) -> the arrays of _draw_block
    container: Callable   # list of initial assets -> the container it updates
    tau_counts: Callable  # (x, y) float64 vectors -> the pair counts of metrics._tau_counts


def _load_backend(name: str) -> _Backend:
    """The ``"python"`` reference, or the ``"c"`` kernel, which raises
    OSError or RuntimeError (no home directory) when it cannot be built,
    and RuntimeError when its draws fail :func:`_check_draws`."""
    if name == "c":
        exchange, draw, tau_counts = _load_kernel()
        _check_draws(draw)
        return _Backend("c", exchange, draw, np.array, tau_counts)
    from .metrics import _tau_counts  # here, as metrics imports this module
    return _Backend("python", _exchange,
                    lambda rng, n, size, buffers: _draw_block(rng, n, size), list,
                    _tau_counts)


@functools.cache
def _resolve_backend() -> _Backend:
    """The C kernel when it is cached or can be built, else the Python reference.

    Resolved once per process, on first use. The fallback gives the same
    results about ten times slower, so it warns once, with the reason, at
    the first caller outside kinex.
    """
    try:
        return _load_backend("c")
    except (OSError, RuntimeError) as exc:
        # name the first caller outside kinex, whichever kinex function got here first
        package, frame, level = os.path.dirname(__file__), sys._getframe(), 1
        while frame.f_back and os.path.dirname(frame.f_code.co_filename) == package:
            frame, level = frame.f_back, level + 1
        warnings.warn(f"the C exchange kernel is unavailable ({exc}); running the "
                      "Python reference, which gives the same results more slowly",
                      RuntimeWarning, stacklevel=level)
        return _load_backend("python")


def run_simulation(params: SimulationParams) -> RunResult:
    """Run ``t_max`` pairwise exchanges from the all-equal initial state.

    Each tick samples a fresh pair and a fresh epsilon. Asset copies are
    recorded at every requested snapshot time and the per-step pool is
    accumulated into a single scalar. Two runs with identical params are
    bit-identical.
    """
    n = params.n_agents
    t_max = params.t_max
    rng = np.random.default_rng(params.seed)
    backend = _resolve_backend()
    buffers = getattr(_thread_draws, "buffers", None) or _DrawBuffers()

    assets = backend.container([params.initial_asset] * n)
    snapshots: dict[int, np.ndarray] = {}
    snap_iter = iter(params.snapshot_times)
    next_snap = next(snap_iter, t_max + 1)  # t_max + 1 = "none left"

    cumulative = 0.0
    t = 0
    while t < t_max:
        block = min(_BLOCK, t_max - t)
        ii, jj, ee = backend.draw(rng, n, block, buffers)
        start = t
        end = t + block
        while t < end:
            # steps t+1 .. stop, up to the next snapshot (an empty segment for time 0)
            stop = min(end, next_snap)
            seg = slice(t - start, stop - start)
            cumulative = backend.exchange(assets, ii[seg], jj[seg], ee[seg],
                                          params.saving_rate, params.surplus_rate,
                                          cumulative)
            t = stop
            if t == next_snap:
                snapshots[t] = np.array(assets)
                next_snap = next(snap_iter, t_max + 1)

    return RunResult(snapshots=snapshots, cumulative_pool=cumulative, params=params)
