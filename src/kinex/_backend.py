"""The C unit: how ``_kernel.c`` is built, called and chosen over the Python references.

``_kernel.c`` holds a C loop that does ``exchange._exchange``'s float
operations in the same order (choosing the poorer side with masks instead of
a branch), a C reproduction of ``exchange._draw_block``'s numpy algorithms
(which draws a 32-bit bound two values per 64-bit word, and one at a time
where numpy's rejection test may apply) and a C count of
``metrics._tau_counts``' pairs. :func:`_c_backend` builds it with the system
``gcc`` into a per-user cache and returns it only if its draws give
``_draw_block``'s values and generator state on a fixed probe; ctypes checks
the dtype, dimension and layout of each array handed to C.
:func:`_python_backend` returns the references. Runs and tau take the C
backend when it loads, else the Python references with one warning; only the
draws, the loop body and the tau pair counts differ, and the results are
bit-identical. The backend is resolved once per process on first use.
"""

import functools
import os
import sys
import threading
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

# -ffp-contract=off forbids fused multiply-adds. -ffast-math and
# -march=native must never be added: either one changes result bits.
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


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


def _draw_buffers() -> _DrawBuffers:
    """The buffers for one run: its thread's reused set, or a fresh one."""
    return getattr(_thread_draws, "buffers", None) or _DrawBuffers()


class _Backend(NamedTuple):
    name: str             # "c" or "python"
    exchange: Callable    # the loop body, with the signature of exchange._exchange
    draw: Callable        # (rng, n, size, _DrawBuffers) -> the arrays of _draw_block
    tau_counts: Callable  # (x, y) float64 vectors -> the pair counts of metrics._tau_counts


def _c_backend() -> _Backend:
    """The ``"c"`` backend: ``_kernel.c``, built into the cache first if it is not
    there, whose draws have passed :func:`_check_draws`.

    The library is keyed by the SHA-256 of the source, the flags and the platform,
    and compiled to a temporary file renamed into place, so processes may build at
    once. Build modules are imported here to keep ``import kinex`` cheap. Raises
    OSError when there is no ``gcc``, the build fails or the cache is unwritable,
    and RuntimeError when there is no home directory or the draws fail the probe.
    """
    import ctypes
    import hashlib
    import shutil
    import subprocess
    import sysconfig
    import tempfile

    source = Path(__file__).with_name("_kernel.c").read_bytes()
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
    # ctypes refuses, with ArgumentError, any array whose memory C would misread
    i64, f64 = (np.ctypeslib.ndpointer(t, ndim=1, flags="C_CONTIGUOUS")
                for t in (np.int64, np.float64))
    library = ctypes.CDLL(str(path))
    kernel = library.kinex_exchange
    kernel.restype = ctypes.c_double
    kernel.argtypes = (f64, i64, i64, f64, ctypes.c_int64) + (ctypes.c_double,) * 3
    draw_kernel = library.kinex_draw
    draw_kernel.restype = None
    draw_kernel.argtypes = (ctypes.POINTER(ctypes.c_uint64), ctypes.c_int64, ctypes.c_int64,
                            i64, i64, f64)
    tau_kernel = library.kinex_tau_counts
    tau_kernel.restype = None
    tau_kernel.argtypes = (f64, f64, ctypes.c_int64, i64, i64)

    def exchange(assets: np.ndarray, ii: np.ndarray, jj: np.ndarray, ee: np.ndarray,
                 saving_rate: float, surplus_rate: float, cumulative: float) -> float:
        return kernel(assets, ii, jj, ee, len(ii), saving_rate, surplus_rate, cumulative)

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
            words = (ctypes.c_uint64 * 6)(*divmod(pcg["state"], 1 << 64),  # high word first
                                          *divmod(pcg["inc"], 1 << 64),
                                          state["has_uint32"], state["uinteger"])
            draw_kernel(words, n, size, ii, jj, ee)
            pcg["state"] = words[0] << 64 | words[1]
            state["has_uint32"], state["uinteger"] = words[4], words[5]
            bitgen.state = state
        return ii, jj, ee

    def tau_counts(x: np.ndarray, y: np.ndarray) -> tuple[int, int, int, int]:
        x = np.ascontiguousarray(x, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.float64)
        if not x.size == y.size >= 2:  # the kernel reads y as far as x
            raise ValueError("the C tau counts need two vectors of one length >= 2")
        out = np.empty(4, np.int64)
        tau_kernel(x, y, x.size, np.empty(2 * x.size, np.int64), out)
        return tuple(out.tolist())

    from .exchange import _draw_block  # here: exchange imports this module
    _check_draws(draw, _draw_block)
    return _Backend("c", exchange, draw, tau_counts)


def _check_draws(draw: Callable, draw_block: Callable) -> None:
    """Raise RuntimeError unless ``draw`` gives the values and generator state
    of ``draw_block``, the reference: at n = 2 (j draws nothing), on a 32-bit
    bound that rejects about half its draws, at 2**32 (plain 32-bit words)
    and on a 64-bit bound; in two consecutive blocks of odd sizes, so a spare
    half-word carries from one draw to the next and across blocks."""
    for n in (2, 1000, 2**31 + 1, 2**32, 2**33 + 3):
        want, got = np.random.default_rng(n), np.random.default_rng(n)
        for size in (5, 1001):
            if not (all(map(np.array_equal, draw_block(want, n, size),
                            draw(got, n, size, _DrawBuffers())))
                    and got.bit_generator.state == want.bit_generator.state):
                raise RuntimeError(f"its draws differ from numpy's at n={n}")


def _python_backend() -> _Backend:
    """The ``"python"`` backend: the references in ``exchange`` and ``metrics``."""
    from . import exchange, metrics  # here: both import this module
    return _Backend("python", exchange._exchange,
                    lambda rng, n, size, buffers: exchange._draw_block(rng, n, size),
                    metrics._tau_counts)


@functools.cache
def _resolve_backend() -> _Backend:
    """The C kernel when it is cached or can be built, else the Python reference.

    Resolved once per process, on first use. The fallback gives the same
    results about ten times slower, so it warns once, with the reason, at
    the first caller outside kinex.
    """
    try:
        return _c_backend()
    except (OSError, RuntimeError) as exc:
        # name the first caller outside kinex.* (`python -m kinex.cli` runs as __main__)
        frame, level = sys._getframe(), 1
        while frame.f_back and frame.f_globals.get("__name__", "").startswith("kinex."):
            frame, level = frame.f_back, level + 1
        warnings.warn(f"the C exchange kernel is unavailable ({exc}); running the "
                      "Python reference, which gives the same results more slowly",
                      RuntimeWarning, stacklevel=level)
        return _python_backend()
