"""The C unit: how ``_kernel.c`` is built, called and chosen over the Python references.

``_kernel.c`` holds a C loop that does ``exchange._exchange``'s float
operations in the same order (choosing the poorer side with masks instead of
a branch), a C reproduction of ``exchange._draw_block``'s numpy algorithms
(which draws a 32-bit bound two values per 64-bit word, and one at a time
where numpy's rejection test may apply), a C count of
``metrics._tau_counts``' pairs and a C writer of :func:`_format_rows`' CSV
rows. Its doubles take Schubfach's shortest digits (Giulietti 2020) in
``repr``'s layout, without the paper's two-digit minimum: its ``s >= 100``
guard and its ``10 * c`` path for subnormal significands ``c < 3`` are left
out. :func:`_c_backend` builds the unit with the system ``gcc`` into a
per-user cache and returns it only if its draws give ``_draw_block``'s
values and generator state and its rows ``_format_rows``' bytes on fixed
probes; ctypes checks the dtype, dimension, layout and, for the arrays C
writes, writeability of each array handed to C.
:func:`_python_backend` returns the references. Runs, tau and numeric tables
take the C backend when it loads, else the Python references with one
warning; only the draws, the loop body, the tau pair counts and the row
formatting differ, and the results are bit-identical. The backend is
resolved once per process on first use.
"""

import csv
import functools
import io
import os
import sys
import threading
import warnings
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

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
    name: str              # "c" or "python"
    exchange: Callable     # the loop body, with the signature of exchange._exchange
    draw: Callable         # (rng, n, size, _DrawBuffers) -> the arrays of _draw_block
    tau_counts: Callable   # (x, y) float64 vectors -> the pair counts of metrics._tau_counts
    format_rows: Callable  # int64 and float64 columns -> _format_rows' bytes, or a view of them


def _format_rows(columns: Sequence[np.ndarray]) -> bytes:
    """The rows of equal-length numpy columns as ``csv.writer`` writes them:
    ``str`` of an int, ``repr`` of a float, ``,`` between cells and ``\\r\\n``
    after each row."""
    text = io.StringIO()
    csv.writer(text).writerows(zip(*(column.tolist() for column in columns), strict=True))
    return text.getvalue().encode()


def _pow10_table() -> np.ndarray:
    """Schubfach's table, in exact integers: for k in [-324, 292], the 126-bit
    ``g = floor(10**-k * 2**-r) + 1`` with ``2**125 <= g < 2**126`` as its high
    and low 64-bit words, then ``floor(log2(10**-k)) = r + 125`` modulo 2**64."""
    table = np.empty((617, 3), np.uint64)
    for row, k in enumerate(range(-324, 293)):
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)  # 10**-k = num / den
        b = num.bit_length() - den.bit_length()  # floor(log2(10**-k)) is b or b - 1
        if num << max(0, -b) < den << max(0, b):
            b -= 1
        g = ((num << (125 - b)) // den if b <= 125 else num // (den << (b - 125))) + 1
        table[row] = g >> 64, g & (2**64 - 1), b % 2**64
    return table.ravel()


def _c_backend() -> _Backend:
    """The ``"c"`` backend: ``_kernel.c``, built into the cache first if it is not
    there, whose draws have passed :func:`_check_draws` and rows :func:`_check_format`.

    The library is keyed by the SHA-256 of the source, the flags and the platform,
    and compiled to a temporary file renamed into place, so processes may build at
    once. Build modules are imported here to keep ``import kinex`` cheap. Raises
    OSError when there is no ``gcc``, the build fails or the cache is unwritable,
    and RuntimeError when there is no home directory or a probe fails.
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
    # ctypes refuses, with ArgumentError, any array whose memory C would misread,
    # and a read-only array where C writes
    i64, f64, u64 = (np.ctypeslib.ndpointer(t, ndim=1, flags="C_CONTIGUOUS")
                     for t in (np.int64, np.float64, np.uint64))
    i64w, f64w, u8w = (np.ctypeslib.ndpointer(t, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")
                       for t in (np.int64, np.float64, np.uint8))
    library = ctypes.CDLL(str(path))
    kernel = library.kinex_exchange
    kernel.restype = ctypes.c_double
    kernel.argtypes = (f64w, i64, i64, f64, ctypes.c_int64) + (ctypes.c_double,) * 3
    draw_kernel = library.kinex_draw
    draw_kernel.restype = None
    draw_kernel.argtypes = (ctypes.POINTER(ctypes.c_uint64), ctypes.c_int64, ctypes.c_int64,
                            i64w, i64w, f64w)
    tau_kernel = library.kinex_tau_counts
    tau_kernel.restype = None
    tau_kernel.argtypes = (f64, f64, ctypes.c_int64, i64w, i64w)
    format_kernel = library.kinex_format_rows
    format_kernel.restype = ctypes.c_int64
    format_kernel.argtypes = (u64,) + (ctypes.c_int64,) * 3 + (u64, u8w)
    pow10 = _pow10_table()

    def exchange(assets: np.ndarray, ii: np.ndarray, jj: np.ndarray, ee: np.ndarray,
                 saving_rate: float, surplus_rate: float, cumulative: float) -> float:
        if not len(ii) == len(jj) == len(ee):  # the kernel reads all three as far as ii
            raise ValueError("the C exchange needs i, j and eps blocks of one length")
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

    def format_rows(columns: Sequence[np.ndarray]) -> memoryview:
        if not 0 < len(columns) < 64 or any(column.ndim != 1 or column.dtype not in
                                            (np.int64, np.float64) for column in columns):
            raise TypeError("the C rows need 1 to 63 columns of int64 or float64")
        floats = sum(1 << c for c, column in enumerate(columns) if column.dtype == np.float64)
        n = len(columns[0])
        buffer = np.empty(n * (25 * len(columns) + 1), np.uint8)  # 24 bytes per cell at most
        cells = np.stack([column.view(np.uint64) for column in columns]).ravel()
        # a view of the buffer, not a copy: a table's bytes exist once in memory
        return memoryview(buffer)[:format_kernel(cells, n, len(columns), floats, pow10, buffer)]

    from .exchange import _draw_block  # here: exchange imports this module
    _check_draws(draw, _draw_block)
    _check_format(format_rows, _format_rows)
    return _Backend("c", exchange, draw, tau_counts, format_rows)


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


def _check_format(format_rows: Callable, reference: Callable) -> None:
    """Raise RuntimeError unless ``format_rows`` writes the bytes of ``reference``
    on one table of an int64 and a float64 column over the same bit patterns:
    zeros, infinities, nan, the ends of the subnormals and of fixed notation,
    two ties between 17-digit decimals, and their neighbours, in both signs."""
    special = [0.0, np.inf, np.nan, 5e-324, 2.0**-1022, 1e-5, 1e-4, 1e16, 2.0**-25,
               2.0**50 + 0.25, 1.7976931348623157e308]
    # negated in Python: a first numpy negative or bitwise_or costs ~130 KiB of RSS
    special = np.array(special + [-x for x in special]).view(np.uint64)
    words = np.concatenate([special, special + 1, special - 1])
    columns = (words.view(np.int64), words.view(np.float64))
    if format_rows(columns) != reference(columns):
        raise RuntimeError("its rows differ from csv.writer's")


def _python_backend() -> _Backend:
    """The ``"python"`` backend: the references in ``exchange``, ``metrics`` and here."""
    from . import exchange, metrics  # here: both import this module
    return _Backend("python", exchange._exchange,
                    lambda rng, n, size, buffers: exchange._draw_block(rng, n, size),
                    metrics._tau_counts, _format_rows)


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
