"""The C unit: how ``_kernel.c`` is built, called and chosen over the Python references.

``_kernel.c`` holds a C reproduction of ``exchange._draw_block``'s numpy
algorithms for at most 2**32 agents, whose bounds all take numpy's 32-bit path
(two values per 64-bit word, and one at a time where numpy's rejection test
may apply), one C call per run that gives
``exchange._run``'s snapshots, pool and generator state by doing
``exchange._exchange``'s float operations in the same order (choosing the
poorer side with masks instead of a branch, on two steps at once in the lanes
of a 16-byte vector where their four agents are distinct, and else on one
step in both lanes), a C count of
``metrics._tau_counts``' pairs (by radix sorts and a Fenwick tree) and a C
writer of :func:`_format_rows`' CSV rows. Its doubles take Schubfach's
shortest digits (Giulietti 2020) in ``repr``'s layout, without the paper's
two-digit minimum: its ``s >= 100`` guard and its ``10 * c`` path for
subnormal significands ``c < 3`` are left out. :func:`_build`, the only
code that runs the system ``gcc`` on the unit, compiles it; :func:`_c_backend`
has it build into a per-user cache on a miss and returns the unit only if
its draws give ``_draw_block``'s values and generator state and its rows
``_format_rows``' bytes on fixed probes; ctypes checks the dtype,
dimension, layout and, for the arrays C writes, writeability of each array
handed to C.
A C run draws each block's i and j into a fresh uint32 scratch array of 8
bytes a step, freed when the run returns, moves each j past its i as its step
reads it, and draws its eps as each step needs it. The C draws of one block
are that fill and the eps; their wrapper widens i and j to int64 and moves j
past i as ``_draw_block`` does.
:func:`_python_backend` returns the references. Runs, tau and numeric tables
take the C backend when it loads, else the Python references with one
warning; only the runs, the draws, the tau pair counts and the row
formatting differ, and the results are bit-identical. The backend is
resolved once per process on first use.
"""

import csv
import functools
import io
import os
import sys
import warnings
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .params import SimulationParams

# -ffp-contract=off forbids fused multiply-adds. -ffast-math and
# -march=native must never be added: either one changes result bits.
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


class _Backend(NamedTuple):
    name: str              # "c" or "python"
    draw: Callable         # (rng, n, size) -> the arrays of exchange._draw_block
    run: Callable          # (rng, params) -> the snapshots and pool of exchange._run
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


def _build(source: bytes, library: Path, *flags: str) -> None:
    """Compile the C ``source`` with ``_CFLAGS`` and ``flags`` into ``library``.

    The only code that runs gcc on the unit. It writes a temporary file beside
    ``library`` and renames it into place, so processes may build at once, and
    removes it on any failure. Raises OSError when there is no ``gcc`` (before
    making any directory), the build fails or the directory is unwritable.
    """
    import shutil
    import subprocess
    import tempfile

    gcc = shutil.which("gcc")
    if gcc is None:
        raise OSError("no gcc on PATH")
    library.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=library.parent)
    os.close(fd)
    try:
        build = subprocess.run([gcc, *_CFLAGS, *flags, "-x", "c", "-", "-o", tmp],
                               input=source, capture_output=True)
        if build.returncode:
            raise OSError(f"gcc failed: {build.stderr.decode(errors='replace').strip()}")
        os.replace(tmp, library)
    except BaseException:
        os.unlink(tmp)
        raise


def _c_backend() -> _Backend:
    """The ``"c"`` backend: ``_kernel.c``, built into the cache first if it is not
    there, whose draws have passed :func:`_check_draws` and rows :func:`_check_format`.

    The library is keyed by the SHA-256 of the source, the flags and the platform,
    and built by :func:`_build` on a miss. Load modules are imported here to keep
    ``import kinex`` cheap, and build modules only by :func:`_build`. Raises
    OSError when there is no ``gcc``, the build fails or the cache is unwritable,
    and RuntimeError when there is no home directory or a probe fails.
    """
    import ctypes
    import hashlib
    import sysconfig

    source = Path(__file__).with_name("_kernel.c").read_bytes()
    key = hashlib.sha256(b"\0".join([source, " ".join(_CFLAGS).encode(),
                                     sysconfig.get_platform().encode()])).hexdigest()
    xdg = os.environ.get("XDG_CACHE_HOME", "")  # a relative value is ignored, as XDG says
    cache = (Path(xdg) if os.path.isabs(xdg) else Path.home() / ".cache") / "kinex"
    path = cache / f"exchange-{key[:16]}.so"
    if not path.exists():
        _build(source, path)
    # ctypes refuses, with ArgumentError, any array whose memory C would misread,
    # and a read-only array where C writes
    i64, f64, u64 = (np.ctypeslib.ndpointer(t, ndim=1, flags="C_CONTIGUOUS")
                     for t in (np.int64, np.float64, np.uint64))
    i64w, f64w, u32w, u8w = (np.ctypeslib.ndpointer(t, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")
                             for t in (np.int64, np.float64, np.uint32, np.uint8))
    from . import exchange  # here: exchange imports this module
    library = ctypes.CDLL(str(path))
    words = ctypes.POINTER(ctypes.c_uint64)  # the generator state, in and out
    draw_kernel = library.kinex_draw
    draw_kernel.restype = None
    draw_kernel.argtypes = (words, ctypes.c_int64, ctypes.c_int64, u32w, u32w, f64w)
    run_kernel = library.kinex_run
    run_kernel.restype = ctypes.c_double
    run_kernel.argtypes = ((words, f64w) + (ctypes.c_int64,) * 3 + (i64, ctypes.c_int64)
                           + (np.ctypeslib.ndpointer(np.float64, ndim=2,
                                                     flags="C_CONTIGUOUS,WRITEABLE"), u32w)
                           + (ctypes.c_double,) * 2)
    tau_kernel = library.kinex_tau_counts
    tau_kernel.restype = None
    tau_kernel.argtypes = (f64, f64, ctypes.c_int64, i64w, i64w)
    format_kernel = library.kinex_format_rows
    format_kernel.restype = ctypes.c_int64
    format_kernel.argtypes = (u64,) + (ctypes.c_int64,) * 3 + (u64, u8w)
    pow10 = _pow10_table()

    def on_pcg64(rng: np.random.Generator, kernel: Callable, *args):
        # kernel(state words, *args), with the generator's state going to C and
        # back through numpy's public state dict
        bitgen = rng.bit_generator
        with bitgen.lock:
            state = bitgen.state
            if state["bit_generator"] != "PCG64":
                raise TypeError(f"the C draws need PCG64, not {state['bit_generator']}")
            pcg = state["state"]
            st = (ctypes.c_uint64 * 6)(*divmod(pcg["state"], 1 << 64),  # high word first
                                       *divmod(pcg["inc"], 1 << 64),
                                       state["has_uint32"], state["uinteger"])
            result = kernel(st, *args)
            pcg["state"] = st[0] << 64 | st[1]
            state["has_uint32"], state["uinteger"] = st[4], st[5]
            bitgen.state = state
        return result

    def draw(rng: np.random.Generator, n: int,
             size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # _draw_block(rng, n, size): a run's block of draws, widened and j moved
        if not 2 <= n <= 2**32:  # the kernel would divide by zero or wrap the bound
            raise ValueError(f"need n >= 2 and at most 2**32 agents to draw pairs, got {n}")
        cells = np.empty((2, size), np.uint32)
        ee = np.empty(size)
        on_pcg64(rng, draw_kernel, n, size, cells[0], cells[1], ee)
        ii, jj = cells.astype(np.int64)
        jj += jj >= ii
        return ii, jj, ee

    def run(rng: np.random.Generator,
            params: SimulationParams) -> tuple[dict[int, np.ndarray], float]:
        # exchange._run(rng, params) in one call; its i and j take 8 bytes a step
        # of fresh scratch, its eps none
        n, t_max, times = params.n_agents, params.t_max, params.snapshot_times
        block = exchange._BLOCK
        assets = np.full(n, params.initial_asset)
        rows = np.empty((len(times), n))
        scratch = np.empty(2 * min(block, t_max), np.uint32)
        cumulative = on_pcg64(rng, run_kernel, assets, n, t_max, block,
                              np.array(times, np.int64), len(times), rows, scratch,
                              params.saving_rate, params.surplus_rate)
        return dict(zip(times, rows)), cumulative

    def tau_counts(x: np.ndarray, y: np.ndarray) -> tuple[int, int, int, int]:
        x = np.ascontiguousarray(x, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.float64)
        if not x.size == y.size >= 2:  # the kernel reads y as far as x
            raise ValueError("the C tau counts need two vectors of one length >= 2")
        out = np.empty(4, np.int64)
        tau_kernel(x, y, x.size, np.empty(4 * x.size, np.int64), out)
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

    _check_draws(draw, exchange._draw_block)
    _check_format(format_rows, _format_rows)
    return _Backend("c", draw, run, tau_counts, format_rows)


def _check_draws(draw: Callable, draw_block: Callable) -> None:
    """Raise RuntimeError unless ``draw`` gives the values and generator state
    of ``draw_block``, the reference: at n = 2 (j draws nothing), on a bound
    that rejects about half its draws and at 2**32 (plain 32-bit words for
    i); in two consecutive blocks of odd sizes, so a spare half-word carries
    from one draw to the next and across blocks."""
    for n in (2, 1000, 2**31 + 1, 2**32):
        want, got = np.random.default_rng(n), np.random.default_rng(n)
        for size in (5, 1001):
            if not (all(map(np.array_equal, draw_block(want, n, size),
                            draw(got, n, size)))
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
    return _Backend("python", exchange._draw_block, exchange._run, metrics._tau_counts,
                    _format_rows)


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
