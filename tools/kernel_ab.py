"""Same-process A/B of ``kinex_run``, ``kinex_tau_counts`` and
``kinex_format_rows`` between two versions of ``_kernel.c``.

    python tools/kernel_ab.py OLD.c NEW.c [--size N T CALLS]... [--rounds R]

Each file is built through ``kinex._backend._build``, with kinex's flags,
into a temporary directory, and both libraries are loaded into this one
process. Each call runs both ``kinex_run``s from the same PCG64 state
(``default_rng`` of the call's number), one after the other, alternating
which goes first; lambda = 0.25, gamma = 0.5, a block of ``exchange._BLOCK``
steps and snapshots at 0.99 T and T. In the same order it then times both
``kinex_tau_counts`` on the call's two snapshot rows, and both
``kinex_format_rows`` on an ``agent,asset`` table of its last row, the table
``kinex simulate`` writes. Both libraries use the same arrays. The defaults
are 4 rounds of 60 calls at N = 1000, T = 1e5 and of 200 calls at N = 100,
T = 5e3. Each round prints NEW's median time over OLD's for the run, the tau
counts and the rows, OLD's medians, and how many calls NEW won of each.
Exits 1 unless both give the same snapshot rows, pool and generator state,
the same pair counts and the same row bytes in every call. The same file
twice is the null A/B.
"""

import argparse
import ctypes
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from kinex._backend import _build, _pow10_table  # noqa: E402
from kinex.exchange import _BLOCK  # noqa: E402

LAMBDA, GAMMA = 0.25, 0.5
DEFAULT_SIZES = ((1000, 100_000, 60), (100, 5000, 200))
POW10 = _pow10_table()
# what each timed function returns, named as a mismatch reports it
FUNCTIONS = {"run": "outputs", "tau": "tau counts", "rows": "row bytes"}


def load(source: Path, library: Path):
    """``kinex_run``, ``kinex_tau_counts`` and ``kinex_format_rows`` of
    ``source``, built through ``_build`` into ``library``."""
    try:
        _build(source.read_bytes(), library)
    except OSError as exc:
        sys.exit(f"kernel_ab: {source}: {exc}")
    lib = ctypes.CDLL(str(library))
    run, tau, rows = lib.kinex_run, lib.kinex_tau_counts, lib.kinex_format_rows
    run.restype = ctypes.c_double
    run.argtypes = ((ctypes.c_void_p,) * 2 + (ctypes.c_int64,) * 3
                    + (ctypes.c_void_p, ctypes.c_int64) + (ctypes.c_void_p,) * 2
                    + (ctypes.c_double,) * 2)
    tau.restype = None
    tau.argtypes = (ctypes.c_void_p,) * 2 + (ctypes.c_int64,) + (ctypes.c_void_p,) * 2
    rows.restype = ctypes.c_int64
    rows.argtypes = (ctypes.c_void_p,) + (ctypes.c_int64,) * 3 + (ctypes.c_void_p,) * 2
    return {"run": run, "tau": tau, "rows": rows}


class Arrays:
    """The arrays of an N-agent, T-step run, its tau counts and its table, which
    both libraries use in turn, so that no ratio depends on where one side's
    arrays happen to lie."""

    def __init__(self, n: int, t_max: int):
        self.n, self.t_max = n, t_max
        times = np.array(sorted({int(0.99 * t_max), t_max}), np.int64)
        self.st = np.empty(6, np.uint64)
        self.assets = np.empty(n)
        self.snapshots = np.empty((times.size, n))
        scratch = np.empty(2 * min(_BLOCK, t_max), np.uint32)
        work, self.counts = np.empty(4 * n, np.int64), np.empty(4, np.int64)
        self.cells = np.empty((2, n), np.uint64)  # the agent column, then the asset bits
        self.cells[0] = np.arange(n)
        self.buffer = np.empty(n * (25 * 2 + 1), np.uint8)
        self.kept = times, scratch, work  # alive while args point into them
        # made once: each .ctypes.data costs about 2 us, a run at N = 100 about 35
        first, last = (self.snapshots.ctypes.data + k * 8 * n for k in (0, times.size - 1))
        self.args = {"run": (self.st.ctypes.data, self.assets.ctypes.data, n, t_max, _BLOCK,
                             times.ctypes.data, times.size, self.snapshots.ctypes.data,
                             scratch.ctypes.data, LAMBDA, GAMMA),
                     "tau": (first, last, n, work.ctypes.data, self.counts.ctypes.data),
                     "rows": (self.cells.ctypes.data, n, 2, 0b10, POW10.ctypes.data,
                              self.buffer.ctypes.data)}

    def call(self, name: str, kernels, words: list[int]) -> tuple[int, bytes]:
        """Time one call of ``kernels``' function ``name``; return the
        nanoseconds taken and what it gave. "run" runs from the state ``words``
        and gives the rows, the pool and the state words; "tau" counts the pairs
        of the last run's two rows; "rows" writes its last row as an agent,asset
        table."""
        if name == "run":
            self.st[:] = words
            self.assets.fill(1.0)
        elif name == "rows":
            self.cells[1] = self.snapshots[-1].view(np.uint64)
        start = time.perf_counter_ns()
        result = kernels[name](*self.args[name])
        took = time.perf_counter_ns() - start
        if name == "run":
            return took, self.snapshots.tobytes() + float.hex(result).encode() + self.st.tobytes()
        return took, self.counts.tobytes() if name == "tau" else self.buffer[:result].tobytes()


def state_words(seed: int) -> list[int]:
    """``default_rng(seed)``'s state as ``kinex_run`` reads it."""
    state = np.random.default_rng(seed).bit_generator.state
    pcg = state["state"]
    return [*divmod(pcg["state"], 1 << 64), *divmod(pcg["inc"], 1 << 64),
            state["has_uint32"], state["uinteger"]]


def compare(old, new, arrays: Arrays, rounds: int, calls: int) -> bool:
    """Print each round's ratios of the kernels ``new`` over ``old``; return
    False at the first call whose outputs differ."""
    for kernels in (old, new):  # a first call each, untimed
        for name in FUNCTIONS:
            arrays.call(name, kernels, state_words(0))
    for r in range(rounds):
        times = {(name, side): [] for name in FUNCTIONS for side in ("old", "new")}
        for k in range(calls):
            words = state_words(r * calls + k)
            order = (("old", old), ("new", new))[::1 if k % 2 == 0 else -1]
            for name, what in FUNCTIONS.items():
                outputs = []
                for side, kernels in order:
                    took, output = arrays.call(name, kernels, words)
                    times[name, side].append(took)
                    outputs.append(output)
                if outputs[0] != outputs[1]:
                    print(f"N={arrays.n} T={arrays.t_max}: {what} differ in call {k} "
                          f"of round {r + 1}")
                    return False
        ratios, olds, wins = [], [], []
        for name in FUNCTIONS:
            old_times, new_times = times[name, "old"], times[name, "new"]
            old_median = statistics.median(old_times)
            ratios.append(f"{name} {statistics.median(new_times) / old_median:.3f}")
            olds.append(f"{old_median / 1e3:.1f}")
            wins.append(str(sum(b < a for a, b in zip(old_times, new_times))))
        print(f"N={arrays.n} T={arrays.t_max} round {r + 1}: new/old median "
              f"{', '.join(ratios)}; old {', '.join(olds)} us; new faster in "
              f"{', '.join(wins)} of {calls}", flush=True)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--size", type=int, nargs=3, action="append",
                        metavar=("N", "T", "CALLS"), help="repeatable; replaces the defaults")
    parser.add_argument("--rounds", type=int, default=4)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        old_kernels = load(args.old, Path(tmp) / "old.so")
        new_kernels = load(args.new, Path(tmp) / "new.so")
        for n, t_max, calls in args.size or DEFAULT_SIZES:
            if not compare(old_kernels, new_kernels, Arrays(n, t_max), args.rounds, calls):
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
