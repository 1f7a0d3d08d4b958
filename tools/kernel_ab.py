"""Same-process A/B of ``kinex_run`` between two versions of ``_kernel.c``.

    python tools/kernel_ab.py OLD.c NEW.c [--size N T CALLS]... [--rounds R]

Builds each file with ``gcc`` and ``kinex._backend._CFLAGS`` into a temporary
directory and loads both libraries into this one process. Each call runs both
``kinex_run``s from the same PCG64 state (``default_rng`` of the call's
number), one after the other, alternating which goes first; lambda = 0.25,
gamma = 0.5, a block of ``exchange._BLOCK`` steps and snapshots at 0.99 T and
T. The defaults are 4 rounds of 60 calls at N = 1000, T = 1e5 and of 200 calls
at N = 100, T = 5e3. Each round prints NEW's median time over OLD's and how
many calls each side won. Exits 1 unless both give the same snapshot rows,
pool and generator state in every call. The same file twice is the null A/B.
"""

import argparse
import ctypes
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from kinex._backend import _CFLAGS  # noqa: E402
from kinex.exchange import _BLOCK  # noqa: E402

LAMBDA, GAMMA = 0.25, 0.5
DEFAULT_SIZES = ((1000, 100_000, 60), (100, 5000, 200))


def load(source: Path, library: Path):
    """``kinex_run`` of ``source``, built with kinex's flags into ``library``."""
    build = subprocess.run(["gcc", *_CFLAGS, "-x", "c", str(source), "-o", str(library)],
                           capture_output=True, text=True)
    if build.returncode:
        sys.exit(f"kernel_ab: gcc failed on {source}: {build.stderr.strip()}")
    run = ctypes.CDLL(str(library)).kinex_run
    run.restype = ctypes.c_double
    run.argtypes = ((ctypes.c_void_p,) * 2 + (ctypes.c_int64,) * 3
                    + (ctypes.c_void_p, ctypes.c_int64) + (ctypes.c_void_p,) * 2
                    + (ctypes.c_double,) * 2)
    return run


class Side:
    """One library's ``kinex_run`` with its own arrays for an N-agent, T-step run."""

    def __init__(self, run, n: int, t_max: int):
        self.run, self.n, self.t_max = run, n, t_max
        self.times = np.array(sorted({int(0.99 * t_max), t_max}), np.int64)
        self.st = np.empty(6, np.uint64)
        self.assets = np.empty(n)
        self.rows = np.empty((self.times.size, n))
        self.scratch = np.empty(2 * min(_BLOCK, t_max), np.uint32)
        # made once: each .ctypes.data costs about 2 us, a call at N = 100 about 35
        self.args = (self.st.ctypes.data, self.assets.ctypes.data, n, t_max, _BLOCK,
                     self.times.ctypes.data, self.times.size, self.rows.ctypes.data,
                     self.scratch.ctypes.data, LAMBDA, GAMMA)

    def call(self, words: list[int]) -> tuple[int, bytes]:
        """Run from the state ``words``; return the nanoseconds taken and the
        run's outputs: the rows, the pool and the state words."""
        self.st[:] = words
        self.assets.fill(1.0)
        start = time.perf_counter_ns()
        pool = self.run(*self.args)
        took = time.perf_counter_ns() - start
        return took, self.rows.tobytes() + float.hex(pool).encode() + self.st.tobytes()


def state_words(seed: int) -> list[int]:
    """``default_rng(seed)``'s state as ``kinex_run`` reads it."""
    state = np.random.default_rng(seed).bit_generator.state
    pcg = state["state"]
    return [*divmod(pcg["state"], 1 << 64), *divmod(pcg["inc"], 1 << 64),
            state["has_uint32"], state["uinteger"]]


def compare(old: Side, new: Side, rounds: int, calls: int) -> bool:
    """Print each round's ratio; return False at the first call whose outputs differ."""
    old.call(state_words(0))  # a first call each, untimed
    new.call(state_words(0))
    for r in range(rounds):
        times = {old: [], new: []}
        for k in range(calls):
            words = state_words(r * calls + k)
            order = (old, new) if k % 2 == 0 else (new, old)
            outputs = []
            for side in order:
                took, output = side.call(words)
                times[side].append(took)
                outputs.append(output)
            if outputs[0] != outputs[1]:
                print(f"N={old.n} T={old.t_max}: outputs differ in call {k} of round {r + 1}")
                return False
        wins = sum(b < a for a, b in zip(times[old], times[new]))
        old_median, new_median = statistics.median(times[old]), statistics.median(times[new])
        print(f"N={old.n} T={old.t_max} round {r + 1}: new/old median "
              f"{new_median / old_median:.3f} (old {old_median / 1e3:.1f} us, new "
              f"{new_median / 1e3:.1f} us); new faster in {wins} of {calls}", flush=True)
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
        old_run = load(args.old, Path(tmp) / "old.so")
        new_run = load(args.new, Path(tmp) / "new.so")
        for n, t_max, calls in args.size or DEFAULT_SIZES:
            if not compare(Side(old_run, n, t_max), Side(new_run, n, t_max), args.rounds, calls):
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
