"""Run pytest on a build of ``_kernel.c`` under AddressSanitizer and UBSan.

    python tools/sanitize.py [pytest args]

Fills an empty temporary kernel cache (``XDG_CACHE_HOME``) by resolving the
C backend once, so the library lies under the key kinex computes, and then
rebuilds that file through ``kinex._backend._build`` with
``-fsanitize=address,undefined -fno-sanitize-recover=all`` added to kinex's
flags. pytest then runs from the repository root with that cache, with gcc's
``libasan.so`` and ``libubsan.so`` preloaded (the interpreter itself is not
instrumented, so ASan's runtime must be the first library loaded) and
``ASAN_OPTIONS=detect_leaks=0``, since the interpreter keeps memory it never
frees. The first report of either sanitizer aborts the run. Exits with
pytest's code, or 77 (the usual code for a skipped check) when there is no
gcc or no runtime of either sanitizer.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
from kinex import _backend  # noqa: E402

SANITIZE = ("-fsanitize=address,undefined", "-fno-sanitize-recover=all")
SKIPPED = 77


def runtimes() -> list[str] | None:
    """The paths of gcc's ``libasan.so`` and ``libubsan.so``, or None when
    there is no gcc or either is missing (gcc then prints the bare name)."""
    if shutil.which("gcc") is None:
        return None
    paths = [subprocess.run(["gcc", f"-print-file-name={name}"], capture_output=True,
                            text=True).stdout.strip() for name in ("libasan.so", "libubsan.so")]
    return paths if all(os.path.isabs(path) and os.path.exists(path) for path in paths) else None


def main(argv: list[str]) -> int:
    preload = runtimes()
    if preload is None:
        print("sanitize: no gcc, or no libasan.so or libubsan.so beside it", file=sys.stderr)
        return SKIPPED
    with tempfile.TemporaryDirectory() as cache:
        os.environ["XDG_CACHE_HOME"] = cache
        _backend._c_backend()
        (library,) = (Path(cache) / "kinex").iterdir()
        _backend._build((ROOT / "src" / "kinex" / "_kernel.c").read_bytes(), library, *SANITIZE)
        env = dict(os.environ, LD_PRELOAD=" ".join(preload), ASAN_OPTIONS="detect_leaks=0",
                   PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                            os.environ.get("PYTHONPATH")])))
        # --capture=sys leaves fd 2 alone, so a report is not lost in pytest's capture
        return subprocess.run([sys.executable, "-m", "pytest", "--capture=sys", *argv],
                              cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
