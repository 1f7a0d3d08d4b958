#!/usr/bin/env python3
"""The kinex benchmark: one command, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {grid,cli-io} --seed N \\
        --seconds S --trace {0,1} [--quick]

Run it from the root of a checkout; it imports kinex from ``src/``.
``BENCHMARK.json`` declares the workloads and every metric with its unit.

``--trace 0`` times the workload as users run it (a pooled sweep or CLI
subprocesses) in a closed loop with one caller for ``--seconds``
and reports the end-to-end metrics, each the median over iterations.
``--trace 1`` runs the same operations in-process and serially, with spans
around kinex's public functions, and reports per-layer metrics.

Outside every timed section the outputs are verified: conservation and
non-negativity of every run, byte-identical digests across iterations and
worker counts, and digests pinned in ``golden.json`` (at the default seed
for this size, and at the quick size on every run). The last line of
stdout is one JSON object: correct, attempted, failed, metrics. Run files
go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DATA = ROOT / "data" / "oecd_table1.csv"

MIN_SETUP_SAMPLES = {"full": 9, "quick": 2}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
WATCHDOG_S = 175


def _watchdog(signum, frame):
    raise TimeoutError(f"benchmark run exceeded {WATCHDOG_S} s")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _children_cpu_s() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def summarize(samples: list[float]) -> dict:
    """Median plus the highest percentile with at least 10 samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n, "tail_percentile": None, "tail": None}
    for p in TAIL_PERCENTILES:
        rank = max(1, -(-n * p // 100))  # nearest-rank percentile, 1-based
        if n - rank >= 10:
            out["tail_percentile"], out["tail"] = p, xs[int(rank) - 1]
            break
    return out


class Ledger:
    """Counts operations attempted and failed, with the reasons."""

    def __init__(self, weights: dict, failed_prefix: str):
        self.weights = weights
        self.failed_prefix = failed_prefix
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, count: int, msg: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(msg)

    def fail_all(self, msg: str) -> None:
        self.attempted += sum(self.weights.values())
        self.fail(sum(self.weights.values()), msg)

    def record(self, digests: dict, reference: dict, what: str) -> None:
        """Count one iteration; every operation must reproduce the reference digest."""
        self.attempted += sum(self.weights.values())
        for key, weight in self.weights.items():
            got = digests.get(key)
            if got is None or got.startswith(self.failed_prefix) or got != reference.get(key):
                self.fail(weight, f"{what}: {key}: {got}")


def provenance(workers: int) -> dict:
    import numpy
    info = {"nproc": _nproc(), "cpu_count": os.cpu_count(), "cpu_model": None,
            "l2": None, "l3": None, "python": platform.python_version(),
            "numpy": numpy.__version__, "git_rev": None, "workers": workers,
            "kernel_backend": "python"}  # kinex has only the pure-Python exchange kernel
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                info[f"l{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        info["git_rev"] = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "kinex").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    info["src_sha256"] = src_hash.hexdigest()
    return info


def fresh_interpreter_s(code: str) -> float:
    """Wall time of a fresh interpreter running ``code``, from spawn to exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def replay_draws(runs, block: int) -> float:
    """Time the PCG64 block draws of each traced run, replayed outside any span."""
    import numpy as np
    t0 = time.perf_counter()
    for params, _ in runs:
        rng = np.random.default_rng(params.seed)
        remaining = params.t_max
        while remaining:
            size = min(block, remaining)
            rng.integers(0, params.n_agents, size=size)
            rng.integers(0, params.n_agents - 1, size=size)
            rng.random(size)
            remaining -= size
    return time.perf_counter() - t0


class Bench:
    def __init__(self, args, workloads, spans):
        self.args = args
        self.w = workloads
        self.spans = spans
        self.size = "quick" if args.quick else "full"
        self.workers = min(2, _nproc())
        self.wl = workloads.make(args.workload, args.seed, self.size, ROOT)
        self.ledger = Ledger(self.wl.weights, workloads.FAILED)
        self.golden = json.loads((BENCH / "golden.json").read_text())
        self.reference: dict = {}
        self.report: dict = {}

    def _golden_check(self, name: str, size: str, digests: dict) -> None:
        pinned = self.golden[size].get(name)
        got = self.w.combined_digest(digests)
        self.report.setdefault("digests", {})[f"{name}/{size}/s{self.w.DEFAULT_SEED}"] = got
        if got != pinned:
            self.ledger.fail(1, f"{name}/{size} digest at seed {self.w.DEFAULT_SEED} is "
                                f"{got}, golden.json pins {pinned}")

    def run_traced(self, run_id: str):
        """Traced in-process run of the workload; its digests become the reference."""
        tracer = self.spans.Tracer(run_id)
        self.wl.reset()
        t0 = time.perf_counter()
        try:
            with tracer.installed():
                digests = self.wl.run_inprocess()
        except Exception as exc:  # a failing workload is reported, not raised
            self.ledger.fail_all(f"in-process run raised {exc!r}")
            return tracer, time.perf_counter() - t0
        wall = time.perf_counter() - t0
        if not self.reference:
            self.reference = digests
            if self.args.seed == self.w.DEFAULT_SEED:
                self.ledger.attempted += 1
                self._golden_check(self.wl.name, self.size, digests)
        self.ledger.record(digests, self.reference, "in-process run")
        for params, snapshots in tracer.runs:
            problems = self.w.conservation_problems(params, snapshots)
            if problems:
                self.ledger.fail(1, "; ".join(problems))
        return tracer, wall

    def probe(self) -> None:
        """Quick-size run at the default seed, compared with its pinned digest."""
        if self.size == "quick" and self.args.seed == self.w.DEFAULT_SEED:
            return  # this run already is the probe
        wl = self.w.make(self.wl.name, self.w.DEFAULT_SEED, "quick", ROOT)
        wl.build()
        wl.reset()
        self.ledger.attempted += 1
        try:
            digests = wl.run_inprocess()
        except Exception as exc:
            self.ledger.fail(1, f"quick probe raised {exc!r}")
            return
        self._golden_check(wl.name, "quick", digests)

    def timed(self) -> dict:
        """Closed loop of the workload as users run it, for ``--seconds``.

        One set-up sample (a fresh interpreter that imports kinex and builds
        the inputs) follows each iteration, outside the timed section, so
        that set-up is sampled across the same stretch of time as the
        workload. Those interpreters are smaller than the workload's own
        processes, so they do not set the peak RSS.
        """
        wl = self.wl
        paths = [str(SRC), str(BENCH)]
        setup_code = (f"import sys; sys.path[:0] = {paths!r}; import workloads; "
                      f"workloads.make({wl.name!r}, {self.args.seed}, {self.size!r}, "
                      f"{str(ROOT)!r}).build()")
        fresh_interpreter_s(setup_code)  # warm-up: fills the page and bytecode caches
        walls, cpus, setup = [], [], []
        deadline = time.perf_counter() + self.args.seconds
        while not walls or time.perf_counter() < deadline:
            wl.reset()
            c0, t0 = _cpu_s(), time.perf_counter()
            try:
                digests = wl.run(self.workers)
            except Exception as exc:
                digests = None
                self.ledger.fail_all(f"iteration {len(walls)} raised {exc!r}")
            t1, c1 = time.perf_counter(), _cpu_s()
            walls.append(t1 - t0)
            cpus.append(c1 - c0)
            if digests is not None:
                self.ledger.record(digests, self.reference, f"iteration {len(walls) - 1}")
            setup.append(fresh_interpreter_s(setup_code))
        while len(setup) < MIN_SETUP_SAMPLES[self.size]:
            setup.append(fresh_interpreter_s(setup_code))
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        self.report["peak_rss_kib"] = {"self": own, "largest_child": kids}

        rates = [wl.steps / w for w in walls]
        self.report["samples"] = {"wall_s": walls, "cpu_s": cpus, "setup_s": setup}
        self.report["summary"] = {k: summarize(v) for k, v in
                                  (("wall_s", walls), ("cpu_s", cpus), ("setup_s", setup),
                                   ("steps_per_s", rates))}
        return {
            "wall_s": statistics.median(walls),
            "steps_per_s": statistics.median(rates),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": max(own, kids) * 1024 / 1e6,
            "setup_s": statistics.median(setup),
        }

    def _pooled_sweeps(self) -> dict:
        """Untraced pooled run of the workload's sweeps, for the sweep.* metrics."""
        jobs = used = 0
        wall = cpu = 0.0
        for spec in self.wl.sweep_specs():
            n_jobs = len(spec.lambda_values) * len(spec.gamma_values) * spec.replicates
            used = max(used, min(self.workers, n_jobs))
            c0, t0 = _children_cpu_s(), time.perf_counter()
            try:
                self.w.kinex.sweep.run_sweep(spec, workers=self.workers)
            except Exception as exc:
                self.ledger.fail(n_jobs, f"pooled sweep raised {exc!r}")
            wall += time.perf_counter() - t0
            cpu += _children_cpu_s() - c0
            jobs += n_jobs
            self.ledger.attempted += n_jobs
        return {"sweep.jobs": jobs, "sweep.workers": used, "sweep.wall_s": wall,
                "sweep.child_cpu_s": cpu, "sweep.idle_s": used * wall - cpu,
                "sweep.jobs_per_s": jobs / wall if wall else 0.0}

    def _layer_metrics(self, tracer, traced_wall: float, untraced_wall: float) -> dict:
        totals = tracer.layer_totals()
        steps = sum(p.t_max for p, _ in tracer.runs)
        block = getattr(self.w.kinex.exchange, "_BLOCK", 1 << 17)
        files = self.wl.output_files()
        m = {
            "exchange.calls": totals["exchange"]["calls"],
            "exchange.steps": steps,
            "exchange.self_s": totals["exchange"]["self_s"],
            "exchange.ns_per_step": totals["exchange"]["self_s"] / steps * 1e9 if steps else 0.0,
            "exchange.draw_s": replay_draws(tracer.runs, block),
            "exchange.snapshot_mb": sum(p.n_agents * 8 * len(p.snapshot_times)
                                        for p, _ in tracer.runs) / 1e6,
            "cli.files_written": len(files),
            "cli.bytes_written": sum(p.stat().st_size for p in files),
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        }
        for name in ("metrics.gini", "metrics.kendall_tau", "fitting.fit_linear"):
            m[f"{name}.calls"] = totals[name]["calls"]
        for name in ("metrics.gini", "metrics.kendall_tau", "metrics.histogram",
                     "metrics.gamma_fit", "fitting.fit_linear", "empirical.load_countries",
                     "empirical.fit_groups", "cli.simulate", "cli.sweep", "cli.fit",
                     "cli.empirical", "cli.read_sweep_table"):
            m[f"{name}.self_s"] = totals[name]["self_s"]
        m.update(self._pooled_sweeps())
        return m

    def traced(self, first_tracer, first_wall: float) -> dict:
        rounds, all_spans = [], []
        tracer, traced_wall = first_tracer, first_wall
        deadline = time.perf_counter() + self.args.seconds
        while True:
            self.wl.reset()
            t0 = time.perf_counter()
            try:
                digests = self.wl.run_inprocess()
            except Exception as exc:
                self.ledger.fail_all(f"untraced in-process run raised {exc!r}")
                digests = None
            untraced_wall = time.perf_counter() - t0
            if digests is not None:
                self.ledger.record(digests, self.reference, "untraced in-process run")
            rounds.append(self._layer_metrics(tracer, traced_wall, untraced_wall))
            all_spans.extend(tracer.spans)
            if time.perf_counter() >= deadline:
                break
            tracer, traced_wall = self.run_traced(f"{self.wl.name}-s{self.args.seed}-r{len(rounds)}")

        spans_path = OUT / f"spans-{self.wl.name}-{self.size}-s{self.args.seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in all_spans:
                fh.write(json.dumps(span) + "\n")
        self.report["spans_file"] = str(spans_path.relative_to(ROOT))
        self.report["rounds"] = rounds
        metrics = {}
        for name in rounds[0]:
            values = [r[name] for r in rounds]
            if isinstance(values[0], int):  # a count must repeat exactly
                if len(set(values)) > 1:
                    self.ledger.fail(1, f"count {name} differs between rounds: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        import_s = 0.0
        if self.wl.name == "cli-io":
            code = f"import sys; sys.path[:0] = [{str(SRC)!r}]; import kinex.cli"
            fresh_interpreter_s(code)  # warm-up
            import_s = statistics.median(fresh_interpreter_s(code)
                                         for _ in range(MIN_SETUP_SAMPLES[self.size]))
        metrics["cli.import_s"] = import_s
        return metrics


def main(argv=None) -> int:
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in decl["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=decl["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="shrink the workload to seconds (smoke test)")
    args = parser.parse_args(argv)
    # Subprocesses are waited for without a timeout: a timeout makes
    # subprocess poll in steps of up to 50 ms, which shows in set-up times.
    # This watchdog bounds the whole run instead.
    signal.signal(signal.SIGALRM, _watchdog)
    signal.alarm(WATCHDOG_S)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if not (SRC / "kinex" / "__init__.py").is_file() or not DATA.is_file():
        print(f"bench: no kinex sources at {SRC}/kinex or no {DATA.name}; "
              "run from the root of a kinex checkout", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    (OUT / "tmp").mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(OUT / "tmp")
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC)] + (
        [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    workers = min(2, _nproc())
    os.environ["KINEX_THREADS"] = str(workers)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import spans
    import workloads
    if not Path(workloads.kinex.__file__).resolve().is_relative_to(SRC):
        print(f"bench: imported kinex from {workloads.kinex.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    bench = Bench(args, workloads, spans)
    bench.wl.build()
    first_tracer, first_wall = bench.run_traced(f"{args.workload}-s{args.seed}-r0")
    if args.trace:
        metrics = bench.traced(first_tracer, first_wall)
        declared = decl["per_layer"]
    else:
        metrics = bench.timed()
        declared = decl["end_to_end"]
    bench.probe()

    ledger = bench.ledger
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"benchmark computed no value for {missing}")
    result = {
        "correct": ledger.failed == 0 and not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": bench.size,
              "provenance": provenance(workers), "failed_frac": ledger.failed / ledger.attempted,
              "problems": ledger.problems, **bench.report, "result": result}
    result_path = OUT / f"result-{args.workload}-{bench.size}-s{args.seed}-t{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"kinex bench: workload={args.workload} seed={args.seed} size={bench.size} "
          f"trace={args.trace} seconds={args.seconds} workers={workers}")
    for name, s in bench.report.get("summary", {}).items():
        tail = (f"p{s['tail_percentile']:g} {s['tail']:.6g}" if s["tail"] is not None
                else "no percentile with >=10 samples beyond it")
        print(f"  {name:<12} median {s['median']:.6g}  {tail}  (n={s['n']})")
    for m in declared:
        print(f"  {m['name']:<32} {metrics[m['name']]:.6g} {m['unit']}")
    print(f"  attempted={ledger.attempted} failed={ledger.failed} "
          f"failed_frac={ledger.failed / ledger.attempted:.3g}")
    for problem in ledger.problems:
        print(f"  problem: {problem}")
    print(f"  record: {result_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
