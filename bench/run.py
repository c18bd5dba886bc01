"""Benchmark of the heavytail CLI, one workload per invocation.

    python3 bench/run.py --workload ldp_var1 --seed 1 --seconds 20 --trace 0

Each run is a fresh process (``bench/child.py``) that sets up and calls
``cli.run`` once with 2 heavytail threads and the BLAS/OpenMP pools
pinned to one thread. Untraced (``--trace 0``), runs on seeds derived
from ``--seed`` repeat for ``--seconds``, then the first seed runs again
with 1 thread; the end-to-end metrics are medians over the runs. Traced
(``--trace 1``), untraced and traced runs alternate on one seed and the
per-layer metrics come from the traced ones. Every run is gated for
correctness (``workloads.check``), and runs of one seed must write
byte-identical outputs. The last line of stdout is one JSON object:
correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "time_to_se_s": "s",
}
MIN_RUNS = 3
MIN_TRACED = 2
BUDGET_S = 170.0   # an invocation must end within 180 s
_PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
           "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Run:
    """What one child process did, and whether its outputs passed."""

    def __init__(self, seed, threads, traced):
        self.seed = seed
        self.threads = threads
        self.traced = traced
        self.problems = []
        self.notes = {}
        self.digests = None
        self.setup_s = self.wall_s = self.cpu_s = self.rss_mb = None
        self.se = None
        self.layers = None
        self.missing = []


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({name: "1" for name in _PINNED})
    return env


def _wait(proc, deadline):
    """Reap the child with its own rusage; kill it past the deadline."""
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_child(workload, values, seed, threads, traced, workdir, deadline):
    run = Run(seed, threads, traced)
    workdir.mkdir(parents=True)
    cfg = workdir / "run.cfg"
    cfg.write_text(workloads.config_text(values, seed, threads))
    out = workdir / "out"
    result = workdir / "result.json"
    flags = ["--trace"] if traced else []
    env = _child_env()
    with open(workdir / "stderr.txt", "w") as err:
        t0 = time.monotonic()
        cmd = [sys.executable, str(BENCH / "child.py"), str(cfg), str(out),
               str(threads), repr(t0), str(result)] + flags
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        usage = _wait(proc, deadline)
    if proc.returncode != 0:
        lines = (workdir / "stderr.txt").read_text().strip().splitlines()
        run.problems.append(f"exit code {proc.returncode}: "
                            + (lines[-1] if lines else "no message"))
        return run
    try:
        with open(result) as fh:
            res = json.load(fh)
        run.setup_s, run.wall_s = res["setup_s"], res["wall_s"]
    except (OSError, ValueError, KeyError) as exc:
        run.problems.append(f"no result: {type(exc).__name__}: {exc}")
        return run
    run.cpu_s = usage.ru_utime + usage.ru_stime
    run.rss_mb = usage.ru_maxrss / 1024.0
    run.digests = res["digests"]
    run.layers = res.get("layers")
    run.missing = res.get("missing", [])
    try:
        run.problems, run.notes, run.se = workloads.check(
            workload, values, str(out))
    except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
        run.problems.append(f"unreadable output: {type(exc).__name__}: "
                            f"{exc}")
    shutil.rmtree(out, ignore_errors=True)
    return run


def _same_digests(runs):
    """Every run of one seed must write byte-identical outputs."""
    by_seed = {}
    for r in runs:
        if r.digests is None:
            continue
        first = by_seed.setdefault(r.seed, r)
        if r.digests != first.digests:
            r.problems.append(
                f"outputs of seed {r.seed} differ from an earlier run "
                f"(threads {first.threads} -> {r.threads}, traced "
                f"{first.traced} -> {r.traced})")


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def timed_session(workload, values, seed, seconds, workdir, deadline):
    runs = []
    start = time.monotonic()
    while len(runs) < MIN_RUNS or time.monotonic() - start < seconds:
        runs.append(run_child(workload, values, seed * 1000 + len(runs),
                              workloads.THREADS, False,
                              workdir / f"run{len(runs)}", deadline))
    check = run_child(workload, values, seed * 1000, 1, False,
                      workdir / "threads1", deadline)
    every = runs + [check]
    _same_digests(every)
    good = [r for r in runs if not r.problems]
    ref = workloads.SE_REFERENCE[workload]
    metrics = {
        "wall_s": _median(r.wall_s for r in good),
        "setup_s": _median(r.setup_s for r in every if not r.problems),
        "cpu_s": _median(r.cpu_s for r in good),
        "peak_rss_mb": _median(r.rss_mb for r in good),
        "time_to_se_s": _median(r.wall_s * (r.se / ref) ** 2
                                for r in good),
    }
    return every, {k: (v, END_TO_END[k]) for k, v in metrics.items()
                   if v is not None}


def traced_session(workload, values, seed, seconds, workdir, deadline):
    plain, traced = [], []
    start = time.monotonic()
    while len(traced) < MIN_TRACED or time.monotonic() - start < seconds:
        i = len(traced)
        # ABBA order, so neither kind always runs first on a cold cache
        for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
            kind = "traced" if is_traced else "plain"
            (traced if is_traced else plain).append(run_child(
                workload, values, seed * 1000, workloads.THREADS,
                is_traced, workdir / f"{kind}{i}", deadline))
    check = run_child(workload, values, seed * 1000, 1, False,
                      workdir / "threads1", deadline)
    every = plain + traced + [check]
    _same_digests(every)
    good = [r for r in traced if not r.problems and r.layers]
    metrics = {}
    if good:
        first = good[0].layers
        for r in good[1:]:
            moved = [k for k in tracer.EXACT if r.layers[k] != first[k]]
            if moved:
                r.problems.append("exact counters did not repeat: "
                                  + ", ".join(moved))
        for name, unit in tracer.PER_LAYER.items():
            if name in tracer.EXACT:
                value = first[name]
            elif name == "trace.overhead_frac":
                base = _median(r.wall_s for r in plain if not r.problems)
                value = (_median(r.wall_s for r in good) / base - 1.0
                         if base else 0.0)
            else:
                value = _median(r.layers[name] for r in good)
            metrics[name] = (value, unit)
    return every, metrics


def machine():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = "absent"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), **versions}


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.CONFIGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test sizes, same code path")
    args = parser.parse_args(argv)
    if not (SRC / "heavytail" / "cli.py").is_file():
        print(f"error: no heavytail sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    values = workloads.sizes(args.workload, args.size == "tiny")
    workdir = RUNS / f"{args.workload}-{os.getpid()}"
    session = traced_session if args.trace else timed_session
    try:
        runs, metrics = session(args.workload, values, args.seed,
                                args.seconds, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            RUNS.rmdir()
        except OSError:
            pass
    failed = sum(1 for r in runs if r.problems)
    info = machine()
    print("machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"trace {args.trace}: {len(runs)} runs")
    for r in runs:
        kind = "traced" if r.traced else f"threads={r.threads}"
        wall = "-" if r.wall_s is None else f"{r.wall_s:.3f}s"
        status = "; ".join(r.problems) or "ok"
        notes = " ".join(f"{k}={_fmt(v)}" for k, v in r.notes.items())
        print(f"  run seed={r.seed} {kind} wall={wall} {status} {notes}")
        if r.missing:
            print("  missing names: " + ", ".join(r.missing))
    for name, (value, unit) in metrics.items():
        print(f"{name} {_fmt(value)} {unit}")
    print(f"failed_frac {failed / len(runs):.6g} fraction "
          f"({failed} of {len(runs)} runs)")
    print(json.dumps({
        "correct": failed == 0 and len(metrics) > 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
