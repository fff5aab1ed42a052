"""Pieces shared by the workloads: set-up timing, rounds, tallies, metrics."""

from __future__ import annotations

import functools
import json
import math
import mmap
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKERS = 2               # fresh processes an untraced run is split across
SETUP_ONLY = 1            # further fresh processes that only time set-up
# Times are CPU time of the process that runs the program (for a child
# process, its rusage).  The program is single-threaded here, so on an idle
# machine that equals wall time; on a shared host it leaves out the time the
# process waited for a processor, including time the hypervisor gave its
# virtual CPU to others.
clock = time.process_time
# Even in CPU time, the machine the benchmark was built on runs the same code
# at speeds up to 2x apart, switching within seconds and drifting over
# minutes (other guests on the same cores and memory).  So the benchmark
# times a fixed computation of its own (``calibrate``) between stretches of
# the program's work, and scales each stretch by CALIBRATION_S over the
# calibration's time around it: an untraced time reads as CPU seconds at
# the speed at which ``calibrate`` takes CALIBRATION_S (its median on that
# machine, see README.md).  The computation lives in the benchmark, so no
# change to the program moves it.
CALIBRATION_S = 0.0017
SEGMENT_S = 0.04         # program CPU time between two calibrations
# a traced round's layer self times must cover its measured time this well
SELF_TIME_COVERAGE = 0.05

# set-up as a user pays it: start Python, import the package, and fill the
# argument-free caches that later problems need (tail_constants, the
# Laplace calibration, strip_constant, gauss_integral)
WARMUP = """\
import newton_calc
from newton_calc import fubini, laplace, sums
fubini.tail_constants()
sums.strip_constant()
laplace.gauss_integral()
laplace.reduce_to_gauss(laplace.LaplaceConfig(epsilon=0.3, n=25))
"""
BARE_IMPORT = "import newton_calc\n"

WORKLOAD_NAMES = ("iterated", "constructive", "limits", "cli")


def child_env(root: Path, threads: str | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("NEWTON_CALC_THREADS", None)
    if threads is not None:
        env["NEWTON_CALC_THREADS"] = threads
    return env


def children_cpu() -> float:
    """CPU time of the child processes that have ended and been waited for."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


@functools.cache
def _calibration_arrays():
    import numpy as np
    return np.linspace(0.0, 1.0, 25_000), np.empty(25_000), np.empty(25_000)


def calibrate() -> float:
    """CPU time of a fixed computation, the benchmark's measure of speed.

    It mixes the program's three kinds of work: interpreted scalar math, as
    in the limit schedules of ``core``; numpy array passes, as in the
    meshes of ``builder`` and ``fubini``; and first touches of fresh
    memory, which the meshes' fresh arrays cost in the kernel.  The arrays
    are allocated once and the fresh memory is mapped apart from the heap,
    so calibrating allocates nothing on the program's heap.  It runs twice
    and keeps the faster, so that one interruption does not count.
    """
    import numpy as np
    x, y, z = _calibration_arrays()
    best = math.inf
    for _ in range(2):
        t0 = clock()
        v, s = 0.1, 0.0
        for _ in range(3000):
            v = v * 1.0000001 + 1e-9
            s += math.sin(v) * math.exp(-v) + math.sqrt(v)
        np.multiply(x, x, out=y)
        np.negative(y, out=y)
        np.exp(y, out=y)
        np.cos(x, out=z)
        np.multiply(y, z, out=y)
        s += float(np.cumsum(y, out=z)[-1])
        with mmap.mmap(-1, 1 << 19) as fresh:
            for page in range(0, 1 << 19, mmap.PAGESIZE):
                fresh[page] = 1
        best = min(best, clock() - t0)
    return best


def speed_factor(before: float, after: float) -> float:
    """Factor that scales CPU time taken between two calibrations."""
    return 2.0 * CALIBRATION_S / (before + after)


def time_spawn(root: Path, argv, env=None, **kwargs):
    """Run a fresh process; returns it with its scaled CPU time and wall time."""
    before = calibrate()
    t0, c0 = time.perf_counter(), children_cpu()
    proc = subprocess.run(argv, cwd=root, env=env or child_env(root),
                          timeout=120, **kwargs)
    cpu, wall = children_cpu() - c0, time.perf_counter() - t0
    return proc, cpu * speed_factor(before, calibrate()), wall


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Tally:
    """Attempted and failed operations, and what made a run incorrect."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def outcome(self, name: str, known_fault: bool, error) -> None:
        self.attempted += 1
        if error is None:
            return
        self.failed += 1
        if not known_fault:
            self.errors.append(f"{name}: {error}")

    def inconsistent(self, message: str) -> None:
        self.errors.append(message)


def run_round(problems, clears, tally: Tally, check: bool = True):
    """One pass over the problem set: per-problem times, factors and digits.

    The round calibrates before its first problem and after every stretch
    of at least SEGMENT_S of the program's CPU time; a problem's factor is
    ``speed_factor`` of the calibrations around its stretch.  The times are
    as measured; times times factors are the scaled times.
    """
    from refs import CheckFailed
    times, factors, digits = [], [], []
    before, stretch, spent = calibrate(), 0, 0.0
    for i, p in enumerate(problems):
        for clear in clears:
            clear()
        t0 = clock()
        try:
            outcome = p.run()
        except Exception as exc:   # the check decides whether this is expected
            outcome = exc
        times.append(clock() - t0)
        spent += times[-1]
        if spent >= SEGMENT_S or i == len(problems) - 1:
            after = calibrate()
            factors += [speed_factor(before, after)] * (i + 1 - stretch)
            before, stretch, spent = after, i + 1, 0.0
        if not check:
            continue
        try:
            d = p.check(outcome)
        except CheckFailed as exc:
            tally.outcome(p.name, p.known_fault, exc)
            continue
        tally.outcome(p.name, p.known_fault, None)
        if d is not None:
            digits.append(d)
    return times, factors, (min(digits) if digits else None)


def median_per_problem(round_times):
    """Each problem's median time over the rounds, in problem order."""
    return [statistics.median(ts) for ts in zip(*round_times)]


def repeat_rounds(seconds: float, one_round):
    """Call one_round() while another fits in ``seconds``; at least once.

    Another round fits when the time so far plus the longest round so far
    stays within ``seconds``, so a run ends near its length instead of up
    to a round past it.
    """
    results = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        results.append(one_round())
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if now - start + longest > seconds:
            return results


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0   # KiB on Linux


def layer_metrics(args, summaries, traced_solves, plain_solves, document,
                  tally: Tally, extra: dict | None = None) -> dict:
    """Per-layer metrics from traced rounds; checks self time covers solve.

    Times come from the traced round of median time, counts from any (they
    must agree), and the overhead compares the median traced and untraced
    rounds.
    """
    for s, solve in zip(summaries, traced_solves):
        if abs(s["root_s"] - solve) > SELF_TIME_COVERAGE * solve:
            tally.inconsistent(f"layer self times add up to {s['root_s']:.6f} s "
                               f"of a {solve:.6f} s traced round")
    out = {}
    typical = summaries[traced_solves.index(
        statistics.median_low(traced_solves))]
    for key in summaries[0]:
        if key == "root_s":
            continue
        if key.endswith("_s"):
            out[key] = metric(typical[key], "s")
        else:
            values = {s[key] for s in summaries}
            if len(values) > 1:
                tally.inconsistent(f"traced rounds disagree on {key}: {sorted(values)}")
            out[key] = metric(summaries[0][key], "count")
    for key in ("cli.import_s", "cli.cache_miss_s", "cli.cache_hit_s",
                "cli.threads1_s", "cli.threads2_s"):
        out[key] = metric(0.0, "s")
    out["cli.cache_blob_bytes"] = metric(0, "bytes")
    out.update(extra or {})
    out["trace.overhead_s"] = metric(statistics.median(traced_solves)
                                     - statistics.median(plain_solves), "s")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "rounds": summaries, "first_round": document}, fh)
    return out
