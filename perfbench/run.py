"""Benchmark of newton-calc: time to a checked solution, layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload iterated --seed 1 --seconds 30 --trace 0

Workloads: iterated, constructive, limits, cli (see perfbench/README.md).
One client drives the program in a closed loop: each problem starts when
the previous one has ended.  An untraced run starts fresh processes one
after another until ``--seconds`` have passed: one that only sets up, then
workers that set up and repeat whole rounds of the same seeded problem set
(at least one), so every round attempts the same operations.  Times are
CPU times scaled to a fixed machine speed (``harness.CALIBRATION_S``).
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
from harness import Tally, metric


def _problems(args, nc):
    import numpy as np
    import workloads
    counter = workloads.EvalCounter()
    problems = workloads.WORKLOADS[args.workload](
        nc, np.random.default_rng(args.seed), counter)
    return problems, workloads.answer_caches(nc), counter


def worker(args, nc, cal_start: float, cal_cost: float) -> int:
    """One fresh process of an untraced run: rounds for ``--seconds``.

    It prints ``ready`` and the scaled CPU time it took to set up
    (interpreter start included), then one JSON line with the scaled
    per-problem times, digits and evaluation counts of every round it ran,
    its tally, and its peak memory after the first round (later rounds add
    heap growth that depends on how many rounds fit).
    """
    setup = time.process_time() - cal_cost
    factor = harness.speed_factor(cal_start, harness.calibrate())
    print(f"ready {setup * factor!r}", flush=True)
    if not args.seconds:
        return 0
    problems, clears, counter = _problems(args, nc)
    tally = Tally()
    rss = []

    def one_round():
        before, t0 = counter.n, time.perf_counter()
        times, factors, digits = harness.run_round(problems, clears, tally)
        rss.append(harness.peak_rss_mb())
        return {"times": [t * f for t, f in zip(times, factors)],
                "digits": digits, "evals": counter.n - before,
                "wall": time.perf_counter() - t0}

    rounds = harness.repeat_rounds(args.seconds, one_round)
    print(json.dumps({"rounds": rounds, "attempted": tally.attempted,
                      "failed": tally.failed, "errors": tally.errors,
                      "peak_rss_mb": rss[0]}))
    return 0


def _spawn_worker(args, root: Path, seconds: float):
    """Run one worker process.

    Returns its scaled set-up time, the wall time until it was ready, and
    its result line; a worker given no time only sets up, and its result
    is None.
    """
    t0 = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, str(harness.HERE / "run.py"), "--worker",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(seconds)],
            cwd=root, env=harness.child_env(root), text=True,
            stdout=subprocess.PIPE) as proc:
        try:
            word, _, cpu = proc.stdout.readline().partition(" ")
            if word != "ready":
                raise RuntimeError("benchmark worker failed to set up")
            ready = time.perf_counter() - t0
            out, _ = proc.communicate(timeout=170)
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1]) if seconds else None
    return float(cpu), ready, result


def untraced(args, root: Path, tally: Tally) -> dict:
    """Fresh worker processes, one after another, until ``--seconds`` pass.

    SETUP_ONLY processes only set up; then each worker measures for a
    WORKERS-th of the time left (at least one round); no worker starts
    whose set-up and one round would end past ``--seconds``.  Several
    processes keep one process's memory layout out of the figures.  Times
    are scaled (see ``harness.CALIBRATION_S``): solve time is the sum of
    each problem's median over all rounds, set-up the median over all
    processes.
    """
    start = time.perf_counter()
    setups, readies = [], []
    for _ in range(harness.SETUP_ONLY):
        setup, ready, _ = _spawn_worker(args, root, 0)
        setups.append(setup)
        readies.append(ready)
    share = (args.seconds - (time.perf_counter() - start)) / harness.WORKERS
    rounds, rss = [], []
    while True:
        left = args.seconds - (time.perf_counter() - start) - max(readies)
        if rounds and left < max(r["wall"] for r in rounds):
            break
        setup, ready, result = _spawn_worker(args, root,
                                             max(min(share, left), 1e-3))
        setups.append(setup)
        readies.append(ready)
        rounds += result["rounds"]
        rss.append(result["peak_rss_mb"])
        tally.attempted += result["attempted"]
        tally.failed += result["failed"]
        tally.errors += result["errors"]
    for key, what in (("digits", "accuracy digits"), ("evals", "integrand evaluations")):
        values = {r[key] for r in rounds}
        if len(values) > 1:
            tally.inconsistent(f"rounds disagree on {what}: {sorted(values)}")
    typical = harness.median_per_problem([r["times"] for r in rounds])
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "solve_s": metric(sum(typical), "s"),
        "latency_p50_s": metric(statistics.median(typical), "s"),
        "integrand_evals": metric(rounds[0]["evals"], "count"),
        "accuracy_digits": metric(rounds[0]["digits"], "digits"),
        "peak_rss_mb": metric(max(rss), "MiB"),
    }


def traced(args, nc, tally: Tally) -> dict:
    """Untraced rounds, then traced rounds, each for half of ``--seconds``."""
    from spans import Tracer
    problems, clears, _ = _problems(args, nc)

    # layer self times are CPU time as measured, so every time here is too,
    # unscaled
    def plain_round():
        return sum(harness.run_round(problems, clears, tally)[0])

    plain = harness.repeat_rounds(args.seconds / 2.0, plain_round)
    tracer = Tracer()
    tracer.install()
    summaries = []
    try:
        def traced_round():
            tracer.reset()
            times, _, _ = harness.run_round(problems, clears, tally, check=False)
            summaries.append(tracer.summary())
            return sum(times)
        traced_solves = harness.repeat_rounds(args.seconds / 2.0, traced_round)
        document = tracer.document()
    finally:
        tracer.uninstall()
    return harness.layer_metrics(args, summaries, traced_solves, plain,
                                 document, tally)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=harness.WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # a worker's set-up is scaled by the calibrations around it; the first
    # calibration in a fresh process pays for cold caches, so it is not used
    cal_start = cal_cost = 0.0
    if args.worker:
        t0 = time.process_time()
        harness.calibrate()
        cal_start = harness.calibrate()
        cal_cost = time.process_time() - t0
    root = Path.cwd()
    package = root / "src" / "newton_calc"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no newton_calc sources under {root / 'src'}; "
              f"run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(harness.HERE)]
    import newton_calc
    if Path(newton_calc.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported newton_calc from {newton_calc.__file__}, "
              f"not from this checkout", file=sys.stderr)
        return 2

    tally = Tally()
    if args.workload == "cli":
        import cliwork
        metrics = cliwork.run(args, root, tally)
    else:
        import workloads
        if args.trace or args.worker:
            exec(harness.WARMUP, {})
        if args.worker:
            return worker(args, workloads.program_namespace(), cal_start, cal_cost)
        if args.trace:
            metrics = traced(args, workloads.program_namespace(), tally)
        else:
            metrics = untraced(args, root, tally)

    for line in tally.errors[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    bad = [k for k, v in metrics.items()
           if v["value"] is None or (isinstance(v["value"], float)
                                     and not math.isfinite(v["value"]))]
    for key in bad:
        print(f"perfbench: metric {key} was not measured", file=sys.stderr)
    print(json.dumps({"correct": not tally.errors and not bad,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
