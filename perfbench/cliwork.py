"""The cli workload: every README command as a fresh process.

Each round runs the README commands one after another, each as
``python -m newton_calc ...`` in a new interpreter, plus the cached
``integrate`` twice against a fresh ``--cache-dir`` (a write, then a read)
and ``wallis --n-max 30`` again at ``NEWTON_CALC_THREADS=2``.  The seed
fixes the order of the commands within a round; the cache pair stays in
order.  Every output is parsed and checked against references.  A
command's time is the CPU time of its process (its rusage, threads
included), scaled by calibrations just before and after it (see
``harness.CALIBRATION_S``); the per-layer ``cli.threads*_s`` are wall
times, which is where a thread pool saves.

Integrand evaluations cannot be counted inside a fresh process without
changing what it runs, so the commands that evaluate registry integrands
are replayed once in-process through ``newton_calc.cli.main`` with
counting registry entries; the timed processes are unmodified.  The traced
run replays every single-threaded command in-process, untraced and then
traced, for the per-layer breakdown.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

import refs
import harness as bench
from refs import CheckFailed, close, require

CACHE = "{cache}"   # replaced by a fresh directory per round
IMPORTS_PER_ROUND = 2


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple
    check: Callable[[str], Optional[float]]
    threads: Optional[str] = None
    registry: bool = False      # evaluates registry integrands


def _rows(text: str) -> List[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _true(row, key):
    require(row[key] == "true", f"{key} is {row[key]!r}")


def _check_stirling(text):
    rows = _rows(text)
    require(len(rows) == 6, f"stirling: {len(rows)} rows")
    got = []
    for row in rows:
        n = int(row["n"])
        _true(row, "within_bound")
        got.append(close(float(row["log_factorial_exact"]), refs.log_factorial(n),
                         1e-13, f"log {n}!"))
        if row["method"] == "laplace":
            # carries the program's own Gaussian integral, good to ~1e-11
            got.append(close(float(row["approximation"]),
                             refs.stirling_laplace_main(n), 1e-9,
                             f"Laplace main term n={n}", scale=1.0))
        else:
            # the sum route's constant is estimated to about 1e-7
            got.append(close(float(row["approximation"]),
                             refs.stirling_sum_main(n), 1e-6,
                             f"sum main term n={n}", scale=1.0))
    return min(got)


def _check_gauss(text):
    row = json.loads(text)["rows"][0]
    require(row["within_tolerance"] is True, "gauss: within_tolerance")
    return close(row["value"], refs.SQRT_PI, 1e-9, "gauss")


def _check_wallis(text):
    rows = _rows(text)
    require([int(r["n"]) for r in rows] == list(range(31)), "wallis: rows")
    got = []
    for row in rows:
        n = int(row["n"])
        _true(row, "agree")
        ref = refs.wallis(n)
        got += [close(float(row["by_integral"]), ref, 1e-9, f"W_{n} integral"),
                close(float(row["by_recurrence"]), ref, 1e-13, f"W_{n} recurrence"),
                close(float(row["by_closed_form"]), ref, 1e-13, f"W_{n} closed form")]
    return min(got)


def _check_gamma(text):
    row = _rows(text)[0]
    _true(row, "within_tolerance")
    return close(float(row["value"]), refs.factorial(12), 1e-6, "12! numeric")


def _check_sumint(text):
    row = _rows(text)[0]
    _true(row, "theta_in_range")
    theta = float(row["theta"])
    require(0.0 <= theta <= 1.0, f"theta {theta}")
    integral = (100.0 * math.log(100.0) - 100.0) + 1.0
    return min(close(float(row["sum"]), refs.log_factorial(100), 1e-13, "sum log"),
               close(float(row["integral"]), integral, 1e-10, "integral log"))


def _check_integrate(ref, rel):
    def check(text):
        row = _rows(text)[0]
        _true(row, "lower_converged")
        _true(row, "upper_converged")
        return close(float(row["value"]), ref, rel, f"integrate {row['function_id']}")
    return check


def _check_special(text):
    row = _rows(text)[0]
    _true(row, "holds")
    ref = refs.special_truncated(10.0)
    return min(close(float(row[k]), ref, 1e-4, "special b=10")
               for k in ("value_xy", "value_yx"))


def _check_rect(text):
    row = _rows(text)[0]
    _true(row, "holds")
    return min(close(float(row[k]), 3.0, 1e-9, "rect plane")
               for k in ("value_xy", "value_yx"))


def _check_decay(text):
    rows = _rows(text)
    require([float(r["param"]) for r in rows] == [4.0, 8.0, 16.0, 32.0],
            "decay: rows")
    got = []
    for row in rows:
        _true(row, "holds")
        b = float(row["param"])
        ref = refs.RECTANGLE["inverse-quartic"](0.0, b, 0.0, b)
        got += [close(float(row[k]), ref, 1e-5, f"decay b={b}")
                for k in ("value_xy", "value_yx")]
    return min(got)


def _check_counterexample(text):
    row = _rows(text)[0]
    _true(row, "holds")
    xy = float(row["value_xy"])
    require(-math.expm1(-100.0) <= xy <= 2.0, f"counterexample xy {xy}")
    return close(float(row["value_yx"]), 100.0, 1e-9, "yx partial")


_CACHED = ("integrate", "--function-id", "exp-neg-square", "--lo", "0",
           "--hi", "1", "--cache-dir", CACHE)
_GAUSS01 = _check_integrate(refs.gauss_segment(0.0, 1.0), 1e-6)

COMMANDS = (
    Command("stirling", ("stirling", "--n", "10", "100", "1000", "--method",
                         "both", "--epsilon", "0.3"), _check_stirling),
    Command("gauss", ("gauss", "--format", "json"), _check_gauss),
    Command("wallis", ("wallis", "--n-max", "30"), _check_wallis),
    Command("gamma", ("gamma", "--n", "12", "--mode", "numeric"), _check_gamma),
    Command("sumint", ("sumint", "--function-id", "log", "--a", "1", "--b", "100"),
            _check_sumint, registry=True),
    Command("integrate.cos", ("integrate", "--function-id", "cos", "--lo", "0",
                              "--hi", "1.5707963"),
            _check_integrate(math.sin(1.5707963), 1e-10), registry=True),
    Command("cache_miss", _CACHED, _GAUSS01, registry=True),
    Command("cache_hit", _CACHED, _GAUSS01, registry=True),
    Command("fubini.special", ("fubini", "--case", "special", "--b", "10"),
            _check_special),
    Command("fubini.rect", ("fubini", "--case", "rect", "--function-id", "plane",
                            "--bounds", "0", "1", "0", "2"), _check_rect,
            registry=True),
    Command("fubini.decay", ("fubini", "--case", "decay", "--function-id",
                             "inverse-quartic", "--schedule", "4", "8", "16", "32"),
            _check_decay, registry=True),
    Command("fubini.counterexample", ("fubini", "--case", "counterexample",
                                      "--X", "100"), _check_counterexample),
    Command("threads2", ("wallis", "--n-max", "30"), _check_wallis, threads="2"),
)


def _order(seed: int) -> List[Command]:
    """Seeded command order; the cache read stays right after the write."""
    units = [[c] for c in COMMANDS if c.name not in ("cache_miss", "cache_hit")]
    units.append([c for c in COMMANDS if c.name in ("cache_miss", "cache_hit")])
    perm = np.random.default_rng(seed).permutation(len(units))
    return [c for i in perm for c in units[i]]


def _argv(cmd: Command, cache: Path) -> List[str]:
    return [str(cache) if a == CACHE else a for a in cmd.argv]


def _round(order, root: Path, work: Path, index: int, tally) -> dict:
    cache = work / f"cache-{index}"
    times, wall, outputs, digits = {}, {}, {}, []
    for cmd in order:
        proc, times[cmd.name], wall[cmd.name] = bench.time_spawn(
            root, [sys.executable, "-m", "newton_calc", *_argv(cmd, cache)],
            env=bench.child_env(root, cmd.threads),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        outputs[cmd.name] = proc.stdout
        try:
            require(proc.returncode == 0,
                    f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
            d = cmd.check(proc.stdout)
        except (CheckFailed, ValueError, KeyError, IndexError) as exc:
            tally.outcome(cmd.name, False, exc)
            continue
        tally.outcome(cmd.name, False, None)
        if d is not None:
            digits.append(d)
    # set-up as a cli user pays it; timed within the rounds, and more often
    # than once a round because a bare import is cheap and noisy
    imports = []
    for _ in range(IMPORTS_PER_ROUND):
        proc, cpu, _ = bench.time_spawn(
            root, [sys.executable, "-c", bench.BARE_IMPORT],
            stdout=subprocess.DEVNULL)
        proc.check_returncode()
        imports.append(cpu)
    # byte-identical output across cache state and thread count
    for a, b in (("cache_miss", "cache_hit"), ("wallis", "threads2")):
        if outputs[a] != outputs[b]:
            tally.inconsistent(f"{a} and {b} printed different output")
    blobs = list(cache.glob("*.json")) if cache.is_dir() else []
    blob_bytes = sum(p.stat().st_size for p in blobs)
    shutil.rmtree(cache, ignore_errors=True)
    return {"times": times, "wall": wall, "imports": imports,
            "digits": min(digits) if digits else None, "blob_bytes": blob_bytes}


def _counting_registry(nc, counter):
    """Swap counting entries into the registries; returns an undo function."""
    F, B = nc.functions.REGISTRY, nc.functions.BIVARIATE_REGISTRY
    saved_f, saved_b = dict(F), dict(B)
    for id_, nf in saved_f.items():
        f, prim = counter.registry(nc, id_)
        F[id_] = dataclasses.replace(nf, fn=f, primitive=prim)
    for id_, nb in saved_b.items():
        cb = counter.registry2(nc, id_)
        B[id_] = dataclasses.replace(nb, fn=cb.fn, vector_fn=cb.vector_fn)

    def undo():
        F.clear()
        F.update(saved_f)
        B.clear()
        B.update(saved_b)
    return undo


def _replay(nc, commands, work: Path, clears, tally) -> float:
    """Run commands in-process through cli.main; returns the time inside it."""
    cache = work / "replay-cache"
    total = 0.0
    for cmd in commands:
        for clear in clears:
            clear()
        sink = io.StringIO()
        t0 = bench.clock()
        code = nc.cli.main(_argv(cmd, cache), out=sink)
        total += bench.clock() - t0
        if code != 0:
            tally.inconsistent(f"in-process {cmd.name}: exit code {code}")
    shutil.rmtree(cache, ignore_errors=True)
    return total


def run(args, root: Path, tally) -> dict:
    work = bench.HERE / ".work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        order = _order(args.seed)
        seconds = args.seconds / 2.0 if args.trace else args.seconds
        index = itertools.count()
        rounds = bench.repeat_rounds(
            seconds, lambda: _round(order, root, work, next(index), tally))
        return _metrics(args, root, work, rounds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _metrics(args, root, work, rounds, tally) -> dict:
    import workloads
    exec(bench.WARMUP, {})
    nc = workloads.program_namespace()
    clears = workloads.answer_caches(nc)
    names = list(rounds[0]["times"])
    round_times = [[r["times"][name] for name in names] for r in rounds]
    typical = dict(zip(names, bench.median_per_problem(round_times)))
    # the thread pool shows in wall time only: CPU time adds up its threads
    typical_wall = dict(zip(names, bench.median_per_problem(
        [[r["wall"][name] for name in names] for r in rounds])))
    import_s = statistics.median(t for r in rounds for t in r["imports"])
    digit_set = {r["digits"] for r in rounds}
    if len(digit_set) > 1:
        tally.inconsistent(f"rounds disagree on accuracy digits: {digit_set}")

    if not args.trace:
        counter = workloads.EvalCounter()
        undo = _counting_registry(nc, counter)
        try:
            _replay(nc, [c for c in COMMANDS if c.registry], work, clears, tally)
        finally:
            undo()
        return {
            "setup_s": bench.metric(import_s, "s"),
            "solve_s": bench.metric(sum(typical.values()), "s"),
            "latency_p50_s": bench.metric(statistics.median(typical.values()), "s"),
            "integrand_evals": bench.metric(counter.n, "count"),
            "accuracy_digits": bench.metric(rounds[0]["digits"], "digits"),
            "peak_rss_mb": bench.metric(
                bench.peak_rss_mb(resource.RUSAGE_CHILDREN), "MiB"),
        }

    from spans import Tracer
    single = [c for c in COMMANDS if c.threads is None]
    plain = [_replay(nc, single, work, clears, tally)]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [_replay(nc, single, work, clears, tally)]
        summaries = [tracer.summary()]
        document = tracer.document()
    finally:
        tracer.uninstall()
    extra = {
        "cli.import_s": bench.metric(import_s, "s"),
        "cli.cache_miss_s": bench.metric(typical["cache_miss"], "s"),
        "cli.cache_hit_s": bench.metric(typical["cache_hit"], "s"),
        "cli.cache_blob_bytes": bench.metric(rounds[0]["blob_bytes"], "bytes"),
        "cli.threads1_s": bench.metric(typical_wall["wallis"], "s"),
        "cli.threads2_s": bench.metric(typical_wall["threads2"], "s"),
    }
    return bench.layer_metrics(args, summaries, traced, plain, document, tally,
                               extra)
