"""Tests of the benchmark itself: references, checks, faults and runs.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import refs
import workloads
from refs import CheckFailed

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def nc():
    return workloads.program_namespace()


def perturb(x):
    """The same outcome with every float moved by about 0.1 percent."""
    if isinstance(x, float):
        return x * (1.0 + 1e-3) + 1e-3
    if isinstance(x, (tuple, list)):
        return type(x)(perturb(e) for e in x)
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return dataclasses.replace(x, **{f.name: perturb(getattr(x, f.name))
                                         for f in dataclasses.fields(x) if f.init})
    return x


def one_per_family(problems):
    seen, out = set(), []
    for p in problems:
        family = p.name.rstrip("0123456789.")   # wallis.5 -> wallis
        if family in seen or p.known_fault:
            continue
        seen.add(family)
        out.append(p)
    return out


@pytest.mark.parametrize("workload", ["iterated", "constructive", "limits"])
def test_each_check_passes_and_rejects_a_perturbed_value(nc, workload):
    counter = workloads.EvalCounter()
    problems = workloads.WORKLOADS[workload](nc, np.random.default_rng(0), counter)
    for cache_clear in workloads.answer_caches(nc):
        cache_clear()
    for p in one_per_family(problems):
        try:
            outcome = p.run()
        except Exception as exc:
            outcome = exc
        p.check(outcome)
        if isinstance(outcome, BaseException):
            # a check that expects an error must reject a plain value
            with pytest.raises(CheckFailed):
                p.check(1.0)
        else:
            with pytest.raises(CheckFailed):
                p.check(perturb(outcome))
            with pytest.raises(CheckFailed):
                p.check(ValueError("injected"))


def test_close_and_digits():
    assert refs.digits(1.0, 1.0) == 16.0
    assert refs.digits(1.0 + 1e-6, 1.0) == pytest.approx(6.0)
    assert refs.close(2.0 + 1e-9, 2.0, 1e-8, "x") > 8.0
    with pytest.raises(CheckFailed):
        refs.close(2.0 + 1e-7, 2.0, 1e-8, "x")
    with pytest.raises(CheckFailed):
        refs.close(math.nan, 2.0, 1e-8, "x")


@pytest.mark.parametrize("id_", ["one2d", "plane", "x-ysquared",
                                 "exp-neg-sum-squares", "cos-x-sin-y",
                                 "product-exp"])
def test_gauss_legendre_matches_closed_forms(id_):
    rect = (-0.7, 1.9, 0.3, 2.2)
    ruled = refs.gl_rectangle(refs.BIVARIATE[id_], *rect)
    assert ruled == pytest.approx(refs.RECTANGLE[id_](*rect), rel=1e-13, abs=1e-14)


def test_special_reference_against_a_tensor_rule():
    b = 2.0
    tensor = refs.gl_rectangle(lambda x, z: x * np.exp(-x * x * (1.0 + z * z)),
                               0.0, b, 0.0, b, panel_width=0.25)
    assert refs.special_truncated(b) == pytest.approx(tensor, rel=1e-13)


def test_closed_form_references():
    assert refs.wallis(0) == pytest.approx(math.pi / 2, rel=1e-15)
    assert refs.wallis(5) == pytest.approx(8.0 / 15.0, rel=1e-14)
    assert refs.centered_laplace(1) == pytest.approx(math.e, rel=1e-14)
    assert refs.gauss_segment(-math.inf, math.inf) == pytest.approx(math.sqrt(math.pi))


def test_named_faults_fail_at_this_commit(nc):
    faults = workloads._fault_problems(nc)
    assert [p.name for p in faults] == ["fault.removable_endpoint",
                                        "fault.divergent_log"]
    for p in faults:
        assert p.known_fault
        try:
            outcome = p.run()
        except Exception as exc:
            outcome = exc
        with pytest.raises(CheckFailed):
            p.check(outcome)


def test_fault_checks_accept_the_mended_behaviour(nc):
    removable, divergent = workloads._fault_problems(nc)
    for p in (removable, divergent):
        assert p.check(nc.core.NonConvergent("schedule ended")) is None


def test_round_gives_every_problem_a_speed_factor(nc):
    problems = workloads.limits(nc, np.random.default_rng(0),
                                workloads.EvalCounter())[:50]
    times, factors, _ = harness.run_round(
        problems, workloads.answer_caches(nc), harness.Tally(), check=False)
    assert len(times) == len(factors) == 50
    assert all(f > 0.0 for f in factors)
    # a machine at half speed takes twice as long to calibrate
    slow = 2.0 * harness.CALIBRATION_S
    assert harness.speed_factor(slow, slow) == pytest.approx(0.5)


def _run(cwd, workload, trace=0, seconds="0.01"):
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_completes(workload):
    proc = _run(ROOT, workload)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0
    if workload == "limits":
        # the two named faults and the gamma closed form beyond n = 78
        assert result["failed"] > 2
    else:
        assert result["failed"] == 0


def test_traced_run_reports_every_layer_metric():
    proc = _run(ROOT, "limits", trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["core.limit_steps"]["value"] > 0
    document = json.loads((BENCH / "out" / "trace-limits-seed7.json").read_text())
    assert document["first_round"]["spans"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    proc = _run(tmp_path, "limits")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
