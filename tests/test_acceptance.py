"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here; the runtime budgets are asserted with
wall-clock measurements taken cold (this module runs before the other test
modules, and the caches the library keeps are empty at that point).
"""

import math
import time

import numpy as np

from newton_calc.builder import build_primitive, derivative_check
from newton_calc.core import PRECISE_LIMIT_CONFIG, RealFunction
from newton_calc.engine import (PrimitivePair, integrate_by_parts,
                                monotone_compare, newton_integral,
                                pair_from_primitive, split_additive)
from newton_calc.core import Interval
from newton_calc.fubini import (BivariateFunction, asymmetry_counterexample,
                                iterated_rectangle, special_infinite_fubini)
from newton_calc.functions import BIVARIATE_REGISTRY, gamma_pair, pair_for
from newton_calc.laplace import gamma_integral, gauss_integral, \
    stirling_via_laplace
from newton_calc.sums import (incomplete_stirling, monotone_sum_vs_integral,
                              strip_remainders_upto)
from newton_calc.wallis import sandwich_scan, three_way

from oracles import gauss_half_line_midpoint


def _report(name: str, ok: bool, detail: str, elapsed: float,
            budget: float | None) -> None:
    verdict = "PASS" if ok else "FAIL"
    budget_note = f" [{elapsed:.2f}s / {budget:.0f}s budget]" \
        if budget is not None else f" [{elapsed:.2f}s]"
    print(f"{verdict} {name}: {detail}{budget_note}")


def test_criterion_01_gamma_identity():
    t0 = time.perf_counter()
    worst_exact = max(
        abs(gamma_integral(n) - math.factorial(n)) / math.factorial(n)
        for n in range(21))
    worst_numeric = max(
        abs(gamma_integral(n, "numeric") - math.factorial(n))
        / math.factorial(n)
        for n in range(13))
    elapsed = time.perf_counter() - t0
    ok = worst_exact <= 1e-12 and worst_numeric <= 1e-6 and elapsed < 1.0
    _report("criterion 1 (gamma identity)", ok,
            f"exact rel err {worst_exact:.2e} <= 1e-12, "
            f"numeric rel err {worst_numeric:.2e} <= 1e-6", elapsed, 1.0)
    assert worst_exact <= 1e-12
    assert worst_numeric <= 1e-6
    assert elapsed < 1.0


def test_criterion_02_gauss_integral():
    from newton_calc import laplace
    laplace.gauss_integral.cache_clear()
    laplace._gauss_quarter.cache_clear()
    t0 = time.perf_counter()
    value = gauss_integral()
    residual = abs(value - math.sqrt(math.pi))
    oracle = gauss_half_line_midpoint()
    oracle_gap = abs(value / 2.0 - oracle)
    elapsed = time.perf_counter() - t0
    ok = residual <= 1e-9 and oracle_gap <= 1e-6 and elapsed < 1.0
    _report("criterion 2 (Gauss integral)", ok,
            f"residual {residual:.2e} <= 1e-9, "
            f"oracle gap {oracle_gap:.2e} <= 1e-6", elapsed, 1.0)
    assert residual <= 1e-9
    assert oracle_gap <= 1e-6
    assert elapsed < 1.0


def test_criterion_03_wallis_three_ways():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(31):
        w = three_way(n)
        values = (w.by_recurrence, w.by_integral, w.by_closed_form)
        scale = max(abs(v) for v in values)
        worst = max(worst,
                    max(abs(a - b) for a in values for b in values) / scale)
    sandwich = sandwich_scan(10 ** 5)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and sandwich and elapsed < 30.0
    _report("criterion 3 (three-way cosine powers)", ok,
            f"pairwise rel err {worst:.2e} <= 1e-9, sandwich to 1e5: "
            f"{sandwich}", elapsed, 30.0)
    assert worst <= 1e-9
    assert sandwich
    assert elapsed < 30.0


def test_criterion_04_stirling_first_derivation():
    t0 = time.perf_counter()
    root = math.sqrt(2.0 * math.pi)
    # the 0.5 constant is calibrated at n = 10 (measured 0.21, rounded up)
    calibration = abs(incomplete_stirling(10)[0] - root) * 10
    gaps = {n: abs(incomplete_stirling(n)[0] - root)
            for n in (10 ** 2, 10 ** 3, 10 ** 4)}
    elapsed = time.perf_counter() - t0
    ok = calibration <= 0.5 and \
        all(gap <= 0.5 / n for n, gap in gaps.items()) and elapsed < 10.0
    detail = ", ".join(f"n={n}: {gap:.2e} <= {0.5 / n:.2e}"
                       for n, gap in gaps.items())
    _report("criterion 4 (incomplete formula constant)", ok, detail,
            elapsed, 10.0)
    assert calibration <= 0.5
    for n, gap in gaps.items():
        assert gap <= 0.5 / n, n
    assert elapsed < 10.0


def test_criterion_05_stirling_second_derivation():
    t0 = time.perf_counter()
    eps = 0.3
    err = {n: stirling_via_laplace(n, eps).abs_error
           for n in (10 ** 2, 10 ** 3, 10 ** 4)}
    C = err[100] * 100.0 ** (0.5 - eps)
    bounds_ok = all(err[n] <= C * n ** (eps - 0.5) * (1 + 1e-9)
                    for n in (10 ** 3, 10 ** 4))
    slope = (math.log(err[10 ** 4]) - math.log(err[10 ** 2])) \
        / (math.log(10 ** 4) - math.log(10 ** 2))
    elapsed = time.perf_counter() - t0
    ok = bounds_ok and slope <= -0.15 and elapsed < 60.0
    _report("criterion 5 (concentration route)", ok,
            f"C={C:.3e} calibrated at n=100, "
            f"errors {err[1000]:.2e}@1e3 {err[10000]:.2e}@1e4, "
            f"power-law exponent {slope:.3f} <= -0.15", elapsed, 60.0)
    assert bounds_ok
    assert slope <= -0.15
    assert elapsed < 60.0


def test_criterion_06_rectangle_battery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for fid in sorted(BIVARIATE_REGISTRY):
        nb = BIVARIATE_REGISTRY[fid]
        f = BivariateFunction(nb.fn, nb.id, nb.vector_fn)
        x0 = rng.uniform(-2.0, 2.5)
        x1 = x0 + rng.uniform(0.5, 2.5)
        y0 = rng.uniform(-2.0, 2.5)
        y1 = y0 + rng.uniform(0.5, 2.5)
        vxy = iterated_rectangle(f, (x0, x1), (y0, y1), "xy")
        vyx = iterated_rectangle(f, (x0, x1), (y0, y1), "yx")
        worst = max(worst, abs(vxy - vyx))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    _report("criterion 6 (rectangle order independence)", ok,
            f"10-function battery, worst discrepancy {worst:.2e} <= 1e-6",
            elapsed, 60.0)
    assert worst <= 1e-6
    assert elapsed < 60.0


def test_criterion_07_special_infinite_case():
    t0 = time.perf_counter()
    full = special_infinite_fubini(10.0).full_value
    pi_gap = abs(full - math.pi / 4.0)
    cert_ok = True
    details = []
    for b in (1.0, 2.0, 4.0, 8.0, 16.0):
        rep = special_infinite_fubini(b)
        cert = rep.tail_certificate
        gap_a = abs(rep.full_value - rep.value_xy)
        gap_b = abs(rep.full_value - rep.value_yx)
        cert_ok &= gap_a <= cert.bound_A and gap_b <= cert.bound_B
        details.append(f"b={b:g}: {gap_a:.2e}<={cert.bound_A:.2f}")
    elapsed = time.perf_counter() - t0
    ok = pi_gap <= 1e-6 and cert_ok and elapsed < 60.0
    _report("criterion 7 (infinite-order swap certificates)", ok,
            f"|A - pi/4| = {pi_gap:.2e} <= 1e-6; " + "; ".join(details),
            elapsed, 60.0)
    assert pi_gap <= 1e-6
    assert cert_ok
    assert elapsed < 60.0


def test_criterion_08_asymmetry_counterexample():
    t0 = time.perf_counter()
    witnesses = {X: asymmetry_counterexample(X).order_yx_partial
                 for X in (10.0, 100.0)}
    v100 = asymmetry_counterexample(100.0).order_xy_value
    v200 = asymmetry_counterexample(200.0).order_xy_value
    cauchy = abs(v200 - v100)
    elapsed = time.perf_counter() - t0
    ok = all(w >= 0.9 * X for X, w in witnesses.items()) and cauchy <= 1e-6
    _report("criterion 8 (order-asymmetry witness)", ok,
            f"partials {witnesses[10.0]:.1f}@10 {witnesses[100.0]:.1f}@100 "
            f">= 0.9 X; xy Cauchy gap {cauchy:.2e} <= 1e-6", elapsed, None)
    for X, w in witnesses.items():
        assert w >= 0.9 * X
    assert cauchy <= 1e-6


def test_criterion_09_basic_estimate():
    t0 = time.perf_counter()
    rng = np.random.default_rng(424242)
    families = [
        (RealFunction(math.log, vector_fn=np.log),
         RealFunction(lambda x: x * math.log(x) - x,
                      vector_fn=lambda xs: xs * np.log(xs) - xs), 1),
        (RealFunction(math.sqrt, vector_fn=np.sqrt),
         RealFunction(lambda x: (2.0 / 3.0) * x ** 1.5,
                      vector_fn=lambda xs: (2.0 / 3.0) * xs ** 1.5), 0),
        (RealFunction(lambda x: 1.0 / (x * x),
                      vector_fn=lambda xs: 1.0 / (xs * xs)),
         RealFunction(lambda x: -1.0 / x, vector_fn=lambda xs: -1.0 / xs), 1),
        (RealFunction(lambda x: math.exp(-x), vector_fn=lambda xs: np.exp(-xs)),
         RealFunction(lambda x: -math.exp(-x),
                      vector_fn=lambda xs: -np.exp(-xs)), 0),
        (RealFunction(lambda x: x * x, vector_fn=lambda xs: xs * xs),
         RealFunction(lambda x: x ** 3 / 3.0,
                      vector_fn=lambda xs: xs ** 3 / 3.0), 0),
    ]
    theta_ok = True
    for _ in range(50):
        f, F, lo_min = families[rng.integers(len(families))]
        a = int(rng.integers(lo_min, lo_min + 25))
        b = a + int(rng.integers(2, 50))
        rep = monotone_sum_vs_integral(f, F, a, b)
        if rep.theta is not None:
            theta_ok &= -1e-12 <= rep.theta <= 1.0 + 1e-12
    strips = strip_remainders_upto(10 ** 4)
    m = np.arange(1, 10 ** 4 + 1, dtype=float)
    strips_ok = bool(np.all(np.abs(strips) <= 0.05 / (m * m)))
    elapsed = time.perf_counter() - t0
    ok = theta_ok and strips_ok
    _report("criterion 9 (basic estimate)", ok,
            f"theta in [-1e-12, 1+1e-12] on 50 draws: {theta_ok}; "
            f"|strip remainder| <= 0.05/m^2 through 1e4: {strips_ok}",
            elapsed, None)
    assert theta_ok
    assert strips_ok


def test_criterion_10_primitive_builder():
    t0 = time.perf_counter()
    targets = [
        (RealFunction(math.cos, label="cos", vector_fn=np.cos),
         (0.0, math.pi / 2)),
        (RealFunction(lambda x: math.exp(-x * x), label="exp-neg-square",
                      vector_fn=lambda xs: np.exp(-xs * xs)), (0.0, 1.0)),
        (RealFunction(math.log1p, label="log1p", vector_fn=np.log1p),
         (0.0, 1.0)),
    ]
    worst = 0.0
    for f, iv in targets:
        P = build_primitive(f, iv)
        worst = max(worst, derivative_check(P, f))
    P_linear = build_primitive(lambda x: x, (0.0, 1.0))
    xs = np.linspace(0.0, 1.0, 257)
    linear_exact = bool(np.all(P_linear.many(xs) == 0.5 * xs * xs))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and linear_exact and elapsed < 10.0
    _report("criterion 10 (constructive antiderivatives)", ok,
            f"max derivative error {worst:.2e} <= 1e-4; "
            f"linear reproduced exactly: {linear_exact}", elapsed, 10.0)
    assert worst <= 1e-4
    assert linear_exact
    assert elapsed < 10.0


def test_criterion_11_property_suites():
    t0 = time.perf_counter()
    notes = []

    # orientation antisymmetry, exact
    cos_pair = pair_for("cos", 0.0, math.pi / 2)
    anti = newton_integral(cos_pair, reverse=True).value \
        == -newton_integral(cos_pair).value
    notes.append(f"antisymmetry {anti}")

    # additivity across random interior splits
    rng = np.random.default_rng(1234)
    battery = [cos_pair, pair_for("sin", 0.0, math.pi / 2),
               pair_for("exp-neg", 0.0, math.inf), gamma_pair(4)]
    additivity = 0.0
    for pair in battery:
        lo = pair.domain.a
        hi = pair.domain.b if math.isfinite(pair.domain.b) else lo + 20.0
        for c in rng.uniform(lo + 1e-3, hi - 1e-3, 100):
            _l, _r, rep = split_additive(pair, float(c), PRECISE_LIMIT_CONFIG)
            additivity = max(additivity, rep.residual)
    notes.append(f"additivity {additivity:.1e}")

    # monotonicity
    mono = monotone_compare(
        PrimitivePair(
            RealFunction(lambda x: math.exp(-x * x),
                         vector_fn=lambda xs: np.exp(-xs * xs)),
            RealFunction(lambda x: 0.5 * math.sqrt(math.pi) * math.erf(x)),
            Interval(1.0, math.inf)),
        pair_for("exp-neg", 1.0, math.inf)).holds
    notes.append(f"monotonicity {mono}")

    # by-parts chains
    def scaled(F, alpha):
        return RealFunction(lambda x: alpha * F(x))

    gamma_resid = 0.0
    for n in range(1, 13):
        rep = integrate_by_parts(
            F=RealFunction(lambda x: -math.exp(-x)),
            f=RealFunction(lambda x: math.exp(-x)),
            G=RealFunction(lambda x, n=n: x ** n),
            g=RealFunction(lambda x, n=n: n * x ** (n - 1)),
            domain=Interval(0.0, math.inf),
            fG_primitive=gamma_pair(n).primitive,
            Fg_primitive=scaled(gamma_pair(n - 1).primitive, -float(n)),
            cfg=PRECISE_LIMIT_CONFIG)
        gamma_resid = max(gamma_resid, rep.residual)
    notes.append(f"gamma chain {gamma_resid:.1e}")

    built = {}

    def cospow(n):
        if n not in built:
            f = RealFunction(lambda x, n=n: math.cos(x) ** n,
                             vector_fn=lambda xs, n=n: np.cos(xs) ** n)
            built[n] = build_primitive(f, (0.0, math.pi / 2))
        return built[n]

    cos_resid = 0.0
    for n in range(2, 21):
        Pn, Pm = cospow(n), cospow(n - 2)
        rep = integrate_by_parts(
            F=RealFunction(math.sin), f=RealFunction(math.cos),
            G=RealFunction(lambda x, n=n: math.cos(x) ** (n - 1)),
            g=RealFunction(lambda x, n=n:
                           -(n - 1.0) * math.cos(x) ** (n - 2) * math.sin(x)),
            domain=Interval(0.0, math.pi / 2),
            fG_primitive=RealFunction(Pn.evaluate),
            Fg_primitive=RealFunction(
                lambda x, n=n, Pn=Pn, Pm=Pm:
                -(n - 1.0) * (Pm.evaluate(x) - Pn.evaluate(x))))
        cos_resid = max(cos_resid, rep.residual)
    notes.append(f"cosine chain {cos_resid:.1e}")

    # constant-shift invariance on exact-arithmetic instances
    shift_ok = True
    for pair, shift in ((gamma_pair(5), 7.0), (gamma_pair(12), 1024.0)):
        shifted = PrimitivePair(
            pair.integrand,
            RealFunction(lambda x, F=pair.primitive, s=shift: F(x) + s),
            pair.domain)
        shift_ok &= newton_integral(pair, PRECISE_LIMIT_CONFIG).value \
            == newton_integral(shifted, PRECISE_LIMIT_CONFIG).value
    notes.append(f"shift invariance {shift_ok}")

    elapsed = time.perf_counter() - t0
    ok = (anti and additivity <= 1e-9 and mono and gamma_resid <= 1e-7
          and cos_resid <= 1e-7 and shift_ok)
    _report("criterion 11 (property suites)", ok, ", ".join(notes),
            elapsed, None)
    assert anti
    assert additivity <= 1e-9
    assert mono
    assert gamma_resid <= 1e-7
    assert cos_resid <= 1e-7
    assert shift_ok
