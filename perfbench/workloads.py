"""The in-process workloads: seeded problem sets with their checks.

A problem is one chain of calls into newton_calc's public API (``run``)
plus a check of its outcome against references computed apart from the
program (``check``).  ``run`` looks functions up on the program's modules
at call time, so the traced mode's wrappers see every call.

``check`` receives the returned value, or the exception ``run`` raised,
and returns the number of correct significant digits (``None`` when the
problem is a pure property check) or raises ``refs.CheckFailed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, List, Optional

import numpy as np

import refs
from refs import CheckFailed, close, require


@dataclass
class Problem:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[float]]
    # a failure here is a fault of the program that the benchmark counts
    # in ``failed`` instead of treating it as a broken run
    known_fault: bool = False


class EvalCounter:
    """Counts evaluations of the integrands the benchmark hands over."""

    def __init__(self) -> None:
        self.n = 0

    def real(self, nc, scalar, vector=None, label: str = ""):
        def fn(x):
            self.n += 1
            return scalar(x)

        vec = None
        if vector is not None:
            def vec(xs):
                self.n += int(np.size(xs))
                return vector(xs)
        return nc.core.RealFunction(fn, label=label, vector_fn=vec)

    def bivariate(self, nc, scalar, vector, label: str = ""):
        def fn(x, y):
            self.n += 1
            return scalar(x, y)

        def vec(xs, ys):
            self.n += int(np.broadcast(xs, ys).size)
            return vector(xs, ys)
        return nc.fubini.BivariateFunction(fn, label=label, vector_fn=vec)

    def registry(self, nc, id_: str):
        nf = nc.functions.get_function(id_)
        f = self.real(nc, nf.fn.fn, nf.fn.vector_fn, id_)
        F = None
        if nf.primitive is not None:
            F = self.real(nc, nf.primitive.fn, nf.primitive.vector_fn,
                          id_ + "-antiderivative")
        return f, F

    def registry2(self, nc, id_: str):
        nb = nc.functions.get_bivariate(id_)
        return self.bivariate(nc, nb.fn, nb.vector_fn, id_)


def _no_exception(outcome) -> None:
    if isinstance(outcome, BaseException):
        raise CheckFailed(f"raised {type(outcome).__name__}: {outcome}")


def _checked(fn):
    """Wrap a check so that an exception outcome fails it first."""
    def check(outcome):
        _no_exception(outcome)
        return fn(outcome)
    return check


# ---------------------------------------------------------------------------
# iterated: the 2-D shared mesh
# ---------------------------------------------------------------------------

ORDER_AGREEMENT = 1e-6
RECT_REL = 1e-5          # RECT_CFG stalls at 3e-7 per unit length
# b = 1 and 2 run a finer configuration that costs 6.7 s of CPU time, more
# than the rest of a round; they are left out so that a run holds several
SPECIAL_BS = (4.0, 8.0, 16.0)


# One base rectangle per registry id; the seed moves each corner by up to
# RECT_JITTER of its side.  Wider draws cross refinement levels, and each
# level crossed changes a rectangle's cost by 2-4x, so ten seeds of freely
# drawn rectangles spread the run's cost by more than any useful bound.
BASE_RECTANGLES = {
    "one2d": (0.0, 1.0, 0.0, 2.0),
    "plane": (0.0, 1.0, 0.0, 2.0),
    "x-ysquared": (-1.0, 1.0, 0.0, 1.0),
    "exp-neg-sum-squares": (0.0, 1.0, 0.0, 1.0),
    "cos-x-sin-y": (0.0, 1.0, 0.0, 1.0),
    "inverse-quartic": (-0.5, 0.5, 0.0, 1.0),
    "product-exp": (0.0, 1.0, 0.0, 1.0),
    "sin-product": (0.0, 1.0, 0.0, 1.0),
    "log-bowl": (-0.5, 0.5, 0.0, 1.0),
    "ridge": (-1.0, 0.0, 0.0, 1.0),
}
RECT_JITTER = 0.01


def _rectangle(rng, base):
    x0, x1, y0, y1 = base
    dx, dy = RECT_JITTER * (x1 - x0), RECT_JITTER * (y1 - y0)
    jx, jy = rng.uniform(-dx, dx, 2), rng.uniform(-dy, dy, 2)
    return (x0 + float(jx[0]), x1 + float(jx[1]),
            y0 + float(jy[0]), y1 + float(jy[1]))


def _l1_scale(id_: str, rect) -> float:
    """Integral of |f| over the rectangle: the scale errors are relative to."""
    return refs.gl_rectangle(lambda x, y: np.abs(refs.BIVARIATE[id_](x, y)), *rect)


def _rect_problem(nc, counter, id_, rect) -> Problem:
    f = counter.registry2(nc, id_)
    x0, x1, y0, y1 = rect
    ref = refs.RECTANGLE[id_](*rect)
    scale = _l1_scale(id_, rect)

    def run():
        it = nc.fubini.iterated_rectangle
        return it(f, (x0, x1), (y0, y1), "xy"), it(f, (x0, x1), (y0, y1), "yx")

    @_checked
    def check(out):
        vxy, vyx = out
        require(abs(vxy - vyx) <= ORDER_AGREEMENT,
                f"{id_}: orders differ by {abs(vxy - vyx):.3e}")
        return min(close(v, ref, RECT_REL, f"{id_} on {rect}", scale)
                   for v in (vxy, vyx))

    return Problem(f"rect.{id_}", run, check)


def _decay_problem(nc, counter, id_, c, schedule, seed, truncated, full) -> Problem:
    f = counter.registry2(nc, id_)
    expected = {b: truncated(b) for b in schedule}

    def run():
        rng = np.random.default_rng(seed)
        return nc.fubini.decay_bounded_fubini(f, c, schedule, rng=rng)

    @_checked
    def check(out):
        report, history = out
        require(report.holds, f"decay {id_}: report does not hold")
        require([b for b, _, _ in history] == sorted(schedule),
                f"decay {id_}: history {history!r}")
        got = []
        for b, vxy, vyx in history:
            require(abs(vxy - vyx) <= ORDER_AGREEMENT,
                    f"decay {id_} b={b}: orders differ by {abs(vxy - vyx):.3e}")
            got += [close(v, expected[b], RECT_REL, f"decay {id_} b={b}")
                    for v in (vxy, vyx)]
        tail = 2.0 * c / history[-1][0]
        require(abs(report.value_xy - full) <= tail,
                f"decay {id_}: tail certificate {tail} misses the full value")
        return min(got)

    return Problem(f"decay.{id_}", run, check)


def _special_problem(nc, b: float) -> Problem:
    ref = refs.special_truncated(b)
    # _special_cfg stalls at 5e-8 per unit length up to b = 2, 1e-5 beyond
    rel = 1e-6 if b <= 2.0 else 1e-4

    def run():
        return nc.fubini.special_infinite_fubini(b)

    @_checked
    def check(rep):
        require(rep.holds, f"special b={b}: report does not hold")
        cert = rep.tail_certificate
        require(abs(cert.c_gauss - 0.5 * refs.SQRT_PI) <= 1e-8,
                f"special: c_gauss {cert.c_gauss!r}")
        require(abs(rep.full_value - refs.SPECIAL_FULL) <= 1e-8,
                f"special: full value {rep.full_value!r}")
        # the certificate must also cover the independent truncated value
        require(abs(refs.SPECIAL_FULL - ref) <= cert.bound_A,
                f"special b={b}: bound_A {cert.bound_A} below the true tail")
        require(rep.discrepancy == abs(rep.value_xy - rep.value_yx),
                "special: discrepancy field")
        return min(close(v, ref, rel, f"special b={b}")
                   for v in (rep.value_xy, rep.value_yx))

    return Problem(f"special.b{b:g}", run, check)


def iterated(nc, rng, counter) -> List[Problem]:
    problems = [_rect_problem(nc, counter, id_, _rectangle(rng, base))
                for id_, base in BASE_RECTANGLES.items()]
    seed = int(rng.integers(2 ** 31))
    # product-exp (c = e^2) is left out: at any b from 4 to 20 it costs
    # 5-13 s of CPU time alone, so a run would hold one or two rounds
    problems.append(_decay_problem(
        nc, counter, "inverse-quartic", 1.0, [4.0, 8.0, 16.0, 32.0], seed,
        lambda b: refs.RECTANGLE["inverse-quartic"](0.0, b, 0.0, b),
        math.pi / 4.0))
    problems += [_special_problem(nc, b) for b in SPECIAL_BS]
    return problems


# ---------------------------------------------------------------------------
# constructive: 1-D builds
# ---------------------------------------------------------------------------

LAPLACE_EPSILON = 0.3
# The seed moves every input a little around a fixed base, as in iterated:
# freely drawn intervals, n and X spread the round's cost and its
# integrand evaluations by about 20 % from seed to seed.  No base interval
# sits near a refinement-level boundary: over seeds 1-40 every build takes
# the same number of evaluations.
GAUSS_STARTS = (-3.0, -2.25, -1.5, -0.75, 0.0, 0.75, 1.5, 1.9)
GAUSS_LENGTHS = (0.25, 0.75, 1.5, 2.5)
GAUSS_JITTER = 0.01       # of the interval's length
LAPLACE_NS = (40, 150, 400)
LAPLACE_N_JITTER = 3      # n moves up by 0..2
ASYMMETRY_XS = (10.0, 50.0, 120.0)
ASYMMETRY_JITTER = 0.01   # relative


def _wallis_problem(nc, n: int) -> Problem:
    ref = refs.wallis(n)

    def run():
        return nc.wallis.three_way(n)

    @_checked
    def check(w):
        require(w.by_integral is not None, f"W_{n}: no integral route")
        return min(close(w.by_integral, ref, 1e-9, f"W_{n} by integral"),
                   close(w.by_recurrence, ref, 1e-12, f"W_{n} by recurrence"),
                   close(w.by_closed_form, ref, 1e-12, f"W_{n} closed form"))

    return Problem(f"wallis.{n}", run, check)


def _gamma_numeric_problem(nc, n: int) -> Problem:
    ref = refs.factorial(n)

    def run():
        return nc.laplace.gamma_integral(n, "numeric")

    return Problem(f"gamma_numeric.{n}", run,
                   _checked(lambda v: close(v, ref, 1e-6, f"{n}! numeric")))


def _gauss_build_problem(nc, counter, a: float, b: float) -> Problem:
    nf = nc.functions.get_function("exp-neg-square")
    f = counter.real(nc, nf.fn.fn, nf.fn.vector_fn, "exp-neg-square")
    ref = refs.gauss_segment(a, b)

    def run():
        P = nc.builder.build_primitive(f, (a, b))
        return P, nc.engine.newton_integral(nc.engine.pair_from_primitive(P, f))

    @_checked
    def check(out):
        P, result = out
        require(P.domain == (a, b), f"primitive domain {P.domain}")
        require(P.evaluate(a) == 0.0, "primitive does not vanish at a")
        require(result.lower_limit.converged and result.upper_limit.converged,
                "endpoint limits did not converge")
        # the builder's stopping rule is per unit length, so errors are
        # measured against the larger of the integral and the length
        return close(result.value, ref, 1e-7, f"exp(-x^2) on [{a}, {b}]",
                     scale=max(abs(ref), b - a))

    return Problem("build.exp-neg-square", run, check)


def _laplace_problem(nc, n: int) -> Problem:
    delta = float(n) ** (-0.5 + LAPLACE_EPSILON / 3.0)
    full = refs.centered_laplace(n)
    bulk = refs.gaussian_bulk(n, delta)

    def run():
        cfg = nc.laplace.LaplaceConfig(epsilon=LAPLACE_EPSILON, n=n)
        return nc.laplace.concentrate(cfg), nc.laplace.reduce_to_gauss(cfg)

    @_checked
    def check(out):
        budget, report = out
        require(report.holds, f"reduce_to_gauss n={n}: report does not hold")
        pieces = (budget.I1, budget.I2, budget.I3, budget.I4)
        require(all(p >= 0.0 for p in pieces), f"negative piece at n={n}")
        require(budget.I2 / budget.main_term - 1.0 == budget.measured_r,
                "measured_r field")
        return min(close(budget.full_value, full, 1e-6, f"centered n={n}"),
                   close(sum(pieces), full, 1e-6, f"four pieces n={n}"),
                   close(budget.main_term, bulk, 1e-6, f"Gaussian bulk n={n}"),
                   close(report.lhs, bulk, 1e-6, f"reduced bulk n={n}"))

    return Problem(f"laplace.{n}", run, check)


def _asymmetry_problem(nc, X: float) -> Problem:
    def run():
        return nc.fubini.asymmetry_counterexample(X)

    @_checked
    def check(rep):
        lo = -math.expm1(-X)
        # every x-section lies between exp(-x) and 2 exp(-x)
        require(lo <= rep.order_xy_value <= 2.0 * lo,
                f"counterexample X={X}: xy value {rep.order_xy_value!r}")
        return close(rep.order_yx_partial, X, 1e-9, f"yx partial X={X}")

    return Problem("asymmetry", run, check)


def constructive(nc, rng, counter) -> List[Problem]:
    problems = [_wallis_problem(nc, n) for n in range(31)]
    problems += [_gamma_numeric_problem(nc, n) for n in range(13)]
    for start in GAUSS_STARTS:
        for length in GAUSS_LENGTHS:
            ja, jb = rng.uniform(-GAUSS_JITTER, GAUSS_JITTER, 2) * length
            problems.append(_gauss_build_problem(
                nc, counter, start + float(ja), start + length + float(jb)))
    problems += [_laplace_problem(nc, n + int(rng.integers(LAPLACE_N_JITTER)))
                 for n in LAPLACE_NS]
    problems += [_asymmetry_problem(
        nc, X * (1.0 + float(rng.uniform(-ASYMMETRY_JITTER, ASYMMETRY_JITTER))))
        for X in ASYMMETRY_XS]
    return problems


# ---------------------------------------------------------------------------
# limits: scalar endpoint limits
# ---------------------------------------------------------------------------

LIMIT_ABS = 1e-8          # the engine's finite-interval identity tolerance
INTERVALS_PER_PAIR = 96
RULE_REPEATS = 8
# The cost of monotone_sum_vs_integral, incomplete_stirling and
# stirling_via_laplace grows with the length of the sum or with n, and
# those problems take most of a round; freely drawn n spread a round's cost
# by about 25 % from seed to seed.  So the seed moves each n, and each sum's
# end, by 0..N_JITTER-1 above a fixed, evenly spaced base.
SUM_SPANS = tuple(range(10, 401, 55))                     # 8 sums
STIRLING_NS = tuple(range(2, 20_001, 425))                # 48 n
N_JITTER = 8

# closed-form antiderivatives, written apart from the program's registry,
# with the range endpoints are drawn from
PRIMITIVES = {
    "cos": (math.sin, (-10.0, 10.0)),
    "sin": (lambda x: -math.cos(x), (-10.0, 10.0)),
    "log": (lambda x: x * math.log(x) - x, (0.05, 20.0)),
    "log1p": (lambda x: (1.0 + x) * math.log1p(x) - x, (-0.95, 20.0)),
    "exp-neg": (lambda x: -math.exp(-x), (-5.0, 10.0)),
    "reciprocal-square": (lambda x: -1.0 / x, (0.05, 20.0)),
    "identity": (lambda x: 0.5 * x * x, (-10.0, 10.0)),
    "one": (lambda x: x, (-10.0, 10.0)),
    "inverse-quadratic": (math.atan, (-10.0, 10.0)),
}

# (id, lo, hi, limit value F(hi) - F(lo)) on rays
RAYS = (
    ("exp-neg", "a", math.inf, lambda a: math.exp(-a)),
    ("reciprocal-square", "a", math.inf, lambda a: 1.0 / a),
    ("inverse-quadratic", "a", math.inf, lambda a: 0.5 * math.pi - math.atan(a)),
    ("inverse-quadratic", -math.inf, "a", lambda a: math.atan(a) + 0.5 * math.pi),
)
DIVERGENT_RAYS = ("identity", "one", "cos", "log")


def _interval(rng, id_):
    lo, hi = PRIMITIVES[id_][1]
    a = float(rng.uniform(lo, hi - 0.1))
    return a, float(rng.uniform(a + 0.05, hi))


def _integral_problem(nc, pair, ref, scale, reverse, name) -> Problem:
    expected = -ref if reverse else ref

    def run():
        return nc.engine.newton_integral(pair, reverse=reverse)

    @_checked
    def check(result):
        require(result.lower_limit.converged and result.upper_limit.converged,
                f"{name}: unconverged limit reported as a value")
        require(result.reversed_orientation == reverse, f"{name}: orientation")
        return close(result.value, expected, LIMIT_ABS / max(scale, 1.0),
                     name, scale=max(scale, 1.0))

    return Problem(name, run, check)


def _divergent_problem(nc, pair, name) -> Problem:
    def run():
        return nc.engine.newton_integral(pair)

    def check(outcome):
        require(isinstance(outcome, nc.core.NewtonCalcError),
                f"{name}: expected a NewtonCalcError, got {outcome!r}")
        return None

    return Problem(name, run, check)


def _report_check(name, ref=None, rel=1e-8, scale=None):
    """Check an IdentityReport: it holds, and its lhs matches ref if given."""
    @_checked
    def check(rep):
        require(rep.holds, f"{name}: identity report does not hold "
                           f"(residual {rep.residual:.3e})")
        require(rep.residual <= rep.tolerance, f"{name}: residual field")
        if ref is None:
            return None
        return close(rep.lhs, ref, rel, name, scale)
    return check


def _engine_rules(nc, rng, counter) -> List[Problem]:
    E = nc.engine
    Interval = nc.core.Interval
    PrimitivePair = E.PrimitivePair
    cos, sin = counter.registry(nc, "cos")
    expn, Fexpn = counter.registry(nc, "exp-neg")
    invq, atan = counter.registry(nc, "inverse-quadratic")
    one, ident = counter.registry(nc, "one")
    out: List[Problem] = []
    for _ in range(RULE_REPEATS):
        a = float(rng.uniform(-3.0, 1.0))
        b = a + float(rng.uniform(0.5, 4.0))
        c = float(rng.uniform(a + 0.1, b - 0.1))
        alpha, beta = (float(v) for v in rng.uniform(-2.0, 2.0, 2))
        p_cos = PrimitivePair(cos, sin, Interval(a, b))
        p_exp = PrimitivePair(expn, Fexpn, Interval(a, b))
        ref_cos = math.sin(b) - math.sin(a)
        ref_exp = math.exp(-a) - math.exp(-b)

        @_checked
        def split_check(out, ref=ref_cos):
            left, right, report = out
            _report_check("split_additive")(report)
            return close(left.value + right.value, ref, LIMIT_ABS,
                         "split_additive", scale=1.0)
        out.append(Problem("engine.split_additive",
                           lambda p=p_cos, c=c: E.split_additive(p, c),
                           split_check))

        combined = alpha * ref_cos + beta * ref_exp
        out.append(Problem(
            "engine.linear_combine",
            lambda p=p_cos, q=p_exp, al=alpha, be=beta:
                E.newton_integral(E.linear_combine(p, q, al, be)),
            _checked(lambda r, ref=combined: close(
                r.value, ref, LIMIT_ABS, "linear_combine", scale=1.0))))

        p_invq = PrimitivePair(invq, atan, Interval(a, b))
        p_one = PrimitivePair(one, ident, Interval(a, b))
        out.append(Problem(
            "engine.monotone_compare",
            lambda p=p_invq, q=p_one: E.monotone_compare(p, q),
            _report_check("monotone_compare", math.atan(b) - math.atan(a),
                          LIMIT_ABS, 1.0)))
        out.append(Problem(
            "engine.ml_bound_check",
            lambda p=p_cos: E.ml_bound_check(p, 1.0, "upper"),
            _report_check("ml_bound_check", ref_cos, LIMIT_ABS, 1.0)))

        # int x cos x = [x sin x] - int sin x
        F, f = counter.real(nc, math.sin), counter.real(nc, math.cos)
        G = counter.real(nc, lambda x: x)
        g = counter.real(nc, lambda x: 1.0)
        fG_prim = counter.real(nc, lambda x: x * math.sin(x) + math.cos(x))
        Fg_prim = counter.real(nc, lambda x: -math.cos(x))
        by_parts_ref = (b * math.sin(b) + math.cos(b)) - (a * math.sin(a) + math.cos(a))
        out.append(Problem(
            "engine.integrate_by_parts",
            lambda F=F, f=f, G=G, g=g, iv=Interval(a, b), p1=fG_prim, p2=Fg_prim:
                E.integrate_by_parts(F, f, G, g, iv, p1, p2),
            _report_check("integrate_by_parts", by_parts_ref, LIMIT_ABS, 1.0)))

        # int_s0^s1 cos(x^2) 2x dx = sin(s1^2) - sin(s0^2)
        s0 = float(rng.uniform(0.1, 1.0))
        s1 = s0 + float(rng.uniform(0.2, 1.5))
        target = PrimitivePair(cos, sin, Interval(s0 * s0, s1 * s1))
        sq = counter.real(nc, lambda x: x * x, lambda xs: xs * xs)
        dsq = counter.real(nc, lambda x: 2.0 * x, lambda xs: 2.0 * xs)
        out.append(Problem(
            "engine.substitute",
            lambda p=target, g=sq, gp=dsq, src=Interval(s0, s1):
                E.substitute(p, g, gp, src),
            _report_check("substitute", math.sin(s1 * s1) - math.sin(s0 * s0),
                          LIMIT_ABS, 1.0)))

        ray = PrimitivePair(expn, Fexpn, Interval(a, math.inf))
        out.append(Problem(
            "engine.hake_check.ray", lambda p=ray: E.hake_check(p),
            _report_check("hake_check ray", math.exp(-a), 1e-6, 1.0)))
        out.append(Problem(
            "engine.hake_check.finite", lambda p=p_invq: E.hake_check(p),
            _report_check("hake_check finite", math.atan(b) - math.atan(a),
                          LIMIT_ABS, 1.0)))
    return out


def _sum_problem(nc, counter, a: int, b: int) -> Problem:
    f, F = counter.registry(nc, "log")
    sum_ref = math.lgamma(b + 1.0) - math.lgamma(a + 1.0)
    integral_ref = (b * math.log(b) - b) - (a * math.log(a) - a)

    def run():
        return nc.sums.monotone_sum_vs_integral(f, F, a, b)

    @_checked
    def check(rep):
        require(rep.theta is not None and 0.0 <= rep.theta <= 1.0,
                f"theta {rep.theta!r} outside [0, 1]")
        require(rep.theta_in_range, "theta_in_range disagrees")
        return min(close(rep.sum, sum_ref, 1e-12, f"sum log (a={a}, b={b}]"),
                   close(rep.integral, integral_ref, LIMIT_ABS,
                         f"integral log ({a}, {b})", scale=max(1.0, abs(integral_ref))))

    return Problem("sums.monotone_sum_vs_integral", run, check)


def _gamma_exact_problem(nc, n: int) -> Problem:
    ref = refs.factorial(n)

    def run():
        return nc.laplace.gamma_integral(n)

    # the program's acceptance gate covers n <= 20; above it, the closed
    # form's limit at infinity stalls early or meets NaN for 94 values of n
    # (see README.md), which counts as failed, not as a broken run
    return Problem(f"gamma_exact.{n}", run,
                   _checked(lambda v: close(v, ref, 1e-12, f"{n}! exact")),
                   known_fault=n > 20)


def _stirling_problems(nc, n: int) -> List[Problem]:
    lf = refs.log_factorial(n)

    @_checked
    def check_sum(out):
        d_n, rec = out
        require(rec.abs_error <= rec.predicted_bound,
                f"incomplete_stirling n={n}: error above its bound")
        d_ref = math.exp(lf - (n * math.log(n) - n + 0.5 * math.log(n)))
        return min(close(rec.log_factorial_exact, lf, 1e-13, f"log {n}!"),
                   close(d_n, d_ref, 1e-10, f"d_{n}"))

    @_checked
    def check_laplace(rec):
        require(rec.abs_error <= rec.predicted_bound,
                f"stirling_via_laplace n={n}: error above its bound")
        return min(close(rec.log_factorial_exact, lf, 1e-13, f"log {n}!"),
                   # carries the program's own Gaussian integral
                   close(rec.approximation, refs.stirling_laplace_main(n),
                         1e-9, f"Laplace main term n={n}", scale=1.0))

    return [Problem("sums.incomplete_stirling",
                    lambda: nc.sums.incomplete_stirling(n), check_sum),
            Problem("laplace.stirling_via_laplace",
                    lambda: nc.laplace.stirling_via_laplace(n, LAPLACE_EPSILON),
                    check_laplace)]


def _fault_problems(nc) -> List[Problem]:
    """Two operations that fail at the commit that added the benchmark.

    (a) cos on (0, 1e6) with a primitive equal to sin except for a
    removable value at 1e6: the left schedule collapses onto the endpoint
    and reports the wrong value as converged.  (b) the divergent integral
    of 1/(1 - x) over (0, 1) must end in a NewtonCalcError.
    """
    c = 1e6

    def removable(x):
        return math.sin(x) + (1.0 if x == c else 0.0)

    pair_a = nc.engine.PrimitivePair(nc.core.RealFunction(math.cos),
                                     nc.core.RealFunction(removable),
                                     nc.core.Interval(0.0, c))

    def check_a(outcome):
        if isinstance(outcome, nc.core.NewtonCalcError):
            return None
        _no_exception(outcome)
        return close(outcome.value, math.sin(c), LIMIT_ABS,
                     "cos on (0, 1e6) with a removable endpoint value", scale=1.0)

    pair_b = nc.engine.PrimitivePair(
        nc.core.RealFunction(lambda x: 1.0 / (1.0 - x)),
        nc.core.RealFunction(lambda x: -math.log(1.0 - x)),
        nc.core.Interval(0.0, 1.0))

    def check_b(outcome):
        require(isinstance(outcome, nc.core.NewtonCalcError),
                f"1/(1-x) on (0, 1): expected a NewtonCalcError, got {outcome!r}")
        return None

    return [Problem("fault.removable_endpoint",
                    lambda: nc.engine.newton_integral(pair_a), check_a, True),
            Problem("fault.divergent_log",
                    lambda: nc.engine.newton_integral(pair_b), check_b, True)]


def limits(nc, rng, counter) -> List[Problem]:
    Interval = nc.core.Interval
    PrimitivePair = nc.engine.PrimitivePair
    problems: List[Problem] = []
    for id_, (F_ref, _) in PRIMITIVES.items():
        f, F = counter.registry(nc, id_)
        for _ in range(INTERVALS_PER_PAIR):
            a, b = _interval(rng, id_)
            Fa, Fb = F_ref(a), F_ref(b)
            pair = PrimitivePair(f, F, Interval(a, b))
            scale = max(abs(Fa), abs(Fb))
            for reverse in (False, True):
                problems.append(_integral_problem(
                    nc, pair, Fb - Fa, scale, reverse, f"integral.{id_}"))
    for id_, lo, hi, value in RAYS:
        f, F = counter.registry(nc, id_)
        for _ in range(RULE_REPEATS):
            a = float(rng.uniform(0.5, 5.0))
            iv = Interval(a if lo == "a" else lo, a if hi == "a" else hi)
            problems.append(_integral_problem(
                nc, PrimitivePair(f, F, iv), value(a), 1.0, False,
                f"ray.{id_}"))
    for id_ in DIVERGENT_RAYS:
        f, F = counter.registry(nc, id_)
        a = float(rng.uniform(0.5, 5.0))
        problems.append(_divergent_problem(
            nc, PrimitivePair(f, F, Interval(a, math.inf)), f"divergent.{id_}"))
    problems += _engine_rules(nc, rng, counter)
    for span in SUM_SPANS:
        a = int(rng.integers(1, 20))
        b = a + span + int(rng.integers(N_JITTER))
        problems.append(_sum_problem(nc, counter, a, b))
    problems += [_gamma_exact_problem(nc, n) for n in range(171)]
    for n in STIRLING_NS:
        problems += _stirling_problems(nc, n + int(rng.integers(N_JITTER)))
    problems += _fault_problems(nc)
    return problems


WORKLOADS = {"iterated": iterated, "constructive": constructive,
             "limits": limits}


def program_namespace():
    """The program's modules, imported by name (after sys.path is set)."""
    import importlib
    names = ("core", "engine", "builder", "fubini", "sums", "wallis",
             "laplace", "functions", "cli")
    return SimpleNamespace(**{n: importlib.import_module(f"newton_calc.{n}")
                              for n in names})


def answer_caches(nc):
    """cache_clear of every lru_cache in the program that caches an answer.

    A cached function with a required argument (``log_factorial(n)``,
    ``special_infinite_fubini(b)``, ...) caches answers, and the benchmark
    clears it before each problem so no problem is answered from an earlier
    one.  Caches of argument-free constants (``tail_constants``,
    ``strip_constant``, ...) are the set-up that ``setup_s`` measures.
    """
    import inspect
    clears = []
    for module in vars(nc).values():
        for fn in vars(module).values():
            clear = getattr(fn, "cache_clear", None)
            if clear is None or getattr(fn, "__module__", None) != module.__name__:
                continue
            params = inspect.signature(fn).parameters.values()
            if any(p.default is p.empty and p.kind in (p.POSITIONAL_ONLY,
                                                       p.POSITIONAL_OR_KEYWORD)
                   for p in params):
                clears.append(clear)
    return clears
