"""Sums versus integrals, and the factorial asymptotics they produce.

The chain implemented here: a monotone function's sum over integer points
differs from its integral by theta * (f(b) - f(a)) with theta in [0, 1];
sums of O(m^-2) terms converge to a constant with O(1/n) remainder; the
integral of log over the strip [m - 1/2, m + 1/2] is log m + O(m^-2); so
log(n!) is a constant plus the integral of log over [1/2, n + 1/2] up to
O(1/n).  Exponentiating gives n! = (d + O(1/n)) sqrt(n) (n/e)^n with a
constant d this module estimates from its own strip sums; identifying d
with sqrt(2*pi) is the business of the cosine-power recurrence module.

Single log-factorials are math.fsum of the rounded logs, the correctly
rounded sum of those: within 1 ulp of log n! for every n <= 20,000, and
1 ulp off for 79 of them; a cumulative float table is provided
separately for bulk scans where drift of order 1e-7 absolute is
acceptable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .core import (DecayViolation, EvaluationFailure, Interval,
                   NewtonCalcError, RealFunction, real_function)
from .engine import PrimitivePair, newton_integral
from .functions import _xlogx_minus_x

__all__ = [
    "NotMonotone",
    "SumIntegralReport",
    "TailConstantReport",
    "AsymptoticRecord",
    "monotone_sum_vs_integral",
    "tail_constant",
    "tail_bound_by_telescoping",
    "strip_remainders_upto",
    "strip_constant",
    "log_factorial",
    "log_factorial_table",
    "log_factorial_first_expression",
    "incomplete_stirling",
    "stirling_constant_estimate",
]


class NotMonotone(NewtonCalcError):
    """The sampled function failed to be monotone on the requested range."""


THETA_FLOAT_SLACK = 1e-12


@dataclass(frozen=True)
class SumIntegralReport:
    """Sum over (a, b] at integers, the integral, and the solved theta.

    theta is None when f(b) = f(a) (a constant function leaves it
    undefined; the sum-equals-integral check stands in).  theta_in_range
    flags violations beyond float noise.
    """

    sum: float
    integral: float
    theta: Optional[float]
    endpoints: Tuple[int, int]

    @property
    def theta_in_range(self) -> bool:
        if self.theta is None:
            return abs(self.sum - self.integral) <= 1e-9
        return -THETA_FLOAT_SLACK <= self.theta <= 1.0 + THETA_FLOAT_SLACK


@dataclass(frozen=True)
class TailConstantReport:
    """Partial sums of an O(m^-2) series versus their limit.

    remainder_bound is 1/n_used; the series remainder past n_used is at
    most decay_scale times that.
    """

    c_estimate: float
    n_used: int
    remainder_bound: float
    partial_sum: float
    holds: bool


@dataclass(frozen=True)
class AsymptoticRecord:
    """One row of a factorial-approximation table."""

    n: int
    log_factorial_exact: float
    approximation: float
    abs_error: float
    predicted_bound: float

    @property
    def within_bound(self) -> bool:
        """abs_error <= predicted_bound, up to 4 ulps of the larger value
        compared: both values are rounded, and at large n (7e6 on the sum
        route) a bound C/n falls below their rounding."""
        scale = max(abs(self.log_factorial_exact), abs(self.approximation))
        return self.abs_error <= self.predicted_bound + 4.0 * math.ulp(scale)


# ---------------------------------------------------------------------------
# the basic monotone estimate
# ---------------------------------------------------------------------------

def _value(f: RealFunction, x: float) -> float:
    """f(x); EvaluationFailure naming f and x where f raises an
    ArithmeticError or ValueError or returns a non-finite value."""
    try:
        y = f(x)
    except (ArithmeticError, ValueError) as exc:
        raise EvaluationFailure(
            f"{f.label or '<unnamed>'} fails at x = {x!r}: {exc}") from exc
    if not math.isfinite(y):
        raise EvaluationFailure(f"{f.label or '<unnamed>'} is {y!r} at x = {x!r}")
    return y


def _sampled_direction(f: RealFunction, a: int, b: int) -> int:
    count = min(513, 4 * (b - a) + 1)
    xs = np.linspace(float(a), float(b), count)
    try:
        vals = f.many(xs)
    except (ArithmeticError, ValueError):
        vals = np.array([math.nan])
    if not np.isfinite(vals).all():
        # one by one, to name the sample (an inf would void the slack)
        vals = np.array([_value(f, x) for x in xs.tolist()])
    diffs = np.diff(vals)
    scale = 1e-12 * max(1.0, float(np.max(np.abs(vals))))
    if np.all(diffs >= -scale):
        return 1
    if np.all(diffs <= scale):
        return -1
    raise NotMonotone("sampled values are not monotone on the range")


def monotone_sum_vs_integral(f: Union[RealFunction, Callable[[float], float]],
                             F: Union[RealFunction, Callable[[float], float]],
                             a: int, b: int) -> SumIntegralReport:
    """Solve sum_{a<n<=b} f(n) = integral + theta (f(b) - f(a)) for theta;
    EvaluationFailure where f fails at a sample or integer point."""
    if not b > a:
        raise ValueError("need b > a")
    f = real_function(f)
    F = real_function(F)
    _sampled_direction(f, a, b)
    total = math.fsum(_value(f, float(n)) for n in range(a + 1, b + 1))
    integral = newton_integral(
        PrimitivePair(f, F, Interval(float(a), float(b)))).value
    fa, fb = _value(f, float(a)), _value(f, float(b))
    theta = None if fb == fa else (total - integral) / (fb - fa)
    return SumIntegralReport(sum=total, integral=integral, theta=theta,
                             endpoints=(a, b))


# ---------------------------------------------------------------------------
# reciprocal-square tails
# ---------------------------------------------------------------------------

def tail_bound_by_telescoping(n: int) -> float:
    """Integral-free route: m^-2 <= 1/((m-1) m), which telescopes to 1/n."""
    if n < 1:
        raise ValueError("n must be positive")
    return 1.0 / n


def tail_constant(terms: Callable[[int], float], decay_scale: float,
                  n: int, N_max: int) -> TailConstantReport:
    """Estimate the limit of partial sums of an O(m^-2) series.

    Checks the decay hypothesis on a sample of indices, sums to N_max with
    compensated summation, and reports whether the partial sum at n sits
    within decay_scale / n of the estimate (the telescoping and integral
    routes both give that remainder bound).
    """
    if not (1 <= n <= N_max):
        raise ValueError("need 1 <= n <= N_max")
    sample = sorted(set(
        list(range(1, min(n, 64) + 1))
        + [int(m) for m in np.geomspace(1, N_max, 64)]))
    for m in sample:
        if abs(terms(m)) > decay_scale / (m * m) * (1.0 + 1e-9):
            raise DecayViolation(
                f"|terms({m})| exceeds {decay_scale} / m^2")
    partial = math.fsum(terms(m) for m in range(1, n + 1))
    rest = math.fsum(terms(m) for m in range(n + 1, N_max + 1))
    c_estimate = partial + rest
    bound = decay_scale * tail_bound_by_telescoping(n) \
        + decay_scale * tail_bound_by_telescoping(N_max)
    holds = abs(partial - c_estimate) <= bound
    return TailConstantReport(c_estimate=c_estimate, n_used=n,
                              remainder_bound=1.0 / n,
                              partial_sum=partial, holds=holds)


# ---------------------------------------------------------------------------
# strips of the logarithm and the first factorial expression
# ---------------------------------------------------------------------------

def strip_remainders_upto(n: int) -> np.ndarray:
    """Integral of log over [m - 1/2, m + 1/2] minus log m, in closed form,
    for m = 1..n (index 0 is m = 1)."""
    m = np.arange(1, n + 1, dtype=float)
    hi = (m + 0.5) * np.log(m + 0.5) - (m + 0.5)
    lo = (m - 0.5) * np.log(m - 0.5) - (m - 0.5)
    return (hi - lo) - np.log(m)


@lru_cache(maxsize=None)
def strip_constant() -> float:
    """The constant c with log(n!) = c + O(1/n) + integral of log.

    c = -sum of all strip remainders.  The partial sums S_N, S_2N, S_4N
    (N = 1000) miss a tail a/N + b/N^2 + O(N^-3); two ratio-2 Richardson
    columns cancel its first two terms, which leaves an error of order
    1e-11, set by the rounding of the remainders themselves.
    """
    n = 1000
    remainders = strip_remainders_upto(4 * n).tolist()
    s1, s2, s4 = (math.fsum(remainders[:m]) for m in (n, 2 * n, 4 * n))
    r1, r2 = 2.0 * s2 - s1, 2.0 * s4 - s2
    return -(r2 + (r2 - r1) / 3.0)


@lru_cache(maxsize=4096)
def log_factorial(n: int) -> float:
    """log(n!) as the correctly rounded sum of the rounded log m, m <= n.

    Within 1 ulp of log n! (checked up to n = 20,000), but not always
    its correct rounding.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.fsum(map(math.log, range(2, n + 1)))


def log_factorial_table(n_max: int) -> np.ndarray:
    """Cumulative log-factorials 0..n_max as a float array.

    Sequential accumulation; absolute drift stays far below the 1e-5-scale
    gaps the bulk scans compare against, but use log_factorial for single
    values that feed tolerance-critical checks.
    """
    logs = np.zeros(n_max + 1)
    if n_max >= 2:
        logs[2:] = np.log(np.arange(2, n_max + 1, dtype=float))
    return np.cumsum(logs)


def _strip_integral(lo: float, hi: float) -> float:
    return _xlogx_minus_x(hi) - _xlogx_minus_x(lo)


@lru_cache(maxsize=None)
def _first_expression_constant() -> float:
    """Error-bound constant for the first expression, calibrated at n = 10."""
    n = 10
    approx = strip_constant() + _strip_integral(0.5, n + 0.5)
    err = abs(log_factorial(n) - approx)
    return 1.5 * err * n


def log_factorial_first_expression(n: int) -> AsymptoticRecord:
    """log(n!) via the strip constant plus the integral of log.

    The predicted bound is C / n with C calibrated once at n = 10 and a
    50 percent margin; the remainder is a tail of strictly negative
    O(m^-2) strip terms, so the scaled error shrinks as n grows.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    exact = log_factorial(n)
    approx = strip_constant() + _strip_integral(0.5, n + 0.5)
    return AsymptoticRecord(
        n=n, log_factorial_exact=exact, approximation=approx,
        abs_error=abs(exact - approx),
        predicted_bound=_first_expression_constant() / n)


# ---------------------------------------------------------------------------
# the incomplete factorial formula
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def stirling_constant_estimate() -> float:
    """This module's own estimate of d = lim n! / (sqrt(n) (n/e)^n).

    Expanding the integral of log over [1/2, n + 1/2] around the main part
    n log n - n + (log n)/2 leaves the constant 1/2 + (log 2)/2 in the
    limit, so log d = strip constant + 1/2 + (log 2)/2.  No circle
    constant enters; the recurrence module independently pins the same
    number to sqrt(2*pi).
    """
    return math.exp(strip_constant() + 0.5 + 0.5 * math.log(2.0))


def _incomplete_main_part(n: int) -> float:
    return n * math.log(n) - n + 0.5 * math.log(n)


@lru_cache(maxsize=None)
def _incomplete_bound_constant() -> float:
    n = 10
    err = abs(log_factorial(n)
              - (_incomplete_main_part(n) + math.log(stirling_constant_estimate())))
    return 1.5 * err * n


def incomplete_stirling(n: int) -> Tuple[float, AsymptoticRecord]:
    """d_n = n! / (sqrt(n) (n/e)^n) plus a record against the limit constant.

    d_n is exp(log n! - (n log n - n + (log n)/2)); the record compares
    log n! with the main part plus this module's own limit estimate, so
    its error is |log d_n - log d| = O(1/n).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    exact = log_factorial(n)
    main = _incomplete_main_part(n)
    d_n = math.exp(exact - main)
    approx = main + math.log(stirling_constant_estimate())
    record = AsymptoticRecord(
        n=n, log_factorial_exact=exact, approximation=approx,
        abs_error=abs(exact - approx),
        predicted_bound=_incomplete_bound_constant() / n)
    return d_n, record
