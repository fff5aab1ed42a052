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

from .core import (DecayViolation, Interval, NewtonCalcError, RealFunction,
                   real_function)
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

    @property
    def theta_in_range(self) -> bool:
        if self.theta is None:
            return abs(self.sum - self.integral) <= 1e-9
        return -THETA_FLOAT_SLACK <= self.theta <= 1.0 + THETA_FLOAT_SLACK


@dataclass(frozen=True)
class TailConstantReport:
    """Partial sums of an O(m^-2) series versus their limit.

    partial_sum is the sum of the first n terms, the measured side of
    holds; remainder_bound is 1/n, and the series remainder past n is at
    most decay_scale times that.
    """

    c_estimate: float
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
        compared: both values are rounded, and at large n (1e5 for the
        first expression, 7e6 for the incomplete formula) a proven bound
        C/n comes within their rounding of the error, or below it."""
        scale = max(abs(self.log_factorial_exact), abs(self.approximation))
        return self.abs_error <= self.predicted_bound + 4.0 * math.ulp(scale)


# ---------------------------------------------------------------------------
# the basic monotone estimate
# ---------------------------------------------------------------------------

def _sampled_direction(f: RealFunction, a: int, b: int) -> int:
    vals = f.many(np.linspace(float(a), float(b), min(513, 4 * (b - a) + 1)))
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
    total = math.fsum(f.at(float(n)) for n in range(a + 1, b + 1))
    integral = newton_integral(
        PrimitivePair(f, F, Interval(float(a), float(b)))).value
    fa, fb = f.at(float(a)), f.at(float(b))
    theta = None if fb == fa else (total - integral) / (fb - fa)
    return SumIntegralReport(sum=total, integral=integral, theta=theta)


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
    return TailConstantReport(c_estimate=c_estimate, remainder_bound=1.0 / n,
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


# The first expression's error is the tail of the strip remainders beyond
# n.  r_m is the midpoint-rule error of log on [m - 1/2, m + 1/2], so
# |r_m| <= max |log''| / 24 = 1/(24 (m - 1/2)^2) there.  That bound is convex
# in m, so each term is at most its mean over [m - 1/2, m + 1/2], and the sum
# over m > n is at most the integral over (n + 1/2, inf), which is 1/(24n).
_FIRST_EXPRESSION_C = 1.0 / 24.0


def log_factorial_first_expression(n: int) -> AsymptoticRecord:
    """log(n!) via the strip constant plus the integral of log.

    The predicted bound is C / n with C = 1/24, proven from the strip
    remainders (_FIRST_EXPRESSION_C); the error is their tail beyond n,
    a sum of strictly negative terms, and 24 n times it rises to 1 from
    0.65 at n = 1.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    exact = log_factorial(n)
    approx = strip_constant() + (_xlogx_minus_x(n + 0.5) - _xlogx_minus_x(0.5))
    return AsymptoticRecord(
        n=n, log_factorial_exact=exact, approximation=approx,
        abs_error=abs(exact - approx),
        predicted_bound=_FIRST_EXPRESSION_C / n)


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


# log d_n - log d = [(n + 1/2) log(1 + 1/(2n)) - 1/2] - (strip tail beyond
# n).  With u = 1/(2n) the bracket is ((1 + 1/u) log(1 + u) - 1) / 2, and
# (1 + 1/u) log(1 + u) = 1 + u/2 - u^2/6 + ... lies in (1, 1 + u/2), so the
# bracket lies in (0, 1/(8n)).  The tail lies in (0, 1/(24n)) (see
# _FIRST_EXPRESSION_C) and is subtracted, so |log d_n - log d| < 1/(8n).
_INCOMPLETE_C = 1.0 / 8.0


def incomplete_stirling(n: int) -> Tuple[float, AsymptoticRecord]:
    """d_n = n! / (sqrt(n) (n/e)^n) plus a record against the limit constant.

    d_n is exp(log n! - (n log n - n + (log n)/2)); the record compares
    log n! with the main part plus this module's own limit estimate, so
    its error is |log d_n - log d|, below 1/(8n) (_INCOMPLETE_C).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    exact = log_factorial(n)
    main = n * math.log(n) - n + 0.5 * math.log(n)
    d_n = math.exp(exact - main)
    approx = main + math.log(stirling_constant_estimate())
    record = AsymptoticRecord(
        n=n, log_factorial_exact=exact, approximation=approx,
        abs_error=abs(exact - approx),
        predicted_bound=_INCOMPLETE_C / n)
    return d_n, record
