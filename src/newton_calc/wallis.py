"""The cosine-power sequence W_n three ways, and what it pins down.

W_n is defined by W_0 = pi/2, W_1 = 1, W_n = (n-1)/n * W_{n-2}.  It equals
the integral of cos^n over (0, pi/2), which shows it decreases and squeezes
W_n / W_{n-1} between n/(n+1) and 1.  Combined with the incomplete
factorial formula n! = (d + O(1/n)) sqrt(n) (n/e)^n, the even/odd closed
forms force d = sqrt(2*pi).

pi enters only as the host constant, standing for twice the smallest
positive zero of cos; a test cross-checks the host cosine against its
power series.  Factorial-bearing closed forms are evaluated in log space
(raw factorials overflow binary64 at n = 171).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .builder import BuildConfig, build_primitive
from .core import RealFunction
from .engine import newton_integral, pair_from_primitive
from .sums import log_factorial, log_factorial_table

__all__ = [
    "WallisValue",
    "wallis_recurrence",
    "wallis_integral",
    "wallis_closed_form",
    "log_wallis_closed_form",
    "sandwich_scan",
    "determine_stirling_constant",
    "three_way",
    "INTEGRAL_CUTOFF",
]

# above this the integrand is concentrated enough that the mesh cost is not
# worth paying; recurrence and closed form carry large n
INTEGRAL_CUTOFF = 30

_WALLIS_BUILD_CFG = BuildConfig(target_uniform_gap=2e-10)


@dataclass(frozen=True)
class WallisValue:
    n: int
    by_recurrence: float
    by_integral: Optional[float]
    by_closed_form: float


def wallis_recurrence(n: int) -> float:
    """Iterate W_n = ((n-1)/n) W_{n-2} down from W_0 = pi/2, W_1 = 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    even, odd = math.pi / 2.0, 1.0
    for m in range(2, n + 1):
        if m % 2 == 0:
            even *= (m - 1.0) / m
        else:
            odd *= (m - 1.0) / m
    return even if n % 2 == 0 else odd


def wallis_integral(n: int) -> float:
    """Newton integral of cos^n over (0, pi/2) from a built antiderivative.

    No closed-form antiderivative is supplied; the piecewise construction
    provides one.  Practical for n up to a few dozen (see INTEGRAL_CUTOFF
    for where the tables stop).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")

    def scalar(x: float) -> float:
        return math.cos(x) ** n

    def vector(xs: np.ndarray) -> np.ndarray:
        return np.cos(xs) ** n

    f = RealFunction(scalar, label=f"cos^{n}", vector_fn=vector)
    P = build_primitive(f, (0.0, math.pi / 2.0), _WALLIS_BUILD_CFG)
    return newton_integral(pair_from_primitive(P, f)).value


def log_wallis_closed_form(n: int) -> float:
    """log W_n from the even/odd factorial closed forms."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n % 2 == 0:
        m = n // 2
        return (log_factorial(2 * m) - 2.0 * (m * math.log(2.0) + log_factorial(m))
                + math.log(math.pi / 2.0))
    m = (n - 1) // 2
    return 2.0 * (m * math.log(2.0) + log_factorial(m)) - log_factorial(2 * m + 1)


def wallis_closed_form(n: int) -> float:
    return math.exp(log_wallis_closed_form(n))


def sandwich_scan(n_max: int) -> bool:
    """Vectorized sandwich check for all 2 <= n <= n_max.

    Uses the cumulative log-factorial table; its drift is orders of
    magnitude below the 1/(2n) gap between the ratio and its bounds.
    """
    lf = log_factorial_table(n_max + 1)
    n = np.arange(0, n_max + 2)
    logw = np.empty(n_max + 2)
    even = n % 2 == 0
    m = n // 2
    logw[even] = (lf[n[even]] - 2.0 * (m[even] * math.log(2.0) + lf[m[even]])
                  + math.log(math.pi / 2.0))
    modd = (n[~even] - 1) // 2
    logw[~even] = (2.0 * (modd * math.log(2.0) + lf[modd])
                   - lf[n[~even]])
    ratios = np.exp(np.diff(logw))          # W_n / W_{n-1} at index n-1
    ns = np.arange(2, n_max + 1, dtype=float)
    r = ratios[1:n_max]
    lower = ns / (ns + 1.0)
    slack = 1e-11
    return bool(np.all(r <= 1.0 + slack) and np.all(r >= lower - slack))


def determine_stirling_constant(n: int) -> float:
    """Estimate d from the ratio W_{2n+1} / W_{2n}.

    Substituting the incomplete formula into the closed forms collapses
    the ratio chain to W_{2n+1}/W_{2n} = d_n^4 / (d_{2n}^2 * 2 pi), so
    sqrt(2 pi * ratio) converges to d; the ratio itself tends to 1, which
    is what forces d = sqrt(2 pi).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    ratio = math.exp(log_wallis_closed_form(2 * n + 1)
                     - log_wallis_closed_form(2 * n))
    return math.sqrt(2.0 * math.pi * ratio)


def three_way(n: int) -> WallisValue:
    """W_n by recurrence, by integral (n <= cutoff), and by closed form."""
    return WallisValue(
        n=n,
        by_recurrence=wallis_recurrence(n),
        by_integral=wallis_integral(n) if n <= INTEGRAL_CUTOFF else None,
        by_closed_form=wallis_closed_form(n))
