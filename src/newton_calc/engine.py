"""The Newton integral: evaluation from an antiderivative via endpoint limits.

An integrand together with one of its antiderivatives is a
:class:`PrimitivePair`; the integral over the stored open interval is
``F(hi-) - F(lo+)``, both limits taken numerically.  On top of that single
definition this module provides executable forms of the classical rules:
truncation limits (Hake), linearity and interval additivity, monotone
comparison, the ML bound, integration by parts, and the substitution rule.
Each rule is verified numerically and reported, never proven.

Precondition checks (antiderivative consistency, pointwise order, range of
a substitution) are sampled at Chebyshev-distributed points.  They detect
misuse; they are not certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Tuple, Union

import numpy as np

from .builder import PiecewisePrimitive
from .core import (DEFAULT_LIMIT_CONFIG, Interval, LimitConfig, LimitResult,
                   NewtonCalcError, RealFunction, _START_OFFSET, _approach,
                   _stalled_limit, as_interval, chebyshev_samples,
                   limit_at_infinity, real_function)

__all__ = [
    "PrimitivePair",
    "IntegralResult",
    "IdentityReport",
    "DomainMismatch",
    "SplitPointOutsideInterval",
    "PointwiseOrderViolated",
    "InfiniteInterval",
    "RangeViolation",
    "PrimitiveMismatch",
    "newton_integral",
    "hake_check",
    "linear_combine",
    "split_additive",
    "monotone_compare",
    "ml_bound_check",
    "integrate_by_parts",
    "substitute",
    "pair_from_primitive",
    "primitive_spot_check",
]


class DomainMismatch(NewtonCalcError):
    """Two pairs that must share a domain do not."""


class SplitPointOutsideInterval(NewtonCalcError):
    """The additivity split point is not interior to the domain."""


class PointwiseOrderViolated(NewtonCalcError):
    """A sampled pointwise inequality between integrands failed."""


class InfiniteInterval(NewtonCalcError):
    """The ML bound is stated for finite intervals only."""


class RangeViolation(NewtonCalcError):
    """A sampled substitution value left the target domain."""


class PrimitiveMismatch(NewtonCalcError):
    """Finite differences of a claimed antiderivative disagree grossly
    with the integrand (misuse signal, not a precision statement)."""


# tolerance of every identity report; a ray's limit is taken by the same
# kernel as a finite endpoint's, so infinite domains need no more slack
IDENTITY_TOLERANCE = 1e-8


@dataclass(frozen=True)
class PrimitivePair:
    """An integrand f with an antiderivative F on an open interval.

    F must satisfy F' = f on the interior; :func:`primitive_spot_check`
    samples that relation by central differences.
    """

    integrand: RealFunction
    primitive: RealFunction
    domain: Interval

    def __post_init__(self) -> None:
        object.__setattr__(self, "integrand", real_function(self.integrand))
        object.__setattr__(self, "primitive", real_function(self.primitive))
        object.__setattr__(self, "domain", as_interval(self.domain))

    def restricted(self, lo: float, hi: float) -> "PrimitivePair":
        return PrimitivePair(self.integrand, self.primitive, Interval(lo, hi))


def pair_from_primitive(P: PiecewisePrimitive,
                        f: Union[RealFunction, Callable[[float], float]]
                        ) -> PrimitivePair:
    """Wrap a built piecewise antiderivative as a PrimitivePair."""
    f = real_function(f)
    a, b = P.domain
    F = RealFunction(P.evaluate, label=f"antiderivative of {f.label}",
                     vector_fn=P.many)
    return PrimitivePair(f, F, Interval(a, b))


@dataclass(frozen=True)
class IntegralResult:
    """Value of a Newton integral plus the endpoint limit diagnostics.

    For the forward orientation value = upper_limit.value - lower_limit.value;
    a reversed request negates that number (it is never re-evaluated).
    """

    value: float
    lower_limit: LimitResult
    upper_limit: LimitResult
    reversed_orientation: bool = False


@dataclass(frozen=True)
class IdentityReport:
    """A verified numerical identity: two sides, a residual, a verdict.

    For equalities residual = |lhs - rhs|.  For one-sided checks residual
    is the violation distance (zero when the inequality holds), so the
    invariant ``holds iff residual <= tolerance`` is preserved.
    """

    lhs: float
    rhs: float
    residual: float
    tolerance: float
    holds: bool

    @classmethod
    def equality(cls, lhs: float, rhs: float, tolerance: float) -> "IdentityReport":
        residual = abs(lhs - rhs)
        return cls(lhs, rhs, residual, tolerance, residual <= tolerance)

    @classmethod
    def upper_bound(cls, lhs: float, rhs: float, tolerance: float) -> "IdentityReport":
        """holds iff lhs <= rhs + tolerance."""
        residual = max(0.0, lhs - rhs)
        return cls(lhs, rhs, residual, tolerance, residual <= tolerance)

    @classmethod
    def within(cls, value: float, lo: float, hi: float,
               tolerance: float) -> "IdentityReport":
        """holds iff value lies in [lo - tolerance, hi + tolerance];
        rhs is the nearest point of the window."""
        nearest = min(max(value, lo), hi)
        residual = abs(value - nearest)
        return cls(value, nearest, residual, tolerance, residual <= tolerance)


# ---------------------------------------------------------------------------
# the integral itself
# ---------------------------------------------------------------------------

def _endpoint_limit(F: RealFunction, iv: Interval, which: str,
                    cfg: LimitConfig) -> LimitResult:
    """F's limit at iv's lower or upper end, from inside iv: a finite
    end's schedule starts at most half iv's length away, and a ray's runs
    outward from the other end, or from 0 when that end lies beyond it."""
    start = min(_START_OFFSET, 0.5 * iv.length)
    if which == "lower":
        if math.isinf(iv.a):
            base = min(iv.b, 0.0)
            return limit_at_infinity(lambda x: F(base + x), "neg", cfg)
        return _approach(F, iv.a, 1.0, cfg,
                         f"one_sided_limit at {iv.a!r} (right)", start)
    if math.isinf(iv.b):
        base = max(iv.a, 0.0)
        return limit_at_infinity(lambda x: F(base + x), "pos", cfg)
    return _approach(F, iv.b, -1.0, cfg,
                     f"one_sided_limit at {iv.b!r} (left)", start)


def newton_integral(pair: PrimitivePair,
                    cfg: LimitConfig = DEFAULT_LIMIT_CONFIG,
                    reverse: bool = False) -> IntegralResult:
    """Evaluate F(hi-) - F(lo+) for the stored interval.

    ``reverse=True`` asks for the opposite orientation; the value is the
    exact negation of the forward value.  A NonConvergent endpoint limit
    means the integral is undefined for this antiderivative and schedule.
    """
    lower = _endpoint_limit(pair.primitive, pair.domain, "lower", cfg)
    upper = _endpoint_limit(pair.primitive, pair.domain, "upper", cfg)
    value = upper.value - lower.value
    if reverse:
        value = -value
    return IntegralResult(value=value, lower_limit=lower, upper_limit=upper,
                          reversed_orientation=reverse)


def hake_check(pair: PrimitivePair, cfg: LimitConfig = DEFAULT_LIMIT_CONFIG,
               truncation_schedule: Optional[Iterable[float]] = None
               ) -> IdentityReport:
    """Full-interval integral versus the limit of truncated integrals.

    The truncation points must increase toward the upper endpoint.  Each
    truncated integral is F(c) - F(lo+) (F is continuous at interior c, and
    F(lo+) is the full integral's lower limit); the limit kernel stalls on
    them and never evaluates points past the stall.  On the default
    schedule toward a finite upper endpoint b, b - (b - a) / 2**k, the
    stall is on the ratio-2 extrapolates to b, as at any finite endpoint
    (about 15 steps where the raw values take about 36).  Toward +inf the
    default truncations are max(a, 0) + x along limit_at_infinity's ray.
    A caller-supplied schedule stays on the raw values.
    """
    full = newton_integral(pair, cfg)
    a, b = pair.domain

    def truncated(c: float) -> float:
        if not pair.domain.contains(c):
            raise SplitPointOutsideInterval(
                f"truncation point {c!r} not interior to the domain")
        return pair.primitive(c) - full.lower_limit.value

    what = "hake_check: truncated integrals"
    if truncation_schedule is not None:
        rhs = _stalled_limit(map(float, truncation_schedule),
                             RealFunction(truncated), cfg, what)
    elif math.isinf(b):
        rhs = limit_at_infinity(lambda x: truncated(max(a, 0.0) + x), "pos",
                                cfg)
    else:
        rhs = _stalled_limit((b - (b - a) / 2.0 ** k
                              for k in range(1, cfg.max_steps)),
                             RealFunction(truncated), cfg, what, b, 2.0)
    return IdentityReport.equality(full.value, rhs.value, IDENTITY_TOLERANCE)


# ---------------------------------------------------------------------------
# linearity, additivity, order
# ---------------------------------------------------------------------------

def _combine(alpha: float, f: RealFunction, beta: float,
             g: RealFunction, label: str) -> RealFunction:
    def scalar(x: float) -> float:
        return alpha * f(x) + beta * g(x)

    def vector(xs: np.ndarray) -> np.ndarray:
        return alpha * f.many(xs) + beta * g.many(xs)

    return RealFunction(scalar, label=label, vector_fn=vector)


def linear_combine(p: PrimitivePair, q: PrimitivePair,
                   alpha: float, beta: float) -> PrimitivePair:
    """The pair (alpha*f + beta*g, alpha*F + beta*G) on the common domain."""
    if p.domain != q.domain:
        raise DomainMismatch(
            f"domains differ: ({p.domain.a}, {p.domain.b}) vs "
            f"({q.domain.a}, {q.domain.b})")
    return PrimitivePair(
        _combine(alpha, p.integrand, beta, q.integrand,
                 f"{alpha}*{p.integrand.label}+{beta}*{q.integrand.label}"),
        _combine(alpha, p.primitive, beta, q.primitive,
                 f"{alpha}*{p.primitive.label}+{beta}*{q.primitive.label}"),
        p.domain)


def split_additive(pair: PrimitivePair, c: float,
                   cfg: LimitConfig = DEFAULT_LIMIT_CONFIG
                   ) -> Tuple[IntegralResult, IntegralResult, IdentityReport]:
    """Integrals over (lo, c) and (c, hi) plus a sum-equals-whole report."""
    if not pair.domain.contains(c):
        raise SplitPointOutsideInterval(
            f"split point {c!r} outside ({pair.domain.a}, {pair.domain.b})")
    left = newton_integral(pair.restricted(pair.domain.a, c), cfg)
    right = newton_integral(pair.restricted(c, pair.domain.b), cfg)
    whole = newton_integral(pair, cfg)
    report = IdentityReport.equality(left.value + right.value, whole.value,
                                     IDENTITY_TOLERANCE)
    return left, right, report


def monotone_compare(p: PrimitivePair, q: PrimitivePair) -> IdentityReport:
    """Check integral monotonicity for sampled-pointwise f <= g.

    Raises PointwiseOrderViolated if any sample has f(x) > g(x) (beyond a
    float-noise allowance); that is a misuse of the rule, not a failure
    of it.
    """
    if p.domain != q.domain:
        raise DomainMismatch("monotone_compare needs a common domain")
    xs = chebyshev_samples(p.domain)
    fv = p.integrand.many(xs)
    gv = q.integrand.many(xs)
    slack = 1e-12 * np.maximum(1.0, np.abs(gv))
    bad = np.flatnonzero(fv > gv + slack)
    if bad.size:
        i = int(bad[0])
        raise PointwiseOrderViolated(
            f"f({xs[i]!r}) = {fv[i]!r} > g({xs[i]!r}) = {gv[i]!r}")
    lhs = newton_integral(p).value
    rhs = newton_integral(q).value
    return IdentityReport.upper_bound(lhs, rhs, IDENTITY_TOLERANCE)


def ml_bound_check(pair: PrimitivePair, bound: float,
                   side: str = "upper") -> IdentityReport:
    """Integral versus bound * (b - a) on a finite interval."""
    if side not in ("upper", "lower"):
        raise ValueError("side must be 'upper' or 'lower'")
    if not pair.domain.is_finite:
        raise InfiniteInterval("the ML bound needs finite endpoints")
    xs = chebyshev_samples(pair.domain)
    fv = pair.integrand.many(xs)
    slack = 1e-12 * max(1.0, abs(bound))
    if side == "upper" and np.any(fv > bound + slack):
        raise PointwiseOrderViolated("sampled integrand exceeds the bound")
    if side == "lower" and np.any(fv < bound - slack):
        raise PointwiseOrderViolated("sampled integrand drops below the bound")
    value = newton_integral(pair).value
    cap = bound * pair.domain.length
    if side == "upper":
        return IdentityReport.upper_bound(value, cap, IDENTITY_TOLERANCE)
    return IdentityReport.upper_bound(cap, value, IDENTITY_TOLERANCE)


# ---------------------------------------------------------------------------
# by parts and substitution
# ---------------------------------------------------------------------------

def primitive_spot_check(pair: PrimitivePair) -> float:
    """Max scaled discrepancy between finite differences of F and f.

    Samples Chebyshev points of the domain (rationally mapped for rays).
    Returns the worst scaled error; raises PrimitiveMismatch when it
    exceeds 1e-4, i.e. the claimed antiderivative is grossly inconsistent
    with the integrand.
    """
    xs = chebyshev_samples(pair.domain)
    h = 1e-6 * np.maximum(1.0, np.abs(xs))
    inside = (xs - h > pair.domain.a) & (xs + h < pair.domain.b)
    xs, h = xs[inside], h[inside]
    fd = (pair.primitive.many(xs + h) - pair.primitive.many(xs - h)) / (2.0 * h)
    fv = pair.integrand.many(xs)
    Fv = pair.primitive.many(xs)
    scale = np.maximum(1.0, np.maximum(np.abs(fv),
                                       np.abs(Fv) / np.maximum(1.0, np.abs(xs))))
    worst = float(np.max(np.abs(fd - fv) / scale))
    if worst > 1e-4:
        raise PrimitiveMismatch(
            f"finite differences of {pair.primitive.label or 'F'} disagree "
            f"with {pair.integrand.label or 'f'} (scaled error {worst:.3e})")
    return worst


def integrate_by_parts(F: Union[RealFunction, Callable[[float], float]],
                       f: Union[RealFunction, Callable[[float], float]],
                       G: Union[RealFunction, Callable[[float], float]],
                       g: Union[RealFunction, Callable[[float], float]],
                       domain: Union[Interval, Tuple[float, float]],
                       fG_primitive: Union[RealFunction, Callable[[float], float]],
                       Fg_primitive: Union[RealFunction, Callable[[float], float]],
                       cfg: LimitConfig = DEFAULT_LIMIT_CONFIG) -> IdentityReport:
    """Verify  int f*G = [F*G] - int F*g  on the domain.

    F' = f and G' = g are finite-difference spot-checked first.
    The boundary term [F*G] uses the same endpoint-limit machinery as any
    integral, so a non-convergent boundary propagates.
    """
    F, f = real_function(F), real_function(f)
    G, g = real_function(G), real_function(g)
    iv = as_interval(domain)

    primitive_spot_check(PrimitivePair(f, F, iv))
    primitive_spot_check(PrimitivePair(g, G, iv))

    def fG(x: float) -> float:
        return f(x) * G(x)

    def Fg(x: float) -> float:
        return F(x) * g(x)

    def FG(x: float) -> float:
        return F(x) * G(x)

    lhs = newton_integral(PrimitivePair(RealFunction(fG), fG_primitive, iv),
                          cfg).value
    boundary_hi = _endpoint_limit(RealFunction(FG), iv, "upper", cfg)
    boundary_lo = _endpoint_limit(RealFunction(FG), iv, "lower", cfg)
    rhs_integral = newton_integral(
        PrimitivePair(RealFunction(Fg), Fg_primitive, iv), cfg).value
    rhs = (boundary_hi.value - boundary_lo.value) - rhs_integral
    return IdentityReport.equality(lhs, rhs, IDENTITY_TOLERANCE)


def substitute(pair: PrimitivePair,
               g: Union[RealFunction, Callable[[float], float]],
               g_prime: Union[RealFunction, Callable[[float], float]],
               source: Union[Interval, Tuple[float, float]],
               flipped: bool = False,
               cfg: LimitConfig = DEFAULT_LIMIT_CONFIG) -> IdentityReport:
    """Verify the substitution rule  int_source (f o g) g' = int f.

    The source integral is evaluated through the antiderivative F o g; a
    finite-difference spot check confirms (F o g)' matches (f o g) g' at
    sampled points, which is where a wrong g' gets caught.  With
    ``flipped=True`` the substitution reverses orientation and the right
    side is negated, which reproduces the same formula.
    """
    g = real_function(g)
    g_prime = real_function(g_prime)
    src = as_interval(source)

    xs = chebyshev_samples(src)
    gx = g.many(xs)
    margin = 1e-9
    if np.any(gx < pair.domain.a - margin) or np.any(gx > pair.domain.b + margin):
        raise RangeViolation("sampled g values leave the target domain")

    f, F = pair.integrand, pair.primitive

    def pushed_integrand(x: float) -> float:
        return f(g(x)) * g_prime(x)

    def pushed_primitive(x: float) -> float:
        return F(g(x))

    pushed = PrimitivePair(RealFunction(pushed_integrand),
                           RealFunction(pushed_primitive), src)
    primitive_spot_check(pushed)

    lhs = newton_integral(pushed, cfg).value
    rhs = newton_integral(pair, cfg).value
    if flipped:
        rhs = -rhs
    return IdentityReport.equality(lhs, rhs, IDENTITY_TOLERANCE)
