"""Intervals, function wrappers, and numerical limits.

Nothing in this package ever partitions an interval to integrate: every
integral is the difference of two endpoint limits of an antiderivative.
This module supplies those limits, all from one kernel.  A finite
endpoint c is approached at offsets 0.1 / 4**k (in an integral, from at
most half the interval's length, so no point leaves it); an infinite one
is the same one-sided limit at t = 1- of G(t) = F(+-t / (1 - t)), the
substitution rule applied to the limit, so a ray has no schedule of its
own.  A limit counts as found only after three consecutive steps move
the value by no more than the stall tolerance (a single small delta is
too easy to hit by accident on an oscillating function).  The stall is
on two Richardson columns of the values.  The columns assume the offsets
shrink by the schedule's ratio; near an endpoint of large magnitude,
where the points are rounded to a coarse grid, they use the actual
offsets instead, so smooth limits are found up to |endpoint| of about
1e10.  Schedules are drawn one point at a time and end, without a limit,
where their points stop moving, so F is never evaluated at the endpoint
itself (on a ray: every x is finite, at most about 9e15).

All arithmetic is binary64.  Every operation here is pure given pure
inputs, so concurrent use needs no locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "NewtonCalcError",
    "NonConvergent",
    "EvaluationFailure",
    "DecayViolation",
    "Interval",
    "RealFunction",
    "real_function",
    "LimitConfig",
    "LimitResult",
    "DEFAULT_LIMIT_CONFIG",
    "PRECISE_LIMIT_CONFIG",
    "one_sided_limit",
    "limit_at_infinity",
    "chebyshev_samples",
]


class NewtonCalcError(Exception):
    """Base class for every error this package raises deliberately."""


class NonConvergent(NewtonCalcError):
    """A limit schedule ran out of steps before the values stalled.

    Either the limit does not exist (the integral is undefined) or the
    schedule is unsuitable for this function.
    """

    def __init__(self, message: str, last_value: Optional[float] = None,
                 last_delta: float = math.inf, steps_used: int = 0):
        super().__init__(message)
        self.last_value = last_value
        self.last_delta = last_delta
        self.steps_used = steps_used


class EvaluationFailure(NewtonCalcError):
    """A function returned NaN or an infinity where a finite value was required."""


class DecayViolation(NewtonCalcError):
    """A sampled decay hypothesis (|terms| bounded by the stated envelope) failed."""


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """An open interval (lo, hi), lo < hi, with float endpoints.

    Either endpoint may be infinite: IEEE floats already order
    -inf < finite < +inf.  NaN is rejected.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints cannot be NaN")
        if not self.lo < self.hi:
            raise ValueError(f"interval endpoints must satisfy lo < hi, got "
                             f"({self.lo}, {self.hi})")

    @property
    def a(self) -> float:
        return self.lo

    @property
    def b(self) -> float:
        return self.hi

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    @property
    def length(self) -> float:
        return self.b - self.a

    def contains(self, x: float) -> bool:
        return self.a < x < self.b

    def __iter__(self):
        yield self.a
        yield self.b


def as_interval(iv: Union[Interval, Sequence[float]]) -> Interval:
    if isinstance(iv, Interval):
        return iv
    lo, hi = iv
    return Interval(lo, hi)


# ---------------------------------------------------------------------------
# function wrapper
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealFunction:
    """A pure real -> real evaluation, optionally with a vectorized twin.

    The scalar callable is the contract; ``vector_fn`` is a performance
    hint used by the mesh-based code when it needs many values at once.
    Both must agree pointwise.
    """

    fn: Callable[[float], float]
    label: str = ""
    vector_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, x: float) -> float:
        return float(self.fn(x))

    def many(self, xs: Iterable[float]) -> np.ndarray:
        arr = np.asarray(xs, dtype=float)
        if self.vector_fn is not None:
            with np.errstate(all="ignore"):
                return np.asarray(self.vector_fn(arr), dtype=float)
        return np.array([self.fn(float(x)) for x in arr.ravel()],
                        dtype=float).reshape(arr.shape)


def real_function(f: Union[RealFunction, Callable[[float], float]]
                  ) -> RealFunction:
    """Coerce a bare callable into a RealFunction (idempotent)."""
    if isinstance(f, RealFunction):
        return f
    return RealFunction(f, label=getattr(f, "__name__", ""))


# ---------------------------------------------------------------------------
# limit schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitConfig:
    """Parameters of the numerical limit schedule.

    Endpoints are probed at offsets 0.1 / 4**k, finite ones in x and
    infinite ones in t = |x| / (1 + |x|), for at most max_steps points.
    """

    stall_tolerance: float = 1e-10
    max_steps: int = 60

    def __post_init__(self) -> None:
        if not self.stall_tolerance > 0.0:
            raise ValueError("stall_tolerance must be positive")
        if self.max_steps < 3:
            raise ValueError("max_steps must be at least 3")


DEFAULT_LIMIT_CONFIG = LimitConfig()

# Used where a limit of a function continuous at the endpoint must be
# reproduced to near machine precision (the default stall tolerance leaves
# an offset of order 1e-12 at the stall point, which is too coarse there).
PRECISE_LIMIT_CONFIG = LimitConfig(stall_tolerance=1e-14)


@dataclass(frozen=True)
class LimitResult:
    """Outcome of a stalled limit: the value and how it was reached."""

    value: float
    converged: bool
    steps_used: int
    last_delta: float


_STALL_RUNS = 3  # consecutive small deltas required before convergence

# endpoints are probed at offsets _START_OFFSET / _APPROACH_FACTOR**k
_START_OFFSET = 0.1
_APPROACH_FACTOR = 4.0

# Relative slack within which the ratio of two offsets counts as ``ratio``.
# Within it the Richardson columns divide by exactly ratio - 1 and
# ratio**2 - 1, so the extrapolate does not depend on the rounding of the
# points; beyond it (near an endpoint of large magnitude, whose nearby
# points lie on a coarse grid) they divide by the actual offset ratios.
_RATIO_SLACK = 2.0 ** -26


def _stalled_limit(points: Iterable[float], F: RealFunction,
                   cfg: LimitConfig, what: str,
                   endpoint: Optional[float] = None,
                   ratio: float = 0.0) -> LimitResult:
    """Evaluate F along ``points`` until the stall rule holds.

    Points are drawn one at a time, so a schedule is never computed past
    the stall.  Without ``endpoint`` (only for a caller-supplied hake_check
    truncation schedule) the stall is on the raw values.  With
    it (the points approach that finite endpoint at offsets shrinking by
    ``ratio``) the stall is on two Richardson columns, the values at
    offset 0 of the lines and the quadratic through the last two and
    three points (Neville's scheme): with q the ratio of two offsets,
    R1_k = F_k + (F_k - F_(k-1)) / (q - 1) and
    R2_k = R1_k + (R1_k - R1_(k-1)) / (q - 1) with q = h_(k-2) / h_k.  They
    cancel the terms of order h and h^2 of a primitive smooth at the
    endpoint.  R2_k is a combination of three raw values with weights
    summing to 1, so it converges wherever they do.  Such a schedule
    ends, without a limit, at the first point equal to the endpoint or to
    the previous point: F is never evaluated at the endpoint, and a
    schedule that stopped moving cannot fake a stall.
    """
    prev: Optional[float] = None
    last_delta = math.inf
    streak = 0
    steps = 0
    h1 = v1 = r1_prev = None  # previous offset, raw value and R1
    q_prev = ratio
    slack = _RATIO_SLACK * ratio
    for x in points:
        if endpoint is not None:
            h = x - endpoint
            if h == 0.0 or h == h1:
                break
        steps += 1
        try:
            val = F(x)
        except (ArithmeticError, ValueError) as exc:
            raise EvaluationFailure(
                f"{what}: function raised {exc!r} at x={x!r}") from exc
        if math.isnan(val) or math.isinf(val):
            raise EvaluationFailure(
                f"{what}: function returned {val!r} at x={x!r}")
        if endpoint is not None:
            if h1 is None:
                h1, v1 = h, val
                continue
            q = h1 / h
            if abs(q - ratio) <= slack:
                q = ratio
            r1 = val + (val - v1) / (q - 1.0)
            r2 = None if r1_prev is None else \
                r1 + (r1 - r1_prev) / (q * q_prev - 1.0)
            h1, v1, r1_prev, q_prev = h, val, r1, q
            if r2 is None:
                continue
            val = r2
        if prev is not None:
            last_delta = abs(val - prev)
            if last_delta <= cfg.stall_tolerance:
                streak += 1
                if streak >= _STALL_RUNS:
                    return LimitResult(value=val, converged=True,
                                       steps_used=steps, last_delta=last_delta)
            else:
                streak = 0
        prev = val
    raise NonConvergent(
        f"{what}: no stall within {steps} steps "
        f"(last delta {last_delta:.3e})",
        last_value=prev, last_delta=last_delta, steps_used=steps)


def _approach(F: Callable[[float], float], endpoint: float, sign: float,
              cfg: LimitConfig, what: str, start: float) -> LimitResult:
    """_stalled_limit along endpoint + sign * start / 4**k, k < max_steps."""
    points = (endpoint + sign * (start / _APPROACH_FACTOR ** k)
              for k in range(cfg.max_steps))
    return _stalled_limit(points, F, cfg, what, endpoint, _APPROACH_FACTOR)


def one_sided_limit(F: Union[RealFunction, Callable[[float], float]],
                    endpoint: float, side: str,
                    cfg: LimitConfig = DEFAULT_LIMIT_CONFIG) -> LimitResult:
    """Limit of F at a finite endpoint from the given side ("left"/"right").

    Evaluates F at endpoint -/+ 0.1 / 4**k and reports the stabilized
    Richardson extrapolate of those values.  Raises NonConvergent when the
    deltas never stall or the schedule reaches the endpoint first, and
    EvaluationFailure on NaN, overflow or an ArithmeticError/ValueError
    from F anywhere in the schedule (such points are never silently
    skipped).
    """
    F = real_function(F)
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    return _approach(F, endpoint, -1.0 if side == "left" else 1.0, cfg,
                     f"one_sided_limit at {endpoint!r} ({side})",
                     _START_OFFSET)


def limit_at_infinity(F: Union[RealFunction, Callable[[float], float]],
                      sign: str,
                      cfg: LimitConfig = DEFAULT_LIMIT_CONFIG) -> LimitResult:
    """Limit of F along the ray toward +inf ("pos") or -inf ("neg").

    The ray is the substitution x = +-t / (1 - t): its limit is the
    one-sided limit at t = 1- of G(t) = F(+-t / (1 - t)), taken by the
    finite-endpoint kernel with its schedule, stall rule and errors.  So
    x runs 9, 39, 159, ..., about 4x per step, and the Richardson columns
    in the offset 1 - t = 1 / (1 + |x|) cancel the terms of order 1/x and
    1/x**2 of tails such as arctan's.  1 - t is exact (t >= 1/2), so
    every evaluated x is finite; once t rounds to 1 (|x| about 9e15,
    after 26 points) the schedule ends, and a ray without a limit raises
    NonConvergent there.
    """
    F = real_function(F)
    if sign not in ("pos", "neg"):
        raise ValueError("sign must be 'pos' or 'neg'")
    s = 1.0 if sign == "pos" else -1.0

    def G(t: float) -> float:
        return F(s * t / (1.0 - t))

    return _approach(G, 1.0, -1.0, cfg,
                     f"limit_at_infinity ({sign}) as x -> 1- in "
                     f"F({'' if sign == 'pos' else '-'}x / (1 - x))",
                     _START_OFFSET)


# ---------------------------------------------------------------------------
# sampling helper shared by precondition checks
# ---------------------------------------------------------------------------

def chebyshev_samples(interval: Interval, count: int = 257) -> np.ndarray:
    """Chebyshev-distributed sample points in the open interval.

    Infinite endpoints are handled by rational maps of the nodes, so the
    samples still cluster near finite endpoints and spread along rays.
    """
    iv = as_interval(interval)
    t = np.cos(np.pi * (2.0 * np.arange(count) + 1.0) / (2.0 * count))
    if iv.is_finite:
        mid = 0.5 * (iv.a + iv.b)
        half = 0.5 * (iv.b - iv.a)
        return mid + half * t
    if math.isfinite(iv.a):      # (a, +inf)
        return iv.a + (1.0 + t) / (1.0 - t)
    if math.isfinite(iv.b):      # (-inf, b)
        return iv.b - (1.0 - t) / (1.0 + t)
    return t / (1.0 - t * t)     # whole line
