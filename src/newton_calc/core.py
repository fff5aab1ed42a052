"""Intervals, function wrappers, and numerical limits.

Nothing in this package ever partitions an interval to integrate: every
integral is the difference of two endpoint limits of an antiderivative.
This module takes each of them through one entry, endpoint_limit (F's limit
at an end of an open interval, from inside it), and one kernel,
_stalled_limit, with one schedule and one stall rule.  A limit at an
infinite end is endpoint_limit on a ray or on the whole line.
one_sided_limit, the limit at a finite point from one side, is
endpoint_limit at the finite end of a ray; it stays because
builder.ray_integral takes g(1), its integrand's limit at t = 1-, through
it, and perfbench/spans.py counts limit steps there.  A finite end is
approached at offsets 0.1 / 4**k (from at most half the interval's length,
so no point leaves it; Hake's truncations from half of it); an infinite one
is the same one-sided limit at t = 1- of G(t) = F(base +- s t / (1 - t)),
s = max(1, |base|), so a ray has no schedule of its own.  A limit counts
as found only after three consecutive steps move the Richardson
extrapolate by no more than the stall tolerance (a single small delta is
too easy to hit by accident on an oscillating function).  Near an endpoint
of large magnitude, where the points are rounded to a coarse grid, the
extrapolate uses the actual offsets, so smooth limits are found up to
|endpoint| of about 1e10; on a ray every x moves off the base, and an x
that overflows ends the limit in NonConvergent.

Every other evaluation of an integrand passes one guard, _guarded, or
its scalar loop _evaluated (RealFunction.many and .at,
BivariateFunction.grid): a value that raises an ArithmeticError or
ValueError or is not finite, or a vector twin's value of another shape
than the points', is an EvaluationFailure naming the integrand's label
and the first failing point.  Both integrand wrappers live here beside
the guard, so the function registry, which only holds integrands, loads
no integration code.

All arithmetic is binary64.  Every operation here is pure given pure
inputs, so concurrent use needs no locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Union

import numpy as np

__all__ = [
    "NewtonCalcError",
    "NonConvergent",
    "EvaluationFailure",
    "DecayViolation",
    "Interval",
    "RealFunction",
    "real_function",
    "BivariateFunction",
    "LimitConfig",
    "LimitResult",
    "DEFAULT_LIMIT_CONFIG",
    "PRECISE_LIMIT_CONFIG",
    "endpoint_limit",
    "one_sided_limit",
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
    """A function failed (raised, or was not finite) at a point."""


class DecayViolation(NewtonCalcError):
    """A sampled decay hypothesis (|terms| bounded by the stated envelope) failed."""


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """An open interval (a, b), a < b, with float endpoints.

    Either endpoint may be infinite: IEEE floats already order
    -inf < finite < +inf.  NaN is rejected.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if math.isnan(self.a) or math.isnan(self.b):
            raise ValueError("interval endpoints cannot be NaN")
        if not self.a < self.b:
            raise ValueError(f"interval endpoints must satisfy a < b, got "
                             f"({self.a}, {self.b})")

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.a) and math.isfinite(self.b)

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
    a, b = iv
    return Interval(a, b)


# ---------------------------------------------------------------------------
# function wrapper
# ---------------------------------------------------------------------------

def _evaluated(fn: Callable[..., float], points: list, label: str,
               at: Callable[[int], str]) -> List[float]:
    """fn(*p) for each p in points, in order, under the guard."""
    out = []
    for k, p in enumerate(points):
        try:
            val = float(fn(*p))
        except (ArithmeticError, ValueError) as exc:
            raise EvaluationFailure(f"{label or '<unnamed>'} raised {exc!r} "
                                    f"at {at(k)}") from exc
        if not math.isfinite(val):
            raise EvaluationFailure(f"{label or '<unnamed>'} returned "
                                    f"{val!r} at {at(k)}")
        out.append(val)
    return out


def _guarded(fn: Callable[..., float], twin: Optional[Callable[..., object]],
             points: tuple, shape: tuple, label: str,
             at: Callable[[int], str]) -> np.ndarray:
    """fn at the points (arrays broadcast to shape) under the guard: one by
    one in C order, else twin(*points) at once, whose value must have that
    shape.  A twin that raises is reported at fn's first failing point,
    else as failing in the twin only; at(i) names the i-th point."""
    if twin is None:
        columns = [p.ravel().tolist() for p in np.broadcast_arrays(*points)]
        return np.array(_evaluated(fn, list(zip(*columns)), label, at),
                        dtype=float).reshape(shape)
    try:
        with np.errstate(all="ignore"):
            values = np.asarray(twin(*points), dtype=float)
    except (ArithmeticError, ValueError) as exc:
        _guarded(fn, None, points, shape, label, at)
        raise EvaluationFailure(f"{label or '<unnamed>'} raised {exc!r} in "
                                f"its vector twin only") from exc
    if values.shape != shape:
        raise EvaluationFailure(f"{label or '<unnamed>'} returned shape "
                                f"{values.shape} from its vector twin at "
                                f"points of shape {shape}")
    if not np.isfinite(values).all():
        i = int(np.flatnonzero(~np.isfinite(values))[0])
        raise EvaluationFailure(f"{label or '<unnamed>'} returned "
                                f"{values.flat[i].item()!r} at {at(i)}")
    return values


@dataclass(frozen=True)
class RealFunction:
    """A pure real -> real evaluation, optionally with a vectorized twin.

    The scalar callable is the contract; ``vector_fn`` agrees with it and
    is non-finite where it raises, with the points' shape.  ``at`` and
    ``many`` evaluate under the guard (_evaluated, _guarded); the limit
    kernel checks its own plain calls.
    """

    fn: Callable[[float], float]
    label: str = ""
    vector_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, x: float) -> float:
        return float(self.fn(x))

    def at(self, x: float) -> float:
        """The scalar callable at x, under the guard."""
        return _evaluated(self.fn, [(x,)], self.label, lambda i: f"x={x!r}")[0]

    def many(self, xs: Iterable[float]) -> np.ndarray:
        arr = np.asarray(xs, dtype=float)
        return _guarded(self.fn, self.vector_fn, (arr,), arr.shape,
                        self.label, lambda i: f"x={arr.flat[i].item()!r}")


def real_function(f: Union[RealFunction, Callable[[float], float]]
                  ) -> RealFunction:
    """Coerce a bare callable into a RealFunction (idempotent)."""
    if isinstance(f, RealFunction):
        return f
    return RealFunction(f, label=getattr(f, "__name__", ""))


@dataclass(frozen=True)
class BivariateFunction:
    """A pure (x, y) -> real evaluation with an optional vectorized twin.

    vector_fn receives broadcastable arrays and must evaluate elementwise,
    to their broadcast shape.
    """

    fn: Callable[[float, float], float]
    label: str = ""
    vector_fn: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __call__(self, x: float, y: float) -> float:
        return float(self.fn(x, y))

    def grid(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """xs (rows) by ys (columns), under RealFunction.many's guard."""
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)

        def at(i: int) -> str:
            x, y = xs[i // len(ys)].item(), ys[i % len(ys)].item()
            return f"(x, y)=({x!r}, {y!r})"

        return _guarded(self.fn, self.vector_fn, (xs[:, None], ys[None, :]),
                        (len(xs), len(ys)), self.label, at)

    def section_at_x(self, x: float) -> RealFunction:
        fn, vec, at = self.fn, self.vector_fn, float(x)
        vector = None if vec is None else (
            lambda ys: vec(np.full_like(ys, at), ys))
        return RealFunction(lambda y: fn(at, y),
                            label=f"{self.label}({x}, .)", vector_fn=vector)

    def transposed(self) -> "BivariateFunction":
        fn = self.fn
        vec = self.vector_fn
        tvec = None if vec is None else (lambda xs, ys: vec(ys, xs))
        return BivariateFunction(lambda x, y: fn(y, x),
                                 label=f"{self.label}^T", vector_fn=tvec)


# ---------------------------------------------------------------------------
# limit schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitConfig:
    """Parameters of the numerical limit schedule.

    Endpoints are probed at offsets 0.1 / 4**k, finite ones in x and
    infinite ones in t = |x| / (1 + |x|), for at most 60 points.
    """

    stall_tolerance: float = 1e-10

    def __post_init__(self) -> None:
        if not self.stall_tolerance > 0.0:
            raise ValueError("stall_tolerance must be positive")


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
_MAX_STEPS = 60  # most points in one schedule

# endpoints are probed at offsets _START_OFFSET / _APPROACH_FACTOR**k
_START_OFFSET = 0.1
_APPROACH_FACTOR = 4.0

# Slack (2**-26 relative) within which the ratio of two offsets counts as
# 4.  Within it the Richardson columns divide by exactly 3 and 15, so the
# extrapolate does not depend on the rounding of the points; beyond it
# (near an endpoint of large magnitude, whose nearby points lie on a coarse
# grid) they divide by the actual offset ratios.
_RATIO_SLACK = 2.0 ** -26 * _APPROACH_FACTOR


# the offsets' divisors 4**k, exact powers of two: start / _DIVISORS[k] is
# the float start / 4.0 ** k, without a power taken at every step
_DIVISORS = tuple(_APPROACH_FACTOR ** k for k in range(_MAX_STEPS))


def _stalled_limit(fn: Callable[[float], float], endpoint: float,
                   sign: float, start: float, cfg: LimitConfig,
                   what: Callable[[], str],
                   x_of: Callable[[float], float]) -> LimitResult:
    """The limit kernel: fn's limit at ``endpoint`` from the side ``sign``.

    fn is evaluated at endpoint + sign * start / 4**k, k < 60, one
    point at a time, so the schedule is never computed past the stall.
    The stall is on two Richardson columns, the values at offset 0 of the
    lines and the quadratic through the last two and three points
    (Neville's scheme): with q the ratio of two offsets,
    R1_k = F_k + (F_k - F_(k-1)) / (q - 1) and
    R2_k = R1_k + (R1_k - R1_(k-1)) / (q - 1) with q = h_(k-2) / h_k.  They
    cancel the terms of order h and h^2 of a primitive smooth at the
    endpoint.  R2_k is a combination of three raw values with weights
    summing to 1, so it converges wherever they do.  The schedule ends,
    without a limit, at the first point equal to the endpoint or to the
    previous point: fn is never evaluated at the endpoint, and a schedule
    that stopped moving cannot fake a stall.  An error starts with what()
    and names x_of(x), where the caller's function was evaluated; both run
    only on the way to raising.

    A step is one call of fn (the caller's own callable, not a wrapper
    around it), its float() and finiteness check, and a few float
    operations on locals.  The offsets divide by a table of the exact
    powers 4**k, and sign (+1.0 or -1.0) is folded into start once, which
    rounds the same as sign * (start / 4**k).  So the points, values,
    columns, stalls, step counts and errors are those of the plain
    formulas bit for bit (tests/golden/limits.json).  A step costs about
    0.35 us besides fn on a 2-core x86_64 machine, against 0.56 us with a
    power and a wrapper call per step.
    """
    isfinite, tol, slack = math.isfinite, cfg.stall_tolerance, _RATIO_SLACK
    factor = _APPROACH_FACTOR
    step = sign * start
    h1 = v1 = r1_prev = prev = None  # last offset, value, R1 and R2
    q_prev = factor
    last_delta = math.inf
    streak = steps = 0
    for divisor in _DIVISORS:
        x = endpoint + step / divisor
        h = x - endpoint
        if h == 0.0 or h == h1:
            break
        try:
            val = float(fn(x))
        except NonConvergent as exc:
            # a ray's G ends the schedule where x overflows
            raise NonConvergent(str(exc), last_value=prev,
                                last_delta=last_delta,
                                steps_used=steps) from exc
        except (ArithmeticError, ValueError) as exc:
            raise EvaluationFailure(f"{what()}: function raised {exc!r} "
                                    f"at x={x_of(x)!r}") from exc
        if not isfinite(val):
            raise EvaluationFailure(f"{what()}: function returned {val!r} "
                                    f"at x={x_of(x)!r}")
        steps += 1
        if h1 is not None:
            q = h1 / h
            if -slack <= q - factor <= slack:
                q = factor
            r1 = val + (val - v1) / (q - 1.0)
            if r1_prev is not None:
                r2 = r1 + (r1 - r1_prev) / (q * q_prev - 1.0)
                if prev is not None:
                    last_delta = abs(r2 - prev)
                    if last_delta <= tol:
                        streak += 1
                        if streak >= _STALL_RUNS:
                            return LimitResult(r2, True, steps, last_delta)
                    else:
                        streak = 0
                prev = r2
            r1_prev, q_prev = r1, q
        h1, v1 = h, val
    raise NonConvergent(
        f"{what()}: no stall within {steps} steps "
        f"(last delta {last_delta:.3e})",
        last_value=prev, last_delta=last_delta, steps_used=steps)


def endpoint_limit(F: Union[RealFunction, Callable[[float], float]],
                   iv: Union[Interval, Sequence[float]], end: str,
                   cfg: LimitConfig = DEFAULT_LIMIT_CONFIG,
                   start: float = _START_OFFSET) -> LimitResult:
    """F's limit at the "lower" or "upper" end of the open interval iv,
    from inside iv.

    A finite end is approached at offsets start / 4**k, start first cut
    to half iv's length, then halved while the first point would not fall
    short of the other end (which it can reach on an interval a few ulps
    wide).  An infinite end is the limit at t = 1- of
    F(base +- s t / (1 - t)), base being the other end where that lies
    beyond 0 on the ray's side and 0 otherwise and s = max(1, |base|), so
    x runs base +- 9s, 39s, 159s, ... and never leaves iv or rounds onto
    base; the Richardson columns in 1 - t cancel the 1/x and 1/x**2 terms
    of tails such as arctan's.  Once t rounds to 1 (after 26 points) the
    schedule ends.  Raises NonConvergent when the deltas never stall, the
    schedule stops moving first or x overflows, and EvaluationFailure on
    NaN, overflow or an ArithmeticError/ValueError from F anywhere in the
    schedule; either message names the limit, as in "upper limit of F on
    (1.0, 2.0) at 2.0".
    """
    fn = F.fn if isinstance(F, RealFunction) else F
    iv = as_interval(iv)
    if end not in ("lower", "upper"):
        raise ValueError("end must be 'lower' or 'upper'")
    up = end == "upper"
    out, near, far = (1.0, iv.b, iv.a) if up else (-1.0, iv.a, iv.b)

    def what() -> str:
        return f"{end} limit of F on ({iv.a!r}, {iv.b!r}) at {near!r}"

    if math.isinf(near):
        base = max(far, 0.0) if up else min(far, 0.0)
        # beyond 1 the steps grow with the base, so x moves off it
        scale = out * max(1.0, abs(base))

        isfinite = math.isfinite

        def x_of(t: float) -> float:
            return base + scale * t / (1.0 - t)

        def G(t: float) -> float:
            x = base + scale * t / (1.0 - t)  # x_of(t), without the call
            if not isfinite(x):
                raise NonConvergent(f"{what()}: x={x!r} is not finite at "
                                    f"t={t!r}")
            return fn(x)

        return _stalled_limit(G, 1.0, -1.0, _START_OFFSET, cfg, what, x_of)
    start = min(start, 0.5 * iv.length)
    while out * (near - out * start - far) <= 0.0:
        start *= 0.5
    # F gets the schedule's own points: float maps each to itself
    return _stalled_limit(fn, near, -out, start, cfg, what, float)


def one_sided_limit(F: Union[RealFunction, Callable[[float], float]],
                    endpoint: float, side: str,
                    cfg: LimitConfig = DEFAULT_LIMIT_CONFIG) -> LimitResult:
    """Limit of F at a finite endpoint from the given side ("left"/"right"):
    endpoint_limit at the end of the ray (-inf, endpoint) or (endpoint,
    inf), so F is evaluated at endpoint -/+ 0.1 / 4**k."""
    if side == "left":
        return endpoint_limit(F, (-math.inf, endpoint), "upper", cfg)
    if side == "right":
        return endpoint_limit(F, (endpoint, math.inf), "lower", cfg)
    raise ValueError("side must be 'left' or 'right'")


# ---------------------------------------------------------------------------
# sampling helper shared by precondition checks
# ---------------------------------------------------------------------------

def chebyshev_samples(interval: Interval) -> np.ndarray:
    """257 Chebyshev-distributed sample points in the open interval.

    Infinite endpoints are handled by rational maps of the nodes, so the
    samples still cluster near finite endpoints and spread along rays.
    """
    iv = as_interval(interval)
    t = np.cos(np.pi * (2.0 * np.arange(257) + 1.0) / (2.0 * 257))
    if iv.is_finite:
        mid = 0.5 * (iv.a + iv.b)
        half = 0.5 * (iv.b - iv.a)
        return mid + half * t
    if math.isfinite(iv.a):      # (a, +inf)
        return iv.a + (1.0 + t) / (1.0 - t)
    if math.isfinite(iv.b):      # (-inf, b)
        return iv.b - (1.0 - t) / (1.0 + t)
    return t / (1.0 - t * t)     # whole line
