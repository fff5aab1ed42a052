"""Constructive antiderivatives on compact intervals, and integrals on rays.

The construction mirrors the classical limit argument: interpolate the
integrand continuously on a uniform mesh, integrate the interpolant piece by
piece, and choose the integration constants left to right so that values
patch continuously (matching one-sided derivatives then give a two-sided
derivative at each breakpoint).  Each piece spans two mesh intervals, and
its interpolant is the quadratic ``c*t**2 + u*t + v`` through the piece's
three nodes, with ``t = x - a``; its antiderivative is the cubic
``(c/3)*t**3 + (u/2)*t**2 + v*t + w``.  The interpolant is continuous, so
the primitive is C^1.  The mesh is refined dyadically and refinement stops
once two consecutive levels agree on a probe grid, a practical stand-in for
the uniform Cauchy bound ``|F_m(x) - F_n(x)| <= (x - a) * sup|f_m - f_n|``.
With quadratic pieces that gap shrinks about 16x per level on smooth
integrands (4x with linear pieces).

The refinement kernel (``_dyadic_levels``) and the mesh stall rule
(``_stalled``) are shared with ``fubini``'s inner integrals.

The result is normalised to vanish exactly at the left endpoint.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence, Tuple, Union

import numpy as np

from .core import (EvaluationFailure, Interval, NewtonCalcError, RealFunction,
                   as_interval, one_sided_limit, real_function)

__all__ = [
    "BuildConfig",
    "PiecewisePrimitive",
    "RefinementExhausted",
    "OutOfDomain",
    "build_primitive",
    "ray_integral",
    "derivative_check",
    "to_json_dict",
    "from_json_dict",
    "dumps",
    "loads",
]

SERIALIZATION_VERSION = 2


class RefinementExhausted(NewtonCalcError):
    """The Cauchy criterion was not met within the refinement budget.

    The integrand is too rough (or the tolerance too ambitious) for the
    allowed mesh size.
    """


class OutOfDomain(NewtonCalcError):
    """Evaluation was requested outside the interval the primitive covers."""


@dataclass(frozen=True)
class BuildConfig:
    """Stopping parameters for the dyadic refinement.

    target_uniform_gap is measured per unit of interval length: refinement
    stops when the probe-grid gap between consecutive levels is at most
    target_uniform_gap * (b - a) for two levels in a row (one small gap is
    too easy to hit by accident when the coarse mesh has not seen a
    feature yet, which is also why refinement never stops before
    min_refinement).  max_refinement=22 caps the mesh at about 4M pieces.
    """

    target_uniform_gap: float = 1e-8
    max_refinement: int = 22
    probe_grid: int = 257
    min_refinement: int = 4

    def __post_init__(self) -> None:
        if not self.target_uniform_gap > 0.0:
            raise ValueError("target_uniform_gap must be positive")
        if self.max_refinement < 1:
            raise ValueError("max_refinement must be at least 1")
        if self.probe_grid < 2:
            raise ValueError("probe_grid must be at least 2")
        if not 1 <= self.min_refinement <= self.max_refinement:
            raise ValueError("need 1 <= min_refinement <= max_refinement")


DEFAULT_BUILD_CONFIG = BuildConfig()


@dataclass(frozen=True, eq=False)
class PiecewisePrimitive:
    """A C^1 piecewise-cubic antiderivative on [a, b], zero at a.

    Piece i covers [breakpoints[i], breakpoints[i+1]] and, with
    ``t = x - base_point``, evaluates to
    ``((third_c[i]*t + half_u[i])*t + v[i])*t + w[i]``.  Its derivative is
    the piecewise-quadratic interpolant of the integrand on the final mesh:
    on each piece, the quadratic through its two ends and its midpoint (at
    level 0, the chord).  Coefficients in ``t`` rather than ``x`` keep the
    cubic well conditioned on intervals far from the origin.
    """

    breakpoints: np.ndarray
    third_c: np.ndarray
    half_u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    base_point: float
    refinement_level: int
    cauchy_delta: float
    gap_history: Tuple[float, ...] = ()

    @property
    def piece_count(self) -> int:
        return len(self.half_u)

    @property
    def domain(self) -> Tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    def _piece_index(self, x: float) -> int:
        i = int(np.searchsorted(self.breakpoints, x, side="right")) - 1
        return min(max(i, 0), self.piece_count - 1)

    def evaluate(self, x: float) -> float:
        a, b = self.domain
        if not (a <= x <= b):
            raise OutOfDomain(f"{x!r} outside [{a!r}, {b!r}]")
        i = self._piece_index(x)
        t = x - self.base_point
        # same association order as the vector path and the construction
        return ((self.third_c[i] * t + self.half_u[i]) * t + self.v[i]) * t \
            + self.w[i]

    __call__ = evaluate

    def many(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        idx = np.clip(np.searchsorted(self.breakpoints, xs, side="right") - 1,
                      0, self.piece_count - 1)
        t = xs - self.base_point
        return ((self.third_c[idx] * t + self.half_u[idx]) * t
                + self.v[idx]) * t + self.w[idx]


def _level_from_nodes(xs: np.ndarray, vals: np.ndarray,
                      level: int) -> PiecewisePrimitive:
    """The level's primitive from the mesh nodes and the integrand there.

    At level 0 the mesh is [a, b] and the interpolant is the chord; after
    that the mesh has an even number of intervals and each piece spans two.
    """
    if level == 0:
        xs = np.array([xs[0], 0.5 * (xs[0] + xs[1]), xs[1]])
        vals = np.array([vals[0], 0.5 * (vals[0] + vals[1]), vals[1]])
    base = float(xs[0])
    t = xs - base
    t0, tm, t2 = t[:-2:2], t[1::2], t[2::2]
    f0, fm, f2 = vals[:-2:2], vals[1::2], vals[2::2]
    # Newton form f0 + d1*(t - t0) + c*(t - t0)*(t - tm), expanded in t
    d1 = (fm - f0) / (tm - t0)
    c = ((f2 - fm) / (t2 - tm) - d1) / (t2 - t0)
    u = d1 - c * (t0 + tm)
    v = (f0 - d1 * t0) + c * (t0 * tm)
    third_c = c / 3.0
    half_u = 0.5 * u
    left_raw = ((third_c * t0 + half_u) * t0 + v) * t0
    right_raw = ((third_c * t2 + half_u) * t2 + v) * t2
    w = np.empty_like(left_raw)
    w[0] = -left_raw[0]
    if len(w) > 1:
        # value continuity: w[i+1] = w[i] + (right_raw[i] - left_raw[i+1])
        w[1:] = w[0] + np.cumsum(right_raw[:-1] - left_raw[1:])
    return PiecewisePrimitive(
        breakpoints=xs[::2].copy(), third_c=third_c, half_u=half_u, v=v, w=w,
        base_point=base, refinement_level=level, cauchy_delta=math.inf)


def _finite(values: np.ndarray, nodes: np.ndarray, label: str) -> np.ndarray:
    if not np.isfinite(values).all():
        node = nodes[np.nonzero(~np.isfinite(values))[-1][0]]
        raise EvaluationFailure(
            f"integrand {label or '<unnamed>'} returned a non-finite value "
            f"at mesh node {float(node)!r}")
    return values


def _dyadic_levels(evaluate: Callable[[np.ndarray], np.ndarray],
                   a: float, b: float, max_refinement: int, label: str
                   ) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
    """Yield (level, nodes, new_values) on the dyadic meshes of [a, b].

    nodes is the level's whole mesh; new_values holds the integrand at its
    new nodes only (both ends at level 0, nodes[1::2] after), the last axis
    running over them (one row from f.many, or 2-D grid rows).  evaluate
    runs lazily, when the next level is requested.  Non-finite values raise
    EvaluationFailure."""
    nodes = np.array([a, b], dtype=float)
    yield 0, nodes, _finite(evaluate(nodes), nodes, label)
    for level in range(1, max_refinement + 1):
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        mid_values = _finite(evaluate(mids), mids, label)
        new_nodes = np.empty(2 * len(nodes) - 1, dtype=float)
        new_nodes[0::2] = nodes
        new_nodes[1::2] = mids
        nodes = new_nodes
        yield level, nodes, mid_values


def _stalled(gaps: Sequence[Union[float, np.ndarray]], target: float,
             runs: int, min_level: int) -> np.ndarray:
    """Mesh stall, elementwise: gaps[k-1] holds level k's gap (a float, or
    one gap per row); a row stalls when its last `runs` gaps are within
    target, at a level of at least min_level.  Returns a bool per row."""
    gaps = np.asarray(gaps, dtype=float)
    if len(gaps) < max(runs, min_level):
        return np.zeros(gaps.shape[1:], dtype=bool)
    return np.all(gaps[-runs:] <= target, axis=0)


def build_primitive(f: Union[RealFunction, Callable[[float], float]],
                    domain: Union[Interval, Tuple[float, float]],
                    cfg: BuildConfig = DEFAULT_BUILD_CONFIG) -> PiecewisePrimitive:
    """Build an antiderivative of a continuous f on a finite interval.

    The nodes come from the shared dyadic kernel, so the total cost is
    that of the finest mesh.  Raises RefinementExhausted when the
    probe-grid Cauchy criterion is not met within cfg.max_refinement
    levels, and EvaluationFailure when f is not finite at a node or a
    level's primitive overflows.
    """
    f = real_function(f)
    iv = as_interval(domain)
    if not iv.is_finite:
        raise ValueError("build_primitive needs a finite interval; integrate "
                         "over a ray (a, inf) with ray_integral instead")
    a, b = iv.a, iv.b
    target = cfg.target_uniform_gap * (b - a)
    probe = np.linspace(a, b, cfg.probe_grid)
    history: Tuple[float, ...] = ()

    for level, xs, new in _dyadic_levels(f.many, a, b, cfg.max_refinement,
                                         f.label):
        if level == 0:
            vals = new
        else:
            merged = np.empty(len(xs), dtype=float)
            merged[0::2] = vals
            merged[1::2] = new
            vals = merged
        current = _level_from_nodes(xs, vals, level)
        probe_cur = current.many(probe)
        if level > 0:
            gap = float(np.max(np.abs(probe_cur - probe_prev)))
            if not math.isfinite(gap):
                # overflowing coefficients stay non-finite on finer meshes
                raise EvaluationFailure(
                    f"primitive of {f.label or '<unnamed>'} on [{a}, {b}] "
                    f"is not finite at level {level} (last finite gap "
                    f"{history[-1] if history else None})")
            history = history + (gap,)
            if _stalled(history, target, 2, cfg.min_refinement):
                return replace(current, cauchy_delta=gap,
                               gap_history=history)
        probe_prev = probe_cur

    raise RefinementExhausted(
        f"no Cauchy stall for {f.label or '<unnamed>'} on [{a}, {b}] within "
        f"{cfg.max_refinement} refinements (last gap {history[-1]:.3e}, "
        f"target {target:.3e})")


def ray_integral(f: Union[RealFunction, Callable[[float], float]],
                 a: float, s: float, cfg: BuildConfig) -> float:
    """Integral of a continuous f over the ray (a, inf).

    x = a + s t / (1 - t) maps [0, 1) onto [a, inf): the value at 1 of the
    primitive of g(t) = f(x) s / (1 - t)**2 built on [0, 1] with cfg (so
    its gap target is absolute).  g(1) is g's limit at t = 1-, so f only
    sees finite x; without that limit (f ~ 1/x) NonConvergent is raised.
    s > 0 is the width of f's mass beyond a, which x = a + s (t = 1/2)
    splits, so the mass spreads over [0, 1].
    """
    f = real_function(f)
    if not (math.isfinite(a) and 0.0 < s < math.inf):
        raise ValueError("ray_integral needs a finite a and 0 < s < inf")

    def scalar(t: float) -> float:
        u = 1.0 - t
        return f(a + s * t / u) * s / (u * u)

    at_one = one_sided_limit(scalar, 1.0, "left").value

    def vector(ts: np.ndarray) -> np.ndarray:
        out = np.full(ts.shape, at_one)
        inner = ts < 1.0
        t = ts[inner]
        u = 1.0 - t
        out[inner] = f.many(a + s * t / u) * s / (u * u)
        return out

    g = RealFunction(scalar, label=f"{f.label or '<unnamed>'} on ({a}, inf)",
                     vector_fn=vector)
    return float(build_primitive(g, (0.0, 1.0), cfg).evaluate(1.0))


def derivative_check(P: PiecewisePrimitive,
                     f: Union[RealFunction, Callable[[float], float]]) -> float:
    """Max |central difference of P - f|, with step 1e-5, over a uniform
    101-point interior grid."""
    f = real_function(f)
    a, b = P.domain
    h = 1e-5
    xs = np.linspace(a + 2 * h, b - 2 * h, 101)
    fd = (P.many(xs + h) - P.many(xs - h)) / (2.0 * h)
    return float(np.max(np.abs(fd - f.many(xs))))


# ---------------------------------------------------------------------------
# serialization (used by the CLI primitive cache)
# ---------------------------------------------------------------------------

def to_json_dict(P: PiecewisePrimitive) -> dict:
    return {
        "version": SERIALIZATION_VERSION,
        "k": P.piece_count,
        "base_point": P.base_point,
        "breakpoints": [float(x) for x in P.breakpoints],
        "pieces": [[float(tc), float(hu), float(vv), float(ww)]
                   for tc, hu, vv, ww in zip(P.third_c, P.half_u, P.v, P.w)],
        "refinement_level": P.refinement_level,
        "cauchy_delta": P.cauchy_delta,
    }


def from_json_dict(blob: dict) -> PiecewisePrimitive:
    if blob.get("version") != SERIALIZATION_VERSION:
        raise ValueError(f"unsupported primitive blob version "
                         f"{blob.get('version')!r}")
    pieces = np.asarray(blob["pieces"], dtype=float)
    breakpoints = np.asarray(blob["breakpoints"], dtype=float)
    if (pieces.shape, breakpoints.shape) != ((blob["k"], 4), (blob["k"] + 1,)):
        raise ValueError("piece table shape does not match header")
    return PiecewisePrimitive(
        breakpoints=breakpoints,
        third_c=pieces[:, 0].copy(), half_u=pieces[:, 1].copy(),
        v=pieces[:, 2].copy(), w=pieces[:, 3].copy(),
        base_point=float(blob["base_point"]),
        refinement_level=int(blob["refinement_level"]),
        cauchy_delta=float(blob["cauchy_delta"]))


def dumps(P: PiecewisePrimitive) -> str:
    return json.dumps(to_json_dict(P))


def loads(text: str) -> PiecewisePrimitive:
    """Inverse of dumps; raises ValueError for any blob it cannot read."""
    try:
        return from_json_dict(json.loads(text))
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed primitive blob: {exc!r}") from exc
