"""Constructive antiderivatives on compact intervals, and integrals on rays.

The construction mirrors the classical limit argument: interpolate the
integrand continuously on a uniform mesh, integrate the interpolant piece by
piece, and choose the integration constants left to right so that values
join continuously (matching one-sided derivatives then give a two-sided
derivative at each breakpoint).  Each piece spans two mesh intervals; its
interpolant is the quadratic ``c*t**2 + u*t + v`` through its three nodes,
with ``t`` measured from its own left breakpoint, and its antiderivative
the cubic ``(c/3)*t**3 + (u/2)*t**2 + v*t + w``, ``w`` being the running
sum of the integrals of the pieces to its left.  The interpolant is
continuous, so the primitive is C^1.  The mesh is refined dyadically and
refinement stops once two consecutive levels agree on a probe grid, a
practical stand-in for the uniform Cauchy bound
``|F_m(x) - F_n(x)| <= (x - a) * sup|f_m - f_n|``.
With quadratic pieces that gap shrinks about 16x per level on smooth
integrands (4x with linear pieces).

The refinement kernel (``_dyadic_levels``) and the mesh stall rule
(``_stalled``) are shared with ``fubini``'s inner integrals.  The builder
starts the kernel at level 0; the inner integrals start it at their floor
level, so that every node below the floor is evaluated in one call.

The result vanishes exactly at the left endpoint (the first ``w`` is 0).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
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
    "dumps",
    "loads",
]

SERIALIZATION_VERSION = 3

# the finest dyadic level any refinement reaches: about 4M pieces
MAX_REFINEMENT = 22


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
    min_refinement).  Refinement is capped at level 22 (MAX_REFINEMENT),
    about 4M pieces.
    """

    target_uniform_gap: float = 1e-8
    probe_grid: int = 257
    min_refinement: int = 4

    def __post_init__(self) -> None:
        if not self.target_uniform_gap > 0.0:
            raise ValueError("target_uniform_gap must be positive")
        if self.probe_grid < 2:
            raise ValueError("probe_grid must be at least 2")
        if not 1 <= self.min_refinement <= MAX_REFINEMENT:
            raise ValueError(f"need 1 <= min_refinement <= {MAX_REFINEMENT}")


@dataclass(frozen=True, eq=False)
class PiecewisePrimitive:
    """A C^1 piecewise-cubic antiderivative on [a, b], zero at a.

    Piece i covers [breakpoints[i], breakpoints[i+1]] and, with
    ``t = x - breakpoints[i]``, evaluates to
    ``((third_c[i]*t + half_u[i])*t + v[i])*t + w[i]``: w[i] is the
    integral over the pieces left of it, so the pieces join exactly at each
    breakpoint.  Its derivative is the piecewise-quadratic interpolant of
    the integrand on the final mesh: on each piece, the quadratic through
    its two ends and its midpoint (at level 0, the chord).  gap_history[k-1]
    is the probe-grid gap between levels k-1 and k, so the refinement level
    is its length and the Cauchy delta its last entry.
    """

    breakpoints: np.ndarray
    third_c: np.ndarray
    half_u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    gap_history: Tuple[float, ...]

    @property
    def refinement_level(self) -> int:
        return len(self.gap_history)

    @property
    def piece_count(self) -> int:
        return len(self.half_u)

    @property
    def domain(self) -> Tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    @property
    def _pieces(self) -> tuple:
        return self.breakpoints, self.third_c, self.half_u, self.v, self.w

    def evaluate(self, x: float) -> float:
        a, b = self.domain
        if not (a <= x <= b):
            raise OutOfDomain(f"{x!r} outside [{a!r}, {b!r}]")
        return _cubic(self._pieces, x)

    def many(self, xs) -> np.ndarray:
        """evaluate at every point of xs, with the same OutOfDomain."""
        xs = np.asarray(xs, dtype=float)
        a, b = self.domain
        outside = ~((a <= xs) & (xs <= b))  # NaN is outside too
        if outside.any():
            raise OutOfDomain(
                f"{float(xs[outside].flat[0])!r} outside [{a!r}, {b!r}]")
        return _cubic(self._pieces, xs)


def _cubic(pieces: tuple, xs):
    """pieces = (breakpoints, third_c, half_u, v, w) at a point or array xs
    of its domain, each x in the last piece that starts at or below it."""
    breakpoints, third_c, half_u, v, w = pieces
    i = np.minimum(np.searchsorted(breakpoints, xs, side="right") - 1,
                   len(w) - 1)
    t = xs - breakpoints[i]
    return ((third_c[i] * t + half_u[i]) * t + v[i]) * t + w[i]


def _level_from_nodes(xs: np.ndarray, vals: np.ndarray) -> tuple:
    """The level's (breakpoints, third_c, half_u, v, w) from the mesh nodes
    and the integrand there.

    At level 0 the mesh is [a, b] and the interpolant is the chord; after
    that the mesh has an even number of intervals and each piece spans two,
    in Newton form f0 + d1*t + c*t*(t - hm) about its left breakpoint.
    """
    if len(xs) == 2:
        xs = np.array([xs[0], 0.5 * (xs[0] + xs[1]), xs[1]])
        vals = np.array([vals[0], 0.5 * (vals[0] + vals[1]), vals[1]])
    x0, xm, x2 = xs[:-2:2], xs[1::2], xs[2::2]
    f0, fm, f2 = vals[:-2:2], vals[1::2], vals[2::2]
    hm, h = xm - x0, x2 - x0
    d1 = (fm - f0) / hm
    c = ((f2 - fm) / (x2 - xm) - d1) / h
    third_c = c / 3.0
    half_u = 0.5 * (d1 - c * hm)
    # w[i+1] = w[i] + piece i at its right end, so the pieces join exactly
    w = np.zeros_like(f0)
    np.cumsum((((third_c * h + half_u) * h + f0) * h)[:-1], out=w[1:])
    return xs[::2].copy(), third_c, half_u, f0.copy(), w


def _finite(values: np.ndarray, nodes: np.ndarray, label: str) -> np.ndarray:
    if not np.isfinite(values).all():
        node = nodes[np.nonzero(~np.isfinite(values))[-1][0]]
        raise EvaluationFailure(
            f"integrand {label or '<unnamed>'} returned a non-finite value "
            f"at mesh node {float(node)!r}")
    return values


def _dyadic_levels(evaluate: Callable[[np.ndarray], np.ndarray],
                   a: float, b: float, label: str, first: int
                   ) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
    """Yield (level, nodes, new_values) on the dyadic meshes of [a, b], for
    levels first..MAX_REFINEMENT.

    nodes is the level's whole mesh, from the same midpoint recursion at
    every first.  new_values holds the integrand at the level's new nodes,
    the last axis running over them (one row from f.many, or 2-D grid
    rows): at level first that is every node, in one evaluate call; after
    it, nodes[1::2].  evaluate runs lazily, when the next level is
    requested.  Non-finite values raise EvaluationFailure."""
    nodes = np.array([a, b], dtype=float)
    for level in range(MAX_REFINEMENT + 1):
        if level > 0:
            mids = 0.5 * (nodes[:-1] + nodes[1:])
            new_nodes = np.empty(2 * len(nodes) - 1, dtype=float)
            new_nodes[0::2] = nodes
            new_nodes[1::2] = mids
            nodes = new_nodes
        if level == first:
            yield level, nodes, _finite(evaluate(nodes), nodes, label)
        elif level > first:
            yield level, nodes, _finite(evaluate(mids), mids, label)


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
                    cfg: BuildConfig = BuildConfig()) -> PiecewisePrimitive:
    """Build an antiderivative of a continuous f on a finite interval.

    The nodes come from the shared dyadic kernel, so the total cost is
    that of the finest mesh.  Raises RefinementExhausted when the
    probe-grid Cauchy criterion is not met within MAX_REFINEMENT
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
    # on an interval of subnormal length linspace's interior rounds past b
    probe = np.minimum(np.linspace(a, b, cfg.probe_grid), b)
    history: Tuple[float, ...] = ()

    # overflow is reported below as a non-finite gap (non-finite node values
    # by _dyadic_levels), not as numpy warnings escaping ahead of it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for level, xs, new in _dyadic_levels(f.many, a, b, f.label, 0):
            if level == 0:
                vals = new
            else:
                merged = np.empty(len(xs), dtype=float)
                merged[0::2] = vals
                merged[1::2] = new
                vals = merged
            pieces = _level_from_nodes(xs, vals)
            probe_cur = _cubic(pieces, probe)
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
                    return PiecewisePrimitive(*pieces, gap_history=history)
            probe_prev = probe_cur

    raise RefinementExhausted(
        f"no Cauchy stall for {f.label or '<unnamed>'} on [{a}, {b}] within "
        f"{MAX_REFINEMENT} refinements (last gap {history[-1]:.3e}, "
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
    """Max |central difference of P - f|, with step 1e-5 (on intervals
    shorter than 8e-5, an eighth of the length, so every point stays in
    the domain), over a uniform 101-point interior grid."""
    f = real_function(f)
    a, b = P.domain
    h = min(1e-5, (b - a) / 8.0)
    xs = np.linspace(a + 2 * h, b - 2 * h, 101)
    fd = (P.many(xs + h) - P.many(xs - h)) / (2.0 * h)
    return float(np.max(np.abs(fd - f.many(xs))))


def dumps(P: PiecewisePrimitive) -> str:
    """P as the JSON blob of the CLI's primitive cache."""
    return json.dumps({
        "version": SERIALIZATION_VERSION,
        "breakpoints": P.breakpoints.tolist(),
        "pieces": np.column_stack([P.third_c, P.half_u, P.v, P.w]).tolist(),
        "gap_history": list(P.gap_history),
    })


def loads(text: str) -> PiecewisePrimitive:
    """Inverse of dumps; raises ValueError for any blob it cannot read."""
    try:
        blob = json.loads(text)
        if blob.get("version") != SERIALIZATION_VERSION:
            raise ValueError(f"unsupported primitive blob version "
                             f"{blob.get('version')!r}")
        pieces = np.asarray(blob["pieces"], dtype=float)
        breakpoints = np.asarray(blob["breakpoints"], dtype=float)
        history = tuple(float(g) for g in blob["gap_history"])
        if (pieces.shape, breakpoints.ndim) != ((len(breakpoints) - 1, 4), 1):
            raise ValueError("piece table does not match the breakpoints")
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed primitive blob: {exc!r}") from exc
    return PiecewisePrimitive(breakpoints, *pieces.T.copy(),
                              gap_history=history)
