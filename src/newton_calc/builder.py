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

One kernel, ``_dyadic_levels``, walks the dyadic meshes for builds and
for ``fubini``'s inner integrals, which also share the mesh stall rule
(``_stalled``).  It evaluates the mesh of the lowest level that can stall
(``min_refinement``, the inner floor) in one call through the integrand
guard (``RealFunction.many``, ``BivariateFunction.grid``), then each finer
level's midpoints when asked.  A build computes all its floor levels in
one pass over the floor mesh (``_floor_levels``), then each finer level
from the previous mesh, its midpoints and the integrand there; both take
their pieces from ``_quadratic_pieces``, with one running sum per level,
so each level's pieces and gap are those of a build of that level alone.

The result vanishes exactly at the left endpoint (the first ``w`` is 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (Callable, Iterator, List, Optional, Sequence, Tuple,
                    Union)

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

    The floor sets the reach: with h = (b - a) / 2**min_refinement, a
    Gaussian bump at least h/4 wide is always resolved, while one h/8 or
    h/16 wide can fall between the floor's nodes and be missed whole, a
    value near 0 reported as converged (tests/test_builder.py pins this
    for builds and inner integrals at floors 4, 6 and 8).

    The floor's levels 0..m come from one pass over its mesh, which holds
    all their 2**m pieces at once: by tracemalloc, exp(-x^2) on [0, 1]
    peaks at 160 MiB at m = 20, against 74 MiB level by level, 40 MiB at
    m = 18 and under 1 MiB from m = 12 down.  The highest floor the
    library sets is 12 (the special Fubini case at b = 64), though
    min_refinement accepts up to 22.

    The 2-D and Laplace-piece configs probe 129 points (257 cost the
    benchmark's iterated workload 19 % more evaluations); 129 everywhere
    stopped 18 of the 156 corpus builds a level sooner, 16 of them with
    16 times the error, and moved W_3 from 1.8e-14 to 2.8e-13 relative.
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
    # searching all breakpoints but the last puts x = b in the last piece
    i = breakpoints[:-1].searchsorted(xs, side="right") - 1
    t = xs - breakpoints[i]
    return ((third_c[i] * t + half_u[i]) * t + v[i]) * t + w[i]


def _quadratic_pieces(x0: np.ndarray, xm: np.ndarray, x2: np.ndarray,
                      f0: np.ndarray, fm: np.ndarray, f2: np.ndarray,
                      starts: List[int]) -> tuple:
    """(third_c, half_u, w) of the quadratic pieces through (x0, f0),
    (xm, fm) and (x2, f2), in Newton form f0 + d1*t + c*t*(t - hm) about
    x0.  The pieces of one level run from each of starts to the next; w
    starts at 0 at each."""
    hm, h = xm - x0, x2 - x0
    d1 = (fm - f0) / hm
    c = ((f2 - fm) / (x2 - xm) - d1) / h
    third_c = c / 3.0
    half_u = 0.5 * (d1 - c * hm)
    # w[i+1] = w[i] + piece i at its right end, so the pieces join exactly;
    # one running sum per level keeps each level's order of additions
    integral = ((third_c * h + half_u) * h + f0) * h
    w = np.empty_like(f0)
    w[starts] = 0.0
    for lo, hi in zip(starts, starts[1:] + [len(w)]):
        np.add.accumulate(integral[lo:hi - 1], out=w[lo + 1:hi])
    return third_c, half_u, w


def _floor_levels(floor: np.ndarray, values: np.ndarray, probe: np.ndarray
                  ) -> Tuple[np.ndarray, tuple, np.ndarray]:
    """Levels 0..m of a build in one pass over its floor mesh (level m,
    2**m + 1 nodes) and the integrand there: the probe gaps of levels
    1..m, level m's pieces and level m's values at the probes.

    The pieces are numbered level by level: level 0 is piece 0, the chord
    (its midpoint value is the mean of the end values), and level k >= 1
    is pieces 2**(k-1) + j, j < 2**(k-1), each spanning 2**(m-k+1) floor
    intervals from floor[j * span].  A probe's piece at level k is the last
    that starts at or below it, j = J >> (m-k+1) for J its floor interval.
    """
    m = (len(floor) - 1).bit_length() - 1
    level = np.arange(m + 1)
    pieces_log = np.maximum(level - 1, 0)   # level k has 2**this pieces
    start = (1 << level) >> 1               # level k's first piece
    span = np.repeat((1 << m) >> pieces_log, 1 << pieces_log)
    # (2**(k-1) + j) * span mod 2**m is j * span (0 at level 0)
    left = (np.arange(1 << m) * span) & ((1 << m) - 1)
    mid, right = left + (span >> 1), left + span
    x0, f0, fm = floor[left], values[left], values[mid]
    fm[0] = 0.5 * (values[0] + values[-1])
    third_c, half_u, w = _quadratic_pieces(x0, floor[mid], floor[right],
                                           f0, fm, values[right],
                                           start.tolist())
    # J, with b in the last interval: searched in all nodes but the last
    below = floor[:-1].searchsorted(probe, side="right") - 1
    piece = (below >> (m - pieces_log)[:, None]) + start[:, None]
    t = probe - x0[piece]
    at_probe = (((third_c[piece] * t + half_u[piece]) * t + f0[piece]) * t
                + w[piece])
    diff = at_probe[1:] - at_probe[:-1]
    gaps = np.abs(diff, out=diff).max(axis=1)
    top = slice(1 << (m - 1), None)
    pieces = (floor[::2].copy(), third_c[top].copy(), half_u[top].copy(),
              f0[top].copy(), w[top].copy())
    return gaps, pieces, at_probe[-1]


def _build_levels(evaluate: Callable[[np.ndarray], np.ndarray],
                  a: float, b: float, first: int, probe: np.ndarray
                  ) -> Iterator[Tuple[int, float, Optional[tuple]]]:
    """Yield (level, gap, pieces) of a build of [a, b] for levels
    1..MAX_REFINEMENT: levels 1..first from one pass over level first's
    mesh (pieces only at level first, as no build stalls below it), then
    each finer level from the previous mesh, its midpoints and the
    integrand there.  gap is the probe-grid gap to the level below; pieces
    are (breakpoints, third_c, half_u, v, w)."""
    levels = _dyadic_levels(evaluate, a, b, first)
    floor, vals = next(levels)
    gaps, pieces, probe_prev = _floor_levels(floor, vals, probe)
    for level, gap in enumerate(gaps.tolist(), 1):
        yield level, gap, pieces if level == first else None
    for level, (xs, mid, new) in enumerate(levels, first + 1):
        third_c, half_u, w = _quadratic_pieces(xs[:-1], mid, xs[1:],
                                               vals[:-1], new, vals[1:], [0])
        pieces = (xs, third_c, half_u, vals[:-1], w)
        probe_cur = _cubic(pieces, probe)
        yield level, float(np.abs(probe_cur - probe_prev).max()), pieces
        vals, probe_prev = _interleaved(vals, new), probe_cur


def _dyadic_levels(evaluate: Callable[[np.ndarray], np.ndarray],
                   a: float, b: float, first: int) -> Iterator[tuple]:
    """The one mesh kernel of builds and inner integrals: yield (floor,
    values), level first's mesh of [a, b] and the integrand there in one
    call, then (mesh, midpoints, values there) for each finer level up to
    MAX_REFINEMENT, evaluated only when asked for.  The values lie on the
    last axis (one f.many row, or 2-D grid rows); evaluate is the integrand
    guard, so a failure names the array's first failing node."""
    mesh = _floor_mesh(a, b, first)
    yield mesh, evaluate(mesh)
    for _ in range(first, MAX_REFINEMENT):
        mid = 0.5 * (mesh[:-1] + mesh[1:])
        yield mesh, mid, evaluate(mid)
        mesh = _interleaved(mesh, mid)


def _floor_mesh(a: float, b: float, level: int) -> np.ndarray:
    """The dyadic mesh of [a, b] at level (2**level + 1 nodes), each node
    the midpoint of its neighbours one level coarser, so every coarser
    mesh is a stride of it."""
    mesh = np.empty((1 << level) + 1)
    mesh[0], mesh[-1] = a, b
    for k in range(level - 1, -1, -1):
        s = 1 << k
        mesh[s::2 * s] = 0.5 * (mesh[:-1:2 * s] + mesh[2 * s::2 * s])
    return mesh


def _interleaved(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """even at the even indices and odd (one shorter) at the odd ones."""
    out = np.empty(2 * len(even) - 1, dtype=float)
    out[0::2], out[1::2] = even, odd
    return out


def _stalled(gaps: Sequence[Union[float, np.ndarray]], target: float,
             runs: int) -> np.ndarray:
    """Mesh stall, elementwise: gaps[k-1] holds level k's gap (a float, or
    one gap per row); a row stalls when its last `runs` gaps are within
    target (asked from the floor level on).  Returns a bool per row."""
    if len(gaps) < runs:
        return np.zeros(np.shape(gaps[-1]), dtype=bool)
    return np.all(np.asarray(gaps[-runs:], dtype=float) <= target, axis=0)


def build_primitive(f: Union[RealFunction, Callable[[float], float]],
                    domain: Union[Interval, Tuple[float, float]],
                    cfg: BuildConfig = BuildConfig()) -> PiecewisePrimitive:
    """Build an antiderivative of a continuous f on a finite interval.

    Levels 0..min_refinement come from one pass over the floor mesh
    (level min_refinement), evaluated in one call; each later level
    evaluates the midpoints of the previous mesh, so the total cost is
    that of the finest mesh.  Raises
    RefinementExhausted when the probe-grid Cauchy criterion is not met
    within MAX_REFINEMENT levels, and EvaluationFailure when f fails at a
    node (f.many's guard) or a level's primitive overflows.
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
    # by f.many), not as numpy warnings escaping ahead of it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for level, gap, pieces in _build_levels(f.many, a, b,
                                                cfg.min_refinement, probe):
            if not math.isfinite(gap):
                # overflowing coefficients stay non-finite on finer meshes
                raise EvaluationFailure(
                    f"primitive of {f.label or '<unnamed>'} on [{a}, {b}] "
                    f"is not finite at level {level} (last finite gap "
                    f"{history[-1] if history else None})")
            history = history + (gap,)
            if level >= cfg.min_refinement and _stalled(history, target, 2):
                return PiecewisePrimitive(*pieces, gap_history=history)

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
    import json  # only the CLI's --cache-dir uses the blobs

    return json.dumps({
        "version": SERIALIZATION_VERSION,
        "breakpoints": P.breakpoints.tolist(),
        "pieces": np.column_stack([P.third_c, P.half_u, P.v, P.w]).tolist(),
        "gap_history": list(P.gap_history),
    })


def loads(text: str) -> PiecewisePrimitive:
    """Inverse of dumps; raises ValueError for any blob it cannot read."""
    import json

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
