"""Iterated Newton integration in two variables.

Four pieces: the rectangle theorem (both iteration orders agree for a
continuous integrand on a compact rectangle), the special infinite case
f(x, z) = x * exp(-x**2 * (1 + z**2)) with explicit truncation tail bounds
(the half-line Gaussian in them is built whole, by ``ray_integral``), a
decay-bounded infinite theorem (|f| <= c * max(x, y)**-3 outside the unit
box), and an explicit family witnessing that the two orders need not both
exist over infinite rectangles.

Inner integrals are Newton integrals too: each is the right-endpoint value
of the C^1 piecewise-cubic antiderivative of the piecewise-quadratic
interpolant of the section on a dyadic mesh (the composite Simpson sum),
refined until that value stalls under the builder's stall rule
(``_stalled``).  The meshes come from the builder's one mesh kernel
(``_dyadic_levels``): like every build, a batch of rows evaluates the
mesh of the lowest level that can stall in one ``grid`` call, whose
columns hold every coarser level, and computes levels 1..floor in one
pass over it, then evaluates each finer level's midpoints.  That floor
is the config's ``min_refinement``, the same for the inner rows as for
the outer build, so each problem family sets it, and the special case
one per iteration order, since its narrowest inner rows differ between
the orders (``_special_cfg``).  Every outer node stalls on its own, so
an inner value depends on its node alone.

``BivariateFunction`` is defined in ``core``, beside the integrand guard
its ``grid`` calls, and re-exported here, so the function registry holds
bivariate integrands without loading this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, List, Optional, Tuple, Union

import numpy as np

from .builder import (BuildConfig, RefinementExhausted, _dyadic_levels,
                      _stalled, build_primitive, ray_integral)
from .core import (BivariateFunction, DecayViolation, Interval, RealFunction,
                   as_interval)
from .engine import PrimitivePair, newton_integral

__all__ = [
    "BivariateFunction",
    "bivariate",
    "IteratedIntegralReport",
    "TailBound",
    "iterated_rectangle",
    "special_infinite_fubini",
    "special_integrand",
    "decay_bounded_fubini",
    "asymmetry_counterexample",
    "CounterexampleReport",
    "counterexample_family",
    "tail_constants",
    "bound_A_at",
    "bound_B_at",
    "gaussian_half_line_built",
]


def bivariate(f: Union[BivariateFunction, Callable[[float, float], float]]
              ) -> BivariateFunction:
    if isinstance(f, BivariateFunction):
        return f
    return BivariateFunction(f, label=getattr(f, "__name__", ""))


@dataclass(frozen=True)
class TailBound:
    """Truncation certificate for the special infinite case at a given b.

    c_gauss is the built half-line Gaussian integral; bound_A and bound_B
    are the two truncation tail estimates instantiated at this b, from
    the constants tail_constants returns.
    """

    c_gauss: float
    bound_A: float
    bound_B: float


@dataclass(frozen=True)
class IteratedIntegralReport:
    value_xy: float
    value_yx: float
    discrepancy: float
    holds: bool
    tail_certificate: Optional[TailBound] = None
    full_value: Optional[float] = None


# ---------------------------------------------------------------------------
# inner integrals and the rectangle theorem
# ---------------------------------------------------------------------------

# rows per batch; a memory bound only, since every row stalls on its own
_INNER_CHUNK = 1024


def _inner_values(f: BivariateFunction, xs: np.ndarray, y_iv: Interval,
                  cfg: BuildConfig) -> np.ndarray:
    """Inner integrals over y for every outer node in xs.

    Each value is that of the C^1 piecewise-cubic antiderivative of the
    piecewise-quadratic interpolant at the right endpoint, which is
    (4 T_k - T_{k-1}) / 3 for the trapezoid sums T_k on the dyadic meshes;
    T_k comes from one running sum of node values per row.  No row can
    stall below the floor, cfg.min_refinement, so a batch evaluates the
    floor mesh in one grid call, like a build, and has a build's reach
    (BuildConfig); its levels 1..floor come from one pass over that mesh,
    each finer level from its midpoints.  Every row stalls on its own gaps
    below the builder tolerance and drops out of the evaluation, so a
    value depends on its outer node alone, never on which nodes share its
    batch.
    """
    c, d = y_iv.a, y_iv.b
    length = d - c
    target, floor = cfg.target_uniform_gap * length, cfg.min_refinement
    # the spacings of levels 1..floor, exact, one per row of a level block
    spacing = np.ldexp(length, -np.arange(1, floor + 1))[:, None]
    out = np.empty(len(xs), dtype=float)

    for start in range(0, len(xs), _INNER_CHUNK):
        index = np.arange(start, min(start + _INNER_CHUNK, len(xs)))
        # the kernel evaluates lazily, so it sees the active rows of the
        # level it is asked for
        rows = xs[index]
        levels = _dyadic_levels(lambda ys: f.grid(rows, ys), c, d, floor)
        _mesh, values = next(levels)
        ends = values[:, 0] + values[:, -1]
        # row 0 of the block holds the two ends, row k <= floor the sum of
        # the nodes level k adds: every 2s-th floor node from
        # s = 2**(floor - k), cut contiguous so it sums in the (pairwise)
        # order of a fresh block; accumulated down the block, row k is
        # level k's running sum
        sums = np.empty((floor + 1, len(index)))
        sums[0] = ends
        for k in range(1, floor + 1):
            s = 1 << (floor - k)
            sums[k] = np.ascontiguousarray(values[:, s::2 * s]).sum(axis=1)
        np.add.accumulate(sums, axis=0, out=sums)
        trapezoid = np.empty_like(sums)
        # two nodes carry no quadratic: level 0's value is T_0
        trapezoid[0] = 0.5 * length * ends
        trapezoid[1:] = spacing * (sums[1:] - 0.5 * ends)
        simpson = trapezoid.copy()
        simpson[1:] = (4.0 * trapezoid[1:] - trapezoid[:-1]) / 3.0
        gaps = list(np.abs(simpson[1:] - simpson[:-1]))
        sums, trapezoid, value = sums[-1], trapezoid[-1], simpson[-1]
        finer = (new for _mesh, _mid, new in levels)
        level = floor
        while True:
            if (done := _stalled(gaps, target, 3)).any():
                out[index[done]] = value[done]
                keep = ~done
                if not keep.any():
                    break
                index, rows, ends, sums, trapezoid, value = (
                    v[keep] for v in (index, rows, ends, sums, trapezoid,
                                      value))
                gaps = [g[keep] for g in gaps]
            if (new := next(finer, None)) is None:
                raise RefinementExhausted(
                    f"inner integrals did not stall within {level} "
                    f"refinements ({len(index)} rows left, largest last "
                    f"gap {float(gaps[-1].max()):.3e}, target {target:.3e})")
            level += 1
            sums += new.sum(axis=1)
            refined = math.ldexp(length, -level) * (sums - 0.5 * ends)
            simpson = (4.0 * refined - trapezoid) / 3.0
            gaps.append(np.abs(simpson - value))
            trapezoid, value = refined, simpson
    return out


def inner_integral_function(f: BivariateFunction, y_iv: Interval,
                            cfg: BuildConfig) -> RealFunction:
    """x -> integral over y_iv of f(x, .), vectorized over x."""
    y_iv = as_interval(y_iv)

    def vector(xs: np.ndarray) -> np.ndarray:
        return _inner_values(f, np.asarray(xs, dtype=float).ravel(), y_iv, cfg)

    def scalar(x: float) -> float:
        return float(vector(np.array([x]))[0])

    return RealFunction(scalar, label=f"inner[{f.label}]", vector_fn=vector)


RECT_CFG = BuildConfig(target_uniform_gap=3e-7, min_refinement=6)


def iterated_rectangle(f, x_interval, y_interval, order: str = "xy",
                       cfg: BuildConfig = RECT_CFG) -> float:
    """Iterated Newton integral of a continuous f over a finite rectangle.

    order "xy" integrates over y first (inner) and x second (outer);
    "yx" is the transpose.  The inner values are continuous in the outer
    variable, so the outer integral is again built constructively.
    """
    f = bivariate(f)
    x_iv, y_iv = as_interval(x_interval), as_interval(y_interval)
    if not (x_iv.is_finite and y_iv.is_finite):
        raise ValueError("iterated_rectangle needs a finite rectangle")
    if order == "yx":
        return iterated_rectangle(f.transposed(), y_iv, x_iv, "xy", cfg)
    if order != "xy":
        raise ValueError("order must be 'xy' or 'yx'")
    inner = inner_integral_function(f, y_iv, cfg)
    P = build_primitive(inner, x_iv, cfg)
    return float(P.evaluate(x_iv.b))


# ---------------------------------------------------------------------------
# the special infinite case
# ---------------------------------------------------------------------------

# exp rounds to +0.0 below log(2**-1075) = -745.133
_EXP_ZERO_BELOW = -745.2


def _special_vector(xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    e = np.asarray(-xs * xs * (1.0 + zs * zs))
    # NaN compares false, so a NaN lane is still evaluated and stays NaN
    zero = e < _EXP_ZERO_BELOW
    np.exp(e, out=e, where=~zero)
    np.copyto(e, 0.0, where=zero)
    return np.multiply(xs, e, out=e)


def special_integrand() -> BivariateFunction:
    """f(x, z) = x exp(-x^2 (1 + z^2)) = x exp(-x^2) exp(-x^2 z^2).

    The vector twin sets the lanes whose exp argument is below -745.2 to
    +0.0, the value exp rounds them to, and evaluates exp on the rest
    only, bit for bit as xs * np.exp(-xs * xs * (1 + zs * zs)): numpy's
    exp leaves its vector path below about -708, where most of the special
    case's lanes lie (69 % at b = 16).  Few lanes of the other twins
    underflow, so they keep the plain form.
    """
    return BivariateFunction(
        lambda x, z: x * math.exp(-x * x * (1.0 + z * z)),
        label="x exp(-x^2 (1+z^2))", vector_fn=_special_vector)


def gaussian_half_line_built() -> float:
    """Half-line integral of exp(-x^2) via a built antiderivative.

    The whole ray (0, inf) is built by ray_integral at exp(-x^2)'s width
    s = 1, so no tail is discarded.
    """
    return ray_integral(
        RealFunction(lambda x: math.exp(-x * x), label="exp(-x^2)",
                     vector_fn=lambda xs: np.exp(-xs * xs)),
        0.0, 1.0, BuildConfig(target_uniform_gap=1e-10))


@lru_cache(maxsize=None)
def tail_constants() -> Tuple[float, float, float]:
    """(c_gauss, c0, c2); c_gauss is built at first use.

    c0 is x**3 exp(-x**2) at its maximiser x = sqrt(3/2), its maximum
    over x >= 1.  c2 bounds z**(4/3) times the inner integral, which is
    1 / (2 (1 + z**2)) by the closed-form antiderivative
    -exp(-x^2 (1+z^2)) / (2 (1+z^2)); that profile's derivative vanishes
    where 4 (1 + z**2) = 6 z**2, at z = sqrt(2), so its maximum is
    2**(2/3) / 6 = 0.2646, and c2 is the smallest power of two above it,
    1/2.
    """
    return gaussian_half_line_built(), 1.5 ** 1.5 * math.exp(-1.5), 0.5


def bound_A_at(b: float) -> float:
    c, c0, _c2 = tail_constants()
    return c * b ** -0.5 + b * math.exp(-math.sqrt(b)) \
        + c0 * (1.0 + math.exp(-1.0)) / b


def bound_B_at(b: float) -> float:
    _c, _c0, c2 = tail_constants()
    return (b * b + b) * math.exp(-b) + 3.0 * c2 * b ** (-1.0 / 3.0)


def _special_cfg(b: float, order: str) -> BuildConfig:
    # the two orders must agree to ~1e-8 at small b; at larger b the
    # truncated values only feed tail-bound certificates with 1e-1-scale
    # slack (the truncation gap itself decays like b**-1/2, so chasing
    # digits there buys nothing).  Each order gets the floor and gap its
    # own narrowest inner row needs.
    #
    # yx: the narrowest row, x exp(-x^2 (1 + b^2)) at z = b, is a bump
    # about 1/b wide against x = 0; a floor spacing b / 2**m at most that
    # wide needs 2**m >= b**2.  At floor 8 that row stalled on the floor
    # and was missed, by 92 % at b = 24 (width/spacing 0.44) and whole at
    # b = 32 (0.25), as at b = 16 on floor 6.  Past b = 32 a row's stall
    # target, gap * b, must stay below that row's mass 1/(2 (1 + b**2)):
    # at 1e-5 it did not, and yx was 1.3e-4 relative off at b = 40 and
    # 3.1e-4 at 64.  Half that mass keeps it within 1e-6 from b = 36 to 64.
    #
    # xy: the row at x, over z, is x exp(-x^2) exp(-x^2 z^2), a Gaussian
    # 1/x wide of mass about (sqrt(pi)/2) exp(-x^2).  Rows whose mass is
    # below the gap target do not matter, so the narrowest row that does
    # is at x* = sqrt(ln(1/gap)), and 2**m >= b x* is enough: floors 6, 6,
    # 7 and 8 at b = 10, 16, 32 and 64 against the yx order's 7, 8, 10
    # and 12.  The finer gap past b = 32 is for the yx row's mass, so xy
    # keeps 1e-5: from b = 4 to 64 in unit steps it is then within 1e-5
    # relative of the truncated value (9.5e-6 at b = 27 on either floor,
    # 7.8e-6 at b = 39 against 4.5e-7 at the yx gap), far inside that slack
    if b <= 2.0:
        gap = 5e-8
    elif b <= 32.0 or order == "xy":
        gap = 1e-5
    else:
        gap = 0.5 / (2.0 * (1.0 + b * b)) / b
    width = b if order == "yx" else math.sqrt(math.log(1.0 / gap))
    floor = max(6, math.ceil(math.log2(b * width)))
    return BuildConfig(target_uniform_gap=gap, probe_grid=129,
                       min_refinement=floor)


def special_infinite_fubini(b: float) -> IteratedIntegralReport:
    """Truncated iterated integrals of the special function plus certificates.

    A(b) and B(b) are the two orders over [0, b]^2, 1 <= b <= 64, each on
    its own config (``_special_cfg``); the full value is the square of the
    half-line Gaussian integral.  The report holds when the measured
    truncation gaps sit inside the certificate's tail bounds.
    """
    if not 1.0 <= b <= 64.0:
        raise ValueError(f"b must be in [1, 64], got {b!r}")
    f = special_integrand()
    a_b, b_b = (iterated_rectangle(f, (0.0, b), (0.0, b), order,
                                   _special_cfg(b, order))
                for order in ("xy", "yx"))
    c, _c0, _c2 = tail_constants()
    full = c * c
    cert = TailBound(c_gauss=c, bound_A=bound_A_at(b), bound_B=bound_B_at(b))
    holds = (abs(full - a_b) <= cert.bound_A
             and abs(full - b_b) <= cert.bound_A + cert.bound_B)
    return IteratedIntegralReport(
        value_xy=a_b, value_yx=b_b, discrepancy=abs(a_b - b_b),
        tail_certificate=cert, full_value=full, holds=holds)


# ---------------------------------------------------------------------------
# decay-bounded infinite rectangles
# ---------------------------------------------------------------------------

def _check_decay(f: BivariateFunction, c: float, b_max: float,
                 rng: Optional[np.random.Generator]) -> None:
    ms = np.geomspace(1.0, max(b_max, 2.0), 41)
    ts = np.linspace(0.0, 1.0, 17)
    if rng is not None:
        ts = np.sort(rng.uniform(0.0, 1.0, 17))
    for m in ms:
        cap = c * m ** -3 * (1.0 + 1e-9) + 1e-300
        along = f.grid(np.array([m]), ts * m).ravel()
        across = f.grid(ts * m, np.array([m])).ravel()
        if np.any(np.abs(along) > cap) or np.any(np.abs(across) > cap):
            raise DecayViolation(
                f"|f| exceeds {c} * max(x,y)^-3 near max(x,y) = {m:.3g}")


_DECAY_CFG = BuildConfig(target_uniform_gap=1e-7, probe_grid=129,
                         min_refinement=6)


def decay_bounded_fubini(f, c: float,
                         truncation_schedule: Iterable[float],
                         rng: Optional[np.random.Generator] = None
                         ) -> Tuple[IteratedIntegralReport,
                                    List[Tuple[float, float, float]]]:
    """Both iteration orders under a max(x,y)^-3 decay hypothesis.

    Truncates the quadrant at each schedule point; the exterior of [0,b]^2
    carries at most c * 2/b in absolute value (integrate the envelope over
    {max(x,y) > b}).  Returns the final report plus the (b, xy, yx) history;
    the report holds when the two orders agree within 1e-6 at every
    schedule point.  ValueError unless c > 0.
    """
    f = bivariate(f)
    if not c > 0.0:
        raise ValueError(f"decay constant must be positive, got {c!r}")
    schedule = sorted(float(b) for b in truncation_schedule)
    if not schedule:
        raise ValueError("truncation_schedule must be nonempty")
    _check_decay(f, c, schedule[-1], rng)
    history: List[Tuple[float, float, float]] = []
    for b in schedule:
        vxy = iterated_rectangle(f, (0.0, b), (0.0, b), "xy", _DECAY_CFG)
        vyx = iterated_rectangle(f, (0.0, b), (0.0, b), "yx", _DECAY_CFG)
        history.append((b, vxy, vyx))
    _b, vxy, vyx = history[-1]
    report = IteratedIntegralReport(
        value_xy=vxy, value_yx=vyx, discrepancy=abs(vxy - vyx),
        holds=all(abs(x - y) <= 1e-6 for _b, x, y in history))
    return report, history


# ---------------------------------------------------------------------------
# the order-asymmetry witness
# ---------------------------------------------------------------------------

def counterexample_family() -> BivariateFunction:
    """A continuous positive function on the quadrant killing one order.

    f(x, y) = max(exp(-x - y), 1 - |y - 1| * exp(x)), i.e. a decaying
    positive floor plus a triangular ridge of height 1 along y = 1 whose
    base halves width e^-x.  Every x-section integrates (in y) to at most
    2 e^-x, so the y-inner/x-outer order converges; the section y = 1 is
    identically 1, so the x-inner integral at y = 1 diverges and the other
    order is undefined.
    """

    def scalar(x: float, y: float) -> float:
        floor = math.exp(-x - y) if x + y < 700.0 else 0.0
        d = abs(y - 1.0)
        if d == 0.0:
            ridge = 1.0
        elif x > 690.0:
            ridge = 0.0
        else:
            ridge = max(0.0, 1.0 - d * math.exp(x))
        return max(floor, ridge)

    def vector(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        d = np.abs(ys - 1.0)
        t = np.where(d == 0.0, 1.0, 1.0 - d * np.exp(np.minimum(xs, 700.0)))
        ridge = np.maximum(0.0, t)
        return np.maximum(np.exp(-xs - ys), ridge)

    return BivariateFunction(scalar, label="order-asymmetry witness",
                             vector_fn=vector)


@lru_cache(maxsize=None)
def _unit_exponential_integral() -> float:
    """Integral of exp(-y) over (0, inf) through the limit machinery."""
    pair = PrimitivePair(
        RealFunction(lambda y: math.exp(-y)),
        RealFunction(lambda y: -math.exp(-y)),
        Interval(0.0, math.inf))
    return newton_integral(pair).value


def _ridge_excess(xs: np.ndarray) -> np.ndarray:
    """Integral over y of max(0, ridge - floor) for each x >= 0, vectorized.

    Substituting y = 1 + w t with w = exp(-x) maps the ridge support onto
    t in [-1, 1], where the integrand is g(t) = (1 - |t|) - C exp(-w t)
    with C = exp(-x - 1).  g is concave on each side of the apex, g(0) > 0
    and g(+-1) < 0, so its positivity region is a single interval
    [t-, t+].

    Each crossing is found by Newton's method from t = +-1.  A tangent of
    a concave g lies above it, so every iterate keeps g <= 0 and the
    iterates move monotonically toward the root; |g'| >= 1 - 1/e on both
    halves (C w = exp(-2x - 1)), so no step divides by a small slope.
    Iteration stops once no crossing moves further toward 0, after 5-6
    steps; the cap of 60 is only a safeguard.

    The integral then has a closed form (tent pieces plus an exponential
    primitive, written with expm1 so w -> 0 stays stable).  Its derivative
    with respect to each crossing is g there, which is 0, so a root error
    of a few ulp moves the value only to second order.
    """
    xs = np.asarray(xs, dtype=float)
    w = np.exp(-xs)
    C = np.exp(-xs - 1.0)

    def crossing(side: float) -> np.ndarray:
        # on the side's half g(t) = 1 - side t - C exp(-w t), and
        # g'(t) = w C exp(-w t) - side
        t = np.full_like(xs, side)
        for _ in range(60):
            decay = C * np.exp(-w * t)
            stepped = t - ((1.0 - side * t) - decay) / (w * decay - side)
            closer = side * stepped < side * t
            if not closer.any():
                break
            t = np.where(closer, stepped, t)
        return t

    t_minus = crossing(-1.0)
    t_plus = crossing(1.0)
    tent = (-t_minus - 0.5 * t_minus * t_minus) \
        + (t_plus - 0.5 * t_plus * t_plus)
    # integral of C exp(-w t) over [t-, t+]; C underflows before w does
    # (x >= 745.13), so where w = 0 the numerator is 0 and so is expo
    expo = C * np.exp(-w * t_minus) * (-np.expm1(-w * (t_plus - t_minus))) \
        / np.where(w > 0.0, w, 1.0)
    return w * (tent - expo)


def _counterexample_inner_xy() -> RealFunction:
    unit = _unit_exponential_integral()

    def vector(xs: np.ndarray) -> np.ndarray:
        return np.exp(-xs) * unit + _ridge_excess(xs)

    return RealFunction(lambda x: float(vector(np.array([x]))[0]),
                        label="counterexample inner over y", vector_fn=vector)


@dataclass(frozen=True)
class CounterexampleReport:
    order_xy_value: float
    order_yx_partial: float


def asymmetry_counterexample(X: float) -> CounterexampleReport:
    """Evaluate both orders of the witness family truncated at X.

    The y-inner/x-outer value stabilizes as X grows (the inner values are
    dominated by 2 e^-x); the x-inner integral along the section y = 1
    equals X and therefore diverges with the truncation.
    """
    if not X >= 1.0:
        raise ValueError("X must be at least 1")
    inner = _counterexample_inner_xy()
    P = build_primitive(inner, (0.0, X))
    xy_value = float(P.evaluate(X))

    line = counterexample_family().transposed().section_at_x(1.0)
    P_line = build_primitive(line, (0.0, X))
    yx_partial = float(P_line.evaluate(X))
    return CounterexampleReport(order_xy_value=xy_value,
                                order_yx_partial=yx_partial)
