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
refined by the builder's kernel (``_dyadic_levels``) until that value
stalls under the builder's stall rule (``_stalled``).  Every outer node
stalls on its own, so an inner value depends on its node alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, List, Optional, Tuple, Union

import numpy as np

from .builder import (BuildConfig, RefinementExhausted, _dyadic_levels,
                      _stalled, build_primitive, ray_integral)
from .core import DecayViolation, Interval, RealFunction, as_interval
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
    "counterexample_section_integral",
    "tail_constants",
    "bound_A_at",
    "bound_B_at",
    "gaussian_half_line_built",
]


@dataclass(frozen=True)
class BivariateFunction:
    """A pure (x, y) -> real evaluation with an optional vectorized twin.

    vector_fn receives broadcastable arrays and must evaluate elementwise.
    """

    fn: Callable[[float, float], float]
    label: str = ""
    vector_fn: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __call__(self, x: float, y: float) -> float:
        return float(self.fn(x, y))

    def grid(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Evaluate on the broadcast product of xs (rows) and ys (columns)."""
        X = np.asarray(xs, dtype=float)[:, None]
        Y = np.asarray(ys, dtype=float)[None, :]
        if self.vector_fn is not None:
            with np.errstate(all="ignore"):
                return np.asarray(self.vector_fn(X, Y), dtype=float)
        out = np.empty((X.shape[0], Y.shape[1]), dtype=float)
        for i, x in enumerate(X[:, 0]):
            for j, y in enumerate(Y[0, :]):
                out[i, j] = self.fn(float(x), float(y))
        return out

    def section_at_x(self, x: float) -> RealFunction:
        fn = self.fn
        vec = self.vector_fn
        vector = None
        if vec is not None:
            def vector(ys, _x=float(x)):
                with np.errstate(all="ignore"):
                    return np.asarray(vec(np.full_like(np.asarray(ys, float), _x),
                                          np.asarray(ys, float)), dtype=float)
        return RealFunction(lambda y, _x=float(x): fn(_x, y),
                            label=f"{self.label}({x}, .)", vector_fn=vector)

    def transposed(self) -> "BivariateFunction":
        fn = self.fn
        vec = self.vector_fn
        tvec = None if vec is None else (lambda xs, ys: vec(ys, xs))
        return BivariateFunction(lambda x, y: fn(y, x),
                                 label=f"{self.label}^T", vector_fn=tvec)


def bivariate(f: Union[BivariateFunction, Callable[[float, float], float]],
              label: str = "") -> BivariateFunction:
    if isinstance(f, BivariateFunction):
        return f
    return BivariateFunction(f, label=label or getattr(f, "__name__", ""))


@dataclass(frozen=True)
class TailBound:
    """Truncation certificate for the special infinite case at a given b.

    The constants are computed at startup, not hard-coded: c_gauss is the
    half-line Gaussian integral, c0 = max_{x>=1} x**3 exp(-x**2),
    c1 = max_{x>=0} x exp(-x**2), and c2 is the smallest power of two
    dominating the inner-integral profile z**(4/3) / (2 (1 + z**2)) on a
    grid.  bound_A and bound_B are the two truncation tail estimates
    instantiated at this b.
    """

    b: float
    c_gauss: float
    c0: float
    c1: float
    c2: float
    bound_A: float
    bound_B: float


@dataclass(frozen=True)
class IteratedIntegralReport:
    value_xy: float
    value_yx: float
    discrepancy: float
    truncation: float
    holds: bool
    tail_certificate: Optional[TailBound] = None
    analytic_tail: Optional[float] = None
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
    T_k comes from one running sum of node values per row, so no mesh of
    values is kept.  Every row stalls on its own gaps below the builder
    tolerance and drops out of the evaluation, so a value depends on its
    outer node alone, never on which nodes share its batch.
    """
    c, d = y_iv.a, y_iv.b
    length = d - c
    target = cfg.target_uniform_gap * length
    # inner values must be accurate, or outer refinement sees a noise
    # floor; hence the deeper minimum level and the three-gap stall
    # (narrow features hide from coarse dyadic meshes longer than wide ones)
    min_level = max(cfg.min_refinement, 8)
    out = np.empty(len(xs), dtype=float)

    for start in range(0, len(xs), _INNER_CHUNK):
        index = np.arange(start, min(start + _INNER_CHUNK, len(xs)))
        # the kernel evaluates lazily, so it sees the active rows of the
        # level it is asked for
        rows = xs[index]
        levels = _dyadic_levels(lambda ys: f.grid(rows, ys), c, d,
                                cfg.max_refinement, f.label)
        gaps: List[np.ndarray] = []
        for level, _ys, new in levels:
            h = math.ldexp(length, -level)
            if level == 0:
                ends = new[:, 0] + new[:, -1]
                sums = ends.copy()
                # two nodes carry no quadratic: level 0's value is T_0
                trapezoid = value = 0.5 * h * ends
                continue
            sums += new.sum(axis=1)
            refined = h * (sums - 0.5 * ends)
            simpson = (4.0 * refined - trapezoid) / 3.0
            gaps.append(np.abs(simpson - value))
            trapezoid, value = refined, simpson
            done = _stalled(gaps, target, 3, min_level)
            if done.any():
                out[index[done]] = value[done]
                keep = ~done
                if not keep.any():
                    break
                index, rows, ends, sums, trapezoid, value = (
                    v[keep] for v in (index, rows, ends, sums, trapezoid,
                                      value))
                gaps = [g[keep] for g in gaps]
        else:
            raise RefinementExhausted(
                f"inner integrals did not stall within "
                f"{cfg.max_refinement} refinements")
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

def special_integrand() -> BivariateFunction:
    """f(x, z) = x exp(-x^2 (1 + z^2)) = x exp(-x^2) exp(-x^2 z^2)."""
    return BivariateFunction(
        lambda x, z: x * math.exp(-x * x * (1.0 + z * z)),
        label="x exp(-x^2 (1+z^2))",
        vector_fn=lambda xs, zs: xs * np.exp(-xs * xs * (1.0 + zs * zs)))


@lru_cache(maxsize=None)
def gaussian_half_line_built() -> float:
    """Half-line integral of exp(-x^2) via a built antiderivative.

    The whole ray (0, inf) is built by ray_integral at exp(-x^2)'s width
    s = 1, so no tail is discarded.
    """
    return ray_integral(
        RealFunction(lambda x: math.exp(-x * x), label="exp(-x^2)",
                     vector_fn=lambda xs: np.exp(-xs * xs)),
        0.0, 1.0, BuildConfig(target_uniform_gap=1e-10))


def _golden_max(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Maximum of a unimodal function by golden-section search."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(200):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    return max(fn(x), fc, fd)


@lru_cache(maxsize=None)
def tail_constants() -> Tuple[float, float, float, float]:
    """(c_gauss, c0, c1, c2), computed numerically at first use.

    c2 is the smallest power of two with inner(z) < c2 * z**(-4/3) over a
    log grid on [1, 1e4]; the inner profile comes from the closed-form
    antiderivative -exp(-x^2 (1+z^2)) / (2 (1+z^2)).
    """
    c = gaussian_half_line_built()
    c0 = _golden_max(lambda x: x ** 3 * math.exp(-x * x), 1.0, 6.0)
    c1 = _golden_max(lambda x: x * math.exp(-x * x), 0.0, 4.0)

    def inner_profile(z: float) -> float:
        return newton_integral(pair_from_inner_closed_form(z)).value

    zs = np.geomspace(1.0, 1e4, 129)
    ratios = [inner_profile(float(z)) * z ** (4.0 / 3.0) for z in zs]
    worst = max(ratios)
    exponent = math.ceil(math.log2(worst))
    c2 = 2.0 ** exponent
    if not worst < c2:
        c2 *= 2.0
    return c, float(c0), float(c1), float(c2)


def pair_from_inner_closed_form(z: float) -> PrimitivePair:
    """PrimitivePair for x -> x exp(-x^2 (1+z^2)) on (0, inf) at fixed z."""
    s = 1.0 + z * z

    def integrand(x: float) -> float:
        return x * math.exp(-x * x * s)

    def primitive(x: float) -> float:
        return -math.exp(-x * x * s) / (2.0 * s)

    return PrimitivePair(
        RealFunction(integrand, vector_fn=lambda xs: xs * np.exp(-xs * xs * s)),
        RealFunction(primitive,
                     vector_fn=lambda xs: -np.exp(-xs * xs * s) / (2.0 * s)),
        Interval(0.0, math.inf))


def bound_A_at(b: float) -> float:
    c, c0, _c1, _c2 = tail_constants()
    return c * b ** -0.5 + b * math.exp(-math.sqrt(b)) \
        + c0 * (1.0 + math.exp(-1.0)) / b


def bound_B_at(b: float) -> float:
    _c, _c0, _c1, c2 = tail_constants()
    return (b * b + b) * math.exp(-b) + 3.0 * c2 * b ** (-1.0 / 3.0)


def _special_cfg(b: float) -> BuildConfig:
    # the two orders must agree to ~1e-8 at small b; at larger b the
    # truncated values only feed tail-bound certificates with 1e-1-scale
    # slack (the truncation gap itself decays like b**-1/2, so chasing
    # digits there buys nothing)
    gap = 5e-8 if b <= 2.0 else 1e-5
    return BuildConfig(target_uniform_gap=gap, probe_grid=129,
                       min_refinement=6)


@lru_cache(maxsize=64)
def special_infinite_fubini(b: float) -> IteratedIntegralReport:
    """Truncated iterated integrals of the special function plus certificates.

    A(b) and B(b) are the two orders over [0, b]^2; the full value is the
    square of the half-line Gaussian integral.  The report holds when the
    measured truncation gaps sit inside the certificate's tail bounds.
    Results are cached; the computation is pure.
    """
    if not b >= 1.0:
        raise ValueError("b must be at least 1")
    cfg = _special_cfg(b)
    f = special_integrand()
    a_b = iterated_rectangle(f, (0.0, b), (0.0, b), "xy", cfg)
    b_b = iterated_rectangle(f, (0.0, b), (0.0, b), "yx", cfg)
    c, c0, c1, c2 = tail_constants()
    full = c * c
    cert = TailBound(b=b, c_gauss=c, c0=c0, c1=c1, c2=c2,
                     bound_A=bound_A_at(b), bound_B=bound_B_at(b))
    holds = (abs(full - a_b) <= cert.bound_A
             and abs(full - b_b) <= cert.bound_A + cert.bound_B)
    return IteratedIntegralReport(
        value_xy=a_b, value_yx=b_b, discrepancy=abs(a_b - b_b),
        truncation=b, tail_certificate=cert, full_value=full, holds=holds)


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
    {max(x,y) > b}).  Returns the final report plus the (b, xy, yx) history.
    """
    f = bivariate(f)
    schedule = sorted(float(b) for b in truncation_schedule)
    if not schedule:
        raise ValueError("truncation_schedule must be nonempty")
    _check_decay(f, c, schedule[-1], rng)
    history: List[Tuple[float, float, float]] = []
    for b in schedule:
        vxy = iterated_rectangle(f, (0.0, b), (0.0, b), "xy", _DECAY_CFG)
        vyx = iterated_rectangle(f, (0.0, b), (0.0, b), "yx", _DECAY_CFG)
        history.append((b, vxy, vyx))
    b_last, vxy, vyx = history[-1]
    tail = 2.0 * c / b_last
    report = IteratedIntegralReport(
        value_xy=vxy, value_yx=vyx, discrepancy=abs(vxy - vyx),
        truncation=b_last, analytic_tail=tail,
        holds=abs(vxy - vyx) <= max(1e-6, 2.0 * tail))
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
        xs = np.asarray(xs, dtype=float)
        return np.exp(-xs) * unit + _ridge_excess(xs)

    return RealFunction(lambda x: float(vector(np.array([x]))[0]),
                        label="counterexample inner over y", vector_fn=vector)


@dataclass(frozen=True)
class CounterexampleReport:
    truncation: float
    order_xy_value: float
    order_yx_partial: float


_CE_CFG = BuildConfig(target_uniform_gap=1e-8)


@lru_cache(maxsize=64)
def asymmetry_counterexample(X: float) -> CounterexampleReport:
    """Evaluate both orders of the witness family truncated at X.

    The y-inner/x-outer value stabilizes as X grows (the inner values are
    dominated by 2 e^-x); the x-inner integral along the section y = 1
    equals X and therefore diverges with the truncation.  Results are
    cached; the computation is pure.
    """
    if not X >= 1.0:
        raise ValueError("X must be at least 1")
    inner = _counterexample_inner_xy()
    P = build_primitive(inner, (0.0, X), _CE_CFG)
    xy_value = float(P.evaluate(X))

    line = counterexample_family().transposed().section_at_x(1.0)
    P_line = build_primitive(line, (0.0, X), _CE_CFG)
    yx_partial = float(P_line.evaluate(X))
    return CounterexampleReport(truncation=X, order_xy_value=xy_value,
                                order_yx_partial=yx_partial)


def counterexample_section_integral(y: float) -> float:
    """Integral over x in (0, 60) of the witness at a fixed y.

    Finite for every y != 1 (the ridge width decays), and growing without
    bound in the truncation at y = 1.
    """
    upper = 60.0
    section = counterexample_family().transposed().section_at_x(y)
    P = build_primitive(section, (0.0, upper), _CE_CFG)
    return float(P.evaluate(upper))
