"""Factorials by concentration: the gamma integral route to the asymptotics.

The chain: n! is the integral of x**n exp(-x) over (0, inf); centering by
x = n(1 + y) turns it into exp(-n) n**(n+1) times the integral of
(exp(-y)(1+y))**n over (-1, inf); that mass concentrates in (-delta, delta)
with delta = n**(-1/2 + eps/3); the bulk reduces to the Gaussian integral
scaled by sqrt(2/n); and the Gaussian integral itself falls to iterated
integration plus an arctangent antiderivative, no error function needed.
concentrate and reduce_to_gauss check the middle steps; stirling_via_laplace
uses the main term alone, so its number rests on gauss_integral only.
Every built integral over a ray is builder.ray_integral's, cut nowhere.

Every bound checked here is proven, not fitted: concentrate's four piece
bounds, reduce_to_gauss's tolerance and stirling_via_laplace's constant
1/12 are closed forms, each derived where it is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Tuple

import numpy as np

from .builder import BuildConfig, build_primitive, ray_integral
from .core import (Interval, NewtonCalcError, PRECISE_LIMIT_CONFIG,
                   RealFunction)
from .engine import IdentityReport, PrimitivePair, newton_integral
from .functions import factorial_product, gamma_pair
from .sums import AsymptoticRecord, log_factorial

__all__ = [
    "LaplaceConfig",
    "ConcentrationBudget",
    "BudgetViolation",
    "GammaOverflow",
    "gamma_integral",
    "centered_integrand",
    "concentrate",
    "reduce_to_gauss",
    "gauss_integral",
    "stirling_via_laplace",
]


class BudgetViolation(NewtonCalcError):
    """A measured concentration piece exceeded its proven bound."""


class GammaOverflow(NewtonCalcError):
    """The linear-space factorial value overflows binary64.

    The log-space value is carried on the exception.
    """

    def __init__(self, message: str, log_value: float):
        super().__init__(message)
        self.log_value = log_value


@dataclass(frozen=True)
class LaplaceConfig:
    """Concentration parameters: delta = n**(-1/2 + epsilon/3)."""

    epsilon: float
    n: int
    delta: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 1/2)")
        if self.n < 1:
            raise ValueError("n must be positive")
        delta = float(self.n) ** (-0.5 + self.epsilon / 3.0)
        if not 0.0 < delta < 1.0:
            raise ValueError(
                f"derived delta = {delta!r} must lie in (0, 1); "
                f"n = {self.n} is too small for epsilon = {self.epsilon}")
        object.__setattr__(self, "delta", delta)

    @property
    def n_delta_cubed(self) -> float:
        return self.n * self.delta ** 3

    @property
    def tail_scale(self) -> float:
        return math.exp(-self.n * self.delta ** 2 / 2.0)


@dataclass(frozen=True)
class ConcentrationBudget:
    """The four-piece decomposition of the centered integral.

    I2 is the bulk over (-delta, delta); I1, I3, I4 are the tails over
    (-1, -delta), (delta, 4) and (4, inf).  main_term is the pure Gaussian
    bulk, rel_correction_bound the proven bound on |I2 / main_term - 1|,
    and tail_bound T = exp(-n delta^2 / 2), the scale of the tail pieces'
    bounds (see concentrate).
    """

    I1: float
    I2: float
    I3: float
    I4: float
    main_term: float
    rel_correction_bound: float
    tail_bound: float
    measured_r: float
    full_value: float


# the decomposition point where 1 + y <= exp(y/2) starts to hold
_OUTER_SPLIT = 4.0

# the paper's precondition is n * delta**3 < 1/2; concentrate's bounds are
# proven for every delta in (0, 1), so the cap only keeps n delta^3 a small
# parameter; 0.75 admits n = 25 at epsilon = 0.3 (0.526) and n = 2 at
# epsilon = 0.05 (0.731), beyond the paper's 1/2, and the bounds hold there
_N_DELTA_CUBED_CAP = 0.75

_PIECE_CFG = BuildConfig(target_uniform_gap=1e-10, probe_grid=129)


def _piece(f: RealFunction, lo: float, hi: float) -> float:
    P = build_primitive(f, (lo, hi), _PIECE_CFG)
    return float(P.evaluate(hi))


# ---------------------------------------------------------------------------
# the gamma integral
# ---------------------------------------------------------------------------

def gamma_integral(n: int, mode: str = "exact_primitive") -> float:
    """n! as the Newton integral of x**n exp(-x) over (0, inf).

    exact_primitive evaluates the closed-form antiderivative's endpoint
    limits (machine precision for every n up to 170, where n! overflows;
    F_n(+inf) is the ray limit at t = 1- of F_n(t / (1 - t)), and F_n
    stays finite past the overflow of its Horner sum).  numeric builds
    the whole ray with ray_integral at scale s = n + 1, the integrand's
    mean, as exp(n log x - x) so that x**n cannot overflow; up to
    n = 168 (at 169 the built cubic's divided differences overflow).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if mode == "exact_primitive":
        if n > 170:
            raise GammaOverflow(
                f"{n}! overflows binary64; log-space value supplied",
                log_value=log_factorial(n))
        return newton_integral(gamma_pair(n), PRECISE_LIMIT_CONFIG).value
    if mode != "numeric":
        raise ValueError("mode must be 'exact_primitive' or 'numeric'")
    if n > 168:
        raise ValueError("numeric mode builds n! only up to n = 168; "
                         "use exact_primitive")
    # the gap target is scaled to the answer: a 1e-7 relative stall leaves
    # quadrature error two orders under the 1e-6 numeric-mode contract
    cfg = BuildConfig(
        target_uniform_gap=max(1e-7 * factorial_product(n), 1e-12))

    def integrand(x: float) -> float:
        return math.exp(n * math.log(x) - x) if x > 0.0 else float(n == 0)

    f = RealFunction(
        integrand, label=f"x^{n} exp(-x)",
        vector_fn=lambda xs: np.where(xs > 0.0, np.exp(n * np.log(xs) - xs),
                                      float(n == 0)))
    return ray_integral(f, 0.0, n + 1.0, cfg)


# ---------------------------------------------------------------------------
# centering and concentration
# ---------------------------------------------------------------------------

def centered_integrand(n: int) -> RealFunction:
    """(exp(-y)(1+y))**n on (-1, inf), evaluated as exp(n(log1p(y) - y)).

    Checks the shape at sampled points: increasing on [-1, 0], decreasing
    on [0, inf), maximum value 1 at y = 0.
    """
    if n < 1:
        raise ValueError("n must be positive")

    def scalar(y: float) -> float:
        if y <= -1.0:
            return 0.0
        return math.exp(n * (math.log1p(y) - y))

    def vector(ys: np.ndarray) -> np.ndarray:
        # log1p(-1) = -inf, under many's errstate
        return np.where(ys <= -1.0, 0.0, np.exp(n * (np.log1p(ys) - ys)))

    f = RealFunction(scalar, label=f"(exp(-y)(1+y))^{n}", vector_fn=vector)

    rising = f.many(np.linspace(-1.0, 0.0, 33))
    falling = f.many(np.linspace(0.0, 8.0, 33))
    if not (np.all(np.diff(rising) >= -1e-12)
            and np.all(np.diff(falling) <= 1e-12)
            and abs(f(0.0) - 1.0) <= 1e-15):
        raise NewtonCalcError("centered integrand failed its shape check")
    return f


def _gaussian(n: int) -> RealFunction:
    """y -> exp(-n y^2 / 2), the Gaussian the bulk reduces to."""
    return RealFunction(lambda y: math.exp(-n * y * y / 2.0),
                        vector_fn=lambda ys: np.exp(-n * ys * ys / 2.0))


def _concentrate_raw(cfg: LaplaceConfig) -> Tuple[float, float, float, float,
                                                  float, float]:
    f = centered_integrand(cfg.n)
    d = cfg.delta
    I1 = _piece(f, -1.0, -d)
    I2 = _piece(f, -d, d)
    I3 = _piece(f, d, _OUTER_SPLIT)
    # widths beyond the ray's start: the tail decays at rate 0.8 n at y = 4,
    # and all but a (2/e)**n share of the whole mass lies in (-1, 1)
    I4 = ray_integral(f, _OUTER_SPLIT, 1.0 / cfg.n, _PIECE_CFG)
    main = _piece(_gaussian(cfg.n), -d, d)
    full = ray_integral(f, -1.0, 2.0, _PIECE_CFG)
    return I1, I2, I3, I4, main, full


def concentrate(cfg: LaplaceConfig) -> ConcentrationBudget:
    """Measure the four-piece decomposition and check it against budget.

    The integrand is exp(n phi(y)) with phi(y) = log(1 + y) - y; write
    T = exp(-n delta^2 / 2).  Raises BudgetViolation when a piece exceeds
    its proven bound:
    - I1 <= T / (n delta): phi(-u) <= -u^2 / 2, and the Mills ratio gives
      the integral of exp(-n u^2 / 2) over (delta, inf) <= T / (n delta);
    - I3 <= T exp(n delta^3 / 3) (1 + delta) / (n delta): phi is concave,
      so it lies below its tangent at delta, of slope -delta / (1 + delta),
      and phi(delta) <= -delta^2 / 2 + delta^3 / 3;
    - I4 <= (2 / n) exp(-2n): 1 + y <= exp(y / 2) for y >= 4;
    - |I2 / main_term - 1| <= expm1(n delta^3 / (3 (1 - delta))):
      |phi(y) + y^2 / 2| <= |y|^3 / (3 (1 - |y|)) on the bulk.
    """
    if not cfg.n_delta_cubed < _N_DELTA_CUBED_CAP:
        raise ValueError(
            f"n * delta^3 = {cfg.n_delta_cubed:.3f} is not a small "
            f"parameter (needs < {_N_DELTA_CUBED_CAP})")
    I1, I2, I3, I4, main, full = _concentrate_raw(cfg)
    n, d, T = cfg.n, cfg.delta, cfg.tail_scale
    r = I2 / main - 1.0
    r_bound = math.expm1(cfg.n_delta_cubed / (3.0 * (1.0 - d)))
    slack = 1.0 + 1e-9
    for name, piece, bound in (
            ("I1", I1, T / (n * d)),
            ("I3", I3, T * math.exp(cfg.n_delta_cubed / 3.0) * (1.0 + d)
             / (n * d)),
            ("I4", I4, 2.0 / n * math.exp(-2.0 * n)),
            ("|r|", abs(r), r_bound)):
        if piece > bound * slack:
            raise BudgetViolation(
                f"{name} = {piece:.3e} exceeds its bound {bound:.3e} "
                f"at n = {n}")
    return ConcentrationBudget(
        I1=I1, I2=I2, I3=I3, I4=I4, main_term=main,
        rel_correction_bound=r_bound, tail_bound=T, measured_r=r,
        full_value=full)


# ---------------------------------------------------------------------------
# reduction to the Gaussian integral
# ---------------------------------------------------------------------------

def reduce_to_gauss(cfg: LaplaceConfig) -> IdentityReport:
    """Check the bulk equals sqrt(2/n) * Gauss minus the two outer tails.

    The outer tail I6 over (delta, inf) is built on the whole ray, at the
    scale 1 / (n delta) over which exp(-n y^2 / 2) decays beyond delta.
    The tolerance is I6's Mills bound exp(-n delta^2 / 2) / (n delta), at
    least 1e-10, the pieces' gap target.
    """
    n, d = cfg.n, cfg.delta
    g = _gaussian(n)
    lhs = _piece(g, -d, d)
    I6 = ray_integral(g, d, 1.0 / (n * d), _PIECE_CFG)
    rhs = math.sqrt(2.0 / n) * gauss_integral() - 2.0 * I6
    return IdentityReport.equality(lhs, rhs,
                                   max(cfg.tail_scale / (n * d), 1e-10))


# ---------------------------------------------------------------------------
# the Gaussian integral by iterated integration
# ---------------------------------------------------------------------------

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


@lru_cache(maxsize=None)
def gauss_integral() -> float:
    """The full-line integral of exp(-t^2), which equals sqrt(pi).

    The half-line value squared is pi/4 by the chain: swapping the orders
    for x exp(-x^2 (1 + z^2)), the inner integral has the antiderivative
    -exp(-x^2 (1+z^2)) / (2 (1+z^2)), and the outer integrand, half of
    1/(1+v^2), has half the arctangent.  The flip t -> -t doubles the
    half line.  fubini.special_infinite_fubini checks the order swap
    numerically at finite truncations.
    """

    def inner_value(v: float) -> float:
        return newton_integral(pair_from_inner_closed_form(v)).value

    outer = PrimitivePair(
        RealFunction(inner_value, label="inner Gaussian slice"),
        RealFunction(lambda v: 0.5 * math.atan(v),
                     vector_fn=lambda vs: 0.5 * np.arctan(vs)),
        Interval(0.0, math.inf))
    return 2.0 * math.sqrt(newton_integral(outer).value)


# ---------------------------------------------------------------------------
# final assembly
# ---------------------------------------------------------------------------

def stirling_via_laplace(n: int, epsilon: float = 0.3) -> AsymptoticRecord:
    """log n! versus the concentration main term, with an n**(eps - 1/2) bound.

    The main term is exp(-n) n**(n+1) sqrt(2/n) times the Gaussian
    integral, assembled in log space.  The number rests on
    gauss_integral() alone: concentrate and reduce_to_gauss, which justify
    dropping the correction and tail pieces, are not evaluated here.  The
    main term is Stirling's formula with the built G in place of sqrt(pi),
    so the error is Binet's mu(n) up to G's rounding, and
    0 < mu(n) < 1/(12n) <= n**(eps - 1/2) / 12: the bound constant is 1/12.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 1/2)")
    exact = log_factorial(n)
    approx = (-n + (n + 1.0) * math.log(n) + 0.5 * math.log(2.0 / n)
              + math.log(gauss_integral()))
    return AsymptoticRecord(
        n=n, log_factorial_exact=exact, approximation=approx,
        abs_error=abs(exact - approx),
        predicted_bound=float(n) ** (epsilon - 0.5) / 12.0)
