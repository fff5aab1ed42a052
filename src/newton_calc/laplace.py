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

Order constants in the concentration and reduction steps are calibrated
empirically at the smallest usable n and then asserted, never loosened, at
larger n.
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
from .fubini import pair_from_inner_closed_form
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
    """A measured concentration piece exceeded its calibrated bound."""


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
    bulk, rel_correction_bound the allowance for I2 / main_term - 1, and
    tail_bound the exp(-n delta^2 / 2) unit the tail pieces are measured in.
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

# nominal precondition is n * delta**3 < 1/2; the calibration point
# (n = 25 at epsilon = 0.3) sits at 0.526, so the gate admits it
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
        ys = np.asarray(ys, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.exp(n * (np.log1p(ys) - ys))
        return np.where(ys <= -1.0, 0.0, out)

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


@lru_cache(maxsize=None)
def _calibration() -> Tuple[float, float]:
    """(tail constant, correction constant), fixed at n = 25, eps = 0.3.

    Never loosened afterwards: larger n must fit under the same constants.
    """
    cal = LaplaceConfig(epsilon=0.3, n=25)
    I1, I2, I3, I4, main, _full = _concentrate_raw(cal)
    tail_ratio = max(I1, I3, I4) / cal.tail_scale
    r_ratio = abs(I2 / main - 1.0) / cal.n_delta_cubed
    return (max(1.0, math.ceil(tail_ratio)), max(1.0, math.ceil(r_ratio)))


def concentrate(cfg: LaplaceConfig) -> ConcentrationBudget:
    """Measure the four-piece decomposition and check it against budget.

    Raises BudgetViolation when a tail piece exceeds its calibrated
    multiple of exp(-n delta^2 / 2) or the bulk's relative correction
    exceeds its calibrated multiple of n delta^3.
    """
    if not cfg.n_delta_cubed < _N_DELTA_CUBED_CAP:
        raise ValueError(
            f"n * delta^3 = {cfg.n_delta_cubed:.3f} is not a small "
            f"parameter (needs < {_N_DELTA_CUBED_CAP})")
    c_tail, c_r = _calibration()
    I1, I2, I3, I4, main, full = _concentrate_raw(cfg)
    tail_scale = cfg.tail_scale
    r = I2 / main - 1.0
    slack = 1.0 + 1e-9
    for name, piece in (("I1", I1), ("I3", I3), ("I4", I4)):
        if piece > c_tail * tail_scale * slack:
            raise BudgetViolation(
                f"{name} = {piece:.3e} exceeds {c_tail} * exp(-n d^2/2) "
                f"= {c_tail * tail_scale:.3e} at n = {cfg.n}")
    if abs(r) > c_r * cfg.n_delta_cubed * slack:
        raise BudgetViolation(
            f"|r| = {abs(r):.3e} exceeds {c_r} * n delta^3 "
            f"= {c_r * cfg.n_delta_cubed:.3e} at n = {cfg.n}")
    return ConcentrationBudget(
        I1=I1, I2=I2, I3=I3, I4=I4, main_term=main,
        rel_correction_bound=c_r * cfg.n_delta_cubed,
        tail_bound=tail_scale, measured_r=r, full_value=full)


# ---------------------------------------------------------------------------
# reduction to the Gaussian integral
# ---------------------------------------------------------------------------

def reduce_to_gauss(cfg: LaplaceConfig) -> IdentityReport:
    """Check the bulk equals sqrt(2/n) * Gauss minus the two outer tails.

    The outer tail I6 over (delta, inf) is built on the whole ray, at the
    scale 1 / (n delta) over which exp(-n y^2 / 2) decays beyond delta.
    """
    n, d = cfg.n, cfg.delta
    g = _gaussian(n)
    lhs = _piece(g, -d, d)
    I6 = ray_integral(g, d, 1.0 / (n * d), _PIECE_CFG)
    rhs = math.sqrt(2.0 / n) * gauss_integral() - 2.0 * I6
    c_tail, _ = _calibration()
    tolerance = max(c_tail * cfg.tail_scale, 1e-10)
    return IdentityReport.equality(lhs, rhs, tolerance)


# ---------------------------------------------------------------------------
# the Gaussian integral by iterated integration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gauss_quarter() -> float:
    """The squared half-line Gaussian integral, i.e. pi/4, by the chain.

    The iterated-integral step swaps the orders for
    x exp(-x^2 (1 + z^2)); the inner integral has the closed-form
    antiderivative -exp(-x^2 (1+z^2)) / (2 (1+z^2)); the outer is then
    half of 1/(1+v^2), whose antiderivative is the arctangent.
    """

    def inner_value(v: float) -> float:
        return newton_integral(pair_from_inner_closed_form(v)).value

    outer = PrimitivePair(
        RealFunction(inner_value, label="inner Gaussian slice"),
        RealFunction(lambda v: 0.5 * math.atan(v),
                     vector_fn=lambda vs: 0.5 * np.arctan(vs)),
        Interval(0.0, math.inf))
    return newton_integral(outer).value


@lru_cache(maxsize=None)
def gauss_integral() -> float:
    """The full-line integral of exp(-t^2), which equals sqrt(pi).

    The full-line value is twice the half-line value by the flipping
    substitution t -> -t.  fubini.special_infinite_fubini checks the order
    swap numerically at finite truncations.
    """
    return 2.0 * math.sqrt(_gauss_quarter())


# ---------------------------------------------------------------------------
# final assembly
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _laplace_bound_constant(epsilon: float) -> float:
    # err(n) * n**(1/2 - eps) decreases in n (the true error falls like
    # 1/n), so calibrating at n = 1 gives a constant valid for every n;
    # the 1 + 1e-9 keeps the calibration point itself inside its own
    # bound after the power-law round trip
    err = abs(log_factorial(1) - _laplace_log_main(1))
    return err * (1.0 + 1e-9)


def _laplace_log_main(n: int) -> float:
    G = gauss_integral()
    return -n + (n + 1.0) * math.log(n) + 0.5 * math.log(2.0 / n) + math.log(G)


def stirling_via_laplace(n: int, epsilon: float = 0.3) -> AsymptoticRecord:
    """log n! versus the concentration main term, with an n**(eps - 1/2) bound.

    The main term is exp(-n) n**(n+1) sqrt(2/n) times the Gaussian
    integral, assembled in log space.  The number rests on
    gauss_integral() alone: concentrate and reduce_to_gauss, which justify
    dropping the correction and tail pieces, are not evaluated here.  The
    bound constant is calibrated once at n = 1 per epsilon from the
    record's own error, not from the measured pieces.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 1/2)")
    exact = log_factorial(n)
    approx = _laplace_log_main(n)
    C = _laplace_bound_constant(epsilon)
    return AsymptoticRecord(
        n=n, log_factorial_exact=exact, approximation=approx,
        abs_error=abs(exact - approx),
        predicted_bound=C * float(n) ** (epsilon - 0.5))
