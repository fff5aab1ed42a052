"""Built-in named functions and antiderivative pairs.

The CLI selects integrands by id from this registry instead of parsing
expressions, and the factorial machinery takes its closed-form
antiderivative of x**n * exp(-x) from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .core import BivariateFunction, Interval, NewtonCalcError, RealFunction
from .engine import PrimitivePair

__all__ = [
    "NamedFunction",
    "UnknownFunction",
    "REGISTRY",
    "BIVARIATE_REGISTRY",
    "get_function",
    "get_bivariate",
    "pair_for",
    "factorial_product",
    "gamma_pair",
]


class UnknownFunction(NewtonCalcError):
    """The requested registry id does not exist."""


@dataclass(frozen=True)
class NamedFunction:
    """A registry integrand, labelled by its id, its closed-form
    antiderivative if it has one, and the open intervals (a, b) on which
    that antiderivative holds."""

    fn: RealFunction
    primitive: Optional[RealFunction]
    domains: Tuple[Tuple[float, float], ...]


def _xlogx_minus_x(x: float) -> float:
    return x * math.log(x) - x


def _log1p_primitive(x: float) -> float:
    return (1.0 + x) * math.log1p(x) - x


REGISTRY: Dict[str, NamedFunction] = {}


def _register(id_: str, fn, vec, primitive, pvec,
              domains=((-math.inf, math.inf),)) -> None:
    REGISTRY[id_] = NamedFunction(
        fn=RealFunction(fn, label=id_, vector_fn=vec),
        primitive=None if primitive is None else RealFunction(
            primitive, label=id_ + "-antiderivative", vector_fn=pvec),
        domains=domains)


_register("cos", math.cos, np.cos, math.sin, np.sin)
_register("sin", math.sin, np.sin,
          lambda x: -math.cos(x), lambda xs: -np.cos(xs))
_register("log", math.log, np.log, _xlogx_minus_x,
          lambda xs: xs * np.log(xs) - xs, ((0.0, math.inf),))
_register("log1p", math.log1p, np.log1p, _log1p_primitive,
          lambda xs: (1.0 + xs) * np.log1p(xs) - xs, ((-1.0, math.inf),))
_register("exp-neg", lambda x: math.exp(-x), lambda xs: np.exp(-xs),
          lambda x: -math.exp(-x), lambda xs: -np.exp(-xs))
# no closed-form antiderivative: the CLI builds one on finite intervals
_register("exp-neg-square", lambda x: math.exp(-x * x),
          lambda xs: np.exp(-xs * xs), None, None)
_register("reciprocal-square", lambda x: 1.0 / (x * x),
          lambda xs: 1.0 / (xs * xs),
          lambda x: -1.0 / x, lambda xs: -1.0 / xs,
          ((-math.inf, 0.0), (0.0, math.inf)))
_register("identity", lambda x: x, lambda xs: xs,
          lambda x: 0.5 * x * x, lambda xs: 0.5 * xs * xs)
_register("one", lambda x: 1.0, lambda xs: np.ones_like(xs),
          lambda x: x, lambda xs: xs)
_register("inverse-quadratic", lambda x: 1.0 / (1.0 + x * x),
          lambda xs: 1.0 / (1.0 + xs * xs),
          math.atan, np.arctan)


def get_function(id_: str) -> NamedFunction:
    try:
        return REGISTRY[id_]
    except KeyError:
        raise UnknownFunction(
            f"unknown function id {id_!r}; known ids: "
            f"{', '.join(sorted(REGISTRY))}") from None


def pair_for(id_: str, lo: float, hi: float) -> PrimitivePair:
    """PrimitivePair for a registry id that carries a closed-form
    antiderivative; ValueError where (lo, hi) lies in none of the
    intervals on which that antiderivative holds."""
    nf = get_function(id_)
    if nf.primitive is None:
        raise UnknownFunction(
            f"function {id_!r} has no closed-form antiderivative; "
            f"build one on a finite interval instead")
    iv = Interval(lo, hi)
    if not any(a <= iv.a and iv.b <= b for a, b in nf.domains):
        raise ValueError(
            f"({lo!r}, {hi!r}) lies outside the domain of {id_!r}: "
            + " or ".join(f"({a!r}, {b!r})" for a, b in nf.domains))
    return PrimitivePair(nf.fn, nf.primitive, iv)


# ---------------------------------------------------------------------------
# the closed-form antiderivative of x**n * exp(-x)
# ---------------------------------------------------------------------------

def factorial_product(n: int) -> float:
    """n! as the plain product of 1..n (float; exact for n <= 18)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = 1.0
    for m in range(2, n + 1):
        out *= m
    return out


def gamma_pair(n: int) -> PrimitivePair:
    """(x**n * exp(-x), F_n) on (0, +inf).

    F_n(x) = -exp(-x) * sum_{k=0..n} (n!/k!) x**k, obtained by running
    integration by parts down to zero; differentiating telescopes the sum
    back to x**n exp(-x).  The sum is evaluated by Horner in x; where that
    overflows (x >= 4 at n = 170) it is x**n times a Horner polynomial in
    1/x, with x**n exp(-x) = exp(n log x - x), so F_n stays finite instead
    of exp(-x) * inf = NaN.  Coefficients overflow binary64 past n = 170.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > 170:
        raise OverflowError("coefficients of the closed form overflow "
                            "binary64 beyond n = 170")
    coeffs = [1.0]                      # n!/k! for k = n down to 0
    for k in range(n, 0, -1):
        coeffs.append(coeffs[-1] * k)

    def integrand(x: float) -> float:
        return x ** n * math.exp(-x)

    def primitive(x: float) -> float:
        s = 0.0
        for c in coeffs:                 # descending powers of x
            s = s * x + c
        if s != math.inf:
            return -math.exp(-x) * s
        y = 1.0 / x
        s = 0.0
        for c in reversed(coeffs):       # descending powers of 1/x
            s = s * y + c
        return -math.exp(n * math.log(x) - x) * s

    return PrimitivePair(RealFunction(integrand, label=f"x^{n} exp(-x)"),
                         RealFunction(primitive, label=f"F_{n}"),
                         Interval(0.0, math.inf))


# ---------------------------------------------------------------------------
# bivariate registry for the iterated-integral commands
# ---------------------------------------------------------------------------

BIVARIATE_REGISTRY: Dict[str, BivariateFunction] = {}


def _register2(id_: str, fn, vec) -> None:
    BIVARIATE_REGISTRY[id_] = BivariateFunction(fn, label=id_, vector_fn=vec)


_register2("one2d", lambda x, y: 1.0, lambda xs, ys: np.ones_like(xs * ys))
_register2("plane", lambda x, y: x + y, lambda xs, ys: xs + ys)
_register2("x-ysquared", lambda x, y: x * y * y, lambda xs, ys: xs * ys * ys)
_register2("exp-neg-sum-squares", lambda x, y: math.exp(-x * x - y * y),
           lambda xs, ys: np.exp(-xs * xs - ys * ys))
_register2("cos-x-sin-y", lambda x, y: math.cos(x) * math.sin(y),
           lambda xs, ys: np.cos(xs) * np.sin(ys))
_register2("inverse-quartic",
           lambda x, y: 1.0 / (1.0 + x * x + y * y) ** 2,
           lambda xs, ys: 1.0 / (1.0 + xs * xs + ys * ys) ** 2)
_register2("product-exp", lambda x, y: math.exp(-x - y),
           lambda xs, ys: np.exp(-xs - ys))
_register2("sin-product", lambda x, y: math.sin(x * y),
           lambda xs, ys: np.sin(xs * ys))
_register2("log-bowl", lambda x, y: math.log1p(x * x + y * y),
           lambda xs, ys: np.log1p(xs * xs + ys * ys))
_register2("ridge", lambda x, y: math.exp(-0.25 * (x + y) ** 2),
           lambda xs, ys: np.exp(-0.25 * (xs + ys) ** 2))


def get_bivariate(id_: str) -> BivariateFunction:
    try:
        return BIVARIATE_REGISTRY[id_]
    except KeyError:
        raise UnknownFunction(
            f"unknown bivariate id {id_!r}; known ids: "
            f"{', '.join(sorted(BIVARIATE_REGISTRY))}") from None
