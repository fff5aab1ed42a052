"""Reference values computed apart from newton_calc.

Nothing here imports the program or reads a stored copy of its output.
Closed forms use the standard library (``math.erf``, ``math.lgamma``,
``math.factorial``); rectangles without a closed form use composite tensor
Gauss-Legendre rules from ``numpy.polynomial.legendre``.  A 20-node rule on
panels no wider than about 0.5 is exact to rounding for every smooth
integrand used by the benchmark.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

SQRT_PI = math.sqrt(math.pi)

_GL_NODES, _GL_WEIGHTS = leggauss(20)


class CheckFailed(Exception):
    """A program output disagreed with its reference or broke a property."""


def digits(value: float, reference: float, scale: float | None = None) -> float:
    """Correct significant digits of value against reference, capped at 16.

    The error is taken relative to ``scale`` when given (the magnitude the
    computation cancels at), otherwise relative to |reference|.
    """
    err = abs(value - reference)
    base = abs(reference) if scale is None else scale
    if err == 0.0:
        return 16.0
    if base == 0.0:
        return 0.0
    return min(16.0, max(0.0, -math.log10(err / base)))


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(value: float, reference: float, rel: float, what: str,
          scale: float | None = None) -> float:
    """digits(value, reference), raising CheckFailed beyond ``rel``."""
    base = abs(reference) if scale is None else scale
    if not (math.isfinite(value) and abs(value - reference) <= rel * max(base, 1e-300)):
        raise CheckFailed(f"{what}: {value!r} vs reference {reference!r} "
                          f"(relative tolerance {rel:g})")
    return digits(value, reference, scale)


# ---------------------------------------------------------------------------
# one-dimensional closed forms
# ---------------------------------------------------------------------------

def gauss_segment(a: float, b: float) -> float:
    """Integral of exp(-x^2) over [a, b] through math.erf."""
    return 0.5 * SQRT_PI * (math.erf(b) - math.erf(a))


def factorial(n: int) -> float:
    return float(math.factorial(n))


def log_factorial(n: int) -> float:
    return math.lgamma(n + 1.0)


def wallis(n: int) -> float:
    """W_n = (sqrt(pi)/2) Gamma((n+1)/2) / Gamma(n/2 + 1)."""
    return 0.5 * SQRT_PI * math.exp(math.lgamma((n + 1) / 2.0)
                                    - math.lgamma(n / 2.0 + 1.0))


def centered_laplace(n: int) -> float:
    """Integral of (exp(-y)(1+y))^n over (-1, inf) = n! e^n / n^(n+1)."""
    return math.exp(math.lgamma(n + 1.0) + n - (n + 1.0) * math.log(n))


def gaussian_bulk(n: int, delta: float) -> float:
    """Integral of exp(-n y^2 / 2) over (-delta, delta)."""
    return math.sqrt(2.0 * math.pi / n) * math.erf(delta * math.sqrt(n / 2.0))


def stirling_sum_main(n: int) -> float:
    """log of sqrt(2 pi n) (n/e)^n, the incomplete formula with d = sqrt(2 pi)."""
    return n * math.log(n) - n + 0.5 * math.log(n) + 0.5 * math.log(2.0 * math.pi)


def stirling_laplace_main(n: int) -> float:
    """log of e^-n n^(n+1) sqrt(2/n) sqrt(pi)."""
    return -n + (n + 1.0) * math.log(n) + 0.5 * math.log(2.0 / n) + math.log(SQRT_PI)


# ---------------------------------------------------------------------------
# Gauss-Legendre rules
# ---------------------------------------------------------------------------

def gl_rule(a: float, b: float, panel_width: float = 0.5):
    """Nodes and weights of a composite 20-point rule on [a, b]."""
    panels = max(1, math.ceil((b - a) / panel_width))
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


def gl_1d(vec_f, a: float, b: float, panel_width: float = 0.5) -> float:
    x, w = gl_rule(a, b, panel_width)
    return float(np.dot(w, vec_f(x)))


def gl_rectangle(vec_f, x0: float, x1: float, y0: float, y1: float,
                 panel_width: float = 0.5) -> float:
    """Tensor rule for a vectorised f(X, Y) over [x0, x1] x [y0, y1]."""
    x, wx = gl_rule(x0, x1, panel_width)
    y, wy = gl_rule(y0, y1, panel_width)
    return float(wx @ vec_f(x[:, None], y[None, :]) @ wy)


# ---------------------------------------------------------------------------
# rectangles of the bivariate registry
# ---------------------------------------------------------------------------

# the bivariate registry's integrands, written out here, not taken from
# the program
BIVARIATE = {
    "one2d": lambda x, y: np.ones_like(x * y),
    "plane": lambda x, y: x + y,
    "x-ysquared": lambda x, y: x * y * y,
    "exp-neg-sum-squares": lambda x, y: np.exp(-x * x - y * y),
    "cos-x-sin-y": lambda x, y: np.cos(x) * np.sin(y),
    "inverse-quartic": lambda x, y: 1.0 / (1.0 + x * x + y * y) ** 2,
    "product-exp": lambda x, y: np.exp(-x - y),
    "sin-product": lambda x, y: np.sin(x * y),
    "log-bowl": lambda x, y: np.log1p(x * x + y * y),
    "ridge": lambda x, y: np.exp(-0.25 * (x + y) ** 2),
}


def _gl_only(id_):
    return lambda x0, x1, y0, y1: gl_rectangle(BIVARIATE[id_], x0, x1, y0, y1)


# the integral over [x0, x1] x [y0, y1] for each id
RECTANGLE = {
    "one2d": lambda x0, x1, y0, y1: (x1 - x0) * (y1 - y0),
    "plane": lambda x0, x1, y0, y1: (0.5 * (x1 * x1 - x0 * x0) * (y1 - y0)
                                     + 0.5 * (x1 - x0) * (y1 * y1 - y0 * y0)),
    "x-ysquared": lambda x0, x1, y0, y1: (0.5 * (x1 * x1 - x0 * x0)
                                          * (y1 ** 3 - y0 ** 3) / 3.0),
    "exp-neg-sum-squares": lambda x0, x1, y0, y1: (gauss_segment(x0, x1)
                                                   * gauss_segment(y0, y1)),
    "cos-x-sin-y": lambda x0, x1, y0, y1: ((math.sin(x1) - math.sin(x0))
                                           * (math.cos(y0) - math.cos(y1))),
    "product-exp": lambda x0, x1, y0, y1: ((math.exp(-x0) - math.exp(-x1))
                                           * (math.exp(-y0) - math.exp(-y1))),
    "inverse-quartic": _gl_only("inverse-quartic"),
    "sin-product": _gl_only("sin-product"),
    "log-bowl": _gl_only("log-bowl"),
    "ridge": _gl_only("ridge"),
}


def special_truncated(b: float) -> float:
    """Integral of x exp(-x^2 (1 + z^2)) over [0, b]^2.

    The inner integral over x has the closed form
    (1 - exp(-b^2 (1 + z^2))) / (2 (1 + z^2)); the outer one uses the rule.
    """
    def inner(z):
        s = 1.0 + z * z
        return -np.expm1(-b * b * s) / (2.0 * s)
    return gl_1d(inner, 0.0, b, panel_width=0.25)


SPECIAL_FULL = math.pi / 4.0  # (sqrt(pi) / 2)^2
