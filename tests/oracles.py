"""Independent oracles the tests check the library against.

Each oracle deliberately avoids the code path it validates: series where
the library uses meshes, midpoint grids where it uses interpolant
antiderivatives, exact arithmetic where it uses limits.
"""

import math

import numpy as np


def exp_neg_square_series_01() -> float:
    """Integral of exp(-x^2) over [0, 1] by the alternating power series."""
    total = 0.0
    k = 0
    while True:
        term = (-1.0) ** k / (math.factorial(k) * (2 * k + 1))
        total += term
        if abs(term) < 1e-18:
            return total
        k += 1


# frozen from the series above (and used where a literal is clearer)
EXP_NEG_SQUARE_01 = 0.746824132812427
EXP_NEG_SQUARE_SQUARED = 0.5577462853510335


def gauss_half_line_midpoint(T: float = 10.0, n: int = 2_000_000) -> float:
    """Truncated midpoint-rule sum for the half-line Gaussian integral."""
    h = T / n
    xs = (np.arange(n) + 0.5) * h
    return float(np.sum(np.exp(-xs * xs)) * h)


def quarter_plane_inv_quartic_midpoint(b: float, m: int = 4000) -> float:
    """Dense midpoint grid for 1/(1+x^2+y^2)^2 over [0, b]^2."""
    h = b / m
    g = (np.arange(m) + 0.5) * h
    X, Y = np.meshgrid(g, g, sparse=True)
    return float(np.sum(1.0 / (1.0 + X * X + Y * Y) ** 2) * h * h)


def cos_by_power_series(x: float) -> float:
    """Cosine summed from its power series to convergence."""
    total = 0.0
    term = 1.0
    k = 0
    while abs(term) > 1e-20:
        total += term
        k += 1
        term *= -x * x / ((2 * k - 1) * (2 * k))
    return total


def ridge_excess_by_bisection(x: float) -> float:
    """The order-asymmetry witness's ridge excess at x, in scalar floats.

    The integral over y of max(0, 1 - |y - 1| e^x - e^(-x-y)): with
    y = 1 + w t, w = e^-x and C = e^(-x-1), it is w times the integral of
    g(t) = (1 - |t|) - C e^(-w t) over the interval [t-, t+] where g > 0.
    Each crossing is bisected 200 times with math.exp, far past adjacent
    floats; the tent and exponential pieces are then integrated exactly.
    """
    w = math.exp(-x)
    C = math.exp(-x - 1.0)
    if w == 0.0:
        # x > 745: the excess is below 2 e^-x, which is 0 in binary64
        return 0.0

    def g(t: float) -> float:
        return (1.0 - abs(t)) - C * math.exp(-w * t)

    def crossing(outside: float, inside: float) -> float:
        # g(outside) <= 0 < g(inside)
        for _ in range(200):
            mid = 0.5 * (outside + inside)
            if g(mid) > 0.0:
                inside = mid
            else:
                outside = mid
        return 0.5 * (outside + inside)

    t_minus = crossing(-1.0, 0.0)
    t_plus = crossing(1.0, 0.0)
    tent = (-t_minus - 0.5 * t_minus ** 2) + (t_plus - 0.5 * t_plus ** 2)
    expo = C * math.exp(-w * t_minus) \
        * -math.expm1(-w * (t_plus - t_minus)) / w
    return w * (tent - expo)


def special_truncated_midpoint(b: float, n: int = 200_000) -> float:
    """Integral of x exp(-x^2 (1 + z^2)) over [0, b]^2.

    The inner integral over x in closed form,
    (1 - exp(-b^2 (1 + z^2))) / (2 (1 + z^2)), then a midpoint rule in z.
    """
    h = b / n
    s = 1.0 + ((np.arange(n) + 0.5) * h) ** 2
    return float(np.sum(-np.expm1(-b * b * s) / (2.0 * s)) * h)
