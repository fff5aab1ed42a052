import math

import numpy as np
import pytest

from newton_calc.sums import incomplete_stirling
from newton_calc.wallis import (determine_stirling_constant,
                                log_wallis_closed_form, sandwich_scan,
                                three_way, wallis_closed_form,
                                wallis_integral, wallis_recurrence)

from oracles import cos_by_power_series


def test_recurrence_seeds():
    assert wallis_recurrence(0) == math.pi / 2
    assert wallis_recurrence(1) == 1.0


def test_recurrence_two_steps():
    assert wallis_recurrence(4) == pytest.approx(3.0 * math.pi / 16.0,
                                                 rel=1e-15)


def test_integral_values():
    assert wallis_integral(0) == pytest.approx(math.pi / 2, abs=1e-8)
    assert wallis_integral(1) == pytest.approx(1.0, abs=1e-8)
    assert wallis_integral(2) == pytest.approx(math.pi / 4, abs=1e-8)


def test_closed_form_small():
    assert wallis_closed_form(0) == pytest.approx(math.pi / 2, rel=1e-15)
    assert wallis_closed_form(3) == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_closed_form_large_matches_recurrence():
    assert wallis_closed_form(200) == pytest.approx(wallis_recurrence(200),
                                                    rel=1e-9)
    assert wallis_closed_form(2001) > 0.0


def test_three_way_agreement():
    for n in range(0, 31, 5):
        w = three_way(n)
        scale = w.by_recurrence
        assert abs(w.by_integral - w.by_recurrence) <= 1e-9 * scale
        assert abs(w.by_closed_form - w.by_recurrence) <= 1e-9 * scale


def test_ratio_bounds():
    # n/(n+1) <= W_n / W_(n-1) <= 1 within 1e-12, through the closed forms
    def ratio(n):
        return math.exp(log_wallis_closed_form(n)
                        - log_wallis_closed_form(n - 1))

    for n in (2, 3, 10 ** 4):
        assert n / (n + 1.0) - 1e-12 <= ratio(n) <= 1.0 + 1e-12
    assert ratio(2) == pytest.approx((math.pi / 4) / 1.0, rel=1e-12)
    assert ratio(3) == pytest.approx(8.0 / (3.0 * math.pi), rel=1e-12)
    assert abs(ratio(10 ** 4) - 1.0) <= 1e-4


def test_monotone_decrease():
    values = [wallis_closed_form(n) for n in range(0, 200)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_sandwich_full_scan():
    assert sandwich_scan(100000)


def test_stirling_constant_convergence():
    root = math.sqrt(2.0 * math.pi)
    assert abs(determine_stirling_constant(100) - root) < 1e-2
    assert abs(determine_stirling_constant(10 ** 4) - root) < 1e-4


def test_ratio_chain_identity_with_incomplete_formula():
    # substituting d_n = n! / (sqrt(n) (n/e)^n) into the closed forms gives
    # exactly W_{2n+1} / W_{2n} = (d_n^4 / d_{2n}^2) * (2n/(2n+1)) / (2 pi);
    # the 2n/(2n+1) factor is what the asymptotic chain absorbs into 1 + o(1)
    for n in (10, 250, 4000):
        ratio = math.exp(log_wallis_closed_form(2 * n + 1)
                         - log_wallis_closed_form(2 * n))
        d_n, _ = incomplete_stirling(n)
        d_2n, _ = incomplete_stirling(2 * n)
        expected = (d_n ** 4 / d_2n ** 2) * (2.0 * n / (2.0 * n + 1.0))
        assert ratio * 2.0 * math.pi == pytest.approx(expected, rel=1e-11)


def test_host_cosine_matches_power_series():
    xs = np.linspace(0.0, math.pi / 2, 20)
    for x in xs:
        assert abs(math.cos(x) - cos_by_power_series(float(x))) <= 1e-12
