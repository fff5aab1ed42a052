import math

import pytest

from newton_calc.core import LimitConfig
from newton_calc.laplace import (BudgetViolation, GammaOverflow,
                                 LaplaceConfig, centered_integrand,
                                 concentrate, gamma_integral, gauss_half_line,
                                 gauss_integral, reduce_to_gauss,
                                 stirling_via_laplace)
from newton_calc.sums import incomplete_stirling, log_factorial

from oracles import gauss_half_line_midpoint


# ---------------------------------------------------------------------------
# the gamma integral
# ---------------------------------------------------------------------------

def test_gamma_zero_and_five():
    assert gamma_integral(0) == pytest.approx(1.0, rel=1e-12)
    assert gamma_integral(5) == pytest.approx(120.0, rel=1e-12)


def test_gamma_exact_matches_product():
    # every n up to 170: F_n(1) = F_n(2) = F_n(4) = -n! in binary64, and
    # from n = 79 the Horner sum of F_n overflows
    for n in range(0, 171):
        assert gamma_integral(n) == pytest.approx(math.factorial(n),
                                                  rel=1e-12), n


def test_gamma_numeric_twelve():
    v = gamma_integral(12, "numeric")
    assert abs(v - 479001600.0) / 479001600.0 <= 1e-6


def test_gamma_numeric_builds_the_whole_ray_up_to_168():
    # the ray is built whole, so no truncation point limits n; x**n is
    # taken as exp(n log x - x), and 169 overflows the built cubic
    for n in list(range(0, 13)) + [100, 101, 150, 168]:
        assert gamma_integral(n, "numeric") == pytest.approx(
            math.factorial(n), rel=1e-10), n
    with pytest.raises(ValueError, match="168"):
        gamma_integral(169, "numeric")


def test_gamma_overflow_carries_log_value():
    with pytest.raises(GammaOverflow) as info:
        gamma_integral(171)
    assert info.value.log_value == pytest.approx(log_factorial(171),
                                                 rel=1e-14)


# ---------------------------------------------------------------------------
# centering and concentration
# ---------------------------------------------------------------------------

def test_centered_integrand_values():
    for n in (1, 5, 40):
        f = centered_integrand(n)
        assert f(0.0) == 1.0
        assert f(-1.0) == 0.0
    f2 = centered_integrand(2)
    assert f2(1.0) == pytest.approx((2.0 / math.e) ** 2, rel=1e-12)


def test_laplace_config_validation():
    with pytest.raises(ValueError):
        LaplaceConfig(epsilon=0.7, n=100)
    with pytest.raises(ValueError):
        LaplaceConfig(epsilon=0.3, n=1)  # delta would reach 1
    cfg = LaplaceConfig(epsilon=0.3, n=100)
    assert cfg.delta == pytest.approx(100 ** -0.4, rel=1e-15)


def test_concentrate_budgets_hold():
    # the calibrated constants come from n = 25 and must keep holding as
    # n grows; concentrate raises BudgetViolation if they do not
    for n in (25, 100, 400, 1600):
        budget = concentrate(LaplaceConfig(epsilon=0.3, n=n))
        pieces = budget.I1 + budget.I2 + budget.I3 + budget.I4
        assert pieces == pytest.approx(budget.full_value, rel=1e-9)
        assert abs(budget.measured_r) <= budget.rel_correction_bound
        for piece in (budget.I1, budget.I3, budget.I4):
            assert piece <= budget.tail_bound * (1.0 + 1e-9)


def test_concentrate_rejects_large_small_parameter():
    with pytest.raises(ValueError):
        concentrate(LaplaceConfig(epsilon=0.45, n=2))


def test_reduce_to_gauss():
    for n in (25, 100, 400):
        rep = reduce_to_gauss(LaplaceConfig(epsilon=0.3, n=n))
        assert rep.holds
        assert rep.residual <= 10.0 * math.exp(
            -n * LaplaceConfig(epsilon=0.3, n=n).delta ** 2 / 2.0)


def test_reduce_to_gauss_small_n_large_delta():
    rep = reduce_to_gauss(LaplaceConfig(epsilon=0.45, n=2))
    assert rep.holds


def test_reduce_main_term_scaling():
    # the Gaussian main term sqrt(2/n) halves when n quadruples
    assert math.sqrt(2.0 / 400) == pytest.approx(0.5 * math.sqrt(2.0 / 100),
                                                 rel=1e-15)


# ---------------------------------------------------------------------------
# the Gaussian integral
# ---------------------------------------------------------------------------

def test_gauss_value():
    assert abs(gauss_integral() - math.sqrt(math.pi)) <= 1e-9


def test_gauss_quarter_identity():
    half = gauss_half_line()
    assert abs(half * half - math.pi / 4.0) <= 1e-9


def test_gauss_against_midpoint_oracle():
    oracle = gauss_half_line_midpoint()
    assert abs(gauss_integral() / 2.0 - oracle) <= 1e-6


def test_gauss_stable_under_tighter_schedules():
    default = gauss_integral()
    tighter = gauss_integral(cfg=LimitConfig(stall_tolerance=5e-11,
                                             max_steps=120))
    assert abs(default - tighter) < 1e-9


def test_gauss_with_order_swap_verification():
    assert abs(gauss_integral(verify_fubini_at=4.0)
               - math.sqrt(math.pi)) <= 1e-9


# ---------------------------------------------------------------------------
# final assembly
# ---------------------------------------------------------------------------

def test_stirling_via_laplace_ten():
    rec = stirling_via_laplace(10, 0.3)
    rel_err = abs(math.exp(rec.approximation) - 3628800.0) / 3628800.0
    assert rel_err <= rec.predicted_bound * 1.01
    assert rec.abs_error <= rec.predicted_bound


def test_stirling_via_laplace_error_scaling():
    errs = {n: stirling_via_laplace(n, 0.3).abs_error
            for n in (100, 400, 1600)}
    factor = 2.0 ** ((0.5 - 0.3) * 2.0 * 0.9)
    assert errs[100] / errs[400] >= factor
    assert errs[400] / errs[1600] >= factor


def test_stirling_routes_agree():
    for n in (100, 1000, 10000):
        rec_sum = incomplete_stirling(n)[1]
        rec_lap = stirling_via_laplace(n, 0.3)
        allowance = rec_sum.predicted_bound + rec_lap.predicted_bound
        assert abs(rec_sum.approximation - rec_lap.approximation) <= allowance
