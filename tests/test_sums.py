import decimal
import math

import numpy as np
import pytest

from newton_calc.core import DecayViolation, RealFunction
from newton_calc.engine import newton_integral
from newton_calc.functions import pair_for
from newton_calc.sums import (NotMonotone, log_factorial,
                              log_factorial_first_expression,
                              log_factorial_table, incomplete_stirling,
                              monotone_sum_vs_integral,
                              stirling_constant_estimate, strip_constant,
                              strip_remainders_upto,
                              tail_bound_by_telescoping, tail_constant)
from newton_calc.wallis import determine_stirling_constant

LOG = RealFunction(math.log, vector_fn=np.log)
LOG_PRIM = RealFunction(lambda x: x * math.log(x) - x,
                        vector_fn=lambda xs: xs * np.log(xs) - xs)


def test_identity_line():
    rep = monotone_sum_vs_integral(lambda x: x, lambda x: 0.5 * x * x, 0, 3)
    assert rep.sum == 6.0
    assert abs(rep.integral - 4.5) <= 1e-9
    assert abs(rep.theta - 0.5) <= 1e-9
    assert rep.theta_in_range


def test_log_theta_in_unit_interval():
    rep = monotone_sum_vs_integral(LOG, LOG_PRIM, 1, 100)
    assert 0.0 <= rep.theta <= 1.0


def test_reciprocal_square_integral_closed_form():
    f = RealFunction(lambda x: 1.0 / (x * x), vector_fn=lambda xs: 1.0 / (xs * xs))
    F = RealFunction(lambda x: -1.0 / x, vector_fn=lambda xs: -1.0 / xs)
    rep = monotone_sum_vs_integral(f, F, 10, 1000)
    assert abs(rep.integral - (0.1 - 0.001)) <= 1e-9
    assert 0.0 <= rep.theta <= 1.0


def test_not_monotone_rejected():
    with pytest.raises(NotMonotone):
        monotone_sum_vs_integral(math.sin, lambda x: -math.cos(x), 0, 6)


def test_constant_function_reports_sum_equals_integral():
    rep = monotone_sum_vs_integral(lambda x: 4.0, lambda x: 4.0 * x, 2, 9)
    assert rep.theta is None
    assert rep.theta_in_range
    assert abs(rep.sum - rep.integral) <= 1e-9


def test_theta_random_monotone_battery():
    rng = np.random.default_rng(99)
    families = [
        (LOG, LOG_PRIM, 1),
        (RealFunction(math.sqrt, vector_fn=np.sqrt),
         RealFunction(lambda x: (2.0 / 3.0) * x ** 1.5,
                      vector_fn=lambda xs: (2.0 / 3.0) * xs ** 1.5), 0),
        (RealFunction(lambda x: 1.0 / (x * x), vector_fn=lambda xs: 1.0 / (xs * xs)),
         RealFunction(lambda x: -1.0 / x, vector_fn=lambda xs: -1.0 / xs), 1),
        (RealFunction(lambda x: math.exp(-x), vector_fn=lambda xs: np.exp(-xs)),
         RealFunction(lambda x: -math.exp(-x), vector_fn=lambda xs: -np.exp(-xs)), 0),
        (RealFunction(lambda x: x * x, vector_fn=lambda xs: xs * xs),
         RealFunction(lambda x: x ** 3 / 3.0, vector_fn=lambda xs: xs ** 3 / 3.0), 0),
    ]
    for _ in range(10):
        f, F, lo_min = families[rng.integers(len(families))]
        a = int(rng.integers(lo_min, lo_min + 20))
        b = a + int(rng.integers(2, 40))
        rep = monotone_sum_vs_integral(f, F, a, b)
        if rep.theta is not None:
            assert -1e-12 <= rep.theta <= 1.0 + 1e-12


def test_report_composition_over_adjacent_ranges():
    a, c, b = 1, 40, 100
    whole = monotone_sum_vs_integral(LOG, LOG_PRIM, a, b)
    left = monotone_sum_vs_integral(LOG, LOG_PRIM, a, c)
    right = monotone_sum_vs_integral(LOG, LOG_PRIM, c, b)
    assert abs((left.sum + right.sum) - whole.sum) <= 1e-12
    assert abs((left.integral + right.integral) - whole.integral) <= 1e-9


# ---------------------------------------------------------------------------
# reciprocal-square tails
# ---------------------------------------------------------------------------

def test_tail_bounds_cross_check():
    for n in (10, 100, 1000):
        by_integral = newton_integral(
            pair_for("reciprocal-square", n, math.inf)).value
        by_telescoping = tail_bound_by_telescoping(n)
        assert abs(by_integral - by_telescoping) <= 1e-9


def test_tail_constant_reciprocal_squares():
    rep = tail_constant(lambda m: 1.0 / (m * m), 1.0, 100, 200000)
    # oracle cross-check only: the limit is pi^2 / 6
    assert abs(rep.c_estimate - math.pi ** 2 / 6.0) <= 1.0 / 200000 + 1e-9
    assert rep.holds
    assert rep.remainder_bound == pytest.approx(0.01)


def test_tail_constant_zero_terms():
    rep = tail_constant(lambda m: 0.0, 1.0, 10, 1000)
    assert rep.c_estimate == 0.0 and rep.holds


def test_tail_constant_strip_remainders():
    r = strip_remainders_upto(10000)
    rep = tail_constant(lambda m: float(r[m - 1]), 0.05, 100, 10000)
    assert rep.holds
    assert abs(rep.c_estimate + strip_constant()) <= 1e-4


def test_tail_constant_decay_violation():
    with pytest.raises(DecayViolation):
        tail_constant(lambda m: 1.0 / m, 1.0, 10, 1000)


# ---------------------------------------------------------------------------
# strips of the logarithm
# ---------------------------------------------------------------------------

def test_strip_remainder_m1():
    assert strip_remainders_upto(1)[0] == pytest.approx(
        -0.045228747557780724, abs=1e-15)


def test_strip_remainder_asymptote():
    # numerical extrapolation: m^2 r(m) approaches -1/24
    assert abs(strip_remainders_upto(100)[99] * 100 ** 2 - (-1.0 / 24.0)) \
        <= 0.02 * (1.0 / 24.0)


def test_strip_remainders_negative_and_bounded():
    r = strip_remainders_upto(10000)
    assert np.all(r < 0.0)
    m = np.arange(1, 10001, dtype=float)
    assert np.all(np.abs(r) <= 0.05 / (m * m))
    assert r[0] == pytest.approx(-0.045228747557780724, abs=1e-16)


# ---------------------------------------------------------------------------
# log factorials
# ---------------------------------------------------------------------------

def test_log_factorial_against_lgamma():
    for n in (10, 1000, 10 ** 6):
        exact = math.lgamma(n + 1)
        assert abs(log_factorial(n) - exact) <= 1e-13 * exact


def test_log_factorial_within_one_ulp_of_a_40_digit_sum():
    # fsum correctly rounds the sum of the already rounded logs: within
    # 1 ulp of log n!, but not always its correct rounding
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        exact = decimal.Decimal(0)
        for n in range(2, 2001):
            exact += decimal.Decimal(n).ln()
            got = log_factorial(n)
            assert abs(decimal.Decimal(got) - exact) <= math.ulp(got), n


def test_log_factorial_table_tracks_fsum():
    table = log_factorial_table(2000)
    assert abs(table[2000] - log_factorial(2000)) <= 1e-9
    assert table[0] == 0.0 and table[1] == 0.0


def test_first_expression_records():
    for n in (1, 10, 100, 10000):
        rec = log_factorial_first_expression(n)
        assert rec.abs_error <= rec.predicted_bound, n
    assert log_factorial_first_expression(1).log_factorial_exact == 0.0


# ---------------------------------------------------------------------------
# the incomplete factorial formula
# ---------------------------------------------------------------------------

def test_d1_is_e():
    d1, _rec = incomplete_stirling(1)
    assert d1 == pytest.approx(math.e, rel=1e-12)


def test_d1000_close_to_root_two_pi():
    d, rec = incomplete_stirling(1000)
    assert abs(d - math.sqrt(2.0 * math.pi)) <= 0.3 / 1000 * 1000 ** 0.05 + 3e-4
    assert rec.abs_error <= rec.predicted_bound


def test_large_n_error_is_within_the_bound_up_to_rounding():
    # at n = 7e6 the bound C/n (1.8e-8) is below one ulp of log n! (1.5e-8),
    # and the error is 2 ulps; within_bound allows 4 ulps of rounding
    _d, rec = incomplete_stirling(7_000_000)
    assert rec.abs_error > rec.predicted_bound
    assert rec.within_bound


def test_monotone_approach():
    root = math.sqrt(2.0 * math.pi)
    for n in (10, 100, 1000):
        d_n, _ = incomplete_stirling(n)
        d_2n, _ = incomplete_stirling(2 * n)
        assert abs(d_2n - root) < abs(d_n - root)


def test_accuracy_improves_toward_wallis_limit():
    d_limit = determine_stirling_constant(100000)
    for n in (10, 100, 1000):
        d_n, _ = incomplete_stirling(n)
        d_10n, _ = incomplete_stirling(10 * n)
        assert abs(d_10n - d_limit) < abs(d_n - d_limit)


def test_internal_constant_agrees_with_wallis_route():
    mine = stirling_constant_estimate()
    wallis_d = determine_stirling_constant(100000)
    # each carries its own O(1/n)-scale error budget
    assert abs(mine - wallis_d) <= 1e-4


def test_internal_constant_matches_root_two_pi():
    # two Richardson columns over 1000, 2000 and 4000 strip remainders;
    # the error left is set by rounding in the remainders themselves
    assert abs(stirling_constant_estimate() - math.sqrt(2.0 * math.pi)) <= 1e-9
