import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newton_calc.builder import build_primitive
from newton_calc.core import (EvaluationFailure, Interval, NonConvergent,
                              PRECISE_LIMIT_CONFIG, RealFunction)
from newton_calc.engine import (DomainMismatch, InfiniteInterval,
                                PointwiseOrderViolated, PrimitivePair,
                                RangeViolation, SplitPointOutsideInterval,
                                hake_check, integrate_by_parts,
                                linear_combine, ml_bound_check,
                                monotone_compare, newton_integral,
                                pair_from_primitive, split_additive,
                                substitute)
from newton_calc.functions import gamma_pair, pair_for

COS_PAIR = pair_for("cos", 0.0, math.pi / 2)
SIN_PAIR = pair_for("sin", 0.0, math.pi / 2)
EXP_PAIR = pair_for("exp-neg", 0.0, math.inf)


def erf_pair(lo: float, hi: float) -> PrimitivePair:
    # closed-form antiderivative of exp(-x^2), used as test data only
    return PrimitivePair(
        RealFunction(lambda x: math.exp(-x * x),
                     vector_fn=lambda xs: np.exp(-xs * xs)),
        RealFunction(lambda x: 0.5 * math.sqrt(math.pi) * math.erf(x)),
        Interval(lo, hi))


# ---------------------------------------------------------------------------
# newton_integral
# ---------------------------------------------------------------------------

def test_integral_of_cos():
    res = newton_integral(COS_PAIR)
    assert abs(res.value - 1.0) <= 1e-9
    assert res.lower_limit.converged and res.upper_limit.converged


def test_gamma_pair_small():
    assert abs(newton_integral(gamma_pair(3), PRECISE_LIMIT_CONFIG).value
               - 6.0) <= 6e-12


def test_constant_pair():
    c = 2.5
    pair = PrimitivePair(RealFunction(lambda x: c),
                         RealFunction(lambda x: c * x), Interval(0.5, 2.0))
    assert abs(newton_integral(pair).value - c * 1.5) <= 1e-9


def test_inner_gaussian_slice_value():
    v = 1.0
    s = 1.0 + v * v
    pair = PrimitivePair(
        RealFunction(lambda u: u * math.exp(-u * u * s)),
        RealFunction(lambda u: -math.exp(-u * u * s) / (2.0 * s)),
        Interval(0.0, math.inf))
    assert abs(newton_integral(pair).value - 0.25) <= 1e-10


def test_orientation_antisymmetry_is_exact_negation():
    forward = newton_integral(COS_PAIR)
    backward = newton_integral(COS_PAIR, reverse=True)
    assert backward.value == -forward.value
    assert backward.reversed_orientation


def test_nonconvergent_integral():
    pair = PrimitivePair(RealFunction(lambda x: 1.0 / x),
                         RealFunction(math.log), Interval(0.0, 1.0))
    with pytest.raises(NonConvergent):
        newton_integral(pair)


# ---------------------------------------------------------------------------
# hake
# ---------------------------------------------------------------------------

def test_hake_exponential():
    rep = hake_check(EXP_PAIR, truncation_schedule=[2.0 ** k
                                                    for k in range(50)])
    assert rep.holds and rep.residual <= 1e-9


def test_hake_gamma_five():
    rep = hake_check(gamma_pair(5), PRECISE_LIMIT_CONFIG)
    assert abs(rep.lhs - 120.0) <= 1e-7
    assert abs(rep.rhs - 120.0) <= 1e-7
    assert rep.residual <= 1e-7


def test_hake_reciprocal_square():
    pair = pair_for("reciprocal-square", 1.0, math.inf)
    rep = hake_check(pair)
    assert abs(rep.lhs - 1.0) <= 1e-9
    assert rep.residual <= 1e-9


def test_hake_takes_the_lower_limit_from_the_full_integral():
    points = []

    def primitive(x):
        points.append(x)
        return EXP_PAIR.primitive(x)

    pair = PrimitivePair(EXP_PAIR.integrand, RealFunction(primitive),
                         EXP_PAIR.domain)
    full = newton_integral(EXP_PAIR)
    rep = hake_check(pair)
    assert rep.holds and rep.lhs == full.value
    # the lower schedule approaches 0 from 0.1; the upper and truncation
    # schedules start at 1, so each point below 1/2 is a lower-limit step
    lower_steps = [x for x in points if x < 0.5]
    assert len(lower_steps) == full.lower_limit.steps_used == 19


def test_hake_point_outside_domain():
    with pytest.raises(SplitPointOutsideInterval):
        hake_check(EXP_PAIR, truncation_schedule=[1.0, -1.0, 2.0])


def test_hake_schedule_without_stall_reports_its_tail():
    pair = pair_for("reciprocal-square", 1.0, math.inf)
    with pytest.raises(NonConvergent, match="within 4 steps") as info:
        hake_check(pair, truncation_schedule=[2.0, 3.0, 4.0, 5.0])
    err = info.value
    assert err.steps_used == 4
    assert abs(err.last_value - (1.0 - 1.0 / 5.0)) <= 1e-9
    assert abs(err.last_delta - (1.0 / 4.0 - 1.0 / 5.0)) <= 1e-12


# ---------------------------------------------------------------------------
# linearity and additivity
# ---------------------------------------------------------------------------

def test_linear_combine_cancellation():
    zero = linear_combine(COS_PAIR, COS_PAIR, 1.0, -1.0)
    assert abs(newton_integral(zero).value) <= 1e-12


def test_linear_combine_weighted():
    combo = linear_combine(COS_PAIR, SIN_PAIR, 2.0, 3.0)
    assert abs(newton_integral(combo).value - 5.0) <= 1e-8


def test_linear_combine_zero_weights():
    combo = linear_combine(COS_PAIR, SIN_PAIR, 0.0, 0.0)
    assert newton_integral(combo).value == 0.0


def test_linear_combine_domain_mismatch():
    other = pair_for("cos", 0.0, 1.0)
    with pytest.raises(DomainMismatch):
        linear_combine(COS_PAIR, other, 1.0, 1.0)


def test_split_at_quarter_pi():
    left, right, rep = split_additive(COS_PAIR, math.pi / 4)
    assert abs(left.value - math.sin(math.pi / 4)) <= 1e-9
    assert abs(right.value - (1.0 - math.sin(math.pi / 4))) <= 1e-9
    assert rep.holds


def test_split_constant_halves():
    pair = PrimitivePair(RealFunction(lambda x: 3.0),
                         RealFunction(lambda x: 3.0 * x), Interval(0.0, 2.0))
    left, right, rep = split_additive(pair, 1.0)
    assert abs(left.value - right.value) <= 1e-9
    assert rep.holds


def test_split_exponential_tail():
    left, right, rep = split_additive(EXP_PAIR, 1.0)
    assert abs(left.value - (1.0 - math.exp(-1.0))) <= 1e-9
    assert abs(right.value - math.exp(-1.0)) <= 1e-9
    assert rep.holds


def test_split_point_must_be_interior():
    with pytest.raises(SplitPointOutsideInterval):
        split_additive(COS_PAIR, 3.0)


def test_additivity_battery_random_splits():
    rng = np.random.default_rng(1234)
    battery = [COS_PAIR, SIN_PAIR, EXP_PAIR, gamma_pair(4),
               pair_for("reciprocal-square", 1.0, math.inf)]
    for pair in battery:
        lo = pair.domain.a
        hi = pair.domain.b if pair.domain.hi.is_finite else lo + 20.0
        for c in rng.uniform(lo + 1e-3, hi - 1e-3, 100):
            _l, _r, rep = split_additive(pair, float(c), PRECISE_LIMIT_CONFIG)
            assert rep.residual <= 1e-9, (pair.integrand.label, c)


# ---------------------------------------------------------------------------
# order and bounds
# ---------------------------------------------------------------------------

def test_monotone_gaussian_under_exponential():
    p = erf_pair(1.0, math.inf)
    q = pair_for("exp-neg", 1.0, math.inf)
    rep = monotone_compare(p, q)
    assert rep.holds
    assert rep.lhs <= rep.rhs + 1e-9


def test_monotone_equal_functions():
    rep = monotone_compare(COS_PAIR, COS_PAIR)
    assert rep.holds and rep.residual == 0.0


def test_monotone_cos_powers():
    def cospow(n):
        f = RealFunction(lambda x, n=n: math.cos(x) ** n,
                         vector_fn=lambda xs, n=n: np.cos(xs) ** n)
        P = build_primitive(f, (0.0, math.pi / 2))
        return pair_from_primitive(P, f)

    rep = monotone_compare(cospow(4), cospow(3))
    assert rep.holds
    assert rep.lhs <= rep.rhs + 1e-9


def test_monotone_violation_detected():
    with pytest.raises(PointwiseOrderViolated):
        monotone_compare(SIN_PAIR, COS_PAIR)  # sin > cos past pi/4


def test_ml_bound_cos():
    rep = ml_bound_check(pair_for("cos", 0.0, math.pi / 2), 1.0, "upper")
    assert rep.holds


def test_ml_bound_log_unit_integral():
    pair = pair_for("log", 1.0, math.e)
    value = newton_integral(pair).value
    assert abs(value - 1.0) <= 1e-9
    rep = ml_bound_check(pair, 1.0, "upper")
    assert rep.holds


def test_ml_bound_constant_equality_both_sides():
    pair = PrimitivePair(RealFunction(lambda x: 2.0),
                         RealFunction(lambda x: 2.0 * x), Interval(0.0, 3.0))
    assert ml_bound_check(pair, 2.0, "upper").holds
    assert ml_bound_check(pair, 2.0, "lower").holds


def test_ml_bound_rejects_infinite_interval():
    with pytest.raises(InfiniteInterval):
        ml_bound_check(EXP_PAIR, 1.0, "upper")


# ---------------------------------------------------------------------------
# by parts
# ---------------------------------------------------------------------------

def test_by_parts_gamma_step():
    n = 4
    rep = integrate_by_parts(
        F=RealFunction(lambda x: -math.exp(-x)),
        f=RealFunction(lambda x: math.exp(-x)),
        G=RealFunction(lambda x: x ** n),
        g=RealFunction(lambda x: n * x ** (n - 1)),
        domain=Interval(0.0, math.inf),
        fG_primitive=gamma_pair(n).primitive,
        Fg_primitive=_scaled(gamma_pair(n - 1).primitive, -float(n)),
        cfg=PRECISE_LIMIT_CONFIG)
    assert abs(rep.lhs - 24.0) <= 1e-7
    assert rep.residual <= 1e-7


def _scaled(F: RealFunction, alpha: float) -> RealFunction:
    return RealFunction(lambda x: alpha * F(x))


def test_by_parts_identity_on_unit_interval():
    rep = integrate_by_parts(
        F=RealFunction(lambda x: x), f=RealFunction(lambda x: 1.0),
        G=RealFunction(lambda x: x), g=RealFunction(lambda x: 1.0),
        domain=Interval(0.0, 1.0),
        fG_primitive=RealFunction(lambda x: 0.5 * x * x),
        Fg_primitive=RealFunction(lambda x: 0.5 * x * x))
    assert abs(rep.lhs - 0.5) <= 1e-9
    assert rep.residual <= 1e-9


@pytest.fixture(scope="module")
def cos_power_primitives():
    cache = {}

    def get(n: int):
        if n not in cache:
            f = RealFunction(lambda x, n=n: math.cos(x) ** n,
                             vector_fn=lambda xs, n=n: np.cos(xs) ** n)
            cache[n] = build_primitive(f, (0.0, math.pi / 2))
        return cache[n]

    return get


def test_by_parts_cos_power_chain(cos_power_primitives):
    for n in range(2, 21):
        Pn = cos_power_primitives(n)
        Pm = cos_power_primitives(n - 2)

        def fg_neg(x, n=n):
            return -(n - 1.0) * (Pm.evaluate(x) - Pn.evaluate(x))

        rep = integrate_by_parts(
            F=RealFunction(math.sin),
            f=RealFunction(math.cos),
            G=RealFunction(lambda x, n=n: math.cos(x) ** (n - 1)),
            g=RealFunction(
                lambda x, n=n: -(n - 1.0) * math.cos(x) ** (n - 2) * math.sin(x)),
            domain=Interval(0.0, math.pi / 2),
            fG_primitive=RealFunction(Pn.evaluate),
            Fg_primitive=RealFunction(fg_neg))
        assert rep.residual <= 1e-7, n


def test_by_parts_gamma_chain():
    for n in range(1, 13):
        rep = integrate_by_parts(
            F=RealFunction(lambda x: -math.exp(-x)),
            f=RealFunction(lambda x: math.exp(-x)),
            G=RealFunction(lambda x, n=n: x ** n),
            g=RealFunction(lambda x, n=n: n * x ** (n - 1)),
            domain=Interval(0.0, math.inf),
            fG_primitive=gamma_pair(n).primitive,
            Fg_primitive=_scaled(gamma_pair(n - 1).primitive, -float(n)),
            cfg=PRECISE_LIMIT_CONFIG)
        assert rep.residual <= 1e-7, n


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------

def test_substitute_centering_map():
    n = 2
    pair = gamma_pair(n)
    rep = substitute(
        pair,
        g=RealFunction(lambda y: n * (1.0 + y)),
        g_prime=RealFunction(lambda y: float(n)),
        source=Interval(-1.0, math.inf),
        cfg=PRECISE_LIMIT_CONFIG)
    assert abs(rep.lhs - 2.0) <= 1e-9
    assert abs(rep.rhs - 2.0) <= 1e-9
    assert rep.residual <= 1e-6


def test_substitute_gaussian_rescale_identity():
    n = 2
    factor = math.sqrt(2.0 / n)  # equals 1, so the map is the identity
    pair = erf_pair(-math.inf, math.inf)
    rep = substitute(
        pair,
        g=RealFunction(lambda t: factor * t),
        g_prime=RealFunction(lambda t: factor),
        source=Interval(-math.inf, math.inf))
    assert rep.holds


def test_substitute_flip():
    pair = erf_pair(0.0, math.inf)
    rep = substitute(
        pair,
        g=RealFunction(lambda t: -t),
        g_prime=RealFunction(lambda t: -1.0),
        source=Interval(-math.inf, 0.0),
        flipped=True)
    assert rep.holds
    # the left half-line integral equals the right half-line integral
    assert abs(rep.lhs + newton_integral(pair).value) <= 1e-6


def test_substitute_range_violation():
    pair = pair_for("log", 1.0, 2.0)
    with pytest.raises(RangeViolation):
        substitute(pair, g=RealFunction(lambda t: t),
                   g_prime=RealFunction(lambda t: 1.0),
                   source=Interval(0.0, 5.0))


# ---------------------------------------------------------------------------
# constant-shift invariance
# ---------------------------------------------------------------------------

def test_shift_invariance_bit_identical_on_exact_arithmetic():
    # endpoint limits of these antiderivatives are exact binary values, so
    # the shift cancels without rounding and the integrals match bit for bit
    cases = []
    base = PrimitivePair(RealFunction(lambda x: 2.5),
                         RealFunction(lambda x: 2.5 * x), Interval(0.5, 2.0))
    cases.append((base, 3.0))
    cases.append((gamma_pair(5), 7.0))
    cases.append((gamma_pair(12), 1024.0))
    for pair, shift in cases:
        shifted = PrimitivePair(
            pair.integrand,
            RealFunction(lambda x, F=pair.primitive, s=shift: F(x) + s),
            pair.domain)
        a = newton_integral(pair, PRECISE_LIMIT_CONFIG).value
        b = newton_integral(shifted, PRECISE_LIMIT_CONFIG).value
        assert a == b


def test_shift_invariance_generic_within_float_noise():
    shifted = PrimitivePair(
        COS_PAIR.integrand,
        RealFunction(lambda x: math.sin(x) + 0.75),
        COS_PAIR.domain)
    a = newton_integral(COS_PAIR).value
    b = newton_integral(shifted).value
    assert abs(a - b) <= 1e-12


# ---------------------------------------------------------------------------
# hypothesis properties
# ---------------------------------------------------------------------------

@given(st.floats(0.05, 1.45), st.floats(0.05, 1.45))
@settings(max_examples=30, deadline=None)
def test_linearity_property(alpha, beta):
    combo = linear_combine(COS_PAIR, SIN_PAIR, alpha, beta)
    direct = newton_integral(combo).value
    split = (alpha * newton_integral(COS_PAIR).value
             + beta * newton_integral(SIN_PAIR).value)
    assert abs(direct - split) <= 1e-8


@given(st.floats(0.05, 1.5), st.floats(0.05, 1.5))
@settings(max_examples=30, deadline=None)
def test_reversal_property(a, b):
    lo, hi = min(a, b), max(a, b)
    if hi - lo < 1e-3:
        return
    pair = pair_for("cos", lo, hi)
    assert newton_integral(pair, reverse=True).value \
        == -newton_integral(pair).value


def test_domain_error_in_a_primitive_raises_evaluation_failure():
    # the left schedule toward 1 reaches x == 1.0, where log raises
    pair = PrimitivePair(RealFunction(lambda x: 1.0 / (1.0 - x)),
                         RealFunction(lambda x: -math.log(1.0 - x)),
                         Interval(0.0, 1.0))
    with pytest.raises(EvaluationFailure, match="x=1.0") as info:
        newton_integral(pair)
    assert isinstance(info.value.__cause__, ValueError)
