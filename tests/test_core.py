import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newton_calc.core import (DEFAULT_LIMIT_CONFIG, EvaluationFailure,
                              ExtendedReal, Interval, LimitConfig, NEG_INF,
                              NonConvergent, POS_INF, RealFunction,
                              chebyshev_samples, limit_at_infinity,
                              one_sided_limit)


def test_sin_limit_at_pi_half():
    res = one_sided_limit(math.sin, math.pi / 2, "left")
    assert res.converged
    assert abs(res.value - 1.0) <= 10 * DEFAULT_LIMIT_CONFIG.stall_tolerance


def test_x_log_x_limit_at_zero():
    # oracle: x log x -> 0 monotonically along x = 10^-k
    seq = [10.0 ** -k * math.log(10.0 ** -k) for k in range(3, 12)]
    assert all(abs(b) < abs(a) for a, b in zip(seq, seq[1:]))
    res = one_sided_limit(lambda x: x * math.log(x) - x, 0.0, "right")
    assert res.converged
    assert abs(res.value) <= 1e-9


def test_sin_from_the_left_needs_few_steps():
    # two Richardson columns cancel the O(h) and O(h^2) terms of the offset
    # schedule, so the stall comes early and lands on the true value
    res = one_sided_limit(math.sin, 2.7, "left")
    assert res.converged and res.steps_used <= 10
    assert abs(res.value - math.sin(2.7)) <= 4e-16


@given(st.integers(-300, 300), st.sampled_from([1.0, -1.0]),
       st.sampled_from(["left", "right"]))
@settings(max_examples=60, deadline=None)
def test_endpoint_is_never_evaluated(e, sign, side):
    # up to |c| = 1e10 the schedule has enough distinct points to stall;
    # beyond, it runs into c (every offset rounds to c from 1e17 on) and
    # must end without a value instead of evaluating F at c
    c = sign * 10.0 ** e
    seen = []

    def F(x):
        seen.append(x)
        return math.sin(x)

    try:
        res = one_sided_limit(F, c, side)
    except NonConvergent:
        assert e > 10
    else:
        assert abs(res.value - math.sin(c)) <= 1e-13
    assert c not in seen


@pytest.mark.parametrize("c", [1e7, -1e9, 1e10])
@pytest.mark.parametrize("side", ["left", "right"])
def test_large_endpoint_extrapolates_in_the_actual_offsets(c, side):
    # c -/+ 0.1/4^k is rounded to the ulp of c (1.9e-9 at 1e7), so the
    # offsets no longer shrink by exactly 4; extrapolating with the nominal
    # ratio left rounding noise above the stall tolerance
    res = one_sided_limit(math.sin, c, side)
    assert res.converged and res.steps_used <= 10
    assert abs(res.value - math.sin(c)) <= 1e-15


def test_endpoint_beyond_the_schedule_resolution_has_no_limit():
    # at 1e12 (ulp 1.2e-4) the schedule reaches c after 6 distinct points,
    # too few for a stall on the extrapolates
    with pytest.raises(NonConvergent) as info:
        one_sided_limit(math.sin, 1e12, "left")
    assert info.value.steps_used < 10


def test_divergent_limit_raises():
    with pytest.raises(NonConvergent):
        one_sided_limit(lambda x: 1.0 / x, 0.0, "right")


def test_exp_decay_limit_at_infinity():
    res = limit_at_infinity(lambda x: -math.exp(-x), "pos")
    assert res.converged
    assert abs(res.value) <= 1e-9


def test_arctan_limit_at_infinity():
    res = limit_at_infinity(math.atan, "pos")
    assert abs(res.value - math.pi / 2) <= 1e-9


def test_ray_schedule_is_drawn_lazily():
    calls = []

    def schedule(k):
        calls.append(k)
        return 2.0 ** k

    cfg = LimitConfig(infinity_schedule=schedule)
    res = limit_at_infinity(lambda x: -math.exp(-x), "pos", cfg)
    assert res.converged
    assert len(calls) <= res.steps_used


def test_linear_growth_raises():
    with pytest.raises(NonConvergent):
        limit_at_infinity(lambda x: x, "pos")


def test_nan_is_hard_failure():
    with pytest.raises(EvaluationFailure):
        one_sided_limit(lambda x: float("nan"), 0.0, "right")


def test_overflow_is_hard_failure():
    with pytest.raises(EvaluationFailure):
        limit_at_infinity(lambda x: math.exp(x) if x < 700 else float("inf"),
                          "pos")


@pytest.mark.parametrize("F, endpoint, side", [
    (math.cos, 0.3, "left"),
    (math.exp, 1.0, "right"),
    (lambda x: x ** 3 - 2 * x, -0.7, "left"),
])
def test_closed_form_agrees_with_direct_evaluation(F, endpoint, side):
    res = one_sided_limit(F, endpoint, side)
    assert abs(res.value - F(endpoint)) \
        <= 10 * DEFAULT_LIMIT_CONFIG.stall_tolerance


def test_schedule_robustness():
    tight = LimitConfig(stall_tolerance=DEFAULT_LIMIT_CONFIG.stall_tolerance / 2,
                        max_steps=2 * DEFAULT_LIMIT_CONFIG.max_steps)
    for fn, endpoint in ((math.sin, 0.4), (math.exp, -1.0)):
        a = one_sided_limit(fn, endpoint, "left").value
        b = one_sided_limit(fn, endpoint, "left", tight).value
        assert abs(a - b) <= DEFAULT_LIMIT_CONFIG.stall_tolerance


def test_purity_bit_for_bit():
    first = one_sided_limit(math.sin, 1.0, "left")
    second = one_sided_limit(math.sin, 1.0, "left")
    assert first == second
    va = limit_at_infinity(math.atan, "pos")
    vb = limit_at_infinity(math.atan, "pos")
    assert va.value == vb.value and va.steps_used == vb.steps_used


def test_extended_real_rejects_nan():
    with pytest.raises(ValueError):
        ExtendedReal(float("nan"))


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=50, deadline=None)
def test_extended_real_ordering(x):
    v = ExtendedReal(x)
    assert NEG_INF < v < POS_INF
    assert v.tag == "finite"
    assert NEG_INF.tag == "neg_infinity" and POS_INF.tag == "pos_infinity"


def test_interval_invariant():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, -1.0)
    iv = Interval(0.0, math.inf)
    assert not iv.is_finite
    assert iv.contains(17.0)


def test_limit_config_validation():
    with pytest.raises(ValueError):
        LimitConfig(max_steps=2)
    with pytest.raises(ValueError):
        LimitConfig(stall_tolerance=0.0)


def test_real_function_vector_agrees_with_scalar():
    f = RealFunction(math.cos, vector_fn=np.cos)
    xs = np.linspace(-2, 2, 17)
    assert np.array_equal(f.many(xs), np.array([f(x) for x in xs]))


@pytest.mark.parametrize("iv", [
    Interval(-1.0, 3.0),
    Interval(0.0, math.inf),
    Interval(-math.inf, 2.0),
    Interval(-math.inf, math.inf),
])
def test_chebyshev_samples_stay_inside(iv):
    xs = chebyshev_samples(iv, 257)
    assert len(xs) == 257
    assert np.all(xs > iv.a) and np.all(xs < iv.b)
