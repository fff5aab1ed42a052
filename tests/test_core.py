import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newton_calc.core import (DEFAULT_LIMIT_CONFIG, PRECISE_LIMIT_CONFIG,
                              EvaluationFailure, Interval, LimitConfig,
                              NonConvergent, RealFunction, chebyshev_samples,
                              limit_at_infinity, one_sided_limit)
from newton_calc.engine import PrimitivePair, newton_integral


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


_SIGNED_MAGNITUDE = st.builds(lambda e, sign: sign * 10.0 ** e,
                              st.integers(-300, 300),
                              st.sampled_from([1.0, -1.0]))


def _spied_sine(lo, hi, seen):
    """cos with the primitive sin on (lo, hi); F records every x."""

    def F(x):
        seen.append(x)
        return math.sin(x)

    return PrimitivePair(RealFunction(math.cos), RealFunction(F),
                         Interval(lo, hi))


@given(_SIGNED_MAGNITUDE, _SIGNED_MAGNITUDE, st.booleans())
@settings(max_examples=200, deadline=None)
def test_endpoint_is_never_evaluated_by_a_whole_integral(p, q, reverse):
    # newton_integral takes both endpoint limits; neither schedule may
    # pass either endpoint to F, whatever the magnitudes and orientation
    if p == q:
        return
    lo, hi = min(p, q), max(p, q)
    seen = []
    try:
        res = newton_integral(_spied_sine(lo, hi, seen), reverse=reverse)
    except NonConvergent:
        assert max(abs(lo), abs(hi)) > 1e10
    else:
        exact = math.sin(hi) - math.sin(lo)
        assert abs(res.value - (-exact if reverse else exact)) <= 2e-13
    assert lo not in seen and hi not in seen


@pytest.mark.parametrize("lo, hi", [(-1e-18, 0.1), (-0.1, -1e-18),
                                    (0.05, 0.1)])
def test_short_interval_schedules_stay_inside(lo, hi):
    # from 0.1 away, the first point of one end's schedule is (or passes)
    # the other end when hi - lo <= 0.1
    seen = []
    res = newton_integral(_spied_sine(lo, hi, seen))
    assert abs(res.value - (math.sin(hi) - math.sin(lo))) <= 2e-13
    assert all(lo < x < hi for x in seen)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_ray_schedule_starts_inside_the_interval(sign):
    # on (100, inf) a ray from 0 would evaluate F at 9; this F is defined
    # only beyond 50 (and mirrored for (-inf, -100))
    seen = []

    def F(x):
        seen.append(x)
        return math.sqrt(sign * x - 50.0) * 0.0 - sign / (sign * x - 50.0)

    iv = Interval(100.0, math.inf) if sign > 0 else Interval(-math.inf,
                                                              -100.0)
    pair = PrimitivePair(RealFunction(lambda x: (sign * x - 50.0) ** -2.0),
                         RealFunction(F), iv)
    assert abs(newton_integral(pair).value - 0.02) <= 1e-15
    assert all(iv.contains(x) for x in seen)


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

    def F(x):
        calls.append(x)
        return -math.exp(-x)

    res = limit_at_infinity(F, "pos")
    assert res.converged
    assert len(calls) == res.steps_used


@pytest.mark.parametrize("F, value", [(math.atan, math.pi / 2),
                                      (lambda x: -1.0 / x, 0.0)])
def test_algebraic_tail_at_infinity_is_extrapolated(F, value):
    # the ray is the limit at t = 1- of F(t / (1 - t)); the Richardson
    # columns in 1 - t = 1 / (1 + x) cancel the 1/x and 1/x^2 terms of
    # these tails, which the raw values only shed one step at a time
    res = limit_at_infinity(F, "pos", PRECISE_LIMIT_CONFIG)
    assert res.converged and res.steps_used <= 12
    assert abs(res.value - value) <= 1e-15


@given(st.sampled_from(["pos", "neg"]),
       st.sampled_from([math.sin, math.atan, math.tanh, abs,
                        lambda u: math.exp(-u * u)]),
       st.floats(1e-6, 1e6))
@settings(max_examples=60, deadline=None)
def test_ray_never_evaluates_infinity(sign, g, scale):
    # t = 1 would divide by zero and end in EvaluationFailure; every x
    # is finite and no farther out than 2^53, where 1 - t reaches the
    # spacing of the floats just below 1
    seen = []

    def F(x):
        seen.append(x)
        return g(scale * x)

    try:
        limit_at_infinity(F, sign)
    except NonConvergent:
        pass
    assert seen and all(math.isfinite(x) and abs(x) <= 2.0 ** 53
                        for x in seen)
    assert all((x > 0) == (sign == "pos") for x in seen)


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


@pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (0.0, math.nan),
                                    (math.nan, math.nan),
                                    (-math.inf, math.nan)])
def test_interval_rejects_nan(lo, hi):
    with pytest.raises(ValueError, match="NaN"):
        Interval(lo, hi)


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=50, deadline=None)
def test_interval_endpoints_are_ordered_floats(x):
    # IEEE order places -inf < finite < +inf, so both rays are intervals
    left, right = Interval(-math.inf, x), Interval(x, math.inf)
    assert left.hi == right.lo == x and left.lo < x < right.hi
    assert not left.is_finite and not right.is_finite
    assert Interval(-math.inf, math.inf).contains(x)


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
