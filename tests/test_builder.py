import math

import numpy as np
import pytest

from newton_calc import builder
from newton_calc.builder import (BuildConfig, OutOfDomain,
                                 RefinementExhausted, build_primitive,
                                 derivative_check, dumps, loads,
                                 ray_integral)
from newton_calc.core import (PRECISE_LIMIT_CONFIG, EvaluationFailure,
                              NonConvergent, RealFunction)
from newton_calc.engine import newton_integral, pair_from_primitive
from newton_calc.fubini import BivariateFunction, iterated_rectangle

from oracles import EXP_NEG_SQUARE_01, exp_neg_square_series_01

COS = RealFunction(math.cos, label="cos", vector_fn=np.cos)
EXP_NEG_SQ = RealFunction(lambda x: math.exp(-x * x), label="exp-neg-square",
                          vector_fn=lambda xs: np.exp(-xs * xs))
LOG1P = RealFunction(math.log1p, label="log1p", vector_fn=np.log1p)


def test_linear_function_is_exact():
    P = build_primitive(lambda x: x, (0.0, 1.0))
    assert P.evaluate(1.0) == 0.5
    assert P.evaluate(0.0) == 0.0
    assert P.gap_history[-1] == 0.0
    # dyadic points: every step of the construction is exact
    for xs in (P.breakpoints, np.linspace(0.0, 1.0, 257)):
        assert np.array_equal(P.many(xs), 0.5 * xs * xs)
    # decimal points: t = x - breakpoint rounds, so within one ulp
    xs = np.linspace(0.0, 1.0, 101)
    assert np.all(np.abs(P.many(xs) - 0.5 * xs * xs)
                  <= np.spacing(0.5 * xs * xs))


def test_cos_build_matches_sine():
    P = build_primitive(COS, (0.0, math.pi / 2))
    assert abs(P.evaluate(math.pi / 2) - 1.0) <= 1e-6
    assert abs(P.evaluate(math.pi / 6) - 0.5) <= 1e-6


def test_exp_neg_square_against_series_oracle():
    oracle = exp_neg_square_series_01()
    assert abs(oracle - EXP_NEG_SQUARE_01) < 1e-15
    P = build_primitive(EXP_NEG_SQ, (0.0, 1.0))
    assert abs(P.evaluate(1.0) - oracle) <= 1e-6


def test_left_endpoint_value_is_exactly_zero():
    for f, iv in ((COS, (0.25, 2.0)), (EXP_NEG_SQ, (-1.0, 1.5))):
        P = build_primitive(f, iv)
        assert P.evaluate(iv[0]) == 0.0


def _piece_values(P, idx, x):
    t = x - P.breakpoints[idx]
    return ((P.third_c[idx] * t + P.half_u[idx]) * t + P.v[idx]) * t + P.w[idx]


def _piece_derivatives(P, idx, x):
    t = x - P.breakpoints[idx]
    return (3.0 * P.third_c[idx] * t + 2.0 * P.half_u[idx]) * t + P.v[idx]


def test_breakpoint_continuity_is_exact():
    P = build_primitive(COS, (0.0, math.pi / 2))
    idx = np.arange(1, P.piece_count)
    x = P.breakpoints[idx]
    left = _piece_values(P, idx - 1, x)
    right = _piece_values(P, idx, x)
    assert np.array_equal(left, right)


def test_breakpoint_derivative_matches_node_values():
    P = build_primitive(EXP_NEG_SQ, (0.0, 1.0))
    idx = np.arange(P.piece_count)
    lo, hi = P.breakpoints[:-1], P.breakpoints[1:]
    for x in (lo, 0.5 * (lo + hi), hi):
        deriv = _piece_derivatives(P, idx, x)
        assert np.max(np.abs(deriv - EXP_NEG_SQ.many(x))) <= 1e-12


def test_cos_far_from_origin_builds():
    a = 1e4
    P = build_primitive(COS, (a, a + 1.0))
    xs = np.linspace(a, a + 1.0, 101)
    assert np.max(np.abs(P.many(xs) - (np.sin(xs) - math.sin(a)))) <= 1e-10


def test_quadratic_is_exact_from_the_first_split():
    P = build_primitive(lambda x: x * x, (0.0, 1.0))
    assert P.refinement_level == BuildConfig().min_refinement
    # each level is exact up to the rounding of its own piece cubics
    assert P.gap_history[-1] <= 2.0 ** -53


def test_exp_neg_square_stall_level():
    # quadratic pieces: the probe gap shrinks about 16x per level, so the
    # default target is met at level 8
    P = build_primitive(EXP_NEG_SQ, (0.0, 1.0))
    assert P.refinement_level <= 9


def test_out_of_domain():
    P = build_primitive(COS, (0.0, 1.0))
    with pytest.raises(OutOfDomain):
        P.evaluate(1.5)


@pytest.mark.parametrize("x", [1.5, -0.5, math.nan, math.inf])
def test_scalar_and_vector_twins_share_the_domain(x):
    # RealFunction's twins agree pointwise, so outside [a, b] both raise
    # rather than one of them extrapolating an end cubic
    F = pair_from_primitive(build_primitive(COS, (0.0, 1.0)), COS).primitive
    with pytest.raises(OutOfDomain):
        F(x)
    with pytest.raises(OutOfDomain):
        F.many([0.5, x])
    xs = np.linspace(0.0, 1.0, 101)
    assert np.array_equal(F.many(xs), [F(x) for x in xs])


@pytest.mark.parametrize("f, iv, cap", [
    (RealFunction(lambda x: x, label="x"), (0.0, 1.0), 1e-9),
    (COS, (0.0, math.pi / 2), 1e-4),
    (EXP_NEG_SQ, (0.0, 1.0), 1e-4),
    (LOG1P, (0.0, 1.0), 1e-4),
    (COS, (1.0, 1.00003), 1e-4),
])
def test_derivative_check_bounds(f, iv, cap):
    P = build_primitive(f, iv)
    assert derivative_check(P, f) <= cap


def test_newton_integral_consistency():
    P = build_primitive(COS, (0.0, math.pi / 2))
    pair = pair_from_primitive(P, COS)
    value = newton_integral(pair, PRECISE_LIMIT_CONFIG).value
    direct = P.evaluate(math.pi / 2) - P.evaluate(0.0)
    assert abs(value - direct) <= 1e-12


def test_gap_history_decreases_once_resolved():
    P = build_primitive(COS, (0.0, math.pi / 2))
    tail = [g for g in P.gap_history if g > 0.0][-4:]
    assert len(tail) >= 3
    for a, b in zip(tail, tail[1:]):
        assert b <= a / 1.5


def test_two_probe_grids_agree():
    cfg_a = BuildConfig(probe_grid=127)
    cfg_b = BuildConfig(probe_grid=389)
    Pa = build_primitive(EXP_NEG_SQ, (0.0, 2.0), cfg_a)
    Pb = build_primitive(EXP_NEG_SQ, (0.0, 2.0), cfg_b)
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.0, 2.0, 1000)
    gap = np.max(np.abs(Pa.many(xs) - Pb.many(xs)))
    assert gap <= 2 * cfg_a.target_uniform_gap * 2.0


def test_refinement_exhausted_on_tiny_budget(monkeypatch):
    monkeypatch.setattr(builder, "MAX_REFINEMENT", 5)
    cfg = BuildConfig(target_uniform_gap=1e-14, min_refinement=1)
    with pytest.raises(RefinementExhausted, match="within 5 refinements"):
        build_primitive(COS, (0.0, math.pi / 2), cfg)


# NaN only at the first midpoint, so the refined levels are checked too
NAN_AT_HALF = RealFunction(lambda x: math.nan if x == 0.5 else 1.0,
                           label="nan-at-half")
NAN_AT_HALF_2D = BivariateFunction(lambda x, y: math.nan if y == 0.5 else 1.0,
                                   label="nan-at-half-2d")


@pytest.mark.parametrize("integrate, label", [
    (lambda: build_primitive(NAN_AT_HALF, (0.0, 1.0)), "nan-at-half"),
    (lambda: iterated_rectangle(NAN_AT_HALF_2D, (0.0, 1.0), (0.0, 1.0)),
     "nan-at-half-2d"),
], ids=["build_primitive", "iterated_rectangle"])
def test_non_finite_integrand_raises_evaluation_failure(integrate, label):
    with pytest.raises(EvaluationFailure, match=label) as info:
        integrate()
    assert "0.5" in str(info.value)


def test_overflowing_primitive_stops_at_the_first_non_finite_gap():
    seen = []
    big_cos = _spy(lambda x: 1.5e308 * math.cos(40.0 * x),
                   lambda xs: 1.5e308 * np.cos(40.0 * xs), seen)
    # no errstate here: under filterwarnings = error a numpy overflow
    # warning must not escape ahead of the EvaluationFailure
    with pytest.raises(EvaluationFailure,
                       match=r"spy .* level \d+ \(last finite gap"):
        build_primitive(big_cos, (0.0, 1.0))
    # a build that ran on to max_refinement would take 2**22 + 1 nodes
    assert len(seen) <= 2 ** 4 + 1


def test_infinite_interval_rejected():
    with pytest.raises(ValueError, match="ray_integral"):
        build_primitive(COS, (0.0, math.inf))


def _spy(fn, vector, seen):
    """fn as a RealFunction that fails the test on any non-finite x and
    records every x it is given."""

    def scalar(x):
        assert math.isfinite(x), x
        seen.append(x)
        return fn(x)

    def many(xs):
        assert np.isfinite(xs).all(), xs
        seen.extend(xs.ravel().tolist())
        return vector(xs)

    return RealFunction(scalar, label="spy", vector_fn=many)


@pytest.mark.parametrize("fn, vector, a, exact", [
    (lambda x: 1.0 / (1.0 + x * x), lambda xs: 1.0 / (1.0 + xs * xs),
     0.0, math.pi / 2),
    (lambda x: x ** -2.0, lambda xs: xs ** -2.0, 1.0, 1.0),
    (lambda x: math.exp(-x), lambda xs: np.exp(-xs), -2.0, math.e ** 2),
    (lambda x: math.exp(-x * x), lambda xs: np.exp(-xs * xs),
     0.0, math.sqrt(math.pi) / 2),
], ids=["inverse-quadratic", "inverse-square", "exp-neg", "exp-neg-square"])
def test_ray_integral_matches_closed_form(fn, vector, a, exact):
    seen = []
    value = ray_integral(_spy(fn, vector, seen), a, 1.0, BuildConfig())
    assert abs(value - exact) <= 1e-10 * exact
    # the ray is visited from a itself out to the limit's points at t = 1-
    # (a + 9, a + 39, a + 159, ...), past any fixed cut-off such as 10
    assert min(seen) == a and max(seen) > 1e3


def test_ray_without_an_integral_has_no_value():
    # 1/x on (1, inf): g(t) = 1 / (1 - t) has no limit at t = 1
    with pytest.raises(NonConvergent):
        ray_integral(lambda x: 1.0 / x, 1.0, 1.0, BuildConfig())


@pytest.mark.parametrize("a, s", [(math.inf, 1.0), (math.nan, 1.0),
                                  (0.0, 0.0), (0.0, -1.0), (0.0, math.inf)])
def test_ray_integral_rejects_bad_arguments(a, s):
    with pytest.raises(ValueError):
        ray_integral(COS, a, s, BuildConfig())


def test_serialization_roundtrip_is_exact():
    P = build_primitive(EXP_NEG_SQ, (0.0, 1.0))
    Q = loads(dumps(P))
    xs = np.linspace(0.0, 1.0, 257)
    assert np.array_equal(P.many(xs), Q.many(xs))
    assert Q.gap_history == P.gap_history
    assert Q.refinement_level == P.refinement_level
    with pytest.raises(ValueError, match="version 99"):
        loads(dumps(P).replace(f'"version": {builder.SERIALIZATION_VERSION}',
                               '"version": 99'))
