import math

import numpy as np
import pytest

from newton_calc import builder
from newton_calc.builder import (MAX_REFINEMENT, BuildConfig, OutOfDomain,
                                 PiecewisePrimitive, RefinementExhausted,
                                 build_primitive, derivative_check,
                                 dumps, loads, ray_integral)
from newton_calc.core import (PRECISE_LIMIT_CONFIG, EvaluationFailure,
                              Interval, NonConvergent, RealFunction)
from newton_calc.engine import newton_integral, pair_from_primitive
from newton_calc.fubini import (RECT_CFG, BivariateFunction, _inner_values,
                                inner_integral_function, iterated_rectangle)
from newton_calc.functions import BIVARIATE_REGISTRY

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


def test_refinement_exhausted_carries_the_gap_history(monkeypatch):
    cfg = BuildConfig(target_uniform_gap=1e-14, min_refinement=1)
    full = build_primitive(COS, (0.0, math.pi / 2), cfg).gap_history
    assert len(full) > 5
    monkeypatch.setattr(builder, "MAX_REFINEMENT", 5)
    with pytest.raises(RefinementExhausted) as info:
        build_primitive(COS, (0.0, math.pi / 2), cfg)
    # the gaps of levels 1..5, as a build that refines past them records
    assert info.value.gap_history == full[:5]
    assert f"(last gap {full[4]:.3e}, target" in str(info.value)


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


def log_of_product(x, y):
    return math.log(x * y)


def reciprocal(x):
    return 1.0 / x


def log_below_one(x):
    # 0 from x = 1 on, so the ray's g(1) exists; undefined at x = 0
    return math.log(x) if x < 1.0 else 0.0


# scalar-only integrands (no vector twin) that raise at a mesh node
@pytest.mark.parametrize("integrate, message", [
    (lambda: build_primitive(math.log, (0.0, 1.0)),
     "log raised ValueError('math domain error') at x=0.0"),
    (lambda: build_primitive(reciprocal, (-1.0, 1.0)),
     "reciprocal raised ZeroDivisionError('float division by zero') "
     "at x=0.0"),
    (lambda: ray_integral(log_below_one, 0.0, 1.0, BuildConfig()),
     "log_below_one raised ValueError('math domain error') at x=0.0"),
    (lambda: iterated_rectangle(log_of_product, (0.0, 1.0), (0.0, 1.0)),
     "log_of_product raised ValueError('math domain error') "
     "at (x, y)=(0.0, 0.0)"),
], ids=["build_primitive-log", "build_primitive-reciprocal", "ray_integral",
        "iterated_rectangle"])
def test_raising_scalar_integrand_raises_evaluation_failure(integrate,
                                                            message):
    with pytest.raises(EvaluationFailure) as info:
        integrate()
    assert str(info.value) == message
    assert isinstance(info.value.__cause__, (ArithmeticError, ValueError))


# vector twins that raise where they should return non-finite values: the
# scalar callable names the first failing point, if it fails at all
@pytest.mark.parametrize("integrate, message", [
    (lambda: build_primitive(
        RealFunction(math.log, "log",
                     vector_fn=lambda xs: [math.log(x) for x in xs]),
        (0.0, 1.0)),
     "log raised ValueError('math domain error') at x=0.0"),
    (lambda: iterated_rectangle(
        BivariateFunction(log_of_product, "log of product",
                          vector_fn=lambda xs, ys: [
                              [math.log(x * y) for y in ys[0]]
                              for x in xs[:, 0]]),
        (0.0, 1.0), (0.0, 1.0)),
     "log of product raised ValueError('math domain error') "
     "at (x, y)=(0.0, 0.0)"),
    (lambda: build_primitive(
        RealFunction(lambda x: x, "identity",
                     vector_fn=lambda xs: [math.log(x - 0.5) for x in xs]),
        (0.0, 1.0)),
     "identity raised ValueError('math domain error') in its vector twin "
     "only"),
], ids=["build_primitive", "iterated_rectangle", "twin-only"])
def test_raising_vector_twin_raises_evaluation_failure(integrate, message):
    with pytest.raises(EvaluationFailure) as info:
        integrate()
    assert str(info.value) == message
    assert isinstance(info.value.__cause__, ValueError)


# vector twins whose value does not have the points' shape: named with both
# shapes, before a builder indexes it
@pytest.mark.parametrize("twin, got", [
    (lambda xs: 1.0, "()"),
    (lambda xs: np.ones(3), "(3,)"),
    (lambda xs: np.ones((len(xs), 1)), "(5, 1)"),
], ids=["scalar", "fixed-length", "column"])
def test_wrong_shape_vector_twin_raises_evaluation_failure(twin, got):
    f = RealFunction(lambda x: 1.0, "one", vector_fn=twin)
    with pytest.raises(EvaluationFailure) as info:
        f.many(np.linspace(0.0, 1.0, 5))
    assert str(info.value) == (f"one returned shape {got} from its vector "
                               f"twin at points of shape (5,)")
    with pytest.raises(EvaluationFailure, match="one returned shape"):
        build_primitive(f, (0.0, 1.0))


def test_wrong_shape_grid_twin_raises_evaluation_failure():
    f = BivariateFunction(lambda x, y: x + y, "sum",
                          vector_fn=lambda xs, ys: (xs + ys)[:, 0])
    with pytest.raises(EvaluationFailure) as info:
        f.grid(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.5]))
    assert str(info.value) == ("sum returned shape (3,) from its vector twin "
                               "at points of shape (3, 2)")
    with pytest.raises(EvaluationFailure, match="sum returned shape"):
        iterated_rectangle(f, (0.0, 1.0), (0.0, 1.0))


# poles at 1/4 and 1/32: first mesh nodes of [0, 1] at levels 2 and 5, both
# below min_refinement 6, so one call evaluates both
TWO_POLES = RealFunction(
    lambda x: 1.0 / ((x - 0.25) * (x - 0.03125)), label="two poles",
    vector_fn=lambda xs: 1.0 / ((xs - 0.25) * (xs - 0.03125)))
# NaN at (1/4, 3/4) and (1/32, 1/2): the outer node of level 2 is evaluated
# with the inner node of level 2, the one of level 5 with that of level 1
TWO_NANS_2D = BivariateFunction(
    lambda x, y: math.nan if (x, y) in ((0.25, 0.75), (0.03125, 0.5))
    else x + y,
    label="two nans",
    vector_fn=lambda xs, ys: np.where(
        ((xs == 0.25) & (ys == 0.75)) | ((xs == 0.03125) & (ys == 0.5)),
        np.nan, xs + ys))


def _raises_past_a_nan(x):
    if x == 0.03125:
        raise ValueError("level 5")
    return math.nan if x == 0.25 else x


@pytest.mark.parametrize("integrate, message", [
    (lambda: build_primitive(TWO_POLES, (0.0, 1.0),
                             BuildConfig(min_refinement=6)),
     "two poles returned -inf at x=0.03125"),
    (lambda: iterated_rectangle(TWO_NANS_2D, (0.0, 1.0), (0.0, 1.0), "xy",
                                RECT_CFG),
     "two nans returned nan at (x, y)=(0.03125, 0.5)"),
    (lambda: build_primitive(_raises_past_a_nan, (0.0, 1.0),
                             BuildConfig(min_refinement=6)),
     "_raises_past_a_nan raised ValueError('level 5') at x=0.03125"),
], ids=["build_primitive", "iterated_rectangle", "integrand_raises"])
def test_the_first_failing_node_of_the_evaluated_array_is_named(integrate,
                                                                message):
    # the floor mesh is one call, in increasing order, so the level-5 node
    # 1/32 fails before the level-2 node 1/4 (in 2-D, the outer x = 1/32
    # is the earlier row of the inner integrals' grid)
    with pytest.raises(EvaluationFailure) as info:
        integrate()
    assert str(info.value) == message


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


def level_by_level_build(f, domain, cfg):
    """Reference for build_primitive, kept apart from the code it checks:
    every level from 0 up evaluates its own new nodes and gets its own
    pieces, running sum, probe lookup and gap, one level at a time."""
    a, b = domain
    target = cfg.target_uniform_gap * (b - a)
    probe = np.minimum(np.linspace(a, b, cfg.probe_grid), b)
    history = ()
    xs = np.array([a, b], dtype=float)
    vals = f.many(xs)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for level in range(MAX_REFINEMENT + 1):
            if level == 0:
                # the chord, as a quadratic through its midpoint
                nodes = np.array([a, 0.5 * (xs[0] + xs[1]), b])
                node_vals = np.array([vals[0], 0.5 * (vals[0] + vals[1]),
                                      vals[1]])
            else:
                mid = 0.5 * (xs[:-1] + xs[1:])
                new = f.many(mid)
                nodes = np.empty(2 * len(xs) - 1)
                node_vals = np.empty(2 * len(xs) - 1)
                nodes[0::2], nodes[1::2] = xs, mid
                node_vals[0::2], node_vals[1::2] = vals, new
                xs, vals = nodes, node_vals
            x0, xm, x2 = nodes[:-2:2], nodes[1::2], nodes[2::2]
            f0, fm, f2 = node_vals[:-2:2], node_vals[1::2], node_vals[2::2]
            hm, h = xm - x0, x2 - x0
            d1 = (fm - f0) / hm
            c = ((f2 - fm) / (x2 - xm) - d1) / h
            third_c = c / 3.0
            half_u = 0.5 * (d1 - c * hm)
            w = np.zeros_like(f0)
            np.cumsum((((third_c * h + half_u) * h + f0) * h)[:-1], out=w[1:])
            breakpoints = nodes[::2].copy()
            i = np.minimum(np.searchsorted(breakpoints, probe, side="right")
                           - 1, len(w) - 1)
            t = probe - breakpoints[i]
            probe_cur = ((third_c[i] * t + half_u[i]) * t + f0[i]) * t + w[i]
            if level > 0:
                gap = float(np.max(np.abs(probe_cur - probe_prev)))
                if not math.isfinite(gap):
                    raise EvaluationFailure(
                        f"primitive of {f.label or '<unnamed>'} on [{a}, "
                        f"{b}] is not finite at level {level} (last finite "
                        f"gap {history[-1] if history else None})")
                history += (gap,)
                if (level >= cfg.min_refinement and len(history) >= 2
                        and max(history[-2:]) <= target):
                    return PiecewisePrimitive(breakpoints, third_c, half_u,
                                              f0.copy(), w,
                                              gap_history=history)
            probe_prev = probe_cur
    raise RefinementExhausted("no stall")


def _three_ulps_above(x):
    for _ in range(3):
        x = math.nextafter(x, math.inf)
    return x


@pytest.mark.parametrize("f, domain", [
    (COS, (0.0, math.pi / 2)),
    (EXP_NEG_SQ, (-3.0, 2.5)),
    (LOG1P, (0.0, 1.0)),
    (RealFunction(lambda x: x * x, label="square"), (-1.0, 2.0)),
    # duplicate mesh nodes: not finite at level 2
    (EXP_NEG_SQ, (1.0, _three_ulps_above(1.0))),
    # subnormal nodes: not finite at level 11 from min_refinement 12
    (EXP_NEG_SQ, (0.0, 1e-320)),
    (RealFunction(lambda x: math.exp(-x * x), label="scalar only"),
     (-1.0, 2.0)),
    # the primitive overflows at level 4
    (RealFunction(lambda x: 2e306 * math.cos(40.0 * x), label="2e306 cos",
                  vector_fn=lambda xs: 2e306 * np.cos(40.0 * xs)),
     (0.0, 1.0)),
])
@pytest.mark.parametrize("m", [1, 2, 4, 6, 9, 12])
def test_build_is_bit_identical_to_level_by_level(f, domain, m):
    cfg = BuildConfig(min_refinement=m)
    try:
        ref = level_by_level_build(f, domain, cfg)
    except EvaluationFailure as exc:
        with pytest.raises(EvaluationFailure) as info:
            build_primitive(f, domain, cfg)
        assert str(info.value) == str(exc)
        return
    got = build_primitive(f, domain, cfg)
    assert got.gap_history == ref.gap_history
    for name in ("breakpoints", "third_c", "half_u", "v", "w"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()


@pytest.mark.parametrize("m", [1, 4, 6])
def test_a_build_evaluates_its_floor_mesh_in_one_call(m):
    sizes = []

    def vector(xs):
        sizes.append(len(xs))
        return np.exp(-xs * xs)

    P = build_primitive(RealFunction(lambda x: math.exp(-x * x),
                                     vector_fn=vector),
                        (0.0, 1.0), BuildConfig(min_refinement=m))
    # the floor mesh, then each later level's new nodes
    assert sizes == [2 ** m + 1] + [2 ** (k - 1) for k in
                                    range(m + 1, P.refinement_level + 1)]


@pytest.mark.parametrize("fid", ["exp-neg-sum-squares", "sin-product"])
def test_an_outer_build_runs_its_inner_integrals_once_per_level(fid):
    inner = inner_integral_function(BIVARIATE_REGISTRY[fid], (0.0, 1.0),
                                    RECT_CFG)
    calls = []

    def vector(xs):
        calls.append(len(xs))
        return inner.vector_fn(xs)

    P = build_primitive(RealFunction(inner.fn, vector_fn=vector), (0.0, 1.0),
                        RECT_CFG)
    assert len(calls) == P.refinement_level - RECT_CFG.min_refinement + 1
    assert P.evaluate(1.0) == iterated_rectangle(
        BIVARIATE_REGISTRY[fid], (0.0, 1.0), (0.0, 1.0), "xy", RECT_CFG)


# Gaussian bumps exp(-((y - c) / w)**2) on [0, 1] at 20 seeded centres c,
# and how many of the 20 each route misses at w = h/8 and w = h/16, where
# h = 2**-m is the floor spacing: (inner rows, builds) per floor m
BUMP_CENTRES = np.random.default_rng(5).uniform(0.1, 0.9, 20)
BUMP_MISSES = {4: [(1, 1), (9, 9)], 6: [(3, 3), (14, 14)],
               8: [(4, 5), (11, 11)]}


@pytest.mark.parametrize("m", sorted(BUMP_MISSES))
def test_the_floor_mesh_resolves_bumps_a_quarter_of_its_spacing_wide(m):
    # a bump at least h/4 wide is always right; a narrower one may hide
    # between the floor's nodes, and then it is missed whole (a value near
    # 0 reported as converged), never half seen
    cfg = BuildConfig(target_uniform_gap=3e-7, min_refinement=m)
    misses = []
    for w in (math.ldexp(1.0, -m - k) for k in range(5)):
        exact = np.array([0.5 * w * math.sqrt(math.pi)
                          * (math.erf((1.0 - c) / w) + math.erf(c / w))
                          for c in BUMP_CENTRES])
        rows = BivariateFunction(
            lambda x, y: math.exp(-((y - x) / w) ** 2), "bump rows",
            lambda xs, ys, w=w: np.exp(-((ys - xs) / w) ** 2))
        inner = _inner_values(rows, BUMP_CENTRES, Interval(0.0, 1.0), cfg)
        built = [build_primitive(RealFunction(
            lambda y: math.exp(-((y - c) / w) ** 2), label="bump",
            vector_fn=lambda ys, c=c, w=w: np.exp(-((ys - c) / w) ** 2)),
            (0.0, 1.0), cfg).evaluate(1.0) for c in BUMP_CENTRES]
        missed = []
        for got in (inner, np.array(built)):
            right = np.abs(got - exact) <= cfg.target_uniform_gap
            assert np.all(right | (np.abs(got) < 0.01 * exact)), w
            missed.append(int(np.sum(~right)))
        misses.append(tuple(missed))
    assert misses == [(0, 0)] * 3 + BUMP_MISSES[m]
