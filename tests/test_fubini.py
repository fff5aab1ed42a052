import math

import numpy as np
import pytest

from newton_calc import fubini
from newton_calc.builder import (BuildConfig, RefinementExhausted,
                                 _dyadic_levels, _stalled, build_primitive)
from newton_calc.core import DecayViolation, EvaluationFailure, Interval
from newton_calc.fubini import (_DECAY_CFG, _INNER_CHUNK, RECT_CFG,
                                BivariateFunction, _inner_values,
                                _ridge_excess, _special_cfg,
                                asymmetry_counterexample,
                                bound_A_at, bound_B_at,
                                counterexample_family,
                                decay_bounded_fubini,
                                gaussian_half_line_built,
                                inner_integral_function, iterated_rectangle,
                                special_infinite_fubini, special_integrand,
                                tail_constants)
from newton_calc.functions import BIVARIATE_REGISTRY

from oracles import (EXP_NEG_SQUARE_SQUARED, exp_neg_square_series_01,
                     quarter_plane_inv_quartic_midpoint,
                     ridge_excess_by_bisection, special_truncated_midpoint)

TIGHT = BuildConfig(target_uniform_gap=1e-8, probe_grid=257,
                    min_refinement=6)


# ---------------------------------------------------------------------------
# rectangle theorem
# ---------------------------------------------------------------------------

def test_rectangle_constant():
    f = BIVARIATE_REGISTRY["one2d"]
    assert iterated_rectangle(f, (0, 1), (0, 1), "xy") == pytest.approx(1.0, abs=1e-12)
    assert iterated_rectangle(f, (0, 1), (0, 1), "yx") == pytest.approx(1.0, abs=1e-12)


def test_rectangle_gaussian_product():
    oracle = exp_neg_square_series_01() ** 2
    assert abs(oracle - EXP_NEG_SQUARE_SQUARED) < 1e-15
    f = BIVARIATE_REGISTRY["exp-neg-sum-squares"]
    vxy = iterated_rectangle(f, (0, 1), (0, 1), "xy", TIGHT)
    vyx = iterated_rectangle(f, (0, 1), (0, 1), "yx", TIGHT)
    assert abs(vxy - oracle) <= 1e-6
    assert abs(vyx - oracle) <= 1e-6
    # the value printed in the operation brief is itself within 1e-6
    assert abs(vxy - 0.557746924921) <= 1e-6


def test_rectangle_plane():
    f = BIVARIATE_REGISTRY["plane"]
    # hand oracle: antiderivative x^2 y / 2 + x y^2 / 2 over [0,1]x[0,2]
    assert iterated_rectangle(f, (0, 1), (0, 2), "xy") == pytest.approx(3.0, abs=1e-9)
    assert iterated_rectangle(f, (0, 1), (0, 2), "yx") == pytest.approx(3.0, abs=1e-9)


def test_rectangle_order_independence_battery():
    rng = np.random.default_rng(20240817)
    for fid in sorted(BIVARIATE_REGISTRY):
        f = BIVARIATE_REGISTRY[fid]
        x0 = rng.uniform(-2.0, 2.5)
        x1 = x0 + rng.uniform(0.5, 2.5)
        y0 = rng.uniform(-2.0, 2.5)
        y1 = y0 + rng.uniform(0.5, 2.5)
        vxy = iterated_rectangle(f, (x0, x1), (y0, y1), "xy")
        vyx = iterated_rectangle(f, (x0, x1), (y0, y1), "yx")
        assert abs(vxy - vyx) <= 1e-6, fid


def ridge_on_unit_square(c: float, w: float) -> float:
    """Integral of exp(-((x - y - c) / w)**2) over [0, 1]^2, written as
    the integral of (1 - |t|) exp(-((t - c) / w)**2) over t in [-1, 1]."""
    def plain(a, b):
        return 0.5 * w * math.sqrt(math.pi) * (
            math.erf((b - c) / w) - math.erf((a - c) / w))

    def moment(a, b):
        return c * plain(a, b) + 0.5 * w * w * (
            math.exp(-((a - c) / w) ** 2) - math.exp(-((b - c) / w) ** 2))

    return plain(-1.0, 1.0) - moment(0.0, 1.0) + moment(-1.0, 0.0)


# diagonal ridges exp(-((x - y - c) / w)**2) on [0, 1]^2 at seeded c, with
# w = h and h/4 for the floor spacing h = 2**-m; the yx order of c is the
# xy order of -c.  Nothing of these widths is missed.  At w = h/8 the
# inner rows miss the ridge at some x and not at others, so the outer
# build refines a comb: on floor 4 one rectangle took 27-35 s of CPU and
# 1.8e9-2.3e9 evaluations and still came back 10 % low as converged
RIDGE_CENTRES = np.random.default_rng(5).uniform(-0.8, 0.8, 4)


@pytest.mark.parametrize("m", [4, 6])
def test_iterated_rectangle_resolves_ridges_a_quarter_of_its_floor_wide(m):
    cfg = BuildConfig(target_uniform_gap=3e-7, min_refinement=m)
    for w in (math.ldexp(1.0, -m), math.ldexp(1.0, -m - 2)):
        for c in RIDGE_CENTRES:
            f = BivariateFunction(
                lambda x, y: math.exp(-((x - y - c) / w) ** 2), "ridge",
                lambda xs, ys, c=c, w=w: np.exp(-((xs - ys - c) / w) ** 2))
            got = iterated_rectangle(f, (0.0, 1.0), (0.0, 1.0), "xy", cfg)
            exact = ridge_on_unit_square(c, w)
            assert abs(got - exact) <= 1e-7 * exact, (w, c)


def test_inner_values_match_direct_sections():
    f = BIVARIATE_REGISTRY["cos-x-sin-y"]
    inner = inner_integral_function(f, (0.0, 2.0), TIGHT)
    for x in (0.1, 0.7, 1.3):
        # closed form: cos(x) * (1 - cos 2)
        assert abs(inner(x) - math.cos(x) * (1.0 - math.cos(2.0))) <= 1e-7


def counting(f: BivariateFunction):
    """f with a vector twin that counts its evaluations in calls[0]."""
    calls = [0]

    def vector(xs, ys):
        out = f.vector_fn(xs, ys)
        calls[0] += out.size
        return out

    return BivariateFunction(f.fn, f.label, vector), calls


def test_inner_value_depends_on_its_node_alone():
    # sin(x y) needs deeper meshes as x grows, so rows stall at different
    # levels; the batch crosses a chunk boundary
    f = BIVARIATE_REGISTRY["sin-product"]
    y_iv = Interval(0.0, 2.0)
    xs = np.linspace(0.0, 12.0, 1500)
    assert len(xs) > _INNER_CHUNK
    batch = _inner_values(f, xs, y_iv, RECT_CFG)
    reversed_ = _inner_values(f, xs[::-1], y_iv, RECT_CFG)[::-1]
    assert batch.tobytes() == reversed_.tobytes()
    for i in (0, 1, 700, _INNER_CHUNK - 1, _INNER_CHUNK, 1499):
        alone = _inner_values(f, xs[i:i + 1], y_iv, RECT_CFG)
        assert alone[0].hex() == batch[i].hex(), i
    # (1 - cos 2x) / x = 2 sin(x)^2 / x, written to hold at x = 0
    exact = 2.0 * xs * np.sinc(xs / np.pi) ** 2
    assert np.max(np.abs(batch - exact)) <= 1e-7


def test_inner_value_of_a_cubic_is_exact_at_the_minimum_level():
    # the piecewise-quadratic interpolant's cubic antiderivative integrates
    # cubics exactly, so every gap past level 1 is rounding and each row
    # stops at the floor, RECT_CFG's min_refinement 6, whose 2**6 + 1 nodes
    # per row are evaluated in a single grid call
    grids = []

    def vector(xs, ys):
        grids.append(np.broadcast(xs, ys).shape)
        return xs * ys ** 3 - 2.0 * ys * ys + ys + 1.0

    f = BivariateFunction(lambda x, y: vector(x, y), "cubic in y", vector)
    xs = np.array([-1.5, 0.0, 0.25, 3.0])
    got = _inner_values(f, xs, Interval(0.0, 2.0), RECT_CFG)
    exact = 4.0 * xs - 16.0 / 3.0 + 2.0 + 2.0
    assert np.max(np.abs(got - exact)) <= 1e-14
    assert grids == [(len(xs), 2 ** 6 + 1)]


def level_by_level_inner_values(f, xs, y_iv, cfg):
    """Reference for _inner_values: the same running sums, but every level
    from 0 up is its own grid call on the level's new nodes."""
    c, d = y_iv.a, y_iv.b
    length = d - c
    target = cfg.target_uniform_gap * length
    out = np.empty(len(xs), dtype=float)
    for start in range(0, len(xs), _INNER_CHUNK):
        index = np.arange(start, min(start + _INNER_CHUNK, len(xs)))
        rows = xs[index]
        levels = _dyadic_levels(lambda ys: f.grid(rows, ys), c, d, 0)
        _ys, new = next(levels)
        ends = new[:, 0] + new[:, -1]
        sums = ends.copy()
        trapezoid = value = 0.5 * length * ends
        gaps = []
        for level, (_ys, _mid, new) in enumerate(levels, 1):
            h = math.ldexp(length, -level)
            sums += new.sum(axis=1)
            refined = h * (sums - 0.5 * ends)
            simpson = (4.0 * refined - trapezoid) / 3.0
            gaps.append(np.abs(simpson - value))
            trapezoid, value = refined, simpson
            if level < cfg.min_refinement:
                continue
            done = _stalled(gaps, target, 3)
            if done.any():
                out[index[done]] = value[done]
                keep = ~done
                if not keep.any():
                    break
                index, rows, ends, sums, trapezoid, value = (
                    v[keep] for v in (index, rows, ends, sums, trapezoid,
                                      value))
                gaps = [g[keep] for g in gaps]
        else:
            raise RefinementExhausted("no stall")
    return out


def test_floor_mesh_in_one_call_is_bit_identical_to_level_by_level():
    cubic = BivariateFunction(
        lambda x, y: x * y ** 3 - 2.0 * y * y + y + 1.0, "cubic in y",
        lambda xs, ys: xs * ys ** 3 - 2.0 * ys * ys + ys + 1.0)
    sin_product, calls = counting(BIVARIATE_REGISTRY["sin-product"])
    rows = np.linspace(0.0, 12.0, 1500)
    cases = [
        (cubic, np.array([-1.5, 0.0, 0.25, 3.0]), Interval(0.0, 2.0),
         RECT_CFG),
        (sin_product, rows, Interval(0.0, 2.0), RECT_CFG),
        (special_integrand(), np.linspace(0.0, 16.0, 129),
         Interval(0.0, 16.0), _special_cfg(16.0)),
    ]
    assert len(rows) > _INNER_CHUNK
    for f, xs, y_iv, cfg in cases:
        got = _inner_values(f, xs, y_iv, cfg)
        assert got.tobytes() == \
            level_by_level_inner_values(f, xs, y_iv, cfg).tobytes(), f.label
    # the two sin-product runs evaluate more than RECT_CFG's floor of
    # 2**6 + 1 nodes per row: some rows refine past it
    assert calls[0] > 2 * len(rows) * (2 ** 6 + 1)


def test_non_finite_inner_node_is_named():
    # y = 0.3125 = 5/16 on [0, 2] is first a mesh node at level 5, below
    # the floor, so it is evaluated in the floor's single grid call
    bad = 0.3125
    f = BivariateFunction(
        lambda x, y: math.nan if y == bad else x * y, "nan at y = 5/16",
        lambda xs, ys: np.where(ys == bad, np.nan, xs * ys))
    with pytest.raises(EvaluationFailure) as info:
        _inner_values(f, np.array([0.5, 1.0]), Interval(0.0, 2.0), RECT_CFG)
    assert str(info.value) == \
        "nan at y = 5/16 returned nan at (x, y)=(0.5, 0.3125)"


def _nan_then_raise_2d(x, y):
    if (x, y) == (1.0, 0.5):
        raise ValueError("at (1, 1/2)")
    return math.nan if (x, y) == (1.0, 0.25) else x + y


def test_grid_names_the_first_failing_point_in_row_major_order():
    f = BivariateFunction(_nan_then_raise_2d, "guarded")
    vector = BivariateFunction(
        _nan_then_raise_2d, "guarded", lambda xs, ys: np.where(
            (xs == 1.0) & (ys == 0.25), np.nan, xs + ys))
    ys = np.array([0.0, 0.5, 0.25])
    for g in (f, vector):
        assert g.grid(np.array([0.0, 2.0]), ys).tolist() == \
            [[0.0, 0.5, 0.25], [2.0, 2.5, 2.25]]
    with pytest.raises(EvaluationFailure) as info:
        f.grid(np.array([0.0, 1.0]), ys)
    assert str(info.value) == \
        "guarded raised ValueError('at (1, 1/2)') at (x, y)=(1.0, 0.5)"
    # the NaN comes first once the row is reordered, also without a twin
    for g in (f, vector):
        with pytest.raises(EvaluationFailure) as info:
            g.grid(np.array([1.0]), ys[::-1])
        assert str(info.value) == "guarded returned nan at (x, y)=(1.0, 0.25)"


def test_decay_rectangle_evaluation_count():
    f, calls = counting(BIVARIATE_REGISTRY["product-exp"])
    value = iterated_rectangle(f, (0.0, 20.0), (0.0, 20.0), "xy", _DECAY_CFG)
    assert abs(value - (1.0 - math.exp(-20.0)) ** 2) <= 5e-7
    assert calls[0] <= 3.6e5


# ---------------------------------------------------------------------------
# the special infinite case
# ---------------------------------------------------------------------------

def test_special_integrand_factorization():
    f = special_integrand()
    for x, z in ((0.3, 0.7), (1.1, 2.0)):
        assert f(x, z) == pytest.approx(
            x * math.exp(-x * x) * math.exp(-x * x * z * z), rel=1e-14)


def test_special_twin_skips_underflowing_exp_bit_for_bit():
    # the twin evaluates exp only where its argument is at least -745.2;
    # its values must still be the plain expression's, bit for bit
    def plain(xs, zs):
        return xs * np.exp(-xs * xs * (1.0 + zs * zs))

    twin = special_integrand().vector_fn
    axis = np.linspace(0.0, 64.0, 1025)
    # x**2 swept through the subnormal band and the cut at z = 0
    band = np.sqrt(np.linspace(700.0, 760.0, 6001))
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, 27.3])
    cases = [(axis[:, None], axis[None, :]), (axis[None, :], axis[:, None]),
             (band, np.zeros_like(band)), (np.zeros_like(band), band),
             (special[:, None], special[None, :]),
             (np.float64(27.3), np.float64(0.0)),
             (np.array(1.5), np.array(2.0))]
    args = np.concatenate([np.ravel(-xs * xs * (1.0 + zs * zs))
                           for xs, zs in cases[:3]])
    # exact zeros, the subnormal band and normal values all occur
    assert np.sum(args < -745.14) > 1000
    assert np.sum((args > -745.13) & (args < -708.0)) > 1000
    assert np.sum(args > -708.0) > 1000
    for xs, zs in cases:
        before = [np.array(xs, copy=True), np.array(zs, copy=True)]
        with np.errstate(all="ignore"):
            want = np.asarray(plain(xs, zs))
            got = np.asarray(twin(xs, zs))
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert np.asarray(xs).tobytes() == before[0].tobytes()
        assert np.asarray(zs).tobytes() == before[1].tobytes()
    # 0 * inf is a NaN node, which the guard still names
    with pytest.raises(EvaluationFailure) as info:
        special_integrand().grid(np.array([1.0, 0.0]), np.array([2.0, np.inf]))
    assert str(info.value) == \
        "x exp(-x^2 (1+z^2)) returned nan at (x, y)=(0.0, inf)"


def test_special_orders_agree_at_unit_truncation():
    rep = special_infinite_fubini(1.0)
    assert rep.discrepancy <= 1e-8


def test_special_full_value_is_quarter_pi():
    rep = special_infinite_fubini(10.0)
    assert abs(rep.full_value - math.pi / 4) <= 1e-6


def test_special_truncation_gap_follows_sqrt_law():
    # the dominant tail term is c / sqrt(b), so quadrupling b should not
    # shrink the gap by much more than half; this guards the certificate
    # against being vacuously loose or wrongly tight
    g4 = abs(special_infinite_fubini(4.0).full_value
             - special_infinite_fubini(4.0).value_xy)
    g16 = abs(special_infinite_fubini(16.0).full_value
              - special_infinite_fubini(16.0).value_xy)
    assert 0.15 <= g16 / g4 <= 0.75


@pytest.mark.parametrize("b", [4.0, 8.0, 16.0, 24.0, 32.0, 40.0, 64.0])
def test_special_orders_match_the_truncated_reference(b):
    # the x-section at z = b is a bump about 1/b wide, so the floor spacing
    # b / 2**m must be at most that wide: 2**m >= b**2.  Below it (b = 16
    # on floor 6, b = 24 and 32 on floor 8) the yx order is 0.3-2.5 % off.
    # Past b = 32 the inner rows' stall target must also stay below the
    # narrowest row's mass: at gap 1e-5 yx was 1.3e-4 off at 40, 3.1e-4 at 64
    ref = special_truncated_midpoint(b)
    rep = special_infinite_fubini(b)
    for value in (rep.value_xy, rep.value_yx):
        assert abs(value - ref) <= 1e-4 * ref


@pytest.mark.parametrize("b", [0.5, 64.5, 65.0, math.inf, math.nan])
def test_special_truncation_outside_1_to_64_is_rejected(b):
    # past 64 the floor 2**m >= b**2 would pass 12 levels
    with pytest.raises(ValueError, match=r"b must be in \[1, 64\]"):
        special_infinite_fubini(b)


def test_special_floor_is_the_least_whose_spacing_is_at_most_1_over_b():
    for b in (1.0, 2.0, 4.0, 8.0, 10.0, 16.0, 24.0, 32.0, 64.0):
        m = _special_cfg(b).min_refinement
        assert b / 2 ** m <= 1.0 / b
        assert m == 6 or b / 2 ** (m - 1) > 1.0 / b
    assert [_special_cfg(b).min_refinement for b in (8.0, 10.0, 16.0, 64.0)] \
        == [6, 7, 8, 12]


@pytest.mark.parametrize("b", [1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
def test_tail_certificate_soundness(b):
    rep = special_infinite_fubini(b)
    cert = rep.tail_certificate
    assert abs(rep.full_value - rep.value_xy) <= cert.bound_A
    assert abs(rep.full_value - rep.value_yx) <= cert.bound_B
    assert rep.holds


def test_tail_constants_are_the_stated_maxima():
    c, c0, c2 = tail_constants()
    assert abs(c - gaussian_half_line_built()) == 0.0
    # closed-form maximizer: x^3 exp(-x^2) peaks at sqrt(3/2)
    assert c0 == pytest.approx(1.5 ** 1.5 * math.exp(-1.5), rel=1e-9)
    assert c2 == 0.5
    zs = np.geomspace(1.0, 1e4, 257)
    profile = zs ** (4.0 / 3.0) / (2.0 * (1.0 + zs * zs))
    assert np.all(profile < c2)
    # the profile peaks at z = sqrt(2), at 2^(2/3) / 6, above a quarter
    peak = 2.0 ** (2.0 / 3.0) / 6.0
    z = math.sqrt(2.0)
    assert z ** (4.0 / 3.0) / (2.0 * (1.0 + z * z)) == pytest.approx(
        peak, rel=1e-15)
    assert np.all(profile <= peak * (1.0 + 1e-15))
    assert c2 / 2.0 < peak < c2


def test_bounds_decrease_for_large_b():
    bs = np.linspace(9.0, 64.0, 56)
    a_vals = [bound_A_at(float(b)) for b in bs]
    b_vals = [bound_B_at(float(b)) for b in bs]
    assert all(x > y for x, y in zip(a_vals, a_vals[1:]))
    assert all(x > y for x, y in zip(b_vals, b_vals[1:]))


# ---------------------------------------------------------------------------
# decay-bounded quadrants
# ---------------------------------------------------------------------------

def test_decay_inverse_quartic():
    f = BIVARIATE_REGISTRY["inverse-quartic"]
    rep, history = decay_bounded_fubini(f, 1.0, [4.0, 8.0, 16.0, 32.0])
    assert rep.discrepancy <= 1e-6
    # cross-check each truncation against a dense midpoint grid
    for b, vxy, _vyx in history:
        oracle = quarter_plane_inv_quartic_midpoint(b)
        assert abs(vxy - oracle) <= 1e-4, b
    # discrepancy to the limit shrinks at least like the analytic tail
    final = math.pi / 4  # polar closed form of the full quadrant integral
    for b, vxy, _vyx in history:
        assert abs(vxy - final) <= 2.0 / b


def test_decay_zero_function():
    f = BivariateFunction(lambda x, y: 0.0, "zero",
                          lambda xs, ys: np.zeros(np.broadcast(xs, ys).shape))
    rep, _ = decay_bounded_fubini(f, 1.0, [4.0, 8.0])
    assert rep.value_xy == 0.0 and rep.value_yx == 0.0


def test_decay_separable_exponential():
    f = BIVARIATE_REGISTRY["product-exp"]
    rep, _ = decay_bounded_fubini(f, math.e ** 2, [6.0, 12.0, 20.0])
    # separable oracle: (1 - exp(-b))^2, within 1e-8 of 1 at b = 20
    oracle = (1.0 - math.exp(-20.0)) ** 2
    assert abs(oracle - 1.0) <= 1e-8
    assert abs(rep.value_xy - oracle) <= 5e-7
    assert abs(rep.value_yx - oracle) <= 5e-7
    assert rep.discrepancy <= 1e-8


def test_decay_report_holds_only_if_every_row_agrees(monkeypatch):
    # the orders disagree by 2e-6 at b = 4 alone: the last row agrees, and
    # the report still does not hold
    def rectangle(f, x_iv, y_iv, order, cfg):
        return 2e-6 if (order, x_iv) == ("yx", (0.0, 4.0)) else 0.0

    monkeypatch.setattr(fubini, "iterated_rectangle", rectangle)
    zero = BivariateFunction(
        lambda x, y: 0.0, "zero",
        lambda xs, ys: np.zeros(np.broadcast(xs, ys).shape))
    rep, history = decay_bounded_fubini(zero, 1.0, [8.0, 4.0])
    assert history == [(4.0, 0.0, 2e-6), (8.0, 0.0, 0.0)]
    assert rep.discrepancy == 0.0 and not rep.holds


def test_decay_violation_detected():
    f = BivariateFunction(lambda x, y: 1.0 / (1.0 + x + y), "slow",
                          lambda xs, ys: 1.0 / (1.0 + xs + ys))
    with pytest.raises(DecayViolation):
        decay_bounded_fubini(f, 1.0, [4.0])


def test_decay_check_rejects_a_nan_sample():
    # NaN only at x = 4**(1/40), the decay check's second radius: not a
    # dyadic mesh node of [0, 4], so the rectangles alone never see it
    m1 = float(np.geomspace(1.0, 4.0, 41)[1])
    f = BivariateFunction(
        lambda x, y: math.nan if x == m1 else (1.0 + x + y) ** -3.0,
        "nan at one radius",
        lambda xs, ys: np.where(xs == m1, np.nan, (1.0 + xs + ys) ** -3.0))
    with pytest.raises(EvaluationFailure) as info:
        decay_bounded_fubini(f, 1.0, [4.0])
    assert str(info.value) == \
        f"nan at one radius returned nan at (x, y)=({m1!r}, 0.0)"


# ---------------------------------------------------------------------------
# the order-asymmetry witness
# ---------------------------------------------------------------------------

def test_counterexample_family_shape():
    f = counterexample_family()
    xs = np.linspace(0.0, 5.0, 41)
    assert np.all(f.vector_fn(xs, np.ones_like(xs)) == 1.0)
    grid_x = np.linspace(0.0, 8.0, 33)
    grid_y = np.linspace(0.0, 6.0, 33)
    vals = f.grid(grid_x, grid_y)
    assert np.all(vals > 0.0)
    assert np.all(vals <= 1.0)


def test_counterexample_inner_divergence_witness():
    rep = asymmetry_counterexample(10.0)
    assert rep.order_yx_partial >= 9.0


def test_counterexample_xy_value_is_cauchy():
    v100 = asymmetry_counterexample(100.0).order_xy_value
    v200 = asymmetry_counterexample(200.0).order_xy_value
    assert abs(v200 - v100) <= 1e-6


def test_counterexample_off_peak_section_is_finite():
    def section_integral(y):
        section = counterexample_family().transposed().section_at_x(y)
        return build_primitive(section, (0.0, 60.0)).evaluate(60.0)

    v = section_integral(2.0)
    assert abs(v - math.exp(-2.0)) <= 1e-6
    # the ridge contributes ~ exp(-x) per section width, all sections finite
    assert section_integral(0.5) < 2.0


def test_ridge_excess_matches_scalar_bisection():
    xs = np.concatenate([np.linspace(0.0, 800.0, 2001),
                         [0.0, 700.0, 745.0, 746.0, 1e4]])
    values = _ridge_excess(xs)
    assert np.isfinite(values).all()
    for x, value in zip(xs, values):
        assert abs(value - ridge_excess_by_bisection(x)) <= 1e-15, x


def test_counterexample_inner_matches_direct_build():
    from newton_calc.builder import build_primitive
    from newton_calc.fubini import _counterexample_inner_xy

    inner = _counterexample_inner_xy()
    f = counterexample_family()
    for x in (0.5, 2.0, 5.0):
        section = f.section_at_x(x)
        cfg = BuildConfig(target_uniform_gap=1e-9, probe_grid=257,
                          min_refinement=8)
        P = build_primitive(section, (0.0, 40.0), cfg)
        direct = P.evaluate(40.0) + math.exp(-x - 40.0)  # truncated floor tail
        assert abs(inner(x) - direct) <= 1e-6, x
