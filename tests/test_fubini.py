import math

import numpy as np
import pytest

from newton_calc.builder import BuildConfig
from newton_calc.core import DecayViolation, Interval
from newton_calc.fubini import (_DECAY_CFG, _INNER_CHUNK, RECT_CFG,
                                BivariateFunction, _inner_values,
                                _ridge_excess,
                                asymmetry_counterexample,
                                bound_A_at, bound_B_at,
                                counterexample_family,
                                counterexample_section_integral,
                                decay_bounded_fubini,
                                gaussian_half_line_built,
                                inner_integral_function, iterated_rectangle,
                                special_infinite_fubini, special_integrand,
                                tail_constants)
from newton_calc.functions import BIVARIATE_REGISTRY

from oracles import (EXP_NEG_SQUARE_SQUARED, exp_neg_square_series_01,
                     quarter_plane_inv_quartic_midpoint,
                     ridge_excess_by_bisection, special_truncated_midpoint)

TIGHT = BuildConfig(target_uniform_gap=1e-8, max_refinement=22,
                    probe_grid=257, min_refinement=6)


def registry_bivariate(id_: str) -> BivariateFunction:
    nb = BIVARIATE_REGISTRY[id_]
    return BivariateFunction(nb.fn, nb.id, nb.vector_fn)


# ---------------------------------------------------------------------------
# rectangle theorem
# ---------------------------------------------------------------------------

def test_rectangle_constant():
    f = registry_bivariate("one2d")
    assert iterated_rectangle(f, (0, 1), (0, 1), "xy") == pytest.approx(1.0, abs=1e-12)
    assert iterated_rectangle(f, (0, 1), (0, 1), "yx") == pytest.approx(1.0, abs=1e-12)


def test_rectangle_gaussian_product():
    oracle = exp_neg_square_series_01() ** 2
    assert abs(oracle - EXP_NEG_SQUARE_SQUARED) < 1e-15
    f = registry_bivariate("exp-neg-sum-squares")
    vxy = iterated_rectangle(f, (0, 1), (0, 1), "xy", TIGHT)
    vyx = iterated_rectangle(f, (0, 1), (0, 1), "yx", TIGHT)
    assert abs(vxy - oracle) <= 1e-6
    assert abs(vyx - oracle) <= 1e-6
    # the value printed in the operation brief is itself within 1e-6
    assert abs(vxy - 0.557746924921) <= 1e-6


def test_rectangle_plane():
    f = registry_bivariate("plane")
    # hand oracle: antiderivative x^2 y / 2 + x y^2 / 2 over [0,1]x[0,2]
    assert iterated_rectangle(f, (0, 1), (0, 2), "xy") == pytest.approx(3.0, abs=1e-9)
    assert iterated_rectangle(f, (0, 1), (0, 2), "yx") == pytest.approx(3.0, abs=1e-9)


def test_rectangle_order_independence_battery():
    rng = np.random.default_rng(20240817)
    for fid in sorted(BIVARIATE_REGISTRY):
        f = registry_bivariate(fid)
        x0 = rng.uniform(-2.0, 2.5)
        x1 = x0 + rng.uniform(0.5, 2.5)
        y0 = rng.uniform(-2.0, 2.5)
        y1 = y0 + rng.uniform(0.5, 2.5)
        vxy = iterated_rectangle(f, (x0, x1), (y0, y1), "xy")
        vyx = iterated_rectangle(f, (x0, x1), (y0, y1), "yx")
        assert abs(vxy - vyx) <= 1e-6, fid


def test_inner_values_match_direct_sections():
    f = registry_bivariate("cos-x-sin-y")
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
    f = registry_bivariate("sin-product")
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
    # stops at the minimum level 8: 2**8 + 1 evaluations per row
    f, calls = counting(BivariateFunction(
        lambda x, y: x * y ** 3 - 2.0 * y * y + y + 1.0, "cubic in y",
        lambda xs, ys: xs * ys ** 3 - 2.0 * ys * ys + ys + 1.0))
    xs = np.array([-1.5, 0.0, 0.25, 3.0])
    got = _inner_values(f, xs, Interval(0.0, 2.0), RECT_CFG)
    exact = 4.0 * xs - 16.0 / 3.0 + 2.0 + 2.0
    assert np.max(np.abs(got - exact)) <= 1e-14
    assert calls[0] == len(xs) * (2 ** 8 + 1)


def test_decay_rectangle_evaluation_count():
    f, calls = counting(registry_bivariate("product-exp"))
    value = iterated_rectangle(f, (0.0, 20.0), (0.0, 20.0), "xy", _DECAY_CFG)
    assert abs(value - (1.0 - math.exp(-20.0)) ** 2) <= 5e-7
    assert calls[0] <= 1.9e7


# ---------------------------------------------------------------------------
# the special infinite case
# ---------------------------------------------------------------------------

def test_special_integrand_factorization():
    f = special_integrand()
    for x, z in ((0.3, 0.7), (1.1, 2.0)):
        assert f(x, z) == pytest.approx(
            x * math.exp(-x * x) * math.exp(-x * x * z * z), rel=1e-14)


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


@pytest.mark.parametrize("b", [4.0, 8.0, 16.0])
def test_special_orders_match_the_truncated_reference(b):
    # the steep e^(-b^2 z^2) inner profile needs the inner floor of 8
    # levels: at 6, b = 16 is off by 2.5 %
    ref = special_truncated_midpoint(b)
    rep = special_infinite_fubini(b)
    for value in (rep.value_xy, rep.value_yx):
        assert abs(value - ref) <= 1e-4 * ref


@pytest.mark.parametrize("b", [1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
def test_tail_certificate_soundness(b):
    rep = special_infinite_fubini(b)
    cert = rep.tail_certificate
    assert abs(rep.full_value - rep.value_xy) <= cert.bound_A
    assert abs(rep.full_value - rep.value_yx) <= cert.bound_B
    assert rep.holds


def test_tail_constants_are_the_stated_maxima():
    c, c0, c1, c2 = tail_constants()
    assert abs(c - gaussian_half_line_built()) == 0.0
    # closed-form maximizers: x^3 exp(-x^2) peaks at sqrt(3/2),
    # x exp(-x^2) at sqrt(1/2)
    assert c0 == pytest.approx(1.5 ** 1.5 * math.exp(-1.5), rel=1e-9)
    assert c1 == pytest.approx(math.sqrt(0.5) * math.exp(-0.5), rel=1e-9)
    assert c2 == 0.5
    zs = np.geomspace(1.0, 1e4, 257)
    profile = zs ** (4.0 / 3.0) / (2.0 * (1.0 + zs * zs))
    assert np.all(profile < c2)


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
    f = registry_bivariate("inverse-quartic")
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
    f = registry_bivariate("product-exp")
    rep, _ = decay_bounded_fubini(f, math.e ** 2, [6.0, 12.0, 20.0])
    # separable oracle: (1 - exp(-b))^2, within 1e-8 of 1 at b = 20
    oracle = (1.0 - math.exp(-20.0)) ** 2
    assert abs(oracle - 1.0) <= 1e-8
    assert abs(rep.value_xy - oracle) <= 5e-7
    assert abs(rep.value_yx - oracle) <= 5e-7
    assert rep.discrepancy <= 1e-8


def test_decay_violation_detected():
    f = BivariateFunction(lambda x, y: 1.0 / (1.0 + x + y), "slow",
                          lambda xs, ys: 1.0 / (1.0 + xs + ys))
    with pytest.raises(DecayViolation):
        decay_bounded_fubini(f, 1.0, [4.0])


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
    v = counterexample_section_integral(2.0)
    assert abs(v - math.exp(-2.0)) <= 1e-6
    # the ridge contributes ~ exp(-x) per section width, all sections finite
    assert counterexample_section_integral(0.5) < 2.0


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
        cfg = BuildConfig(target_uniform_gap=1e-9, max_refinement=22,
                          probe_grid=257, min_refinement=8)
        P = build_primitive(section, (0.0, 40.0), cfg)
        direct = P.evaluate(40.0) + math.exp(-x - 40.0)  # truncated floor tail
        assert abs(inner(x) - direct) <= 1e-6, x
