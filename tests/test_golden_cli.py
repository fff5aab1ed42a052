"""Byte-for-byte stdout of every README command against stored golden files.

The files under tests/golden/ hold the stdout of each command as printed
before the builder and fubini refinement loops were merged into one
kernel; any refactor of the numerics must leave these bytes unchanged.
Two files were regenerated on purpose since: fubini_decay.txt and
fubini_special.txt moved when the inner integrals went from trapezoid
sums stalling per 1024-node chunk to Simpson values (the cubic
antiderivative of the piecewise-quadratic interpolant) stalling per node.
wallis.txt, gamma.txt, fubini_counterexample.txt, fubini_decay.txt,
fubini_special.txt and integrate_exp_neg_square.txt (whose built_level went
from 14 to 8) moved when build_primitive went from linear pieces with
quadratic antiderivatives to quadratic pieces with cubic antiderivatives.
Every moved value lies closer to an independent high-precision reference,
except two that stay about as close: the special case's yx value (error
1.03e-7 -> 1.09e-7) and the numeric 12! (relative error 3.7e-16 -> 1.5e-15).
Eight files moved when finite-endpoint limits began to stall on two
Richardson columns and the strip constant came from Richardson
extrapolation of 1000/2000/4000 terms: fubini_counterexample,
fubini_special, gauss, integrate_cos, stirling, sumint, wallis and
integrate_exp_neg_square; fubini_rect, fubini_decay and gamma stayed
byte-identical.  Every moved value lies closer to its reference except
two.  integrate_exp_neg_square went from error 8.7e-14 to 1.9e-12: the
limits now reproduce the built primitive's own P(1) - P(0), whose
construction error the older, biased limits happened to cancel.  The
counterexample's xy value went from 2.121e-9 to 2.123e-9, an error set by
its builder's 1e-8 gap; the move itself is the unit exponential integral
landing on 1.  gauss.txt and stirling.txt moved when limits at infinity
became the finite-endpoint kernel's limit at t = 1- of F(t / (1 - t)):
against mpmath, the gauss value's error went from 1.6e-11 to 4e-15
(residual 1.64e-11 -> 0), and in each Laplace row the approximation's
error went from 0.9e-11-1.3e-11 to under 3e-12 (abs_error's from about
9.2e-12 to under 7e-14, predicted_bound's from 2e-12-6e-12 to under
1e-16).
gamma.txt and fubini_special.txt moved when built integrals over rays
stopped being cut at a chosen point and began to be built whole through
the substitution x = a + s t / (1 - t) (builder.ray_integral); both moved
away from their references, within the builder's own rounding: the
numeric 12!'s relative error went from 1.5e-15 to 4.1e-14, and the
special case's full value (pi/4, the square of the built half-line
Gaussian integral) from an error of -3.3e-16 to 9.8e-15, with bound_a
moving in its last two digits.  integrate_inverse_quadratic.txt was added
with the README's --lo=-inf example.
Six files moved in their last digits when each built cubic was written
about its own left breakpoint instead of the interval's left end: gamma,
wallis, fubini_special, fubini_decay, fubini_counterexample and
integrate_exp_neg_square.  Against references outside the library (exact
12!, W_n from fractions times pi/2, pi/4, sqrt(pi)/2 erf(1), and mpmath
quadrature of closed-form inner integrals and of the oracles' ridge
excess): the numeric 12!'s relative error went from 4.1e-14 to 6.2e-16;
the special case's full value from +1.0e-14 to -1.9e-15 of pi/4, bound_a
moving by 2e-15; the decay values' errors shrank at b = 8, 16 and 32
(at 32 from -4.50e-14 to -4.40e-14) and stayed at b = 4; the
counterexample's xy value moved 4.9e-15 toward its reference (error
2.12e-9).  Moved away, each by less than 4e-15 relative: the special
case's xy and yx values (by 1.8e-15 and 6.7e-16, on errors of 1.05e-7 and
1.09e-7), the exp(-x^2) integral (by 5.6e-16, on an error of 1.90e-12 set
by its 1e-8 gap target), and wallis' by_integral at n = 3, 5, 9, 13, 17,
18, 20 and 30 (at most 1.44e-14 -> 1.80e-14, at n = 3); it moved closer
at 21 of the 31 n, and its largest error went from 3.15e-14 to 3.11e-14.
stirling.txt's predicted_bound column moved when the bound constants
stopped being fitted to the library's own output and became the proven
closed forms: the sum rows from 0.124958/n to 1/(8n) (0.0124958451715314
-> 0.0125 at n = 10), the Laplace rows from 0.081061 n**(eps - 1/2) to
n**(eps - 1/2) / 12 (0.0511463278799954 -> 0.0525797787066828 at n = 10);
every other column, and every within_bound, is unchanged.
fubini_special.txt moved in two last digits when the goldens were
regenerated on numpy's x86 baseline (tests/conftest.py) instead of its
AVX-512 code paths: discrepancy 4.18503010024551e-09 -> 4.18503021126782e-09,
one ulp of the two values it subtracts, which print the same, and
full_value 0.785398163397446 -> 0.785398163397447, whose error against
pi/4 went from -1.92e-15 to -1.70e-15 (the built half-line Gaussian
integral's from -1.21e-15 to -1.08e-15 relative of sqrt(pi)/2, by
mpmath).
fubini_decay.txt and fubini_special.txt moved when inner integrals began
to stall from their config's min_refinement (6 for the decay config, 7 for
the special case at b = 10) instead of a fixed floor of 8.  Against mpmath
quadrature of the closed-form inner integrals, the decay values moved away
by 7.1e-12 to 9.9e-11 relative (at b = 4 from -3.9e-12 to -1.03e-10),
within the config's 1e-7 gap target; the special case's xy value moved
3.0e-11 closer (error +1.424813e-7 -> +1.424512e-7), and with it the
discrepancy, 4.18503021126782e-09 -> 4.20717627402922e-09.
fubini_special.txt moved when each iteration order of the special case
got its own config: the xy order's floor at b = 10 went from 7 to 6
(2**m >= b sqrt(ln(1/gap)) instead of b**2), and its value moved 1.5e-9
relative closer to mpmath quadrature of the closed-form inner integral
(error +1.424512e-7 -> +1.409170e-7), with it the discrepancy,
4.20717627402922e-09 -> 5.33567356963971e-09.  value_yx and every other
column are unchanged.
Commands run in-process through ``cli.main``.
"""

import io
from pathlib import Path

import pytest

from newton_calc.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"

README_COMMANDS = {
    "stirling": ["stirling", "--n", "10", "100", "1000", "--method", "both",
                 "--epsilon", "0.3"],
    "gauss": ["gauss", "--format", "json"],
    "wallis": ["wallis", "--n-max", "30"],
    "gamma": ["gamma", "--n", "12", "--mode", "numeric"],
    "sumint": ["sumint", "--function-id", "log", "--a", "1", "--b", "100"],
    "integrate_cos": ["integrate", "--function-id", "cos", "--lo", "0",
                      "--hi", "1.5707963"],
    "integrate_inverse_quadratic": ["integrate", "--function-id",
                                    "inverse-quadratic", "--lo=-inf",
                                    "--hi", "inf"],
    "fubini_special": ["fubini", "--case", "special", "--b", "10"],
    "fubini_rect": ["fubini", "--case", "rect", "--function-id", "plane",
                    "--bounds", "0", "1", "0", "2"],
    "fubini_decay": ["fubini", "--case", "decay", "--function-id",
                     "inverse-quartic", "--schedule", "4", "8", "16", "32"],
    "fubini_counterexample": ["fubini", "--case", "counterexample",
                              "--X", "100"],
}

CACHED_INTEGRATE = ["integrate", "--function-id", "exp-neg-square",
                    "--lo", "0", "--hi", "1"]


def run_cli(argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def golden(name: str) -> str:
    return (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", sorted(README_COMMANDS))
def test_readme_command_matches_golden(name):
    code, text = run_cli(README_COMMANDS[name])
    assert code == EXIT_OK
    assert text == golden(name)


def test_cached_integrate_matches_golden_on_miss_and_hit(tmp_path):
    argv = CACHED_INTEGRATE + ["--cache-dir", str(tmp_path)]
    expected = golden("integrate_exp_neg_square")
    code, miss = run_cli(argv)
    assert code == EXIT_OK and miss == expected
    assert len(list(tmp_path.iterdir())) == 1
    code, hit = run_cli(argv)
    assert code == EXIT_OK and hit == expected
