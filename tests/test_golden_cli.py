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
