"""The lazy package namespace, each check in a fresh interpreter.

``import newton_calc`` loads no submodule and no numpy; a public name is
imported from its module on first use.  Every check runs in a new process
so that modules the pytest process already imported cannot hide a failure.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# the package's public names by defining module, as the eager __init__
# bound them before it became lazy
PUBLIC = {
    "core": {"DEFAULT_LIMIT_CONFIG", "PRECISE_LIMIT_CONFIG",
             "EvaluationFailure", "Interval", "LimitConfig", "LimitResult",
             "NewtonCalcError", "NonConvergent", "RealFunction",
             "one_sided_limit"},
    "builder": {"BuildConfig", "PiecewisePrimitive", "RefinementExhausted",
                "build_primitive", "derivative_check", "ray_integral"},
    "engine": {"IdentityReport", "IntegralResult", "PrimitivePair",
               "hake_check", "integrate_by_parts", "linear_combine",
               "ml_bound_check", "monotone_compare", "newton_integral",
               "pair_from_primitive", "split_additive", "substitute"},
    "fubini": {"BivariateFunction", "IteratedIntegralReport", "TailBound",
               "asymmetry_counterexample", "decay_bounded_fubini",
               "iterated_rectangle", "special_infinite_fubini"},
    "sums": {"AsymptoticRecord", "SumIntegralReport", "TailConstantReport",
             "incomplete_stirling", "log_factorial",
             "log_factorial_first_expression", "monotone_sum_vs_integral",
             "tail_constant"},
    "wallis": {"WallisValue", "determine_stirling_constant",
               "wallis_closed_form", "wallis_integral", "wallis_recurrence"},
    "laplace": {"ConcentrationBudget", "LaplaceConfig", "concentrate",
                "gamma_integral", "gauss_integral", "reduce_to_gauss",
                "stirling_via_laplace"},
}


def fresh(code: str):
    """Run code in a new interpreter; it prints one JSON value."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_bare_import_loads_no_numpy_and_leaves_the_environment():
    out = fresh(
        "import json, os, sys\n"
        "before = dict(os.environ)\n"
        "import newton_calc\n"
        "print(json.dumps({'numpy': 'numpy' in sys.modules,\n"
        "    'loaded': sorted(m for m in sys.modules\n"
        "                     if m.startswith('newton_calc.')),\n"
        "    'environ': dict(os.environ) == before}))\n")
    assert out == {"numpy": False, "loaded": [], "environ": True}


def test_importing_every_library_module_leaves_the_environment():
    modules = sorted(p.stem for p in (SRC / "newton_calc").glob("*.py")
                     if p.stem not in ("__init__", "__main__"))
    assert "cli" in modules  # the CLI's module too: only __main__ sets it
    out = fresh(
        "import importlib, json, os\n"
        "before = dict(os.environ)\n"
        f"for m in {modules!r}:\n"
        "    importlib.import_module('newton_calc.' + m)\n"
        "print(json.dumps(dict(os.environ) == before))\n")
    assert out is True


def test_all_is_pinned_and_each_name_is_its_modules_object():
    owner = {name: m for m, names in PUBLIC.items() for name in names}
    out = fresh(
        "import importlib, json\n"
        "import newton_calc\n"
        f"owner = {owner!r}\n"
        "print(json.dumps({'all': newton_calc.__all__, 'other': [\n"
        "    name for name in newton_calc.__all__\n"
        "    if getattr(newton_calc, name) is not getattr(\n"
        "        importlib.import_module('newton_calc.' + owner[name]), name)]}))\n")
    assert sorted(out["all"]) == sorted(owner)
    assert out["other"] == []


def test_submodules_resolve_after_a_bare_import():
    out = fresh(
        "import json\n"
        "import newton_calc\n"
        "print(json.dumps([newton_calc.fubini.__name__,\n"
        "                  newton_calc.functions.__name__,\n"
        "                  newton_calc.fubini.iterated_rectangle\n"
        "                  is newton_calc.iterated_rectangle]))\n")
    assert out == ["newton_calc.fubini", "newton_calc.functions", True]


def test_unknown_names_raise_attribute_error():
    # __main__ included: looking it up must not run the command line
    out = fresh(
        "import json\n"
        "import newton_calc\n"
        "seen = {}\n"
        "for name in ('no_such_name', '__main__', 'cli'):\n"
        "    try:\n"
        "        getattr(newton_calc, name)\n"
        "        seen[name] = 'resolved'\n"
        "    except AttributeError as exc:\n"
        "        seen[name] = str(exc)\n"
        "print(json.dumps(seen))\n")
    assert out == {name: f"module 'newton_calc' has no attribute '{name}'"
                   for name in ("no_such_name", "__main__", "cli")}


def test_dir_covers_all_and_star_import_binds_it():
    out = fresh(
        "import json\n"
        "import newton_calc\n"
        "names = {}\n"
        "exec('from newton_calc import *', names)\n"
        "print(json.dumps({\n"
        "    'dir': sorted(set(newton_calc.__all__) - set(dir(newton_calc))),\n"
        "    'star': sorted(set(newton_calc.__all__) - set(names)),\n"
        "    'version': newton_calc.__version__}))\n")
    assert out == {"dir": [], "star": [], "version": "0.1.0"}
