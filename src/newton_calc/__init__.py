"""Antiderivative-based (Newton) integral calculus, executable.

Integrals are differences of endpoint limits of an antiderivative; the
package constructs antiderivatives for continuous integrands, verifies the
classical manipulation rules numerically, iterates integrals in two
variables with explicit truncation certificates, and reproduces the
factorial asymptotics n! ~ sqrt(2 pi n) (n/e)^n along two independent
routes with quantified error terms.

The namespace is lazy (PEP 562): ``import newton_calc`` loads neither numpy
nor any submodule, and each name below is imported from its module on
first use.
"""

import importlib

_EXPORTS = {
    "core": ("DEFAULT_LIMIT_CONFIG", "PRECISE_LIMIT_CONFIG",
             "EvaluationFailure", "Interval", "LimitConfig", "LimitResult",
             "NewtonCalcError", "NonConvergent", "RealFunction",
             "one_sided_limit"),
    "builder": ("BuildConfig", "PiecewisePrimitive", "RefinementExhausted",
                "build_primitive", "derivative_check", "ray_integral"),
    "engine": ("IdentityReport", "IntegralResult", "PrimitivePair",
               "hake_check", "integrate_by_parts", "linear_combine",
               "ml_bound_check", "monotone_compare", "newton_integral",
               "pair_from_primitive", "split_additive", "substitute"),
    "fubini": ("BivariateFunction", "IteratedIntegralReport", "TailBound",
               "asymmetry_counterexample", "decay_bounded_fubini",
               "iterated_rectangle", "special_infinite_fubini"),
    "sums": ("AsymptoticRecord", "SumIntegralReport", "TailConstantReport",
             "incomplete_stirling", "log_factorial",
             "log_factorial_first_expression", "monotone_sum_vs_integral",
             "tail_constant"),
    "wallis": ("WallisValue", "determine_stirling_constant",
               "wallis_closed_form", "wallis_integral", "wallis_recurrence"),
    "laplace": ("ConcentrationBudget", "LaplaceConfig", "concentrate",
                "gamma_integral", "gauss_integral", "reduce_to_gauss",
                "stirling_via_laplace"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}
# the library's modules, reachable as attributes (newton_calc.fubini); the
# command line (cli, __main__) is imported by its full name only
_SUBMODULES = frozenset(_EXPORTS) | {"functions"}

__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__),
                        name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
