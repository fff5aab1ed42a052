"""Antiderivative-based (Newton) integral calculus, executable.

Integrals are differences of endpoint limits of an antiderivative; the
package constructs antiderivatives for continuous integrands, verifies the
classical manipulation rules numerically, iterates integrals in two
variables with explicit truncation certificates, and reproduces the
factorial asymptotics n! ~ sqrt(2 pi n) (n/e)^n along two independent
routes with quantified error terms.
"""

from .core import (DEFAULT_LIMIT_CONFIG, PRECISE_LIMIT_CONFIG, EvaluationFailure,
                   Interval, LimitConfig, LimitResult, NewtonCalcError,
                   NonConvergent, RealFunction, limit_at_infinity,
                   one_sided_limit)
from .builder import (BuildConfig, PiecewisePrimitive, RefinementExhausted,
                      build_primitive, derivative_check, ray_integral)
from .engine import (IdentityReport, IntegralResult, PrimitivePair,
                     hake_check, integrate_by_parts, linear_combine,
                     ml_bound_check, monotone_compare, newton_integral,
                     pair_from_primitive, split_additive, substitute)
from .fubini import (BivariateFunction, IteratedIntegralReport, TailBound,
                     asymmetry_counterexample, decay_bounded_fubini,
                     iterated_rectangle, special_infinite_fubini)
from .sums import (AsymptoticRecord, SumIntegralReport, TailConstantReport,
                   incomplete_stirling, log_factorial,
                   log_factorial_first_expression, log_strip_remainder,
                   monotone_sum_vs_integral, tail_constant)
from .wallis import (WallisValue, determine_stirling_constant,
                     ratio_bounds_check, wallis_closed_form,
                     wallis_integral, wallis_recurrence)
from .laplace import (ConcentrationBudget, LaplaceConfig, concentrate,
                      gamma_integral, gauss_integral, reduce_to_gauss,
                      stirling_via_laplace)

__version__ = "0.1.0"
