"""Batch command-line surface: every pipeline as a reproducible table.

Output goes to stdout as CSV (default) or JSON; diagnostics go to stderr.
Floats are printed with 15 significant digits so identical invocations
produce byte-identical output.  Exit codes: 0 all checks passed, 2 a
numerical check failed, 64 usage error (including unknown registry ids,
arguments out of a function's range, an interval outside the domain of a
registry antiderivative, and an unusable --cache-dir), 74 stdout closed
(returned by ``__main__.run``, which owns the process).

Start-up, not computation, dominates most commands, so each handler
imports the library functions it calls when it runs: a command loads
``core``, ``engine`` and ``functions`` (for the error types and the
registry) and the modules it calls, and no others.  ``integrate`` loads
the builder only when it has to build a primitive.  The same holds for
the standard library: ``json`` loads only for ``--format json`` (and with
the builder's cache blobs), ``pathlib`` and ``tempfile`` only with
``--cache-dir``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import lru_cache
from typing import TYPE_CHECKING, List, Optional, Sequence

from .core import NewtonCalcError
from .functions import UnknownFunction

if TYPE_CHECKING:
    from pathlib import Path

    from .builder import PiecewisePrimitive

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_USAGE = 64
EXIT_IOERR = 74  # sysexits' EX_IOERR

SCHEMA_VERSION = 1  # of every command's JSON output


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code and the one-line diagnostic
    this tool promises (-h prints the usage)."""

    def error(self, message: str):
        if message.endswith("expected one argument"):
            # argparse reads a value such as -inf as an option
            message += ("; a value starting with '-' needs the "
                        "--option=VALUE form, such as --lo=-inf")
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def _print_message(self, message: str, file=None) -> None:
        # argparse drops an OSError from the write.  On stdout (-h) that
        # hides a pipe with no reader when stdout is unbuffered, so there
        # the BrokenPipeError goes on to __main__.run, as a buffered one
        # does from run's flush
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".15g")
    if value is None:
        return ""
    return str(value)


def _emit(command: str, columns: Sequence[str], rows: List[dict],
          fmt: str, out) -> None:
    if fmt == "csv":
        out.write(",".join(columns) + "\n")
        for row in rows:
            out.write(",".join(_fmt(row.get(col)) for col in columns) + "\n")
        return
    import json

    # hand-rolled JSON so floats keep the fixed 15-digit rendering
    def scalar(value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return _fmt(value)
        if value is None:
            return "null"
        if isinstance(value, int):
            return str(value)
        return json.dumps(value)

    parts = [f'{{"schema_version": {SCHEMA_VERSION}, '
             f'"command": {json.dumps(command)}, "rows": [']
    row_texts = []
    for row in rows:
        fields = ", ".join(f"{json.dumps(col)}: {scalar(row.get(col))}"
                           for col in columns)
        row_texts.append("{" + fields + "}")
    parts.append(", ".join(row_texts))
    parts.append("]}\n")
    out.write("".join(parts))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_stirling(args, out) -> int:
    from .laplace import stirling_via_laplace
    from .sums import incomplete_stirling

    methods = ["sum", "laplace"] if args.method == "both" else [args.method]
    columns = ["n", "method", "log_factorial_exact", "approximation",
               "abs_error", "predicted_bound", "within_bound"]

    def row(n: int, method: str) -> dict:
        if method == "sum":
            _d, rec = incomplete_stirling(n)
        else:
            rec = stirling_via_laplace(n, args.epsilon)
        return {
            "n": n, "method": method,
            "log_factorial_exact": rec.log_factorial_exact,
            "approximation": rec.approximation,
            "abs_error": rec.abs_error,
            "predicted_bound": rec.predicted_bound,
            "within_bound": rec.within_bound,
        }

    rows = [row(n, m) for n in args.n for m in methods]
    _emit("stirling", columns, rows, args.format, out)
    return EXIT_OK if all(r["within_bound"] for r in rows) else EXIT_CHECK_FAILED


def _cmd_gauss(args, out) -> int:
    from .laplace import gauss_integral

    value = gauss_integral()
    reference = math.sqrt(math.pi)
    residual = abs(value - reference)
    rows = [{"value": value, "reference": reference, "residual": residual,
             "within_tolerance": residual <= 1e-8}]
    _emit("gauss", ["value", "reference", "residual", "within_tolerance"],
          rows, args.format, out)
    return EXIT_OK if residual <= 1e-8 else EXIT_CHECK_FAILED


def _cmd_wallis(args, out) -> int:
    from .wallis import three_way

    columns = ["n", "by_recurrence", "by_integral", "by_closed_form",
               "max_pairwise_rel_err", "agree"]

    def row(n: int) -> dict:
        w = three_way(n)
        values = [w.by_recurrence, w.by_closed_form]
        if w.by_integral is not None:
            values.append(w.by_integral)
        scale = max(abs(v) for v in values)
        worst = max(abs(a - b) for a in values for b in values) / scale
        return {"n": n, "by_recurrence": w.by_recurrence,
                "by_integral": w.by_integral,
                "by_closed_form": w.by_closed_form,
                "max_pairwise_rel_err": worst,
                "agree": worst <= 1e-9}

    rows = [row(n) for n in range(args.n_max + 1)]
    _emit("wallis", columns, rows, args.format, out)
    return EXIT_OK if all(r["agree"] for r in rows) else EXIT_CHECK_FAILED


def _cmd_gamma(args, out) -> int:
    from .functions import factorial_product
    from .laplace import gamma_integral

    value = gamma_integral(args.n, args.mode)
    reference = factorial_product(args.n)
    rel_err = abs(value - reference) / reference
    tol = 1e-12 if args.mode == "exact_primitive" else 1e-6
    rows = [{"n": args.n, "mode": args.mode, "value": value,
             "reference": reference, "rel_err": rel_err,
             "within_tolerance": rel_err <= tol}]
    _emit("gamma", ["n", "mode", "value", "reference", "rel_err",
                    "within_tolerance"], rows, args.format, out)
    return EXIT_OK if rel_err <= tol else EXIT_CHECK_FAILED


def _cmd_sumint(args, out) -> int:
    from .functions import get_function
    from .sums import monotone_sum_vs_integral

    nf = get_function(args.function_id)
    if nf.primitive is None:
        raise UnknownFunction(
            f"function {args.function_id!r} carries no closed-form "
            f"antiderivative; sumint needs one")
    rep = monotone_sum_vs_integral(nf.fn, nf.primitive, args.a, args.b)
    rows = [{"function_id": args.function_id, "a": args.a, "b": args.b,
             "sum": rep.sum, "integral": rep.integral, "theta": rep.theta,
             "theta_in_range": rep.theta_in_range}]
    _emit("sumint", ["function_id", "a", "b", "sum", "integral", "theta",
                     "theta_in_range"], rows, args.format, out)
    return EXIT_OK if rep.theta_in_range else EXIT_CHECK_FAILED


def _parse_bound(text: str) -> float:
    value = float(text)
    if math.isnan(value):
        raise ValueError("bound cannot be NaN")
    return value


def _parse_nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _parse_epsilon(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 0.5:
        raise argparse.ArgumentTypeError("epsilon must lie in (0, 1/2)")
    return value


# argparse names a type callable by __name__ in "invalid <name> value: ..."
_parse_bound.__name__ = "bound"
_parse_epsilon.__name__ = "epsilon"


def _cached_build(fn, lo: float, hi: float,
                  cache_path: Path) -> PiecewisePrimitive:
    """build_primitive(fn, (lo, hi)) through the blob at cache_path."""
    import tempfile

    from . import builder

    try:
        return builder.loads(cache_path.read_text())
    except (FileNotFoundError, ValueError):
        pass  # no blob, or an unreadable one: rebuilt and rewritten
    P = builder.build_primitive(fn, (lo, hi))
    cache_path.parent.mkdir(parents=True, exist_ok=True)
    # temp file plus rename: no reader sees a partial blob
    tmp = tempfile.NamedTemporaryFile("w", dir=cache_path.parent,
                                      suffix=".tmp", delete=False)
    try:
        with tmp:
            tmp.write(builder.dumps(P))
        os.replace(tmp.name, cache_path)
    except OSError:
        os.unlink(tmp.name)
        raise
    return P


def _cmd_integrate(args, out) -> int:
    from .engine import newton_integral
    from .functions import get_function, pair_for

    nf = get_function(args.function_id)
    lo, hi = args.lo, args.hi
    finite = math.isfinite(lo) and math.isfinite(hi)
    if nf.primitive is not None:
        pair = pair_for(args.function_id, lo, hi)
        built_level = None
    elif finite:
        from . import builder
        from .engine import pair_from_primitive

        if args.cache_dir:
            from pathlib import Path

            key = f"{args.function_id}_{lo!r}_{hi!r}_v{builder.SERIALIZATION_VERSION}.json"
            cache_path = Path(args.cache_dir) / key.replace("/", "_")
            try:
                P = _cached_build(nf.fn, lo, hi, cache_path)
            except OSError as exc:
                raise ValueError(f"cache path {exc.filename or cache_path}: "
                                 f"{exc.strerror or exc}") from exc
        else:
            P = builder.build_primitive(nf.fn, (lo, hi))
        pair = pair_from_primitive(P, nf.fn)
        built_level = P.refinement_level
    else:
        raise UnknownFunction(
            f"function {args.function_id!r} has no closed-form "
            f"antiderivative, so the interval must be finite")
    result = newton_integral(pair)
    rows = [{"function_id": args.function_id, "lo": lo, "hi": hi,
             "value": result.value,
             "lower_converged": result.lower_limit.converged,
             "upper_converged": result.upper_limit.converged,
             "built_level": built_level}]
    _emit("integrate", ["function_id", "lo", "hi", "value",
                        "lower_converged", "upper_converged", "built_level"],
          rows, args.format, out)
    return EXIT_OK


def _cmd_fubini(args, out) -> int:
    from .fubini import (asymmetry_counterexample, decay_bounded_fubini,
                         iterated_rectangle, special_infinite_fubini)
    from .functions import get_bivariate

    columns = ["case", "param", "value_xy", "value_yx", "discrepancy",
               "full_value", "bound_a", "bound_b", "analytic_tail", "holds"]
    rows: List[dict] = []
    ok = True
    if args.case == "rect":
        f = get_bivariate(args.function_id)
        x0, x1, y0, y1 = args.bounds
        vxy = iterated_rectangle(f, (x0, x1), (y0, y1), "xy")
        vyx = iterated_rectangle(f, (x0, x1), (y0, y1), "yx")
        disc = abs(vxy - vyx)
        ok = disc <= 1e-6
        rows.append({"case": "rect", "param": args.function_id,
                     "value_xy": vxy, "value_yx": vyx, "discrepancy": disc,
                     "holds": ok})
    elif args.case == "special":
        rep = special_infinite_fubini(args.b)
        ok = rep.holds
        rows.append({"case": "special", "param": _fmt(args.b),
                     "value_xy": rep.value_xy, "value_yx": rep.value_yx,
                     "discrepancy": rep.discrepancy,
                     "full_value": rep.full_value,
                     "bound_a": rep.tail_certificate.bound_A,
                     "bound_b": rep.tail_certificate.bound_B,
                     "holds": rep.holds})
    elif args.case == "decay":
        f = get_bivariate(args.function_id)
        rep, history = decay_bounded_fubini(f, args.decay_constant,
                                            args.schedule)
        ok = rep.holds
        for b, vxy, vyx in history:
            rows.append({"case": "decay", "param": _fmt(b), "value_xy": vxy,
                         "value_yx": vyx, "discrepancy": abs(vxy - vyx),
                         "analytic_tail": 2.0 * args.decay_constant / b,
                         "holds": abs(vxy - vyx) <= 1e-6})
    else:  # counterexample
        rep = asymmetry_counterexample(args.X)
        ok = rep.order_yx_partial >= 0.9 * args.X
        rows.append({"case": "counterexample", "param": _fmt(args.X),
                     "value_xy": rep.order_xy_value,
                     "value_yx": rep.order_yx_partial,
                     "discrepancy": abs(rep.order_yx_partial - rep.order_xy_value),
                     "holds": ok})
    _emit("fubini", columns, rows, args.format, out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

# built once per process: its defaults are immutable, so reuse is safe
@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    parser = _Parser(prog="newton-calc",
                     description="Antiderivative-based integral calculus: "
                                 "factorial asymptotics, cosine-power "
                                 "products, the Gaussian integral, and "
                                 "iterated-integral checks as tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("stirling", help="factorial asymptotics per n")
    p.add_argument("--n", type=int, nargs="+", required=True)
    p.add_argument("--method", choices=("sum", "laplace", "both"),
                   default="both")
    p.add_argument("--epsilon", type=_parse_epsilon, default=0.3)
    add_format(p)

    p = sub.add_parser("gauss", help="the Gaussian integral and its residual")
    add_format(p)

    p = sub.add_parser("wallis", help="cosine-power sequence three ways")
    p.add_argument("--n-max", type=_parse_nonnegative, required=True)
    add_format(p)

    p = sub.add_parser("gamma", help="factorial via the gamma integrand")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("exact_primitive", "numeric"),
                   default="exact_primitive")
    add_format(p)

    p = sub.add_parser("sumint", help="monotone sum versus integral")
    p.add_argument("--function-id", required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    add_format(p)

    p = sub.add_parser("integrate", help="Newton integral of a registry function")
    p.add_argument("--function-id", required=True)
    p.add_argument("--lo", type=_parse_bound, required=True,
                   help="lower endpoint, -inf written as --lo=-inf")
    p.add_argument("--hi", type=_parse_bound, required=True,
                   help="upper endpoint, a negative one as --hi=-1")
    p.add_argument("--cache-dir", default=None,
                   help="directory for built-antiderivative cache blobs")
    add_format(p)

    p = sub.add_parser("fubini", help="iterated-integral checks")
    p.add_argument("--case", choices=("rect", "special", "decay",
                                      "counterexample"), required=True)
    p.add_argument("--function-id", default="exp-neg-sum-squares")
    p.add_argument("--bounds", type=float, nargs=4,
                   default=(0.0, 1.0, 0.0, 1.0),
                   metavar=("X0", "X1", "Y0", "Y1"))
    p.add_argument("--b", type=float, default=10.0)
    p.add_argument("--X", type=float, default=100.0)
    p.add_argument("--decay-constant", type=float, default=1.0)
    p.add_argument("--schedule", type=float, nargs="+",
                   default=(4.0, 8.0, 16.0, 32.0))
    add_format(p)

    return parser


_HANDLERS = {
    "stirling": _cmd_stirling,
    "gauss": _cmd_gauss,
    "wallis": _cmd_wallis,
    "gamma": _cmd_gamma,
    "sumint": _cmd_sumint,
    "integrate": _cmd_integrate,
    "fubini": _cmd_fubini,
}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout if out is None else out
    try:
        return _HANDLERS[args.command](args, out)
    except (UnknownFunction, ValueError) as exc:
        # a ValueError here is an argument a library function rejects or an
        # unusable cache path; a failing integrand is an EvaluationFailure
        print(f"newton-calc: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NewtonCalcError as exc:
        print(f"newton-calc: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
