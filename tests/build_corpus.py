"""The bit-identity corpus: fixed builds and limits, recorded bit for bit.

Each case is one call into the builder: ``build_primitive`` on the 1-D
registry functions, a pole, an overflowing primitive and two scalar-only
integrands that raise, at every ``min_refinement`` from 1 to 8,
``ray_integral`` on exp(-x^2) and exp(-x), and both orders of
``iterated_rectangle`` on the benchmark's base rectangle of every
bivariate registry id.  A case records the value at the right end as
``float.hex``, the piece count and gap history of the last primitive the
call built (for ``iterated_rectangle``, the outer build), or the error
class and message the call raised.

The limit half runs the endpoint-limit kernel through its public
entries: ``newton_integral`` on every registry pair with a closed-form
antiderivative over seeded finite intervals, rays, the whole line, short
intervals and intervals 1-4 ulps wide, at both ``LimitConfig``s;
``hake_check`` and ``integrate_by_parts``; ``gamma_pair`` at n = 0..170;
and ``endpoint_limit`` on rays from bases 0.5 to 1e300 toward +inf and
-inf.  A case records each limit's value and last delta as ``float.hex``,
``converged`` and ``steps_used`` (an identity report's two sides and
verdict), or the error class and message, with a ``NonConvergent``'s
last value, last delta and steps.

``tests/golden/builds.json`` and ``tests/golden/limits.json`` hold the
records; ``test_build_corpus.py`` compares them.  The records are taken on
numpy's x86 baseline, which ``tests/conftest.py`` sets for the tests.  A
change that moves numbers on purpose regenerates both under the same
baseline with

    NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR" \
        PYTHONPATH=src python tests/build_corpus.py

and says in CHANGES.md how many cases moved in each family and by how
much.
"""

from __future__ import annotations

import json
import math
import random
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from newton_calc import builder, fubini
from newton_calc.builder import BuildConfig, ray_integral
from newton_calc.core import (DEFAULT_LIMIT_CONFIG, PRECISE_LIMIT_CONFIG,
                               LimitResult, NewtonCalcError, NonConvergent,
                               RealFunction, endpoint_limit)
from newton_calc.engine import (IdentityReport, IntegralResult, hake_check,
                                integrate_by_parts, newton_integral)
from newton_calc.fubini import RECT_CFG, iterated_rectangle
from newton_calc.functions import (BIVARIATE_REGISTRY, REGISTRY, gamma_pair,
                                   pair_for)

CORPUS = Path(__file__).resolve().parent / "golden" / "builds.json"
LIMIT_CORPUS = Path(__file__).resolve().parent / "golden" / "limits.json"

# one interval inside each registry function's domain, plus two that meet
# a pole or a log singularity at a mesh node
INTERVALS: List[Tuple[str, Tuple[float, float]]] = [
    ("cos", (0.0, 1.5)),
    ("sin", (0.0, 3.0)),
    ("log", (0.5, 4.0)),
    ("log1p", (0.0, 2.0)),
    ("exp-neg", (-1.0, 3.0)),
    ("exp-neg-square", (0.0, 1.0)),
    ("reciprocal-square", (0.5, 2.0)),
    ("identity", (-1.0, 2.0)),
    ("one", (0.0, 1.0)),
    ("inverse-quadratic", (-2.0, 5.0)),
    ("log", (0.0, 1.0)),
    ("reciprocal-square", (-1.0, 1.0)),
]

# a primitive that overflows after a few levels
BIG_COS = RealFunction(lambda x: 1.5e308 * math.cos(40.0 * x),
                       label="1.5e308 cos(40 x)",
                       vector_fn=lambda xs: 1.5e308 * np.cos(40.0 * xs))

# poles at 1/4 and 1/32, first mesh nodes of [0, 1] at levels 2 and 5
TWO_POLES = RealFunction(
    lambda x: 1.0 / ((x - 0.25) * (x - 0.03125)), label="two poles",
    vector_fn=lambda xs: 1.0 / ((xs - 0.25) * (xs - 0.03125)))


def reciprocal(x: float) -> float:
    return 1.0 / x


# poles and overflow on [0, 1], and scalar-only integrands (no vector twin)
# that raise at a mesh node: math.log at 0, 1/x at 0
SPECIAL: List[Tuple[str, Callable[[float], float], Tuple[float, float]]] = [
    ("big-cos", BIG_COS, (0.0, 1.0)),
    ("two-poles", TWO_POLES, (0.0, 1.0)),
    ("scalar-log", math.log, (0.0, 1.0)),
    ("scalar-reciprocal", reciprocal, (-1.0, 1.0)),
]

EXP_NEG_SQ = RealFunction(lambda x: math.exp(-x * x), label="exp(-x^2)",
                          vector_fn=lambda xs: np.exp(-xs * xs))
EXP_NEG = RealFunction(lambda x: math.exp(-x), label="exp(-x)",
                       vector_fn=lambda xs: np.exp(-xs))

# perfbench's BASE_RECTANGLES (x0, x1, y0, y1), unjittered
RECTANGLES: Dict[str, Tuple[float, float, float, float]] = {
    "one2d": (0.0, 1.0, 0.0, 2.0),
    "plane": (0.0, 1.0, 0.0, 2.0),
    "x-ysquared": (-1.0, 1.0, 0.0, 1.0),
    "exp-neg-sum-squares": (0.0, 1.0, 0.0, 1.0),
    "cos-x-sin-y": (0.0, 1.0, 0.0, 1.0),
    "inverse-quartic": (-0.5, 0.5, 0.0, 1.0),
    "product-exp": (0.0, 1.0, 0.0, 1.0),
    "sin-product": (0.0, 1.0, 0.0, 1.0),
    "log-bowl": (-0.5, 0.5, 0.0, 1.0),
    "ridge": (-1.0, 0.0, 0.0, 1.0),
}


def cases() -> List[Tuple[str, Callable[[], float]]]:
    """(name, call) for every case, in the corpus's order."""
    out: List[Tuple[str, Callable[[], float]]] = []
    for m in range(1, 9):
        cfg = BuildConfig(min_refinement=m)
        for id_, (a, b) in INTERVALS:
            f = REGISTRY[id_].fn
            out.append((f"build {id_} [{a}, {b}] m={m}",
                        lambda f=f, a=a, b=b, cfg=cfg:
                        builder.build_primitive(f, (a, b), cfg).evaluate(b)))
        for name, f, (a, b) in SPECIAL:
            out.append((f"build {name} [{a}, {b}] m={m}",
                        lambda f=f, a=a, b=b, cfg=cfg: builder.build_primitive(
                            f, (a, b), cfg).evaluate(b)))
    for f in (EXP_NEG_SQ, EXP_NEG):
        for a in (0.0, -2.0):
            for gap in (1e-8, 1e-10):
                out.append((f"ray {f.label} from {a} gap={gap}",
                            lambda f=f, a=a, gap=gap: ray_integral(
                                f, a, 1.0, BuildConfig(gap))))
    for id_, (x0, x1, y0, y1) in RECTANGLES.items():
        for order in ("xy", "yx"):
            out.append((f"rect {id_} {order}",
                        lambda id_=id_, x0=x0, x1=x1, y0=y0, y1=y1,
                        order=order: iterated_rectangle(
                            BIVARIATE_REGISTRY[id_], (x0, x1), (y0, y1),
                            order, RECT_CFG)))
    return out


@contextmanager
def last_build(seen: list):
    """Record every primitive build_primitive returns, under both names
    the library calls it by."""
    original = builder.build_primitive

    def recording(*args, **kwargs):
        P = original(*args, **kwargs)
        seen.append(P)
        return P

    builder.build_primitive = fubini.build_primitive = recording
    try:
        yield
    finally:
        builder.build_primitive = fubini.build_primitive = original


def record(name: str, call: Callable[[], float]) -> dict:
    seen: list = []
    entry: dict = {"case": name}
    with last_build(seen):
        try:
            entry["value"] = float(call()).hex()
        except NewtonCalcError as exc:
            entry["error"] = type(exc).__name__
            entry["message"] = str(exc)
    if "value" in entry:
        P = seen[-1]
        entry["piece_count"] = P.piece_count
        entry["gap_history"] = [g.hex() for g in P.gap_history]
    return entry


def corpus() -> List[dict]:
    return [record(name, call) for name, call in cases()]


# ---------------------------------------------------------------------------
# the limit half
# ---------------------------------------------------------------------------

LIMIT_CONFIGS = (("default", DEFAULT_LIMIT_CONFIG),
                 ("precise", PRECISE_LIMIT_CONFIG))

# exponents of the seeded distances from a domain's finite end (or from 0
# on the whole line): far enough out that points near an end round to a
# coarse grid
EXPONENTS = (-3.0, 6.0)

# bases of the rays, toward +inf from each and toward -inf from its negative
RAY_BASES = (0.5, 1.0, 2.0, 10.0, 1e3, 1e8, 1e16, 1e100, 1e300)


def _limit_intervals(domain: Tuple[float, float], rng: random.Random
                     ) -> List[Tuple[str, Tuple[float, float]]]:
    """Named intervals inside one domain of a registry antiderivative."""
    lo, hi = domain

    def point() -> float:
        d = 10.0 ** rng.uniform(*EXPONENTS)
        if math.isfinite(lo):
            return lo + d
        if math.isfinite(hi):
            return hi - d
        return math.copysign(d, rng.random() - 0.5)

    out = []
    for _ in range(6):
        a, b = sorted((point(), point()))
        out.append(("finite", (a, b)))
    x = point()
    if hi == math.inf:
        out.append(("ray", (x, hi)))
    if lo == -math.inf:
        out.append(("ray", (lo, x)))
    if math.isinf(lo) and math.isinf(hi):
        out.append(("line", (lo, hi)))
    else:
        out.append(("domain", (lo, hi)))
    for _ in range(2):
        x = point()
        out.append(("short", (x, x + 1e-6 * max(1.0, abs(x)))))
    x = point()
    b = x
    for ulps in range(1, 5):
        b = math.nextafter(b, math.inf)
        out.append((f"{ulps}-ulp", (x, b)))
    return out


def _by_parts_gamma(n: int, cfg) -> IdentityReport:
    F_lower = gamma_pair(n - 1).primitive
    return integrate_by_parts(
        F=RealFunction(lambda x: -math.exp(-x)),
        f=RealFunction(lambda x: math.exp(-x)),
        G=RealFunction(lambda x: x ** n),
        g=RealFunction(lambda x: n * x ** (n - 1)),
        domain=(0.0, math.inf),
        fG_primitive=gamma_pair(n).primitive,
        Fg_primitive=RealFunction(lambda x: -n * F_lower(x)),
        cfg=cfg)


def _by_parts_sin_cos(a: float, b: float, cfg) -> IdentityReport:
    # f G = cos x cos x, F g = -sin x sin x
    return integrate_by_parts(
        F=math.sin, f=math.cos, G=math.cos, g=lambda x: -math.sin(x),
        domain=(a, b),
        fG_primitive=lambda x: 0.5 * x + 0.25 * math.sin(2.0 * x),
        Fg_primitive=lambda x: -0.5 * x + 0.25 * math.sin(2.0 * x),
        cfg=cfg)


def _tail(x: float) -> float:
    """-1/x, whose limit at either infinity is 0."""
    return -1.0 / x


def _exp_neg_abs(x: float) -> float:
    return math.exp(-abs(x))


def limit_cases() -> List[Tuple[str, Callable[[], object]]]:
    """(name, call) for every limit case, in the corpus's order."""
    out: List[Tuple[str, Callable[[], object]]] = []
    rng = random.Random(18)
    for id_, nf in REGISTRY.items():
        if nf.primitive is None:
            continue
        for domain in nf.domains:
            for kind, (a, b) in _limit_intervals(domain, rng):
                pair = pair_for(id_, a, b)
                for cname, cfg in LIMIT_CONFIGS:
                    out.append((f"integral {id_} {kind} ({a!r}, {b!r}) "
                                f"{cname}",
                                lambda pair=pair, cfg=cfg:
                                newton_integral(pair, cfg)))
    for cname, cfg in LIMIT_CONFIGS:
        for id_, (a, b) in (("cos", (0.3, 2.1)), ("exp-neg", (-1.0, 4.0)),
                            ("inverse-quadratic", (-2.0, math.inf)),
                            ("inverse-quadratic", (-math.inf, math.inf)),
                            ("log", (0.0, 3.0)), ("exp-neg", (0.0, math.inf)),
                            ("reciprocal-square", (0.0, 1.0))):
            out.append((f"hake {id_} ({a!r}, {b!r}) {cname}",
                        lambda pair=pair_for(id_, a, b), cfg=cfg:
                        hake_check(pair, cfg)))
        for n in (1, 4, 12):
            out.append((f"by-parts gamma n={n} {cname}",
                        lambda n=n, cfg=cfg: _by_parts_gamma(n, cfg)))
        for a, b in ((0.0, 1.5), (-3.0, 7.0)):
            out.append((f"by-parts sin cos ({a!r}, {b!r}) {cname}",
                        lambda a=a, b=b, cfg=cfg: _by_parts_sin_cos(a, b, cfg)))
        for n in range(171):
            out.append((f"gamma n={n} {cname}",
                        lambda n=n, cfg=cfg:
                        newton_integral(gamma_pair(n), cfg)))
    for F in (math.atan, _tail, _exp_neg_abs):
        for base in RAY_BASES:
            for iv, end in (((base, math.inf), "upper"),
                            ((-math.inf, -base), "lower")):
                out.append((f"ray {F.__name__} {iv!r} {end}",
                            lambda F=F, iv=iv, end=end:
                            endpoint_limit(F, iv, end)))
    return out


def _limit_fields(res: LimitResult) -> dict:
    return {"value": res.value.hex(), "converged": res.converged,
            "steps_used": res.steps_used,
            "last_delta": res.last_delta.hex()}


def limit_record(name: str, call: Callable[[], object]) -> dict:
    entry: dict = {"case": name}
    try:
        out = call()
    except NewtonCalcError as exc:
        entry["error"] = type(exc).__name__
        entry["message"] = str(exc)
        if isinstance(exc, NonConvergent):
            last = exc.last_value
            entry["last_value"] = None if last is None else last.hex()
            entry["last_delta"] = exc.last_delta.hex()
            entry["steps_used"] = exc.steps_used
        return entry
    if isinstance(out, LimitResult):
        entry.update(_limit_fields(out))
    elif isinstance(out, IntegralResult):
        entry["value"] = out.value.hex()
        entry["lower"] = _limit_fields(out.lower_limit)
        entry["upper"] = _limit_fields(out.upper_limit)
    else:
        entry.update(lhs=out.lhs.hex(), rhs=out.rhs.hex(), holds=out.holds)
    return entry


def limit_corpus() -> List[dict]:
    return [limit_record(name, call) for name, call in limit_cases()]


if __name__ == "__main__":
    for path, entries in ((CORPUS, corpus()), (LIMIT_CORPUS, limit_corpus())):
        path.write_text(json.dumps(entries, indent=1) + "\n")
        print(f"wrote {len(entries)} cases to {path}")
