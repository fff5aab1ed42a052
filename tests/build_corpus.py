"""The build corpus: fixed constructive builds, recorded bit for bit.

Each case is one call into the builder: ``build_primitive`` on the 1-D
registry functions, a pole, an overflowing primitive and two scalar-only
integrands that raise, at every ``min_refinement`` from 1 to 8,
``ray_integral`` on exp(-x^2) and exp(-x), and both orders of
``iterated_rectangle`` on the benchmark's base rectangle of every
bivariate registry id.  A case records the value at the right end as
``float.hex``, the piece count and gap history of the last primitive the
call built (for ``iterated_rectangle``, the outer build), or the error
class and message the call raised.

``tests/golden/builds.json`` holds the record; ``test_build_corpus.py``
compares it.  The record is taken on numpy's x86 baseline, which
``tests/conftest.py`` sets for the tests.  A change that moves numbers on
purpose regenerates it under the same baseline with

    NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR" \
        PYTHONPATH=src python tests/build_corpus.py

and says in CHANGES.md how many cases moved in each family and by how
much.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from newton_calc import builder, fubini
from newton_calc.builder import BuildConfig, ray_integral
from newton_calc.core import NewtonCalcError, RealFunction
from newton_calc.fubini import RECT_CFG, iterated_rectangle
from newton_calc.functions import BIVARIATE_REGISTRY, REGISTRY

CORPUS = Path(__file__).resolve().parent / "golden" / "builds.json"

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


if __name__ == "__main__":
    entries = corpus()
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} cases to {CORPUS}")
