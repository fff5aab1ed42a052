"""Static scan: no settable value without a caller, no unread field, no
cache that no call repeats, no unused import, no environment read, no
private name imported across modules unless listed.

Every defaulted parameter in src/ must be set by name or by position in
at least one call somewhere in src/, tests/ or perfbench/, and every
defaulted dataclass field by a call in src/ or perfbench/: a value that
nothing sets is a constant and belongs in the body, and so is a
configuration field that only tests vary.  A call that passes the
default's own literal does not set it.  Every dataclass field must be
read, by an attribute load or a ``getattr`` string, somewhere in src/,
tests/ or perfbench/: a field nothing reads only repeats an input.
Every name a module in src/ imports must be used in it (or re-exported
through its __all__).  Matching is by the callee's or attribute's last
name (``f(...)``, ``obj.f(...)``, ``Class(...)`` for ``__init__`` and
dataclass fields), which can only over-count callers and reads, never
miss one.  Parameters whose names start with ``_`` are the
closure-binding idiom (``def g(y, _x=x)``) and are not meant to be set.
A setting belongs on the command line or in a parameter, so nothing in
src/ reads the environment, except the command-line entry asking for one
BLAS thread.
"""

import ast
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "newton_calc").glob("*.py"))
PRODUCTION = SRC + sorted((ROOT / "perfbench").rglob("*.py"))
CALLERS = PRODUCTION + sorted((ROOT / "tests").glob("*.py"))


# every test walks the same files; no test changes a tree
@lru_cache(maxsize=None)
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _callee(node: ast.Call) -> str:
    f = node.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        return f.attr
    return ""


def _decorated(node: ast.AST, names: Tuple[str, ...]) -> bool:
    """node carries a decorator, called or bare, whose last name is in
    names."""
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if _callee(ast.Call(func=target, args=[], keywords=[])) in names:
            return True
    return False


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return _decorated(cls, ("dataclass",))


def _init_false(value: ast.expr) -> bool:
    return (isinstance(value, ast.Call) and _callee(value) == "field"
            and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                    and k.value.value is False for k in value.keywords))


def _fields(cls: ast.ClassDef) -> List[ast.AnnAssign]:
    return [s for s in cls.body if isinstance(s, ast.AnnAssign)
            and isinstance(s.target, ast.Name)]


_NO_LITERAL = object()


def _literal(node: ast.expr):
    """The value of a literal expression with its type, else _NO_LITERAL."""
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return _NO_LITERAL
    return type(value), value


def _settable() -> List[Tuple[str, str, str, int, bool, object]]:
    """(module, callee, name, positional index or -1, is a dataclass field,
    the default's literal or _NO_LITERAL) of every default."""
    found = []
    for path in SRC:
        tree = _parse(path)
        for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
            if not _is_dataclass(cls):
                continue
            fields = [s for s in _fields(cls)
                      if not (s.value is not None and _init_false(s.value))]
            for i, s in enumerate(fields):
                if s.value is not None and not s.target.id.startswith("_"):
                    found.append((path.name, cls.name, s.target.id, i, True,
                                  _literal(s.value)))
        parents: Dict[ast.AST, ast.AST] = {
            child: node for node in ast.walk(tree)
            for child in ast.iter_child_nodes(node)}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = fn.name
            owner = parents.get(fn)
            if name == "__init__" and isinstance(owner, ast.ClassDef):
                name = owner.name
            positional = fn.args.posonlyargs + fn.args.args
            offset = 1 if positional and positional[0].arg in ("self",
                                                               "cls") else 0
            first_default = len(positional) - len(fn.args.defaults)
            for i, arg in enumerate(positional):
                if i >= first_default and not arg.arg.startswith("_"):
                    default = fn.args.defaults[i - first_default]
                    found.append((path.name, name, arg.arg, i - offset,
                                  False, _literal(default)))
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None and not arg.arg.startswith("_"):
                    found.append((path.name, name, arg.arg, -1, False,
                                  _literal(default)))
    return found


Site = Tuple[List[ast.expr], Dict[str, ast.expr], bool]


def _calls(paths: List[Path]) -> Dict[str, List[Site]]:
    """callee -> [(positional values, keyword values, has * or **)]."""
    calls: Dict[str, List[Site]] = {}
    for path in paths:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call):
                starred = any(isinstance(a, ast.Starred) for a in node.args) \
                    or any(k.arg is None for k in node.keywords)
                calls.setdefault(_callee(node), []).append(
                    (node.args, {k.arg: k.value for k in node.keywords
                                 if k.arg is not None}, starred))
    return calls


def test_every_default_is_set_by_some_call():
    anywhere, in_production = _calls(CALLERS), _calls(PRODUCTION)
    unset = []
    for module, callee, name, index, is_field, default in _settable():
        calls = in_production if is_field else anywhere
        sites = calls.get(callee, []) + [
            ([], kw, False) for _, kw, _ in calls.get("replace", [])]

        def sets(value: ast.expr) -> bool:
            return default is _NO_LITERAL or _literal(value) != default

        if not any(starred or (name in keywords and sets(keywords[name]))
                   or (0 <= index < len(args) and sets(args[index]))
                   for args, keywords, starred in sites):
            unset.append(f"{module}: {callee}({name}=...)")
    assert unset == []


def test_every_dataclass_field_is_read():
    read = set()
    for path in CALLERS:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.Call) and _callee(node) == "getattr"
                  and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
    unread = [f"{path.name}: {cls.name}.{s.target.id}" for path in SRC
              for cls in ast.walk(_parse(path))
              if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
              for s in _fields(cls) if s.target.id not in read]
    assert unread == []


# the caches whose function takes a required argument, each with the
# calls that ask it for the same argument again; every other cache holds
# an argument-free constant
_REPEATED_CACHES = {
    # stirling --method both asks both routes for log n!, and a Wallis
    # table asks for log m! at n = m, 2m and 2m + 1; without the
    # cache, tier-1 took 14.7-17.8 s against 10.8-12.1 s (3 alternating
    # runs on 2 x86_64 cores)
    "log_factorial": ("incomplete_stirling", "stirling_via_laplace",
                      "log_wallis_closed_form"),
}


def test_caches_with_arguments_are_only_those_calls_repeat():
    with_arguments = set()
    for path in SRC:
        for fn in ast.walk(_parse(path)):
            if not (isinstance(fn, ast.FunctionDef)
                    and _decorated(fn, ("lru_cache", "cache"))):
                continue
            a = fn.args
            positional = a.posonlyargs + a.args
            if len(positional) > len(a.defaults) or None in a.kw_defaults:
                with_arguments.add(fn.name)
    assert with_arguments == set(_REPEATED_CACHES)
    callers = {fn.name: {_callee(n) for n in ast.walk(fn)
                         if isinstance(n, ast.Call)}
               for path in SRC for fn in ast.walk(_parse(path))
               if isinstance(fn, ast.FunctionDef)}
    for name, repeats in _REPEATED_CACHES.items():
        assert all(name in callers[c] for c in repeats), name


def _imported_names(tree: ast.Module) -> List[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _exported(tree: ast.Module) -> Set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {e.value for e in node.value.elts}
    return set()


def test_every_import_in_src_is_used():
    unused = []
    for path in SRC:
        tree = _parse(path)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= {n.value.id for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute)
                 and isinstance(n.value, ast.Name)}
        if path.name == "__init__.py":
            continue  # the package namespace re-exports on purpose
        for name in _imported_names(tree):
            if name not in used and name not in _exported(tree):
                unused.append(f"{path.name}: {name}")
    assert unused == []


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _is_blas_default(node: ast.AST, parents: Dict[ast.AST, ast.AST]) -> bool:
    """``os.environ.setdefault("OPENBLAS_NUM_THREADS", ...)``"""
    method = parents.get(node)
    call = parents.get(method)
    return (isinstance(method, ast.Attribute) and method.attr == "setdefault"
            and isinstance(call, ast.Call) and call.func is method
            and bool(call.args) and isinstance(call.args[0], ast.Constant)
            and call.args[0].value == "OPENBLAS_NUM_THREADS")


def test_no_environment_read_in_src():
    reads = []
    for path in SRC:
        tree = _parse(path)
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [f"{path.name}:{node.lineno}: from os import {a.name}"
                          for a in node.names if a.name in _ENVIRONMENT]
            elif (isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "os"
                  and not (path.name == "__main__.py"
                           and _is_blas_default(node, parents))):
                reads.append(f"{path.name}:{node.lineno}: os.{node.attr}")
    assert reads == []


# public names that only tests reach, kept on purpose: each measures an
# acceptance criterion or is a step of the paper's derivation whose test
# asserts the paper's claim
_TEST_ONLY = {
    "derivative_check": "test_builder.py::test_derivative_check_bounds",
    "sandwich_scan": "test_wallis.py::test_sandwich_full_scan",
    "tail_constant": "test_sums.py::test_tail_constant_reciprocal_squares",
    "log_factorial_first_expression":
        "test_sums.py::test_first_expression_records",
    "determine_stirling_constant":
        "test_wallis.py::test_stirling_constant_convergence",
}


def test_every_public_name_is_used_outside_tests():
    # a use is any load of the name, bare or as an attribute; the
    # definition and the __all__ and _EXPORTS strings are not loads (the
    # package's own __all__ is the union of _EXPORTS)
    used = set()
    for path in PRODUCTION:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(name for path in SRC if path.name != "__init__.py"
                    for name in _exported(_parse(path)) if name not in used)
    assert unused == sorted(_TEST_ONLY)


def test_each_name_kept_for_tests_is_used_by_its_test():
    for name, test in _TEST_ONLY.items():
        module, _, function = test.partition("::")
        body = next(n for n in _parse(ROOT / "tests" / module).body
                    if isinstance(n, ast.FunctionDef) and n.name == function)
        assert name in {n.id for n in ast.walk(body)
                        if isinstance(n, ast.Name)}, test


# the private names one module of src/ may import from another: the mesh
# kernel and stall rule that builds and inner integrals share, and the
# x log x - x that sums takes from functions
_PRIVATE_IMPORTS = {
    ("fubini.py", "builder", "_dyadic_levels"),
    ("fubini.py", "builder", "_stalled"),
    ("sums.py", "functions", "_xlogx_minus_x"),
}


def test_private_names_cross_modules_only_as_allowed():
    imported = set()
    for path in SRC:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0
                    or (node.module or "").startswith("newton_calc")):
                source = (node.module or "").rpartition(".")[2]
                imported |= {(path.name, source, a.name) for a in node.names
                             if a.name.startswith("_")}
    assert imported == _PRIVATE_IMPORTS
