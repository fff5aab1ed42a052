"""Static scan: no settable value without a caller, no unused import.

Every defaulted parameter and every defaulted dataclass field in src/
must be set by name or by position in at least one call somewhere in
src/, tests/ or perfbench/; a value that nothing sets is a constant and
belongs in the body.  Every name a module in src/ imports must be used in
it (or re-exported through its __all__).  Matching is by the callee's
last name (``f(...)``, ``obj.f(...)``, ``Class(...)`` for ``__init__`` and
dataclass fields), which can only over-count callers, never miss one.
Parameters whose names start with ``_`` are the closure-binding idiom
(``def g(y, _x=x)``) and are not meant to be set.
"""

import ast
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "newton_calc").glob("*.py"))
CALLERS = SRC + sorted((ROOT / "tests").glob("*.py")) \
    + sorted((ROOT / "perfbench").rglob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _callee(node: ast.Call) -> str:
    f = node.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        return f.attr
    return ""


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for d in cls.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if _callee(ast.Call(func=target, args=[], keywords=[])) == "dataclass":
            return True
    return False


def _init_false(value: ast.expr) -> bool:
    return (isinstance(value, ast.Call) and _callee(value) == "field"
            and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                    and k.value.value is False for k in value.keywords))


def _settable() -> List[Tuple[str, str, str, int]]:
    """(module, callee, name, positional index or -1) of every default."""
    found = []
    for path in SRC:
        tree = _parse(path)
        for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
            if not _is_dataclass(cls):
                continue
            fields = [s for s in cls.body if isinstance(s, ast.AnnAssign)
                      and isinstance(s.target, ast.Name)
                      and not (s.value is not None and _init_false(s.value))]
            for i, s in enumerate(fields):
                if s.value is not None and not s.target.id.startswith("_"):
                    found.append((path.name, cls.name, s.target.id, i))
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
                    found.append((path.name, name, arg.arg, i - offset))
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None and not arg.arg.startswith("_"):
                    found.append((path.name, name, arg.arg, -1))
    return found


def _calls() -> Dict[str, List[Tuple[int, Set[str], bool]]]:
    """callee -> [(positional count, keyword names, has * or **)]."""
    calls: Dict[str, List[Tuple[int, Set[str], bool]]] = {}
    for path in CALLERS:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call):
                starred = any(isinstance(a, ast.Starred) for a in node.args) \
                    or any(k.arg is None for k in node.keywords)
                calls.setdefault(_callee(node), []).append(
                    (len(node.args), {k.arg for k in node.keywords}, starred))
    return calls


def test_every_default_is_set_by_some_call():
    calls = _calls()
    unset = []
    for module, callee, name, index in _settable():
        sites = calls.get(callee, []) + [
            (0, kw, False) for _, kw, _ in calls.get("replace", [])]
        if not any(starred or name in keywords
                   or (index >= 0 and n_pos > index)
                   for n_pos, keywords, starred in sites):
            unset.append(f"{module}: {callee}({name}=...)")
    assert unset == []


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
