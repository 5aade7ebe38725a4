"""Every library definition and every default is reached by a command, the
benchmark or an acceptance criterion, and every import is used.

A top-level function or class, or a method that is not a dunder, of
`src/cayleyltc` must be named somewhere in `src/`, in `perfbench/*.py` or in
`tests/test_acceptance.py`.  A name counts as referenced when it appears as
an `ast.Name`, as the attribute of an `ast.Attribute`, as an imported name,
or as a part of a dotted string such as a `perfbench/spans.py` target.  A
definition that only its own unit tests call belongs in those tests.

Every defaulted parameter of such a function or method, and every defaulted
field of a dataclass, must be set by some call in those same files: by
keyword, by enough positional arguments (not counting self or cls), or
through *args or **kwargs.  The callee is matched by its bare name, and a
constructor (`__init__` or a dataclass) by its class name.  A parameter that
only unit tests set is an option with one value in use.

A name that a module of `src/` or `tests/` imports must appear in that
module as an `ast.Name`; `from __future__` imports are exempt.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "cayleyltc").glob("*.py"))

SOURCES = (LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def _definitions(path: Path):
    """(qualified name, bare name) of each top-level function and class,
    and of each method of a top-level class that is not a dunder."""
    module = path.stem
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{module}.{node.name}.{item.name}", item.name


def _references(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            names.update(node.value.split("."))
    return names


def test_every_library_definition_has_a_caller():
    referenced = set().union(*(_references(p) for p in SOURCES))
    unreached = sorted(qual for p in LIBRARY for qual, name in _definitions(p)
                       if name not in referenced)
    assert not unreached, (
        "definitions that no command, benchmark workload or acceptance "
        f"criterion reaches: {unreached}")


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def _function_defaults(qual: str, callee: str, fn: ast.FunctionDef, bound: bool):
    """(qualified name, callee, parameter, position or None if keyword-only)
    of each defaulted parameter of fn; a bound method's position skips self."""
    a = fn.args
    positional = [*a.posonlyargs, *a.args][1 if bound else 0:]
    first = len(positional) - len(a.defaults)
    for pos, arg in enumerate(positional[first:], start=first):
        yield qual, callee, arg.arg, pos
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield qual, callee, arg.arg, None


def _defaults(path: Path):
    """The defaulted parameters of each top-level function and method, and
    the defaulted fields of each dataclass, as _function_defaults yields."""
    module = path.stem
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            yield from _function_defaults(f"{module}.{node.name}", node.name, node, False)
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                callee = node.name if item.name == "__init__" else item.name
                yield from _function_defaults(f"{module}.{node.name}.{item.name}",
                                              callee, item, not static)
        if _is_dataclass(node):
            fields = [item for item in node.body if isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)]
            for pos, item in enumerate(fields):
                if item.value is not None:
                    yield f"{module}.{node.name}", node.name, item.target.id, pos


def _setters(paths) -> dict[str, tuple[set[str], int, bool]]:
    """Per bare callee name: the keywords its calls pass, the most positional
    arguments one call passes, and whether a call passes *args or **kwargs."""
    out: dict[str, tuple[set[str], int, bool]] = {}
    for node in (n for p in paths for n in ast.walk(ast.parse(p.read_text()))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name is None:
            continue
        kws, npos, star = out.get(name, (set(), 0, False))
        out[name] = (kws | {k.arg for k in node.keywords if k.arg is not None},
                     max(npos, len(node.args)),
                     star or any(k.arg is None for k in node.keywords)
                     or any(isinstance(x, ast.Starred) for x in node.args))
    return out


def test_every_library_default_is_set_by_a_caller():
    setters = _setters(SOURCES)
    unset = []
    for p in LIBRARY:
        for qual, callee, param, pos in _defaults(p):
            kws, npos, star = setters.get(callee, (set(), 0, False))
            if not (star or param in kws or (pos is not None and npos > pos)):
                unset.append(f"{qual}({param})")
    assert not unset, (
        "defaults that no command, benchmark workload or acceptance "
        f"criterion sets: {unset}")


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_every_import_is_used():
    modules = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    unused = {str(p.relative_to(ROOT)): names for p in modules
              if (names := _unused_imports(p))}
    assert not unused, f"imported names never used: {unused}"
