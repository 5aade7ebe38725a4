"""Every library definition is reached by a command, the benchmark or an
acceptance criterion, and every import is used.

A top-level function or class, or a method that is not a dunder, of
`src/cayleyltc` must be named somewhere in `src/`, in `perfbench/*.py` or in
`tests/test_acceptance.py`.  A name counts as referenced when it appears as
an `ast.Name`, as the attribute of an `ast.Attribute`, as an imported name,
or as a part of a dotted string such as a `perfbench/spans.py` target.  A
definition that only its own unit tests call belongs in those tests.

A name that a module of `src/` or `tests/` imports must appear in that
module as an `ast.Name`; `from __future__` imports are exempt.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "cayleyltc").glob("*.py"))

#: definitions kept with no caller outside the unit tests, and why
ALLOWED = {
    "analysis.rc_distance": "the independent d_rc oracle that the sigma "
                            "tests check the minimizer of sigma_exact against",
    "codes.LinearCode.dual": "the dual-code factory that the code tests exercise",
}

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
    sources = (LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))
               + [ROOT / "tests" / "test_acceptance.py"])
    referenced = set().union(*(_references(p) for p in sources))
    unreached = sorted(qual for p in LIBRARY for qual, name in _definitions(p)
                       if name not in referenced and qual not in ALLOWED)
    assert not unreached, (
        "definitions that no command, benchmark workload or acceptance "
        f"criterion reaches: {unreached}")


def test_allowlist_names_existing_definitions():
    defined = {qual for p in LIBRARY for qual, _ in _definitions(p)}
    assert set(ALLOWED) <= defined


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
