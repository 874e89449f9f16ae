"""Every name a ``src/forecastcomp`` module lists in ``__all__`` has a reader
outside the unit tests.

A name counts as read where it appears as an identifier, a plain name or an
attribute, in one of:

- its own module, outside the statement that defines it;
- another module of the package, ``__init__.py`` aside, whose imports only
  re-export;
- ``demos/`` or ``bench/``, counting the names ``bench/tracing.py`` traces
  by string in ``TRACED``;
- the acceptance suite, ``tests/test_acceptance.py``.

A module-level type alias, ``Alias = A | B | ...``, only names its members,
so it counts as a reader of none of them, in any module.

Code that only the unit tests reach belongs in ``tests/reference_helpers.py``
or nowhere.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "forecastcomp"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_union_alias(stmt: ast.stmt) -> bool:
    """Whether ``stmt`` is ``Alias = A | B | ...`` over names and attributes."""
    allowed = (ast.BinOp, ast.BitOr, ast.Name, ast.Attribute, ast.Load)
    return isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.BinOp) and all(
        isinstance(node, allowed) for node in ast.walk(stmt.value)
    )


def _readers(tree: ast.Module) -> list[ast.stmt]:
    """The module-level statements that can read a name: all but union aliases."""
    return [stmt for stmt in tree.body if not _is_union_alias(stmt)]


def _identifiers(*nodes: ast.AST) -> set[str]:
    """The names and attributes that ``nodes`` read."""
    found = set()
    for node in (sub for top in nodes for sub in ast.walk(top)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
    return found


def _targets(stmt: ast.stmt) -> set[str]:
    """The module-level names a statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return {stmt.target.id}
    return set()


def _exports(tree: ast.Module) -> list[str]:
    for stmt in tree.body:
        if "__all__" in _targets(stmt):
            return list(ast.literal_eval(stmt.value))
    return []


def _traced() -> dict[str, set[str]]:
    """``bench/tracing.py``'s ``TRACED``: module name to the names it wraps."""
    for stmt in _parse(ROOT / "bench" / "tracing.py").body:
        if "TRACED" in _targets(stmt):
            return {module: set(names) for module, names in ast.literal_eval(stmt.value).items()}
    raise AssertionError("bench/tracing.py defines no TRACED")


def _readers_outside_the_package() -> set[str]:
    files = [*sorted((ROOT / "demos").rglob("*.py")), *sorted((ROOT / "bench").rglob("*.py"))]
    files.append(ROOT / "tests" / "test_acceptance.py")
    return set().union(*(_identifiers(*_readers(_parse(path))) for path in files))


@pytest.mark.parametrize("module", MODULES, ids=[path.stem for path in MODULES])
def test_every_exported_name_has_a_reader_outside_the_unit_tests(module):
    tree = _parse(module)
    exports = _exports(tree)
    assert exports, f"{module.name} lists no __all__"
    others = set().union(*(_identifiers(*_readers(_parse(path))) for path in MODULES if path != module))
    outside = _readers_outside_the_package() | _traced().get(module.stem, set())
    unread = []
    for name in exports:
        own = _identifiers(*(stmt for stmt in _readers(tree) if name not in _targets(stmt)))
        if name not in own | others | outside:
            unread.append(name)
    assert not unread, f"only the unit tests read {module.stem}: {', '.join(unread)}"
