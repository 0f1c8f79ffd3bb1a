"""Every module-level private name (`_x`) of the package is used
somewhere in the package outside its own definition, so a helper goes
when its last caller does."""

import ast
from pathlib import Path

import twotier

MODULES = sorted(Path(twotier.__file__).parent.glob("*.py"))


def _defined(statement: ast.stmt) -> list[str]:
    """The names a module-level statement binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.AnnAssign):
        return [statement.target.id] if isinstance(statement.target, ast.Name) else []
    if isinstance(statement, ast.Assign):
        names = (n for t in statement.targets for n in ast.walk(t))
        return [n.id for n in names if isinstance(n, ast.Name)]
    return []


def _used(statement: ast.stmt) -> set[str]:
    """The names a module-level statement reads, as a name or an attribute."""
    used = set()
    for n in ast.walk(statement):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
    return used


def dead_private_names(sources: list[str]) -> list[str]:
    """The private names that some source defines at module level and
    that no other module-level statement of any source reads."""
    statements = [s for source in sources for s in ast.parse(source).body]
    used = [_used(s) for s in statements]
    return [
        name
        for i, s in enumerate(statements)
        for name in _defined(s)
        if name.startswith("_")
        and not name.startswith("__")
        and not any(name in u for j, u in enumerate(used) if j != i)
    ]


def test_the_oracle_sees_private_names_that_only_define_or_call_themselves():
    sources = [
        "_LIMIT = 3\n"
        "def _walk(n):\n"
        "    return _walk(n - 1) if n else 0\n"
        "def _kept():\n"
        "    return 1\n"
        "class _Unused:\n"
        "    pass\n",
        "from . import a\n"
        "def public():\n"
        "    return a._kept()\n",
    ]
    assert dead_private_names(sources) == ["_LIMIT", "_walk", "_Unused"]


def test_every_private_name_of_the_package_is_used():
    assert dead_private_names([p.read_text() for p in MODULES]) == []
