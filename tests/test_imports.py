"""No module of the package imports a name that it never uses.  The
package's `__init__.py` is exempt: its imports are re-exports."""

import ast
from pathlib import Path

import pytest

import twotier

MODULES = sorted(
    p for p in Path(twotier.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a string annotation names what it would evaluate
    for annotation in filter(None, _annotations(tree)):
        for n in ast.walk(annotation):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                parsed = ast.parse(n.value, mode="eval")
                used |= {m.id for m in ast.walk(parsed) if isinstance(m, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_oracle_sees_unused_and_annotation_only_imports():
    source = (
        "from typing import Iterable, Sequence\n"
        "import os.path\n"
        "from . import kernel as k\n"
        "def f(x: 'Sequence[int]') -> list['Iterable']:\n"
        "    return [os.path.sep]\n"
    )
    assert unused_imports(source) == ["k"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_a_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
