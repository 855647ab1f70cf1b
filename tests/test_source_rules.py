"""Rules every module of ``src/clutterlab`` keeps, checked on its syntax
tree.

- No ``assert`` statement: ``python -O`` strips them, so a check that must
  hold raises :class:`~clutterlab.guards.ConsistencyError` or
  ``ValueError`` instead.
- No parameter named ``deadline``: the budget is ambient, installed with
  ``with Deadline(ms):`` and read by ``guards.check_deadline()``.
- ``polyhedra._pack_cells`` is referenced only inside
  ``polyhedra._level_gap``: the four bounded verdicts compare a k-fold
  level with its value set in that one kernel, not in a copy of its loop.
"""

import ast
from pathlib import Path

import pytest

import clutterlab

SOURCES = sorted(Path(clutterlab.__file__).resolve().parent.glob("*.py"))


def _parameters(fn: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> list[ast.arg]:
    a = fn.args
    return [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_and_no_deadline_parameter(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append(f"{path.name}:{node.lineno}: assert statement")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            found += [
                f"{path.name}:{arg.lineno}: parameter named deadline"
                for arg in _parameters(node)
                if arg.arg == "deadline"
            ]
    assert not found, "\n".join(found)


def test_the_rules_see_every_module():
    assert {p.name for p in SOURCES} >= {"certify.py", "guards.py", "packing.py", "polyhedra.py"}


def _pack_cells_outside_level_gap(tree: ast.AST) -> list[int]:
    """Lines of the references to ``_pack_cells`` (names, attributes and
    imports) that lie outside every function named ``_level_gap``."""
    def refs(node):
        return {
            n for n in ast.walk(node)
            if (isinstance(n, ast.Name) and n.id == "_pack_cells")
            or (isinstance(n, ast.Attribute) and n.attr == "_pack_cells")
            or (isinstance(n, ast.alias) and n.name == "_pack_cells")
        }

    inside = set().union(*(
        refs(fn) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "_level_gap"
    ))
    return sorted(n.lineno for n in refs(tree) - inside)


def test_only_the_level_gap_kernel_packs_cells():
    found = [
        f"{path.name}:{line}: _pack_cells outside _level_gap"
        for path in SOURCES
        for line in _pack_cells_outside_level_gap(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not found, "\n".join(found)
    forked = (
        "from .polyhedra import _pack_cells\n"
        "def _level_gap(levels, value, unit):\n    return _pack_cells(value)\n"
        "def fork(level, value):\n    return polyhedra._pack_cells(value) & ~level\n"
    )
    assert _pack_cells_outside_level_gap(ast.parse(forked)) == [1, 5]
