"""Rules every module of ``src/clutterlab`` keeps, checked on its syntax
tree.

- No ``assert`` statement: ``python -O`` strips them, so a check that must
  hold raises :class:`~clutterlab.guards.ConsistencyError` or
  ``ValueError`` instead.
- No parameter named ``deadline``: the budget is ambient, installed with
  ``with Deadline(ms):`` and read by ``guards.check_deadline()``.
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
