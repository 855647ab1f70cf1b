"""Rules every module of ``src/clutterlab`` keeps, checked on its syntax
tree.

- No ``assert`` statement: ``python -O`` strips them, so a check that must
  hold raises :class:`~clutterlab.guards.ConsistencyError` or
  ``ValueError`` instead.
- No parameter named ``deadline``: the budget is ambient, installed with
  ``with Deadline(ms):`` and read by ``guards.check_deadline()``.
- The threshold kernel has one comparing reader: ``polyhedra._threshold_sets``
  is referenced only inside ``polyhedra._level_diffs``, and the class it
  caches, ``polyhedra._ThresholdSets``, only inside ``_threshold_sets``
  and the one listing reader ``polyhedra._threshold_levels``, which
  compares no level (it serves the readers that list or count cells).
  The bounded verdicts and the Koenig sweep compare a k-fold level with
  its threshold set in ``_level_diffs`` alone, not in a copy of its loop.
- No module imports numpy, and importing ``clutterlab`` and
  ``clutterlab.cli`` and running a small theorem suite leaves it unloaded.
- Every ``.py`` file of ``src/clutterlab``, ``tests`` and ``tools`` parses
  as Python 3.10, the floor ``pyproject.toml`` declares.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clutterlab

SOURCES = sorted(Path(clutterlab.__file__).resolve().parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
PYTHON_FILES = sorted(
    p for d in (ROOT / "src" / "clutterlab", ROOT / "tests", ROOT / "tools") for p in d.rglob("*.py")
)


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


# each name of the threshold kernel, and the functions that may refer to it
KERNEL_READERS = {
    "_threshold_sets": ("_level_diffs",),
    "_ThresholdSets": ("_threshold_sets", "_threshold_levels"),
}


def _kernel_refs_outside_their_reader(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of the references to a name of :data:`KERNEL_READERS`
    (names, attributes and imports) that lie outside every function of
    its readers' names."""
    def refs(node, name):
        return {
            n for n in ast.walk(node)
            if (isinstance(n, ast.Name) and n.id == name)
            or (isinstance(n, ast.Attribute) and n.attr == name)
            or (isinstance(n, ast.alias) and n.name == name)
        }

    found = []
    for name, readers in KERNEL_READERS.items():
        inside = set().union(*(
            refs(fn, name) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name in readers
        ))
        found += [(name, n.lineno) for n in refs(tree, name) - inside]
    return sorted(found, key=lambda ref: ref[1])


def test_only_the_level_gap_kernel_packs_cells():
    found = [
        f"{path.name}:{line}: {name} outside {' and '.join(KERNEL_READERS[name])}"
        for path in SOURCES
        for name, line in _kernel_refs_outside_their_reader(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not found, "\n".join(found)
    # the listing reader may build the sets; a fork of it under another
    # name, or a reader of the cached sets outside the level kernel, may not
    forked = (
        "from .polyhedra import _threshold_sets\n"
        "def _level_diffs(levels, caps, rows, unit):\n    return _threshold_sets(caps, rows, unit)[1]\n"
        "def fork(level, caps, rows):\n    return polyhedra._threshold_sets(caps, rows, 1)[1] & ~level\n"
        "def _threshold_sets(caps, rows, unit):\n    return _ThresholdSets(caps, rows, unit)\n"
        "def _threshold_levels(caps, rows, unit):\n    return iter([_ThresholdSets(caps, rows, unit)[1]])\n"
        "def copy(caps, rows):\n    return _ThresholdSets(caps, rows, 1)[1]\n"
    )
    assert _kernel_refs_outside_their_reader(ast.parse(forked)) == [
        ("_threshold_sets", 1), ("_threshold_sets", 5), ("_ThresholdSets", 11),
    ]


def _imports_numpy(tree: ast.AST) -> bool:
    return any(
        isinstance(n, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in n.names)
        or isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[0] == "numpy"
        for n in ast.walk(tree)
    )


# imports the program, runs a small suite of every instance type that
# certify walks (posets with their Menger flow, clutters with the MFMC
# sweep, ideals with rounding), and prints whether numpy was loaded
NO_NUMPY = """
import sys
import clutterlab, clutterlab.cli
from clutterlab.certify import Bounds, Corpus, run_theorem_suite
for corpus in (Corpus("random-posets", n=4, count=3, seed=1),
               Corpus("random-clutters", n=5, maxedges=6, count=3, seed=1),
               Corpus("random-ideals", n=3, q=3, maxexp=2, count=3, seed=1)):
    assert run_theorem_suite(corpus, Bounds(wmax=2)).instances
print("numpy" in sys.modules)
"""


def test_the_program_runs_without_numpy():
    assert [path.name for path in SOURCES if _imports_numpy(ast.parse(path.read_text(encoding="utf-8")))] == []
    assert _imports_numpy(ast.parse("from numpy import int8")) and _imports_numpy(ast.parse("import numpy.linalg"))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", NO_NUMPY], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


@pytest.mark.parametrize("path", PYTHON_FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_file_parses_as_python_3_10(path):
    # grammar only: feature_version rejects newer syntax (except*, type
    # statements, ...) but not standard-library names added after 3.10
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_the_3_10_rule_sees_the_three_trees_and_rejects_newer_grammar():
    assert {p.parent.name for p in PYTHON_FILES} >= {"clutterlab", "tests", "tools"}
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
