"""Command-line front end: every library operation as a subcommand with
JSON input/output suitable for shell pipelines.

Input is a single JSON document from stdin, a file path, or an inline
JSON literal argument; the type is detected from its keys (relation ->
poset, generators -> ideal, columns -> matrix, labels+edges -> clutter,
edges -> graph, kind -> corpus). --json output is canonical (sorted keys,
compact separators) so golden-file tests are byte-stable.

Every subcommand is one row of :data:`COMMANDS`: its help text, the
reader that coerces the input document, the library operation and its
options. One run path (:func:`_run`) reads, calls, writes and derives the
exit code for all of them.

Exit codes: 0 success / positive verdict, 1 negative verdict, 2 usage
error or malformed input document (one that cannot be read, or that
lacks the shape its reader expects), 3 resource guard exceeded, 4 two
internal routes disagree (a :class:`~clutterlab.guards.ConsistencyError`):
``menger`` finding a max flow that differs from its min cut; ``mfmc``
finding alpha0 / beta1 of its witness C^w by the Koenig search that
differ from the numbers priced from weights on C, or those numbers, read
for the witness w alone, agreeing where the packed Koenig levels put w
in the failing set; ``rounding`` finding a w whose lp and ilp disagree
with its bit of the packed failing set, or lp and ilp at its witness
that the simplex and the integer search at that w alone do not repeat;
``normal``, ``ntf``, ``idp`` and ``rounding`` finding a k-fold level
cell whose value is below the level. ``certify`` records such a
disagreement as a failed instance in its report instead, so a run with
one exits 1. ``certify`` exits 3 also when it checked no instance (every
instance skipped by a guard, or an empty corpus); its report then reads
``"aggregate": "inconclusive"``.

The environment variable ``CLUTTERLAB_GUARD_MS`` sets a wall-clock budget
in milliseconds, read once per command and installed for the whole
command (see :mod:`clutterlab.guards`); unset or empty means no budget.
A command that outruns it exits 3, except ``certify``, which restarts it
per instance and skips an instance that outruns it. A value that is not
a number >= 0 is malformed input: exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable

from . import __version__
from .certify import Bounds, Corpus, Report, canonical_json, run_theorem_suite
from .guards import ConsistencyError, Deadline, ResourceGuardError
from .ideals import (
    MonomialIdeal,
    edge_ideal,
    is_normal_up_to,
    is_ntf_up_to,
    power,
    symbolic_power,
)
from .packing import konig_certificate, lp_duality_integer_check, menger_oracle, mfmc_bounded
from .polyhedra import (
    IncidenceMatrix,
    blocking_membership,
    format_rational,
    integer_decomposition_check,
    integer_rounding_check,
    is_integral,
    q_vertices,
)
from .structures import (
    Clutter,
    Graph,
    Poset,
    cauc_poset,
    clique_clutter,
    comparability_graph,
    complete_admissible_uniform_clutter,
    parallelization,
)

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


def _read_document(arg: str | None) -> dict[str, Any]:
    if arg is None or arg == "-":
        raw = sys.stdin.read()
    elif arg.lstrip().startswith("{"):
        raw = arg
    else:
        path = Path(arg)
        if not path.exists():
            raise UsageError(f"input file not found: {arg}")
        raw = path.read_text(encoding="utf-8")
    doc = json.loads(raw)  # JSONDecodeError carries line/column diagnostics
    if not isinstance(doc, dict):
        raise UsageError("input must be a JSON object")
    return doc


def _detect(doc: dict[str, Any]) -> str:
    if "relation" in doc:
        return "poset"
    if "generators" in doc:
        return "ideal"
    if "columns" in doc:
        return "matrix"
    if "labels" in doc and "edges" in doc:
        return "clutter"
    if "edges" in doc:
        return "graph"
    if "kind" in doc:
        return "corpus"
    raise UsageError(f"cannot determine input type from keys {sorted(doc)}")


def _as_clutter(doc: dict[str, Any]) -> Clutter:
    kind = _detect(doc)
    if kind == "clutter":
        return Clutter.from_json(doc)
    if kind == "graph":
        return clique_clutter(Graph.from_json(doc))
    raise UsageError(f"expected a clutter, got {kind}")


def _as_matrix(doc: dict[str, Any]) -> IncidenceMatrix:
    kind = _detect(doc)
    if kind == "matrix":
        return IncidenceMatrix.from_json(doc)
    if kind == "clutter":
        return IncidenceMatrix.from_clutter(Clutter.from_json(doc))
    if kind == "ideal":
        return MonomialIdeal.from_json(doc).matrix()
    raise UsageError(f"expected a matrix, clutter, or ideal, got {kind}")


def _as_ideal(doc: dict[str, Any]) -> MonomialIdeal:
    kind = _detect(doc)
    if kind == "ideal":
        return MonomialIdeal.from_json(doc)
    if kind == "clutter":
        return edge_ideal(Clutter.from_json(doc))
    raise UsageError(f"expected an ideal or clutter, got {kind}")


def _parse_vector(text: str, what: str) -> tuple[int, ...]:
    """The integers of a comma-separated list; "" is the empty vector (of
    a poset or clutter on no points), and an empty item is refused."""
    try:
        return tuple(int(tok) for tok in text.split(",")) if text else ()
    except ValueError as exc:
        raise UsageError(f"{what} must be a comma-separated integer list") from exc


def _render_text(doc: Any, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(doc, dict):
        lines = []
        for key in doc:
            val = doc[key]
            if isinstance(val, (dict, list)) and val:
                lines.append(f"{pad}{key}:")
                lines.append(_render_text(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {json.dumps(val)}")
        return "\n".join(lines)
    if isinstance(doc, list):
        return "\n".join(f"{pad}- {json.dumps(item)}" for item in doc)
    return f"{pad}{json.dumps(doc)}"


def _read(arg: str | None, reader: Callable[[dict[str, Any]], Any]) -> Any:
    """The one reader step: the input document coerced by ``reader``. A
    document that cannot be read, or that lacks the shape the reader
    expects, is malformed input (exit 2), not a negative verdict."""
    try:
        return reader(_read_document(arg))
    except (OSError, TypeError, KeyError) as exc:
        raise UsageError(f"malformed input document: {type(exc).__name__}: {exc}") from exc


def _as_corpus(doc: dict[str, Any]) -> Corpus:
    if _detect(doc) != "corpus":
        raise UsageError("certify expects a corpus document with a 'kind' key")
    return Corpus.from_json(doc)


def _weights(text: str | None, n: int) -> tuple[int, ...]:
    """--w parsed, or all ones when it is absent."""
    return (1,) * n if text is None else _parse_vector(text, "--w")


# ---------------------------------------------------------------------------
# The four operations that are more than one library call. An operation
# takes the coerced input (None for cauc and certify, which read none or
# their own) and the parsed arguments; it returns a library result, or a
# (document, verdict) pair.

def _cauc(_, args):
    make = cauc_poset if args.poset else complete_admissible_uniform_clutter
    return make(args.d, args.g)


def _polyhedron(a: IncidenceMatrix, args) -> tuple[dict[str, Any], bool]:
    doc = {
        "property": "covering-polyhedron",
        "n": a.n,
        "q": a.q,
        "vertices": [[format_rational(x) for x in v] for v in q_vertices(a)],
        "integral": is_integral(a),
    }
    return doc, doc["integral"]


def _closure(ideal: MonomialIdeal, args) -> tuple[dict[str, Any], bool]:
    a = _parse_vector(args.a, "--a")
    member = blocking_membership(ideal.matrix(), a, args.k)
    doc = {"property": "integral-closure-membership", "k": args.k, "point": list(a), "member": member}
    return doc, member


def _certify(_, args) -> Report:
    """With no input on a terminal, the corpus of every poset on 3 points."""
    if args.input is None and sys.stdin.isatty():
        corpus = Corpus("all-posets", n=3)
    else:
        corpus = _read(args.input, _as_corpus)
    if args.seed is not None:
        corpus = corpus.replace(seed=args.seed)
    return run_theorem_suite(corpus, Bounds(kmax=args.kmax, imax=args.imax, wmax=args.wmax))


# ---------------------------------------------------------------------------
# Command table: name -> (help, reader, operation, options). Every
# subcommand but cauc also takes the input document and --json / --text.

_KMAX = ("--kmax", {"type": int, "default": 3})
_IMAX = ("--imax", {"type": int, "default": 3})
_WMAX = ("--wmax", {"type": int, "default": 3})
_I = ("--i", {"type": int, "required": True})
_W = ("--w", {"help": "comma-separated weights (default all ones)"})

COMMANDS: dict[str, tuple[str, Callable | None, Callable, tuple]] = {
    "comparability": ("poset -> comparability graph", Poset.from_json,
                      lambda p, args: comparability_graph(p), ()),
    "clique-clutter": ("graph -> clutter of maximal cliques", Graph.from_json,
                       lambda g, args: clique_clutter(g), ()),
    "cauc": ("complete admissible uniform clutter (or its poset)", None, _cauc, (
        ("--d", {"type": int, "required": True}),
        ("--g", {"type": int, "required": True}),
        ("--poset", {"action": "store_true", "help": "emit the defining poset instead"}),
    )),
    "parallelize": ("clutter + weights -> C^w", _as_clutter,
                    lambda c, args: parallelization(c, _parse_vector(args.w, "--w")),
                    (("--w", {"required": True, "help": "comma-separated natural weights"}),)),
    "konig": ("alpha0/beta1 certificate for a clutter", _as_clutter,
              lambda c, args: konig_certificate(c), ()),
    "mfmc": ("Koenig property of C^w for all w <= wmax", _as_clutter,
             lambda c, args: mfmc_bounded(c, args.wmax), (_WMAX,)),
    "menger": ("vertex-capacitated flow oracle on a poset's Hasse diagram", Poset.from_json,
               lambda p, args: menger_oracle(p, _weights(args.w, p.n)), (_W,)),
    "duality": ("LP duality equation with integrality check", _as_clutter,
                lambda c, args: lp_duality_integer_check(c, _weights(args.w, c.n)), (_W,)),
    "polyhedron": ("vertices and integrality of Q(A)", _as_matrix, _polyhedron, ()),
    "idp": ("integer decomposition property up to kmax", _as_matrix,
            lambda a, args: integer_decomposition_check(a, args.kmax), (_KMAX,)),
    "rounding": ("integer rounding over w in {0..wmax}^n", _as_matrix,
                 lambda a, args: integer_rounding_check(a, args.wmax), (_WMAX,)),
    "edge-ideal": ("clutter -> edge ideal", _as_clutter, lambda c, args: edge_ideal(c), ()),
    "power": ("minimal generators of I^i", _as_ideal,
              lambda ideal, args: power(ideal, args.i), (_I,)),
    "symbolic": ("minimal generators of the i-th symbolic power", _as_clutter,
                 lambda c, args: symbolic_power(c, args.i), (_I,)),
    "closure": ("membership of x^a in the closure of I^k", _as_ideal, _closure, (
        ("--a", {"required": True, "help": "comma-separated exponent vector"}),
        ("--k", {"type": int, "default": 1}),
    )),
    "normal": ("bounded normality verdict for an ideal", _as_ideal,
               lambda ideal, args: is_normal_up_to(ideal, args.kmax), (_KMAX,)),
    "ntf": ("bounded normal torsion-freeness for a clutter", _as_clutter,
            lambda c, args: is_ntf_up_to(c, args.imax), (_IMAX,)),
    "certify": ("run the theorem cross-validation suite", None, _certify, (
        _KMAX, _IMAX, _WMAX, ("--seed", {"type": int, "help": "override the corpus seed"}),
    )),
}


def _run(args) -> int:
    """Read and coerce the input, call the operation, write canonical JSON
    or --text, and return 0, or 1 on a negative verdict. certify writes
    its report and keeps its own codes: 0 pass, 1 fail, 3 inconclusive."""
    _, read, operate, _ = COMMANDS[args.command]
    result = operate(None if read is None else _read(args.input, read), args)
    if isinstance(result, Report):
        if args.text:
            print(result.to_text())
        else:
            sys.stdout.write(result.to_json())
        return {"pass": 0, "fail": 1, "inconclusive": 3}[result.aggregate]
    doc, holds = result if isinstance(result, tuple) else (result.to_json(), getattr(result, "holds", True))
    if args.text:
        print(_render_text(doc))
    else:
        sys.stdout.write(canonical_json(doc))
    return 0 if holds else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clutterlab",
        description="Exact certification toolkit for clutters, blocking polyhedra, "
        "and normality of monomial ideals.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"clutterlab {__version__} (schema {SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _, options) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            sp.add_argument(flag, **kwargs)
        if name != "cauc":
            sp.add_argument(
                "input",
                nargs="?",
                help="path to a JSON document, an inline JSON object, or '-' for stdin (default)",
            )
        fmt = sp.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", default=True, help="canonical JSON output (default)")
        fmt.add_argument("--text", action="store_true", help="human-readable output")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with Deadline.from_env():
            return _run(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceGuardError as exc:
        print(f"error: resource guard: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"error: internal consistency check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
