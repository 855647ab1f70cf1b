"""Command-line front end: every library operation as a subcommand with
JSON input/output suitable for shell pipelines.

Input is a single JSON document from stdin, a file path, or an inline
JSON literal argument; the type is detected from its keys (relation ->
poset, generators -> ideal, columns -> matrix, labels+edges -> clutter,
edges -> graph, kind -> corpus). --json output is canonical (sorted keys,
compact separators) so golden-file tests are byte-stable.

Exit codes: 0 success / positive verdict, 1 negative verdict, 2 usage or
malformed input, 3 resource guard exceeded, 4 two internal routes
disagree (a :class:`~clutterlab.guards.ConsistencyError`: ``menger``
finding a max flow that differs from its min cut, or ``mfmc`` finding
alpha0 / beta1 of its witness C^w by the Koenig search that differ from
the numbers priced from weights on C; ``certify`` records such a
disagreement as a failed instance in its report instead, so a run with
one exits 1). ``certify`` exits 3 also when it
checked no instance (every instance skipped by a guard, or an empty
corpus); its report then reads ``"aggregate": "inconclusive"``.

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
from typing import Any

from . import __version__
from .certify import Bounds, Corpus, canonical_json, run_theorem_suite
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
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
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


def _emit(args, doc: dict[str, Any]) -> None:
    if args.text:
        print(_render_text(doc))
    else:
        sys.stdout.write(canonical_json(doc))


# ---------------------------------------------------------------------------
# Handlers (return process exit code)

def _cmd_comparability(args) -> int:
    p = Poset.from_json(_read_document(args.input))
    _emit(args, comparability_graph(p).to_json())
    return 0


def _cmd_clique_clutter(args) -> int:
    g = Graph.from_json(_read_document(args.input))
    _emit(args, clique_clutter(g).to_json())
    return 0


def _cmd_cauc(args) -> int:
    if args.poset:
        _emit(args, cauc_poset(args.d, args.g).to_json())
    else:
        _emit(args, complete_admissible_uniform_clutter(args.d, args.g).to_json())
    return 0


def _cmd_parallelize(args) -> int:
    c = _as_clutter(_read_document(args.input))
    w = _parse_vector(args.w, "--w")
    _emit(args, parallelization(c, w).to_json())
    return 0


def _cmd_konig(args) -> int:
    cert = konig_certificate(_as_clutter(_read_document(args.input)))
    _emit(args, cert.to_json())
    return 0 if cert.holds else 1


def _cmd_mfmc(args) -> int:
    cert = mfmc_bounded(_as_clutter(_read_document(args.input)), args.wmax)
    _emit(args, cert.to_json())
    return 0 if cert.holds else 1


def _cmd_menger(args) -> int:
    p = Poset.from_json(_read_document(args.input))
    w = _parse_vector(args.w, "--w") if args.w else (1,) * p.n
    cert = menger_oracle(p, w)
    _emit(args, cert.to_json())
    return 0 if cert.holds else 1


def _cmd_duality(args) -> int:
    c = _as_clutter(_read_document(args.input))
    w = _parse_vector(args.w, "--w") if args.w else (1,) * c.n
    cert = lp_duality_integer_check(c, w)
    _emit(args, cert.to_json())
    return 0 if cert.holds else 1


def _cmd_polyhedron(args) -> int:
    a = _as_matrix(_read_document(args.input))
    verts = q_vertices(a)
    integral = is_integral(a)
    doc = {
        "property": "covering-polyhedron",
        "n": a.n,
        "q": a.q,
        "vertices": [[format_rational(x) for x in v] for v in verts],
        "integral": integral,
    }
    _emit(args, doc)
    return 0 if integral else 1


def _cmd_idp(args) -> int:
    cert = integer_decomposition_check(_as_matrix(_read_document(args.input)), args.kmax)
    _emit(args, cert.to_json())
    return 0 if cert.holds else 1


def _cmd_rounding(args) -> int:
    cert = integer_rounding_check(_as_matrix(_read_document(args.input)), args.wmax)
    _emit(args, cert.to_json())
    return 0 if cert.holds else 1


def _cmd_edge_ideal(args) -> int:
    c = _as_clutter(_read_document(args.input))
    _emit(args, edge_ideal(c).to_json())
    return 0


def _cmd_power(args) -> int:
    ideal = _as_ideal(_read_document(args.input))
    _emit(args, power(ideal, args.i).to_json())
    return 0


def _cmd_symbolic(args) -> int:
    c = _as_clutter(_read_document(args.input))
    _emit(args, symbolic_power(c, args.i).to_json())
    return 0


def _cmd_closure(args) -> int:
    ideal = _as_ideal(_read_document(args.input))
    a = _parse_vector(args.a, "--a")
    member = blocking_membership(ideal.matrix(), a, args.k)
    _emit(
        args,
        {
            "property": "integral-closure-membership",
            "k": args.k,
            "point": list(a),
            "member": member,
        },
    )
    return 0 if member else 1


def _cmd_normal(args) -> int:
    verdict = is_normal_up_to(_as_ideal(_read_document(args.input)), args.kmax)
    _emit(args, verdict.to_json())
    return 0 if verdict.holds else 1


def _cmd_ntf(args) -> int:
    verdict = is_ntf_up_to(_as_clutter(_read_document(args.input)), args.imax)
    _emit(args, verdict.to_json())
    return 0 if verdict.holds else 1


def _cmd_certify(args) -> int:
    if args.input is None and sys.stdin.isatty():
        doc = {"kind": "all-posets", "n": 3}
    else:
        doc = _read_document(args.input)
    if _detect(doc) != "corpus":
        raise UsageError("certify expects a corpus document with a 'kind' key")
    if args.seed is not None:
        doc = {**doc, "seed": args.seed}
    corpus = Corpus.from_json(doc)
    bounds = Bounds(kmax=args.kmax, imax=args.imax, wmax=args.wmax)
    report = run_theorem_suite(corpus, bounds)
    if args.text:
        print(report.to_text())
    else:
        sys.stdout.write(report.to_json())
    return {"pass": 0, "fail": 1, "inconclusive": 3}[report.aggregate]


# ---------------------------------------------------------------------------
# Parser

def _add_common(sp, input_arg: bool = True) -> None:
    if input_arg:
        sp.add_argument(
            "input",
            nargs="?",
            help="path to a JSON document, an inline JSON object, or '-' for stdin (default)",
        )
    fmt = sp.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=True, help="canonical JSON output (default)")
    fmt.add_argument("--text", action="store_true", help="human-readable output")


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

    sp = sub.add_parser("comparability", help="poset -> comparability graph")
    _add_common(sp)
    sp.set_defaults(func=_cmd_comparability)

    sp = sub.add_parser("clique-clutter", help="graph -> clutter of maximal cliques")
    _add_common(sp)
    sp.set_defaults(func=_cmd_clique_clutter)

    sp = sub.add_parser("cauc", help="complete admissible uniform clutter (or its poset)")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--poset", action="store_true", help="emit the defining poset instead")
    _add_common(sp, input_arg=False)
    sp.set_defaults(func=_cmd_cauc)

    sp = sub.add_parser("parallelize", help="clutter + weights -> C^w")
    sp.add_argument("--w", required=True, help="comma-separated natural weights")
    _add_common(sp)
    sp.set_defaults(func=_cmd_parallelize)

    sp = sub.add_parser("konig", help="alpha0/beta1 certificate for a clutter")
    _add_common(sp)
    sp.set_defaults(func=_cmd_konig)

    sp = sub.add_parser("mfmc", help="Koenig property of C^w for all w <= wmax")
    sp.add_argument("--wmax", type=int, default=3)
    _add_common(sp)
    sp.set_defaults(func=_cmd_mfmc)

    sp = sub.add_parser("menger", help="vertex-capacitated flow oracle on a poset's Hasse diagram")
    sp.add_argument("--w", help="comma-separated weights (default all ones)")
    _add_common(sp)
    sp.set_defaults(func=_cmd_menger)

    sp = sub.add_parser("duality", help="LP duality equation with integrality check")
    sp.add_argument("--w", help="comma-separated weights (default all ones)")
    _add_common(sp)
    sp.set_defaults(func=_cmd_duality)

    sp = sub.add_parser("polyhedron", help="vertices and integrality of Q(A)")
    _add_common(sp)
    sp.set_defaults(func=_cmd_polyhedron)

    sp = sub.add_parser("idp", help="integer decomposition property up to kmax")
    sp.add_argument("--kmax", type=int, default=3)
    _add_common(sp)
    sp.set_defaults(func=_cmd_idp)

    sp = sub.add_parser("rounding", help="integer rounding over w in {0..wmax}^n")
    sp.add_argument("--wmax", type=int, default=3)
    _add_common(sp)
    sp.set_defaults(func=_cmd_rounding)

    sp = sub.add_parser("edge-ideal", help="clutter -> edge ideal")
    _add_common(sp)
    sp.set_defaults(func=_cmd_edge_ideal)

    sp = sub.add_parser("power", help="minimal generators of I^i")
    sp.add_argument("--i", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_power)

    sp = sub.add_parser("symbolic", help="minimal generators of the i-th symbolic power")
    sp.add_argument("--i", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_symbolic)

    sp = sub.add_parser("closure", help="membership of x^a in the closure of I^k")
    sp.add_argument("--a", required=True, help="comma-separated exponent vector")
    sp.add_argument("--k", type=int, default=1)
    _add_common(sp)
    sp.set_defaults(func=_cmd_closure)

    sp = sub.add_parser("normal", help="bounded normality verdict for an ideal")
    sp.add_argument("--kmax", type=int, default=3)
    _add_common(sp)
    sp.set_defaults(func=_cmd_normal)

    sp = sub.add_parser("ntf", help="bounded normal torsion-freeness for a clutter")
    sp.add_argument("--imax", type=int, default=3)
    _add_common(sp)
    sp.set_defaults(func=_cmd_ntf)

    sp = sub.add_parser("certify", help="run the theorem cross-validation suite")
    sp.add_argument("--kmax", type=int, default=3)
    sp.add_argument("--imax", type=int, default=3)
    sp.add_argument("--wmax", type=int, default=3)
    sp.add_argument("--seed", type=int, help="override the corpus seed")
    _add_common(sp)
    sp.set_defaults(func=_cmd_certify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with Deadline.from_env():
            return args.func(args)
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
