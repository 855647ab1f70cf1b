"""Corpus-driven cross-validation: generate posets/graphs/clutters/ideals,
run every applicable check, and require the inter-theorem consistency
relations to hold.

Reports are deterministic given (corpus spec, bounds, seed): canonical JSON
carries no wall-clock data (timing appears only in the text rendering), and
instances are processed in generation order.

:data:`CHECKS` has one row per instance type: its JSON reader, its
checker, and its checks in record order, each with the witness parts it
renders when it fails. A check that names witness parts decides: an
instance passes iff every deciding check holds. A check that names none
is a sign its type compares (the clutter's three, the ideal's two).
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from dataclasses import dataclass, fields
from typing import Any, Callable, NamedTuple

from .guards import ConsistencyError, ResourceGuardError, check_deadline, restart_deadline
from .ideals import MonomialIdeal, edge_ideal, is_normal_up_to, is_ntf_up_to, normality_gap
from .packing import HasseNetwork, chain_order, konig_numbers, menger_walk, mfmc_bounded, sweep_levels
from .polyhedra import integer_rounding_check, integer_rounding_holds, is_integral, q_vertices
from .structures import (
    Clutter,
    Graph,
    Poset,
    _bits,
    clique_clutter,
    comparability_graph,
    duplicate,
    graph_duplicate,
    parallelize_masks,  # unused; certbench's tracer test still reads this holder
    transitive_closure,
)


@dataclass(frozen=True)
class Bounds:
    kmax: int = 3
    imax: int = 3
    wmax: int = 3

    def __post_init__(self):
        if min(self.kmax, self.imax, self.wmax) < 1:
            raise ValueError("bounds must be >= 1")

    def to_json(self) -> dict[str, int]:
        return {"kmax": self.kmax, "imax": self.imax, "wmax": self.wmax}


# ---------------------------------------------------------------------------
# Generators

def all_posets(n: int) -> list[Poset]:
    """Every labeled poset on n vertices (exhaustive scan over relations;
    n <= 4 keeps this cheap: 2^(n(n-1)) candidates)."""
    if not (0 <= n <= 4):
        raise ValueError("exhaustive poset enumeration is limited to n <= 4")
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    out = []
    for bits in range(1 << len(pairs)):
        rel = [pairs[t] for t in range(len(pairs)) if bits >> t & 1]
        try:
            out.append(Poset(n, rel))
        except ValueError:
            continue
    return out


def _check_least(**params: tuple[int, int]) -> None:
    """Refuse, by its name, a generator parameter below its least value;
    each keyword maps a name to (value, least value)."""
    for name, (value, least) in params.items():
        if value < least:
            raise ValueError(f"corpus parameter {name!r} must be >= {least}, got {value}")


def _distinct(count: int, attempts: int, draw: Callable[[], tuple | None], what: str) -> list:
    """The first ``count`` distinct objects of repeated ``draw()`` calls,
    in draw order. A draw returns (key, object), or None when rejected;
    objects with a key already seen are dropped. Raises ``ValueError``
    when ``count`` is negative, or when ``attempts`` draws do not find
    ``count`` of them."""
    _check_least(count=(count, 0))
    found: dict = {}
    for _ in range(attempts):
        if len(found) == count:
            break
        drawn = draw()
        if drawn is not None:
            found.setdefault(*drawn)
    if len(found) < count:
        raise ValueError(f"could not generate {count} distinct {what}")
    return list(found.values())


def random_posets(n: int, count: int, seed: int) -> list[Poset]:
    """Distinct random posets: random DAG arcs, transitively closed,
    deduplicated by relation set. Reproducible bit-for-bit from the seed."""
    if n > 8:
        raise ValueError("random poset generation is limited to n <= 8")
    rng = random.Random(seed)

    def draw() -> tuple[frozenset, Poset]:
        perm = list(range(n))
        rng.shuffle(perm)
        density = rng.choice((0.15, 0.25, 0.35, 0.5))
        arcs = [
            (perm[i], perm[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < density
        ]
        rel = transitive_closure(n, arcs)
        return rel, Poset(n, rel)

    return _distinct(count, 200 * count + 1000, draw, f"posets on {n} vertices")


def random_graphs(n: int, count: int, seed: int) -> list[Graph]:
    rng = random.Random(seed)

    def draw() -> tuple[frozenset, Graph]:
        density = rng.choice((0.2, 0.35, 0.5, 0.7))
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < density
        ]
        return frozenset(edges), Graph(n, edges)

    return _distinct(count, 200 * count + 1000, draw, f"graphs on {n} vertices")


def random_ideals(n: int, q: int, maxexp: int, count: int, seed: int) -> list[MonomialIdeal]:
    """Random minimal generating sets; n and q are upper bounds, exponents
    uniform in [0, maxexp] with zero vectors rejected."""
    _check_least(n=(n, 1), q=(q, 1), maxexp=(maxexp, 0))
    rng = random.Random(seed)

    def draw() -> tuple[tuple, MonomialIdeal] | None:
        nn = rng.randint(1, n)
        gens = []
        for _ in range(rng.randint(1, q)):
            v = tuple(rng.randint(0, maxexp) for _ in range(nn))
            if any(v):
                gens.append(v)
        if not gens:
            return None
        ideal = MonomialIdeal(nn, gens)
        return (nn, ideal.generators), ideal

    return _distinct(count, 500 * count + 1000, draw, "ideals")


def random_clutters(n: int, maxedges: int, count: int, seed: int) -> list[Clutter]:
    """Random antichains of nonempty vertex subsets; n and the edge count
    are upper bounds."""
    _check_least(n=(n, 2), maxedges=(maxedges, 1))
    rng = random.Random(seed)

    def draw() -> tuple[tuple, Clutter] | None:
        nn = rng.randint(2, n)
        subsets: set[tuple] = set()
        for _ in range(rng.randint(1, maxedges)):
            e = tuple(v for v in range(nn) if rng.random() < 0.5)
            if e:
                subsets.add(e)
        if not subsets:
            return None
        minimal = [
            e for e in subsets
            if not any(f != e and set(f) <= set(e) for f in subsets)
        ]
        c = Clutter(nn, minimal)
        return (nn, c.edges), c

    return _distinct(count, 500 * count + 1000, draw, "clutters")


# ---------------------------------------------------------------------------
# Corpus

# Generated kinds: instance type, generator, and the generator's parameters
# in call order.
_GENERATED = {
    "all-posets": ("poset", all_posets, ("n",)),
    "random-posets": ("poset", random_posets, ("n", "count", "seed")),
    "random-graphs": ("graph", random_graphs, ("n", "count", "seed")),
    "random-ideals": ("ideal", random_ideals, ("n", "q", "maxexp", "count", "seed")),
    "random-clutters": ("clutter", random_clutters, ("n", "maxedges", "count", "seed")),
}
_KINDS = (*_GENERATED, "explicit")


@dataclass(frozen=True)
class Corpus:
    """Instance source for the theorem suite: a generated kind of
    :data:`_GENERATED`, seeded and reproducible, or ``explicit`` instances
    read from the JSON file at ``path``. ``n``/``q``/``maxedges`` act as
    upper bounds for the random kinds; ``to_json`` writes the set fields.
    Every parameter but ``path``, a string, is an integer; one its kind
    does not read is refused, so a report names no unused value."""

    kind: str
    n: int | None = None
    count: int | None = None
    seed: int | None = None
    q: int | None = None
    maxexp: int | None = None
    maxedges: int | None = None
    path: str | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown corpus kind {self.kind!r}; expected one of {_KINDS}")
        for f in fields(self):
            val = getattr(self, f.name)
            want = str if f.name in ("kind", "path") else int
            if val is not None and (isinstance(val, bool) or not isinstance(val, want)):
                raise ValueError(f"corpus parameter {f.name!r} must be {want.__name__}, got {val!r}")
        self._refuse_unread(self.to_json())

    def _refuse_unread(self, keys) -> None:
        reads = {"kind", *(("path",) if self.kind == "explicit" else _GENERATED[self.kind][2])}
        unread = sorted(set(keys) - reads)
        if unread:
            raise ValueError(f"corpus kind {self.kind!r} does not read {', '.join(map(repr, unread))}")

    def to_json(self) -> dict[str, Any]:
        return {f.name: v for f in fields(self) if (v := getattr(self, f.name)) is not None}

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "Corpus":
        corpus = cls(**{f.name: doc[f.name] for f in fields(cls) if f.name in doc})
        corpus._refuse_unread(doc)
        return corpus

    def instances(self) -> list[tuple[str, Any]]:
        """The instances in corpus order. An explicit file that cannot be
        opened, decoded or read as instances raises ValueError naming the
        path."""
        if self.kind == "explicit":
            path = self._req("path")
            try:
                with open(path, encoding="utf-8") as fh:
                    return load_explicit_instances(json.load(fh))
            except (OSError, ValueError, TypeError, KeyError) as exc:
                raise ValueError(
                    f"cannot read explicit corpus {path!r}: {type(exc).__name__}: {exc}"
                ) from exc
        kind, generate, params = _GENERATED[self.kind]
        return [(kind, obj) for obj in generate(*map(self._req, params))]

    def _req(self, key: str):
        val = getattr(self, key)
        if val is None:
            raise ValueError(f"corpus kind {self.kind!r} requires parameter {key!r}")
        return val


def load_explicit_instances(doc: dict[str, Any]) -> list[tuple[str, Any]]:
    out = []
    for index, item in enumerate(doc["instances"]):
        kind = item["type"]
        if kind not in CHECKS:
            raise ValueError(f"unknown instance type {kind!r}")
        obj = CHECKS[kind].from_json(item["data"])
        if kind == "clutter" and not obj.edges:
            raise ValueError(f"instance {index}: clutter must have at least one edge")
        out.append((kind, obj))
    return out


def _instance_json(kind: str, obj: Any) -> dict[str, Any]:
    return {"type": kind, "data": obj.to_json()}


# ---------------------------------------------------------------------------
# Per-instance checks

def comparability_mfmc_check(p: Poset, cl: Clutter, wmax: int) -> dict[str, Any]:
    """One pass over w in {0..wmax}^n for the clique clutter ``cl`` of a
    poset's comparability graph: Koenig must hold for every
    parallelization, and the vertex-capacitated max flow and min cut on
    the Hasse diagram must report the same two numbers.

    Each side hands over one function as sets of w, one Python int per
    set. The Koenig side is decided first (:func:`sweep_levels`), so the
    box-size guard fires before the network is built: beta1 as value sets
    and the failing set, every w where Koenig fails. The flow side
    (:func:`menger_walk`) gives the flow values as value sets and its
    failed fibers with their gaps; off those the cut weight is the flow.
    The suspects are the failing set, the w where the flow differs from
    beta1, and the failed fibers; when Koenig holds and the walk agrees
    there are none. For the suspects every set is read once: alpha0 and
    beta1 (:func:`konig_numbers`, which raises :class:`ConsistencyError`
    where they differ exactly where the failing set says they do not),
    the flow, the gaps and the first failed check. A suspect is listed, in
    lexicographic order, where Koenig fails, where the cut weight and flow
    value differ from alpha0 and beta1, or where a check failed (the
    mismatch's ``invariant``). ``menger_agrees`` is false also when the
    Hasse source-sink paths are not the maximal cliques (``hasse_chains``).
    """
    nu_sets, failing = sweep_levels(cl, wmax)
    net = HasseNetwork.of(p)
    flows, failures = menger_walk(net, cl.edge_masks, wmax)
    suspects = failing
    for value in flows.keys() | nu_sets.keys():
        suspects |= flows.get(value, 0) ^ nu_sets.get(value, 0)
    for fiber, _, _ in failures:
        suspects |= fiber
    flow = {i: value for value, cells in flows.items() for i in _bits(cells & suspects)}
    cut, invariant = dict(flow), {}
    for fiber, exc, gap in failures:
        rendered = exc.to_json()
        for i in _bits(fiber & suspects):
            cut[i] += gap
            invariant.setdefault(i, rendered)
    konig_failures, menger_mismatches = [], []
    for i, (w, konig) in zip(_bits(suspects), konig_numbers(cl, wmax, nu_sets, failing, suspects)):
        if konig[0] != konig[1]:
            konig_failures.append({"w": w, "alpha0": konig[0], "beta1": konig[1]})
        failed = {"invariant": invariant[i]} if i in invariant else {}
        if [cut[i], flow[i]] != konig or failed:
            menger_mismatches.append({"w": w, "konig": konig, "menger": [cut[i], flow[i]], **failed})
    result: dict[str, Any] = {
        "konig_failures": konig_failures,
        "menger_mismatches": menger_mismatches,
        "mfmc_holds": not konig_failures,
    }
    chains = net.chains()
    if chains != set(cl.edge_masks):
        result["hasse_chains"] = ConsistencyError(
            "Hasse source-sink paths = maximal cliques",
            sorted(_bits(m) for m in chains), [list(e) for e in cl.edges],
        ).to_json()
    result["menger_agrees"] = not menger_mismatches and "hasse_chains" not in result
    return result


def duplication_commutes(g: Graph, cl: Clutter) -> list[int]:
    """Vertices where clutter-level and graph-level duplication of g, whose
    clique clutter is ``cl``, disagree (expected: none, for every graph)."""
    bad = []
    for v in range(g.n):
        if duplicate(cl, v) != clique_clutter(graph_duplicate(g, v)):
            bad.append(v)
    return bad


def clique_not_a_chain(p: Poset, cl: Clutter) -> dict[str, Any] | None:
    """The lex-first edge of ``cl``, the clique clutter of p's
    comparability graph, that :func:`chain_order` refuses to sort into a
    chain of p, with its lex-first pair of vertices incomparable in p;
    None when every edge sorts. The pair is read off p itself, so it is
    None when chain_order refused a chain."""
    for e in cl.edges:
        try:
            chain_order(p, e)
        except ValueError:
            pair = next(
                ([u, v] for u, v in itertools.combinations(e, 2) if not (p.less(u, v) or p.less(v, u))),
                None,
            )
            return {"edge": list(e), "pair": pair}
    return None


def fractional_vertex(ideal: MonomialIdeal) -> dict[str, Any]:
    """The lex-first vertex of Q(A), A the matrix of ``ideal``, with a
    non-integer coordinate (None when there is none) and the common
    denominator D of the vertices, both read off :func:`q_vertices`: Q(A)
    is integral iff D = 1."""
    verts = q_vertices(ideal.matrix())
    vertex = next((v for v in verts if any(x.denominator > 1 for x in v)), None)
    return {"vertex": None if vertex is None else list(map(str, vertex)),
            "denominator": math.lcm(*(x.denominator for v in verts for x in v))}


def _edge_ideal_checks(c: Clutter, bounds: Bounds) -> tuple[dict[str, bool], dict[str, Any]]:
    """NTF up to imax, normality up to kmax and integrality of Q(A) for the
    edge ideal of ``c``, as check values and their witness parts."""
    ntf = is_ntf_up_to(c, bounds.imax)
    ideal = edge_ideal(c)
    normal = normality_gap(ideal, bounds.kmax) is None
    integral = is_integral(ideal.matrix())  # normality cached its Q(A) vertices
    parts = {"ntf": ntf.to_json, "normal": lambda: is_normal_up_to(ideal, bounds.kmax).to_json(),
             "q_integral": lambda: fractional_vertex(ideal)}
    return {"ntf": ntf.holds, "normal": normal, "q_integral": integral}, parts


def check_poset_instance(p: Poset, bounds: Bounds) -> dict[str, Any]:
    g = comparability_graph(p)
    cl = clique_clutter(g)
    # the edge-ideal checks guard their boxes before they build anything,
    # so a poset past a size guard is skipped before the Menger walk runs
    values, parts = _edge_ideal_checks(cl, bounds) if cl.edges else ({}, {})
    sweep = comparability_mfmc_check(p, cl, bounds.wmax)
    dup_bad = duplication_commutes(g, cl)
    not_a_chain = clique_not_a_chain(p, cl)
    values.update(
        mfmc_holds=sweep["mfmc_holds"],
        menger_agrees=sweep["menger_agrees"],
        duplication_commutes=not dup_bad,
        cliques_are_chains=not_a_chain is None,
    )
    parts.update(
        konig_failures=sweep["konig_failures"][:3],
        menger_mismatches=sweep["menger_mismatches"][:3] or None,
        hasse_chains=sweep.get("hasse_chains"),
        duplication_vertices=dup_bad,
        not_a_chain=not_a_chain,
    )
    return _record("poset", values, parts)


def check_graph_instance(g: Graph, bounds: Bounds) -> dict[str, Any]:
    bad = duplication_commutes(g, clique_clutter(g))
    return _record("graph", {"duplication_commutes": not bad}, {"duplication_vertices": bad})


def check_clutter_instance(c: Clutter, bounds: Bounds) -> dict[str, Any]:
    """Three-way consistency: bounded NTF, bounded normality AND exact
    integrality of Q(A), bounded MFMC; the three signs must agree."""
    values, parts = _edge_ideal_checks(c, bounds)
    mfmc = mfmc_bounded(c, bounds.wmax)
    signs = {
        "ntf": values["ntf"],
        "normal_and_integral": values["normal"] and values["q_integral"],
        "mfmc": mfmc.holds,
    }
    disagreements = [
        f"{x} vs {y}"
        for x, y in itertools.combinations(signs, 2)
        if signs[x] != signs[y]
    ]
    parts.update(signs=signs, disagreements=disagreements, q_integral=values["q_integral"],
                 mfmc=mfmc.to_json)
    return _record("clutter", {"three_way_signs_agree": not disagreements, **signs}, parts)


def check_ideal_instance(ideal: MonomialIdeal, bounds: Bounds) -> dict[str, Any]:
    """Normality vs integer rounding over w in {0..wmax}^n. A
    box-consistency check, not a cross-check: both verdicts read one
    kernel chain (the threshold sets of the vertex rows of Q(A) and packed
    k-fold levels, compared by ``polyhedra._level_gap``) over two boxes,
    so one fault there can flip both alike."""
    normal = normality_gap(ideal, bounds.kmax) is None
    check_deadline()
    rounds = integer_rounding_holds(ideal.matrix(), bounds.wmax)
    values = {"normal": normal, "rounding": rounds, "normal_equals_rounding": normal == rounds}
    return _record("ideal", values, {
        "normal": lambda: is_normal_up_to(ideal, bounds.kmax).to_json(),
        "rounding": lambda: integer_rounding_check(ideal.matrix(), bounds.wmax).to_json(),
    })


class InstanceType(NamedTuple):
    """A row of :data:`CHECKS`."""

    from_json: Callable[[dict[str, Any]], Any]
    check: Callable[[Any, Bounds], dict[str, Any]]
    checks: dict[str, tuple[str, ...]]  # check key -> witness parts, in record order


CHECKS = {
    "poset": InstanceType(Poset.from_json, check_poset_instance, {
        "mfmc_holds": ("konig_failures",),
        "menger_agrees": ("menger_mismatches", "hasse_chains"),
        "duplication_commutes": ("duplication_vertices",),
        "cliques_are_chains": ("not_a_chain",),
        "ntf": ("ntf",),
        "normal": ("normal",),
        "q_integral": ("q_integral",),
    }),
    "graph": InstanceType(Graph.from_json, check_graph_instance, {
        "duplication_commutes": ("duplication_vertices",),
    }),
    "clutter": InstanceType(Clutter.from_json, check_clutter_instance, {
        "three_way_signs_agree": ("signs", "disagreements", "ntf", "normal", "q_integral", "mfmc"),
        "ntf": (),
        "normal_and_integral": (),
        "mfmc": (),
    }),
    "ideal": InstanceType(MonomialIdeal.from_json, check_ideal_instance, {
        "normal": (),
        "rounding": (),
        "normal_equals_rounding": ("normal", "rounding"),
    }),
}


def _record(kind: str, values: dict[str, bool], parts: dict[str, Any]) -> dict[str, Any]:
    """The ``{checks, pass, witness}`` record of one instance of ``kind``:
    the check values in table order, the pass rule of :data:`CHECKS`, and
    the witness parts of each failed deciding check. A part that is None
    is left out; a callable part is called only here."""
    table = CHECKS[kind].checks
    checks = {key: values[key] for key in table if key in values}
    if len(checks) != len(values):
        raise KeyError(f"{kind} checks without a row of CHECKS: {sorted(values.keys() - checks)}")
    failed = [key for key, names in table.items() if names and not checks.get(key, True)]
    witness = {}
    for name in (name for key in failed for name in table[key]):
        if parts[name] is not None:
            witness[name] = parts[name]() if callable(parts[name]) else parts[name]
    return {"checks": checks, "pass": not failed, "witness": witness or None}


# ---------------------------------------------------------------------------
# Report

@dataclass
class Report:
    corpus: dict[str, Any]
    bounds: dict[str, int]
    instances: list[dict[str, Any]]
    skipped: list[dict[str, Any]]
    counterexamples: list[dict[str, Any]]
    elapsed_s: float = 0.0

    @property
    def aggregate(self) -> str:
        """Run verdict: "pass" when at least one instance was checked and
        none failed, "inconclusive" when no instance was checked (all
        skipped by a guard, or an empty corpus), else "fail"."""
        if not self.instances:
            return "inconclusive"
        return "pass" if all(r["pass"] for r in self.instances) else "fail"

    def to_doc(self) -> dict[str, Any]:
        """Deterministic JSON document (no wall-clock content)."""
        return {
            "corpus": self.corpus,
            "bounds": self.bounds,
            "aggregate": self.aggregate,
            "counts": {
                "instances": len(self.instances),
                "failed": sum(1 for r in self.instances if not r["pass"]),
                "skipped": len(self.skipped),
            },
            "instances": self.instances,
            "skipped": self.skipped,
            "counterexamples": self.counterexamples,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_doc())

    def to_text(self) -> str:
        lines = [
            f"corpus: {json.dumps(self.corpus, sort_keys=True)}",
            f"bounds: {json.dumps(self.bounds, sort_keys=True)}",
            f"instances: {len(self.instances)}  skipped: {len(self.skipped)}  "
            f"elapsed: {self.elapsed_s:.2f}s",
        ]
        for rec in self.instances:
            status = "ok " if rec["pass"] else "FAIL"
            checks = " ".join(
                f"{name}={'y' if val else 'N'}" for name, val in rec["checks"].items()
            )
            lines.append(f"[{status}] #{rec['index']} {rec['instance']['type']}: {checks}")
        for rec in self.skipped:
            lines.append(f"[skip] #{rec['index']}: {rec['reason']}")
        lines.append(f"aggregate: {'FAIL' if self.aggregate == 'fail' else self.aggregate}")
        return "\n".join(lines)


def canonical_json(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def run_theorem_suite(corpus: Corpus, bounds: Bounds) -> Report:
    """Run every applicable consistency check on every corpus instance.

    The installed deadline (see :mod:`clutterlab.guards`) is restarted
    before each instance, so it is a per-instance budget. Instances
    exceeding it or another resource guard are skipped with a logged reason
    and counted in the report header, never silently dropped. A failed
    consistency check localizes the disagreeing pair in the instance
    record and the counterexample gallery; one raised as
    :class:`ConsistencyError` fails its instance, with the error as the
    witness's ``invariant``.
    """
    t0 = time.monotonic()
    records: list[dict[str, Any]] = []
    skipped: list[dict[str, Any]] = []
    gallery: list[dict[str, Any]] = []
    for index, (kind, obj) in enumerate(corpus.instances()):
        restart_deadline()
        try:
            result = CHECKS[kind].check(obj, bounds)
        except ResourceGuardError as exc:
            skipped.append(
                {"index": index, "instance": _instance_json(kind, obj), "reason": str(exc)}
            )
            continue
        except ConsistencyError as exc:
            result = {"checks": {"consistent": False}, "pass": False,
                      "witness": {"invariant": exc.to_json()}}
        record = {
            "index": index,
            "instance": _instance_json(kind, obj),
            "checks": result["checks"],
            "pass": result["pass"],
        }
        records.append(record)
        if not result["pass"]:
            gallery.append(
                {
                    "index": index,
                    "instance": _instance_json(kind, obj),
                    "witness": result["witness"],
                }
            )
    return Report(
        corpus=corpus.to_json(),
        bounds=bounds.to_json(),
        instances=records,
        skipped=skipped,
        counterexamples=gallery,
        elapsed_s=time.monotonic() - t0,
    )
