"""Covering and packing numbers, the Koenig property, bounded MFMC
certification over parallelizations, and a Menger flow oracle on the Hasse
diagram of a poset.

alpha0 / beta1 are computed by exact branch-and-bound (guaranteed for
n <= 20, <= 40 edges; far beyond what the corpora here need). Witness
covers and matchings are tie-broken lexicographically least so golden
files are stable.

The w-sweeps never build the parallelization C^w; three standard
identities give its numbers from weights on C:

- alpha0(C^w) = min over minimal covers K of C of sum_{i in K} w_i, and
- beta1(C^w) = max{1.y : Ay <= w, y integer >= 0}
  (Schrijver, Combinatorial Optimization, ch. 79, parallelization), see
  :func:`weighted_sweep`;
- for the clique clutter of a comparability graph, both are the max flow
  and min vertex cut of the Hasse diagram with vertex capacities w
  (Menger's theorem with vertex capacities), see :class:`HasseNetwork`.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Iterator, Sequence

from .guards import Deadline, check_size, MAX_COVER_SUBSETS
from .polyhedra import (
    IncidenceMatrix,
    format_rational,
    ilp_max_packing,
    q_vertices,
    simplex_max,
)
from .structures import (
    Clutter,
    Poset,
    _bits,
    _mask,
    clique_clutter,
    comparability_graph,
    parallel_origins,
    parallelization,
    parallelize_masks,
)
from .verdicts import Certificate


@dataclass(frozen=True)
class CoverSet:
    """A transversal: a vertex set meeting every edge."""

    vertices: tuple[int, ...]


@dataclass(frozen=True)
class KonigCertificate:
    """Optimal cover and matching with their sizes; holds iff they agree."""

    alpha0: int
    beta1: int
    cover: CoverSet
    matching: tuple[tuple[int, ...], ...]

    @property
    def holds(self) -> bool:
        return self.alpha0 == self.beta1

    def to_json(self) -> dict[str, Any]:
        return {
            "property": "konig",
            "verdict": "holds" if self.holds else "fails",
            "alpha0": self.alpha0,
            "beta1": self.beta1,
            "cover": list(self.cover.vertices),
            "matching": [list(e) for e in self.matching],
        }


# ---------------------------------------------------------------------------
# Mask kernels

def _greedy_cover_size(masks: Sequence[int]) -> int:
    remaining = list(masks)
    size = 0
    while remaining:
        counts: dict[int, int] = {}
        for m in remaining:
            for v in _bits(m):
                counts[v] = counts.get(v, 0) + 1
        v = max(counts, key=lambda u: (counts[u], -u))
        remaining = [m for m in remaining if not m >> v & 1]
        size += 1
    return size


def _disjoint_lower_bound(masks: Iterable[int]) -> int:
    used, count = 0, 0
    for m in masks:
        if not m & used:
            used |= m
            count += 1
    return count


def min_cover_size(masks: Sequence[int]) -> int:
    """Minimum transversal size by branch-and-bound on the smallest
    uncovered edge, with a greedy-matching lower bound."""
    if not masks:
        return 0
    best = _greedy_cover_size(masks)

    def rec(rem: list[int], size: int) -> None:
        nonlocal best
        if not rem:
            best = min(best, size)
            return
        if size + _disjoint_lower_bound(rem) >= best:
            return
        edge = min(rem, key=lambda m: m.bit_count())
        m = edge
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            rec([x for x in rem if not x >> v & 1], size + 1)

    rec(list(masks), 0)
    return best


def lex_min_cover(masks: Sequence[int], n: int, size: int) -> tuple[int, ...]:
    """Lexicographically least transversal of the given (minimum) size."""
    result: list[int] | None = None

    def rec(v: int, chosen: list[int], rem: list[int], budget: int) -> None:
        nonlocal result
        if result is not None:
            return
        if not rem:
            result = chosen[:]
            return
        if budget == 0 or v == n:
            return
        tail = ~((1 << v) - 1)
        if any(not m & tail for m in rem):
            return
        if _disjoint_lower_bound(rem) > budget:
            return
        if any(m >> v & 1 for m in rem):
            rec(v + 1, chosen + [v], [m for m in rem if not m >> v & 1], budget - 1)
        rec(v + 1, chosen, rem, budget)

    rec(0, [], list(masks), size)
    assert result is not None, "no cover of the optimal size found"
    return tuple(result)


def max_matching_size(masks: Sequence[int]) -> int:
    """Maximum number of pairwise-disjoint edges, DFS with pruning."""
    best = 0

    def rec(start: int, used: int, count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        avail = [(j, m) for j, m in enumerate(masks[start:], start) if not m & used]
        if count + len(avail) <= best:
            return
        for j, m in avail:
            rec(j + 1, used | m, count + 1)

    rec(0, 0, 0)
    return best


def lex_min_matching(masks: Sequence[int], size: int) -> list[int]:
    """First (in edge-index lexicographic order) disjoint edge set of the
    given (maximum) size; returns edge indices."""
    result: list[int] | None = None

    def rec(start: int, used: int, chosen: list[int]) -> None:
        nonlocal result
        if result is not None:
            return
        if len(chosen) == size:
            result = chosen[:]
            return
        avail = [(j, m) for j, m in enumerate(masks[start:], start) if not m & used]
        if len(chosen) + len(avail) < size:
            return
        for j, m in avail:
            chosen.append(j)
            rec(j + 1, used | m, chosen)
            chosen.pop()
            if result is not None:
                return

    rec(0, 0, [])
    assert result is not None, "no matching of the optimal size found"
    return result


# ---------------------------------------------------------------------------
# Covers, alpha0, beta1, Koenig

def minimal_vertex_covers(c: Clutter) -> list[CoverSet]:
    """All inclusion-minimal transversals, canonical order."""
    masks = c.edge_masks
    if not masks:
        return [CoverSet(())]
    found: set[int] = set()
    nodes = 0

    def rec(cover: int) -> None:
        nonlocal nodes
        nodes += 1
        check_size(nodes, MAX_COVER_SUBSETS, "cover enumeration nodes")
        uncovered = next((m for m in masks if not m & cover), None)
        if uncovered is None:
            found.add(cover)
            return
        m = uncovered
        while m:
            low = m & -m
            m ^= low
            rec(cover | low)

    rec(0)
    minimal = []
    for cov in found:
        if all(any(m & cov == 1 << v for m in masks) for v in _bits(cov)):
            minimal.append(tuple(_bits(cov)))
    return [CoverSet(t) for t in sorted(set(minimal))]


def alpha0(c: Clutter) -> int:
    """Size of a minimum vertex cover."""
    return min_cover_size(c.edge_masks)


def beta1(c: Clutter) -> int:
    """Maximum number of pairwise-disjoint (independent) edges."""
    return max_matching_size(c.edge_masks)


def konig_certificate(c: Clutter) -> KonigCertificate:
    """Exact alpha0/beta1 with lexicographically-least witnesses."""
    masks = c.edge_masks
    a0 = min_cover_size(masks)
    b1 = max_matching_size(masks)
    cover = lex_min_cover(masks, c.n, a0)
    match_idx = lex_min_matching(masks, b1)
    matching = tuple(c.edges[j] for j in match_idx)
    cover_mask = _mask(cover)
    assert all(m & cover_mask for m in masks), "cover fails to meet an edge"
    used = 0
    for j in match_idx:
        assert not masks[j] & used, "matching edges overlap"
        used |= masks[j]
    assert b1 <= a0
    return KonigCertificate(a0, b1, CoverSet(cover), matching)


# ---------------------------------------------------------------------------
# Bounded MFMC certification

def weighted_sweep(
    c: Clutter, wmax: int, deadline: Deadline | None = None
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Yield (w, alpha0(C^w), beta1(C^w)) for every w in {0..wmax}^n in
    lexicographic order, without building C^w.

    Both numbers come from weights on C (Schrijver, Combinatorial
    Optimization, ch. 79, on parallelization):

    - alpha0(C^w) = min over the minimal covers K of C of sum_{i in K} w_i.
      A minimal cover of C^w holds all copies of a vertex or none, and
      weight-0 vertices may be added to a cover for free.
    - beta1(C^w) = max{1.y : Ay <= w, y integer >= 0}, the w-packing number
      of C: a matching of C^w uses each vertex i at most w_i times. It is
      tabulated over the box in lex order, nu(w) = max(0, 1 + nu(w - e))
      over the edges e inside the support of w; w - e is lex-smaller and
      sits at a fixed flat-index offset, so each step is one lookup.

    ``deadline`` is checked once per w; the cover enumeration raises
    :class:`ResourceGuardError` past its guard.
    """
    covers = [cs.vertices for cs in minimal_vertex_covers(c)]
    base = wmax + 1
    place = [base ** (c.n - 1 - i) for i in range(c.n)]
    edges = [(m, sum(place[i] for i in e)) for m, e in zip(c.edge_masks, c.edges)]
    nu = array("l")
    for w in itertools.product(range(base), repeat=c.n):
        if deadline is not None:
            deadline.check()
        zero = 0
        for i, x in enumerate(w):
            if not x:
                zero |= 1 << i
        here = len(nu)
        best = 0
        for m, offset in edges:
            if not m & zero and nu[here - offset] >= best:
                best = nu[here - offset] + 1
        nu.append(best)
        yield w, min(sum(w[i] for i in k) for k in covers), best


def mfmc_bounded(c: Clutter, wmax: int, deadline: Deadline | None = None) -> Certificate:
    """Check the Koenig property of C^w for every w in {0..wmax}^n.

    Lexicographic w order, short-circuiting on the first failure. This is a
    bounded semidecision of the max-flow min-cut property; the verdict
    carries the bound explicitly.

    C^w is built only to render the witness of a failure. Otherwise its
    numbers come from weights on C by :func:`weighted_sweep`:
    alpha0(C^w) = min over minimal covers K of C of sum_{i in K} w_i, and
    beta1(C^w) = max{1.y : Ay <= w, y integer >= 0} (Schrijver,
    Combinatorial Optimization, ch. 79).
    """
    if wmax < 1:
        raise ValueError("wmax must be >= 1")
    checked = 0
    for w, a0, b1 in weighted_sweep(c, wmax, deadline):
        checked += 1
        if a0 != b1:
            cert = konig_certificate(parallelization(c, w))
            return Certificate(
                prop="mfmc",
                verdict="fails",
                holds=False,
                bound=wmax,
                witness={"w": list(w), "konig": cert.to_json()},
                details={"checked": checked},
            )
    return Certificate(
        prop="mfmc",
        verdict="holds-up-to-bound",
        holds=True,
        bound=wmax,
        details={"checked": checked},
    )


# ---------------------------------------------------------------------------
# LP duality with integrality check

def lp_duality_integer_check(c: Clutter, w: Sequence[int]) -> Certificate:
    """Evaluate both sides of the covering LP-duality equation at weight w
    over the rationals (asserted equal), then decide whether each side is
    attained by an integer optimum. The integer minimum is the least
    w-weight of a minimal cover (any 0/1 cover contains one, and w >= 0);
    the integer maximum is the w-packing number."""
    weights = tuple(int(x) for x in w)
    if len(weights) != c.n:
        raise ValueError(f"weight vector has length {len(weights)}, expected {c.n}")
    if any(x < 0 for x in weights):
        raise ValueError("weights must be nonnegative")
    if not c.edges:
        raise ValueError("clutter must have at least one edge")
    a = IncidenceMatrix.from_clutter(c)
    lp_min = min(sum(wi * vi for wi, vi in zip(weights, v)) for v in q_vertices(a))
    lp_max, _ = simplex_max([1] * a.q, a.rows(), list(weights))
    assert lp_min == lp_max, f"LP duality violated: {lp_min} != {lp_max}"
    int_min = min(sum(weights[v] for v in cs.vertices) for cs in minimal_vertex_covers(c))
    int_max = ilp_max_packing(a, weights)
    holds = int_min == lp_min and int_max == lp_max
    return Certificate(
        prop="lp-duality-integrality",
        verdict="holds" if holds else "fails",
        holds=holds,
        witness=None
        if holds
        else {"w": list(weights), "lp": format_rational(lp_min), "int_min": int_min, "int_max": int_max},
        details={
            "lp": format_rational(lp_min),
            "int_min": int_min,
            "int_max": int_max,
        },
    )


# ---------------------------------------------------------------------------
# Menger oracle on the Hasse diagram

@dataclass(frozen=True)
class HasseNetwork:
    """Hasse diagram of a poset as an s-t network with vertex capacities.

    Arcs are the cover pairs x < y with nothing strictly between; the
    source feeds the minimal elements and the maximal elements feed the
    sink. Its source-to-sink paths are exactly the maximal chains of the
    poset, i.e. the maximal cliques of its comparability graph. In the
    split network vertex v is the arc v_in -> v_out (arc ids 2v, 2v+1 for
    its reverse); every other arc is uncapacitated.
    """

    n: int
    arcs: tuple[tuple[int, int], ...]
    sources: tuple[int, ...]
    sinks: tuple[int, ...]

    @classmethod
    def of(cls, p: Poset) -> "HasseNetwork":
        succ = p.successors
        arcs = [
            (x, y)
            for x in range(p.n)
            for y in _bits(succ[x])
            if not succ[x] & p.predecessors[y]
        ]
        return cls(
            n=p.n,
            arcs=tuple(sorted(arcs)),
            sources=tuple(v for v in range(p.n) if not p.predecessors[v]),
            sinks=tuple(v for v in range(p.n) if not succ[v]),
        )

    @cached_property
    def _graph(self) -> tuple[list[int], list[list[int]]]:
        """(head of each arc, arc ids leaving each node); arc a ^ 1 is the
        reverse of arc a. Nodes: v_in = 2v, v_out = 2v + 1, s, t."""
        s, t = 2 * self.n, 2 * self.n + 1
        pairs = [(2 * v, 2 * v + 1) for v in range(self.n)]
        pairs += [(2 * x + 1, 2 * y) for x, y in self.arcs]
        pairs += [(s, 2 * a) for a in self.sources]
        pairs += [(2 * b + 1, t) for b in self.sinks]
        head: list[int] = []
        out: list[list[int]] = [[] for _ in range(2 * self.n + 2)]
        for u, v in pairs:
            out[u].append(len(head))
            head.append(v)
            out[v].append(len(head))
            head.append(u)
        return head, out

    def chains(self) -> set[int]:
        """Vertex masks of all source-to-sink paths (exponential; meant for
        one check per poset, not per weight)."""
        succ: list[list[int]] = [[] for _ in range(self.n)]
        for x, y in self.arcs:
            succ[x].append(y)
        sinks = set(self.sinks)
        out: set[int] = set()

        def walk(v: int, acc: int) -> None:
            if v in sinks:
                out.add(acc)
            for nxt in succ[v]:
                walk(nxt, acc | 1 << nxt)

        for a in self.sources:
            walk(a, 1 << a)
        return out

    def max_flow(self, w: Sequence[int]) -> tuple[int, list[tuple[int, int]], int]:
        """Max s-t flow with capacity w_v through vertex v (Edmonds-Karp).

        Returns (value, decomposition, cut): the flow split into chains as
        (vertex mask, multiplicity) pairs, and the mask of the minimum
        vertex cut read off residual reachability from the source.
        """
        head, out = self._graph
        s, t = 2 * self.n, 2 * self.n + 1
        big = sum(w) + 1
        cap = [big if a & 1 == 0 else 0 for a in range(len(head))]
        for v in range(self.n):
            cap[2 * v] = w[v]
        value = 0
        while True:
            via = [-1] * (t + 1)
            via[s] = -2
            queue = [s]
            for u in queue:
                for a in out[u]:
                    v = head[a]
                    if cap[a] and via[v] == -1:
                        via[v] = a
                        queue.append(v)
                if via[t] != -1:
                    break
            if via[t] == -1:
                break
            push, v = big, t
            while v != s:
                push = min(push, cap[via[v]])
                v = head[via[v] ^ 1]
            v = t
            while v != s:
                cap[via[v]] -= push
                cap[via[v] ^ 1] += push
                v = head[via[v] ^ 1]
            value += push
        cut = _mask(v for v in range(self.n) if via[2 * v] != -1 and via[2 * v + 1] == -1)

        # flow on forward arc a is the residual capacity of its reverse
        flow = [cap[a ^ 1] if a & 1 == 0 else 0 for a in range(len(head))]
        chains: list[tuple[int, int]] = []
        while True:
            path, u = [], s
            while u != t:
                a = next((a for a in out[u] if flow[a] > 0), None)
                if a is None:
                    break
                path.append(a)
                u = head[a]
            if not path:
                break
            assert u == t, "flow is not conserved"
            push = min(flow[a] for a in path)
            for a in path:
                flow[a] -= push
            chains.append((_mask(head[a] // 2 for a in path[:-1]), push))
        return value, chains, cut


def menger_check(
    net: HasseNetwork, edge_masks: Sequence[int], w: Sequence[int]
) -> tuple[int, int, list[tuple[int, int]], int]:
    """Max flow and min vertex cut of ``net`` at weight w, checked against
    the clique clutter with edge masks ``edge_masks``.

    Returns (cut weight, flow value, chains, cut). Asserts that the two
    numbers agree, that every flow chain is a clutter edge avoiding the
    weight-0 vertices, and that the cut meets every such edge.
    """
    value, chains, cut = net.max_flow(w)
    cut_weight = sum(w[v] for v in _bits(cut))
    assert value == cut_weight, f"max-flow {value} != min-cut {cut_weight}"
    zero = _mask(v for v, x in enumerate(w) if x == 0)
    edges = set(edge_masks)
    for m, _ in chains:
        assert m in edges and not m & zero, "flow chain is not a surviving clique"
    assert all(m & cut for m in edges if not m & zero), "cut misses a surviving clique"
    return cut_weight, value, chains, cut


def menger_oracle(p: Poset, w: Sequence[int]) -> KonigCertificate:
    """Koenig certificate for the parallelized clique clutter C^w of the
    comparability graph of p, from one vertex-capacitated max flow.

    Menger's theorem with vertex capacities: the maximum number of
    source-to-sink paths of the Hasse diagram through each vertex v at most
    w_v times equals the minimum weight of a vertex set meeting every such
    path. Those paths are the maximal chains, i.e. the edges of C, and
    parallelization turns the capacity w_v into w_v disjoint copies of v,
    so the flow is a maximum matching of C^w and the cut a minimum cover.
    The cover is every copy of the cut vertices; the matching is the flow
    decomposed into chains, each unit taking the next unused copy of its
    vertices. Indices follow :func:`parallelization`.
    """
    weights = tuple(int(x) for x in w)
    if len(weights) != p.n:
        raise ValueError(f"weight vector has length {len(weights)}, expected {p.n}")
    if any(x < 0 for x in weights):
        raise ValueError("weights must be nonnegative")
    cl = clique_clutter(comparability_graph(p))
    alpha, beta, chains, cut = menger_check(HasseNetwork.of(p), cl.edge_masks, weights)
    index = {key: j for j, key in enumerate(parallel_origins(weights))}
    used = [0] * p.n
    matching = []
    for m, mult in chains:
        for _ in range(mult):
            matching.append(tuple(sorted(index[(v, used[v])] for v in _bits(m))))
            for v in _bits(m):
                used[v] += 1
    cover = tuple(sorted(index[(v, k)] for v in _bits(cut) for k in range(weights[v])))
    return KonigCertificate(alpha, beta, CoverSet(cover), tuple(sorted(matching)))


def chain_order(p: Poset, clique: Sequence[int]) -> list[int]:
    """Vertices of a clique of the comparability graph, sorted into the
    chain they form; raises if some pair is incomparable."""
    verts = list(clique)
    ordered = sorted(verts, key=lambda v: sum(1 for u in verts if p.less(u, v)))
    for a, b in zip(ordered, ordered[1:]):
        if not p.less(a, b):
            raise ValueError(f"vertices {a} and {b} are not comparable in order")
    return ordered
