"""Covering and packing numbers, the Koenig property, bounded MFMC
certification over parallelizations, and a Menger flow oracle on the Hasse
diagram of a poset.

The w-sweeps never build the parallelization C^w; three standard
identities give its numbers from weights on C:

- alpha0(C^w) = min over minimal covers K of C of sum_{i in K} w_i, and
- beta1(C^w) = max{1.y : Ay <= w, y integer >= 0}
  (Schrijver, Combinatorial Optimization, ch. 79, parallelization), both
  compared for the whole box at once by :func:`sweep_levels`, the level
  sweep of ``polyhedra`` at unit 1, whose failing set holds every w where
  Koenig fails on C^w. Every witness is read off that set: the two
  numbers are read only at the w it or a Menger check names, in one pass
  over the sets (:func:`konig_numbers`);
- for the clique clutter of a comparability graph, both are the max flow
  and min vertex cut of the Hasse diagram with vertex capacities w
  (Menger's theorem with vertex capacities), see :class:`HasseNetwork`.

The flows of a whole w-box come from few max flows. A flow f and a
vertex cut K that certify tau(C^w) = nu(C^w) at one w (the checks of
:func:`_pair_failure`), with K meeting every edge of C, certify it on
the whole box w'_v = w_v on K, w'_u in [f_u, wmax] off K: f stays
feasible with the same chains, and the cut weight stays the flow value.
One max flow has two such cuts, the minimum cuts nearest the source and
nearest the sink (:meth:`HasseNetwork._sink_cut`), so it certifies two
boxes. Each connected component of the Hasse diagram is walked on its
own box, since every maximal chain lies in one and tau and nu of C^w
add over them; see :func:`menger_walk`. The walk hands over the flow as
the packed sets of the whole box holding each value, the layout of the
sweep's beta1, so the two compare as sets, w for w.

Each Koenig number has one exact search, which returns its
lexicographically least optimal witness: :func:`lex_min_cover` for alpha0
and :func:`lex_min_matching` for beta1; the number is the witness's length.
They serve only Koenig certificates, of one clutter or of the witness C^w
of a failed sweep, and check the ambient deadline
(:func:`~clutterlab.guards.check_deadline`) at every node.
"""

from __future__ import annotations

import operator
from functools import cached_property, lru_cache, reduce
from typing import Any, Iterable, Iterator, Sequence

from .guards import ConsistencyError, Value, check_deadline, check_size, MAX_COVER_SUBSETS
from .polyhedra import (
    IncidenceMatrix,
    format_rational,
    ilp_max_packing,
    q_vertices,
    _at_least,
    _cell,
    _check_box,
    _level_sweep,
)
from .structures import (
    Clutter,
    Poset,
    _bits,
    _check_weights,
    _mask,
    clique_clutter,
    comparability_graph,
    parallel_origins,
    parallelization,
    parallelize_masks,  # unused; certbench's tracer test still reads this holder
)
from .verdicts import Certificate


class KonigCertificate(Value):
    """Optimal cover and matching with their sizes; holds iff they agree.
    The cover is a sorted vertex tuple, the matching a tuple of edges."""

    alpha0: int
    beta1: int
    cover: tuple[int, ...]
    matching: tuple[tuple[int, ...], ...]

    def __init__(self, alpha0: int, beta1: int, cover: tuple[int, ...],
                 matching: tuple[tuple[int, ...], ...]):
        self._set(alpha0, beta1, cover, matching)

    @property
    def holds(self) -> bool:
        return self.alpha0 == self.beta1

    def to_json(self) -> dict[str, Any]:
        return {
            "property": "konig",
            "verdict": "holds" if self.holds else "fails",
            "alpha0": self.alpha0,
            "beta1": self.beta1,
            "cover": list(self.cover),
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


def lex_min_cover(masks: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically least minimum transversal.

    One branch-and-bound over the vertices in ascending order, taking a
    vertex before leaving it out, so covers of one size are reached in
    lexicographic order. It starts from the greedy bound plus one and cuts
    a branch whose size plus a disjoint-edge lower bound cannot beat the
    best cover so far, so the first cover of the final best size is the
    lex-least minimum cover. The deadline is checked at every node.
    """
    best: list[int] = []
    bound = _greedy_cover_size(masks) + 1

    def rec(v: int, chosen: list[int], rem: list[int]) -> None:
        nonlocal best, bound
        check_deadline()
        if not rem:
            best, bound = chosen[:], len(chosen)
            return
        if len(chosen) + _disjoint_lower_bound(rem) >= bound:
            return
        if any(not m >> v for m in rem):  # an edge no vertex >= v meets
            return
        if any(m >> v & 1 for m in rem):
            chosen.append(v)
            rec(v + 1, chosen, [m for m in rem if not m >> v & 1])
            chosen.pop()
        rec(v + 1, chosen, rem)

    rec(0, [], list(masks))
    return tuple(best)


def lex_min_matching(masks: Sequence[int]) -> list[int]:
    """First maximum set of pairwise-disjoint edges, in edge-index
    lexicographic order; returns edge indices.

    A depth-first search over the edges in index order keeps the first
    disjoint set of each new size and cuts a branch that cannot beat it,
    so the first set of the final size is the lex-first maximum matching.
    A branch adds at most min(#available edges, |union of them| // the
    smallest of them) edges, since disjoint edges use distinct vertices.
    The deadline is checked at every node.
    """
    best: list[int] = []

    def rec(start: int, used: int, chosen: list[int]) -> None:
        nonlocal best
        check_deadline()
        if len(chosen) > len(best):
            best = chosen[:]
        avail = [(j, m) for j, m in enumerate(masks[start:], start) if not m & used]
        union = 0
        for _, m in avail:
            union |= m
        smallest = min((m.bit_count() for _, m in avail), default=1)
        if len(chosen) + min(len(avail), union.bit_count() // smallest) <= len(best):
            return
        for j, m in avail:
            chosen.append(j)
            rec(j + 1, used | m, chosen)
            chosen.pop()

    rec(0, 0, [])
    return best


def min_cover_size(masks: Sequence[int]) -> int:
    """Minimum transversal size: the length of :func:`lex_min_cover`."""
    return len(lex_min_cover(masks))


def max_matching_size(masks: Sequence[int]) -> int:
    """Maximum number of pairwise-disjoint edges: the length of
    :func:`lex_min_matching`."""
    return len(lex_min_matching(masks))


# ---------------------------------------------------------------------------
# Covers, alpha0, beta1, Koenig

def minimal_vertex_covers(c: Clutter) -> list[tuple[int, ...]]:
    """All inclusion-minimal transversals, as sorted vertex tuples in
    lexicographic order, by Berge's multiplication (C. Berge, *Hypergraphs*,
    1989): from {0}, each edge mask e keeps the covers t meeting e, grows
    every other t into t | {v} for each v in e, and drops a grown set that
    contains a kept cover. No other minimality check is needed: two grown
    sets never nest (both t miss e, so they add the same v and t inside t'),
    and no kept k contains a grown t | {v} (k would contain t, so k = t,
    which misses e). The family size times |e| is guarded before each
    edge, and the deadline is checked per edge and per grown set."""
    covers = [0]
    for e in c.edge_masks:
        check_deadline()
        check_size(len(covers) * e.bit_count(), MAX_COVER_SUBSETS, "cover family size")
        kept = [t for t in covers if t & e]
        grown = []
        for t in covers:
            if t & e:
                continue
            for v in _bits(e):
                check_deadline()
                g = t | 1 << v
                if all(k & g != k for k in kept):
                    grown.append(g)
        covers = kept + grown
    return sorted(tuple(_bits(t)) for t in covers)


@lru_cache(maxsize=512)
def _cover_matrix(c: Clutter) -> tuple[tuple[int, ...], ...]:
    """0/1 rows of the minimal vertex covers of c, in lexicographic order:
    the order of the vertex rows of an integral Q(A)
    (:func:`~clutterlab.polyhedra._vertex_inequalities`), which are these
    covers, so both row sets key one set of threshold sets."""
    return tuple(sorted(tuple(int(v in cov) for v in range(c.n)) for cov in minimal_vertex_covers(c)))


def alpha0(c: Clutter) -> int:
    """Size of a minimum vertex cover."""
    return min_cover_size(c.edge_masks)


def beta1(c: Clutter) -> int:
    """Maximum number of pairwise-disjoint (independent) edges."""
    return max_matching_size(c.edge_masks)


def konig_certificate(c: Clutter) -> KonigCertificate:
    """Exact alpha0/beta1 with lexicographically-least witnesses, one
    search each; the deadline is checked at every node of both."""
    cover = lex_min_cover(c.edge_masks)
    matching = tuple(c.edges[j] for j in lex_min_matching(c.edge_masks))
    return KonigCertificate(len(cover), len(matching), cover, matching)


# ---------------------------------------------------------------------------
# Bounded MFMC certification

def sweep_levels(c: Clutter, wmax: int) -> tuple[dict[int, int], int]:
    """beta1(C^w) for every w in {0..wmax}^n, and every w at which the
    Koenig property of C^w fails, decided on packed levels without
    building C^w or listing any per-w number.

    Returns (nu_sets, failing), sets of w each one int with bit idx(w),
    the lexicographic index of w: ``polyhedra._level_sweep`` of the edge
    columns against the minimal-cover rows at unit 1. ``nu_sets`` holds
    beta1(C^w) in the layout of :func:`menger_walk`'s flows, and
    ``failing`` the w with alpha0(C^w) > beta1(C^w). The box size is
    guarded before anything is built.
    """
    caps = (wmax,) * c.n
    _check_box(caps, "sweep box size")
    columns = IncidenceMatrix.from_clutter(c).columns if c.edges else ()
    return _level_sweep(columns, caps, _cover_matrix(c), 1)


def konig_numbers(
    c: Clutter, wmax: int, nu_sets: dict[int, int], failing: int, cells: int
) -> list[tuple[list[int], list[int]]]:
    """(w, [alpha0, beta1] of C^w) for every w of the set ``cells`` of
    {0..wmax}^n, in lexicographic order: alpha0 is the least w-weight of
    a minimal cover, per w off the cover rows, and beta1 the value of the
    set of ``nu_sets`` (:func:`sweep_levels`) holding w, read with
    ``failing`` once per set for all of ``cells``.

    This reads neither the threshold kernel nor any per-w list of the
    box, so it re-checks the packed failing set at each w: if
    alpha0 != beta1 disagrees with the bit of w in ``failing``,
    :class:`ConsistencyError` is raised for the first such w.
    """
    caps, rows = (wmax,) * c.n, _cover_matrix(c)
    beta = {i: value for value, held in nu_sets.items() for i in _bits(held & cells)}
    fails = set(_bits(failing & cells))
    out = []
    for i in _bits(cells):
        w = list(_cell(caps, i))
        numbers = [min(sum(r * x for r, x in zip(row, w)) for row in rows), beta[i]]
        if (numbers[0] != numbers[1]) != (i in fails):
            raise ConsistencyError(
                "w is in the packed Koenig failing set iff alpha0 != beta1 of C^w at w",
                {"w": w, "failing": i in fails}, numbers,
            )
        out.append((w, numbers))
    return out


def mfmc_bounded(c: Clutter, wmax: int) -> Certificate:
    """Check the Koenig property of C^w for every w in {0..wmax}^n.

    The witness is the lexicographically first failing w, and ``checked``
    counts the w up to it. This is a bounded semidecision of the max-flow
    min-cut property; the verdict carries the bound explicitly.

    The verdict is the failing set of :func:`sweep_levels`, on packed
    levels, and the witness its lowest bit. alpha0 and beta1 of that C^w
    are then read for that w alone (:func:`konig_numbers`), and must
    differ; C^w is built to render its Koenig certificate, whose search
    must find the same two numbers. A failed check raises
    :class:`ConsistencyError`. The deadline is checked once the box is
    decided and at every node of that search.
    """
    if wmax < 1:
        raise ValueError("wmax must be >= 1")
    nu_sets, failing = sweep_levels(c, wmax)
    check_deadline()
    if not failing:
        return Certificate(
            prop="mfmc",
            verdict="holds-up-to-bound",
            holds=True,
            bound=wmax,
            details={"checked": (wmax + 1) ** c.n},
        )
    first = failing & -failing
    [(w, numbers)] = konig_numbers(c, wmax, nu_sets, failing, first)
    konig = konig_certificate(parallelization(c, w))
    if [konig.alpha0, konig.beta1] != numbers:
        raise ConsistencyError(
            "alpha0/beta1 of C^w from weights on C = Koenig search on C^w",
            numbers, [konig.alpha0, konig.beta1],
        )
    return Certificate(
        prop="mfmc",
        verdict="fails",
        holds=False,
        bound=wmax,
        witness={"w": w, "konig": konig.to_json()},
        details={"checked": first.bit_length()},
    )


# ---------------------------------------------------------------------------
# LP duality with integrality check

def lp_duality_integer_check(c: Clutter, w: Sequence[int]) -> Certificate:
    """Decide whether the common value of the covering LP-duality equation
    at weight w is attained by integer optima on both sides. The LP value
    is the least <w, ell> over the vertices ell of Q(A) (Q(A) is pointed
    with recession cone R^n_+ and w >= 0, so the minimum is at a vertex);
    the integer minimum is the least w-weight of a minimal cover (any 0/1
    cover contains one, and w >= 0); the integer maximum is the w-packing
    number."""
    weights = _check_weights(c.n, w)
    if not c.edges:
        raise ValueError("clutter must have at least one edge")
    a = IncidenceMatrix.from_clutter(c)
    lp = min(sum(wi * vi for wi, vi in zip(weights, v)) for v in q_vertices(a))
    int_min = min(sum(weights[v] for v in cov) for cov in minimal_vertex_covers(c))
    int_max = ilp_max_packing(a, weights)
    holds = int_min == lp and int_max == lp
    return Certificate(
        prop="lp-duality-integrality",
        verdict="holds" if holds else "fails",
        holds=holds,
        witness=None
        if holds
        else {"w": list(weights), "lp": format_rational(lp), "int_min": int_min, "int_max": int_max},
        details={
            "lp": format_rational(lp),
            "int_min": int_min,
            "int_max": int_max,
        },
    )


# ---------------------------------------------------------------------------
# Menger oracle on the Hasse diagram

def gray_steps(n: int, wmax: int) -> Iterator[tuple[int, int]]:
    """Steps (coordinate v, +1 or -1) of the reflected mixed-radix Gray walk
    of {0..wmax}^n from 0^n (Knuth, TAOCP 4A, section 7.2.1.1).

    Every w of the box is visited exactly once and consecutive w differ by
    one in one coordinate. The last coordinate moves fastest; a coordinate
    that cannot move on reverses its direction and passes the step on.
    :func:`menger_walk` covers the box by certified boxes instead; this
    order serves a caller that moves one vertex capacity at a time.
    """
    w = [0] * n
    d = [1] * n
    while True:
        v = n - 1
        while v >= 0 and not 0 <= w[v] + d[v] <= wmax:
            d[v] = -d[v]
            v -= 1
        if v < 0:
            return
        w[v] += d[v]
        yield v, d[v]


class HasseNetwork(Value):
    """Hasse diagram of a poset as an s-t network with vertex capacities.

    Arcs are the cover pairs x < y with nothing strictly between; the
    source feeds the minimal elements and the maximal elements feed the
    sink. Its source-to-sink paths are exactly the maximal chains of the
    poset, i.e. the maximal cliques of its comparability graph. In the
    split network vertex v is the arc v_in -> v_out (arc ids 2v, 2v+1 for
    its reverse); every other arc is uncapacitated.

    One flow kernel serves a single weight and a whole w-box: residual
    capacities ``cap`` (the flow on a forward arc a is ``cap[a ^ 1]``),
    Edmonds-Karp steps (:meth:`_augment`, one shortest augmenting path
    each), the min cut read off a search that found no path, the min cut
    nearest the sink (:meth:`_sink_cut`), and :meth:`_decompose` into
    chains. :meth:`max_flow` runs it from the zero flow; :func:`menger_walk`
    runs it once per two boxes of weights that one flow and its two cuts
    certify, and :func:`_pair_failure` checks each flow it uses.
    """

    n: int
    arcs: tuple[tuple[int, int], ...]
    sources: tuple[int, ...]
    sinks: tuple[int, ...]

    def __init__(self, n: int, arcs: tuple[tuple[int, int], ...], sources: tuple[int, ...],
                 sinks: tuple[int, ...]):
        self._set(n, arcs, sources, sinks)

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
        one check per poset, not per weight); the deadline is checked at
        every node of the walk."""
        succ: list[list[int]] = [[] for _ in range(self.n)]
        for x, y in self.arcs:
            succ[x].append(y)
        sinks = set(self.sinks)
        out: set[int] = set()

        def walk(v: int, acc: int) -> None:
            check_deadline()
            if v in sinks:
                out.add(acc)
            for nxt in succ[v]:
                walk(nxt, acc | 1 << nxt)

        for a in self.sources:
            walk(a, 1 << a)
        return out

    def _residual(self, w: Sequence[int], big: int) -> list[int]:
        """Residual capacities of the zero flow: w_v on vertex arc 2v,
        ``big`` (above any flow value) on the other forward arcs, 0 on the
        reverse arcs."""
        head, _ = self._graph
        cap = [big, 0] * (len(head) // 2)
        for v in range(self.n):
            cap[2 * v] = w[v]
        return cap

    def _augment(self, cap: list[int]) -> tuple[int, list[int]]:
        """One Edmonds-Karp step: a breadth-first search of the residual
        network from the source, and a push of the bottleneck along the
        shortest s-t path it found. Returns the flow pushed and the search
        tree; when nothing was pushed, the tree's reached nodes are the
        source side of a minimum cut."""
        head, out = self._graph
        s, t = 2 * self.n, 2 * self.n + 1
        via = [-1] * (t + 1)
        via[s] = -2
        queue = [s]
        for u in queue:
            for a in out[u]:
                if cap[a] > 0 and via[head[a]] == -1:
                    via[head[a]] = a
                    queue.append(head[a])
            if via[t] != -1:
                break
        else:
            return 0, via
        push, v = cap[via[t]], t
        while v != s:
            push = min(push, cap[via[v]])
            v = head[via[v] ^ 1]
        v = t
        while v != s:
            cap[via[v]] -= push
            cap[via[v] ^ 1] += push
            v = head[via[v] ^ 1]
        return push, via

    def _cut(self, via: list[int]) -> int:
        """Mask of the vertices whose arc leaves the reached side."""
        cut = 0
        for v in range(self.n):
            if via[2 * v] != -1 and via[2 * v + 1] == -1:
                cut |= 1 << v
        return cut

    def _sink_cut(self, cap: list[int]) -> int:
        """Mask of the vertices whose v_out reaches the sink in the
        residual network and whose v_in does not, from one breadth-first
        search backwards from the sink. For a max flow this is the minimum
        cut nearest the sink, the same for every max flow."""
        head, out = self._graph
        t = 2 * self.n + 1
        reached = [False] * (t + 1)
        reached[t] = True
        queue = [t]
        for x in queue:
            for b in out[x]:  # arc b ^ 1 runs from head[b] into x
                if cap[b ^ 1] > 0 and not reached[head[b]]:
                    reached[head[b]] = True
                    queue.append(head[b])
        cut = 0
        for v in range(self.n):
            if reached[2 * v + 1] and not reached[2 * v]:
                cut |= 1 << v
        return cut

    def _balance(self, cap: list[int], u: int) -> tuple[int, int]:
        """(flow into node u, flow out of u)."""
        _, out = self._graph
        inflow = sum(cap[b] for b in out[u] if b & 1)
        outflow = sum(cap[a ^ 1] for a in out[u] if not a & 1)
        return inflow, outflow

    def _decompose(self, cap: list[int]) -> list[tuple[int, int]]:
        """The flow split into source-to-sink chains, as (vertex mask,
        multiplicity) pairs; raises :class:`ConsistencyError` if a chain
        stops short of the sink, i.e. the flow is not conserved."""
        head, out = self._graph
        s, t = 2 * self.n, 2 * self.n + 1
        rest = cap[:]  # rest[a ^ 1] is the flow on forward arc a not yet split off
        chains: list[tuple[int, int]] = []
        while True:
            path, u, m, push = [], s, 0, 0
            while u != t:
                for a in out[u]:
                    if not a & 1 and rest[a ^ 1]:
                        break
                else:
                    break
                path.append(a)
                if not push or rest[a ^ 1] < push:
                    push = rest[a ^ 1]
                u = head[a]
                m |= 1 << (u >> 1)  # bit n is t's
            if not path:
                return chains
            if u != t:
                raise ConsistencyError("flow is conserved", *self._balance(rest, u))
            for a in path:
                rest[a ^ 1] -= push
            chains.append((m & ~(1 << self.n), push))

    def max_flow(self, w: Sequence[int]) -> tuple[int, list[int], int]:
        """Max s-t flow with capacity w_v through vertex v, by Edmonds-Karp
        from the zero flow.

        Returns (value, residual capacities, cut): the cut is the mask of
        the minimum vertex cut read off residual reachability from the
        source.
        """
        cap = self._residual(w, sum(w) + 1)
        value = 0
        while True:
            added, via = self._augment(cap)
            if not added:
                return value, cap, self._cut(via)
            value += added


def _overload(w: Sequence[int], cap: list[int]) -> tuple[str, Any, Any]:
    """The failed check of a flow with residual capacities ``cap`` that
    carries more than w_v through some vertex v: the flows against w."""
    return "flow through each vertex is at most w_v", cap[1 : 2 * len(w) : 2], list(w)


def _pair_failure(
    net: HasseNetwork, edge_masks: Sequence[int], w: Sequence[int],
    value: int, cap: list[int], cut: int,
) -> tuple[str, Any, Any] | None:
    """The first check that the flow of value ``value`` with residual
    capacities ``cap`` and the vertex cut ``cut`` of ``net`` fail at
    weight w, as the (check, left, right) arguments of its
    :class:`ConsistencyError`, or None when the pair certifies
    tau(C^w) = nu(C^w) = value for the clique clutter with edge masks
    ``edge_masks``.

    The checks, in order: no vertex carries more flow than w_v, the flow
    is conserved (:meth:`HasseNetwork._decompose`), its chains'
    multiplicities sum to its value, the cut weight equals the value,
    every chain is a clique avoiding the weight-0 vertices, and the cut
    meets every such clique. The chains are then a w-packing of C of that
    size and the cut a w-cover of that weight, so value <= nu <= tau <=
    value, the middle step by weak duality. Edges are scanned in the
    order of ``edge_masks``, which fixes the witnesses.
    """
    if min(cap[0 : 2 * net.n : 2], default=0) < 0:
        return _overload(w, cap)
    try:
        chains = net._decompose(cap)
    except ConsistencyError as exc:
        return exc.check, exc.left, exc.right
    total = sum(mult for _, mult in chains)
    if total != value:
        return "chain multiplicities sum to the flow value", total, value
    cut_weight = sum(w[v] for v in _bits(cut))
    if value != cut_weight:
        return "max-flow = min-cut", value, cut_weight
    zero = _mask(v for v, x in enumerate(w) if x == 0)
    edges = set(edge_masks)
    for m, _ in chains:
        if m & zero or m not in edges:
            surviving = [_bits(e) for e in edge_masks if not e & zero]
            return "flow chain is a surviving clique", _bits(m), surviving
    for e in edge_masks:
        if not e & (cut | zero):
            return "cut meets every surviving clique", _bits(cut), _bits(e)
    return None


def menger_check(
    net: HasseNetwork, edge_masks: Sequence[int], w: Sequence[int]
) -> tuple[int, int, list[tuple[int, int]], int]:
    """Max flow and min vertex cut of ``net`` at weight w, checked against
    the clique clutter with edge masks ``edge_masks``.

    Returns (cut weight, flow value, chains, cut). Raises
    :class:`ConsistencyError` with the first check of
    :func:`_pair_failure` the pair fails, the same checks
    :func:`menger_walk` makes at every box seed.
    """
    value, cap, cut = net.max_flow(w)
    failure = _pair_failure(net, edge_masks, w, value, cap, cut)
    if failure is not None:
        raise ConsistencyError(*failure)
    return sum(w[v] for v in _bits(cut)), value, net._decompose(cap), cut


def _components(net: HasseNetwork, edge_masks: Sequence[int]) -> list[int]:
    """Vertex masks of the connected components of the Hasse diagram, in
    order of their least vertex, with the vertices of each edge of the
    clutter joined as well, so every edge lies in one component (as every
    maximal chain does when the edges are the Hasse chains)."""
    parts: list[int] = []
    links = [1 << v for v in range(net.n)] + [1 << x | 1 << y for x, y in net.arcs]
    for link in links + [e for e in edge_masks if e]:
        rest = [m for m in parts if not m & link]
        for m in parts:
            if m & link:
                link |= m
        parts = rest + [link]
    return sorted(parts, key=lambda m: m & -m)


def _box_of(
    net: HasseNetwork, edge_masks: Sequence[int], part: int,
    w: list[int], value: int, cap: list[int], cut: int, at_least: list[list[int]],
) -> tuple[dict[int, int], tuple[str, Any, Any] | None]:
    """The boxes of weights that the max flow ``(value, cap, cut)`` of
    ``net`` at w certifies, as {cut: the w of the whole box whose weights
    on the vertices in ``part`` lie in it}, and the first check the flow
    fails at w (None if it certifies w). A box is one AND of masks
    ``at_least[v][t]``, the w with w_v >= t (none at t = wmax + 1).

    When the pair certifies w (:func:`_pair_failure` is None), a minimum
    cut K of its flow certifies every w' with w'_v = w_v on K and
    w'_u in [f_u, wmax] off K, f_u the flow through u, provided K weighs
    the flow value and meets every edge: f stays feasible with the same
    chains, every chain vertex keeps w'_u >= f_u >= 1, and the cut weight
    stays the flow value. Both the pair's cut and the cut nearest the sink
    (:meth:`HasseNetwork._sink_cut`) are tried; the flow's checks hold for
    both, so the second cut checks only its weight and the edges it meets.
    A cut read off a search meets every source-sink path, so only a flow
    that fails at w, or a network whose paths are not the edges, certifies
    no box. A box that misses w (a flow above w_u off its cut) certifies
    nothing: w gets the overload check as its failure. Where no box is
    certified, w covers its fiber alone, the w that agree with it on
    ``part``: the box of the cut ``part``.
    """
    verts = _bits(part)

    def box(k: int) -> int:
        return reduce(operator.and_, (
            at_least[v][w[v]] ^ at_least[v][w[v] + 1] if k >> v & 1 else at_least[v][cap[2 * v + 1]]
            for v in verts
        ))

    failure = _pair_failure(net, edge_masks, w, value, cap, cut)
    if failure is not None:
        return {part: box(part)}, failure
    boxes: dict[int, int] = {}
    for k in (cut, net._sink_cut(cap)):
        weight = sum(w[v] for v in verts if k >> v & 1)
        if k in boxes or weight != value or not all(e & k for e in edge_masks):
            continue
        if any(cap[2 * v + 1] > w[v] for v in verts if not k >> v & 1):
            return {part: box(part)}, _overload(w, cap)
        boxes[k] = box(k)
    return boxes or {part: box(part)}, None


def menger_walk(
    net: HasseNetwork, edge_masks: Sequence[int], wmax: int
) -> tuple[dict[int, int], list[tuple[int, ConsistencyError, int]]]:
    """The checks of :func:`menger_check` at every w of {0..wmax}^n, from
    one max flow per two boxes of weights that its flow and its two
    minimum cuts certify.

    Returns (flows, failures). ``flows`` is {value: the w whose flow
    value it is}, each set one Python int with bit idx(w), the
    lexicographic index of w, set for the w it holds (the layout of
    ``polyhedra._value_sets``). ``failures`` lists in walk order one
    (fiber, failed check, gap) per seed whose pair is not a certificate,
    the gap being the pair's cut weight minus its flow value at the
    seed. A certified box holds the flow value, so the cut weight of a w
    is its flow plus the gaps of the failed fibers that hold it.

    Each component of the Hasse diagram (:func:`_components`) is walked
    on the box of its own vertices, as a network that keeps only its arcs
    (the other vertices get weight 0 and no path), with every set held
    over the whole box: a w of the component stands for its fiber, the w
    of the whole box that agree with it there. The lexicographically
    first w that no box covers yet is the lowest bit outside the reached
    set (it is 0 off the component), and is the next seed. The boxes that
    its max flow certifies, or else its fiber (:func:`_box_of`), give the
    flow value to their w that no earlier box reached: the first box that
    reaches a w decides it, so the value sets are disjoint as built. On a
    correct kernel every box holding a w agrees there, since the max-flow
    value at w is unique. Since every maximal chain lies in one component,
    tau and nu of C^w add over them: the value sets of the components are
    added by ANDing every pair of sets, and the fibers of two components
    may meet, their gaps adding. No w is seeded twice; the deadline is
    checked once per seed.
    """
    n, side = net.n, wmax + 1
    strides = [side ** (n - 1 - v) for v in range(n)]
    full = (1 << side ** n) - 1
    at_least = [[_at_least(t, s, s * side, full) for t in range(side)] + [0] for s in strides]
    flows: dict[int, int] = {0: full}
    failures: list[tuple[int, ConsistencyError, int]] = []
    for part in _components(net, edge_masks):
        sub = HasseNetwork(
            n=n,
            arcs=tuple((x, y) for x, y in net.arcs if part >> x & 1),
            sources=tuple(v for v in net.sources if part >> v & 1),
            sinks=tuple(v for v in net.sinks if part >> v & 1),
        )
        edges = [e for e in edge_masks if e & part]
        values: dict[int, int] = {}
        reached = 0
        while reached != full:
            check_deadline()
            seed = (reached ^ (reached + 1)).bit_length() - 1  # the lowest bit not reached
            w = [seed // strides[v] % side if part >> v & 1 else 0 for v in range(n)]
            value, cap, cut = sub.max_flow(w)
            boxes, failure = _box_of(sub, edges, part, w, value, cap, cut, at_least)
            for cells in boxes.values():
                cells &= ~reached
                values[value] = values.get(value, 0) | cells
                reached |= cells
            if failure is not None:
                gap = sum(w[v] for v in _bits(cut)) - value
                failures.append((boxes[part], ConsistencyError(*failure), gap))
        flows = _add_values(flows, values)
    return flows, failures


def _add_values(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The value sets of the sum of two functions on one box, given by
    their value sets (:func:`menger_walk`), over the nonempty values in
    ascending order."""
    out: dict[int, int] = {}
    for u, x in a.items():
        for v, y in b.items():
            if x & y:
                out[u + v] = out.get(u + v, 0) | x & y
    return dict(sorted(out.items()))


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
    vertices. Indices follow :func:`parallelization`. A failed check of
    :func:`menger_check` raises :class:`ConsistencyError`.
    """
    weights = _check_weights(p.n, w)
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
    return KonigCertificate(alpha, beta, cover, tuple(sorted(matching)))


def chain_order(p: Poset, clique: Sequence[int]) -> list[int]:
    """Vertices of a clique of the comparability graph, sorted into the
    chain they form; raises if some pair is incomparable."""
    verts = list(clique)
    ordered = sorted(verts, key=lambda v: sum(1 for u in verts if p.less(u, v)))
    for a, b in zip(ordered, ordered[1:]):
        if not p.less(a, b):
            raise ValueError(f"vertices {a} and {b} are not comparable in order")
    return ordered
