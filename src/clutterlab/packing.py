"""Covering and packing numbers, the Koenig property, bounded MFMC
certification over parallelizations, and a Menger flow oracle on the Hasse
diagram of a poset.

The w-sweeps never build the parallelization C^w; three standard
identities give its numbers from weights on C:

- alpha0(C^w) = min over minimal covers K of C of sum_{i in K} w_i, and
- beta1(C^w) = max{1.y : Ay <= w, y integer >= 0}
  (Schrijver, Combinatorial Optimization, ch. 79, parallelization), both
  priced for the whole box at once by :func:`sweep_numbers` (the box
  value kernel of ``polyhedra`` and the packing numbers), which
  :func:`mfmc_bounded` scans for the first w where they differ;
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
add over them; see :func:`menger_walk`.

Each Koenig number has one exact search, which returns its
lexicographically least optimal witness: :func:`lex_min_cover` for alpha0
and :func:`lex_min_matching` for beta1; the number is the witness's length.
They serve only Koenig certificates, of one clutter or of the witness C^w
of a failed sweep, and check the ambient deadline
(:func:`~clutterlab.guards.check_deadline`) at every node.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .guards import ConsistencyError, check_deadline, check_size, MAX_COVER_SUBSETS
from .polyhedra import (
    IncidenceMatrix,
    format_rational,
    ilp_max_packing,
    packing_numbers,
    q_vertices,
    _box_values,
    _check_box,
    _narrowest_int,
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


@dataclass(frozen=True)
class KonigCertificate:
    """Optimal cover and matching with their sizes; holds iff they agree.
    The cover is a sorted vertex tuple, the matching a tuple of edges."""

    alpha0: int
    beta1: int
    cover: tuple[int, ...]
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
    lexicographic order. The node guard and the deadline are checked at
    every node of the enumeration."""
    masks = c.edge_masks
    if not masks:
        return [()]
    found: set[int] = set()
    nodes = 0

    def rec(cover: int) -> None:
        nonlocal nodes
        nodes += 1
        check_size(nodes, MAX_COVER_SUBSETS, "cover enumeration nodes")
        check_deadline()
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
    return sorted(
        tuple(_bits(cov)) for cov in found
        if all(any(m & cov == 1 << v for m in masks) for v in _bits(cov))
    )


@lru_cache(maxsize=512)
def _cover_matrix(c: Clutter) -> np.ndarray:
    """0/1 rows of the minimal vertex covers of c, in lexicographic order:
    the order of the vertex rows of an integral Q(A)
    (:func:`~clutterlab.polyhedra._vertex_inequalities`), which are these
    covers, so both row sets key one box value array."""
    return np.array(
        sorted([int(v in cov) for v in range(c.n)] for cov in minimal_vertex_covers(c)),
        dtype=np.int64,
    )


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

def sweep_numbers(c: Clutter, wmax: int) -> tuple[np.ndarray, np.ndarray]:
    """alpha0(C^w) and beta1(C^w) for every w in {0..wmax}^n, as two flat
    arrays indexed by lexicographic w, without building C^w. Each has the
    narrowest signed dtype holding its own values (``polyhedra._box_min``,
    :func:`packing_numbers`), so the two may differ: compare them with
    each other or with Python ints, and do arithmetic in a wider dtype.

    Both numbers come from weights on C (Schrijver, Combinatorial
    Optimization, ch. 79, on parallelization):

    - alpha0(C^w) = min over the minimal covers K of C of sum_{i in K} w_i.
      A minimal cover of C^w holds all copies of a vertex or none, and
      weight-0 vertices may be added to a cover for free.
    - beta1(C^w) = max{1.y : Ay <= w, y integer >= 0}, the w-packing number
      of C: a matching of C^w uses each vertex i at most w_i times.

    alpha0 is read off the shared box values of the minimal-cover rows
    (``polyhedra._box_values``, so ``taus`` may be a read-only view),
    beta1 is :func:`packing_numbers` of the edges. The box size is guarded
    before anything is allocated.
    """
    caps = (wmax,) * c.n
    _check_box(caps, "sweep box size")
    taus = _box_values(caps, _cover_matrix(c))
    nus = packing_numbers([[int(v in e) for v in range(c.n)] for e in c.edges], caps)
    return taus.ravel(), nus.ravel()


def mfmc_bounded(c: Clutter, wmax: int) -> Certificate:
    """Check the Koenig property of C^w for every w in {0..wmax}^n.

    The witness is the lexicographically first failing w, and ``checked``
    counts the w up to it. This is a bounded semidecision of the max-flow
    min-cut property; the verdict carries the bound explicitly.

    C^w is built only to render the witness of a failure. Otherwise its
    numbers come from weights on C by :func:`sweep_numbers`:
    alpha0(C^w) = min over minimal covers K of C of sum_{i in K} w_i, and
    beta1(C^w) = max{1.y : Ay <= w, y integer >= 0} (Schrijver,
    Combinatorial Optimization, ch. 79). The Koenig search on the witness
    C^w must find the same two numbers, or :class:`ConsistencyError` is
    raised. The deadline is checked once the box is priced and at every
    node of that search.
    """
    if wmax < 1:
        raise ValueError("wmax must be >= 1")
    taus, nus = sweep_numbers(c, wmax)
    check_deadline()
    failing = np.flatnonzero(taus != nus)
    if not failing.size:
        return Certificate(
            prop="mfmc",
            verdict="holds-up-to-bound",
            holds=True,
            bound=wmax,
            details={"checked": taus.size},
        )
    first = int(failing[0])
    w = [int(x) for x in np.unravel_index(first, (wmax + 1,) * c.n)]
    konig = konig_certificate(parallelization(c, w))
    numbers = [int(taus[first]), int(nus[first])]
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
        details={"checked": first + 1},
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


@dataclass(frozen=True)
class HasseNetwork:
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
    w: list[int], value: int, cap: list[int], cut: int,
) -> tuple[dict[int, tuple[slice, ...]], tuple[str, Any, Any] | None]:
    """The boxes of weights that the max flow ``(value, cap, cut)`` of
    ``net`` at w certifies, by the cut that certifies each, as slices of
    the box of the vertices in ``part``; and the first check the flow
    fails at w (None if it certifies w).

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
    nothing: w gets the overload check as its failure.
    """
    failure = _pair_failure(net, edge_masks, w, value, cap, cut)
    if failure is not None:
        return {}, failure
    verts = _bits(part)
    boxes: dict[int, tuple[slice, ...]] = {}
    for k in (cut, net._sink_cut(cap)):
        weight = sum(w[v] for v in verts if k >> v & 1)
        if k in boxes or weight != value or not all(e & k for e in edge_masks):
            continue
        box = tuple(
            slice(w[v], w[v] + 1) if k >> v & 1 else slice(cap[2 * v + 1], None)
            for v in verts
        )
        if any(b.start > w[v] for b, v in zip(box, verts)):
            return {}, _overload(w, cap)
        boxes[k] = box
    return boxes, None


def menger_walk(
    net: HasseNetwork, edge_masks: Sequence[int], wmax: int
) -> tuple[np.ndarray, np.ndarray, dict[int, ConsistencyError]]:
    """The checks of :func:`menger_check` at every w of {0..wmax}^n, from
    one max flow per two boxes of weights that its flow and its two
    minimum cuts certify.

    Returns (cut weights, flow values, failures): two flat arrays indexed
    by lexicographic w, in the narrowest signed dtype holding n*wmax
    (``polyhedra._narrowest_int``), which bounds every cut weight and flow
    value and is the dtype of the packing numbers of :func:`sweep_numbers`,
    and the failed check by lexicographic index for every w whose pair is
    not a certificate.

    Each component of the Hasse diagram (:func:`_components`) is walked
    on the box of its own vertices, as a network that keeps only its arcs
    (the other vertices get weight 0 and no path): the lexicographically
    first w that no box covers yet is the next seed, its max flow is
    checked by :func:`_pair_failure`, and the boxes that its flow and its
    cuts nearest the source and the sink certify (:func:`_box_of`) are
    filled with the flow value by slice assignment. On a certified box the
    cut weight is the flow value, so one value array per component (-1
    where no box has reached yet) is all the walk keeps; a seed whose flow
    fails, or that no box certifies, covers itself alone, and a failing
    seed also keeps its cut weight. Since every maximal chain lies in one
    component, tau and nu of C^w add over them: the component arrays are
    added into the full box by broadcasting, and a w fails when one of its
    components fails (the first such component's check is recorded).
    Every seed is decided when it is seeded, so no w is seeded twice; the
    deadline is checked once per seed.
    """
    n, side = net.n, wmax + 1
    full = (side,) * n
    dtype = _narrowest_int(n * wmax)  # signed: the -1 of an unreached w fits
    flows = np.zeros(full, dtype=dtype)
    gaps: list[tuple[np.ndarray, int]] = []  # (indices, cut weight - flow value) per failing seed
    failures: dict[int, ConsistencyError] = {}
    for part in _components(net, edge_masks):
        verts = _bits(part)
        sub = HasseNetwork(
            n=n,
            arcs=tuple((x, y) for x, y in net.arcs if part >> x & 1),
            sources=tuple(v for v in net.sources if part >> v & 1),
            sinks=tuple(v for v in net.sinks if part >> v & 1),
        )
        edges = [e for e in edge_masks if e & part]
        values = np.full((side,) * len(verts), -1, dtype=dtype)
        flat = values.reshape(-1)
        seed = 0
        while True:
            seed += int(np.argmin(flat[seed:]))
            if flat[seed] >= 0:
                break
            check_deadline()
            w, rest = [0] * n, seed
            for v in reversed(verts):
                rest, w[v] = divmod(rest, side)
            value, cap, cut = sub.max_flow(w)
            boxes, failure = _box_of(sub, edges, part, w, value, cap, cut)
            for box in boxes.values():
                values[box] = value
            if not boxes:
                flat[seed] = value
            if failure is not None:
                exc = ConsistencyError(*failure)
                # every w whose restriction to this component is the seed
                free = [1 if part >> v & 1 else side for v in range(n)]
                at = np.indices(free).reshape(n, -1) + np.array(w)[:, None]
                indices = np.ravel_multi_index(at, full)
                for i in indices.tolist():
                    failures.setdefault(i, exc)
                gaps.append((indices, sum(w[v] for v in _bits(cut)) - value))
        flows += values.reshape([side if part >> v & 1 else 1 for v in range(n)])
    flows = flows.ravel()
    cut_weights = flows.copy()
    for indices, gap in gaps:
        cut_weights[indices] += gap
    return cut_weights, flows, failures


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
