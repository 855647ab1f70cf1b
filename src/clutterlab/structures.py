"""Finite graphs, posets and clutters, with the operations that move
between them: comparability graphs, clique clutters, the complete
admissible uniform family, and vertex duplication / deletion /
parallelization.

Conventions
-----------
Vertices are 0-based indices carrying a display label (default "x{i}").
Clutter edges are stored as sorted vertex tuples and the edge list is kept
in lexicographic order; this is the canonical form used for equality and
golden files. The k-th duplicate of a vertex labeled L is labeled "L'{k}".

Isolated vertices of a graph count as maximal cliques of size one, so they
become singleton edges of the clique clutter (a deliberate, documented
choice; size-1 edges are ordinary clutter edges everywhere downstream).
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Any, Iterable, Sequence

from .guards import Value, check_deadline

Weights = tuple[int, ...]


def json_int(value: Any) -> int:
    """``value`` if it is an integer of a JSON document, else ValueError.
    The ``from_json`` readers refuse a float, a string or a bool where an
    integer belongs instead of truncating or parsing it; the constructors
    themselves also take numpy integers."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(n))


def json_labels(doc: dict[str, Any]) -> list[str] | None:
    """The ``labels`` of a JSON document, None when it has none: the one
    reader of labels of the ``from_json`` readers, which refuses anything
    but a list of strings."""
    labels = doc.get("labels")
    if labels is not None and not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
        raise ValueError(f"expected a list of string labels, got {labels!r}")
    return labels


def _check_labels(n: int, labels: Sequence[str] | None) -> tuple[str, ...]:
    """The labels as a tuple, :func:`default_labels` when they are None
    (only None is absent: an empty list is n = 0 labels)."""
    labels = default_labels(n) if labels is None else tuple(labels)
    if len(labels) != n:
        raise ValueError(f"expected {n} labels, got {len(labels)}")
    if len(set(labels)) != n:
        raise ValueError("labels must be unique")
    return labels


# ---------------------------------------------------------------------------
# Graph

class Graph(Value):
    """Simple undirected graph: no loops, no parallel edges."""

    n: int
    edges: frozenset[tuple[int, int]]
    labels: tuple[str, ...]

    def __init__(self, n: int, edges: Iterable[Sequence[int]], labels: Sequence[str] | None = None):
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        norm = set()
        for e in edges:
            i, j = int(e[0]), int(e[1])
            if i == j:
                raise ValueError(f"loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge {(i, j)} out of range for n={n}")
            norm.add((min(i, j), max(i, j)))
        self._set(n, frozenset(norm), _check_labels(n, labels))

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Neighbor bitmask per vertex."""
        adj = [0] * self.n
        for i, j in self.edges:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return tuple(adj)

    def sorted_edges(self) -> list[list[int]]:
        return sorted([i, j] for i, j in self.edges)

    def to_json(self) -> dict[str, Any]:
        return {"n": self.n, "edges": self.sorted_edges()}

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "Graph":
        n, labels = json_int(doc["n"]), json_labels(doc)
        return cls(n, [(json_int(i), json_int(j)) for i, j in doc.get("edges", [])], labels)


def graph_duplicate(g: Graph, i: int) -> Graph:
    """Append a twin of vertex i: adjacent to exactly N(i), not to i.

    The new vertex gets the same "L'{k}" label the clutter-level duplicate
    would produce, so clique clutters of duplicated graphs compare equal to
    duplicated clique clutters, labels included.
    """
    if not (0 <= i < g.n):
        raise ValueError(f"vertex {i} out of range")
    new = g.n
    edges = [list(e) for e in g.edges]
    for j in range(g.n):
        if g.adjacency[i] >> j & 1:
            edges.append([j, new])
    labels = list(g.labels) + [_dup_label(g.labels, g.labels[i])]
    return Graph(g.n + 1, edges, labels)


# ---------------------------------------------------------------------------
# Poset

def transitive_closure(n: int, relation: Iterable[Sequence[int]]) -> frozenset[tuple[int, int]]:
    """Transitive closure of a binary relation on {0,...,n-1}."""
    succ = [0] * n
    for a, b in relation:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"pair {(a, b)} out of range for n={n}")
        succ[a] |= 1 << b
    changed = True
    while changed:
        changed = False
        for a in range(n):
            acc = succ[a]
            m = acc
            while m:
                b = (m & -m).bit_length() - 1
                m &= m - 1
                acc |= succ[b]
            if acc != succ[a]:
                succ[a] = acc
                changed = True
    return frozenset(
        (a, b) for a in range(n) for b in range(n) if succ[a] >> b & 1
    )


class Poset(Value):
    """Strict partial order as an explicit relation.

    The constructor validates rather than repairs: it rejects reflexive
    pairs, 2-cycles, and relations that are not transitively closed (use
    :func:`transitive_closure` first if that is what you mean).
    """

    n: int
    relation: frozenset[tuple[int, int]]
    labels: tuple[str, ...]

    def __init__(self, n: int, relation: Iterable[Sequence[int]], labels: Sequence[str] | None = None):
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        rel = set()
        for a, b in relation:
            a, b = int(a), int(b)
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"pair {(a, b)} out of range for n={n}")
            if a == b:
                raise ValueError(f"relation is not irreflexive: {(a, a)}")
            rel.add((a, b))
        for a, b in rel:
            if (b, a) in rel:
                raise ValueError(f"relation is not antisymmetric: {(a, b)} and {(b, a)}")
        succ = [0] * n
        for a, b in rel:
            succ[a] |= 1 << b
        for a, b in rel:
            missing = succ[b] & ~succ[a]  # every d with b < d but not a < d
            if missing:
                d = _bits(missing)[0]
                raise ValueError(
                    f"relation is not transitively closed: {(a, b)},{(b, d)} without {(a, d)}"
                )
        self._set(n, frozenset(rel), _check_labels(n, labels))

    @cached_property
    def successors(self) -> tuple[int, ...]:
        succ = [0] * self.n
        for a, b in self.relation:
            succ[a] |= 1 << b
        return tuple(succ)

    @cached_property
    def predecessors(self) -> tuple[int, ...]:
        pred = [0] * self.n
        for a, b in self.relation:
            pred[b] |= 1 << a
        return tuple(pred)

    def less(self, a: int, b: int) -> bool:
        return (a, b) in self.relation

    def sorted_relation(self) -> list[list[int]]:
        return sorted([a, b] for a, b in self.relation)

    def to_json(self) -> dict[str, Any]:
        return {"n": self.n, "relation": self.sorted_relation()}

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "Poset":
        n, labels = json_int(doc["n"]), json_labels(doc)
        return cls(n, [(json_int(a), json_int(b)) for a, b in doc.get("relation", [])], labels)


# ---------------------------------------------------------------------------
# Clutter

class Clutter(Value):
    """Antichain of vertex subsets.

    Invariants enforced on construction: edges nonempty, in range,
    pairwise distinct and inclusion-incomparable; edge list sorted
    lexicographically by sorted vertex tuple (canonical order).
    """

    n: int
    edges: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]

    def __init__(self, n: int, edges: Iterable[Sequence[int]], labels: Sequence[str] | None = None):
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        norm = []
        for e in edges:
            t = tuple(sorted(int(v) for v in e))
            if not t:
                raise ValueError("empty edges are not allowed")
            if len(set(t)) != len(t):
                raise ValueError(f"repeated vertex in edge {t}")
            if t[0] < 0 or t[-1] >= n:
                raise ValueError(f"edge {t} out of range for n={n}")
            norm.append(t)
        norm.sort()
        for a, b in itertools.combinations(range(len(norm)), 2):
            ea, eb = set(norm[a]), set(norm[b])
            if ea <= eb or eb <= ea:
                raise ValueError(f"edges {norm[a]} and {norm[b]} violate inclusion-minimality")
        self._set(n, tuple(norm), _check_labels(n, labels))

    @cached_property
    def edge_masks(self) -> tuple[int, ...]:
        return tuple(_mask(e) for e in self.edges)

    def to_json(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "labels": list(self.labels),
            "edges": [list(e) for e in self.edges],
        }

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "Clutter":
        n, labels = json_int(doc["n"]), json_labels(doc)
        return cls(n, [[json_int(v) for v in e] for e in doc.get("edges", [])], labels)


def _mask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _bits(mask: int) -> list[int]:
    """The set bits of mask >= 0, ascending: one linear scan of its digits."""
    digits = bin(mask)[:1:-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def _dup_label(labels: Sequence[str], base: str) -> str:
    prefix = base + "'"
    k = 1 + sum(
        1 for lab in labels if lab.startswith(prefix) and lab[len(prefix):].isdigit()
    )
    return f"{base}'{k}"


def canonical_relabel(c: Clutter) -> Clutter:
    """Reorder vertices by label; the label-independent canonical form.

    Two clutters built from the same vertices in different orders (e.g.
    parallelizations applying deletions/duplications in different orders)
    compare equal after this relabeling.
    """
    order = sorted(range(c.n), key=lambda i: c.labels[i])
    pos = {old: new for new, old in enumerate(order)}
    return Clutter(
        c.n,
        [[pos[v] for v in e] for e in c.edges],
        [c.labels[i] for i in order],
    )


# ---------------------------------------------------------------------------
# Constructors

def comparability_graph(p: Poset) -> Graph:
    """Graph on the same vertices joining every comparable pair."""
    edges = [(a, b) for a, b in p.relation]
    return Graph(p.n, edges, p.labels)


def clique_clutter(g: Graph) -> Clutter:
    """Clutter of inclusion-maximal cliques of g.

    Complete (Bron-Kerbosch with pivoting), deterministic output in
    canonical order; isolated vertices contribute singleton edges.
    """
    cliques = maximal_cliques(g)
    return Clutter(g.n, cliques, g.labels)


def maximal_cliques(g: Graph) -> list[tuple[int, ...]]:
    """All maximal cliques as sorted vertex tuples, in canonical order, by
    Bron-Kerbosch with pivoting; the deadline is checked at every node."""
    adj = g.adjacency
    out: list[tuple[int, ...]] = []

    def expand(r: int, p: int, x: int) -> None:
        check_deadline()
        if p == 0 and x == 0:
            out.append(tuple(_bits(r)))
            return
        # pivot: vertex of p|x with most neighbors inside p
        pivot, best = -1, -1
        m = p | x
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            score = bin(p & adj[u]).count("1")
            if score > best:
                best, pivot = score, u
        cand = p & ~adj[pivot]
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            expand(r | low, p & adj[v], x & adj[v])
            p ^= low
            x |= low

    if g.n:
        expand(0, (1 << g.n) - 1, 0)
    return sorted(out)


def complete_admissible_uniform_clutter(d: int, g: int) -> Clutter:
    """d groups of g vertices; one edge per non-decreasing index tuple.

    Vertex x_k^l (1-based k in 1..g, level l in 1..d) sits at index
    (l-1)*g + (k-1) with label "x{k}^{l}". Edge count is C(g+d-1, d).
    """
    if d < 2 or g < 2:
        raise ValueError("complete admissible uniform clutters need d >= 2 and g >= 2")
    labels = [f"x{k}^{l}" for l in range(1, d + 1) for k in range(1, g + 1)]
    edges = []
    for tup in itertools.combinations_with_replacement(range(1, g + 1), d):
        edges.append([(l - 1) * g + (k - 1) for l, k in enumerate(tup, start=1)])
    return Clutter(d * g, edges, labels)


def cauc_poset(d: int, g: int) -> Poset:
    """Poset whose comparability graph's clique clutter is the complete
    admissible uniform clutter: x_k^l < x_p^m iff l < m and k <= p."""
    if d < 2 or g < 2:
        raise ValueError("need d >= 2 and g >= 2")
    labels = [f"x{k}^{l}" for l in range(1, d + 1) for k in range(1, g + 1)]

    def idx(k: int, l: int) -> int:
        return (l - 1) * g + (k - 1)

    relation = [
        (idx(k, l), idx(p, m))
        for l in range(1, d + 1)
        for m in range(l + 1, d + 1)
        for k in range(1, g + 1)
        for p in range(k, g + 1)
    ]
    return Poset(d * g, relation, labels)


# ---------------------------------------------------------------------------
# Parallelization

def duplicate(c: Clutter, i: int) -> Clutter:
    """Append a copy i' of vertex i; every edge through i spawns a twin
    edge using i' instead. A twin never equals or nests with another edge,
    which the :class:`Clutter` constructor would reject."""
    if not (0 <= i < c.n):
        raise ValueError(f"vertex {i} out of range")
    new = c.n
    edges = [list(e) for e in c.edges]
    for e in c.edges:
        if i in e:
            edges.append([new if v == i else v for v in e])
    labels = list(c.labels) + [_dup_label(c.labels, c.labels[i])]
    return Clutter(c.n + 1, edges, labels)


def delete(c: Clutter, i: int) -> Clutter:
    """Remove vertex i and all edges containing it; indices are compacted,
    remaining labels preserved."""
    if not (0 <= i < c.n):
        raise ValueError(f"vertex {i} out of range")
    remap = {old: old - (old > i) for old in range(c.n) if old != i}
    edges = [[remap[v] for v in e] for e in c.edges if i not in e]
    labels = [lab for j, lab in enumerate(c.labels) if j != i]
    return Clutter(c.n - 1, edges, labels)


def parallelization(c: Clutter, w: Sequence[int]) -> Clutter:
    """C^w: drop vertices with w_i = 0, then give vertex i exactly w_i - 1
    duplicates. Equal (after canonical relabeling) to any other order of
    applying the deletions and duplications."""
    w = _check_weights(c.n, w)
    masks, count, origins = parallelize_masks(c.edge_masks, w)
    labels: list[str] = []
    for orig, copy in origins:
        labels.append(c.labels[orig] if copy == 0 else f"{c.labels[orig]}'{copy}")
    return Clutter(count, [_bits(m) for m in masks], labels)


def _check_weights(n: int, w: Sequence[int]) -> Weights:
    w = tuple(int(x) for x in w)
    if len(w) != n:
        raise ValueError(f"weight vector has length {len(w)}, expected {n}")
    if any(x < 0 for x in w):
        raise ValueError("weights must be natural numbers")
    return w


def parallel_origins(w: Sequence[int]) -> list[tuple[int, int]]:
    """Vertex order of C^w as (original index, copy#) pairs: surviving
    originals ascending, then duplicates grouped by original ascending."""
    survivors = [i for i, x in enumerate(w) if x >= 1]
    return [(i, 0) for i in survivors] + [
        (i, copy) for i in survivors for copy in range(1, w[i])
    ]


def parallelize_masks(
    edge_masks: Sequence[int], w: Sequence[int]
) -> tuple[list[int], int, list[tuple[int, int]]]:
    """Bitmask kernel behind :func:`parallelization`.

    Returns (new edge masks in canonical order, new vertex count, origin
    list); the vertex order is that of :func:`parallel_origins`. The
    deadline is checked once per edge of C^w built.
    """
    origins = parallel_origins(w)
    copies: dict[int, list[int]] = {}
    for j, (i, _) in enumerate(origins):
        copies.setdefault(i, []).append(j)

    dead = _mask(i for i, x in enumerate(w) if x == 0)
    out = set()
    for em in edge_masks:
        if em & dead:
            continue
        verts = _bits(em)
        for choice in itertools.product(*(copies[v] for v in verts)):
            check_deadline()
            out.add(_mask(choice))
    masks = sorted(out, key=lambda m: tuple(_bits(m)))
    return masks, len(origins), origins
