"""Independent brute-force oracles.

These deliberately recompute results by exhaustive enumeration, without
touching the library's algorithms, so frozen expected values and property
tests do not share a code path with what they check.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache


def brute_maximal_cliques(n: int, edges) -> list[tuple[int, ...]]:
    edge_set = {frozenset(e) for e in edges}

    def is_clique(s) -> bool:
        return all(frozenset((a, b)) in edge_set for a, b in itertools.combinations(s, 2))

    cliques = [
        set(s)
        for k in range(1, n + 1)
        for s in itertools.combinations(range(n), k)
        if is_clique(s)
    ]
    maximal = [c for c in cliques if not any(c < d for d in cliques)]
    return sorted(tuple(sorted(c)) for c in maximal)


def brute_cut_meets_surviving_chains(n: int, relation, w, cut) -> bool:
    """Whether the vertex set ``cut`` meets every maximal chain of the poset
    on n points with strict order ``relation`` whose vertices all have
    positive weight in w."""
    chains = brute_maximal_cliques(n, relation)
    return all(set(c) & set(cut) for c in chains if all(w[v] for v in c))


def brute_minimal_covers(n: int, edges) -> list[tuple[int, ...]]:
    esets = [set(e) for e in edges]
    if not esets:
        return [()]
    covers = [
        set(s)
        for k in range(n + 1)
        for s in itertools.combinations(range(n), k)
        if all(e & set(s) for e in esets)
    ]
    minimal = [c for c in covers if not any(d < c for d in covers)]
    return sorted(set(tuple(sorted(c)) for c in minimal))


def brute_alpha0(n: int, edges) -> int:
    esets = [set(e) for e in edges]
    if not esets:
        return 0
    for k in range(n + 1):
        for s in itertools.combinations(range(n), k):
            if all(e & set(s) for e in esets):
                return k
    raise AssertionError("no cover found")


def brute_beta1(edges) -> int:
    esets = [set(e) for e in edges]
    best = 0
    for mask in range(1 << len(esets)):
        chosen = [esets[i] for i in range(len(esets)) if mask >> i & 1]
        if all(not (a & b) for a, b in itertools.combinations(chosen, 2)):
            best = max(best, len(chosen))
    return best


def brute_lex_min_cover(n: int, edges) -> tuple[int, ...]:
    """Smallest cover, and among those the lexicographically least: the
    first cover met over all vertex subsets by size, then in lex order."""
    esets = [set(e) for e in edges]
    for k in range(n + 1):
        for s in itertools.combinations(range(n), k):
            if all(e & set(s) for e in esets):
                return s
    raise AssertionError("no cover found")


def brute_lex_min_matching(edges) -> tuple[int, ...]:
    """Edge indices of the largest pairwise-disjoint edge set, and among
    those the lexicographically least, over all index subsets by size.
    Sizes above (vertices met by an edge) // (smallest edge size) hold no
    disjoint set and are skipped."""
    esets = [set(e) for e in edges]
    if not esets:
        return ()
    top = min(len(esets), len(set().union(*esets)) // min(map(len, esets)))
    for k in range(top, -1, -1):
        for s in itertools.combinations(range(len(esets)), k):
            if all(not (esets[i] & esets[j]) for i, j in itertools.combinations(s, 2)):
                return s
    raise AssertionError("the empty set is a matching")


def minimalize(vecs) -> list[tuple[int, ...]]:
    vs = set(tuple(v) for v in vecs)
    return sorted(
        v for v in vs if not any(w != v and all(x <= y for x, y in zip(w, v)) for w in vs)
    )


def brute_power_generators(generators, i: int) -> list[tuple[int, ...]]:
    sums = [
        tuple(sum(col) for col in zip(*combo))
        for combo in itertools.combinations_with_replacement(generators, i)
    ]
    return minimalize(sums)


def brute_symbolic_power(n: int, covers, i: int) -> list[tuple[int, ...]]:
    """Intersection of the i-th powers of the cover primes via pairwise
    lcm expansion (exponential; fine at oracle scale)."""
    prime_powers = []
    for cover in covers:
        gens = []
        for combo in itertools.combinations_with_replacement(sorted(cover), i):
            v = [0] * n
            for x in combo:
                v[x] += 1
            gens.append(tuple(v))
        prime_powers.append(gens)
    current = prime_powers[0]
    for nxt in prime_powers[1:]:
        current = minimalize(
            tuple(max(a, b) for a, b in zip(u, v)) for u in current for v in nxt
        )
    return minimalize(current)


def brute_lattice_points_of_scaled_blocker(columns, k: int, caps) -> list[tuple[int, ...]]:
    """Integer points a of k*B(Q) in the box: <v, a> >= k for every vertex
    v of Q, from brute vertex enumeration over constraint subsets (a
    rational convex combination cannot be searched for exhaustively)."""
    rows = _integer_vertex_rows(tuple(tuple(col) for col in columns))
    return [
        a
        for a in itertools.product(*(range(c + 1) for c in caps))
        if all(sum(x * y for x, y in zip(row, a)) >= k * den for row, den in rows)
    ]


@lru_cache(maxsize=None)
def _integer_vertex_rows(columns) -> list[tuple[tuple[int, ...], int]]:
    """Each vertex of Q as (integer row, common denominator)."""
    rows = []
    for v in brute_q_vertices(columns):
        den = math.lcm(*(x.denominator for x in v))
        rows.append((tuple(int(x * den) for x in v), den))
    return rows


def brute_q_vertices(columns) -> list[tuple[Fraction, ...]]:
    """Vertices of {x >= 0 : <col, x> >= 1} by brute subset enumeration
    and rational elimination (independent of the library's solvers)."""
    n = len(columns[0])
    constraints = [
        tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)
    ] + [tuple(Fraction(c) for c in col) for col in columns]
    rhs = [Fraction(0)] * n + [Fraction(1)] * len(columns)
    verts = set()
    for subset in itertools.combinations(range(len(constraints)), n):
        sol = _solve(
            [list(constraints[i]) for i in subset], [rhs[i] for i in subset]
        )
        if sol is None:
            continue
        if any(x < 0 for x in sol):
            continue
        if all(
            sum(c * x for c, x in zip(row, sol)) >= b
            for row, b in zip(constraints, rhs)
        ):
            verts.add(tuple(sol))
    return sorted(verts)


def _solve(mat, rhs):
    n = len(mat)
    a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        d = a[col][col]
        a[col] = [x / d for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def brute_symbolic_power_membership(covers, a, i: int) -> bool:
    """x^a in I^(i): a sums to at least i over every minimal cover."""
    return all(sum(a[v] for v in cover) >= i for cover in covers)


def brute_decompose(columns, point, k: int):
    """A split of point into k lattice points of B(Q), or None: exhaustive
    search over the lattice points of B(Q) below point."""
    parts = brute_lattice_points_of_scaled_blocker(columns, 1, point)
    members = set(parts)

    def rec(rest, count):
        if count == 1:
            return [rest] if rest in members else None
        for part in parts:
            if all(x <= y for x, y in zip(part, rest)):
                tail = rec(tuple(y - x for x, y in zip(part, rest)), count - 1)
                if tail is not None:
                    return [part] + tail
        return None

    return rec(tuple(point), k)


def brute_idp_holds(columns, kmax: int, caps) -> bool:
    """Every lattice point of k*B(Q) in the box splits into k lattice
    points of B(Q), for each k <= kmax."""
    return all(
        brute_decompose(columns, a, k) is not None
        for k in range(1, kmax + 1)
        for a in brute_lattice_points_of_scaled_blocker(columns, k, caps)
    )
