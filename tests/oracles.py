"""Independent brute-force oracles.

These deliberately recompute results by exhaustive enumeration, without
touching the library's algorithms, so frozen expected values and property
tests do not share a code path with what they check. The exceptions are
:func:`packing_numbers`, the per-cell reading of the library's packed
k-fold levels, and :func:`reference_sweep_numbers`, which lists the
Koenig numbers of a whole w-box from :func:`_cell_values` and
:func:`packing_numbers`; both are checked against brute force in
``test_polyhedra``.
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


def brute_cut_meets_surviving_chains(chains, w, cut) -> bool:
    """Whether the vertex set ``cut`` meets every chain in ``chains`` whose
    vertices all have positive weight in w; pass the maximal chains of a
    poset on n points with strict order ``relation`` as
    ``brute_maximal_cliques(n, relation)``, enumerated once per poset."""
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
    return brute_vertices(columns, [1] * len(columns))


def brute_vertices(rows, b) -> list[tuple[Fraction, ...]]:
    """Vertices of {x >= 0 : <row, x> >= b_row}, sorted: every solution of
    n of the constraints taken as equations that is unique and feasible,
    found by brute subset enumeration and rational elimination."""
    n = len(rows[0])
    constraints = [
        tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)
    ] + [tuple(Fraction(c) for c in row) for row in rows]
    rhs = [Fraction(0)] * n + [Fraction(x) for x in b]
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


def brute_kfold_sums(vectors, caps, k: int) -> set[tuple[int, ...]]:
    """Cells of the box prod [0, caps_i] dominating a sum of k of the
    vectors (repetition allowed), by listing every k-multiset of them."""
    sums = {
        tuple(sum(col) for col in zip(*combo))
        for combo in itertools.combinations_with_replacement([tuple(v) for v in vectors], k)
    }
    return {
        x
        for x in itertools.product(*(range(c + 1) for c in caps))
        if any(all(a >= b for a, b in zip(x, s)) for s in sums)
    }


def brute_packing_numbers(vectors, caps) -> dict[tuple[int, ...], int]:
    """The largest k with x dominating a sum of k of the nonzero vectors,
    for every cell x of the box: :func:`brute_kfold_sums` level by level
    until a level is empty."""
    best = dict.fromkeys(itertools.product(*(range(c + 1) for c in caps)), 0)
    k = 1
    while level := brute_kfold_sums(vectors, caps, k):
        for x in level:
            best[x] = k
        k += 1
    return best


def packing_numbers(vectors, caps) -> list[int]:
    """max{<y,1> : sum_j y_j v_j <= x, y integer >= 0} for every x of the
    box prod [0, caps_i], as a list in C (lexicographic) order: the number
    of the nested levels of ``polyhedra._kfold_bits`` holding x, up to the
    first empty one (``polyhedra._value_sets``). The vectors are nonzero,
    so no x packs more than sum(caps)."""
    from clutterlab import polyhedra

    size = math.prod(c + 1 for c in caps)
    levels = polyhedra._kfold_bits(vectors, caps, sum(caps))
    return polyhedra._cell_list(polyhedra._value_sets(levels, (1 << size) - 1), size)


def _cell_values(caps, rows) -> list[int]:
    """min_t <rows[t], x> for every cell x of the box prod [0, caps_i], as
    a list in C (lexicographic) order; rows is nonempty. Each row's form
    is built as a list by outer sums over the axes, then folded into the
    running minimum: the per-cell reference for the threshold sets of
    ``polyhedra``, whose S_k is the cells of value >= k*unit."""
    values = None
    for row in rows:
        form = [0]
        for c, r in zip(caps, row):
            steps = [r * t for t in range(c + 1)]
            form = [a + b for a in form for b in steps]
        values = form if values is None else list(map(min, values, form))
    return values


def reference_sweep_numbers(c, wmax: int) -> tuple[list[int], list[int]]:
    """alpha0(C^w) and beta1(C^w) for every w in {0..wmax}^n, as two lists
    in lexicographic w order: the per-w reference for the packed Koenig
    sweep. alpha0 is :func:`_cell_values` of the 0/1 rows of
    :func:`brute_minimal_covers`, beta1 :func:`packing_numbers` of the
    edge rows; neither reads the threshold kernel."""
    caps = (wmax,) * c.n
    covers = [tuple(int(v in cov) for v in range(c.n)) for cov in brute_minimal_covers(c.n, c.edges)]
    edges = [tuple(int(v in e) for v in range(c.n)) for e in c.edges]
    return _cell_values(caps, covers), packing_numbers(edges, caps)


def reference_dd_extreme_rays(dim: int, cuts) -> list[tuple[int, ...]]:
    """``polyhedra._dd_extreme_rays`` as it stood before its one-pass-per-cut
    rewrite, kept as the order reference: the output, order included,
    must equal the kernel's. Only the deadline and the ray-count guard
    are left out."""
    rays = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    zmasks = [((1 << dim) - 1) ^ (1 << i) for i in range(dim)]
    for t, cut in enumerate(cuts):
        bit = 1 << (dim + t)
        vals = [sum(a * b for a, b in zip(cut, r)) for r in rays]
        zmasks = [z | bit if v == 0 else z for z, v in zip(zmasks, vals)]
        neg = [i for i, v in enumerate(vals) if v < 0]
        if not neg:
            continue
        pos = [i for i, v in enumerate(vals) if v > 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        fresh = {}
        for ip in pos:
            for im in neg:
                common = zmasks[ip] & zmasks[im]
                if common.bit_count() < dim - 2:
                    continue
                adjacent = True
                for k in range(len(rays)):
                    if k != ip and k != im and (common & zmasks[k]) == common:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                combo = tuple(
                    vals[ip] * rays[im][j] - vals[im] * rays[ip][j] for j in range(dim)
                )
                g = math.gcd(*combo)
                fresh[tuple(x // (g or 1) for x in combo)] = common | bit
        new = sorted(fresh)
        rays = [rays[i] for i in pos + zero] + new
        zmasks = [zmasks[i] for i in pos + zero] + [fresh[r] for r in new]
    return rays
