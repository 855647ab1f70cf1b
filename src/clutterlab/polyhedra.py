"""Exact rational polyhedra for covering systems.

Everything here is exact: Python integers, ``fractions.Fraction``, and
integer numpy arrays. No floating point.

The two central objects are the covering polyhedron Q(A) = {x >= 0, xA >= 1}
of a nonnegative integer matrix A (columns = clutter edges or monomial
exponent vectors) and its blocking polyhedron B(Q), which equals
R_+^n + conv(columns). Lattice points of k*B(Q) are enumerated over the box
prod_i [0, k*max_j A[i][j]]; every minimal lattice point of k*B(Q) lies in
that box, because for a >= z with z in conv of the scaled columns,
min(a, ceil(z)) is again such a point and is componentwise <= the box cap.

Each quantity has one formulation: vertices of Q(A) by double description,
membership in k*B(Q) by the vertex inequalities of Q(A), and k-fold sums on
a box by the shift-OR recursion of :func:`kfold_sum_grids`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .guards import MAX_DD_RAYS, MAX_GRID_POINTS, check_size
from .verdicts import Certificate

Vector = tuple[int, ...]


class UnboundedLPError(RuntimeError):
    """The linear program has unbounded optimum."""


def format_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Matrices and H-polyhedra

@dataclass(frozen=True)
class IncidenceMatrix:
    """n x q nonnegative integer matrix, stored column-wise.

    For a clutter, column j is the 0/1 characteristic vector of edge j; for
    a monomial ideal, column j is the j-th generator's exponent vector.
    """

    n: int
    columns: tuple[Vector, ...]

    def __init__(self, n: int, columns: Iterable[Sequence[int]]):
        cols = []
        for col in columns:
            v = tuple(int(x) for x in col)
            if len(v) != n:
                raise ValueError(f"column {v} has length {len(v)}, expected {n}")
            if any(x < 0 for x in v):
                raise ValueError(f"column {v} has negative entries")
            if not any(v):
                raise ValueError("zero columns are not allowed")
            cols.append(v)
        if not cols:
            raise ValueError("matrix needs at least one column")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "columns", tuple(cols))

    @property
    def q(self) -> int:
        return len(self.columns)

    @classmethod
    def from_clutter(cls, c) -> "IncidenceMatrix":
        return cls(c.n, [[int(v in e) for v in range(c.n)] for e in c.edges])

    def rows(self) -> list[Vector]:
        return [tuple(col[i] for col in self.columns) for i in range(self.n)]

    def to_json(self) -> dict[str, Any]:
        return {"n": self.n, "q": self.q, "columns": [list(c) for c in self.columns]}

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "IncidenceMatrix":
        return cls(int(doc["n"]), doc["columns"])


@dataclass(frozen=True)
class RationalPolyhedron:
    """H-polyhedron {x in R^n : x >= 0, M x >= b} over exact rationals."""

    n: int
    rows: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]

    def __init__(self, n: int, rows: Iterable[Sequence], rhs: Iterable):
        rws = tuple(tuple(Fraction(x) for x in row) for row in rows)
        b = tuple(Fraction(x) for x in rhs)
        if any(len(r) != n for r in rws):
            raise ValueError("constraint row has wrong dimension")
        if len(b) != len(rws):
            raise ValueError("rhs length does not match row count")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rws)
        object.__setattr__(self, "rhs", b)

    def contains(self, x: Sequence) -> bool:
        xs = [Fraction(v) for v in x]
        if any(v < 0 for v in xs):
            return False
        return all(
            sum(c * v for c, v in zip(row, xs)) >= b for row, b in zip(self.rows, self.rhs)
        )


def covering_polyhedron(a: IncidenceMatrix) -> RationalPolyhedron:
    """Q(A) = {x >= 0 : <col_j, x> >= 1 for every column j}."""
    return RationalPolyhedron(a.n, a.columns, [1] * a.q)


# ---------------------------------------------------------------------------
# Exact vertex enumeration

def _int_constraints(p: RationalPolyhedron) -> list[Vector]:
    """Each constraint row.x >= b as an integer homogeneous cut
    (row, -b) suitable for the lifted cone in dimension n+1."""
    cuts = []
    for row, b in zip(p.rows, p.rhs):
        den = math.lcm(*(x.denominator for x in (*row, b)))
        cuts.append(tuple(int(x * den) for x in row) + (-int(b * den),))
    return cuts


def _reduce_ray(r: Sequence[int]) -> Vector:
    g = math.gcd(*r)
    return tuple(x // (g or 1) for x in r)


def _dd_extreme_rays(dim: int, cuts: list[Vector], max_rays: int = MAX_DD_RAYS) -> list[Vector]:
    """Extreme rays of {y >= 0} cut by {c.y >= 0 : c in cuts}.

    Double description with the combinatorial adjacency test; exact integer
    arithmetic, rays gcd-reduced. Valid for pointed cones, which holds here
    since the cone sits inside the nonnegative orthant.
    """
    rays: list[Vector] = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    inserted: list[Vector] = []

    def zero_mask(r: Vector) -> int:
        z = 0
        for j in range(dim):
            if r[j] == 0:
                z |= 1 << j
        for t, c in enumerate(inserted):
            if sum(a * b for a, b in zip(c, r)) == 0:
                z |= 1 << (dim + t)
        return z

    for cut in cuts:
        vals = [sum(a * b for a, b in zip(cut, r)) for r in rays]
        neg = [i for i, v in enumerate(vals) if v < 0]
        if not neg:
            inserted.append(cut)
            continue
        pos = [i for i, v in enumerate(vals) if v > 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        zmasks = [zero_mask(r) for r in rays]
        fresh: set[Vector] = set()
        for ip in pos:
            for im in neg:
                common = zmasks[ip] & zmasks[im]
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
                fresh.add(_reduce_ray(combo))
        rays = [rays[i] for i in pos] + [rays[i] for i in zero] + sorted(fresh)
        inserted.append(cut)
        check_size(len(rays), max_rays, "double-description ray count")
    return rays


def vertices(p: RationalPolyhedron) -> list[tuple[Fraction, ...]]:
    """All vertices of p, exact, sorted. p is pointed (it lies in x >= 0).

    Exact double description on the lifted cone: the vertices are the
    extreme rays with positive last coordinate, scaled to 1 there.
    """
    rays = _dd_extreme_rays(p.n + 1, _int_constraints(p))
    verts = [tuple(Fraction(x, r[-1]) for x in r[:-1]) for r in rays if r[-1] > 0]
    return sorted(set(verts))


def is_integral(p: RationalPolyhedron) -> bool:
    """True iff every vertex of p has integer coordinates."""
    return all(x.denominator == 1 for v in vertices(p) for x in v)


# ---------------------------------------------------------------------------
# Exact simplex (maximize c.y subject to Ay <= b, y >= 0, with b >= 0)

def simplex_max(
    obj: Sequence, rows: Sequence[Sequence], rhs: Sequence
) -> tuple[Fraction, list[Fraction]]:
    """Primal simplex with Bland's rule over exact rationals.

    Requires b >= 0 so the slack basis is feasible (all callers here pass
    nonnegative right-hand sides). Raises UnboundedLPError if unbounded.
    """
    m, q = len(rows), len(obj)
    b = [Fraction(x) for x in rhs]
    if any(x < 0 for x in b):
        raise ValueError("simplex_max requires nonnegative rhs")
    tab = [
        [Fraction(rows[i][j]) for j in range(q)]
        + [Fraction(int(i == t)) for t in range(m)]
        + [b[i]]
        for i in range(m)
    ]
    cost = [-Fraction(c) for c in obj] + [Fraction(0)] * (m + 1)
    basis = list(range(q, q + m))
    while True:
        enter = next((j for j in range(q + m) if cost[j] < 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise UnboundedLPError("objective unbounded above")
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        if cost[enter]:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, tab[leave])]
        basis[leave] = enter
    y = [Fraction(0)] * q
    for i, v in enumerate(basis):
        if v < q:
            y[v] = tab[i][-1]
    return cost[-1], y


# ---------------------------------------------------------------------------
# Blocking polyhedron membership

@lru_cache(maxsize=1024)
def q_vertices(a: IncidenceMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """Vertices of Q(A), cached per matrix."""
    return tuple(vertices(covering_polyhedron(a)))


@lru_cache(maxsize=1024)
def _vertex_inequalities(a: IncidenceMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Integerized vertex inequalities for B(Q): z in k*B(Q) iff z >= 0 and
    P @ z >= k * dens, where row t of P is d_t * (vertex ell_t of Q(A))."""
    pmat, dens = [], []
    for v in q_vertices(a):
        den = math.lcm(*(x.denominator for x in v)) if v else 1
        pmat.append([int(x * den) for x in v])
        dens.append(den)
    return np.array(pmat, dtype=np.int64), np.array(dens, dtype=np.int64)


def blocking_membership(a: IncidenceMatrix, z: Sequence, k: int = 1) -> bool:
    """Is z in k*B(Q(A))?  Decided by the vertex inequalities
    <z, ell> >= k over the vertices ell of Q(A), which describe B(Q)
    inside the nonnegative orthant (blocking duality)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    zf = [Fraction(x) for x in z]
    if any(x < 0 for x in zf):
        raise ValueError("z must be nonnegative")
    return all(sum(c * x for c, x in zip(v, zf)) >= k for v in q_vertices(a))


# ---------------------------------------------------------------------------
# Lattice points of k*B(Q)

def box_caps(a: IncidenceMatrix, k: int) -> Vector:
    return tuple(k * max(col[i] for col in a.columns) for i in range(a.n))


def _grid(caps: Vector, limit: int = MAX_GRID_POINTS) -> np.ndarray:
    """All integer points of prod [0, caps_i] as an (m, n) int64 array in
    lexicographic order."""
    size = math.prod(c + 1 for c in caps)
    check_size(size, limit, "lattice box size")
    axes = [np.arange(c + 1, dtype=np.int64) for c in caps]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _membership_flags(a: IncidenceMatrix, pts: np.ndarray, k: int) -> np.ndarray:
    pmat, dens = _vertex_inequalities(a)
    if len(pmat) == 0:
        return np.ones(len(pts), dtype=bool)
    return (pts @ pmat.T >= k * dens).all(axis=1)


def _minimal_rows(pts: np.ndarray) -> np.ndarray:
    """Componentwise-minimal rows of pts. Points of equal coordinate sum
    never dominate one another, so scanning degree levels in ascending
    order against the kept set is exact."""
    if len(pts) == 0:
        return pts
    degrees = pts.sum(axis=1)
    kept: list[np.ndarray] = []
    for d in np.unique(degrees):
        level = pts[degrees == d]
        if kept:
            mins = np.concatenate(kept)
            dominated = (level[:, None, :] >= mins[None, :, :]).all(axis=2).any(axis=1)
            level = level[~dominated]
        if len(level):
            kept.append(level)
    return np.concatenate(kept) if kept else pts[:0]


def lattice_points_scaled(a: IncidenceMatrix, k: int) -> list[Vector]:
    """All lattice points of k*B(Q) inside the box prod [0, k*max_j A_ij],
    in lexicographic order. The box is guaranteed to contain every minimal
    lattice point of k*B(Q) (see module docstring)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    pts = _grid(box_caps(a, k))
    flags = _membership_flags(a, pts, k)
    return [tuple(int(x) for x in row) for row in pts[flags]]


@lru_cache(maxsize=4096)
def _minimal_lattice_points_cached(a: IncidenceMatrix, k: int) -> tuple[Vector, ...]:
    pts = _grid(box_caps(a, k))
    flags = _membership_flags(a, pts, k)
    mins = _minimal_rows(pts[flags])
    return tuple(sorted(tuple(int(x) for x in row) for row in mins))


def minimal_lattice_points(a: IncidenceMatrix, k: int) -> list[Vector]:
    """Componentwise-minimal lattice points of k*B(Q), sorted."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return list(_minimal_lattice_points_cached(a, k))


# ---------------------------------------------------------------------------
# k-fold sums and the integer decomposition property

def kfold_sum_grids(
    vectors: Iterable[Sequence[int]], caps: Vector, kmax: int
) -> Iterator[np.ndarray]:
    """Yield, for k = 1..kmax, the boolean grid over prod [0, caps_i] whose
    cell x is True iff x dominates a sum of k of the vectors (repetition
    allowed).

    Shift-OR recursion from the all-True level 0: level k is the OR over
    the vectors v of level k-1 shifted up by v. Vectors that leave the box
    contribute nothing and are skipped.
    """
    shape = tuple(c + 1 for c in caps)
    usable = [v for v in vectors if all(x <= c for x, c in zip(v, caps))]
    grid = np.ones(shape, dtype=bool)
    for _ in range(kmax):
        nxt = np.zeros(shape, dtype=bool)
        for v in usable:
            dst = tuple(slice(x, None) for x in v)
            src = tuple(slice(None, s - x) for s, x in zip(shape, v))
            nxt[dst] |= grid[src]
        grid = nxt
        yield grid


def integer_decomposition_check(a: IncidenceMatrix, kmax: int) -> Certificate:
    """Does every lattice point of k*B(Q) in the k-box split into k lattice
    points of B(Q), for each k <= kmax?

    The points that split are the level-k grid of :func:`kfold_sum_grids`
    over the minimal lattice points m of B(Q): level 1 is their upward
    closure, which is every lattice point of B(Q), and level k is the OR
    over m of level k-1 shifted by m. Recursing through minimal first
    summands is complete because B(Q) is upward closed: if
    x = a_1 + ... + a_k and m <= a_1 is minimal, then
    x = m + ((a_1 - m) + a_2) + a_3 + ... is a decomposition through m.
    Membership in k*B(Q) comes from the vertex inequalities on one grid.
    """
    if kmax < 2:
        raise ValueError("kmax must be >= 2")
    caps = box_caps(a, kmax)
    minlat = minimal_lattice_points(a, 1)
    pts = _grid(caps)
    shape = tuple(c + 1 for c in caps)
    checked: dict[str, int] = {}
    for k, dec in enumerate(kfold_sum_grids(minlat, caps, kmax), start=1):
        memb_k = _membership_flags(a, pts, k).reshape(shape)
        sub = tuple(slice(0, kc + 1) for kc in box_caps(a, k))
        bad = memb_k[sub] & ~dec[sub]
        checked[str(k)] = int(memb_k[sub].sum())
        if bad.any():
            witness_pt = tuple(int(x) for x in np.argwhere(bad)[0])
            return Certificate(
                prop="integer-decomposition",
                verdict="fails",
                holds=False,
                bound=kmax,
                witness={"k": k, "point": list(witness_pt)},
                details={"checked": checked},
            )
    return Certificate(
        prop="integer-decomposition",
        verdict="holds-up-to-bound",
        holds=True,
        bound=kmax,
        details={"checked": checked},
    )


def decompose(a: IncidenceMatrix, point: Sequence[int], k: int) -> list[Vector] | None:
    """An explicit split of point into k lattice points of B(Q), or None.

    Depth-first over minimal lattice points for the first k-1 summands,
    membership test for the remainder; complete by the same upward-closure
    argument as the grid DP. Intended for spot checks and witnesses."""
    pt = tuple(int(x) for x in point)
    minlat = minimal_lattice_points(a, 1)

    def rec(rest: Vector, parts: int) -> list[Vector] | None:
        if parts == 1:
            return [rest] if blocking_membership(a, rest) else None
        for m in minlat:
            if all(x >= y for x, y in zip(rest, m)):
                tail = rec(tuple(x - y for x, y in zip(rest, m)), parts - 1)
                if tail is not None:
                    return [m] + tail
        return None

    return rec(pt, k)


# ---------------------------------------------------------------------------
# Integer rounding

def ilp_max_packing(a: IncidenceMatrix, w: Sequence[int]) -> int:
    """max{ <y,1> : y >= 0 integer, A y <= w } by pruned enumeration.

    Column multiplicities are bounded by min_i floor(w_i / A_ij) over the
    support of each column, which is finite because columns are nonzero."""
    wv = tuple(int(x) for x in w)
    cols = a.columns
    q = len(cols)

    def col_bound(rest: Vector, col: Vector) -> int:
        return min(rest[i] // col[i] for i in range(a.n) if col[i])

    best = 0

    def rec(j: int, rest: Vector, count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if j == q:
            return
        ub = count + sum(col_bound(rest, cols[t]) for t in range(j, q))
        if ub <= best:
            return
        b = col_bound(rest, cols[j])
        for take in range(b, -1, -1):
            nxt = tuple(rest[i] - take * cols[j][i] for i in range(a.n))
            rec(j + 1, nxt, count + take)

    rec(0, wv, 0)
    return best


def integer_rounding_check(a: IncidenceMatrix, wset: Iterable[Sequence[int]]) -> Certificate:
    """Per-w check that max{<y,1> : Ay <= w, y integer} equals the floor of
    the rational LP maximum; aggregate verdict over the supplied finite
    corpus (a semidecision: the property itself quantifies over all w).
    The LP is bounded: the columns are nonzero and nonnegative and w >= 0."""
    rows = a.rows()
    per_w = []
    all_hold = True
    first_fail = None
    for w in wset:
        wv = [int(x) for x in w]
        if any(x < 0 for x in wv):
            raise ValueError("weights must be nonnegative")
        lp, _ = simplex_max([1] * a.q, rows, wv)
        ilp = ilp_max_packing(a, wv)
        holds = ilp == math.floor(lp)
        entry = {"w": wv, "lp": format_rational(lp), "floor": math.floor(lp), "ilp": ilp, "holds": holds}
        per_w.append(entry)
        if not holds:
            all_hold = False
            if first_fail is None:
                first_fail = entry
    return Certificate(
        prop="integer-rounding",
        verdict="holds-on-corpus" if all_hold else "fails",
        holds=all_hold,
        witness=None if all_hold else first_fail,
        details={"tested": len(per_w), "per_w": per_w},
    )
