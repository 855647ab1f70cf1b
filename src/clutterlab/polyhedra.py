"""Exact rational polyhedra for covering systems.

Everything here is exact: Python integers and ``fractions.Fraction``. No
floating point, and no array library: a set of cells of a box is one
Python int.

The two central objects are the covering polyhedron Q(A) = {x >= 0, xA >= 1}
of a nonnegative integer matrix A (columns = clutter edges or monomial
exponent vectors) and its blocking polyhedron B(Q), which equals
R_+^n + conv(columns). Lattice points of k*B(Q) are enumerated over the box
prod_i [0, k*max_j A[i][j]]; every minimal lattice point of k*B(Q) lies in
that box, because for a >= z with z in conv of the scaled columns,
min(a, ceil(z)) is again such a point and is componentwise <= the box cap.

Each quantity has one formulation: vertices of Q(A) by one integer double
description per matrix (section "Exact vertex enumeration"), k-fold sums
on a box by the shift-OR recursion of :func:`_kfold_bits`, the cells
where some linear forms all reach a threshold by :class:`_ThresholdSets`,
and the integer packing numbers on a box by :func:`_level_sweep`.

A set of cells of the box prod [0, caps_i] is one Python int with bit
idx(x) = <x, strides> for cell x, the flat C-order index. The shift-OR
recursion uses that idx is linear: shifting a level up by v is a left
shift by idx(v), which sets no bit below idx(v), then one AND per nonzero
v_i, i > 0, with the periodic mask of the cells x_i >= v_i
(:func:`_at_least`), which keeps exactly the cells dominating v. The masks
are built once per call, per axis and threshold: no per-vector mask is
stored.

With r_t the vertices of Q(A) over a common denominator D
(:func:`_vertex_inequalities`), x lies in k*B(Q) iff <r_t, x> >= k*D for
every t, and min_t <r_t, x> / D is the packing LP value
max{<y,1> : Ay <= w, y >= 0} at w = x (LP duality). With r_t the minimal
vertex covers of a clutter, the same rows give the symbolic powers and
alpha0 of the parallelizations (``ideals``, ``packing``). So the bounded
verdicts (normality, NTF, integer decomposition, integer rounding) and the
Koenig sweep of ``packing`` ask one question of the levels: does level k
equal S_k, the cells where every row reaches k*unit? One kernel,
:func:`_level_diffs`, answers it on the ints themselves, level by level,
and it alone reads the cached threshold sets (:func:`_threshold_sets`);
normality, NTF and decomposition read its first difference
(:func:`_level_gap`), integer rounding and Koenig all of them
(:func:`_level_sweep`). The threshold sets are built per block of axis 0
from one recursion per row, never per cell, and the checks of one
instance that ask for the same rows on the same box share them. A reader
that lists, counts or tabulates cells (minimal points, the ``checked``
counts, the per-w LP values) reads the same sets, uncached, from
:func:`_threshold_levels`, and compares no level.

:func:`simplex_max` solves one LP and :func:`ilp_max_packing` one integer
packing: the single-w routes that re-derive a rounding witness and price
``lp_duality_integer_check``.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable, Iterable, Iterator, Sequence

from .guards import MAX_DD_RAYS, MAX_GRID_POINTS, ConsistencyError, Value, check_deadline, check_size
from .structures import _bits, json_int
from .verdicts import Certificate

Vector = tuple[int, ...]


class UnboundedLPError(RuntimeError):
    """The linear program has unbounded optimum."""


def format_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Matrices and H-polyhedra

class IncidenceMatrix(Value):
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
        self._set(n, tuple(cols))

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
        return cls(json_int(doc["n"]), [[json_int(x) for x in col] for col in doc["columns"]])


class RationalPolyhedron(Value):
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
        self._set(n, rws, b)

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
#
# A vertex v of a pointed H-polyhedron {x >= 0, Mx >= b} is an extreme ray
# (D*v, D), D > 0, of the lifted cone {(x, t) >= 0 : Mx - bt >= 0}, found
# by double description in integer arithmetic. For Q(A) the cuts are the
# integer columns with a -1 appended, so no rational number is formed on
# the way: the rays are gcd-reduced, D is their last coordinate, and the
# vertex is integral iff D = 1. Q(A) has one memo, its vertex inequalities
# over one common denominator (:func:`_vertex_inequalities`); integrality
# and the Fraction view :func:`q_vertices` are read off it.

def _int_constraints(p: RationalPolyhedron) -> list[Vector]:
    """Each constraint row.x >= b as an integer homogeneous cut
    (row, -b) suitable for the lifted cone in dimension n+1."""
    cuts = []
    for row, b in zip(p.rows, p.rhs):
        den = math.lcm(*(x.denominator for x in (*row, b)))
        cuts.append(tuple(int(x * den) for x in row) + (-int(b * den),))
    return cuts


def _dd_extreme_rays(dim: int, cuts: list[Vector]) -> list[Vector]:
    """Extreme rays of {y >= 0} cut by {c.y >= 0 : c in cuts}.

    Double description (Fukuda–Prodon, "Double description method
    revisited", 1996) with the combinatorial adjacency test; exact
    integer arithmetic, rays gcd-reduced. Valid for pointed cones, which
    holds here since the cone sits inside the nonnegative orthant. The
    deadline is checked once per positive ray of each step, the ray count
    after it.

    Each ray carries its zero set as a bitmask (bit j: y_j = 0, bit dim+t:
    cut t tight). Per cut, one pass reads each ray's value once and sorts
    the rays into plus, zero and minus, a zero ray gaining the cut's bit.
    A new ray, the positive combination of a plus and a minus ray that is
    zero on the cut, is zero where both are, plus the cut. A pair with
    fewer than dim - 2 common zeros is skipped before the scan: the tight
    constraints of a 2-face of a pointed cone in R^dim have rank dim - 2,
    so such a pair is not adjacent. Otherwise the pair is adjacent iff no
    third ray's zero set holds their common one, a scan of the mask list
    of the pass. The rays come back as the plus rays, the zero rays, then
    the new ones sorted, each group in its order.
    """
    rays: list[Vector] = [(0,) * i + (1,) + (0,) * (dim - 1 - i) for i in range(dim)]
    zmasks = [((1 << dim) - 1) ^ (1 << i) for i in range(dim)]
    for t, cut in enumerate(cuts):
        bit = 1 << (dim + t)
        plus, zero, minus, masks = [], [], [], []
        for ray, z in zip(rays, zmasks):
            v = sum(map(operator.mul, cut, ray))
            if v > 0:
                plus.append((ray, z, v))
            elif v < 0:
                minus.append((ray, z, v))
            else:
                z |= bit
                zero.append((ray, z, 0))
            masks.append(z)
        if not minus:
            zmasks = masks
            continue
        fresh: dict[Vector, int] = {}
        for rp, zp, vp in plus:
            check_deadline()
            for rm, zm, vm in minus:
                common = zp & zm
                if common.bit_count() < dim - 2:
                    continue
                holders = 0  # the pair itself, and any third ray
                for z in masks:
                    if common & z == common:
                        holders += 1
                        if holders > 2:
                            break
                else:
                    combo = [vp * x - vm * y for x, y in zip(rm, rp)]
                    g = math.gcd(*combo)
                    fresh[tuple([x // g for x in combo])] = common | bit
        new = sorted(fresh)
        kept = plus + zero
        rays = [r for r, _, _ in kept] + new
        zmasks = [z for _, z, _ in kept] + [fresh[r] for r in new]
        check_size(len(rays), MAX_DD_RAYS, "double-description ray count")
    return rays


def vertices(p: RationalPolyhedron) -> list[tuple[Fraction, ...]]:
    """All vertices of p, exact, sorted. p is pointed (it lies in x >= 0).

    Exact double description on the lifted cone: the vertices are the
    extreme rays with positive last coordinate, scaled to 1 there.
    """
    rays = _dd_extreme_rays(p.n + 1, _int_constraints(p))
    verts = [tuple(Fraction(x, r[-1]) for x in r[:-1]) for r in rays if r[-1] > 0]
    return sorted(set(verts))


@lru_cache(maxsize=1024)
def _vertex_inequalities(a: IncidenceMatrix) -> tuple[tuple[Vector, ...], int]:
    """The vertices ell_t of Q(A) over one common denominator D, the lcm
    of the last coordinates of their rays, as (rows, D) with
    rows[t] = D * ell_t in the order of the rays: one double description
    per matrix, on the cuts <col_j, x> - t >= 0 (the integer form of
    <col_j, x> >= 1). z >= 0 lies in k*B(Q) iff <rows[t], z> >= k*D for
    every t (blocking duality), and the packing LP value at w >= 0 is
    min_t <rows[t], w> / D (LP duality). Q(A) of a matrix with nonzero
    columns always has a vertex, so rows is nonempty."""
    rays = _dd_extreme_rays(a.n + 1, [(*col, -1) for col in a.columns])
    rays = sorted({r for r in rays if r[-1] > 0})
    den = math.lcm(*(r[-1] for r in rays))
    return tuple(tuple(x * (den // r[-1]) for x in r[:-1]) for r in rays), den


@lru_cache(maxsize=1024)
def q_vertices(a: IncidenceMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """Vertices of Q(A), exact and sorted, cached per matrix: the Fraction
    view rows[t] / D of :func:`_vertex_inequalities`."""
    rows, den = _vertex_inequalities(a)
    return tuple(sorted(tuple(Fraction(x, den) for x in row) for row in rows))


def is_integral(a: IncidenceMatrix) -> bool:
    """True iff every vertex of Q(A) has integer coordinates: the rays are
    gcd-reduced, so D is 1 iff every ray's last coordinate is 1."""
    return _vertex_inequalities(a)[1] == 1


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

def blocking_membership(a: IncidenceMatrix, z: Sequence, k: int = 1) -> bool:
    """Is z in k*B(Q(A))?  Decided by the vertex inequalities
    <rows[t], z> >= k*D of :func:`_vertex_inequalities`, which describe
    B(Q) inside the nonnegative orthant (blocking duality). z has length n."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(z) != a.n:
        raise ValueError(f"point has length {len(z)}, expected {a.n}")
    zf = [Fraction(x) for x in z]
    if any(x < 0 for x in zf):
        raise ValueError("z must be nonnegative")
    rows, den = _vertex_inequalities(a)
    return all(sum(c * x for c, x in zip(row, zf)) >= k * den for row in rows)


# ---------------------------------------------------------------------------
# Lattice points of k*B(Q)

def box_caps(a: IncidenceMatrix, k: int) -> Vector:
    return tuple(k * max(col[i] for col in a.columns) for i in range(a.n))


def _check_box(caps: Vector, what: str = "lattice box size") -> None:
    """Guard the cell count of the box prod [0, caps_i] before anything is
    built on it."""
    check_size(math.prod(c + 1 for c in caps), MAX_GRID_POINTS, what)


def _cell(caps: Vector, idx: int) -> Vector:
    """The cell x of the box prod [0, caps_i] at flat C-order index idx."""
    cell = []
    for c in reversed(caps):
        idx, x = divmod(idx, c + 1)
        cell.append(x)
    return tuple(reversed(cell))


class _ThresholdSets:
    """S_k for k = 1, 2, ...: the cells x of the box prod [0, caps_i] with
    <r, x> >= k*unit for every row r, each one Python int in the layout
    of :func:`_kfold_bits` (bit idx(x), the flat C-order index), built
    when first asked for (``sets[k]``) and kept. The rows are
    nonnegative and nonempty.

    In C order the cells of the sub-box of the axes i.. are the lowest
    span_i = prod(caps_j + 1, j >= i) bits, and its cells with x_i = t are
    the block of span_{i+1} bits at t*span_{i+1}. So T_r(i, c), the cells
    of that sub-box whose sum <r, x> over the axes i.. reaches c, is the
    OR over t of T_r(i+1, c - r_i*t) shifted to block t, and no mask is
    needed. Per row, T_r(i, c) for i >= 1 is one top-down recursion over
    the axes, memoised across the levels: the blocks with r_i*t >= c are
    all ones, a block whose rest cannot reach its threshold is empty, so
    only the thresholds reached are built; on an axis where r_i = 0,
    T_r(i, c) repeats T_r(i+1, c) by doubling. The AND over the rows is
    taken per block of axis 0, S_k's block t being the AND of
    T_r(1, k*unit - r_0*t), and the blocks are then joined once: so no row
    builds a set of the whole box. The deadline is checked once per level
    and once per set a row builds on axis 1.
    """

    def __init__(self, caps: Vector, rows: Sequence[Vector], unit: int):
        n = len(caps)
        shape = [c + 1 for c in caps]
        span = [1] * (n + 1)
        for i in reversed(range(n)):
            span[i] = span[i + 1] * shape[i]
        ones = [(1 << s) - 1 for s in span]
        self._unit, self._drawn = unit, []
        # a box of no axes has one cell, of sum 0: every S_k is empty
        self._rows = [_row_sets(row, caps, span, ones) for row in rows] if n else []
        self._blocks, self._width, self._ones = (shape[0], span[1], ones[1]) if n else (0, 0, 0)

    def __getitem__(self, k: int) -> int:
        while len(self._drawn) < k:
            self._drawn.append(self._build((len(self._drawn) + 1) * self._unit))
        return self._drawn[k - 1]

    def _build(self, c: int) -> int:
        # S at threshold c > 0: the rows with r_0 = 0 give every block one
        # set; a row with r_0 > 0 empties the blocks below its band and lets
        # those above it be, so it is ANDed into the blocks of its band only
        check_deadline()
        if not self._rows:
            return 0
        blocks, width = self._blocks, self._width
        shared, low = self._ones, 0
        for r0, rest1, known, term in self._rows:
            if c > rest1 + r0 * (blocks - 1):
                return 0
            if not r0:
                shared &= term(1, c)
            elif c > rest1:
                low = max(low, -(-(c - rest1) // r0))
        parts = [shared] * (blocks - low)
        for r0, rest1, known, term in self._rows:
            if r0:
                for t in range(max(low, -(-(c - rest1) // r0)), min(-(-c // r0), blocks)):
                    got = known.get(c - r0 * t)
                    parts[t - low] &= term(1, c - r0 * t) if got is None else got
        level = 0
        for part in reversed(parts):
            level = level << width | part
        return level << low * width


def _row_sets(
    row: Vector, caps: Vector, span: list[int], ones: list[int]
) -> tuple[int, int, dict[int, int], Callable[[int, int], int]]:
    """(r_0, rest_1, the memo of axis 1, T) for one row r of
    :class:`_ThresholdSets`: rest_i is the largest sum of r over the
    axes i.., and T(i, c) the memoised T_r(i, c) for 0 < c <= rest_i,
    kept by threshold in one dict per axis. A row with r_0 = 0 asks axis
    1 once per level, each time for a new c, so its sets there are not
    kept."""
    n = len(caps)
    rest = [0] * (n + 1)
    for i in reversed(range(n)):
        rest[i] = rest[i + 1] + row[i] * caps[i]
    memo: list[dict[int, int]] = [{} for _ in range(n + 1)]

    def term(i: int, c: int) -> int:
        got = memo[i].get(c)
        if got is None:
            if i == 1:
                check_deadline()
            r, step = row[i], span[i + 1]
            if r:
                top = -(-c // r)  # the least t with r*t >= c
                got = ones[i] ^ ((1 << top * step) - 1) if top <= caps[i] else 0
                low = c - rest[i + 1]  # below r*t = low the rest cannot reach c - r*t
                for t in range(-(-low // r) if low > 0 else 0, min(top, caps[i] + 1)):
                    got |= term(i + 1, c - r * t) << t * step
            else:
                got, width = term(i + 1, c), step
                while width < span[i]:
                    got |= got << width
                    width *= 2
                got &= ones[i]
            if i > 1 or row[0]:  # with r_0 = 0 each level asks axis 1 for its own c once
                memo[i][c] = got
        return got

    return row[0], rest[1], memo[1], term


@lru_cache(maxsize=1)
def _threshold_sets(caps: Vector, rows: tuple[Vector, ...], unit: int) -> _ThresholdSets:
    """The threshold sets of one box, row set and unit, kept for the
    latest key only: the checks of one instance that compare levels
    against the same rows on the same box (NTF and normality of an
    integral Q(A), whose vertex rows are the minimal covers; the MFMC
    sweep of a poset at wmax = imax) build them once."""
    return _ThresholdSets(caps, rows, unit)


def _threshold_levels(caps: Vector, rows: Sequence[Vector], unit: int) -> Iterator[int]:
    """S_1, S_2, ...: the cells of the box prod [0, caps_i] where every row
    reaches k*unit (:class:`_ThresholdSets`), up to and including the
    first empty one. The listing reader of the threshold kernel, for the
    readers that list or count cells; it compares no level, and neither
    caches nor keeps one, so :func:`_threshold_sets` keeps its sets."""
    sets = _ThresholdSets(caps, rows, unit)
    for k in itertools.count(1):
        level = sets._build(k * unit)
        yield level
        if not level:
            return


def _minimal_cells(caps: Vector, cells: int) -> list[Vector]:
    """Componentwise-minimal cells, in lex order, of an upward-closed set
    of cells of the box prod [0, caps_i], packed as one int in the layout
    of :func:`_kfold_bits`. A cell x of the set is minimal iff no x - e_i
    is in it: a y < x in the set lies below some x - e_i, which is then
    in it by upward closure. So drop every bit that the set shifted up by
    e_i, kept where x_i >= 1, reaches."""
    shape = [cap + 1 for cap in caps]
    strides = [math.prod(shape[i + 1:]) for i in range(len(shape))]
    full = (1 << math.prod(shape)) - 1
    above = 0
    for stride, s in zip(strides, shape):
        above |= cells << stride & _at_least(1, stride, stride * s, full)
    return [_cell(caps, idx) for idx in _bits(cells & ~above)]


def _minimal_by_sum(pts: Iterable[Vector]) -> Iterator[list[Vector]]:
    """The componentwise-minimal points of pts, distinct, one list per
    coordinate sum in ascending order: points of equal sum never dominate
    one another, so a point is kept iff it dominates none kept before."""
    kept: list[Vector] = []
    for _, level in itertools.groupby(sorted(pts, key=sum), key=sum):
        new = [p for p in dict.fromkeys(level) if all(any(map(operator.lt, p, m)) for m in kept)]
        kept += new
        yield new


def _minimal_rows(pts: Iterable[Vector]) -> list[Vector]:
    """:func:`_minimal_by_sum` in one list, the deadline checked per sum."""
    kept: list[Vector] = []
    for new in _minimal_by_sum(pts):
        check_deadline()
        kept += new
    return kept


def minimal_lattice_points(a: IncidenceMatrix, k: int) -> list[Vector]:
    """Componentwise-minimal lattice points of k*B(Q), sorted. They lie in
    the box of :func:`box_caps` (see module docstring), where the lattice
    points of k*B(Q) form an upward-closed set."""
    if k < 1:
        raise ValueError("k must be >= 1")
    caps = box_caps(a, k)
    _check_box(caps)
    rows, den = _vertex_inequalities(a)
    return _minimal_cells(caps, next(_threshold_levels(caps, rows, k * den)))


# ---------------------------------------------------------------------------
# k-fold sums and the integer decomposition property

def _kfold_bits(vectors: Iterable[Sequence[int]], caps: Vector, kmax: int) -> Iterator[int]:
    """Yield, for k = 1..kmax, the cells of the box prod [0, caps_i] that
    dominate a sum of k of the vectors (repetition allowed), as one Python
    int whose bit idx(x) is set iff cell x is in the level, idx(x) =
    <x, strides> being the flat C-order index. A level's int is 0 iff the
    level is empty.

    Shift-OR recursion from the all-ones level 0: level k is the OR over
    the vectors v of level k-1 shifted up by v. Vectors that leave the box
    contribute nothing and are skipped. idx is linear, so
    idx(x) - idx(v) = idx(x - v) for every x >= v, and the shift by v is
    ``(level << idx(v)) & G(i, v_i) & ...`` over the i > 0 with v_i > 0,
    where G(i, t) is the bitmask of the cells with x_i >= t. The shift
    sets no bit below idx(v) >= v_0 * strides[0], so every bit it sets
    inside the box has x_0 >= v_0 and axis 0 needs no mask: one AND of the
    OR with the all-ones mask per level drops the bits past the box. Each
    G is built once per call, never one per vector, and all are dropped
    before the last level is yielded. The deadline is checked once per
    shifted vector.
    """
    shape = tuple(c + 1 for c in caps)
    size = math.prod(shape)
    strides = [math.prod(shape[i + 1:]) for i in range(len(shape))]
    shifts = [
        (sum(x * s for x, s in zip(v, strides)), [(i, x) for i, x in enumerate(v) if x and i])
        for v in vectors
        if all(x <= c for x, c in zip(v, caps))
    ]
    full = (1 << size) - 1
    at_least = {
        (i, t): _at_least(t, strides[i], strides[i] * shape[i], full)
        for i, t in {key for _, axes in shifts for key in axes}
    }
    level = full
    for k in range(kmax):
        nxt = 0
        for off, axes in shifts:
            check_deadline()
            shifted = level << off
            for key in axes:
                shifted &= at_least[key]
            nxt |= shifted
        level = nxt & full
        if k == kmax - 1:
            at_least.clear()
        yield level


def _at_least(t: int, stride: int, period: int, full: int) -> int:
    """The cells x_i >= t of a flat box, as the bits of the all-ones mask
    full, on an axis of the given stride whose pattern has the given
    period: one period, doubled until it spans the box, cut to full."""
    mask = (1 << period) - (1 << t * stride)
    while period < full.bit_length():
        mask, period = mask | mask << period, 2 * period
    return mask & full


def _level_diffs(
    levels: Iterable[int], caps: Vector, rows: Sequence[Vector], unit: int
) -> Iterator[tuple[int, int]]:
    """(k, S_k minus level k) for k = 1, 2, ...: level k of the packed
    ``levels`` over the box prod [0, caps_i] against S_k, the cells x of
    that box with <r, x> >= k*unit for every row r
    (:func:`_threshold_sets`), the difference in the same layout. The one
    comparing reader of the threshold kernel. The scan ends after the last
    level or after the first empty one, whose difference holds those of
    every later level, so a lazy ``levels`` is drawn no further than the
    caller reads, and S_k is built only for the levels drawn.

    The four bounded verdicts are this comparison (:func:`_level_gap`):
    the closure of I^k (vertex rows of Q(A), unit D) against I^k; I^(i)
    (minimal covers, unit 1) against I^i; k*B(Q) against the sums of k
    points of B(Q); and floor(lp / D) >= k against nu >= k. So is the
    Koenig property of the parallelizations C^w (minimal covers against
    the w-packing levels), whose failing set is the OR of all the
    differences. Each level lies inside its S_k, so the XOR is S_k minus
    the level; a level cell in it is a kernel fault and raises
    :class:`ConsistencyError` with the lex-first such cell.
    """
    reaching = _threshold_sets(caps, tuple(map(tuple, rows)), unit)
    for k, level in enumerate(levels, start=1):
        diff = reaching[k] ^ level
        faulty = diff & level
        if faulty:
            cell = _cell(caps, (faulty & -faulty).bit_length() - 1)
            value = min(sum(map(operator.mul, row, cell)) for row in rows)
            raise ConsistencyError(
                "every cell of k-fold level k has value >= k*unit",
                {"k": k, "cell": list(cell), "value": value}, k * unit,
            )
        yield k, diff
        if not level:
            return


def _level_gap(
    levels: Iterable[int], caps: Vector, rows: Sequence[Vector], unit: int
) -> tuple[int, Vector] | None:
    """The first k at which level k differs from S_k (:func:`_level_diffs`)
    and the lex-first cell of the difference; None if none differs. The
    levels past the first difference are not drawn.

    The lowest set bit of a difference is its lex-first cell in C order.
    When the boxes grow with k and both sides are held over the last box,
    it is also the lex-first difference in the level's own box. Both sides
    are upward closed, so the lex-first difference x has no difference
    below it (those come first in lex order) and no cell of S_k below it
    (such a cell lies outside the level, else x would lie in it, and so is
    a difference): x is a minimal cell of S_k, and those lie in its own
    box.
    """
    for k, diff in _level_diffs(levels, caps, rows, unit):
        if diff:
            return k, _cell(caps, (diff & -diff).bit_length() - 1)
    return None


def _level_sweep(
    columns: Sequence[Vector], caps: Vector, rows: Sequence[Vector], unit: int
) -> tuple[dict[int, int], int]:
    """(nu_sets, failing) over the box prod [0, caps_i]: the integer
    packing number nu(x) = max{<y,1> : sum_j y_j columns_j <= x, y integer
    >= 0} as value sets (:func:`_value_sets`) of the levels of
    :func:`_kfold_bits`, drawn up to the first empty one, and the OR of
    every difference of :func:`_level_diffs` against the rows at
    ``unit``. Each level lies in its S_k, so x fails iff
    floor(min_t <rows[t], x> / unit) > nu(x), at k = nu(x) + 1; for both
    callers that is at most sum(x) + 1."""
    levels = []
    for level in _kfold_bits(columns, caps, sum(caps)):
        levels.append(level)
        if not level:
            break
    failing = 0
    for _, diff in _level_diffs(levels, caps, rows, unit):
        failing |= diff
    return _value_sets(levels, (1 << math.prod(c + 1 for c in caps)) - 1), failing


def _value_sets(levels: Iterable[int], full: int) -> dict[int, int]:
    """The cells of each value of a function on a box, as {value: cells}
    over its values in ascending order, each set one int in the layout of
    :func:`_kfold_bits`; the function is given by its nested levels,
    level k holding the cells of value >= k, k = 1, 2, ..., and ``full``
    is the set of all cells. The levels are read up to the first empty
    one; the cells of the last level drawn, if it is not empty, take its
    value."""
    sets: dict[int, int] = {}
    above, k = full, 0
    for k, level in enumerate(levels, start=1):
        if above & ~level:
            sets[k - 1] = above & ~level
        above = level
        if not level:
            break
    if above:
        sets[k] = above
    return sets


def _cell_list(sets: dict[int, int], size: int) -> list[int]:
    """The value of every cell of a box of ``size`` cells, as a list in C
    order, from the disjoint cell sets of each value (as
    :func:`_value_sets` gives them); a cell in no set reads 0."""
    values = [0] * size
    for value, cells in sets.items():
        for idx in _bits(cells):
            values[idx] = value
    return values


def integer_decomposition_check(a: IncidenceMatrix, kmax: int) -> Certificate:
    """Does every lattice point of k*B(Q) in the k-box split into k lattice
    points of B(Q), for each k <= kmax?

    The points that split are level k of :func:`_kfold_bits` over the
    minimal lattice points m of B(Q): level 1 is their upward closure,
    which is every lattice point of B(Q), and level k is the OR over m of
    level k-1 shifted by m. Recursing through minimal first summands is
    complete because B(Q) is upward closed: if x = a_1 + ... + a_k and
    m <= a_1 is minimal, then x = m + ((a_1 - m) + a_2) + a_3 + ... is a
    decomposition through m. Membership in k*B(Q) is the threshold set
    of the vertex inequalities at k*D over the kmax-box, compared level by
    level (:func:`_level_gap`). ``checked`` counts the lattice points of
    k*B(Q) in each level's own box, up to the first failing level: the
    bits of S_1 at unit k*D on that box (:func:`_threshold_levels`).
    """
    if kmax < 2:
        raise ValueError("kmax must be >= 2")
    caps = box_caps(a, kmax)
    _check_box(caps)
    rows, den = _vertex_inequalities(a)
    gap = _level_gap(_kfold_bits(minimal_lattice_points(a, 1), caps, kmax), caps, rows, den)
    last = kmax if gap is None else gap[0]
    checked = {
        str(k): next(_threshold_levels(box_caps(a, k), rows, k * den)).bit_count()
        for k in range(1, last + 1)
    }
    return Certificate(
        prop="integer-decomposition",
        verdict="holds-up-to-bound" if gap is None else "fails",
        holds=gap is None,
        bound=kmax,
        witness=None if gap is None else {"k": gap[0], "point": list(gap[1])},
        details={"checked": checked},
    )


# ---------------------------------------------------------------------------
# Integer rounding

def ilp_max_packing(a: IncidenceMatrix, w: Sequence[int]) -> int:
    """max{ <y,1> : y >= 0 integer, A y <= w } by pruned enumeration.

    Column multiplicities are bounded by min_i floor(w_i / A_ij) over the
    support of each column, which is finite because columns are nonzero.
    The deadline is checked at every node."""
    wv = tuple(int(x) for x in w)
    cols = a.columns
    q = len(cols)

    def col_bound(rest: Vector, col: Vector) -> int:
        return min(rest[i] // col[i] for i in range(a.n) if col[i])

    best = 0

    def rec(j: int, rest: Vector, count: int) -> None:
        nonlocal best
        check_deadline()
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


def integer_rounding_check(a: IncidenceMatrix, wmax: int) -> Certificate:
    """Per-w check, over the box w in {0..wmax}^n in lexicographic order,
    that max{<y,1> : Ay <= w, y integer >= 0} equals the floor of the
    rational LP maximum: the integer rounding property of A, which
    Baum–Trotter ("Integer rounding for polymatroid and branching
    optimization problems", SIAM J. Alg. Disc. Meth. 2, 1981) show
    equivalent to the integer decomposition property of B(Q). A
    semidecision, since the property quantifies over all w.

    The verdict is the failing set of :func:`integer_rounding_holds`, the
    witness its lowest bit, the lex-first failing w; then every w is
    rendered: D times the LP value, min_t <rows[t], w> over the vertex
    rows, from their threshold sets at unit 1 (:func:`_threshold_levels`),
    and the integer value from the sweep's value sets. An entry whose
    verdict differs from its failing bit raises :class:`ConsistencyError`,
    as does a witness at which :func:`simplex_max` and
    :func:`ilp_max_packing`, which share no box kernel, find other values.
    """
    caps, rows, den, nu_sets, failing = _rounding_sweep(a, wmax)
    size = math.prod(c + 1 for c in caps)
    lp_num = _cell_list(_value_sets(_threshold_levels(caps, rows, 1), (1 << size) - 1), size)
    weights = itertools.product(range(wmax + 1), repeat=a.n)
    per_w = []
    for idx, (w, num, nu) in enumerate(zip(weights, lp_num, _cell_list(nu_sets, size))):
        floor, bit = num // den, bool(failing >> idx & 1)
        if (nu != floor) != bit:
            raise ConsistencyError(
                "w is in the packed rounding failing set iff nu != floor(lp) at w",
                {"w": list(w), "failing": bit}, [nu, floor],
            )
        lp = format_rational(Fraction(num, den))
        per_w.append({"w": list(w), "lp": lp, "floor": floor, "ilp": nu, "holds": nu == floor})
    witness = None
    if failing:
        witness = per_w[(failing & -failing).bit_length() - 1]
        value, _ = simplex_max([1] * a.q, a.rows(), witness["w"])
        rederived = [format_rational(value), ilp_max_packing(a, witness["w"])]
        if rederived != [witness["lp"], witness["ilp"]]:
            raise ConsistencyError(
                "lp and ilp at the first failing w = simplex and integer search at that w",
                [witness["lp"], witness["ilp"]], rederived,
            )
    return Certificate(
        prop="integer-rounding",
        verdict="fails" if failing else "holds-on-corpus",
        holds=not failing,
        witness=witness,
        details={"tested": size, "per_w": per_w},
    )


def integer_rounding_holds(a: IncidenceMatrix, wmax: int) -> bool:
    """The verdict of :func:`integer_rounding_check` with nothing rendered:
    no w in the failing set of :func:`_level_sweep` of the columns against
    the vertex rows of Q(A) at unit D, where floor(min_t <rows[t], w> / D)
    is the floor of the LP value. When Q(A) is integral (D = 1) its vertex
    rows are the minimal covers; for a clutter this is then the Koenig
    sweep ``packing.sweep_levels`` (Gitler–Valencia–Villarreal 2007)."""
    return not _rounding_sweep(a, wmax)[-1]


def _rounding_sweep(
    a: IncidenceMatrix, wmax: int
) -> tuple[Vector, tuple[Vector, ...], int, dict[int, int], int]:
    """(caps, rows, D, nu_sets, failing) of the rounding box {0..wmax}^n,
    guarded before anything is built: the vertex rows of Q(A) over D
    (:func:`_vertex_inequalities`) and their :func:`_level_sweep`."""
    if wmax < 0:
        raise ValueError("wmax must be >= 0")
    caps = (wmax,) * a.n
    _check_box(caps, "rounding box size")
    rows, den = _vertex_inequalities(a)
    return (caps, rows, den, *_level_sweep(a.columns, caps, rows, den))
