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

Each quantity has one formulation: vertices of Q(A) by one integer double
description per matrix (section "Exact vertex enumeration"), k-fold sums
on a box by the shift-OR recursion of :func:`_kfold_bits`, and the
integer packing numbers on a box by :func:`packing_numbers`.

The shift-OR recursion holds each level as one Python int with bit
idx(x) = <x, strides> for cell x, the flat C-order index. idx is linear,
so shifting a level up by v is a left shift by idx(v), which sets no bit
below idx(v), then one AND per nonzero v_i, i > 0, with the periodic mask
of the cells x_i >= v_i, which keeps exactly the cells dominating v. The
masks are built once per call, per axis and threshold: no per-vector mask
is stored. The four bounded verdicts (normality, NTF, integer
decomposition, integer rounding) ask one question of the levels: does
level k equal the cells whose box value reaches k*unit? One kernel,
:func:`_level_gap`, answers it on the ints themselves, and it alone packs
those cells into an int (:func:`_pack_cells`), slab by slab, so no bool
array of the box is made. A level is unpacked into a bool box array
(:func:`_unpack_cells`) only for a caller that needs the array, such as
:func:`packing_numbers`.

Every fractional value on a box is one kernel, :func:`_box_min`: the
least of some linear forms <r_t, x> at every cell x, built from 1-D axes
without a point array. The box shape alone picks the walk
(:func:`_box_split`). A box of at most 2^14 cells takes one broadcast
pass per form, spanning only the axes of its nonzero coefficients; the
boxes of ideals in four variables with exponents <= 3 are of this kind
up to k = 3 (at most 10^4 cells). A larger box is viewed as a 2-D
(hi x lo) array, lo the fewest trailing axes with at least 2^12 cells,
and each form is folded in as a hi column plus a contiguous lo vector,
block by block of about 2^18 cells: besides the result, a form
allocates one block. With r_t the vertices of Q(A) over a common
denominator D (:func:`_vertex_inequalities`), x lies in k*B(Q) iff the
value is >= k*D, and value / D is the packing LP value
max{<y,1> : Ay <= w, y >= 0} at w = x (LP duality). With r_t the minimal
vertex covers of a clutter, the same kernel gives the symbolic powers and
alpha0 of the parallelizations (``ideals``, ``packing``). A cell's value
does not depend on the box, so the checks read it through
:data:`_box_values`, which holds the latest read-only array and answers
any box inside it with a prefix slice, broadcast along the axes where no
form has a nonzero coefficient: the checks of one instance that ask for
the same rows build one array.

:func:`simplex_max` solves one LP and is kept as a test reference;
:func:`ilp_max_packing` solves one integer packing, for the tests and the
single-w ``lp_duality_integer_check``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .guards import MAX_DD_RAYS, MAX_GRID_POINTS, ConsistencyError, check_deadline, check_size
from .structures import json_int
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
        return cls(json_int(doc["n"]), [[json_int(x) for x in col] for col in doc["columns"]])


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
def _vertex_inequalities(a: IncidenceMatrix) -> tuple[np.ndarray, int]:
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
    rows = [[x * (den // r[-1]) for x in r[:-1]] for r in rays]
    return np.array(rows, dtype=np.int64), den


@lru_cache(maxsize=1024)
def q_vertices(a: IncidenceMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """Vertices of Q(A), exact and sorted, cached per matrix: the Fraction
    view rows[t] / D of :func:`_vertex_inequalities`."""
    rows, den = _vertex_inequalities(a)
    return tuple(sorted(tuple(Fraction(x, den) for x in row) for row in rows.tolist()))


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
    return all(sum(c * x for c, x in zip(row, zf)) >= k * den for row in rows.tolist())


# ---------------------------------------------------------------------------
# Lattice points of k*B(Q)

def box_caps(a: IncidenceMatrix, k: int) -> Vector:
    return tuple(k * max(col[i] for col in a.columns) for i in range(a.n))


def _check_box(caps: Vector, what: str = "lattice box size") -> None:
    """Guard the cell count of the box prod [0, caps_i] before anything is
    built on it."""
    check_size(math.prod(c + 1 for c in caps), MAX_GRID_POINTS, what)


# (largest value, dtype) of the signed integer dtypes narrower than int64
_INT_MAXES = tuple((int(np.iinfo(t).max), t) for t in (np.int8, np.int16, np.int32))


def _narrowest_int(bound: int) -> type:
    """The narrowest signed integer dtype holding every value in
    [-bound, bound]. Signed only: a kernel that mixes signed and unsigned
    arrays pays for one more ufunc loop per dtype pair."""
    return next((t for top, t in _INT_MAXES if bound <= top), np.int64)


def _box_split(shape: tuple[int, ...]) -> tuple[int, int]:
    """How :func:`_box_min` walks a box of this shape: (split, block).

    A box of at most 2^14 cells is not split (split 0): each form is
    folded in by one broadcast pass, as cheap there as any loop. A larger
    box is viewed in C order as a 2-D (hi x lo) array: lo spans the fewest
    trailing axes shape[split:] with at least 2^12 cells, hi the axes
    before them, and the fold runs over blocks of ``block`` hi rows, about
    2^18 cells, so one block of a box of small caps stays in cache."""
    if math.prod(shape) <= 1 << 14:
        return 0, 1
    split, lo = len(shape), 1
    while lo < 1 << 12:
        split -= 1
        lo *= shape[split]
    return split, max(1, (1 << 18) // lo)


def _box_min(caps: Vector, rows: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    """min_t <rows[t], x> for every cell x of the box prod [0, caps_i], as
    an n-D array in C order, which is lexicographic order; rows is
    nonempty. The dtype is the narrowest signed one (:func:`_narrowest_int`)
    holding, for every row, both sum_i caps_i * |rows[t][i]| and every
    |rows[t][i]|: the first bounds every partial sum of a form and so
    every value, the second lets each coefficient be cast to the dtype,
    also on an axis of cap 0. Every step then computes in that dtype. The
    bound is summed in Python ints, so it cannot overflow.

    No point array is built: each linear form is an outer sum of 1-D
    ``arange * coef`` axes over only the axes where its coefficient is
    nonzero, and a zero row is the scalar 0. The walk follows
    :func:`_box_split`. On an unsplit box a form spans just the sub-box of
    its axes and is folded into the running minimum by one broadcast pass.
    On a split box the result is viewed as (hi x lo): per row, the form's
    sum over the hi axes becomes a column and its sum over the lo axes one
    contiguous vector, and ``np.add`` of the two into a one-block
    temporary, then ``np.minimum`` into the result, run block by block.
    Every ufunc call then has a contiguous inner loop of at least 2^12
    cells; a broadcast form, whose stride-0 axes numpy cannot coalesce,
    runs one inner loop per innermost axis instead, 4 cells at caps 3.
    Besides the result, a row allocates at most one block, its column and
    its vector; the first row and a form over one side write into the
    result directly. The result owns its data and is writable and
    C-contiguous; the deadline is checked once per row."""
    n = len(caps)
    shape = tuple(c + 1 for c in caps)
    rows = np.asarray(rows, dtype=np.int64).tolist()
    dtype = _narrowest_int(max(
        max(0, sum(c * abs(x) for c, x in zip(caps, row)), *map(abs, row)) for row in rows
    ))
    split, block = _box_split(shape)
    # each axis broadcasts over its own side: axes[:split] over the hi
    # axes, axes[split:] over the lo axes
    axes = [
        np.arange(c + 1, dtype=dtype).reshape((-1,) + (1,) * ((split if i < split else n) - 1 - i))
        if any(col) else None
        for i, (c, col) in enumerate(zip(caps, zip(*rows)))
    ]
    hi_axes, lo_axes = axes[:split], axes[split:]
    low = np.empty(shape, dtype=dtype)
    view = low.reshape(-1, math.prod(shape[split:])) if split else low
    scratch = None
    for t, row in enumerate(rows):
        check_deadline()
        if split:
            hi = _outer_sum(hi_axes, row, shape[:split])
            hi = None if hi is None else hi[:, None]
            lo = _outer_sum(lo_axes, row[split:], shape[split:])
        else:
            hi, lo = None, _outer_sum(axes, row, None)
        if hi is None or lo is None:
            # a form over one side, or a zero row: folded in directly
            form = 0 if hi is None and lo is None else lo if hi is None else hi
            if t == 0:
                view[...] = form
            else:
                np.minimum(view, form, out=view)
            continue
        if t and scratch is None:
            scratch = np.empty((min(block, len(view)), len(lo)), dtype=dtype)
        for b in range(0, len(view), block):
            part = view[b:b + block]
            if t == 0:
                np.add(hi[b:b + block], lo, out=part)
            else:
                tmp = scratch[:len(part)]
                np.add(hi[b:b + block], lo, out=tmp)
                np.minimum(part, tmp, out=part)
    return low


def _outer_sum(axes: list, coefs: Sequence[int], shape: tuple[int, ...] | None) -> np.ndarray | None:
    """sum_i axes[i] * coefs[i] over the nonzero coefficients, None if
    there is none: broadcast, spanning only the axes it uses, or, given
    the ``shape`` of all the axes, copied out as one C-contiguous flat
    vector over them."""
    terms = [ax * coef for ax, coef in zip(axes, coefs) if coef]
    if not terms:
        return None
    form = sum(terms[1:], terms[0])
    return form if shape is None else np.broadcast_to(form, shape).reshape(-1)


class _BoxValues:
    """Read-only :func:`_box_min` arrays over the latest box built, shared
    by every check that asks for the same rows.

    A cell's value does not depend on the box holding it, so a box inside
    the held box of the same rows is answered by a prefix slice of it
    (:func:`_box_slice`). Along an axis where every row's coefficient is 0
    the values are constant, so a box larger than the held one only on
    such axes is answered by a read-only broadcast view and builds
    nothing. Any other request drops the held array and builds its own
    box, so at most one array is held and it never stays alive while the
    next one is built. ``rows`` is an int64 array keyed by its shape and
    bytes: equal row sets share the array whatever object holds them, and
    the key costs no per-entry conversion. The caller guards the box
    before asking.
    """

    def __init__(self):
        self.cache_clear()

    def __call__(self, caps: Vector, rows: np.ndarray) -> np.ndarray:
        key = rows.shape, rows.tobytes()
        if key == self._key:
            if all(c < s for c, s in zip(caps, self._held.shape)):
                return self._held[_box_slice(caps)]
            span = tuple(c if used else 0 for c, used in zip(caps, rows.any(axis=0)))
            if all(c < s for c, s in zip(span, self._held.shape)):
                return np.broadcast_to(self._held[_box_slice(span)], tuple(c + 1 for c in caps))
        self.cache_clear()
        held = _box_min(caps, rows)
        held.setflags(write=False)
        self._key, self._held = key, held
        return held[_box_slice(caps)]

    def cache_clear(self) -> None:
        self._key: tuple[tuple[int, ...], bytes] | None = None
        self._held: np.ndarray | None = None


_box_values = _BoxValues()


def _box_slice(caps: Vector) -> tuple[slice, ...]:
    """Index of the sub-box prod [0, caps_i] in an array over a larger box
    with the same origin."""
    return tuple(slice(0, c + 1) for c in caps)


def _minimal_cells(upset: np.ndarray) -> list[Vector]:
    """Componentwise-minimal True cells, in lex order, of a boolean box
    array that is upward closed inside its box. A True cell x is minimal
    iff no x - e_i is True: a True y < x lies below some x - e_i, which is
    then True by upward closure."""
    minimal = upset.copy()
    for i in range(upset.ndim):
        lead = (slice(None),) * i
        minimal[lead + (slice(1, None),)] &= ~upset[lead + (slice(None, -1),)]
    return [tuple(int(x) for x in p) for p in np.argwhere(minimal)]


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


def minimal_lattice_points(a: IncidenceMatrix, k: int) -> list[Vector]:
    """Componentwise-minimal lattice points of k*B(Q), sorted. They lie in
    the box of :func:`box_caps` (see module docstring), where the lattice
    points of k*B(Q) form an upward-closed set."""
    if k < 1:
        raise ValueError("k must be >= 1")
    caps = box_caps(a, k)
    _check_box(caps)
    rows, den = _vertex_inequalities(a)
    return _minimal_cells(_box_values(caps, rows) >= k * den)


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


def _pack_cells(flat: np.ndarray, threshold: int) -> int:
    """The cells of a box whose value reaches ``threshold``, as the bits
    idx(x) of one Python int, in the layout of :func:`_kfold_bits`;
    ``flat`` holds the values in C order. Compared and packed in slabs of
    2^16 cells, a whole number of bytes each, so no bool array of the box
    is made."""
    packed = np.empty((flat.size + 7) // 8, dtype=np.uint8)
    for start in range(0, flat.size, 1 << 16):
        slab = np.packbits(flat[start:start + (1 << 16)] >= threshold, bitorder="little")
        packed[start // 8:start // 8 + slab.size] = slab
    return int.from_bytes(packed, "little")


def _unpack_cells(bits: int, shape: tuple[int, ...]) -> np.ndarray:
    """The bool box array of the given shape whose cell x is True iff bit
    idx(x) of bits is set, in the layout :func:`_pack_cells` packs. The
    array is fresh, writable and C-contiguous."""
    size = math.prod(shape)
    packed = np.frombuffer(bits.to_bytes((size + 7) // 8, "little"), np.uint8)
    return np.unpackbits(packed, count=size, bitorder="little").view(bool).reshape(shape)


def _level_gap(levels: Iterable[int], value: np.ndarray, unit: int) -> tuple[int, Vector] | None:
    """The first k at which level k of the packed ``levels`` differs from
    S_k, the cells of the box of ``value`` whose value reaches k*unit, and
    the lex-first cell of the difference; None if none differs. The scan
    ends after the last level or where both sides are empty, so a lazy
    ``levels`` is drawn no further. k*unit is a Python int, which may lie
    past the dtype of ``value``.

    The four bounded verdicts are this comparison: the closure of I^k
    (vertex rows of Q(A), unit D) against I^k; I^(i) (minimal covers,
    unit 1) against I^i; k*B(Q) against the sums of k points of B(Q); and
    floor(lp / D) >= k against nu >= k. Each level lies inside its S_k, so
    the XOR is S_k minus the level; a level cell in it is a kernel fault
    and raises :class:`ConsistencyError`.

    The lowest set bit of the XOR is its lex-first cell in C order. When
    the boxes grow with k and both sides are held over the last box, it is
    also the lex-first difference in the level's own box. Both sides are
    upward closed, so the lex-first difference x has no difference below
    it (those come first in lex order) and no cell of S_k below it (such a
    cell lies outside the level, else x would lie in it, and so is a
    difference): x is a minimal cell of S_k, and those lie in its own box.

    S_k is packed in slabs (:func:`_pack_cells`) from the flat C-order
    view of ``value``. A C-contiguous value, such as every box an
    instance at n = 12 reads, is viewed in place; a prefix slice or
    broadcast view of a larger held box is copied once, for all levels.
    """
    flat = value.reshape(-1)
    for k, level in enumerate(levels, start=1):
        diff = _pack_cells(flat, k * unit) ^ level
        if diff:
            faulty = diff & level
            low = faulty or diff
            cell = tuple(int(x) for x in np.unravel_index((low & -low).bit_length() - 1, value.shape))
            if faulty:
                raise ConsistencyError(
                    "every cell of k-fold level k has value >= k*unit",
                    {"k": k, "cell": list(cell), "value": int(value[cell])}, k * unit,
                )
            return k, cell
        if not level:
            break
    return None


def packing_numbers(vectors: Sequence[Sequence[int]], caps: Vector) -> np.ndarray:
    """max{<y,1> : sum_j y_j v_j <= x, y integer >= 0} for every x of the
    box prod [0, caps_i], as an n-D array in C (lexicographic) order:
    the number of the nested levels of :func:`_kfold_bits` holding x, up
    to the first empty one, each nonempty level unpacked once. The
    vectors are nonzero, so no x packs more than sum(caps), and the counts
    are held in the narrowest signed dtype holding it
    (:func:`_narrowest_int`)."""
    shape = tuple(c + 1 for c in caps)
    count = np.zeros(shape, dtype=_narrowest_int(sum(caps)))
    for level in _kfold_bits(vectors, caps, sum(caps)):
        if not level:
            break
        count += _unpack_cells(level, shape)
    return count


def integer_decomposition_check(a: IncidenceMatrix, kmax: int) -> Certificate:
    """Does every lattice point of k*B(Q) in the k-box split into k lattice
    points of B(Q), for each k <= kmax?

    The points that split are level k of :func:`_kfold_bits` over the
    minimal lattice points m of B(Q): level 1 is their upward closure,
    which is every lattice point of B(Q), and level k is the OR over m of
    level k-1 shifted by m. Recursing through minimal first summands is
    complete because B(Q) is upward closed: if x = a_1 + ... + a_k and
    m <= a_1 is minimal, then x = m + ((a_1 - m) + a_2) + a_3 + ... is a
    decomposition through m. Membership in k*B(Q) compares the box values
    of the vertex inequalities over the kmax-box (:data:`_box_values`, the
    array the normality verdict already read) with k*D, level by level
    (:func:`_level_gap`). ``checked`` counts the lattice points of k*B(Q)
    in each level's own box, up to the first failing level.
    """
    if kmax < 2:
        raise ValueError("kmax must be >= 2")
    caps = box_caps(a, kmax)
    _check_box(caps)
    rows, den = _vertex_inequalities(a)
    value = _box_values(caps, rows)  # first: the 1-box of the minimal points is a slice of it
    gap = _level_gap(_kfold_bits(minimal_lattice_points(a, 1), caps, kmax), value, den)
    last = kmax if gap is None else gap[0]
    checked = {
        str(k): int(np.count_nonzero(value[_box_slice(box_caps(a, k))] >= k * den))
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

    The whole box is priced at once and rendered as one entry per w. The
    LP value: by LP duality, max{<y,1> : Ay <= w, y >= 0} = min{<w,x> :
    x in Q(A)}, and since w >= 0 and Q(A) is pointed with recession cone
    R^n_+, the minimum is attained at a vertex ell_t of Q(A); the box
    values of the vertex inequalities (:data:`_box_values`) give D times
    it for every w. The integer value is :func:`packing_numbers` of the
    columns over the box. :func:`integer_rounding_holds` decides the same
    verdict without rendering it. The box is guarded before anything is
    built.
    """
    caps = _rounding_box(a, wmax)
    rows, den = _vertex_inequalities(a)
    lp_num = _box_values(caps, rows).ravel().tolist()
    ilp = packing_numbers(a.columns, caps).ravel().tolist()
    weights = itertools.product(range(wmax + 1), repeat=a.n)
    per_w = []
    first_fail = None
    for w, num, nu in zip(weights, lp_num, ilp):
        floor = num // den
        lp = format_rational(Fraction(num, den))
        entry = {"w": list(w), "lp": lp, "floor": floor, "ilp": nu, "holds": nu == floor}
        per_w.append(entry)
        if first_fail is None and nu != floor:
            first_fail = entry
    return Certificate(
        prop="integer-rounding",
        verdict="holds-on-corpus" if first_fail is None else "fails",
        holds=first_fail is None,
        witness=first_fail,
        details={"tested": len(per_w), "per_w": per_w},
    )


def integer_rounding_holds(a: IncidenceMatrix, wmax: int) -> bool:
    """The verdict of :func:`integer_rounding_check`, decided on packed
    levels with nothing rendered: does floor(lp(w) / D) equal the integer
    packing number nu(w) at every w in {0..wmax}^n?

    Both sides are compared level by level (:func:`_level_gap`). nu(w) >= k
    iff w dominates a sum of k columns, i.e. w lies in level k of
    :func:`_kfold_bits`, and floor(lp / D) >= k iff lp >= k*D. The two
    functions agree at every w iff the two sets agree at every k >= 1.
    Both sets shrink as k grows, so the scan stops at the first k where
    they differ or where both are empty; by k = sum(caps) + 1 both are,
    since the columns are nonzero and so neither side exceeds sum(w).
    """
    caps = _rounding_box(a, wmax)
    rows, den = _vertex_inequalities(a)
    lp = _box_values(caps, rows)
    return _level_gap(_kfold_bits(a.columns, caps, sum(caps)), lp, den) is None


def _rounding_box(a: IncidenceMatrix, wmax: int) -> Vector:
    """The caps of the box {0..wmax}^n of the integer rounding checks,
    guarded."""
    if wmax < 0:
        raise ValueError("wmax must be >= 0")
    caps = (wmax,) * a.n
    _check_box(caps, "rounding box size")
    return caps
