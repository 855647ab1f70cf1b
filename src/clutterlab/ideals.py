"""Monomial ideals as lattice data: powers, symbolic powers via minimal
vertex covers, integral closure via blocking polyhedra, and the bounded
normality / normal torsion-freeness verdicts.

A monomial x^a is identified with its exponent vector a. Membership tests
reduce to componentwise domination; powers to sums of generators; symbolic
powers to per-cover degree conditions. Everything is bounded and exact;
verdicts always embed the bound that was checked.

Both bounded verdicts ask, level by level, whether a larger upward-closed
set (the integral closure of I^k, or I^(i)) lies in the power I^k, over a
box holding all its minimal generators. The boxes grow with the level, so
each verdict builds two arrays over its last box and reads every level
off a prefix slice of them: one value of the box kernel of ``polyhedra``
(the least vertex inequality of Q(A), compared with k*D, or the least
minimal-cover sum, compared with i), and one chain of power levels from a
single :func:`~clutterlab.polyhedra.kfold_sum_grids` pass. The lex-first
cell in the larger set but not in the power is then its first minimal
generator missing from the power.

The power levels are cached per (ideal, boxes), each level copied to its
own box and read-only, so the two verdicts share them: on an edge ideal
with no isolated vertex the normality boxes are the NTF boxes [0, k]^n,
and a clutter instance builds its chain once.

The values are read through ``polyhedra._box_values``, which holds the
latest read-only array with the rows it was built for and answers every
box inside it by a prefix slice. The rows are the key, not the caller, so
these reads share one array:

- a clutter instance: NTF (minimal covers on [0, imax]^n), normality
  (the vertex rows of Q(A), which are the minimal covers, in the same
  order, when Q(A) is integral) and the MFMC sweep of ``packing`` (minimal
  covers on [0, wmax]^n);
- an ideal instance: normality, the explanation of a ``not-normal``
  verdict (minimal lattice points of B(Q) and the integer decomposition
  check) and the integer rounding grids of ``polyhedra``, all on the
  vertex rows of Q(A).

The size guard runs on every box before anything is built; a level past
the guard raises only when no earlier level already decided the verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterable, Sequence

import numpy as np

from .guards import ResourceGuardError, check_deadline
from .packing import _cover_matrix
from .polyhedra import (
    IncidenceMatrix,
    box_caps,
    integer_decomposition_check,
    kfold_sum_grids,
    minimal_lattice_points,
    _box_slice,
    _box_values,
    _check_box,
    _first_cell,
    _minimal_cells,
    _minimal_rows,
    _vertex_inequalities,
)
from .structures import Clutter
from .verdicts import NormalityVerdict

ExponentVector = tuple[int, ...]


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal given by its unique minimal generating set.

    The constructor canonicalizes: dominated generators are dropped,
    duplicates removed, and the survivors sorted lexicographically. Zero
    exponent vectors (the unit ideal) are rejected.
    """

    n: int
    generators: tuple[ExponentVector, ...]

    def __init__(self, n: int, generators: Iterable[Sequence[int]]):
        gens = []
        for g in generators:
            v = tuple(int(x) for x in g)
            if len(v) != n:
                raise ValueError(f"generator {v} has length {len(v)}, expected {n}")
            if any(x < 0 for x in v):
                raise ValueError(f"generator {v} has negative exponents")
            if not any(v):
                raise ValueError("the unit ideal (zero exponent vector) is not supported")
            gens.append(v)
        if not gens:
            raise ValueError("ideal needs at least one generator")
        minimal = [
            g for g in gens
            if not any(h != g and dominates(g, h) for h in gens)
        ]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "generators", tuple(sorted(set(minimal))))

    @property
    def q(self) -> int:
        return len(self.generators)

    def matrix(self) -> IncidenceMatrix:
        return IncidenceMatrix(self.n, self.generators)

    def to_json(self) -> dict[str, Any]:
        return {"n": self.n, "generators": [list(g) for g in self.generators]}

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "MonomialIdeal":
        return cls(int(doc["n"]), doc["generators"])


def dominates(a: Sequence[int], b: Sequence[int]) -> bool:
    """a >= b componentwise."""
    return all(x >= y for x, y in zip(a, b))


def edge_ideal(c: Clutter) -> MonomialIdeal:
    """Squarefree ideal generated by the edge monomials of c."""
    if not c.edges:
        raise ValueError("clutter must have at least one edge")
    return MonomialIdeal(c.n, [[int(v in e) for v in range(c.n)] for e in c.edges])


@lru_cache(maxsize=512)
def power(ideal: MonomialIdeal, i: int) -> MonomialIdeal:
    """Minimal generators of the i-th ordinary power, from every sum of i
    generators; the deadline is checked once per sum."""
    if i < 1:
        raise ValueError("power exponent must be >= 1")
    if i == 1:
        return ideal
    sums = set()
    for combo in itertools.combinations_with_replacement(ideal.generators, i):
        check_deadline()
        sums.add(tuple(sum(col) for col in zip(*combo)))
    arr = np.array(sorted(sums), dtype=np.int64)
    return MonomialIdeal(ideal.n, [tuple(int(x) for x in row) for row in _minimal_rows(arr)])


def membership(ideal: MonomialIdeal, a: Sequence[int]) -> bool:
    """x^a in I iff a dominates some generator."""
    av = tuple(int(x) for x in a)
    return any(dominates(av, g) for g in ideal.generators)


def symbolic_power(c: Clutter, i: int) -> MonomialIdeal:
    """Minimal generators of the i-th symbolic power.

    These are the minimal lattice points of {a >= 0 : sum over each minimal
    cover >= i}. Coordinates can be capped at i: the constraints have 0/1
    coefficients, so clamping a coordinate to i keeps every cover sum at or
    above i, and minimal points survive the clamp."""
    if i < 1:
        raise ValueError("symbolic power exponent must be >= 1")
    if not c.edges:
        raise ValueError("clutter must have at least one edge")
    caps = (i,) * c.n
    _check_box(caps)
    return MonomialIdeal(c.n, _minimal_cells(_box_values(caps, _cover_matrix(c)) >= i))


# ---------------------------------------------------------------------------
# Power levels: one k-fold-sum chain per ideal

@lru_cache(maxsize=2)
def _power_grids(ideal: MonomialIdeal, boxes: tuple[ExponentVector, ...]) -> tuple[np.ndarray, ...]:
    """For k = 1..len(boxes), the boolean grid over prod [0, boxes[k-1]]
    whose cell a is True iff x^a in I^k, i.e. a dominates a sum of k
    generators. The boxes grow with k.

    One :func:`kfold_sum_grids` pass over the last box gives every level:
    whether a cell dominates a sum of k generators does not depend on the
    box holding it, since every summand lies below the cell, so level k is
    the prefix slice of its level to boxes[k-1]. Each level is copied to
    its own box, so the cache holds no more than the levels themselves.

    Cached and read-only, so :func:`is_normal_up_to` reads the chain
    :func:`is_ntf_up_to` built when their boxes agree. The caller guards
    the boxes (:func:`_guarded_boxes`) before anything is built."""
    levels = kfold_sum_grids(ideal.generators, boxes[-1], len(boxes))
    grids = tuple(level[_box_slice(caps)].copy() for caps, level in zip(boxes, levels))
    for grid in grids:
        grid.setflags(write=False)
    return grids


def _guarded_boxes(
    boxes: Sequence[ExponentVector], what: str
) -> tuple[tuple[ExponentVector, ...], ResourceGuardError | None]:
    """The leading boxes within the cell guard, and the error the first box
    over it raises (None when all pass). Boxes grow with the level, so the
    levels below the first oversize box are exactly those a level-by-level
    check reaches before the guard fires."""
    for k, caps in enumerate(boxes):
        try:
            _check_box(caps, what)
        except ResourceGuardError as err:
            return tuple(boxes[:k]), err
    return tuple(boxes), None


def _first_gap(
    ideal: MonomialIdeal, boxes: tuple[ExponentVector, ...], value: np.ndarray, unit: int
) -> tuple[int, ExponentVector] | None:
    """The first level k with a cell of prod [0, boxes[k-1]] whose value
    reaches k*unit but which lies outside I^k, and the lex-first such cell;
    None if no level has one. ``value`` is an array over the last box."""
    for k, (caps, grid) in enumerate(zip(boxes, _power_grids(ideal, boxes)), start=1):
        bad = (value[_box_slice(caps)] >= k * unit) & ~grid
        if bad.any():
            return k, _first_cell(bad)
    return None


# ---------------------------------------------------------------------------
# Bounded normality / torsion-freeness

def is_normal_up_to(ideal: MonomialIdeal, kmax: int) -> NormalityVerdict:
    """Is I^k integrally closed for every k <= kmax?

    Per level k, every lattice point of k*B(Q) (the integral closure of
    I^k) in the box of :func:`box_caps` must dominate a sum of k
    generators; the witness is the lex-first one that does not. Only a
    negative verdict runs the paper's criterion, for its explanation: every
    minimal lattice point of B(Q) is a column, and B(Q) has the integer
    decomposition property up to kmax. When the kmax box of the latter is
    over a size guard, the decided verdict stands: the explanation gets
    ``"integer_decomposition": None`` and the guard message under
    ``"idp_skipped"``.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    a = ideal.matrix()
    boxes, tripped = _guarded_boxes(
        [box_caps(a, k) for k in range(1, kmax + 1)], "power grid size"
    )
    gap = None
    if boxes:
        rows, den = _vertex_inequalities(a)
        gap = _first_gap(ideal, boxes, _box_values(boxes[-1], rows), den)
    if gap is None:
        if tripped is not None:
            raise tripped
        return NormalityVerdict("normal-up-to", kmax)

    k, witness = gap
    explanation = {
        "level": k,
        "reason": "monomial lies in the integral closure of the k-th power "
        "but not in the power itself",
        "minimal_vectors_are_columns": set(minimal_lattice_points(a, 1))
        <= set(ideal.generators),
        "integer_decomposition": True,
        "idp_witness": None,
    }
    if kmax >= 2:
        try:
            idp = integer_decomposition_check(a, kmax)
        except ResourceGuardError as exc:
            # the verdict is decided; only its explanation is cut short
            explanation.update(integer_decomposition=None, idp_skipped=str(exc))
        else:
            explanation.update(integer_decomposition=idp.holds, idp_witness=idp.witness)
    return NormalityVerdict("not-normal", kmax, witness=witness, explanation=explanation)


def is_ntf_up_to(c: Clutter, imax: int) -> NormalityVerdict:
    """Does the i-th symbolic power equal the i-th ordinary power of the
    edge ideal for every i <= imax?  The inclusion I^i <= I^(i) holds for
    every ideal, so equality fails exactly when some cell of [0, i]^n lies
    in I^(i) (its least minimal-cover sum reaches i) but not in I^i; the
    lex-first such cell is the witness."""
    if imax < 1:
        raise ValueError("imax must be >= 1")
    ideal = edge_ideal(c)
    boxes, tripped = _guarded_boxes(
        [(i,) * c.n for i in range(1, imax + 1)], "lattice box size"
    )
    gap = None
    if boxes:
        gap = _first_gap(ideal, boxes, _box_values(boxes[-1], _cover_matrix(c)), 1)
    if gap is None:
        if tripped is not None:
            raise tripped
        return NormalityVerdict("ntf-up-to", imax)

    i, witness = gap
    return NormalityVerdict(
        "not-ntf",
        imax,
        witness=witness,
        explanation={
            "level": i,
            "reason": "monomial lies in the i-th symbolic power but "
            "not in the i-th ordinary power",
        },
    )
