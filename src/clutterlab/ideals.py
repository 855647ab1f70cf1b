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
each verdict builds two things over its last box and compares every
level there: the threshold sets of ``polyhedra`` (the cells where every
vertex inequality of Q(A) reaches k*D, or every minimal-cover sum reaches
i), and one chain of power levels from a single bitset k-fold pass
(:func:`~clutterlab.polyhedra._kfold_bits`), each set one Python int over
the last box. Both verdicts run one path, :func:`_first_gap`: guard,
chain, and the k-fold level kernel
:func:`~clutterlab.polyhedra._level_gap`, whose lex-first difference is
the first minimal generator missing from the power, in the level's own
box; a power level cell outside the larger set raises ConsistencyError.
No value is listed per cell and no sub-box is sliced.

The power levels are cached per (ideal, boxes), so the two verdicts share
them: on an edge ideal with no isolated vertex the normality boxes are the
NTF boxes [0, k]^n, and a clutter instance builds its chain once. The
threshold sets are kept for the latest (box, rows, unit), whoever asks:
on a clutter instance with integral Q(A), whose vertex rows are the
minimal covers in the same order, NTF and normality build them once.

The symbolic powers and the minimal lattice points, which list their
generators, read the minimal cells of one threshold set of the same rows
(:func:`~clutterlab.polyhedra._threshold_levels`), built uncached, so
the sets kept for the verdicts stay.

The size guard runs on every box before anything is built; a level past
the guard raises only when no earlier level already decided the verdict.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from typing import Any, Callable, Iterable, Sequence

from .guards import ResourceGuardError, Value, check_deadline
from .packing import _cover_matrix
from .polyhedra import (
    IncidenceMatrix,
    box_caps,
    integer_decomposition_check,
    minimal_lattice_points,
    _check_box,
    _kfold_bits,
    _level_gap,
    _minimal_by_sum,
    _minimal_cells,
    _minimal_rows,
    _threshold_levels,
    _vertex_inequalities,
)
from .structures import Clutter, json_int
from .verdicts import NormalityVerdict

ExponentVector = tuple[int, ...]


class MonomialIdeal(Value):
    """Monomial ideal given by its unique minimal generating set.

    The constructor canonicalizes: dominated generators are dropped by one
    scan in order of coordinate sum, duplicates removed, and the survivors
    sorted lexicographically. Zero exponent vectors (the unit ideal) are
    rejected.
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
        self._set(n, tuple(sorted(p for new in _minimal_by_sum(gens) for p in new)))

    @property
    def q(self) -> int:
        return len(self.generators)

    def matrix(self) -> IncidenceMatrix:
        """The generators as the columns of an incidence matrix, built once
        per ideal: the normality, integrality and rounding checks of one
        instance share it."""
        return self._matrix

    @cached_property
    def _matrix(self) -> IncidenceMatrix:
        return IncidenceMatrix(self.n, self.generators)

    def to_json(self) -> dict[str, Any]:
        return {"n": self.n, "generators": [list(g) for g in self.generators]}

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "MonomialIdeal":
        return cls(json_int(doc["n"]), [[json_int(x) for x in g] for g in doc["generators"]])


def dominates(a: Sequence[int], b: Sequence[int]) -> bool:
    """a >= b componentwise."""
    return all(x >= y for x, y in zip(a, b))


@lru_cache(maxsize=2)
def edge_ideal(c: Clutter) -> MonomialIdeal:
    """Squarefree ideal generated by the edge monomials of c. Cached, so
    :func:`is_ntf_up_to` and the checks of the same clutter after it share
    one ideal and its one domination filter."""
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
    return MonomialIdeal(ideal.n, _minimal_rows(sums))


def membership(ideal: MonomialIdeal, a: Sequence[int]) -> bool:
    """x^a in I iff a dominates some generator."""
    if len(a) != ideal.n:
        raise ValueError(f"exponent vector has length {len(a)}, expected {ideal.n}")
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
    return MonomialIdeal(c.n, _minimal_cells(caps, next(_threshold_levels(caps, _cover_matrix(c), i))))


# ---------------------------------------------------------------------------
# Power levels: one k-fold-sum chain per ideal

@lru_cache(maxsize=2)
def _power_grids(ideal: MonomialIdeal, boxes: tuple[ExponentVector, ...]) -> tuple[int, ...]:
    """For k = 1..len(boxes), the cells a of the last box boxes[-1] with
    x^a in I^k, i.e. a dominating a sum of k generators, as the packed
    level ints of :func:`~clutterlab.polyhedra._kfold_bits` (bit idx(a),
    the flat C-order index of a in the last box). The boxes grow with k.

    One k-fold pass over the last box gives every level: whether a cell
    dominates a sum of k generators does not depend on the box holding
    it, since every summand lies below the cell. The levels are kept over
    the last box, with no per-level sub-box: :func:`_first_gap` reads them
    there. Python ints are immutable, so the cached chain cannot be
    written to by a reader.

    Cached, so :func:`is_normal_up_to` reads the chain :func:`is_ntf_up_to`
    built when their boxes agree. :func:`_first_gap` guards the boxes
    before anything is built."""
    return tuple(_kfold_bits(ideal.generators, boxes[-1], len(boxes)))


def _first_gap(
    ideal: MonomialIdeal,
    boxes: Sequence[ExponentVector],
    what: str,
    rows_and_unit: Callable[[], tuple[Sequence[ExponentVector], int]],
) -> tuple[int, ExponentVector] | None:
    """The first level k with a cell of prod [0, boxes[k-1]] where every
    row of ``rows_and_unit()`` reaches k*unit but which lies outside I^k,
    and the lex-first such cell (:func:`~clutterlab.polyhedra._level_gap`
    over the last box); None if none. Every box is guarded (``what``)
    first: the levels below the first oversize box are decided, and its
    guard raises only when none has a gap. Then come the rows, the power
    chain and the threshold sets, so the k-fold masks are freed before the
    first threshold set is built.
    """
    tripped = None
    for k, caps in enumerate(boxes):
        try:
            _check_box(caps, what)
        except ResourceGuardError as err:
            boxes, tripped = boxes[:k], err
            break
    gap = None
    if boxes:
        rows, unit = rows_and_unit()
        levels = _power_grids(ideal, tuple(boxes))
        gap = _level_gap(levels, boxes[-1], rows, unit)
    if gap is None and tripped is not None:
        raise tripped
    return gap


# ---------------------------------------------------------------------------
# Bounded normality / torsion-freeness

def normality_gap(ideal: MonomialIdeal, kmax: int) -> tuple[int, ExponentVector] | None:
    """The decision of :func:`is_normal_up_to`: the first level k <= kmax
    at which a lattice point of k*B(Q) (the integral closure of I^k) in
    the box of :func:`box_caps` dominates no sum of k generators, with the
    lex-first such point; None when I^k is integrally closed for every
    k <= kmax. A level past the size guard raises only when no earlier
    level decided."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    a = ideal.matrix()
    return _first_gap(
        ideal, [box_caps(a, k) for k in range(1, kmax + 1)], "power grid size",
        lambda: _vertex_inequalities(a),
    )


def is_normal_up_to(ideal: MonomialIdeal, kmax: int) -> NormalityVerdict:
    """Is I^k integrally closed for every k <= kmax?

    The verdict is :func:`normality_gap`; its witness is the lex-first
    point of the first failing level. Only a negative verdict runs the
    paper's criterion, for its explanation: every minimal lattice point
    of B(Q) is a column, and B(Q) has the integer decomposition property
    up to kmax. When the kmax box of the latter is over a size guard, the
    decided verdict stands: the explanation gets
    ``"integer_decomposition": None`` and the guard message under
    ``"idp_skipped"``. A caller that needs only the verdict calls
    :func:`normality_gap`, which skips the explanation.
    """
    gap = normality_gap(ideal, kmax)
    if gap is None:
        return NormalityVerdict("normal-up-to", kmax)

    k, witness = gap
    a = ideal.matrix()
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
    gap = _first_gap(
        edge_ideal(c), [(i,) * c.n for i in range(1, imax + 1)], "lattice box size",
        lambda: (_cover_matrix(c), 1),
    )
    if gap is None:
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
