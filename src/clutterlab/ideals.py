"""Monomial ideals as lattice data: powers, symbolic powers via minimal
vertex covers, integral closure via blocking polyhedra, and the bounded
normality / normal torsion-freeness verdicts.

A monomial x^a is identified with its exponent vector a. Membership tests
reduce to componentwise domination; powers to sums of generators; symbolic
powers to per-cover degree conditions. Everything is bounded and exact;
verdicts always embed the bound that was checked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterable, Sequence

import numpy as np

from .guards import MAX_GRID_POINTS, check_size
from .packing import minimal_vertex_covers
from .polyhedra import (
    IncidenceMatrix,
    blocking_membership,
    box_caps,
    integer_decomposition_check,
    kfold_sum_grids,
    minimal_lattice_points,
    _grid,
    _minimal_rows,
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
    """Minimal generators of the i-th ordinary power."""
    if i < 1:
        raise ValueError("power exponent must be >= 1")
    if i == 1:
        return ideal
    sums = set()
    for combo in itertools.combinations_with_replacement(ideal.generators, i):
        sums.add(tuple(sum(col) for col in zip(*combo)))
    arr = np.array(sorted(sums), dtype=np.int64)
    return MonomialIdeal(ideal.n, [tuple(int(x) for x in row) for row in _minimal_rows(arr)])


def membership(ideal: MonomialIdeal, a: Sequence[int]) -> bool:
    """x^a in I iff a dominates some generator."""
    av = tuple(int(x) for x in a)
    return any(dominates(av, g) for g in ideal.generators)


def power_membership(ideal: MonomialIdeal, a: Sequence[int], i: int) -> bool:
    """x^a in I^i: a dominates a minimal generator of the i-th power."""
    return membership(power(ideal, i), a)


@lru_cache(maxsize=512)
def _cover_matrix(c: Clutter) -> np.ndarray:
    covers = minimal_vertex_covers(c)
    return np.array(
        [[int(v in cov.vertices) for v in range(c.n)] for cov in covers],
        dtype=np.int64,
    )


def symbolic_power_membership(c: Clutter, a: Sequence[int], i: int) -> bool:
    """x^a in I^(i): for every minimal vertex cover C, sum of a over C must
    reach i (membership in the i-th power of the cover's prime)."""
    if i < 1:
        raise ValueError("symbolic power exponent must be >= 1")
    if not c.edges:
        raise ValueError("clutter must have at least one edge")
    av = np.array([int(x) for x in a], dtype=np.int64)
    cm = _cover_matrix(c)
    return bool((cm @ av >= i).all())


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
    pts = _grid(caps)
    cm = _cover_matrix(c)
    flags = (pts @ cm.T >= i).all(axis=1)
    mins = _minimal_rows(pts[flags])
    return MonomialIdeal(c.n, [tuple(int(x) for x in row) for row in mins])


def integral_closure_membership(ideal: MonomialIdeal, a: Sequence[int], k: int) -> bool:
    """x^a in the integral closure of I^k, via lattice membership of a in
    k*B(Q) for the exponent matrix of I."""
    return blocking_membership(ideal.matrix(), a, k)


# ---------------------------------------------------------------------------
# Power-membership grids (vectorized domination DP)

def _power_grid(ideal: MonomialIdeal, i: int, caps: ExponentVector) -> np.ndarray:
    """Boolean grid over prod [0, caps]: cell a is True iff x^a in I^i,
    i.e. a dominates a sum of i generators (level i of
    :func:`kfold_sum_grids`)."""
    check_size(int(np.prod([c + 1 for c in caps])), MAX_GRID_POINTS, "power grid size")
    *_, grid = kfold_sum_grids(ideal.generators, caps, i)
    return grid


# ---------------------------------------------------------------------------
# Bounded normality / torsion-freeness

def is_normal_up_to(ideal: MonomialIdeal, kmax: int) -> NormalityVerdict:
    """Is I^k integrally closed for every k <= kmax?

    Two independent routes, asserted to agree in sign:
      (a) direct: every minimal lattice point of k*B(Q) dominates a sum of
          k generators (i.e. the closure of I^k sits inside I^k);
      (b) the decomposition criterion: B(Q) has the integer decomposition
          property up to kmax and every minimal integer vector of B(Q) is a
          column of the exponent matrix.
    A negative verdict carries the first failing monomial from route (a).
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    a = ideal.matrix()
    direct_witness: tuple[int, ExponentVector] | None = None
    for k in range(1, kmax + 1):
        caps = box_caps(a, k)
        grid = _power_grid(ideal, k, caps)
        for point in minimal_lattice_points(a, k):
            if not grid[point]:
                direct_witness = (k, point)
                break
        if direct_witness:
            break

    minvec_ok = set(minimal_lattice_points(a, 1)) <= set(ideal.generators)
    idp_ok = True
    idp_witness = None
    if kmax >= 2:
        idp_cert = integer_decomposition_check(a, kmax)
        idp_ok = idp_cert.holds
        idp_witness = idp_cert.witness
    criterion_ok = minvec_ok and idp_ok

    assert (direct_witness is None) == criterion_ok, (
        "normality routes disagree: "
        f"direct witness {direct_witness}, minimal-vectors {minvec_ok}, idp {idp_ok}"
    )
    if direct_witness is None:
        return NormalityVerdict("normal-up-to", kmax)
    k, point = direct_witness
    return NormalityVerdict(
        "not-normal",
        kmax,
        witness=point,
        explanation={
            "level": k,
            "reason": "monomial lies in the integral closure of the k-th power "
            "but not in the power itself",
            "minimal_vectors_are_columns": minvec_ok,
            "integer_decomposition": idp_ok,
            "idp_witness": idp_witness,
        },
    )


def is_ntf_up_to(c: Clutter, imax: int) -> NormalityVerdict:
    """Does the i-th symbolic power equal the i-th ordinary power of the
    edge ideal for every i <= imax?  The inclusion I^i <= I^(i) holds for
    every ideal, so equality fails exactly when some minimal generator of
    the symbolic power is missing from I^i, and the first such generator
    is returned as the witness."""
    if imax < 1:
        raise ValueError("imax must be >= 1")
    ideal = edge_ideal(c)
    for i in range(1, imax + 1):
        symb = symbolic_power(c, i)
        grid = _power_grid(ideal, i, (i,) * c.n)
        for g in symb.generators:
            if not grid[g]:
                return NormalityVerdict(
                    "not-ntf",
                    imax,
                    witness=g,
                    explanation={
                        "level": i,
                        "reason": "monomial lies in the i-th symbolic power but "
                        "not in the i-th ordinary power",
                    },
                )
    return NormalityVerdict("ntf-up-to", imax)
