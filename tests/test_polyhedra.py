import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from clutterlab import (
    Clutter,
    IncidenceMatrix,
    blocking_membership,
    covering_polyhedron,
    integer_decomposition_check,
    integer_rounding_check,
    is_integral,
    minimal_lattice_points,
    simplex_max,
    vertices,
)
from clutterlab import polyhedra
from clutterlab.certify import random_clutters, random_ideals, random_posets
from clutterlab.guards import ResourceGuardError
from clutterlab.polyhedra import (
    RationalPolyhedron,
    UnboundedLPError,
    _dd_extreme_rays,
    _int_constraints,
    _vertex_inequalities,
    box_caps,
    format_rational,
    ilp_max_packing,
    q_vertices,
)
from clutterlab.structures import clique_clutter, comparability_graph

from oracles import (
    brute_decompose,
    brute_idp_holds,
    brute_lattice_points_of_scaled_blocker,
    brute_q_vertices,
    minimalize,
)


def _c5_matrix():
    return IncidenceMatrix.from_clutter(
        Clutter(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    )


def _two_squares():
    return IncidenceMatrix(2, [(2, 0), (0, 2)])


# ---------------------------------------------------------------------------
# Construction

def test_matrix_rejects_zero_column():
    with pytest.raises(ValueError, match="zero column"):
        IncidenceMatrix(2, [(0, 0)])


def test_matrix_needs_columns():
    with pytest.raises(ValueError, match="at least one column"):
        IncidenceMatrix(2, [])


def test_covering_polyhedron_identity2():
    q = covering_polyhedron(IncidenceMatrix(2, [(1, 0), (0, 1)]))
    assert q.rows == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert q.rhs == (Fraction(1), Fraction(1))
    assert vertices(q) == [(Fraction(1), Fraction(1))]


def test_covering_polyhedron_ones_column(ones_column3):
    q = covering_polyhedron(ones_column3)
    assert len(q.rows) == 1
    assert q.contains((1, 0, 0)) and not q.contains((0, 0, 0))


def test_covering_polyhedron_c5_has_five_constraints():
    assert len(covering_polyhedron(_c5_matrix()).rows) == 5


# ---------------------------------------------------------------------------
# Vertices

def test_vertices_of_triangle_blocker(ones_column3):
    def unit(i):
        return tuple(Fraction(int(j == i)) for j in range(3))

    assert vertices(covering_polyhedron(ones_column3)) == [unit(2), unit(1), unit(0)]


def test_c5_has_half_vertex():
    verts = vertices(covering_polyhedron(_c5_matrix()))
    assert (Fraction(1, 2),) * 5 in verts
    assert not is_integral(_c5_matrix())


def test_integrality_examples(ones_column3):
    assert is_integral(ones_column3)
    diamond = IncidenceMatrix.from_clutter(Clutter(4, [(0, 1, 3), (0, 2, 3)]))
    assert is_integral(diamond)


def test_comparability_vertex_clique_matrices_are_integral():
    for p in random_posets(5, 12, seed=31):
        a = IncidenceMatrix.from_clutter(clique_clutter(comparability_graph(p)))
        assert is_integral(a)


def test_dd_matches_basis_enumeration():
    # brute_q_vertices solves every n-subset of the constraints
    for c in random_clutters(5, 6, 12, seed=77):
        a = IncidenceMatrix.from_clutter(c)
        assert vertices(covering_polyhedron(a)) == brute_q_vertices(a.columns)
    for ideal in random_ideals(3, 3, 3, 12, seed=78):
        a = ideal.matrix()
        assert vertices(covering_polyhedron(a)) == brute_q_vertices(a.columns)


def test_dd_matches_independent_oracle():
    for c in random_clutters(5, 5, 8, seed=79):
        a = IncidenceMatrix.from_clutter(c)
        assert vertices(covering_polyhedron(a)) == brute_q_vertices(a.columns)


def _integer_route_corpus():
    rng = random.Random(505)
    mats = []
    while len(mats) < 80:
        n = rng.randint(1, 5)
        cols = [[rng.randint(0, 3) for _ in range(n)] for _ in range(rng.randint(1, 5))]
        cols = [c for c in cols if any(c)]
        if cols:
            mats.append(IncidenceMatrix(n, cols))
    doc = json.loads((Path(__file__).parent / "corpora" / "cauc-small.json").read_text())
    mats += [IncidenceMatrix.from_clutter(Clutter.from_json(item["data"]))
             for item in doc["instances"]]
    # Q6, the triangles of K4 on its six edges: Q(A) is integral, though Q6
    # has no MFMC; C5: Q(A) has the vertex (1/2, ..., 1/2)
    q6 = IncidenceMatrix.from_clutter(Clutter(6, [(0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5)]))
    return mats + [q6, _c5_matrix()]


def test_integer_vertex_route_matches_oracle():
    mats = _integer_route_corpus()
    integral = []
    for a in mats:
        expected = brute_q_vertices(a.columns)
        assert list(q_vertices(a)) == expected
        integral.append(all(x.denominator == 1 for v in expected for x in v))
        assert is_integral(a) == integral[-1]
        rows, den = _vertex_inequalities(a)
        assert rows.dtype == np.int64 and den == math.lcm(*(x.denominator for v in expected for x in v))
        assert sorted(tuple(Fraction(int(x), den) for x in row) for row in rows) == expected
    assert integral[-2:] == [True, False]  # Q6, C5
    assert False in integral[:-2]


def test_dd_ray_guard():
    a = IncidenceMatrix.from_clutter(
        Clutter(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
    )
    cuts = _int_constraints(covering_polyhedron(a))
    with pytest.raises(ResourceGuardError, match="double-description"):
        _dd_extreme_rays(a.n + 1, cuts, max_rays=10)


def test_general_polyhedron_with_rational_data():
    p = RationalPolyhedron(2, [(Fraction(1, 2), Fraction(1, 3))], [Fraction(1)])
    assert vertices(p) == [
        (Fraction(0), Fraction(3)),
        (Fraction(2), Fraction(0)),
    ]


# ---------------------------------------------------------------------------
# Simplex

def test_simplex_small_lp():
    value, y = simplex_max([1, 1], [[1, 0], [0, 1], [1, 1]], [1, 1, Fraction(3, 2)])
    assert value == Fraction(3, 2)
    assert sum(y) == Fraction(3, 2)


def test_simplex_unbounded():
    with pytest.raises(UnboundedLPError):
        simplex_max([1], [[0]], [0])


def test_simplex_agrees_with_vertex_enumeration():
    # max <1, y> over {y >= 0, Ay <= w} equals the max over that polytope's
    # vertices, enumerated independently in y-space
    rng = random.Random(6)
    for ideal in random_ideals(3, 3, 2, 10, seed=41):
        a = ideal.matrix()
        w = [rng.randint(0, 3) for _ in range(a.n)]
        value, _ = simplex_max([1] * a.q, a.rows(), w)
        poly = RationalPolyhedron(
            a.q,
            [[-x for x in row] for row in a.rows()],
            [-x for x in w],
        )
        best = max(sum(v) for v in vertices(poly))
        assert value == best


# ---------------------------------------------------------------------------
# Blocking membership

def test_blocking_midpoint():
    assert blocking_membership(_two_squares(), (1, 1))


def test_blocking_zero_is_outside(ones_column3):
    assert not blocking_membership(ones_column3, (0, 0, 0))


def test_blocking_columns_are_members():
    for a in (_two_squares(), _c5_matrix()):
        for col in a.columns:
            assert blocking_membership(a, col)


def test_blocking_rejects_negative(ones_column3):
    with pytest.raises(ValueError):
        blocking_membership(ones_column3, (-1, 0, 0))


def test_blocking_dual_routes_on_random_rationals():
    # the vertex-inequality route against convex feasibility: z is in B(Q)
    # iff max{sum lambda : A lambda <= z, lambda >= 0} >= 1
    rng = random.Random(2024)
    mats = [
        _two_squares(),
        _c5_matrix(),
        IncidenceMatrix(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        IncidenceMatrix(2, [(3, 0), (1, 1)]),
    ]
    for _ in range(1000):
        a = rng.choice(mats)
        z = tuple(Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(a.n))
        assert blocking_membership(a, z) == (simplex_max([1] * a.q, a.rows(), z)[0] >= 1)


# ---------------------------------------------------------------------------
# The box value kernel

def test_box_min_matches_brute_minimum():
    rng = random.Random(21)
    cases = [
        ((2, 0, 3), [(1, 2, 0), (0, 0, 0)]),
        ((0,), [(4,)]),
        ((3, 1), [(0, 0)]),
        # a single row
        ((2, 3, 1), [(0, 2, 0)]),
        # a zero first row, then forms over one axis, two axes and all axes
        ((3, 2, 2), [(0, 0, 0), (1, 0, 0), (0, 2, 1), (3, 1, 1)]),
        # only zero rows
        ((1, 2), [(0, 0), (0, 0)]),
        # zero caps: a one-cell box
        ((0, 0, 0), [(1, 2, 3), (0, 1, 0)]),
        ((0, 3, 0), [(5, 0, 7), (0, 1, 0)]),
    ]
    for _ in range(80):
        n = rng.randint(1, 4)
        caps = [rng.randint(0, 3) for _ in range(n)]
        caps[rng.randrange(n)] *= rng.randint(0, 1)
        rows = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            rows.append((0,) * n)
        cases.append((tuple(caps), rows))
    for caps, rows in cases:
        got = polyhedra._box_min(caps, rows)
        assert got.shape == tuple(c + 1 for c in caps) and got.dtype == np.int64
        # an owned box array, never a broadcast view of one form
        assert got.flags.owndata and got.flags.writeable and got.flags.c_contiguous
        box = itertools.product(*(range(c + 1) for c in caps))
        assert got.ravel().tolist() == [
            min(sum(r * x for r, x in zip(row, pt)) for row in rows) for pt in box
        ]


# ---------------------------------------------------------------------------
# Lattice points and minimal vectors

def test_lattice_points_identity3(identity3):
    pts = brute_lattice_points_of_scaled_blocker(identity3.columns, 1, box_caps(identity3, 1))
    assert (1, 0, 0) in pts and (0, 1, 0) in pts and (0, 0, 1) in pts
    assert (0, 0, 0) not in pts
    assert minimal_lattice_points(identity3, 1) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_lattice_points_ones_column(ones_column3):
    assert minimal_lattice_points(ones_column3, 1) == [(1, 1, 1)]


def test_minimal_vectors_two_squares():
    assert minimal_lattice_points(_two_squares(), 1) == [(0, 2), (1, 1), (2, 0)]


def test_minimal_lattice_points_scaled_two_squares():
    assert minimal_lattice_points(_two_squares(), 2) == [
        (0, 4), (1, 3), (2, 2), (3, 1), (4, 0),
    ]


def test_clutter_minimal_vectors_are_the_columns():
    # edge ideals are integrally closed: the minimal integer vectors of
    # B(Q) are exactly the incidence columns
    for c in random_clutters(6, 6, 15, seed=90):
        a = IncidenceMatrix.from_clutter(c)
        assert sorted(minimal_lattice_points(a, 1)) == sorted(a.columns)


def test_every_column_is_a_lattice_point_of_blocker():
    for ideal in random_ideals(3, 4, 3, 10, seed=91):
        a = ideal.matrix()
        caps = [3 * max(col[i] for col in a.columns) for i in range(a.n)]
        pts = brute_lattice_points_of_scaled_blocker(a.columns, 1, box_caps(a, 1))
        for col in a.columns:
            assert col in pts
        assert minimal_lattice_points(a, 1) == minimalize(pts)
        for m in minimal_lattice_points(a, 1):
            assert all(x <= c for x, c in zip(m, caps))


# ---------------------------------------------------------------------------
# Integer decomposition property

def test_idp_identity3(identity3):
    assert integer_decomposition_check(identity3, 3).holds


def test_idp_two_squares_holds_at_2():
    # non-normality of (x^2, y^2) comes from the minimal-vector clause, not
    # from decomposition
    cert = integer_decomposition_check(_two_squares(), 2)
    assert cert.holds
    assert cert.details["checked"]["2"] > 0


def test_idp_c5_edges():
    assert integer_decomposition_check(_c5_matrix(), 2).holds


def test_idp_rejects_kmax_one(identity3):
    with pytest.raises(ValueError):
        integer_decomposition_check(identity3, 1)


def test_idp_matches_brute_force():
    rng = random.Random(12)
    for ideal in random_ideals(2, 3, 2, 12, seed=55):
        a = ideal.matrix()
        kmax = 2
        caps = tuple(kmax * max(col[i] for col in a.columns) for i in range(a.n))
        assert integer_decomposition_check(a, kmax).holds == brute_idp_holds(
            a.columns, kmax, caps
        )


def test_idp_failure_has_checkable_witness():
    # frozen failing instance (found by seeded search, confirmed by the
    # brute-force decomposition oracle): the point (3,4,2) lies in 2*B(Q)
    # but is not a sum of two lattice points of B(Q)
    a = IncidenceMatrix(3, [(0, 2, 2), (1, 3, 0), (3, 1, 1)])
    cert = integer_decomposition_check(a, 2)
    assert not cert.holds
    assert cert.witness == {"k": 2, "point": [3, 4, 2]}
    assert blocking_membership(a, (3, 4, 2), 2)
    assert brute_decompose(a.columns, (3, 4, 2), 2) is None
    caps = tuple(2 * max(col[i] for col in a.columns) for i in range(3))
    assert not brute_idp_holds(a.columns, 2, caps)


def test_decompose_returns_valid_split(identity3):
    parts = brute_decompose(identity3.columns, (2, 1, 0), 3)
    assert parts is not None and len(parts) == 3
    total = tuple(sum(xs) for xs in zip(*parts))
    assert total <= (2, 1, 0) or total == (2, 1, 0)
    for part in parts:
        assert blocking_membership(identity3, part)


# ---------------------------------------------------------------------------
# Integer rounding

def _rounding_entry(cert, w):
    # per_w runs over the box in lexicographic order, so w's entry is unique
    (entry,) = [e for e in cert.details["per_w"] if e["w"] == list(w)]
    return entry


def test_rounding_ones_column(ones_column3):
    cert = integer_rounding_check(ones_column3, 1)
    assert cert.holds
    entry = _rounding_entry(cert, (1, 1, 1))
    assert entry["holds"] and entry["lp"] == "1"


def test_rounding_identity3(identity3):
    cert = integer_rounding_check(identity3, 1)
    assert cert.holds
    entry = _rounding_entry(cert, (1, 1, 1))
    assert entry["lp"] == "3" and entry["ilp"] == 3


def test_rounding_c5_at_ones():
    cert = integer_rounding_check(_c5_matrix(), 1)
    entry = _rounding_entry(cert, (1,) * 5)
    assert entry["lp"] == "5/2" and entry["floor"] == 2 and entry["ilp"] == 2
    assert cert.holds


def test_rounding_two_squares_fails():
    cert = integer_rounding_check(_two_squares(), 1)
    assert not cert.holds
    entry = _rounding_entry(cert, (1, 1))
    assert entry["lp"] == "1" and entry["ilp"] == 0
    assert cert.witness == entry


def test_rounding_full_corpus_two_squares():
    cert = integer_rounding_check(_two_squares(), 3)
    assert not cert.holds
    assert [e["w"] for e in cert.details["per_w"]] == [
        list(w) for w in itertools.product(range(4), repeat=2)
    ]


def test_rounding_box_matches_simplex_and_ilp_references():
    # every per_w entry against the per-w LP (exact simplex) and the
    # per-w integer packing (pruned enumeration)
    rng = random.Random(404)
    mats = [_two_squares(), _c5_matrix()]
    while len(mats) < 202:
        n = rng.randint(1, 4)
        cols = [[rng.randint(0, 3) for _ in range(n)] for _ in range(rng.randint(1, 5))]
        cols = [c for c in cols if any(c)]
        if cols:
            mats.append(IncidenceMatrix(n, cols))
    for a in mats:
        wmax = 2 if a.n == 5 else rng.randint(0, 3)
        cert = integer_rounding_check(a, wmax)
        per_w = cert.details["per_w"]
        assert [e["w"] for e in per_w] == [
            list(w) for w in itertools.product(range(wmax + 1), repeat=a.n)
        ]
        assert cert.details["tested"] == len(per_w)
        for e in per_w:
            lp, _ = simplex_max([1] * a.q, a.rows(), e["w"])
            ilp = ilp_max_packing(a, e["w"])
            assert (e["lp"], e["floor"], e["ilp"]) == (format_rational(lp), math.floor(lp), ilp)
            assert e["holds"] == (ilp == math.floor(lp))
        fails = [e for e in per_w if not e["holds"]]
        assert cert.holds == (not fails)
        assert cert.witness == (fails[0] if fails else None)


def test_rounding_box_guard_fires_before_allocating(monkeypatch):
    # 4^12 > MAX_GRID_POINTS cells: neither the box nor Q(A) may be built
    def unreachable(*args):
        raise AssertionError("built before the guard")

    monkeypatch.setattr(polyhedra, "_box_min", unreachable)
    monkeypatch.setattr(polyhedra, "_vertex_inequalities", unreachable)
    big = IncidenceMatrix(12, [(1,) * 12])
    with pytest.raises(ResourceGuardError, match="rounding box size"):
        integer_rounding_check(big, 3)


def test_ilp_packing_matches_brute_force():
    rng = random.Random(3)
    for ideal in random_ideals(3, 3, 2, 10, seed=66):
        a = ideal.matrix()
        w = tuple(rng.randint(0, 3) for _ in range(a.n))
        best = 0
        bounds = [
            min(w[i] // col[i] for i in range(a.n) if col[i]) for col in a.columns
        ]
        for combo in itertools.product(*(range(b + 1) for b in bounds)):
            load = [
                sum(y * col[i] for y, col in zip(combo, a.columns))
                for i in range(a.n)
            ]
            if all(l <= ww for l, ww in zip(load, w)):
                best = max(best, sum(combo))
        assert ilp_max_packing(a, w) == best


# ---------------------------------------------------------------------------
# Guards and serialization

def test_grid_guard_fires():
    big = IncidenceMatrix(8, [(9,) * 8])
    with pytest.raises(ResourceGuardError, match="box"):
        minimal_lattice_points(big, 3)


def test_lattice_box_guard_fires_before_double_description(monkeypatch):
    def unreachable(*args):
        raise AssertionError("built before the guard")

    monkeypatch.setattr(polyhedra, "_box_min", unreachable)
    monkeypatch.setattr(polyhedra, "_vertex_inequalities", unreachable)
    big = IncidenceMatrix(8, [(9,) * 8])
    with pytest.raises(ResourceGuardError, match="lattice box size = 100000000 "):
        minimal_lattice_points(big, 1)
    with pytest.raises(ResourceGuardError, match="lattice box size = 16983563041 "):
        integer_decomposition_check(big, 2)


def test_matrix_json_round_trip(identity3):
    assert IncidenceMatrix.from_json(identity3.to_json()) == identity3
