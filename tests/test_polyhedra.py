import itertools
import json
import math
import operator
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from clutterlab import (
    Clutter,
    IncidenceMatrix,
    MonomialIdeal,
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
from clutterlab.ideals import symbolic_power
from clutterlab.guards import ConsistencyError, ResourceGuardError
from clutterlab.polyhedra import (
    RationalPolyhedron,
    UnboundedLPError,
    _dd_extreme_rays,
    _int_constraints,
    _kfold_bits,
    _vertex_inequalities,
    box_caps,
    format_rational,
    ilp_max_packing,
    integer_rounding_holds,
    packing_numbers,
    q_vertices,
)
from clutterlab.structures import (
    clique_clutter,
    comparability_graph,
    complete_admissible_uniform_clutter,
)

from oracles import (
    _cell_values,
    brute_decompose,
    brute_idp_holds,
    brute_minimal_covers,
    brute_kfold_sums,
    brute_lattice_points_of_scaled_blocker,
    brute_packing_numbers,
    brute_q_vertices,
    brute_vertices,
    minimalize,
    reference_dd_extreme_rays,
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
    # brute_q_vertices solves every n-subset of the constraints. The
    # corpus includes 2- and 3-uniform clutters on exactly 6 vertices
    # (most with a fractional vertex) and ideals in 4 or 5 variables with
    # exponents up to 3.
    rng = random.Random(606)
    mats = [IncidenceMatrix.from_clutter(c) for c in random_clutters(5, 6, 12, seed=77)]
    mats += [ideal.matrix() for ideal in random_ideals(3, 3, 3, 12, seed=78)]
    wide = [
        IncidenceMatrix.from_clutter(Clutter(6, rng.sample(list(itertools.combinations(range(6), s)), q)))
        for s, q in [(rng.choice((2, 3)), rng.randint(4, 6)) for _ in range(8)]
    ]
    wide += [ideal.matrix() for ideal in random_ideals(5, 5, 3, 40, seed=607) if ideal.n >= 4]
    for a in mats + wide:
        expected = brute_q_vertices(a.columns)
        assert vertices(covering_polyhedron(a)) == expected
        assert list(q_vertices(a)) == expected
    assert len(wide) > 20 and sum(not is_integral(a) for a in wide) > 5


def test_dd_matches_independent_oracle():
    for c in random_clutters(5, 5, 8, seed=79):
        a = IncidenceMatrix.from_clutter(c)
        assert vertices(covering_polyhedron(a)) == brute_q_vertices(a.columns)


def _lower_dimensional_polyhedra():
    # equality pairs row.x >= b, -row.x >= -b make the lifted cone lower
    # dimensional: fewer free directions than coordinates
    cases = [
        (2, [(1, 0), (-1, 0), (0, 1)], [1, -1, 1]),  # the point (1, 1)
        (2, [(1, 1), (-1, -1)], [2, -2]),  # a segment
        (3, [(1, 0, 0), (-1, 0, 0), (0, 1, 1)], [1, -1, 1]),
        (3, [(1, -1, 0), (-1, 1, 0), (1, 1, 0), (0, 0, 1), (0, 0, -1)], [0, 0, 2, 3, -3]),
        (3, [(1, 0, 0), (-1, 0, 0)], [2, -2]),  # unbounded in x2, x3
        (2, [(1, 0), (-1, 0)], [1, -2]),  # empty
    ]
    rng = random.Random(808)
    for _ in range(60):
        n = rng.randint(2, 4)
        rows, rhs = [], []
        for _ in range(rng.randint(1, 2)):
            row, b = [rng.randint(-1, 2) for _ in range(n)], rng.randint(0, 3)
            rows += [row, [-x for x in row]]
            rhs += [b, -b]
        for _ in range(rng.randint(0, 3)):
            rows.append([rng.randint(-1, 2) for _ in range(n)])
            rhs.append(rng.randint(-1, 2))
        cases.append((n, rows, rhs))
    return cases


def test_dd_on_lower_dimensional_lifted_cones():
    # an adjacent pair of rays shares at least dim - 2 zeros also when
    # the cone is not full-dimensional, so skipping the pairs with fewer
    # loses no vertex here
    assert sorted(_dd_extreme_rays(3, [(1, 0, -1), (-1, 0, 1), (0, 1, -1)])) == [(0, 1, 0), (1, 1, 1)]
    nonempty = 0
    for n, rows, rhs in _lower_dimensional_polyhedra():
        expected = brute_vertices(rows, rhs)
        assert vertices(RationalPolyhedron(n, rows, rhs)) == expected, (rows, rhs)
        nonempty += bool(expected)
    assert nonempty > 20


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
        assert type(rows) is tuple and all(type(x) is int for row in rows for x in row)
        assert den == math.lcm(*(x.denominator for v in expected for x in v))
        assert sorted(tuple(Fraction(x, den) for x in row) for row in rows) == expected
    assert integral[-2:] == [True, False]  # Q6, C5
    assert False in integral[:-2]


def test_dd_rays_come_back_in_the_reference_order():
    # the rays, order included, of the double description before its
    # one-pass-per-cut rewrite: the vertex rows of Q(A), and so every
    # report, keep their order
    cauc = [
        complete_admissible_uniform_clutter(d, g)
        for d in range(2, 7) for g in range(2, 7) if d * g <= 12
    ]
    mats = (
        [ideal.matrix() for ideal in random_ideals(4, 5, 3, 120, seed=1)]
        + [IncidenceMatrix.from_clutter(c) for c in cauc + random_clutters(6, 10, 200, seed=1)]
    )
    for a in mats:
        cuts = [(*col, -1) for col in a.columns]
        assert _dd_extreme_rays(a.n + 1, cuts) == reference_dd_extreme_rays(a.n + 1, cuts), a
    assert max(c.n for c in cauc) == 12 and len(cauc) == 12


def test_dd_ray_guard(monkeypatch):
    a = IncidenceMatrix.from_clutter(
        Clutter(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
    )
    cuts = _int_constraints(covering_polyhedron(a))
    monkeypatch.setattr(polyhedra, "MAX_DD_RAYS", 10)
    with pytest.raises(ResourceGuardError, match="double-description"):
        _dd_extreme_rays(a.n + 1, cuts)


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


@pytest.mark.parametrize("z", [(2,), (1, 1, 1)])
def test_blocking_rejects_a_point_of_the_wrong_length(z):
    # zipped against the rows, (2,) would read as (2, 0), a member
    with pytest.raises(ValueError, match=f"^point has length {len(z)}, expected 2$"):
        blocking_membership(_two_squares(), z)


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
# The threshold kernel, the per-cell values and the masks of one axis

def _brute_values(caps, rows):
    """min over the rows of <row, x> for every cell x, in C order."""
    return [min(sum(r * x for r, x in zip(row, pt)) for row in rows)
            for pt in itertools.product(*(range(c + 1) for c in caps))]


def _threshold_cases():
    rng = random.Random(21)
    cases = [
        # a zero row among others, and only zero rows: no cell reaches c > 0
        ((2, 0, 3), [(1, 2, 0), (0, 0, 0)]),
        ((1, 2), [(0, 0), (0, 0)]),
        # caps of 0: an axis of one cell, and a box of one cell
        ((0,), [(4,)]),
        ((0, 0, 0), [(1, 2, 3), (0, 1, 0)]),
        ((0, 3, 0), [(5, 0, 7), (0, 1, 0)]),
        ((3, 1), [(0, 1)]),
        # coefficients above 1, and axes no row uses (first, middle, last)
        ((3, 2, 2), [(1, 0, 0), (0, 2, 1), (3, 1, 1)]),
        ((2, 3, 1), [(0, 2, 0)]),
        ((2, 2, 2, 2), [(0, 1, 0, 3), (0, 2, 0, 1)]),
        # values far past a byte, on long axes
        ((127,), [(1,)]),
        ((128,), [(3,)]),
        ((1, 1), [(64, 64), (127, 1)]),
        ((0, 3), [(1155, 1)]),
        ((300, 1), [(10, 1), (1, 400)]),
        # no axes: one cell of sum 0
        ((), [()]),
    ]
    for _ in range(40):
        n = rng.randint(1, 6)
        caps = [rng.randint(0, 3) for _ in range(n)]
        caps[rng.randrange(n)] *= rng.randint(0, 1)
        rows = [tuple(rng.choice((0, 0, 1, 1, 2, 5)) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        cases.append((tuple(caps), rows))
    # the vertex rows of Q(A), over D, on the boxes of the bounded verdicts
    for ideal in random_ideals(4, 4, 3, 6, seed=23):
        rows, den = _vertex_inequalities(ideal.matrix())
        cases.append((box_caps(ideal.matrix(), 2), list(rows)))
    return cases


def test_threshold_sets_match_brute_force():
    # S_k for every k up to two past the largest value (empty there); a
    # block whose coefficient alone reaches the threshold leaves a rest of
    # threshold <= 0 in the recursion, all ones
    for caps, rows in _threshold_cases():
        values = _brute_values(caps, rows)
        for unit in (1, 2, 7):
            sets = polyhedra._ThresholdSets(caps, rows, unit)
            for k in range(1, max(values) // unit + 3):
                expected = sum(1 << i for i, v in enumerate(values) if v >= k * unit)
                assert sets[k] == expected, (caps, rows, unit, k)


def test_box_min_matches_brute_minimum():
    # the minimum over the rows at every cell of the box, negative
    # coefficients and zero rows among the random ones
    rng = random.Random(21)
    cases = list(_threshold_cases())
    for _ in range(80):
        n = rng.randint(1, 4)
        caps = [rng.randint(0, 3) for _ in range(n)]
        caps[rng.randrange(n)] *= rng.randint(0, 1)
        rows = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            rows.append((0,) * n)
        cases.append((tuple(caps), rows))
    for caps, rows in cases:
        assert _cell_values(caps, rows) == _brute_values(caps, rows), (caps, rows)


def _narrowest_signed(bound):
    """The name of the narrowest signed integer width holding [-bound, bound]."""
    return next(f"int{w}" for w in (8, 16, 32, 64) if bound < 1 << w - 1)


@pytest.mark.parametrize(
    "caps, rows, dtype",
    [
        # the largest value is the width's maximum, or one past it
        ((127,), [(1,)], "int8"),
        ((128,), [(1,)], "int16"),
        ((1, 1), [(64, 63)], "int8"),
        ((1, 1), [(64, 64), (127, 1)], "int16"),
        # a row's own bound counts even when another row has the least values
        ((1, 1), [(0, 1), (100, 100)], "int16"),
        # a coefficient on a cap-0 axis counts too
        ((0, 3), [(1155, 1)], "int16"),
        ((0, 3), [(127, 1)], "int8"),
        # negative coefficients are bounded by their magnitude
        ((2, 3), [(-30, 20), (5, -1)], "int8"),
        ((2, 3), [(-40, 20), (50, -1)], "int16"),
        ((5000, 1), [(10, 1)], "int32"),
    ],
)
def test_box_min_dtype_is_the_narrowest_holding_the_bound(caps, rows, dtype):
    # the per-cell values of the oracle are Python ints, exact at any size;
    # each box sits at the edge of a signed width, where a value array
    # narrowed to the width below would wrap
    bound = max(max(sum(c * abs(r) for c, r in zip(caps, row)), *map(abs, row)) for row in rows)
    assert _narrowest_signed(bound) == dtype
    got = _cell_values(caps, rows)
    assert all(type(v) is int for v in got)
    assert got == _brute_values(caps, rows)


def test_minimal_cells_of_an_up_set_match_brute_force():
    for caps, rows in _threshold_cases():
        values = _brute_values(caps, rows)
        box = list(itertools.product(*(range(c + 1) for c in caps)))
        for c in sorted(set(values))[:4]:
            upset = {x for x, v in zip(box, values) if v >= c}
            expected = [x for x in box if x in upset
                        and not any(y != x and y in upset and all(map(operator.le, y, x)) for y in box)]
            cells = sum(1 << i for i, v in enumerate(values) if v >= c)
            assert polyhedra._minimal_cells(caps, cells) == expected, (caps, rows, c)


def _minimal_reaching(caps, rows, c):
    """The minimal cells, in lex order, of the box where the oracle's value
    reaches c. The rows are nonnegative, so that set is upward closed and
    x in it is minimal iff no x - e_i is in it."""
    box = itertools.product(*(range(cap + 1) for cap in caps))
    upset = {x for x, v in zip(box, _cell_values(caps, rows)) if v >= c}
    return sorted(x for x in upset if not any(
        tuple(y - (j == i) for j, y in enumerate(x)) in upset for i in range(len(x))))


def test_the_listing_readers_match_the_per_cell_oracle():
    # every reader that lists or counts cells reads the threshold sets of
    # _threshold_levels, S_1, S_2, ... up to the first empty one; the
    # oracle lists min_r <r, x> for every cell. The decision cases hold
    # D = 200 and a variable in no generator, a cap-0 axis of the box.
    for caps, rows in _threshold_cases():
        values = _cell_values(caps, rows)
        for unit in (1, 2, 7):
            levels = list(polyhedra._threshold_levels(caps, rows, unit))
            assert levels[-1] == 0 and all(levels[:-1]), (caps, rows, unit)
            assert levels == [sum(1 << i for i, v in enumerate(values) if v >= k * unit)
                              for k in range(1, len(levels) + 1)], (caps, rows, unit)
            assert polyhedra._minimal_cells(caps, levels[0]) == _minimal_reaching(caps, rows, unit)
    for a in _rounding_decision_cases():
        rows, den = _vertex_inequalities(a)
        for k in (1, 2):
            assert minimal_lattice_points(a, k) == _minimal_reaching(box_caps(a, k), rows, k * den), (a, k)
        checked = integer_decomposition_check(a, 3).details["checked"]
        assert checked == {
            str(k): sum(v >= k * den for v in _cell_values(box_caps(a, k), rows))
            for k in range(1, len(checked) + 1)
        }, a
        for wmax in (1, 2, 3) if a.n <= 4 else (1, 2):
            per_w = integer_rounding_check(a, wmax).details["per_w"]
            assert [(e["lp"], e["floor"]) for e in per_w] == [
                (format_rational(Fraction(v, den)), v // den) for v in _cell_values((wmax,) * a.n, rows)
            ], (a, wmax)
        if all(x <= 1 for col in a.columns for x in col):
            c = Clutter(a.n, [[i for i, x in enumerate(col) if x] for col in a.columns])
            covers = [tuple(int(v in cov) for v in range(c.n)) for cov in brute_minimal_covers(c.n, c.edges)]
            for i in (1, 2, 3):
                assert list(symbolic_power(c, i).generators) == _minimal_reaching((i,) * c.n, covers, i)


@pytest.mark.parametrize("caps", [(3,), (2, 3), (3, 0, 2), (1, 1, 1, 1), (0, 0), (4, 2, 3)])
def test_the_masks_of_one_axis_match_brute_force(caps):
    # the cells with x_i >= t, one period of the axis doubled over the box
    shape = [c + 1 for c in caps]
    box = list(itertools.product(*(range(s) for s in shape)))
    full = (1 << len(box)) - 1
    for i, s in enumerate(shape):
        stride = math.prod(shape[i + 1:])
        for t in range(s + 1):
            expected = sum(1 << j for j, x in enumerate(box) if x[i] >= t)
            assert polyhedra._at_least(t, stride, stride * s, full) == expected, (i, t)


def test_threshold_sets_are_built_once_per_box_and_rows(monkeypatch):
    built = []
    honest = polyhedra._ThresholdSets

    def counting(caps, rows, unit):
        built.append(caps)
        return honest(caps, rows, unit)

    monkeypatch.setattr(polyhedra, "_ThresholdSets", counting)
    polyhedra._threshold_sets.cache_clear()
    rows = [(1, 1, 0), (0, 1, 2)]
    # the level gap reads the rows as tuples, so equal rows in another
    # container read the same sets, and each set is built when first read
    for caps, given in [((2, 3, 1), rows), ((2, 3, 1), [list(r) for r in rows]), ((2, 3, 1), tuple(rows))]:
        assert polyhedra._level_gap([0, 0], caps, given, 1) == (1, (0, 1, 0))
    assert built == [(2, 3, 1)]
    sets = polyhedra._threshold_sets((2, 3, 1), tuple(rows), 1)
    assert len(sets._drawn) == 1
    # another box, other rows or another unit build anew
    polyhedra._level_gap([0], (3, 0, 0), rows, 1)
    polyhedra._level_gap([0], (3, 0, 0), rows[::-1], 1)
    polyhedra._level_gap([0], (3, 0, 0), rows[::-1], 2)
    assert built == [(2, 3, 1)] + [(3, 0, 0)] * 3


def test_threshold_sets_build_no_row_set_of_the_whole_box():
    # [0,3]^10 has 2^20 cells, 128 KiB a set; the eight rows below are
    # ANDed block by block of axis 0, so besides the sets a row keeps on
    # the axes after axis 0 (32 KiB each, at most about 128 KiB a row with
    # the axes after them), the three levels and a few sets in flight, no
    # set of the whole box is held per row: those would add 8 * 3 * 128 KiB
    caps = (3,) * 10
    rows = [tuple(int(i in cover) for i in range(10)) for cover in
            [(0, 1, 2), (3, 4, 5), (6, 7, 8, 9), (0, 3, 6), (1, 4, 7), (2, 5, 8), (0, 4, 9), (1, 5, 9)]]
    tracemalloc.start()
    try:
        sets = polyhedra._ThresholdSets(caps, rows, 1)
        for k in (1, 2, 3):
            sets[k]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 17


# ---------------------------------------------------------------------------
# k-fold sums and packing numbers against explicit k-sums

def _kfold_cases():
    rng = random.Random(13)
    cases = [
        # unequal caps, entries 0..3
        ([(1, 0, 2), (0, 3, 1), (2, 1, 0)], (3, 4, 2), 4),
        # a vector equal to the caps: its offset is the last cell
        ([(2, 1, 3), (1, 0, 0)], (2, 1, 3), 3),
        # vectors over the caps are skipped, in one or several coordinates
        ([(4, 0), (0, 3), (1, 1), (5, 5)], (3, 2), 4),
        # duplicate vectors
        ([(1, 2), (1, 2), (0, 1)], (3, 3), 4),
        # a zero cap and a one-cell box
        ([(0, 1, 0), (1, 0, 0)], (2, 2, 0), 2),
        ([(1,)], (0,), 2),
        # nothing fits
        ([(2, 2)], (1, 1), 2),
    ]
    for _ in range(25):
        n = rng.randint(1, 4)
        caps = tuple(rng.randint(0, 3) for _ in range(n))
        vectors = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        vectors = [v for v in vectors if any(v)] or [(1,) * n]
        if rng.random() < 0.3:
            vectors.append(vectors[0])
        cases.append((vectors, caps, rng.randint(1, 4)))
    cases += [
        # boxes of 9, 30 and 243 cells: the last byte of a level is partial
        ([(1, 1), (2, 0)], (2, 2), 3),
        ([(1, 2, 1), (3, 0, 0), (0, 1, 1)], (4, 2, 1), 4),
        ([(1, 0, 2, 0, 1), (0, 2, 0, 1, 0), (1, 1, 1, 1, 1)], (2, 2, 2, 2, 2), 3),
        # a cap-0 axis between others: no vector using it fits
        ([(1, 0, 2), (2, 0, 1), (0, 1, 0)], (2, 0, 3), 3),
        # n = 6; entries > 1 on several axes, a duplicate, and a vector
        # over the caps on one axis only
        ([(2, 0, 1, 0, 2, 0), (0, 1, 0, 1, 0, 1), (2, 0, 1, 0, 2, 0), (1, 1, 1, 1, 1, 2)],
         (2, 2, 1, 2, 2, 1), 3),
        ([(2, 3, 0, 2), (1, 0, 2, 1), (0, 4, 0, 0)], (4, 3, 2, 2), 3),
    ]
    for _ in range(8):
        n = rng.randint(5, 6)
        caps = tuple(rng.randint(0, 2) for _ in range(n))
        vectors = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(2, 5))]
        vectors = [v for v in vectors if any(v)] or [(1,) * n]
        cases.append((vectors, caps, rng.randint(1, 3)))
    cases += [
        # vectors nonzero only on axis 0, which no mask trims: the shift
        # alone must keep x_0 >= v_0 and the level AND drop the bits past
        # the box, also with one over the cap on axis 0
        ([(1, 0, 0), (2, 0, 0)], (3, 1, 2), 4),
        ([(2, 0), (0, 1)], (3, 2), 4),
        ([(1, 0, 0), (4, 0, 0), (0, 1, 1)], (3, 2, 1), 3),
        ([(3,), (1,)], (3,), 4),
        ([(2, 0, 0, 0)], (1, 2, 2, 2), 2),
    ]
    return cases


@pytest.mark.parametrize("vectors, caps, kmax", _kfold_cases())
def test_kfold_sum_grids_match_explicit_k_sums(vectors, caps, kmax):
    box = list(itertools.product(*(range(c + 1) for c in caps)))  # C order
    levels = list(_kfold_bits(vectors, caps, kmax))
    assert len(levels) == kmax
    for k, bits in enumerate(levels, start=1):
        assert 0 <= bits < 1 << len(box)
        sums = brute_kfold_sums(vectors, caps, k)
        assert [x for i, x in enumerate(box) if bits >> i & 1] == [x for x in box if x in sums]


def test_kfold_memory_does_not_grow_with_the_vector_count():
    # the masks are per axis and threshold: the 255 nonzero 0/1 vectors
    # of [0,3]^8 need the same eight as its unit vectors; a mask per
    # vector would hold 255 bitsets of 8 KiB, about 2 MiB
    caps = (3,) * 8
    vectors = [v for v in itertools.product((0, 1), repeat=8) if any(v)]
    peaks = []
    units = [tuple(int(i == j) for j in range(8)) for i in range(8)]
    for vs in (units, vectors):
        tracemalloc.start()
        try:
            for bits in _kfold_bits(vs, caps, 2):
                pass
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 512 * 1024


@pytest.mark.parametrize("vectors, caps", [case[:2] for case in _kfold_cases()])
def test_packing_numbers_match_explicit_k_sums(vectors, caps):
    got = packing_numbers(vectors, caps)
    box = itertools.product(*(range(c + 1) for c in caps))  # C order
    assert type(got) is list and dict(zip(box, got)) == brute_packing_numbers(vectors, caps)


@pytest.mark.parametrize("caps", [(127,), (128,), (300,), (240, 60)])
def test_packing_numbers_reach_the_sum_of_caps(caps):
    # the unit vectors pack x_i times on axis i, so the last cell reaches
    # sum(caps), here past a byte
    got = packing_numbers([tuple(int(i == j) for j in range(len(caps))) for i in range(len(caps))], caps)
    assert got[-1] == sum(caps) and got[:caps[-1] + 1] == list(range(caps[-1] + 1))


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

    monkeypatch.setattr(polyhedra, "_ThresholdSets", unreachable)
    monkeypatch.setattr(polyhedra, "_threshold_levels", unreachable)
    monkeypatch.setattr(polyhedra, "_vertex_inequalities", unreachable)
    big = IncidenceMatrix(12, [(1,) * 12])
    with pytest.raises(ResourceGuardError, match="rounding box size"):
        integer_rounding_check(big, 3)
    with pytest.raises(ResourceGuardError, match="rounding box size"):
        integer_rounding_holds(big, 3)


def _rounding_decision_cases():
    ideals = random_ideals(3, 4, 3, 16, seed=41) + [
        # D = 2: not normal at level 1, and floor(lp/D) > nu at (1, 1)
        MonomialIdeal(2, [(2, 0), (0, 2)]),
        MonomialIdeal(3, [(2, 0, 1), (0, 2, 1)]),
        # a variable in no generator: the rounding box has cap wmax there,
        # the normality box cap 0
        MonomialIdeal(3, [(2, 0, 0), (1, 0, 1), (0, 0, 2)]),
        MonomialIdeal(3, [(2, 0, 0), (0, 0, 2)]),
        # D = 200, far past the values of [0, 3]
        MonomialIdeal(1, [(200,)]),
    ]
    clutters = [
        Clutter(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),  # D = 2, rounding holds
        Clutter(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]),
        # Q6, the triangles of K4 on its six edges: D = 1, and at w = 1
        # the LP value 2 is not reached by the packing number 1
        Clutter(6, [(0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5)]),
    ] + random_clutters(5, 6, 8, seed=42)
    return [ideal.matrix() for ideal in ideals] + [IncidenceMatrix.from_clutter(c) for c in clutters]


def test_packed_rounding_decision_is_the_floor_comparison():
    # integer_rounding_holds decides on packed levels; the reference is
    # lp // D == nu at every w, from brute-force values and the packing
    # numbers (checked against explicit k-sums above)
    seen = set()
    for a in _rounding_decision_cases():
        rows, den = _vertex_inequalities(a)
        for wmax in (0, 1, 2, 3):
            caps = (wmax,) * a.n
            nus = packing_numbers(a.columns, caps)
            expected = all(lp // den == nu for lp, nu in zip(_brute_values(caps, rows), nus))
            polyhedra._threshold_sets.cache_clear()  # cold: the rounding box is built first
            assert integer_rounding_holds(a, wmax) == expected, (a, wmax)
            # warm: after the normality box, as in an ideal instance
            polyhedra._level_gap([0], box_caps(a, 3), rows, den)
            assert integer_rounding_holds(a, wmax) == expected, (a, wmax)
            assert integer_rounding_check(a, wmax).holds == expected
            seen.add((den > 1, expected))
    assert seen == {(False, True), (False, False), (True, True), (True, False)}


def test_rounding_stops_drawing_levels_once_both_sides_are_empty(monkeypatch):
    # A = (1, 1): nu(w) = floor(lp(w)) = min(w), so at wmax 2 both sides
    # are empty at k = 3, before the sum(caps) = 4 levels asked for
    honest, drawn = polyhedra._kfold_bits, []

    def counted(vectors, caps, kmax):
        for level in honest(vectors, caps, kmax):
            drawn.append(level)
            yield level

    monkeypatch.setattr(polyhedra, "_kfold_bits", counted)
    assert integer_rounding_holds(IncidenceMatrix(2, [(1, 1)]), 2)
    assert len(drawn) == 3 and drawn[-1] == 0


def test_the_level_gap_kernel_names_a_faulty_cell_past_an_earlier_gap():
    # on [0,1]^2 with the row (1, 0) the cells (1, 0) and (1, 1) reach 1:
    # (1, 0) is a gap (in S_1, not in the level); (0, 1) is a level cell
    # whose value is below the unit: the error names (0, 1)
    with pytest.raises(ConsistencyError) as info:
        polyhedra._level_gap([0b1010], (1, 1), [(1, 0)], 1)
    assert info.value.to_json()["values"] == [{"k": 1, "cell": [0, 1], "value": 0}, 1]


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

    monkeypatch.setattr(polyhedra, "_ThresholdSets", unreachable)
    monkeypatch.setattr(polyhedra, "_threshold_levels", unreachable)
    monkeypatch.setattr(polyhedra, "_vertex_inequalities", unreachable)
    big = IncidenceMatrix(8, [(9,) * 8])
    with pytest.raises(ResourceGuardError, match="lattice box size = 100000000 "):
        minimal_lattice_points(big, 1)
    with pytest.raises(ResourceGuardError, match="lattice box size = 16983563041 "):
        integer_decomposition_check(big, 2)


def test_matrix_json_round_trip(identity3):
    assert IncidenceMatrix.from_json(identity3.to_json()) == identity3
