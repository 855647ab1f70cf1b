import itertools
import math
import operator
import random
import tracemalloc

import pytest

from clutterlab import (
    Clutter,
    MonomialIdeal,
    complete_admissible_uniform_clutter,
    edge_ideal,
    is_normal_up_to,
    is_ntf_up_to,
    membership,
    normality_gap,
    power,
    symbolic_power,
)
from clutterlab.certify import Bounds, check_clutter_instance, random_clutters, random_ideals
from clutterlab.guards import ResourceGuardError
from clutterlab import ideals, polyhedra
from clutterlab.ideals import _power_grids
from clutterlab.packing import _cover_matrix
from clutterlab.polyhedra import (
    box_caps,
    integer_decomposition_check,
    minimal_lattice_points,
)

from oracles import (
    brute_lattice_points_of_scaled_blocker,
    brute_minimal_covers,
    brute_power_generators,
    brute_symbolic_power,
    brute_symbolic_power_membership,
    minimalize,
)

C5 = Clutter(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
# two vertex-disjoint triangles: neither normal (x0...x5 lies in the
# integral closure of I^3 only) nor NTF
TWO_TRIANGLES = Clutter(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])


def _box(caps):
    return itertools.product(*(range(c + 1) for c in caps))


def test_the_constructor_keeps_the_pairwise_minimal_generators():
    # one scan in order of coordinate sum keeps what the pairwise filter
    # keeps, on shuffled generators with duplicates and dominated ones
    rng = random.Random(35)
    for _ in range(300):
        n = rng.randint(1, 4)
        gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 12))]
        gens = [g for g in gens if any(g)] or [(1,) * n]
        gens += rng.choices(gens, k=3)
        rng.shuffle(gens)
        assert list(MonomialIdeal(n, gens).generators) == minimalize(gens)


def test_symbolic_power_makes_no_pairwise_domination_test(monkeypatch):
    # the 175 minimal cells of cauc(3,3)'s third symbolic power are kept
    # by the sum-ordered scan; a pairwise filter made 30,450 calls here
    calls = []
    monkeypatch.setattr(ideals, "dominates", lambda a, b: calls.append(1) or all(map(operator.ge, a, b)))
    c = complete_admissible_uniform_clutter(3, 3)
    gens = symbolic_power(c, 3).generators
    assert calls == [] and len(gens) == 175
    assert list(gens) == brute_symbolic_power(c.n, brute_minimal_covers(c.n, c.edges), 3)


def test_power_matches_brute_force():
    for ideal in random_ideals(3, 4, 2, 15, seed=11):
        for i in (1, 2, 3):
            assert list(power(ideal, i).generators) == brute_power_generators(ideal.generators, i)


def test_power_membership_matches_brute_force():
    for ideal in random_ideals(3, 3, 2, 10, seed=12):
        for i in (1, 2, 3):
            gens = brute_power_generators(ideal.generators, i)
            for a in _box(box_caps(ideal.matrix(), i)):
                expected = any(all(x >= y for x, y in zip(a, g)) for g in gens)
                assert membership(power(ideal, i), a) == expected


@pytest.mark.parametrize("a", [(2,), (0, 2, 5)])
def test_membership_rejects_a_vector_of_the_wrong_length(two_squares, a):
    # zipped against the generators, (2,) would dominate x^2
    with pytest.raises(ValueError, match=f"^exponent vector has length {len(a)}, expected 2$"):
        membership(two_squares, a)


def test_power_rejects_exponent_zero(two_squares):
    with pytest.raises(ValueError, match="exponent"):
        power(two_squares, 0)


def test_symbolic_power_matches_brute_force():
    for c in random_clutters(5, 5, 12, seed=13):
        covers = brute_minimal_covers(c.n, c.edges)
        for i in (1, 2, 3):
            got = list(symbolic_power(c, i).generators)
            assert got == brute_symbolic_power(c.n, covers, i)


def _inclusion_corpus():
    return random_clutters(5, 6, 12, seed=14) + [
        complete_admissible_uniform_clutter(2, 2),
        complete_admissible_uniform_clutter(2, 3),
    ]


def test_ordinary_power_lies_in_symbolic_power():
    # I^i <= I^(i) holds for every ideal; is_ntf_up_to relies on it and
    # checks only the reverse inclusion
    for c in _inclusion_corpus():
        ideal = edge_ideal(c)
        covers = brute_minimal_covers(c.n, c.edges)
        for i in (1, 2, 3):
            for g in power(ideal, i).generators:
                assert brute_symbolic_power_membership(covers, g, i)


def test_power_grid_cells_match_membership():
    # every level is packed over the last box, bit idx(a) = the flat
    # C-order index of a: check each cell of the last box, which holds
    # each level's own box
    for ideal in random_ideals(3, 3, 2, 10, seed=15):
        boxes = tuple(box_caps(ideal.matrix(), i) for i in (1, 2, 3))
        shape = tuple(c + 1 for c in boxes[-1])
        levels = _power_grids(ideal, boxes)
        assert len(levels) == 3
        for i, level in enumerate(levels, start=1):
            assert 0 <= level < 1 << math.prod(shape)
            expanded = power(ideal, i)
            for idx, a in enumerate(_box(boxes[-1])):  # C order
                assert bool(level >> idx & 1) == membership(expanded, a)


def test_power_grid_is_read_only(two_squares):
    # the levels are Python ints, which no reader can write to, and the
    # cache hands every reader the one chain it built
    boxes = ((2, 2), (4, 4))
    levels = _power_grids(two_squares, boxes)
    assert type(levels) is tuple and all(type(level) is int for level in levels)
    assert _power_grids(two_squares, boxes) is levels
    # no bit past the 25 cells of the last box
    assert all(0 < level < 1 << 25 for level in levels)


def test_a_clutter_instance_builds_each_power_grid_once():
    # one chain of levels 1..3, built by NTF and read by normality
    _power_grids.cache_clear()
    check_clutter_instance(complete_admissible_uniform_clutter(2, 3), Bounds())
    info = _power_grids.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_a_tripped_guard_caches_no_power_grid():
    _power_grids.cache_clear()
    with pytest.raises(ResourceGuardError, match="power grid size"):
        is_normal_up_to(edge_ideal(Clutter(22, [range(22)])), 1)
    assert _power_grids.cache_info().currsize == 0


def test_a_level_below_the_guard_still_decides_normality(monkeypatch):
    # <x^2, y^2>: the level-1 box [0,2]^2 (9 cells) is admitted, the
    # level-2 box [0,4]^2 (25 cells) is not; (1, 1) lies in the integral
    # closure of I but not in I, so the verdict needs no larger level
    monkeypatch.setattr(polyhedra, "MAX_GRID_POINTS", 9)
    squares = MonomialIdeal(2, [(2, 0), (0, 2)])
    # the level-2 power grid guard does not fire; the explanation's
    # integer-decomposition check over the kmax box [0,6]^2 does, and the
    # verdict is kept with that check marked as skipped
    verdict = is_normal_up_to(squares, 3)
    assert verdict.kind == "not-normal"
    assert verdict.explanation["level"] == 1 and verdict.witness == (1, 1)
    assert verdict.explanation["integer_decomposition"] is None
    assert verdict.explanation["idp_skipped"] == "lattice box size = 49 exceeds guard limit 9"
    assert verdict.explanation["idp_witness"] is None
    # a normal ideal is checked up to the guard, which then fires at the
    # first oversize level: [0,3]^2 for <x, y>
    with pytest.raises(ResourceGuardError, match="power grid size = 16 exceeds guard limit 9"):
        is_normal_up_to(MonomialIdeal(2, [(1, 0), (0, 1)]), 3)


def test_a_level_below_the_guard_still_decides_ntf(monkeypatch):
    # the 5-cycle first fails NTF at level 3, whose box [0,3]^5 has 1024
    # cells; the level-4 box is over the guard but not needed
    monkeypatch.setattr(polyhedra, "MAX_GRID_POINTS", 4 ** 5)
    verdict = is_ntf_up_to(C5, 4)
    assert verdict.kind == "not-ntf" and verdict.witness == (1, 1, 1, 1, 1)
    # NTF holds at levels 1 and 2, so the level-3 guard fires
    monkeypatch.setattr(polyhedra, "MAX_GRID_POINTS", 3 ** 5)
    with pytest.raises(ResourceGuardError, match="lattice box size = 1024 exceeds guard limit 243"):
        is_ntf_up_to(C5, 3)


def test_ntf_witness_is_symbolic_but_not_ordinary(c5):
    # the 5-cycle is not NTF: every minimal cover has 3 vertices, so
    # x0 x1 x2 x3 x4 lies in I^(3), but its degree 5 is below that of I^3
    assert is_ntf_up_to(c5, 2).holds
    verdict = is_ntf_up_to(c5, 3)
    assert not verdict.holds
    assert verdict.witness == (1, 1, 1, 1, 1)
    assert brute_symbolic_power_membership(brute_minimal_covers(5, c5.edges), verdict.witness, 3)
    assert not membership(power(edge_ideal(c5), 3), verdict.witness)


def _normality_corpus():
    # (x^3, y^3) misses three cells of its closure, (1,2) first
    ideals = random_ideals(3, 3, 3, 12, seed=21) + random_ideals(3, 4, 2, 8, seed=3)
    ideals.append(MonomialIdeal(2, [(3, 0), (0, 3)]))
    clutters = random_clutters(5, 6, 10, seed=22) + [C5]
    return ideals + [edge_ideal(c) for c in clutters]


def _first_non_normal_point(generators, kmax):
    """(level, lex-first lattice point of k*B(Q) in the box outside I^k)."""
    n = len(generators[0])
    for k in range(1, kmax + 1):
        caps = tuple(k * max(g[i] for g in generators) for i in range(n))
        power_gens = brute_power_generators(generators, k)
        for a in brute_lattice_points_of_scaled_blocker(generators, k, caps):
            if not any(all(x >= y for x, y in zip(a, g)) for g in power_gens):
                return k, a
    return None


def test_is_normal_up_to_matches_brute_force():
    # the two triangles are the level-3 non-normal instance
    outcomes = set()
    for ideal in _normality_corpus() + [edge_ideal(TWO_TRIANGLES)]:
        expected = _first_non_normal_point(list(ideal.generators), 3)
        verdict = is_normal_up_to(ideal, 3)
        outcomes.add(verdict.holds)
        assert verdict.holds == (expected is None), ideal
        if expected is not None:
            assert (verdict.explanation["level"], verdict.witness) == expected, ideal
    assert outcomes == {True, False}


def test_normality_is_the_decomposition_criterion():
    # the paper's criterion: I is normal up to kmax iff every minimal
    # lattice point of B(Q) is a column and B(Q) has the integer
    # decomposition property up to kmax
    levels = set()
    for ideal in _normality_corpus() + [edge_ideal(TWO_TRIANGLES)]:
        a = ideal.matrix()
        for kmax in (1, 2, 3):
            criterion = set(minimal_lattice_points(a, 1)) <= set(ideal.generators)
            if kmax >= 2:
                criterion = criterion and integer_decomposition_check(a, kmax).holds
            verdict = is_normal_up_to(ideal, kmax)
            assert verdict.holds == criterion, (ideal, kmax)
            if not verdict.holds:
                levels.add(verdict.explanation["level"])
    assert {1, 3} <= levels


def _first_missing_symbolic_generator(c, imax):
    """(level, lex-first minimal generator of I^(i) not among those of I^i)."""
    covers = brute_minimal_covers(c.n, c.edges)
    edges = [tuple(int(v in e) for v in range(c.n)) for e in c.edges]
    for i in range(1, imax + 1):
        ordinary = set(brute_power_generators(edges, i))
        missing = [g for g in brute_symbolic_power(c.n, covers, i) if g not in ordinary]
        if missing:
            return i, missing[0]
    return None


def test_ntf_witness_is_the_first_missing_symbolic_generator():
    corpus = random_clutters(5, 6, 15, seed=23) + [
        C5,
        TWO_TRIANGLES,
        complete_admissible_uniform_clutter(2, 2),
        complete_admissible_uniform_clutter(2, 3),
        complete_admissible_uniform_clutter(3, 2),
    ]
    outcomes = set()
    for c in corpus:
        expected = _first_missing_symbolic_generator(c, 3)
        verdict = is_ntf_up_to(c, 3)
        outcomes.add(verdict.holds)
        assert verdict.holds == (expected is None), c
        if expected is not None:
            assert (verdict.explanation["level"], verdict.witness) == expected, c
    assert outcomes == {True, False}


def _with_unused_variable(ideal, at):
    """The ideal with a new variable at position ``at`` in no generator."""
    return MonomialIdeal(ideal.n + 1, [g[:at] + (0,) + g[at:] for g in ideal.generators])


def test_normality_gap_is_the_lex_first_gap_of_each_level_box():
    # the packed scan reads every level over the last box; the reference
    # scans each level's own box in lex order
    rng = random.Random(31)
    squares = MonomialIdeal(2, [(2, 0), (0, 2)])
    corpus = random_ideals(3, 4, 3, 14, seed=31)
    corpus += [_with_unused_variable(ideal, rng.randint(0, ideal.n)) for ideal in corpus[:6]]
    corpus += [
        squares,  # not normal at level 1, witness (1, 1)
        MonomialIdeal(2, [(3, 0), (0, 3)]),
        _with_unused_variable(squares, 0),
        _with_unused_variable(squares, 1),
        _with_unused_variable(squares, 2),
        edge_ideal(TWO_TRIANGLES),  # first not normal at level 3
    ]
    levels = set()
    for ideal in corpus:
        for kmax in (1, 2, 3):
            expected = _first_non_normal_point(list(ideal.generators), kmax)
            assert normality_gap(ideal, kmax) == expected, (ideal, kmax)
            levels.add(expected and expected[0])
    assert levels >= {None, 1, 3}
    assert normality_gap(_with_unused_variable(squares, 1), 3) == (1, (1, 0, 1))


def _first_ntf_gap(c, imax):
    """(level, lex-first cell of [0, i]^n in I^(i) but not in I^i)."""
    covers = brute_minimal_covers(c.n, c.edges)
    edges = [tuple(int(v in e) for v in range(c.n)) for e in c.edges]
    for i in range(1, imax + 1):
        gens = brute_power_generators(edges, i)
        for a in _box((i,) * c.n):
            if brute_symbolic_power_membership(covers, a, i) and not any(
                all(x >= y for x, y in zip(a, g)) for g in gens
            ):
                return i, a
    return None


def test_ntf_witness_is_the_lex_first_gap_of_each_level_box():
    # a vertex in no edge has coefficient 0 in every minimal cover, so its
    # axis repeats the threshold sets of the axes after it
    corpus = random_clutters(5, 6, 14, seed=32) + [
        C5,
        TWO_TRIANGLES,
        Clutter(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),  # C5 and vertex 5
        Clutter(4, [(1, 2), (2, 3), (1, 3)]),  # a triangle and vertex 0
        Clutter(5, [(0, 1), (0, 4), (1, 4)]),
    ]
    outcomes, unused = set(), False
    for c in corpus:
        unused |= not all(map(any, zip(*_cover_matrix(c))))
        for imax in (1, 2, 3):
            expected = _first_ntf_gap(c, imax)
            verdict = is_ntf_up_to(c, imax)
            got = None if verdict.holds else (verdict.explanation["level"], verdict.witness)
            assert got == expected, (c, imax)
            outcomes.add(expected and expected[0])
    assert outcomes >= {None, 2, 3} and unused


def test_ntf_peak_memory_is_a_few_box_arrays():
    # cauc(5, 2) at level 3: 4^10 cells, 1 MB per int8 box array (the
    # minimal-cover sums reach 3 * 5 = 15); a (cells x n) point array
    # alone would take 80 MB in int64
    c = complete_admissible_uniform_clutter(5, 2)
    tracemalloc.start()
    try:
        assert is_ntf_up_to(c, 3).holds
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 4 ** 10


def test_guard_messages_name_the_box_built_first():
    # a guard's message is the skip reason in a certify report
    wide = Clutter(22, [range(22)])
    with pytest.raises(ResourceGuardError, match="lattice box size = 4194304"):
        is_ntf_up_to(wide, 1)
    with pytest.raises(ResourceGuardError, match="power grid size = 4194304"):
        is_normal_up_to(edge_ideal(wide), 1)
