import itertools

import pytest

from clutterlab import (
    complete_admissible_uniform_clutter,
    edge_ideal,
    is_ntf_up_to,
    membership,
    power,
    power_membership,
    symbolic_power,
    symbolic_power_membership,
)
from clutterlab.certify import random_clutters, random_ideals
from clutterlab.ideals import _power_grid
from clutterlab.polyhedra import box_caps

from oracles import brute_minimal_covers, brute_power_generators, brute_symbolic_power


def _box(caps):
    return itertools.product(*(range(c + 1) for c in caps))


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
                assert power_membership(ideal, a, i) == expected


def test_power_rejects_exponent_zero(two_squares):
    with pytest.raises(ValueError, match="exponent"):
        power_membership(two_squares, (2, 0), 0)


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
        for i in (1, 2, 3):
            for g in power(ideal, i).generators:
                assert symbolic_power_membership(c, g, i)


def test_power_grid_cells_match_membership():
    for ideal in random_ideals(3, 3, 2, 10, seed=15):
        for i in (1, 2, 3):
            caps = box_caps(ideal.matrix(), i)
            grid = _power_grid(ideal, i, caps)
            assert grid.shape == tuple(c + 1 for c in caps)
            expanded = power(ideal, i)
            for a in _box(caps):
                assert bool(grid[a]) == membership(expanded, a)


def test_ntf_witness_is_symbolic_but_not_ordinary(c5):
    # the 5-cycle is not NTF: every minimal cover has 3 vertices, so
    # x0 x1 x2 x3 x4 lies in I^(3), but its degree 5 is below that of I^3
    assert is_ntf_up_to(c5, 2).holds
    verdict = is_ntf_up_to(c5, 3)
    assert not verdict.holds
    assert verdict.witness == (1, 1, 1, 1, 1)
    assert symbolic_power_membership(c5, verdict.witness, 3)
    assert not power_membership(edge_ideal(c5), verdict.witness, 3)
