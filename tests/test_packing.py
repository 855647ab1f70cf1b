import itertools
import random

import pytest

from clutterlab import (
    Clutter,
    Deadline,
    IncidenceMatrix,
    Poset,
    ResourceGuardError,
    alpha0,
    beta1,
    chain_order,
    clique_clutter,
    comparability_graph,
    complete_admissible_uniform_clutter,
    konig_certificate,
    lp_duality_integer_check,
    menger_oracle,
    mfmc_bounded,
    minimal_vertex_covers,
    parallelization,
)
from clutterlab.certify import all_posets, random_clutters, random_posets
from clutterlab.packing import (
    HasseNetwork,
    lex_min_cover,
    lex_min_matching,
    max_matching_size,
    menger_check,
    min_cover_size,
    weighted_sweep,
)
from clutterlab.polyhedra import ilp_max_packing
from clutterlab.structures import _bits, parallelize_masks

from oracles import brute_alpha0, brute_beta1, brute_minimal_covers


# ---------------------------------------------------------------------------
# Minimal vertex covers

def test_single_edge_covers(k3_clutter):
    assert [cs.vertices for cs in minimal_vertex_covers(k3_clutter)] == [(0,), (1,), (2,)]


def test_c5_has_five_covers_of_size_three(c5):
    covers = [cs.vertices for cs in minimal_vertex_covers(c5)]
    assert len(covers) == 5
    assert all(len(c) == 3 for c in covers)


def test_empty_edge_set_has_empty_cover():
    c = Clutter(3, [])
    assert [cs.vertices for cs in minimal_vertex_covers(c)] == [()]


def test_minimal_covers_against_brute_force():
    for c in random_clutters(6, 7, 25, seed=52):
        got = [cs.vertices for cs in minimal_vertex_covers(c)]
        assert got == brute_minimal_covers(c.n, c.edges)


# ---------------------------------------------------------------------------
# alpha0 / beta1 / Koenig

def test_c5_numbers(c5):
    assert alpha0(c5) == 3 and beta1(c5) == 2
    cert = konig_certificate(c5)
    assert not cert.holds
    assert cert.cover.vertices == (0, 1, 3)          # lex-least minimum cover
    assert cert.matching == ((0, 1), (2, 3))          # lex-least maximum matching


def test_triangle_clutter_numbers(k3_clutter):
    cert = konig_certificate(k3_clutter)
    assert cert.alpha0 == cert.beta1 == 1 and cert.holds


def test_diamond_clique_clutter_numbers():
    c = Clutter(4, [(0, 1, 3), (0, 2, 3)])
    cert = konig_certificate(c)
    assert cert.alpha0 == cert.beta1 == 1
    assert cert.cover.vertices == (0,)


def test_numbers_against_brute_force():
    for c in random_clutters(6, 7, 30, seed=53):
        assert alpha0(c) == brute_alpha0(c.n, c.edges)
        assert beta1(c) == brute_beta1(c.edges)


def test_witnesses_are_lex_least():
    rng = random.Random(8)
    for c in random_clutters(6, 6, 15, seed=54):
        cert = konig_certificate(c)
        masks = c.edge_masks
        # all covers of optimal size, lexicographically
        best = [
            s
            for s in itertools.combinations(range(c.n), cert.alpha0)
            if all(any(v in e for v in s) for e in c.edges)
        ]
        assert cert.cover.vertices == min(best)
        sets = [
            idxs
            for idxs in itertools.combinations(range(len(c.edges)), cert.beta1)
            if all(
                not set(c.edges[i]) & set(c.edges[j])
                for i, j in itertools.combinations(idxs, 2)
            )
        ]
        assert cert.matching == tuple(c.edges[i] for i in min(sets))


def test_konig_json_schema(c5):
    doc = konig_certificate(c5).to_json()
    assert doc == {
        "property": "konig",
        "verdict": "fails",
        "alpha0": 3,
        "beta1": 2,
        "cover": [0, 1, 3],
        "matching": [[0, 1], [2, 3]],
    }


def test_beta1_never_exceeds_alpha0():
    for c in random_clutters(6, 8, 40, seed=55):
        assert beta1(c) <= alpha0(c)


def test_comparability_clique_clutters_have_konig():
    for n, count in ((2, 3), (3, 8), (4, 8), (5, 8)):
        for p in random_posets(n, count, seed=100 + n):
            assert konig_certificate(clique_clutter(comparability_graph(p))).holds


# ---------------------------------------------------------------------------
# Bounded MFMC

def test_c5_fails_at_all_ones(c5):
    cert = mfmc_bounded(c5, 1)
    assert not cert.holds
    assert cert.witness["w"] == [1, 1, 1, 1, 1]
    assert cert.witness["konig"]["alpha0"] == 3
    assert cert.witness["konig"]["beta1"] == 2


def test_single_edge_holds():
    cert = mfmc_bounded(Clutter(2, [(0, 1)]), 3)
    assert cert.holds and cert.verdict == "holds-up-to-bound"
    assert cert.details["checked"] == 16


def test_comparability_clutters_hold_up_to_two():
    for p in random_posets(5, 6, seed=200):
        cl = clique_clutter(comparability_graph(p))
        assert mfmc_bounded(cl, 2).holds


def test_wmax_zero_rejected(c5):
    with pytest.raises(ValueError):
        mfmc_bounded(c5, 0)


def test_mfmc_deadline_trips_on_cauc33():
    with pytest.raises(ResourceGuardError):
        mfmc_bounded(complete_admissible_uniform_clutter(3, 3), 3, Deadline(50))


# ---------------------------------------------------------------------------
# Weighted sweep: alpha0 / beta1 of C^w from weights on C

def _small_posets():
    return [p for n in range(1, 5) for p in all_posets(n)]


def test_sweep_matches_parallelized_branch_and_bound_on_posets():
    for p in _small_posets():
        cl = clique_clutter(comparability_graph(p))
        net = HasseNetwork.of(p)
        sweep = list(weighted_sweep(cl, 2))
        assert [w for w, _, _ in sweep] == list(itertools.product(range(3), repeat=p.n))
        for w, a0, b1 in sweep:
            masks, _, _ = parallelize_masks(cl.edge_masks, w)
            assert (a0, b1) == (min_cover_size(masks), max_matching_size(masks))
            cut, flow, _, _ = menger_check(net, cl.edge_masks, w)
            assert (cut, flow) == (a0, b1)


def test_sweep_matches_parallelized_branch_and_bound_on_clutters():
    for c in random_clutters(5, 6, 60, seed=80):
        for w, a0, b1 in weighted_sweep(c, 2):
            masks, _, _ = parallelize_masks(c.edge_masks, w)
            assert (a0, b1) == (min_cover_size(masks), max_matching_size(masks))


def test_sweep_packing_number_is_the_integer_packing_ilp():
    for c in random_clutters(5, 6, 20, seed=81):
        a = IncidenceMatrix.from_clutter(c)
        for w, _, b1 in weighted_sweep(c, 3):
            assert b1 == ilp_max_packing(a, w)


def test_sweep_of_edgeless_clutter_is_zero():
    assert list(weighted_sweep(Clutter(2, []), 1)) == [
        (w, 0, 0) for w in itertools.product(range(2), repeat=2)
    ]


# ---------------------------------------------------------------------------
# LP duality integrality

def test_duality_triangle(k3_clutter):
    cert = lp_duality_integer_check(k3_clutter, (1, 1, 1))
    assert cert.holds
    assert cert.details == {"lp": "1", "int_min": 1, "int_max": 1}


def test_duality_c5_fails(c5):
    cert = lp_duality_integer_check(c5, (1,) * 5)
    assert not cert.holds
    assert cert.details == {"lp": "5/2", "int_min": 3, "int_max": 2}


def test_duality_diamond():
    c = Clutter(4, [(0, 1, 3), (0, 2, 3)])
    cert = lp_duality_integer_check(c, (1, 1, 1, 1))
    assert cert.holds and cert.details["lp"] == "1"


def test_duality_matches_konig_at_ones():
    for c in random_clutters(5, 6, 20, seed=60):
        cert = lp_duality_integer_check(c, (1,) * c.n)
        assert cert.details["int_min"] == alpha0(c)
        assert cert.details["int_max"] == beta1(c)


def test_duality_strong_duality_random_weights():
    # the min and max sides coincide over the rationals; the op asserts it
    rng = random.Random(61)
    for c in random_clutters(5, 6, 20, seed=62):
        w = tuple(rng.randint(0, 3) for _ in range(c.n))
        lp_duality_integer_check(c, w)  # assertion inside


# ---------------------------------------------------------------------------
# Menger oracle

def test_chain_single_path(chain3):
    cert = menger_oracle(chain3, (1, 1, 1))
    assert cert.alpha0 == cert.beta1 == 1
    assert cert.matching == ((0, 1, 2),)


def test_diamond_flow(diamond_poset):
    cert = menger_oracle(diamond_poset, (1, 1, 1, 1))
    assert cert.alpha0 == cert.beta1 == 1
    assert cert.cover.vertices == (0,)


def test_cauc22_two_disjoint_paths():
    from clutterlab import cauc_poset

    cert = menger_oracle(cauc_poset(2, 2), (1, 1, 1, 1))
    assert cert.beta1 == 2 and cert.alpha0 == 2


def test_menger_instance_structure(diamond_poset):
    net = HasseNetwork.of(diamond_poset)
    # cover pairs only: (0,3) is skipped because 1 and 2 sit between
    assert net.arcs == ((0, 1), (0, 2), (1, 3), (2, 3))
    assert net.sources == (0,) and net.sinks == (3,)


def test_hasse_chains_expand_to_parallelized_cliques():
    # source-sink paths of the Hasse diagram avoiding weight-0 vertices,
    # each vertex replaced by any of its copies, are the edges of C^w
    for p in _small_posets():
        cl = clique_clutter(comparability_graph(p))
        chains = HasseNetwork.of(p).chains()
        for w in itertools.product(range(3), repeat=p.n):
            cw = parallelization(cl, w)
            _, _, origins = parallelize_masks(cl.edge_masks, w)
            copies = {}
            for j, (v, _) in enumerate(origins):
                copies.setdefault(v, []).append(j)
            expanded = {
                tuple(sorted(choice))
                for m in chains
                if all(w[v] for v in _bits(m))
                for choice in itertools.product(*(copies[v] for v in _bits(m)))
            }
            assert expanded == set(cw.edges)


def test_menger_with_deleted_vertices(diamond_poset):
    # deleting the bottom kills every maximal clique through it
    cert = menger_oracle(diamond_poset, (0, 1, 1, 1))
    assert cert.alpha0 == cert.beta1
    cw = parallelization(
        clique_clutter(comparability_graph(diamond_poset)), (0, 1, 1, 1)
    )
    ref = konig_certificate(cw)
    assert (cert.alpha0, cert.beta1) == (ref.alpha0, ref.beta1)


def test_menger_empty_when_all_cliques_die(chain3):
    cert = menger_oracle(chain3, (1, 0, 1))
    assert cert.alpha0 == cert.beta1 == 0
    assert cert.matching == () and cert.cover.vertices == ()


def test_menger_isolated_vertices_are_trivial_paths():
    p = Poset(3, [])  # antichain
    cert = menger_oracle(p, (2, 1, 1))
    assert cert.beta1 == 4 == cert.alpha0


def test_menger_agrees_with_konig_small_corpus():
    for n, count in ((2, 3), (3, 6), (4, 6)):
        for p in random_posets(n, count, seed=300 + n):
            cl = clique_clutter(comparability_graph(p))
            for w in itertools.product(range(3), repeat=n):
                ref = konig_certificate(parallelization(cl, w))
                got = menger_oracle(p, w)
                assert (got.alpha0, got.beta1) == (ref.alpha0, ref.beta1)
                assert ref.holds


# ---------------------------------------------------------------------------
# Chain sortability (tournament Hamiltonian-path step)

def test_cliques_sort_into_chains():
    for p in random_posets(6, 15, seed=70):
        cl = clique_clutter(comparability_graph(p))
        for e in cl.edges:
            ordered = chain_order(p, e)
            assert sorted(ordered) == sorted(e)
            assert all(p.less(a, b) for a, b in zip(ordered, ordered[1:]))


def test_chain_order_rejects_antichain():
    p = Poset(3, [])
    with pytest.raises(ValueError):
        chain_order(p, (0, 1))


# ---------------------------------------------------------------------------
# Kernel helpers

def test_lex_kernels_consistency():
    rng = random.Random(9)
    for c in random_clutters(6, 6, 10, seed=71):
        masks = c.edge_masks
        a0 = min_cover_size(masks)
        b1 = max_matching_size(masks)
        cover = lex_min_cover(masks, c.n, a0)
        assert len(cover) == a0
        matching = lex_min_matching(masks, b1)
        assert len(matching) == b1
