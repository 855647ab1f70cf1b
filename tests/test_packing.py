import functools
import hashlib
import itertools
import json
import operator
import random
import re

import pytest

from clutterlab import (
    Clutter,
    Deadline,
    cauc_poset,
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
from clutterlab import packing, polyhedra
from clutterlab.certify import all_posets, comparability_mfmc_check, random_clutters, random_posets
from clutterlab.guards import ConsistencyError
from clutterlab.packing import (
    HasseNetwork,
    gray_steps,
    konig_numbers,
    lex_min_cover,
    lex_min_matching,
    max_matching_size,
    menger_check,
    menger_walk,
    min_cover_size,
    sweep_levels,
)
from clutterlab.polyhedra import format_rational, ilp_max_packing, q_vertices, simplex_max
from clutterlab.structures import _bits, parallelize_masks

from oracles import (
    brute_alpha0,
    brute_beta1,
    brute_cut_meets_surviving_chains,
    brute_lex_min_cover,
    brute_lex_min_matching,
    brute_maximal_cliques,
    brute_minimal_covers,
    brute_packing_numbers,
    reference_sweep_numbers,
)


# ---------------------------------------------------------------------------
# Minimal vertex covers

def test_single_edge_covers(k3_clutter):
    assert minimal_vertex_covers(k3_clutter) == [(0,), (1,), (2,)]


def test_c5_has_five_covers_of_size_three(c5):
    covers = minimal_vertex_covers(c5)
    assert len(covers) == 5
    assert all(len(c) == 3 for c in covers)


def test_empty_edge_set_has_empty_cover():
    c = Clutter(3, [])
    assert minimal_vertex_covers(c) == [()]


def test_minimal_covers_against_brute_force():
    for c in random_clutters(6, 7, 25, seed=52):
        got = minimal_vertex_covers(c)
        assert got == brute_minimal_covers(c.n, c.edges)
    cauc = [complete_admissible_uniform_clutter(d, g) for d in range(2, 5) for g in range(2, 5) if d * g <= 9]
    cliques = [clique_clutter(comparability_graph(p)) for p in random_posets(7, 20, seed=4)]
    # vertices in no edge are in no minimal cover
    isolated = [Clutter(c.n + 2, c.edges) for c in random_clutters(6, 7, 10, seed=53)]
    isolated += [Clutter(4, [(1,)]), Clutter(5, [(0, 2), (2, 4)])]
    for c in cauc + cliques + isolated:
        assert minimal_vertex_covers(c) == brute_minimal_covers(c.n, c.edges), c.edges


# sha256 of the JSON lists of minimal covers that the recursive search
# with a minimality filter (the formulation before Berge's multiplication)
# returned on this corpus of 294 clutters
COVER_CORPUS_SHA256 = "53660baaf9a0db4e7415dd91fe01930612dea6d9fc29c165c8a8426691ec6975"


def test_minimal_covers_keep_the_recursive_search_lists():
    cl = (
        [complete_admissible_uniform_clutter(d, g) for d in (2, 3) for g in (2, 3, 4, 5)]
        + [complete_admissible_uniform_clutter(d, g) for d, g in [(4, 2), (4, 3), (4, 4), (5, 3)]]
        + random_clutters(6, 10, 200, seed=1)
        + random_clutters(12, 40, 40, seed=3)
        + [clique_clutter(comparability_graph(p)) for p in random_posets(8, 40, seed=3)]
        + [Clutter(0, []), Clutter(3, [])]
    )
    assert len(cl) == 294
    covers = json.dumps([minimal_vertex_covers(c) for c in cl]).encode()
    assert hashlib.sha256(covers).hexdigest() == COVER_CORPUS_SHA256


def test_the_cover_family_is_guarded_before_it_is_built(monkeypatch):
    # before the tenth of ten disjoint pairs the family holds 2^9 covers,
    # each growing into 2: 1024 candidates
    pairs = Clutter(20, [(2 * i, 2 * i + 1) for i in range(10)])
    monkeypatch.setattr(packing, "MAX_COVER_SUBSETS", 1000)
    with pytest.raises(ResourceGuardError, match="^cover family size = 1024 exceeds guard limit 1000$"):
        minimal_vertex_covers(pairs)
    monkeypatch.setattr(packing, "MAX_COVER_SUBSETS", 1024)
    assert len(minimal_vertex_covers(pairs)) == 1024


# ---------------------------------------------------------------------------
# alpha0 / beta1 / Koenig

def test_c5_numbers(c5):
    assert alpha0(c5) == 3 and beta1(c5) == 2
    cert = konig_certificate(c5)
    assert not cert.holds
    assert cert.cover == (0, 1, 3)          # lex-least minimum cover
    assert cert.matching == ((0, 1), (2, 3))          # lex-least maximum matching


def test_triangle_clutter_numbers(k3_clutter):
    cert = konig_certificate(k3_clutter)
    assert cert.alpha0 == cert.beta1 == 1 and cert.holds


def test_diamond_clique_clutter_numbers():
    c = Clutter(4, [(0, 1, 3), (0, 2, 3)])
    cert = konig_certificate(c)
    assert cert.alpha0 == cert.beta1 == 1
    assert cert.cover == (0,)


def test_numbers_against_brute_force():
    for c in random_clutters(6, 7, 30, seed=53):
        assert alpha0(c) == brute_alpha0(c.n, c.edges)
        assert beta1(c) == brute_beta1(c.edges)


# the triangles of K4, on its six edges 01, 02, 03, 12, 13, 23
Q6 = Clutter(6, [(0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5)])


def _witnesses_are_lex_least(c):
    cert = konig_certificate(c)
    assert cert.cover == brute_lex_min_cover(c.n, c.edges)
    assert cert.matching == tuple(c.edges[j] for j in brute_lex_min_matching(c.edges))
    assert (cert.alpha0, cert.beta1) == (len(cert.cover), len(cert.matching))


def test_witnesses_are_lex_least():
    for c in random_clutters(6, 8, 60, seed=54):
        _witnesses_are_lex_least(c)


def test_konig_witnesses_are_lex_least_on_parallelizations(c5):
    rng = random.Random(58)
    for c, wmax in ((c5, 2), (Q6, 2)):
        for w in [(1,) * c.n] + [tuple(rng.randint(0, wmax) for _ in range(c.n)) for _ in range(8)]:
            _witnesses_are_lex_least(parallelization(c, w))


def test_konig_witnesses_break_ties_lexicographically():
    # the 4-cycle: covers {0, 2} and {1, 3}, matchings {01, 23} and {12, 03}
    c4 = Clutter(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    _witnesses_are_lex_least(c4)
    cert = konig_certificate(c4)
    assert cert.cover == (0, 2)
    assert cert.matching == ((0, 1), (2, 3))
    # Q6 at w = 1: three minimum covers of size 2, four maximum matchings
    assert konig_certificate(Q6).to_json() == {
        "property": "konig", "verdict": "fails", "alpha0": 2, "beta1": 1,
        "cover": [0, 5], "matching": [[0, 1, 3]],
    }


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


def test_konig_certificate_identities_against_brute_force():
    for c in random_clutters(6, 7, 30, seed=56):
        cert = konig_certificate(c)
        assert (cert.alpha0, cert.beta1) == (brute_alpha0(c.n, c.edges), brute_beta1(c.edges))
        assert len(cert.cover) == cert.alpha0
        assert all(set(e) & set(cert.cover) for e in c.edges)
        assert len(cert.matching) == cert.beta1 and set(cert.matching) <= set(c.edges)
        assert all(not set(e) & set(f) for e, f in itertools.combinations(cert.matching, 2))
        assert cert.beta1 <= cert.alpha0


def test_konig_searches_honour_the_deadline(c5, clock):
    with Deadline(50):
        clock.now += 0.060
        with pytest.raises(ResourceGuardError, match="exceeded 50 ms"):
            lex_min_cover(c5.edge_masks)
        with pytest.raises(ResourceGuardError, match="exceeded 50 ms"):
            lex_min_matching(c5.edge_masks)
        with pytest.raises(ResourceGuardError, match="exceeded 50 ms"):
            konig_certificate(c5)


class CountingDeadline(Deadline):
    def __init__(self) -> None:
        super().__init__(None)
        self.calls = 0

    def check(self) -> None:
        self.calls += 1


def test_mfmc_witness_search_checks_the_deadline(c5):
    # one check once the box is priced, the rest in the Koenig search on C^w
    with CountingDeadline() as deadline:
        assert not mfmc_bounded(c5, 1).holds
    assert deadline.calls > 1


def test_mfmc_witness_search_disagreeing_with_the_sweep_raises(c5, padded_cover_search):
    with pytest.raises(ConsistencyError) as exc:
        mfmc_bounded(c5, 1)
    assert exc.value.to_json() == {
        "check": "alpha0/beta1 of C^w from weights on C = Koenig search on C^w",
        "values": [[3, 2], [4, 2]],
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


def test_mfmc_deadline_trips_on_cauc33(clock, monkeypatch):
    # deciding the box outlasts the budget: the deadline is checked once the
    # box is decided, before any Koenig search
    honest = packing.sweep_levels

    def slow_pricing(c, wmax):
        priced = honest(c, wmax)
        clock.now += 0.060
        return priced

    def unreachable(*args, **kwargs):
        raise AssertionError("a Koenig search ran past the deadline")

    monkeypatch.setattr(packing, "sweep_levels", slow_pricing)
    for search in ("lex_min_cover", "lex_min_matching"):
        monkeypatch.setattr(packing, search, unreachable)
    with pytest.raises(ResourceGuardError, match="exceeded 50 ms"):
        with Deadline(50):
            mfmc_bounded(complete_admissible_uniform_clutter(3, 3), 3)


# ---------------------------------------------------------------------------
# Weighted sweep: alpha0 / beta1 of C^w from weights on C

def _small_posets():
    return [p for n in range(1, 5) for p in all_posets(n)]


def _sweep(c, wmax):
    """(w, alpha0(C^w), beta1(C^w)) in lexicographic w order."""
    taus, nus = reference_sweep_numbers(c, wmax)
    return list(zip(itertools.product(range(wmax + 1), repeat=c.n), taus, nus))


def test_sweep_matches_parallelized_branch_and_bound_on_posets():
    for p in _small_posets():
        cl = clique_clutter(comparability_graph(p))
        net = HasseNetwork.of(p)
        sweep = _sweep(cl, 2)
        assert [w for w, _, _ in sweep] == list(itertools.product(range(3), repeat=p.n))
        for w, a0, b1 in sweep:
            masks, _, _ = parallelize_masks(cl.edge_masks, w)
            assert (a0, b1) == (min_cover_size(masks), max_matching_size(masks))
            cut, flow, _, _ = menger_check(net, cl.edge_masks, w)
            assert (cut, flow) == (a0, b1)


def test_sweep_matches_parallelized_branch_and_bound_on_clutters():
    for c in random_clutters(5, 6, 60, seed=80):
        for w, a0, b1 in _sweep(c, 2):
            masks, _, _ = parallelize_masks(c.edge_masks, w)
            assert (a0, b1) == (min_cover_size(masks), max_matching_size(masks))


def test_sweep_numbers_match_brute_force_on_random_clutters():
    # per w, against itertools: alpha0(C^w) is the least w-weight of any
    # vertex set meeting every edge, beta1(C^w) the packing number by
    # explicit k-sums of the edge rows; the packed sweep's levels hold the
    # same beta1, its failing set is exactly the w where the two differ,
    # and the MFMC witness is that set's lex-first w
    seen = set()
    odd_cycle = Clutter(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    q6 = Clutter(6, [(0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5)])
    for c in random_clutters(5, 6, 24, seed=82) + [odd_cycle, q6]:
        wmax = 2
        rows = [tuple(int(v in e) for v in range(c.n)) for e in c.edges]
        packing_ref = brute_packing_numbers(rows, (wmax,) * c.n)
        covers = [s for r in range(c.n + 1) for s in itertools.combinations(range(c.n), r)
                  if all(set(e) & set(s) for e in c.edges)]
        box = list(itertools.product(range(wmax + 1), repeat=c.n))
        taus = [min(sum(w[v] for v in s) for s in covers) for w in box]
        nus = [packing_ref[w] for w in box]
        assert reference_sweep_numbers(c, wmax) == (taus, nus)
        nu_sets, failing = sweep_levels(c, wmax)
        assert polyhedra._cell_list(nu_sets, len(box)) == nus
        assert failing == sum(1 << i for i, (tau, nu) in enumerate(zip(taus, nus)) if tau != nu)
        assert konig_numbers(c, wmax, nu_sets, failing, (1 << len(box)) - 1) == [
            (list(w), [tau, nu]) for w, tau, nu in zip(box, taus, nus)]
        cert = mfmc_bounded(c, wmax)
        if failing:
            first = (failing & -failing).bit_length() - 1
            assert cert.witness["w"] == list(box[first]) and cert.details["checked"] == first + 1
        assert cert.holds == (not failing)
        seen.add(not failing)
    assert seen == {True, False}


def test_sweep_packing_number_is_the_integer_packing_ilp():
    for c in random_clutters(5, 6, 20, seed=81):
        a = IncidenceMatrix.from_clutter(c)
        for w, _, b1 in _sweep(c, 3):
            assert b1 == ilp_max_packing(a, w)


def test_sweep_of_edgeless_clutter_is_zero():
    assert _sweep(Clutter(2, []), 1) == [
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
    # LP duality: the packing LP's simplex value is the least <w, ell> over
    # the vertices of Q(A), which is the reported LP value
    rng = random.Random(61)
    for c in random_clutters(5, 6, 20, seed=62):
        w = tuple(rng.randint(0, 3) for _ in range(c.n))
        a = IncidenceMatrix.from_clutter(c)
        lp, _ = simplex_max([1] * a.q, a.rows(), w)
        assert lp == min(sum(x * y for x, y in zip(w, v)) for v in q_vertices(a))
        assert lp_duality_integer_check(c, w).details["lp"] == format_rational(lp)


# ---------------------------------------------------------------------------
# Menger oracle

def test_chain_single_path(chain3):
    cert = menger_oracle(chain3, (1, 1, 1))
    assert cert.alpha0 == cert.beta1 == 1
    assert cert.matching == ((0, 1, 2),)


def test_diamond_flow(diamond_poset):
    cert = menger_oracle(diamond_poset, (1, 1, 1, 1))
    assert cert.alpha0 == cert.beta1 == 1
    assert cert.cover == (0,)


def test_cauc22_two_disjoint_paths():
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
    assert cert.matching == () and cert.cover == ()


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
# Gray-code walk of the w-box

@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("wmax", [1, 2, 3])
def test_gray_steps_visit_every_w_once(n, wmax):
    w = [0] * n
    visited = [tuple(w)]
    for v, d in gray_steps(n, wmax):
        assert d in (1, -1)
        w[v] += d
        assert 0 <= w[v] <= wmax
        visited.append(tuple(w))
    assert len(set(visited)) == len(visited)
    assert sorted(visited) == list(itertools.product(range(wmax + 1), repeat=n))


# ---------------------------------------------------------------------------
# Box-certified Menger walk: a (flow, cut) pair certifies the box w'_v = w_v
# on the cut, w'_u in [f_u, wmax] off it, one Hasse component at a time

def _assert_walk_matches_fresh_flows(p, wmax):
    # with no failure the cut weight is the flow value, which a certified
    # box holds at its cut; the cuts themselves are checked box by box below
    cl = clique_clutter(comparability_graph(p))
    net = HasseNetwork.of(p)
    flow_sets, failures = menger_walk(net, cl.edge_masks, wmax)
    assert failures == []
    box = list(itertools.product(range(wmax + 1), repeat=p.n))
    # a partition of the box
    assert sum(cells.bit_count() for cells in flow_sets.values()) == len(box)
    assert functools.reduce(operator.or_, flow_sets.values()) == (1 << len(box)) - 1
    flows = polyhedra._cell_list(flow_sets, len(box))
    for idx, w in enumerate(box):
        ref_value, _, ref_cut = net.max_flow(w)
        assert flows[idx] == ref_value == sum(w[v] for v in _bits(ref_cut))


def test_walk_value_sets_are_the_value_sets_of_the_packing_numbers():
    # on a comparability clutter the walk's flow values are beta1 of every
    # C^w, and the walk and the sweep hand them over as value sets of one
    # layout, so the two compare as dicts; the values are Python ints, also
    # past a byte
    for p, wmax in [(random_posets(6, 1, seed=1)[0], 3), (_disconnected_poset(), 2)]:
        cl = clique_clutter(comparability_graph(p))
        flow_sets, failures = menger_walk(HasseNetwork.of(p), cl.edge_masks, wmax)
        nu_sets, failing = sweep_levels(cl, wmax)
        assert failing == 0 and failures == [] and flow_sets == nu_sets
        assert list(nu_sets) == sorted(nu_sets)
    p = Poset(2, [(0, 1)])
    flow_sets, failures = menger_walk(HasseNetwork.of(p), [0b11], 300)
    at = 300 * 301 + 299  # w = (300, 299)
    assert [v for v, cells in flow_sets.items() if cells >> at & 1] == [299]
    assert failures == []


def test_walk_matches_fresh_max_flow_on_small_posets():
    for p in _small_posets():
        _assert_walk_matches_fresh_flows(p, 2)


def test_walk_matches_fresh_max_flow_on_random_posets():
    for p in random_posets(6, 2, seed=1):
        _assert_walk_matches_fresh_flows(p, 3)


def test_walk_matches_fresh_max_flow_on_more_random_posets():
    for p in random_posets(5, 10, seed=4):
        _assert_walk_matches_fresh_flows(p, 3)


def _disconnected_poset():
    p = random_posets(8, 3, seed=1)[1]
    assert sorted(m.bit_count() for m in packing._components(
        HasseNetwork.of(p), clique_clutter(comparability_graph(p)).edge_masks)) == [1, 1, 1, 1, 1, 3]
    return p


def test_walk_matches_fresh_max_flow_on_a_disconnected_poset():
    # the component arrays add up to the whole poset's; its boxes are
    # checked at wmax 3 below
    _assert_walk_matches_fresh_flows(_disconnected_poset(), 2)


def _cut_drops_least(monkeypatch):
    # the pair fails max-flow = min-cut at most seeds: their fibers fail
    honest = HasseNetwork._cut
    monkeypatch.setattr(HasseNetwork, "_cut", lambda self, via: (cut := honest(self, via)) & (cut - 1))


def _boxes_claim_the_top_w(monkeypatch):
    # a box kernel fault: every certified box also claims the w with all
    # weights wmax, so boxes of different values meet there
    honest = packing._box_of

    def claiming(net, edges, part, w, value, cap, cut, at_least):
        boxes, failure = honest(net, edges, part, w, value, cap, cut, at_least)
        top = functools.reduce(operator.and_, (row[-2] for row in at_least))
        return ({k: cells | top for k, cells in boxes.items()} if failure is None else boxes), failure

    monkeypatch.setattr(packing, "_box_of", claiming)


@pytest.mark.parametrize("poset, wmax", [("cauc(2,3)", 3), ("diamond", 3), ("disconnected", 2)])
@pytest.mark.parametrize("plant", [None, _cut_drops_least, _boxes_claim_the_top_w],
                         ids=["honest", "cut-drops-least", "boxes-claim-the-top-w"])
def test_each_component_walk_hands_over_a_partition_of_the_box(monkeypatch, request, poset, wmax, plant):
    # the first box that reaches a w decides it: the value sets that each
    # component's walk hands to _add_values are pairwise disjoint and their
    # union is the whole box, whatever the boxes claim; so are the summed
    # flow sets. The top w goes to the first box of each component, the
    # box of the seed w = 0, of flow value 0.
    if plant:
        plant(monkeypatch)
    honest_add, handed = packing._add_values, []
    monkeypatch.setattr(packing, "_add_values", lambda a, b: handed.append(b) or honest_add(a, b))
    p = {"cauc(2,3)": lambda: cauc_poset(2, 3), "diamond": lambda: request.getfixturevalue("diamond_poset"),
         "disconnected": _disconnected_poset}[poset]()
    cl = clique_clutter(comparability_graph(p))
    flows, failures = menger_walk(HasseNetwork.of(p), cl.edge_masks, wmax)
    assert bool(failures) == (plant is _cut_drops_least)
    full = (1 << (wmax + 1) ** p.n) - 1
    assert len(handed) == len(packing._components(HasseNetwork.of(p), cl.edge_masks))
    for sets in handed + [flows]:
        assert sum(cells.bit_count() for cells in sets.values()) == full.bit_count()
        assert functools.reduce(operator.or_, sets.values()) == full
    if plant is _boxes_claim_the_top_w:
        assert flows[0] >> full.bit_length() - 1 == 1


def test_components_join_the_vertices_of_an_edge():
    # with the arc 0 < 1 dropped, the edge {0, 1} still joins 0 and 1
    net = HasseNetwork(n=3, arcs=(), sources=(0, 1, 2), sinks=(0, 1, 2))
    assert packing._components(net, [0b011, 0b100]) == [0b011, 0b100]
    assert packing._components(net, []) == [0b001, 0b010, 0b100]


def _walk_and_fresh_failures(net, edges, wmax):
    """The failed checks that menger_walk records and those that
    menger_check raises from a fresh max flow, by lexicographic w."""
    _, failures = menger_walk(net, edges, wmax)
    fresh = {}
    for i, w in enumerate(itertools.product(range(wmax + 1), repeat=net.n)):
        try:
            menger_check(net, edges, w)
        except ConsistencyError as exc:
            fresh[i] = exc.to_json()
    walked = {}
    for fiber, exc, _ in failures:
        for i in _bits(fiber):
            walked.setdefault(i, exc.to_json())
    return walked, fresh


def test_a_cut_lighter_than_the_flow_fails_max_flow_min_cut(monkeypatch, diamond_poset):
    # _cut drops its least vertex, so the diamond's unit flow at w = 1
    # meets a cut of weight 0
    honest = HasseNetwork._cut
    monkeypatch.setattr(HasseNetwork, "_cut", lambda self, via: (cut := honest(self, via)) & (cut - 1))
    net = HasseNetwork.of(diamond_poset)
    edges = clique_clutter(comparability_graph(diamond_poset)).edge_masks
    with pytest.raises(ConsistencyError, match="max-flow = min-cut: 1 vs 0"):
        menger_check(net, edges, (1, 1, 1, 1))
    walked, fresh = _walk_and_fresh_failures(net, edges, 2)
    assert walked and {e["check"] for e in walked.values()} == {"max-flow = min-cut"}
    # a pair that passes at its seed certifies its box even where a fresh
    # cut would fail, so the walk records a part of the fresh failures
    assert walked.items() <= fresh.items()


@pytest.mark.parametrize("poset, wmax", [("diamond", 3), ("disconnected", 2)])
def test_the_cut_weight_of_a_failed_fiber_is_its_flow_plus_its_gap(monkeypatch, request, poset, wmax):
    # _cut drops its least vertex, so most w fail max-flow = min-cut; each
    # mismatch reads the cut weight and flow value of fresh max flows under
    # the same plant, one per component network, as the walk builds them
    # (on the disconnected poset one whole-network cut would drop a single
    # vertex, where every component's cut drops its own)
    honest = HasseNetwork._cut
    monkeypatch.setattr(HasseNetwork, "_cut", lambda self, via: (cut := honest(self, via)) & (cut - 1))
    p = request.getfixturevalue("diamond_poset") if poset == "diamond" else _disconnected_poset()
    cl = clique_clutter(comparability_graph(p))
    net = HasseNetwork.of(p)
    subs = [HasseNetwork(p.n, tuple((x, y) for x, y in net.arcs if part >> x & 1),
                         tuple(v for v in net.sources if part >> v & 1),
                         tuple(v for v in net.sinks if part >> v & 1))
            for part in packing._components(net, cl.edge_masks)]
    mismatches = comparability_mfmc_check(p, cl, wmax)["menger_mismatches"]
    assert mismatches and all("invariant" in m for m in mismatches)
    for m in mismatches:
        fresh = [sub.max_flow(m["w"]) for sub in subs]
        assert m["menger"] == [sum(m["w"][v] for _, _, cut in fresh for v in _bits(cut)),
                               sum(value for value, _, _ in fresh)]


def test_a_flow_chain_that_is_no_edge_fails_the_clique_check():
    # the one source-sink path 0 < 1 < 2 is no edge of {0,1}, {1,2}, and
    # every w with no weight 0 sends flow along it
    net = HasseNetwork(n=3, arcs=((0, 1), (1, 2)), sources=(0,), sinks=(2,))
    edges = [0b011, 0b110]
    with pytest.raises(ConsistencyError, match=re.escape(
            "flow chain is a surviving clique: [0, 1, 2] vs [[0, 1], [1, 2]]")):
        menger_check(net, edges, (1, 1, 1))
    walked, fresh = _walk_and_fresh_failures(net, edges, 2)
    assert walked == fresh
    box = list(itertools.product(range(3), repeat=3))
    chain_failures = [box[i] for i, e in sorted(walked.items())
                      if e["check"] == "flow chain is a surviving clique"]
    assert chain_failures == [w for w in box if all(w)]


def _box_points(cells, part, n, wmax):
    """The weights on the vertices in ``part`` of the w in the set
    ``cells`` of {0..wmax}^n that are 0 off part; ``cells`` holds every w
    that agrees with one of them on part."""
    box = list(itertools.product(range(wmax + 1), repeat=n))
    verts = _bits(part)
    points = [tuple(box[i][v] for v in verts) for i in _bits(cells)
              if not any(x for v, x in enumerate(box[i]) if not part >> v & 1)]
    assert cells.bit_count() == len(points) * (wmax + 1) ** (n - len(verts))
    return points


@pytest.mark.parametrize("posets, wmax", [
    ([Poset(0, [])] + _small_posets(), 2),
    (random_posets(5, 4, seed=3) + random_posets(6, 2, seed=1), 3),
    ([_disconnected_poset()], 3),
], ids=["n<=4", "n=5,6", "components-1,1,1,1,1,3"])
def test_every_box_the_walk_fills_is_certified_at_each_point(monkeypatch, posets, wmax):
    # brute force over each box: the pair check holds at every w' the flow
    # and the box's cut were used for, with the flow held and w' (0 off the
    # component) in place of w; every seed certifies the boxes of both its
    # cuts, nearest the source and nearest the sink
    honest = packing._box_of
    seeds = []

    def recording(sub, edges, part, w, value, cap, cut, at_least):
        out = honest(sub, edges, part, w, value, cap, cut, at_least)
        seeds.append((sub, edges, part, value, cap, cut, out))
        return out

    monkeypatch.setattr(packing, "_box_of", recording)
    for p in posets:
        cl = clique_clutter(comparability_graph(p))
        seeds.clear()
        _, failures = menger_walk(HasseNetwork.of(p), cl.edge_masks, wmax)
        assert failures == []
        covered = set()
        for sub, edges, part, value, cap, cut, (boxes, failure) in seeds:
            assert failure is None
            assert set(boxes) == {cut, sub._sink_cut(cap)}
            verts = _bits(part)
            for k, cells in boxes.items():
                for point in _box_points(cells, part, p.n, wmax):
                    moved, w = cap[:], [0] * p.n
                    for v, x in zip(verts, point):
                        moved[2 * v] = x - cap[2 * v + 1]
                        w[v] = x
                    assert packing._pair_failure(sub, edges, w, value, moved, k) is None
                    covered.add((part, point))
        # together the boxes cover the box of every component
        parts = packing._components(HasseNetwork.of(p), cl.edge_masks)
        assert len(covered) == sum((wmax + 1) ** m.bit_count() for m in parts)
        assert bool(seeds) == (p.n > 0)  # the empty poset's one w needs no flow


def _walk_work(monkeypatch, posets, wmax):
    """The max flows and breadth-first searches the walk makes on
    ``posets`` at ``wmax``."""
    honest_flow, honest_augment = HasseNetwork.max_flow, HasseNetwork._augment
    flows, searches = [], []

    def flowing(self, w):
        flows.append(1)
        return honest_flow(self, w)

    def counting(self, cap):
        searches.append(1)
        return honest_augment(self, cap)

    monkeypatch.setattr(HasseNetwork, "max_flow", flowing)
    monkeypatch.setattr(HasseNetwork, "_augment", counting)
    for p in posets:
        menger_walk(HasseNetwork.of(p), clique_clutter(comparability_graph(p)).edge_masks, wmax)
    return len(flows), len(searches)


def test_walk_searches_only_where_its_pair_stops_certifying(monkeypatch):
    # one max flow per box seed, a w that no certified box covers yet; at
    # wmax 3 the Gray-code walk this replaced made 2,487 breadth-first
    # searches on these two posets, and one box per flow took 101 flows
    flows, searches = _walk_work(monkeypatch, random_posets(6, 2, seed=1), 3)
    assert flows <= 51
    assert searches <= 111
    # K3,3, three points below three: the source-side cut fixes a whole
    # side of every box, and one box per flow took 907 flows
    k33 = Poset(6, [(a, b) for a in range(3) for b in range(3, 6)])
    flows, _ = _walk_work(monkeypatch, [k33], 3)
    assert flows <= 580


@pytest.mark.parametrize("posets", [_small_posets(), random_posets(5, 4, seed=3)], ids=["n<=4", "n=5"])
def test_sink_cut_is_the_source_cut_of_the_reversed_network(posets):
    # the minimum cut nearest the sink is the one nearest the source of the
    # dual poset's Hasse network, whichever max flow it is read off
    for p in posets:
        net = HasseNetwork.of(p)
        dual = HasseNetwork.of(Poset(p.n, [(b, a) for a, b in p.relation]))
        chains = brute_maximal_cliques(p.n, p.relation)
        for w in itertools.product(range(3), repeat=p.n):
            value, cap, _ = net.max_flow(w)
            _, _, nearest_sink = dual.max_flow(w)
            cut = net._sink_cut(cap)
            assert cut == nearest_sink
            assert sum(w[v] for v in _bits(cut)) == value
            assert brute_cut_meets_surviving_chains(chains, w, _bits(cut))


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
    for c in random_clutters(6, 6, 10, seed=71):
        masks = c.edge_masks
        cover = lex_min_cover(masks)
        assert len(cover) == min_cover_size(masks) == brute_alpha0(c.n, c.edges)
        matching = lex_min_matching(masks)
        assert len(matching) == max_matching_size(masks) == brute_beta1(c.edges)
    assert lex_min_cover([]) == () and lex_min_matching([]) == []


def test_matching_search_on_a_large_parallelization_ends():
    # 270 edges on 27 vertices; the deadline turns a slow search into an error
    c = complete_admissible_uniform_clutter(3, 3)
    _, nus = reference_sweep_numbers(c, 3)
    cw = parallelization(c, (3,) * c.n)
    with Deadline(10_000):
        matching = lex_min_matching(cw.edge_masks)
    assert len(matching) == nus[-1] == 9
    assert all(not a & b for a, b in itertools.combinations([cw.edge_masks[j] for j in matching], 2))
