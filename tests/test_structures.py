import itertools
import math
import random

import pytest

from clutterlab import (
    Clutter,
    Graph,
    IncidenceMatrix,
    MonomialIdeal,
    Poset,
    canonical_relabel,
    cauc_poset,
    clique_clutter,
    comparability_graph,
    complete_admissible_uniform_clutter,
    delete,
    duplicate,
    graph_duplicate,
    maximal_cliques,
    parallelization,
    transitive_closure,
)
from clutterlab.certify import random_graphs

from oracles import brute_maximal_cliques


# ---------------------------------------------------------------------------
# Validation

def test_poset_rejects_reflexive():
    with pytest.raises(ValueError, match="irreflexive"):
        Poset(2, [(0, 0)])


def test_poset_rejects_two_cycle():
    with pytest.raises(ValueError, match="antisymmetric"):
        Poset(2, [(0, 1), (1, 0)])


def test_poset_rejects_non_transitive():
    with pytest.raises(ValueError, match="transitively closed"):
        Poset(3, [(0, 1), (1, 2)])


def test_poset_transitivity_check_matches_the_pairwise_definition():
    # every irreflexive, antisymmetric relation on 4 points: accepted iff
    # no (a, b), (b, d) lacks (a, d), else the error names such a triple
    pairs = [(a, b) for a in range(4) for b in range(4) if a < b]
    for signs in itertools.product((0, 1, -1), repeat=len(pairs)):
        rel = {(a, b) if s > 0 else (b, a) for (a, b), s in zip(pairs, signs) if s}
        missing = {
            ((a, b), (b, d), (a, d)) for a, b in rel for c, d in rel if b == c and (a, d) not in rel
        }
        if not missing:
            assert Poset(4, rel).relation == rel
            continue
        with pytest.raises(ValueError) as exc:
            Poset(4, rel)
        assert any(
            str(exc.value) == f"relation is not transitively closed: {ab},{bd} without {ad}"
            for ab, bd, ad in missing
        )


def test_transitive_closure_helper():
    rel = transitive_closure(3, [(0, 1), (1, 2)])
    assert rel == frozenset({(0, 1), (1, 2), (0, 2)})
    Poset(3, rel)  # closure is accepted


def test_clutter_rejects_containment():
    with pytest.raises(ValueError, match="inclusion-minimality"):
        Clutter(3, [(0, 1), (0, 1, 2)])


def test_clutter_rejects_empty_edge():
    with pytest.raises(ValueError, match="empty"):
        Clutter(3, [()])


def test_graph_rejects_loop():
    with pytest.raises(ValueError, match="loop"):
        Graph(2, [(1, 1)])


def test_labels_must_be_unique():
    with pytest.raises(ValueError, match="unique"):
        Clutter(2, [(0, 1)], labels=["x", "x"])


def test_vertex_accessor():
    c = Clutter(2, [(0, 1)])
    assert c.labels[1] == "x1"


def test_only_missing_labels_are_the_default():
    # an empty list is n = 0 labels, not an absent field
    for make in (lambda labels: Clutter(2, [(0, 1)], labels), lambda labels: Graph(2, [(0, 1)], labels),
                 lambda labels: Poset(2, [(0, 1)], labels)):
        assert make(None).labels == ("x0", "x1")
        with pytest.raises(ValueError, match="expected 2 labels, got 0"):
            make([])
    assert Clutter(0, [], []).labels == Poset(0, [], []).labels == ()


def test_every_reader_keeps_the_labels_of_its_document():
    graph = Graph.from_json({"n": 3, "edges": [[0, 1], [1, 2]], "labels": ["a", "b", "c"]})
    poset = Poset.from_json({"n": 3, "relation": [[0, 1]], "labels": ["p", "q", "r"]})
    clutter = Clutter.from_json({"n": 2, "edges": [[0, 1]], "labels": ["u", "v"]})
    assert (graph.labels, poset.labels, clutter.labels) == (("a", "b", "c"), ("p", "q", "r"), ("u", "v"))
    # and derived objects carry them on
    assert clique_clutter(graph).labels == ("a", "b", "c")
    assert clique_clutter(comparability_graph(poset)).labels == ("p", "q", "r")
    # the graph and poset documents stay as they were: no labels key
    assert "labels" not in graph.to_json() and "labels" not in poset.to_json()
    for read, doc in [(Graph.from_json, {"n": 1, "edges": [], "labels": "a"}),
                      (Poset.from_json, {"n": 1, "relation": [], "labels": [1]})]:
        with pytest.raises(ValueError, match="expected a list of string labels"):
            read(doc)


# ---------------------------------------------------------------------------
# Comparability graphs

def test_chain_gives_complete_graph(chain3):
    g = comparability_graph(chain3)
    assert g.edges == frozenset({(0, 1), (1, 2), (0, 2)})


def test_antichain_gives_empty_graph():
    g = comparability_graph(Poset(3, []))
    assert g.edges == frozenset()


def test_diamond_comparability_edges(diamond_poset):
    g = comparability_graph(diamond_poset)
    assert sorted(g.edges) == [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]


def test_comparability_edge_iff_exactly_one_direction():
    rng = random.Random(5)
    for p in _random_posets(rng, n=5, count=25):
        g = comparability_graph(p)
        for i in range(p.n):
            for j in range(i + 1, p.n):
                directions = ((i, j) in p.relation) + ((j, i) in p.relation)
                assert ((i, j) in g.edges) == (directions == 1)
                assert directions <= 1


def _random_posets(rng, n, count):
    out = []
    while len(out) < count:
        arcs = [
            (i, j) for i in range(n) for j in range(n)
            if i != j and rng.random() < 0.3
        ]
        try:
            out.append(Poset(n, transitive_closure(n, arcs)))
        except ValueError:
            continue
    return out


# ---------------------------------------------------------------------------
# Clique clutters

def test_triangle_single_clique(k3_clutter):
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert clique_clutter(g) == k3_clutter


def test_c5_cliques_are_its_edges():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert clique_clutter(g).edges == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))


def test_diamond_clique_clutter(diamond_poset):
    cl = clique_clutter(comparability_graph(diamond_poset))
    assert cl.edges == ((0, 1, 3), (0, 2, 3))


def test_isolated_vertex_becomes_singleton_edge():
    g = Graph(3, [(0, 1)])
    assert clique_clutter(g).edges == ((0, 1), (2,))


def test_maximal_cliques_against_brute_force():
    rng = random.Random(123)
    for _ in range(60):
        n = rng.randint(1, 8)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45
        ]
        g = Graph(n, edges)
        assert maximal_cliques(g) == brute_maximal_cliques(n, edges)


def test_clique_clutter_edges_are_maximal_cliques_invariant():
    # pairwise incomparable (constructor enforces) and each a clique; no
    # clique of the graph properly contains an edge
    rng = random.Random(321)
    for _ in range(20):
        n = rng.randint(2, 7)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        cl = clique_clutter(g)
        cliques = set(brute_maximal_cliques(n, edges))
        for e in cl.edges:
            assert e in cliques
        assert len(cl.edges) == len(cliques)


# ---------------------------------------------------------------------------
# Complete admissible uniform clutters

def test_cauc_2_2_edges():
    c = complete_admissible_uniform_clutter(2, 2)
    # vertices: x1^1=0, x2^1=1, x1^2=2, x2^2=3
    assert c.labels == ("x1^1", "x2^1", "x1^2", "x2^2")
    assert c.edges == ((0, 2), (0, 3), (1, 3))


@pytest.mark.parametrize("d,g,count", [(2, 2, 3), (2, 3, 6), (3, 2, 4), (3, 3, 10)])
def test_cauc_edge_count_is_binomial(d, g, count):
    c = complete_admissible_uniform_clutter(d, g)
    assert len(c.edges) == count == math.comb(g + d - 1, d)
    assert all(len(e) == d for e in c.edges)
    assert c.n == d * g


def test_cauc_rejects_small_parameters():
    with pytest.raises(ValueError):
        complete_admissible_uniform_clutter(1, 2)
    with pytest.raises(ValueError):
        cauc_poset(2, 1)


def test_cauc_poset_2_2_relation():
    p = cauc_poset(2, 2)
    # x1^1 < x1^2, x1^1 < x2^2, x2^1 < x2^2
    assert p.relation == frozenset({(0, 2), (0, 3), (1, 3)})


@pytest.mark.parametrize("d,g", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_cauc_round_trip(d, g):
    assert clique_clutter(comparability_graph(cauc_poset(d, g))) == \
        complete_admissible_uniform_clutter(d, g)


# ---------------------------------------------------------------------------
# Duplication / deletion / parallelization

def test_duplicate_single_edge():
    c = Clutter(2, [(0, 1)])
    d = duplicate(c, 0)
    assert d.edges == ((0, 1), (1, 2))
    assert d.labels == ("x0", "x1", "x0'1")


def test_duplicate_triangle_clutter(k3_clutter):
    d = duplicate(k3_clutter, 0)
    assert d.edges == ((0, 1, 2), (1, 2, 3))


def test_duplicate_vertex_in_no_edge():
    c = Clutter(3, [(0, 1)])
    d = duplicate(c, 2)
    assert d.n == 4 and d.edges == c.edges
    assert d.labels[-1] == "x2'1"


def test_duplicate_labels_count_up():
    c = Clutter(1, [(0,)])
    d = duplicate(duplicate(c, 0), 0)
    assert d.labels == ("x0", "x0'1", "x0'2")


def test_delete_triangle_vertex(k3_clutter):
    d = delete(k3_clutter, 0)
    assert d.n == 2 and d.edges == ()
    assert d.labels == ("x1", "x2")


def test_delete_vs_graph_deletion_differ(k3_clutter):
    # the Remark 3.6-style counterexample: deleting from the clutter kills
    # the only edge, deleting from the graph leaves one maximal clique
    clutter_side = delete(k3_clutter, 0)
    graph_side = clique_clutter(Graph(2, [(0, 1)]))
    assert clutter_side.edges == ()
    assert graph_side.edges == ((0, 1),)


def test_delete_isolated_vertex():
    c = Clutter(3, [(0, 1)])
    assert delete(c, 2).edges == ((0, 1),)


def test_parallelization_identity(c5):
    assert parallelization(c5, (1, 1, 1, 1, 1)) == c5


def test_parallelization_all_zero(c5):
    res = parallelization(c5, (0,) * 5)
    assert res.n == 0 and res.edges == ()


def test_parallelization_c5_example(c5):
    res = parallelization(c5, (2, 1, 1, 1, 1))
    assert res.n == 6
    assert len(res.edges) == 7
    assert res.labels == ("x0", "x1", "x2", "x3", "x4", "x0'1")


def test_parallelization_order_independent(c5):
    # same weights, applied as explicit single steps in a different order
    by_op = parallelization(c5, (2, 0, 1, 1, 2))
    stepwise = duplicate(delete(c5, 1), 3)  # delete 1 first; old 4 is now 3
    stepwise = duplicate(stepwise, 0)
    assert canonical_relabel(by_op) == canonical_relabel(stepwise)


def test_parallelization_random_order_independence():
    rng = random.Random(99)
    for g in random_graphs(5, 10, seed=17):
        c = clique_clutter(g)
        w = [rng.randint(0, 2) for _ in range(c.n)]
        direct = parallelization(c, w)
        # apply deletions then duplications one step at a time, descending
        step = c
        for v in sorted((i for i in range(c.n) if w[i] == 0), reverse=True):
            step = delete(step, v)
        alive = [i for i in range(c.n) if w[i] >= 1]
        for pos, orig in enumerate(alive):
            for _ in range(w[orig] - 1):
                step = duplicate(step, pos)
        assert canonical_relabel(direct) == canonical_relabel(step)


def test_duplication_commutes_with_clique_clutter():
    for g in random_graphs(6, 15, seed=4):
        for v in range(g.n):
            assert duplicate(clique_clutter(g), v) == clique_clutter(graph_duplicate(g, v))


def test_weight_vector_length_checked(c5):
    with pytest.raises(ValueError, match="length"):
        parallelization(c5, (1, 1))


# ---------------------------------------------------------------------------
# JSON round trips

def test_json_round_trips(c5, diamond_poset):
    assert Clutter.from_json(c5.to_json()) == c5
    g = comparability_graph(diamond_poset)
    assert Graph.from_json(g.to_json()).edges == g.edges
    assert Poset.from_json(diamond_poset.to_json()).relation == diamond_poset.relation


def test_json_arrays_sorted(c5):
    doc = parallelization(c5, (2, 1, 1, 1, 1)).to_json()
    assert doc["edges"] == sorted(doc["edges"])
    assert all(e == sorted(e) for e in doc["edges"])


READERS = {
    "poset": (Poset, {"n": 3, "relation": [[0, 1]]}, ("relation", 0, 1)),
    "graph": (Graph, {"n": 3, "edges": [[0, 2]]}, ("edges", 0, 1)),
    "clutter": (Clutter, {"n": 3, "edges": [[0, 1], [2]]}, ("edges", 1, 0)),
    "ideal": (MonomialIdeal, {"n": 2, "generators": [[1, 2]]}, ("generators", 0, 0)),
    "matrix": (IncidenceMatrix, {"n": 2, "columns": [[1, 0], [1, 1]]}, ("columns", 1, 1)),
}


@pytest.mark.parametrize("kind", sorted(READERS))
@pytest.mark.parametrize("bad", [1.5, 1.0, "1", True, None])
def test_a_json_reader_refuses_a_non_integer(kind, bad):
    cls, doc, (key, row, col) = READERS[kind]
    assert cls.from_json(doc).to_json()["n"] == doc["n"]
    with pytest.raises(ValueError, match="^expected an integer, got "):
        cls.from_json({**doc, "n": bad})
    rows = [list(r) for r in doc[key]]
    rows[row][col] = bad
    with pytest.raises(ValueError, match="^expected an integer, got "):
        cls.from_json({**doc, key: rows})


def test_the_constructors_still_take_numpy_integers():
    import numpy as np  # the one test that reads numpy (the test extra)

    three, one = np.int64(3), np.int8(1)
    assert Poset(three, [(np.int64(0), one)]).relation == {(0, 1)}
    assert Graph(three, [np.array([0, 2])]).edges == {(0, 2)}
    assert Clutter(three, [np.array([0, 1]), [np.int16(2)]]).edges == ((0, 1), (2,))
    assert MonomialIdeal(2, np.array([[1, 2]])).generators == ((1, 2),)
    assert IncidenceMatrix(2, np.array([[1, 0], [1, 1]])).columns == ((1, 0), (1, 1))
