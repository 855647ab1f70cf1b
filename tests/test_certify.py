"""Golden bytes of the certify report, and its failures and guards on the
Menger route.

The sha256 values pin ``run_theorem_suite(...).to_json()`` as it was before
the w-sweeps stopped building C^w, so any change in verdicts, witnesses or
``checked`` counts shows here.
"""

import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import clutterlab
from clutterlab import (
    MonomialIdeal, cauc_poset, certify, complete_admissible_uniform_clutter, ideals, packing, polyhedra,
)
from clutterlab.certify import (
    _KINDS,
    Bounds,
    Corpus,
    check_clutter_instance,
    check_ideal_instance,
    comparability_mfmc_check,
    random_clutters,
    random_graphs,
    random_ideals,
    random_posets,
    run_theorem_suite,
)
from clutterlab.cli import main
from clutterlab.guards import ConsistencyError, Deadline, ResourceGuardError
from clutterlab.packing import HasseNetwork, _cover_matrix, menger_check
from clutterlab.structures import Clutter, Graph, Poset, clique_clutter, comparability_graph

from oracles import _cell_values, packing_numbers, reference_sweep_numbers

HERE = Path(__file__).parent

GOLDEN = {
    "posets": (
        Corpus("random-posets", n=4, count=4, seed=1),
        Bounds(wmax=2),
        "c4e6f1dcd927cf395d4c0b9d09d8e02e33fddfa46552f9c4bd009fbaafaa3cbc",
    ),
    # cauc(2,2), cauc(2,3), cauc(3,2)
    "cauc": (
        Corpus("explicit", path="corpora/cauc-small.json"),
        Bounds(wmax=2),
        "2e663b6d3cf0f58129174c4e6e2143d71dc7da22151fac1daffd7e2a26822c38",
    ),
    # kmax = imax = 1 makes NTF and normality vacuous, so the two clutters
    # without MFMC disagree with them and carry the full mfmc witness
    "clutters": (
        Corpus("random-clutters", n=6, maxedges=10, count=8, seed=1),
        Bounds(kmax=1, imax=1, wmax=2),
        "d9b5c6a74edd7c1c506a2bf43408abc4b515f002388089d864c02bc0ca3ed582",
    ),
    # cauc(2,4), cauc(4,2), cauc(3,3): n = 8 and 9, the largest boxes of
    # the box value kernel and the power grids
    "cauc-large": (
        Corpus("explicit", path="corpora/cauc-large.json"),
        Bounds(wmax=2),
        "1864d438c4d07c14932e2ec2291bc4e020160d03189221a7e7490b79d8bfb677",
    ),
    # the "clutters" corpus at kmax = imax = 3: the two clutters without MFMC
    # now fail NTF and normality too, and the three signs agree
    "clutters-level-3": (
        Corpus("random-clutters", n=6, maxedges=10, count=8, seed=1),
        Bounds(wmax=2),
        "c1e9f360734ed1e6d664e27b8dbbf03da2926dd1a44acb108e63c23b30a66b54",
    ),
    # one corpus per remaining generated kind, so a change to a generator's
    # draw loop or to the corpus table shows here
    "graphs": (
        Corpus("random-graphs", n=5, count=6, seed=3),
        Bounds(),
        "5e794cfdea1ec6be278d74ddec1a5a30cf867dd6598da2b842a3ba676d8d9a61",
    ),
    "ideals": (
        Corpus("random-ideals", n=4, q=5, maxexp=3, count=20, seed=1),
        Bounds(),
        "0a180b5b5d713f15633436a484aa82d6f20205ef355d9f5dcdab0792cca96b82",
    ),
    "all-posets": (
        Corpus("all-posets", n=3),
        Bounds(wmax=2),
        "88c1cbe79c529783ccbdd37c7bf1139c86eb0c667b9f920be27eb015c63915b7",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_are_pinned(name, monkeypatch):
    corpus, bounds, digest = GOLDEN[name]
    monkeypatch.chdir(HERE)  # the explicit corpus path enters the report
    report = run_theorem_suite(corpus, bounds)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


LEVEL_FAULT = "every cell of k-fold level k has value >= k*unit"


@pytest.mark.parametrize(
    "verdict, dim, unit",
    [
        (lambda: ideals.normality_gap(MonomialIdeal(2, [(2, 0), (0, 2)]), 2), 2, 2),
        (lambda: ideals.is_ntf_up_to(complete_admissible_uniform_clutter(2, 2), 2), 4, 1),
        (lambda: polyhedra.integer_decomposition_check(MonomialIdeal(2, [(2, 0), (0, 2)]).matrix(), 2), 2, 2),
        (lambda: polyhedra.integer_rounding_holds(MonomialIdeal(2, [(2, 0), (0, 2)]).matrix(), 2), 2, 2),
    ],
    ids=["normal", "ntf", "idp", "rounding"],
)
def test_a_level_cell_outside_its_value_set_raises(level_with_the_origin, verdict, dim, unit):
    # every level lies inside its S_k, so the kernel names the fault
    # instead of reading the level's extra cell as agreement
    with pytest.raises(ConsistencyError) as info:
        verdict()
    doc = info.value.to_json()
    assert doc == {"check": LEVEL_FAULT, "values": [{"k": 1, "cell": [0] * dim, "value": 0}, unit]}
    assert json.loads(json.dumps(doc)) == doc


def test_certify_records_a_faulty_level_as_a_failed_instance(level_with_the_origin, tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"instances": [
        {"type": "ideal", "data": {"n": 2, "generators": [[2, 0], [0, 2]]}},
        {"type": "clutter", "data": complete_admissible_uniform_clutter(2, 2).to_json()},
        {"type": "poset", "data": {"n": 2, "relation": [[0, 1]]}},
    ]}))
    doc = json.loads(run_theorem_suite(Corpus("explicit", path=str(path)), Bounds()).to_json())
    assert doc["counts"] == {"instances": 3, "failed": 3, "skipped": 0}
    assert [rec["checks"] for rec in doc["instances"]] == [{"consistent": False}] * 3
    assert [ex["witness"]["invariant"]["check"] for ex in doc["counterexamples"]] == [LEVEL_FAULT] * 3


def test_certify_builds_no_normality_explanation_it_does_not_render(monkeypatch, two_squares):
    # the explanation of a not-normal verdict runs the integer decomposition
    # check; certify decides on the verdict alone and renders it only in
    # the witness of a disagreement
    honest, calls = ideals.integer_decomposition_check, []
    monkeypatch.setattr(ideals, "integer_decomposition_check",
                        lambda a, kmax: calls.append(kmax) or honest(a, kmax))
    corpus, bounds, digest = GOLDEN["ideals"]
    report = run_theorem_suite(corpus, bounds)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest
    assert any(not rec["checks"]["normal"] for rec in report.instances)
    assert calls == []
    # a forced disagreement renders the full verdict, explanation included
    monkeypatch.setattr(certify, "normality_gap", lambda ideal, kmax: None)
    rec = check_ideal_instance(two_squares, Bounds())
    assert not rec["pass"] and calls == [3]
    assert rec["witness"]["normal"] == ideals.is_normal_up_to(two_squares, 3).to_json()


def test_an_ideal_instance_unpacks_no_power_level(monkeypatch, two_squares):
    # normality and rounding are decided on packed levels: on the ideals
    # golden no threshold set is listed and no packing number is counted
    calls = []
    for name in ("_threshold_levels", "_cell_list"):
        honest = getattr(polyhedra, name)
        monkeypatch.setattr(polyhedra, name,
                            lambda *args, name=name, honest=honest: calls.append(name) or honest(*args))
    polyhedra._threshold_sets.cache_clear()
    ideals._power_grids.cache_clear()
    corpus, bounds, digest = GOLDEN["ideals"]
    report = run_theorem_suite(corpus, bounds)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest
    assert calls == []
    # the counters see the routes that render per-cell tables
    polyhedra.integer_rounding_check(two_squares.matrix(), 2)
    assert sorted(set(calls)) == ["_cell_list", "_threshold_levels"]


def test_rounding_compares_a_cold_narrow_box_with_a_wider_denominator(monkeypatch):
    # (x^200) has D = 200, but the values of its rounding box [0, 3] are
    # at most 3; with no wider box built first, the levels lp >= k*D must
    # still compare those values with a k*D far past them
    ideal = MonomialIdeal(1, [[200]])
    monkeypatch.setattr(certify, "normality_gap", lambda ideal, kmax: None)
    polyhedra._threshold_sets.cache_clear()
    rows, den = polyhedra._vertex_inequalities(ideal.matrix())
    lp = _cell_values((3,), rows)
    nu = packing_numbers(ideal.matrix().columns, (3,))
    assert (den, lp, nu) == (200, [0, 1, 2, 3], [0, 0, 0, 0])
    rec = check_ideal_instance(ideal, Bounds())
    assert rec["checks"] == {"normal": True, "rounding": True, "normal_equals_rounding": True}


CORPORA = {corpus.kind: corpus for corpus, _, _ in GOLDEN.values()}


def test_every_corpus_kind_round_trips_through_json():
    assert sorted(CORPORA) == sorted(_KINDS)
    for corpus in CORPORA.values():
        assert Corpus.from_json(corpus.to_json()) == corpus


@pytest.mark.parametrize(
    "corpus, missing",
    [
        (Corpus("all-posets"), "n"),
        (Corpus("random-posets", n=4, seed=1), "count"),
        (Corpus("random-graphs", count=2), "n"),
        (Corpus("random-ideals", n=4, count=3), "q"),
        (Corpus("random-clutters", n=4, seed=1), "maxedges"),
        (Corpus("explicit"), "path"),
    ],
    ids=lambda x: x.kind if isinstance(x, Corpus) else x,
)
def test_a_missing_parameter_is_named_in_call_order(corpus, missing):
    message = f"^corpus kind '{corpus.kind}' requires parameter '{missing}'$"
    with pytest.raises(ValueError, match=message):
        corpus.instances()


@pytest.mark.parametrize(
    "doc, unread",
    [
        ({"kind": "random-posets", "n": 4, "count": 2, "seed": 1, "sed": 3}, "'sed'"),
        ({"kind": "all-posets", "n": 2, "seed": 7}, "'seed'"),
        ({"kind": "random-graphs", "n": 4, "count": 2, "seed": 1, "q": 2, "maxexp": 1}, "'maxexp', 'q'"),
        ({"kind": "explicit", "path": "x.json", "n": 3}, "'n'"),
    ],
    ids=["unknown", "seed", "two", "explicit"],
)
def test_a_corpus_refuses_keys_its_kind_does_not_read(doc, unread):
    message = f"^corpus kind '{doc['kind']}' does not read {unread}$"
    with pytest.raises(ValueError, match=message):
        Corpus.from_json(doc)


def test_a_seed_override_is_refused_where_the_kind_reads_no_seed():
    with pytest.raises(ValueError, match="^corpus kind 'all-posets' does not read 'seed'$"):
        Corpus("all-posets", n=2).replace(seed=7)
    assert CORPORA["random-posets"].replace(seed=7).seed == 7


def test_an_explicit_clutter_with_no_edges_is_refused_with_its_index():
    doc = {"instances": [
        {"type": "clutter", "data": complete_admissible_uniform_clutter(2, 2).to_json()},
        {"type": "graph", "data": {"n": 2, "edges": []}},
        {"type": "clutter", "data": {"n": 2, "edges": []}},
    ]}
    with pytest.raises(ValueError, match="^instance 2: clutter must have at least one edge$"):
        certify.load_explicit_instances(doc)


@pytest.mark.parametrize(
    "field, value, want",
    [("n", "4", "int"), ("count", 2.0, "int"), ("seed", True, "int"), ("q", [3], "int"), ("path", 5, "str")],
)
def test_a_corpus_parameter_of_the_wrong_type_is_refused(field, value, want):
    with pytest.raises(ValueError, match=f"^corpus parameter '{field}' must be {want}, got "):
        Corpus("random-ideals", **{field: value})


def test_an_unknown_corpus_kind_is_refused():
    with pytest.raises(ValueError, match="^unknown corpus kind 'random-matroids'"):
        Corpus("random-matroids", n=3)


@pytest.mark.parametrize(
    "generate",
    [
        lambda: random_posets(1, 2, 0),
        lambda: random_graphs(1, 2, 0),
        lambda: random_ideals(1, 1, 1, 2, 0),
        lambda: random_clutters(2, 1, 4, 0),
    ],
    ids=["posets", "graphs", "ideals", "clutters"],
)
def test_a_generator_gives_up_when_too_few_distinct_objects_exist(generate):
    with pytest.raises(ValueError, match="^could not generate [24] distinct "):
        generate()


@pytest.mark.parametrize(
    "corpus, bounds",
    [
        GOLDEN["posets"][:2],
        GOLDEN["clutters-level-3"][:2],
        (Corpus("random-ideals", n=3, q=3, maxexp=3, count=4, seed=1), Bounds()),
    ],
    ids=["posets", "clutters-level-3", "ideals"],
)
def test_a_generous_budget_leaves_the_report_bytes(corpus, bounds):
    with Deadline(600_000):
        budgeted = run_theorem_suite(corpus, bounds).to_json()
    assert budgeted == run_theorem_suite(corpus, bounds).to_json()


def test_failing_clutters_carry_the_first_failure():
    corpus, bounds, _ = GOLDEN["clutters"]
    report = run_theorem_suite(corpus, bounds)
    witnesses = [c["witness"]["mfmc"] for c in report.counterexamples]
    assert [(m["witness"]["w"], m["details"]["checked"]) for m in witnesses] == [
        ([0, 1, 1, 1, 1, 1], 122),
        ([1, 1, 1, 1], 41),
    ]
    for m in witnesses:
        konig = m["witness"]["konig"]
        assert konig["verdict"] == "fails" and konig["alpha0"] > konig["beta1"]


def test_run_that_checked_nothing_is_inconclusive():
    corpus, bounds, _ = GOLDEN["posets"]
    with Deadline(0):
        report = run_theorem_suite(corpus, bounds)
    assert len(report.skipped) == 4 and not report.instances
    assert report.aggregate == "inconclusive"
    assert report.to_doc()["aggregate"] == "inconclusive"
    assert report.to_text().endswith("aggregate: inconclusive")


@pytest.mark.parametrize("name", ["posets", "cauc"])
def test_positive_verdicts_need_no_generator_lists(name, monkeypatch):
    # on positive NTF and normality verdicts no minimal generator is
    # listed and the decomposition criterion is not run
    def unreachable(*args, **kwargs):
        raise AssertionError("reached on a positive verdict")

    for module in ("clutterlab.ideals", "clutterlab.polyhedra"):
        for fn in ("_minimal_rows", "minimal_lattice_points", "integer_decomposition_check"):
            monkeypatch.setattr(f"{module}.{fn}", unreachable)
    monkeypatch.setattr("clutterlab.ideals.symbolic_power", unreachable)
    corpus, bounds, digest = GOLDEN[name]
    monkeypatch.chdir(HERE)
    report = run_theorem_suite(corpus, bounds)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# One set of threshold sets per box and row set, shared by the checks of an
# instance

SHARED = {
    "cauc": GOLDEN["cauc"][:2],
    "clutters-level-3": GOLDEN["clutters-level-3"][:2],
    # three of the twelve are not normal, so the explanation reads the
    # normality values too
    "ideals": (Corpus("random-ideals", n=3, q=4, maxexp=3, count=12, seed=1), Bounds()),
}


def _records(report):
    """Instance records and counterexamples without their corpus index."""
    doc = report.to_doc()
    return tuple(
        [{k: v for k, v in r.items() if k != "index"} for r in doc[part]]
        for part in ("instances", "counterexamples")
    )


@pytest.mark.parametrize("name", sorted(SHARED))
def test_shared_box_values_leave_the_report_bytes(name, monkeypatch, tmp_path):
    corpus, bounds = SHARED[name]
    monkeypatch.chdir(HERE)
    polyhedra._threshold_sets.cache_clear()
    ideals._power_grids.cache_clear()
    cold = run_theorem_suite(corpus, bounds).to_json()
    assert run_theorem_suite(corpus, bounds).to_json() == cold  # warm caches
    polyhedra._threshold_sets.cache_clear()
    ideals._power_grids.cache_clear()
    assert run_theorem_suite(corpus, bounds).to_json() == cold
    # the same instances in reversed order: each record is unchanged
    forward = run_theorem_suite(corpus, bounds)
    path = tmp_path / "reversed.json"
    path.write_text(json.dumps({"instances": [
        rec["instance"] for rec in reversed(forward.to_doc()["instances"])
    ]}))
    backward = run_theorem_suite(Corpus("explicit", path=str(path)), bounds)
    recs, gallery = _records(backward)
    assert (recs[::-1], gallery[::-1]) == _records(forward)


def test_a_cauc33_instance_builds_the_cover_values_once(monkeypatch):
    # NTF on [0,3]^9 and normality on the same box (the vertex rows of
    # the integral Q(A) are the minimal covers) read one set of threshold
    # sets; the MFMC sweep on [0,2]^9 builds its own
    c = complete_admissible_uniform_clutter(3, 3)
    built = []
    honest = polyhedra._ThresholdSets

    def counting(caps, rows, unit):
        built.append((caps, rows, unit))
        return honest(caps, rows, unit)

    monkeypatch.setattr(polyhedra, "_ThresholdSets", counting)
    polyhedra._threshold_sets.cache_clear()
    record = check_clutter_instance(c, Bounds(wmax=2))
    assert record["pass"]
    assert built == [((3,) * 9, _cover_matrix(c), 1), ((2,) * 9, _cover_matrix(c), 1)]


@pytest.mark.parametrize("gens, normal", [
    ([(2, 0, 0), (1, 1, 0), (0, 2, 0)], True),
    ([(2, 0, 0, 1), (0, 2, 0, 1)], False),
], ids=["normal", "not-normal"])
def test_an_ideal_with_an_unused_variable_builds_its_values_once(monkeypatch, gens, normal):
    # box_caps gives the unused variable cap 0, the rounding box [0, 3]^n
    # does not; every vertex row of Q(A) has coefficient 0 there, and each
    # box builds its threshold sets once
    from clutterlab import MonomialIdeal

    built = []
    honest = polyhedra._ThresholdSets

    def counting(caps, rows, unit):
        built.append(caps)
        return honest(caps, rows, unit)

    monkeypatch.setattr(polyhedra, "_ThresholdSets", counting)
    polyhedra._threshold_sets.cache_clear()
    record = check_ideal_instance(MonomialIdeal(len(gens[0]), gens), Bounds())
    assert record["checks"] == {"normal": normal, "rounding": normal, "normal_equals_rounding": True}
    [caps, rounding] = built
    assert caps[2] == 0 and rounding == (3,) * len(gens[0])


# ---------------------------------------------------------------------------
# A Hasse network with one arc dropped: recorded failures, not exceptions

# the broken_hasse_network fixture, for a subprocess
BROKEN_NETWORK = """
from clutterlab.packing import HasseNetwork

honest = HasseNetwork.of.__func__


def broken(cls, p):
    net = honest(cls, p)
    return net.replace(arcs=net.arcs[1:])


HasseNetwork.of = classmethod(broken)
"""


def _first_menger_failure(p, wmax):
    """Lex-first w where a fresh flow on the (patched) network fails a
    check or differs from the Koenig numbers."""
    cl = clique_clutter(comparability_graph(p))
    net = HasseNetwork.of(p)
    taus, nus = reference_sweep_numbers(cl, wmax)
    for w, a0, b1 in zip(itertools.product(range(wmax + 1), repeat=p.n), taus, nus):
        try:
            cut, flow, _, _ = menger_check(net, cl.edge_masks, w)
        except ConsistencyError:
            return list(w)
        if (cut, flow) != (a0, b1):
            return list(w)
    return None


def test_broken_hasse_network_is_recorded_at_the_lex_first_w(broken_hasse_network):
    corpus, bounds, _ = GOLDEN["posets"]
    report = run_theorem_suite(corpus, bounds)
    assert report.aggregate == "fail" and report.counterexamples
    for ex in report.counterexamples:
        p = Poset.from_json(ex["instance"]["data"])
        witness = ex["witness"]
        assert witness["hasse_chains"]["check"] == "Hasse source-sink paths = maximal cliques"
        first = [m["w"] for m in witness["menger_mismatches"]]
        assert first[0] == _first_menger_failure(p, bounds.wmax)
        assert first == sorted(first)
    for rec in report.instances:
        if rec["index"] in {ex["index"] for ex in report.counterexamples}:
            assert rec["checks"]["menger_agrees"] is False
            assert rec["checks"]["mfmc_holds"] is True


def test_broken_hasse_network_report_is_the_same_under_python_O(broken_hasse_network):
    # the checks are not asserts, so -O strips none of them
    corpus, bounds, _ = GOLDEN["posets"]
    script = BROKEN_NETWORK + f"""
import sys
from clutterlab.certify import Bounds, Corpus, run_theorem_suite
assert False, "asserts run"
sys.stdout.write(run_theorem_suite(Corpus(**{corpus.to_json()!r}), Bounds(**{bounds.to_json()!r})).to_json())
"""
    src = str(Path(clutterlab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert '"menger_agrees":false' in proc.stdout
    assert proc.stdout == run_theorem_suite(corpus, bounds).to_json()


# ---------------------------------------------------------------------------
# Broken flow kernels: the certificate's own checks, recorded per w

DIAMOND = Poset(4, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)])


def _diamond_check(w):
    cl = clique_clutter(comparability_graph(DIAMOND))
    return menger_check(HasseNetwork.of(DIAMOND), cl.edge_masks, w)


def _recorded_invariants(report):
    """The check names of every invariant in the report's Menger mismatches."""
    return {m["invariant"]["check"]
            for ex in report.counterexamples
            for m in ex["witness"].get("menger_mismatches", [])
            if "invariant" in m}


def test_a_dropped_flow_chain_is_recorded_at_every_w(monkeypatch):
    honest = HasseNetwork._decompose
    monkeypatch.setattr(HasseNetwork, "_decompose", lambda self, cap: honest(self, cap)[1:])
    with pytest.raises(ConsistencyError, match="chain multiplicities sum to the flow value: 1 vs 2"):
        _diamond_check((2, 1, 1, 2))
    corpus, bounds, _ = GOLDEN["posets"]
    report = run_theorem_suite(corpus, bounds)
    assert not report.skipped and report.counterexamples
    assert report.to_doc()["counts"]["failed"] == len(report.instances)
    assert _recorded_invariants(report) == {"chain multiplicities sum to the flow value"}
    assert all(r["checks"]["menger_agrees"] is False for r in report.instances)


def test_an_unconserved_flow_is_recorded_with_the_node_balance(monkeypatch):
    # every max flow comes back with the flow on its first loaded arc into
    # the sink dropped: the chain decomposition stops at that arc's tail,
    # whose remaining inflow and outflow are the two values
    honest = HasseNetwork.max_flow

    def leaking(self, w):
        value, cap, cut = honest(self, w)
        head, _ = self._graph
        into_sink = [a for a in range(0, len(head), 2) if head[a] == 2 * self.n + 1 and cap[a ^ 1]]
        for a in into_sink[:1]:
            cap[a], cap[a ^ 1] = cap[a] + cap[a ^ 1], 0
        return value, cap, cut

    monkeypatch.setattr(HasseNetwork, "max_flow", leaking)
    # the flow is the chain 0 < 1 < 3; vertex 3's out-node keeps 1 unit in, 0 out
    with pytest.raises(ConsistencyError, match=r"^flow is conserved: 1 vs 0$"):
        _diamond_check((1, 1, 1, 1))
    corpus, bounds, _ = GOLDEN["posets"]
    report = run_theorem_suite(corpus, bounds)
    assert not report.skipped and report.counterexamples
    assert _recorded_invariants(report) == {"flow is conserved"}
    for ex in report.counterexamples:
        for m in ex["witness"]["menger_mismatches"]:
            inflow, outflow = m["invariant"]["values"]
            assert inflow > 0 == outflow


def _overpush_after_the_last_search(monkeypatch):
    """HasseNetwork._augment pushes one more unit through vertex 0 once its
    search finds no path."""
    honest = HasseNetwork._augment

    def overpushing(self, cap):
        added, via = honest(self, cap)
        if not added:
            cap[0] -= 1
            cap[1] += 1
        return added, via

    monkeypatch.setattr(HasseNetwork, "_augment", overpushing)


def test_an_overloaded_vertex_is_recorded_not_raised(monkeypatch):
    # at every w where vertex 0 is saturated the over-pushed unit overloads
    # it: each such w records the failed check, and the run goes on
    from clutterlab import cauc_poset

    _overpush_after_the_last_search(monkeypatch)
    p = cauc_poset(2, 2)
    sweep = comparability_mfmc_check(p, clique_clutter(comparability_graph(p)), 2)
    checks = {m["invariant"]["check"] for m in sweep["menger_mismatches"] if "invariant" in m}
    assert "flow through each vertex is at most w_v" in checks
    assert sweep["mfmc_holds"] and not sweep["menger_agrees"]
    report = run_theorem_suite(Corpus("random-posets", n=5, count=3, seed=2), Bounds(wmax=2))
    assert not report.skipped and len(report.instances) == 3
    assert "flow through each vertex is at most w_v" in _recorded_invariants(report)
    for rec in report.instances:
        checks = dict(rec["checks"])
        assert checks.pop("menger_agrees") is False
        assert checks and all(checks.values())  # every other check still decided


def test_a_box_that_misses_its_seed_is_recorded_not_reseeded(monkeypatch):
    # with the overload check passed over as well, the over-pushed flow
    # certifies boxes that leave out their own seed; the walk records the
    # overload at such a seed instead of seeding it again until the
    # deadline trips
    from clutterlab import cauc_poset, packing

    _overpush_after_the_last_search(monkeypatch)
    honest = packing._pair_failure

    def overlooking(net, edge_masks, w, value, cap, cut):
        clamped = cap[:]  # only the overload check reads the vertex arcs' residuals
        for v in range(net.n):
            clamped[2 * v] = max(clamped[2 * v], 0)
        return honest(net, edge_masks, w, value, clamped, cut)

    monkeypatch.setattr(packing, "_pair_failure", overlooking)
    p = cauc_poset(2, 2)
    with Deadline(3000):
        sweep = comparability_mfmc_check(p, clique_clutter(comparability_graph(p)), 2)
    overloads = [m for m in sweep["menger_mismatches"]
                 if m.get("invariant", {}).get("check") == "flow through each vertex is at most w_v"]
    assert overloads and not sweep["menger_agrees"]
    for m in overloads:
        flows, w = m["invariant"]["values"]
        assert w == m["w"] and flows[0] > w[0]


def test_a_single_weight_check_rejects_an_overloaded_vertex(monkeypatch):
    _overpush_after_the_last_search(monkeypatch)
    # the flow is the chain 0 < 1 < 3
    with pytest.raises(ConsistencyError,
                       match=r"flow through each vertex is at most w_v: \[2, 1, 0, 1\] vs \[1, 1, 1, 1\]"):
        _diamond_check((1, 1, 1, 1))


def test_the_empty_poset_checks_its_one_weight():
    p = Poset(0, [])
    cl = clique_clutter(comparability_graph(p))
    assert reference_sweep_numbers(cl, 2) == ([0], [0])
    sweep = comparability_mfmc_check(p, cl, 2)
    assert sweep == {"konig_failures": [], "menger_mismatches": [], "mfmc_holds": True, "menger_agrees": True}


# ---------------------------------------------------------------------------
# The failure side of every deciding check: each planted to fail

FAULT_BOUNDS = Bounds(kmax=2, imax=3, wmax=2)
C5 = Clutter(5, [(i, (i + 1) % 5) for i in range(5)])  # not NTF at i = 3, no MFMC at w = 1
NOT_NORMAL = MonomialIdeal(4, [(2, 0, 0, 1), (0, 2, 0, 1)])  # not normal at k = 1
CAUC22 = complete_admissible_uniform_clutter(2, 2)  # every sign true
TWO_SQUARES = MonomialIdeal(2, [(2, 0), (0, 2)])  # neither normal nor rounding
# the three-way witness renders all its parts whichever sign is flipped
THREE_WAY = dict.fromkeys(("signs", "disagreements", "ntf", "normal", "q_integral", "mfmc"))


def _not_ntf(monkeypatch):
    honest = certify.is_ntf_up_to
    monkeypatch.setattr(certify, "is_ntf_up_to", lambda cl, imax: honest(C5, imax))
    return {"ntf": honest(C5, FAULT_BOUNDS.imax).to_json()}


def _not_normal(monkeypatch):
    gap, verdict = certify.normality_gap, certify.is_normal_up_to
    monkeypatch.setattr(certify, "normality_gap", lambda ideal, kmax: gap(NOT_NORMAL, kmax))
    monkeypatch.setattr(certify, "is_normal_up_to", lambda ideal, kmax: verdict(NOT_NORMAL, kmax))
    return {"normal": verdict(NOT_NORMAL, FAULT_BOUNDS.kmax).to_json()}


def _not_integral(monkeypatch):
    monkeypatch.setattr(certify, "is_integral", lambda a: False)
    # Q(A) is integral after all: no fractional vertex, and D = 1
    return {"q_integral": {"vertex": None, "denominator": 1}}


def _one_less_packing(monkeypatch):
    # beta1 at the last w, all weights wmax, drops by one: the k-fold
    # levels of the sweep lose that w from the last level holding it
    honest = polyhedra._kfold_bits

    def short(vectors, caps, kmax):
        levels = list(honest(vectors, caps, kmax))
        last = 1 << math.prod(c + 1 for c in caps) - 1
        top = max(k for k, level in enumerate(levels) if level & last)
        levels[top] ^= last
        return iter(levels)

    monkeypatch.setattr(polyhedra, "_kfold_bits", short)
    return {"konig_failures": None, "menger_mismatches": None}


def _one_less_flow(monkeypatch):
    # the flow at the last w, all weights wmax, drops by one; Koenig holds
    honest = certify.menger_walk

    def short(net, edge_masks, wmax):
        flows, failures = honest(net, edge_masks, wmax)
        last = 1 << (wmax + 1) ** net.n - 1
        value = next(v for v, cells in flows.items() if cells & last)
        flows = {**flows, value: flows[value] ^ last}
        flows[value - 1] = flows.get(value - 1, 0) | last
        return flows, failures

    monkeypatch.setattr(certify, "menger_walk", short)
    return {"menger_mismatches": None}


def _vertex_0_not_duplicated(monkeypatch):
    honest = certify.duplicate
    monkeypatch.setattr(certify, "duplicate", lambda cl, v: honest(cl, v) if v else cl)
    return {"duplication_vertices": [0]}


def _no_clique_is_a_chain(monkeypatch):
    def refuse(p, edge):
        raise ValueError("not a chain")

    monkeypatch.setattr(certify, "chain_order", refuse)
    # the lex-first clique; it is a chain of DIAMOND, so no pair is named
    return {"not_a_chain": {"edge": [0, 1, 3], "pair": None}}


def _three_way_not_ntf(monkeypatch):
    _not_ntf(monkeypatch)
    return THREE_WAY


def _three_way_not_integral(monkeypatch):
    _not_integral(monkeypatch)
    return {**THREE_WAY, "q_integral": False}


def _no_mfmc(monkeypatch):
    honest = certify.mfmc_bounded
    monkeypatch.setattr(certify, "mfmc_bounded", lambda c, wmax: honest(C5, wmax))
    return THREE_WAY


def _rounding_holds(monkeypatch):
    monkeypatch.setattr(certify, "integer_rounding_holds", lambda a, wmax: True)
    return {"normal": certify.is_normal_up_to(TWO_SQUARES, FAULT_BOUNDS.kmax).to_json(), "rounding": None}


# (instance type, instance, plant, the checks it makes false, id)
PLANTED = [
    ("poset", DIAMOND, _not_ntf, {"ntf"}, "ntf"),
    ("poset", DIAMOND, _not_normal, {"normal"}, "normal"),
    ("poset", DIAMOND, _not_integral, {"q_integral"}, "q_integral"),
    ("poset", DIAMOND, _one_less_packing, {"mfmc_holds", "menger_agrees"}, "konig"),
    ("poset", DIAMOND, _one_less_flow, {"menger_agrees"}, "menger"),
    ("poset", DIAMOND, _vertex_0_not_duplicated, {"duplication_commutes"}, "duplication"),
    ("poset", DIAMOND, _no_clique_is_a_chain, {"cliques_are_chains"}, "cliques_are_chains"),
    ("graph", Graph(3, [(0, 1), (1, 2)]), _vertex_0_not_duplicated, {"duplication_commutes"}, "duplication"),
    ("clutter", CAUC22, _three_way_not_ntf, {"three_way_signs_agree", "ntf"}, "ntf"),
    ("clutter", CAUC22, _three_way_not_integral, {"three_way_signs_agree", "normal_and_integral"}, "integral"),
    ("clutter", CAUC22, _no_mfmc, {"three_way_signs_agree", "mfmc"}, "mfmc"),
    ("ideal", TWO_SQUARES, _rounding_holds, {"normal", "normal_equals_rounding"}, "rounding"),
]
POSET_PLANTS = [pytest.param(plant, failed, id=i) for kind, _, plant, failed, i in PLANTED if kind == "poset"]


@pytest.mark.parametrize("kind, obj, plant, failed", [
    pytest.param(*row[:4], id=f"{row[0]}-{row[4]}") for row in PLANTED
])
def test_a_failed_check_is_recorded_with_a_declared_witness(monkeypatch, kind, obj, plant, failed):
    witness = plant(monkeypatch)
    record = certify.CHECKS[kind].check(obj, FAULT_BOUNDS)
    assert {k for k, v in record["checks"].items() if not v} == failed
    assert not record["pass"] and record["witness"] is not None
    declared = {part for key in failed for part in certify.CHECKS[kind].checks[key]}
    assert set(record["witness"]) == set(witness) <= declared
    for key, value in witness.items():
        if value is not None:
            assert record["witness"][key] == value


def test_every_deciding_check_has_a_planted_fault():
    deciding = {(kind, key) for kind, row in certify.CHECKS.items() for key, parts in row.checks.items() if parts}
    planted = {(kind, key) for kind, _, _, failed, _ in PLANTED for key in failed}
    assert deciding <= planted


@pytest.mark.parametrize("kind, obj", [
    ("poset", DIAMOND), ("graph", Graph(3, [(0, 1)])), ("clutter", CAUC22), ("ideal", TWO_SQUARES),
], ids=["poset", "graph", "clutter", "ideal"])
def test_a_record_lists_its_checks_in_table_order(kind, obj):
    # the text rendering prints the checks in record order
    record = certify.CHECKS[kind].check(obj, FAULT_BOUNDS)
    assert list(record["checks"]) == list(certify.CHECKS[kind].checks)


def test_the_fractional_vertex_of_an_odd_cycle_is_all_halves():
    assert certify.fractional_vertex(ideals.edge_ideal(C5)) == {"vertex": ["1/2"] * 5, "denominator": 2}
    assert certify.fractional_vertex(ideals.edge_ideal(CAUC22)) == {"vertex": None, "denominator": 1}


@pytest.mark.parametrize("plant, failed", POSET_PLANTS)
def test_a_failed_poset_check_is_recorded_with_its_witness(monkeypatch, plant, failed):
    witness = plant(monkeypatch)
    if "konig_failures" in witness:
        record = certify.check_poset_instance(DIAMOND, FAULT_BOUNDS)
        [konig] = record["witness"]["konig_failures"]
        assert konig["w"] == [FAULT_BOUNDS.wmax] * DIAMOND.n
        assert konig["alpha0"] == konig["beta1"] + 1
        [mismatch] = record["witness"]["menger_mismatches"]
        assert mismatch["w"] == konig["w"] and "invariant" not in mismatch
    report = run_theorem_suite(Corpus("random-posets", n=4, count=3, seed=1), FAULT_BOUNDS)
    assert not report.skipped and len(report.instances) == 3
    assert report.aggregate == "fail"
    assert len(report.counterexamples) == 3
    for rec in report.instances:
        assert {k for k, v in rec["checks"].items() if not v} == failed
    for ex in report.counterexamples:
        assert set(ex["witness"] or {}) == set(witness)


PER_CELL_ROUTES = ("_cell_values", "_cell_list")


def _count_per_cell_calls(monkeypatch) -> list[str]:
    """Patch every binding of the per-cell routes in the program's modules
    to record its calls; returns the list the calls go to."""
    calls = []
    for module in (certify, ideals, packing, polyhedra):
        for name in PER_CELL_ROUTES:
            if hasattr(module, name):
                honest = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *args, name=name, honest=honest:
                                    calls.append(name) or honest(*args))
    return calls


@pytest.mark.parametrize("plant, poset, bounds", [
    *(pytest.param(plant, DIAMOND, FAULT_BOUNDS, id=i)
      for _, _, plant, _, i in PLANTED if i in ("konig", "menger")),
    pytest.param(_one_less_flow, random_posets(8, 1, seed=3)[0], Bounds(kmax=2, imax=2, wmax=3),
                 id="menger-65536-w"),
])
def test_a_failing_poset_sweep_lists_no_whole_box(monkeypatch, plant, poset, bounds):
    # a failed Koenig or Menger check renders its witnesses from the packed
    # failing set and value sets, reading the two numbers per suspect w only
    witness = plant(monkeypatch)
    calls = _count_per_cell_calls(monkeypatch)
    record = certify.check_poset_instance(poset, bounds)
    assert calls == []
    assert not record["pass"] and set(record["witness"]) == set(witness)
    last = [bounds.wmax] * poset.n
    assert [m["w"] for m in record["witness"]["menger_mismatches"]] == [last]


def test_a_passing_w_planted_in_the_failing_set_is_caught(monkeypatch):
    # the kernel reader adds the last w, all weights wmax, to the first
    # level's difference; Koenig holds there, and the numbers read for that
    # w alone say so, so the failing set and they disagree
    honest = polyhedra._level_diffs

    def planted(levels, caps, rows, unit):
        last = 1 << math.prod(c + 1 for c in caps) - 1
        for k, diff in honest(levels, caps, rows, unit):
            yield k, diff | last if k == 1 else diff

    monkeypatch.setattr(polyhedra, "_level_diffs", planted)
    last = [FAULT_BOUNDS.wmax] * DIAMOND.n
    cl = clique_clutter(comparability_graph(DIAMOND))
    with pytest.raises(ConsistencyError, match=re.escape(
            "w is in the packed Koenig failing set iff alpha0 != beta1 of C^w at w: "
            f"{{'w': {last}, 'failing': True}} vs [2, 2]")):
        certify.mfmc_bounded(cl, FAULT_BOUNDS.wmax)
    report = run_theorem_suite(Corpus("random-posets", n=4, count=2, seed=1), FAULT_BOUNDS)
    assert [rec["checks"] for rec in report.instances] == [{"consistent": False}] * 2
    for ex in report.counterexamples:
        invariant = ex["witness"]["invariant"]
        assert invariant["check"] == "w is in the packed Koenig failing set iff alpha0 != beta1 of C^w at w"
        assert invariant["values"][0] == {"w": last, "failing": True}


MAXIMAL_IDEAL = {"n": 2, "generators": [[1, 0], [0, 1]]}  # rounding holds: nu(w) = w0 + w1


def test_a_dropped_packing_cell_is_caught_by_the_rounding_rederivation(monkeypatch, capsys, tmp_path):
    # the fault drops w = (3, 3) from the top k-fold level holding it, so
    # the sweep reads a false rounding failure there alone; the simplex and
    # the integer search at that w, which share no box kernel, find the
    # true values. Normality reads ideals' own binding and still holds
    _one_less_packing(monkeypatch)
    with pytest.raises(ConsistencyError) as info:
        polyhedra.integer_rounding_check(MonomialIdeal.from_json(MAXIMAL_IDEAL).matrix(), 3)
    assert info.value.to_json() == {
        "check": "lp and ilp at the first failing w = simplex and integer search at that w",
        "values": [["6", 5], ["6", 6]],
    }
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"instances": [{"type": "ideal", "data": MAXIMAL_IDEAL}]}))
    report = run_theorem_suite(Corpus("explicit", path=str(path)), Bounds())
    assert [rec["checks"] for rec in report.instances] == [{"consistent": False}]
    assert report.counterexamples[0]["witness"] == {"invariant": info.value.to_json()}
    assert main(["rounding", "--wmax", "3", json.dumps(MAXIMAL_IDEAL)]) == 4
    assert capsys.readouterr().out == ""


def test_a_rounding_failing_bit_without_a_failing_entry_is_caught(monkeypatch, capsys):
    # the kernel reader adds w = (3, 3) to the first level's difference,
    # where nu = floor(lp) = 6: the rendered entry and the failing set
    # disagree. (certify would not render it: the planted reader also
    # fails normality, so the two verdicts agree)
    honest = polyhedra._level_diffs

    def planted(levels, caps, rows, unit):
        last = 1 << math.prod(c + 1 for c in caps) - 1
        for k, diff in honest(levels, caps, rows, unit):
            yield k, diff | last if k == 1 else diff

    monkeypatch.setattr(polyhedra, "_level_diffs", planted)
    with pytest.raises(ConsistencyError, match=re.escape(
            "w is in the packed rounding failing set iff nu != floor(lp) at w: "
            "{'w': [3, 3], 'failing': True} vs [6, 6]")):
        polyhedra.integer_rounding_check(MonomialIdeal.from_json(MAXIMAL_IDEAL).matrix(), 3)
    assert main(["rounding", "--wmax", "3", json.dumps(MAXIMAL_IDEAL)]) == 4
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("poset, edges, expected", [
    # nothing comparable: the first pair of the first edge
    (Poset(3, []), [(0, 1), (2,)], {"edge": [0, 1], "pair": [0, 1]}),
    # 0 < 1 and 0 < 2: the lex-first edge holds the chain {0, 1}, but its
    # first incomparable pair is (1, 2)
    (Poset(3, [(0, 1), (0, 2)]), [(0, 1, 2)], {"edge": [0, 1, 2], "pair": [1, 2]}),
    # the first edge is a chain, the second is not
    (Poset(4, [(0, 1)]), [(0, 1), (2, 3)], {"edge": [2, 3], "pair": [2, 3]}),
    (Poset(3, [(0, 1), (1, 2), (0, 2)]), [(0, 1, 2)], None),
])
def test_a_clique_that_is_not_a_chain_is_named_with_its_pair(poset, edges, expected):
    assert certify.clique_not_a_chain(poset, Clutter(poset.n, edges)) == expected


# ---------------------------------------------------------------------------
# Guards on the Menger walk

def test_sweep_box_guard_fires_before_the_walk_builds_anything(monkeypatch):
    chain = Poset(12, [(a, b) for a in range(12) for b in range(a + 1, 12)])
    cl = clique_clutter(comparability_graph(chain))

    def unreachable(*args, **kwargs):
        raise AssertionError("the walk was reached")

    monkeypatch.setattr(HasseNetwork, "of", classmethod(unreachable))
    monkeypatch.setattr(HasseNetwork, "_graph", property(unreachable))
    monkeypatch.setattr("clutterlab.certify.menger_walk", unreachable)
    monkeypatch.setattr("clutterlab.polyhedra._kfold_bits", unreachable)
    monkeypatch.setattr("clutterlab.polyhedra._ThresholdSets", unreachable)
    with pytest.raises(ResourceGuardError, match="sweep box size = 16777216"):
        comparability_mfmc_check(chain, cl, 3)


def test_a_poset_past_the_lattice_box_guard_is_skipped_before_the_walk(monkeypatch):
    # cauc_poset(2,6) has n = 12, so its [0,3]^12 NTF box trips the guard;
    # the edge-ideal checks run first, so the walk is never reached
    def unreachable(*args):
        raise AssertionError("the walk was reached")

    monkeypatch.setattr(certify, "comparability_mfmc_check", unreachable)
    with pytest.raises(ResourceGuardError, match=r"^lattice box size = 16777216 exceeds guard limit"):
        certify.check_poset_instance(cauc_poset(2, 6), Bounds(kmax=3, imax=3, wmax=2))


def test_deadline_stops_the_walk_and_certify_skips_the_poset(monkeypatch, clock):
    # every max flow of the walk takes 11 ms of the fake clock, so the
    # budget is spent inside the walk whatever the machine's speed
    honest = HasseNetwork.max_flow
    flows = []

    def slow(self, w):
        flows.append(1)
        clock.now += 0.011
        return honest(self, w)

    monkeypatch.setattr(HasseNetwork, "max_flow", slow)
    p = random_posets(8, 1, seed=1)[0]
    cl = clique_clutter(comparability_graph(p))
    with pytest.raises(ResourceGuardError, match="exceeded 50 ms"), Deadline(50):
        comparability_mfmc_check(p, cl, 3)
    assert len(flows) == 5  # checked once per box seed, before its flow
    with Deadline(50):
        report = run_theorem_suite(Corpus("random-posets", n=8, count=1, seed=1), Bounds())
    assert not report.instances and len(report.skipped) == 1
    assert "per-instance compute exceeded 50 ms" in report.skipped[0]["reason"]
