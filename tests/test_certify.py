"""Golden bytes of the certify report, and its failures and guards on the
Menger route.

The sha256 values pin ``run_theorem_suite(...).to_json()`` as it was before
the w-sweeps stopped building C^w, so any change in verdicts, witnesses or
``checked`` counts shows here.
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clutterlab
from clutterlab import complete_admissible_uniform_clutter, ideals, polyhedra
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
from clutterlab.guards import ConsistencyError, Deadline, ResourceGuardError
from clutterlab.packing import HasseNetwork, _cover_matrix, menger_check, sweep_numbers
from clutterlab.structures import Poset, clique_clutter, comparability_graph

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
# One box value array per row set, shared by the checks of an instance

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
    polyhedra._box_values.cache_clear()
    ideals._power_grids.cache_clear()
    cold = run_theorem_suite(corpus, bounds).to_json()
    assert run_theorem_suite(corpus, bounds).to_json() == cold  # warm caches
    polyhedra._box_values.cache_clear()
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
    # NTF on [0,3]^9, normality on the same box (the vertex rows of the
    # integral Q(A) are the minimal covers) and the MFMC sweep on the
    # prefix [0,2]^9 read one array
    c = complete_admissible_uniform_clutter(3, 3)
    built = []
    honest = polyhedra._box_min

    def counting(caps, rows):
        built.append((caps, rows.tobytes()))
        return honest(caps, rows)

    monkeypatch.setattr(polyhedra, "_box_min", counting)
    polyhedra._box_values.cache_clear()
    record = check_clutter_instance(c, Bounds(wmax=2))
    assert record["pass"]
    assert built == [((3,) * 9, _cover_matrix(c).tobytes())]


@pytest.mark.parametrize("gens, normal", [
    ([(2, 0, 0), (1, 1, 0), (0, 2, 0)], True),
    ([(2, 0, 0, 1), (0, 2, 0, 1)], False),
], ids=["normal", "not-normal"])
def test_an_ideal_with_an_unused_variable_builds_its_values_once(monkeypatch, gens, normal):
    # box_caps gives the unused variable cap 0, the rounding box [0, 3]^n
    # does not; every vertex row of Q(A) has coefficient 0 there, so
    # rounding reads the normality array broadcast along that axis
    from clutterlab import MonomialIdeal

    built = []
    honest = polyhedra._box_min

    def counting(caps, rows):
        built.append(caps)
        return honest(caps, rows)

    monkeypatch.setattr(polyhedra, "_box_min", counting)
    polyhedra._box_values.cache_clear()
    record = check_ideal_instance(MonomialIdeal(len(gens[0]), gens), Bounds())
    assert record["checks"] == {"normal": normal, "rounding": normal, "normal_equals_rounding": True}
    [caps] = built
    assert caps[2] == 0


# ---------------------------------------------------------------------------
# A Hasse network with one arc dropped: recorded failures, not exceptions

# the broken_hasse_network fixture, for a subprocess
BROKEN_NETWORK = """
import dataclasses
from clutterlab.packing import HasseNetwork

honest = HasseNetwork.of.__func__


def broken(cls, p):
    net = honest(cls, p)
    return dataclasses.replace(net, arcs=net.arcs[1:])


HasseNetwork.of = classmethod(broken)
"""


def _first_menger_failure(p, wmax):
    """Lex-first w where a fresh flow on the (patched) network fails a
    check or differs from the Koenig numbers."""
    cl = clique_clutter(comparability_graph(p))
    net = HasseNetwork.of(p)
    taus, nus = sweep_numbers(cl, wmax)
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
    sweep = comparability_mfmc_check(p, clique_clutter(comparability_graph(p)), 2)
    assert sweep == {"checked_w": 1, "konig_failures": [], "menger_mismatches": [],
                     "mfmc_holds": True, "menger_agrees": True}


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
    monkeypatch.setattr("clutterlab.polyhedra._box_min", unreachable)
    with pytest.raises(ResourceGuardError, match="sweep box size = 16777216"):
        comparability_mfmc_check(chain, cl, 3)


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
