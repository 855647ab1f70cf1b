"""Golden bytes of the certify report.

The sha256 values pin ``run_theorem_suite(...).to_json()`` as it was before
the w-sweeps stopped building C^w, so any change in verdicts, witnesses or
``checked`` counts shows here.
"""

import hashlib
from pathlib import Path

import pytest

from clutterlab.certify import Bounds, Corpus, run_theorem_suite
from clutterlab.guards import Deadline

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
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_are_pinned(name, monkeypatch):
    corpus, bounds, digest = GOLDEN[name]
    monkeypatch.chdir(HERE)  # the explicit corpus path enters the report
    report = run_theorem_suite(corpus, bounds)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


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
    report = run_theorem_suite(corpus, bounds, Deadline(0))
    assert len(report.skipped) == 4 and not report.instances
    assert report.aggregate == "inconclusive"
    assert report.to_doc()["aggregate"] == "inconclusive"
    assert report.to_text().endswith("aggregate: inconclusive")
