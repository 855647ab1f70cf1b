import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clutterlab
from clutterlab import (
    Clutter,
    MonomialIdeal,
    certify,
    edge_ideal,
    integer_rounding_check,
    normality_gap,
)
from clutterlab.cli import main
from clutterlab.guards import ConsistencyError
from clutterlab.packing import HasseNetwork
from clutterlab.structures import cauc_poset, complete_admissible_uniform_clutter


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_mfmc_holds_on_cauc33(capsys):
    doc = json.dumps(complete_admissible_uniform_clutter(3, 3).to_json())
    code, out = _run(capsys, "mfmc", "--wmax", "2", doc)
    assert code == 0
    assert json.loads(out) == {
        "bound": 2,
        "details": {"checked": 3 ** 9},
        "property": "mfmc",
        "verdict": "holds-up-to-bound",
    }


def test_mfmc_fails_on_c5_at_all_ones(capsys):
    doc = json.dumps({"n": 5, "labels": [f"x{i}" for i in range(5)],
                      "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]})
    code, out = _run(capsys, "mfmc", "--wmax", "1", doc)
    assert code == 1
    cert = json.loads(out)
    assert cert["verdict"] == "fails"
    assert cert["witness"]["w"] == [1, 1, 1, 1, 1]
    assert cert["details"] == {"checked": 32}


def test_menger_diamond_canonical_json(capsys):
    doc = '{"n":4,"relation":[[0,1],[0,2],[0,3],[1,3],[2,3]]}'
    code, out = _run(capsys, "menger", doc)
    assert code == 0
    assert out == (
        '{"alpha0":1,"beta1":1,"cover":[0],"matching":[[0,1,3]],'
        '"property":"konig","verdict":"holds"}\n'
    )


CAUC23_POSET = '{"n":6,"relation":[[0,3],[0,4],[0,5],[1,4],[1,5],[2,5]]}'
# random_posets(6, 3, seed=1)[2]
RANDOM_POSET = ('{"n":6,"relation":[[0,5],[1,0],[1,2],[1,4],[1,5],[3,0],[3,2],'
                '[3,5],[4,0],[4,5]]}')


@pytest.mark.parametrize(
    "doc, w, digest",
    [
        (CAUC23_POSET, "2,1,3,1,2,2", "42c6b40589f235c48e1d163c30c11d3f8d2b830b7b12458778933ce796c1e346"),
        (RANDOM_POSET, "3,0,2,3,1,2", "25860a389ddd8335308be10dcce07179e437e887b5812d8b71cbee3d8917911e"),
    ],
    ids=["cauc23-poset", "random-poset"],
)
def test_menger_canonical_bytes(capsys, doc, w, digest):
    # pins the flow decomposition behind the matching, not only its size
    code, out = _run(capsys, "menger", "--json", "--w", w, doc)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_menger_on_a_broken_network_exits_4(capsys, broken_hasse_network):
    # with the Hasse arc 0 -> 1 dropped from the diamond, the min cut {2}
    # misses the surviving clique {0, 1, 3}
    doc = '{"n":4,"relation":[[0,1],[0,2],[0,3],[1,3],[2,3]]}'
    code = main(["menger", "--w", "2,1,1,1", doc])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert "cut meets every surviving clique: [2] vs [0, 1, 3]" in captured.err


C5 = json.dumps({"n": 5, "labels": [f"x{i}" for i in range(5)],
                 "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]})
TRIANGLE = '{"n":3,"edges":[[0,1],[1,2],[0,2]]}'
TWO_SQUARES = '{"n":2,"generators":[[2,0],[0,2]]}'


def test_konig_c5_fails_with_lex_least_witnesses(capsys):
    code, out = _run(capsys, "konig", C5)
    assert code == 1
    assert out == (
        '{"alpha0":3,"beta1":2,"cover":[0,1,3],"matching":[[0,1],[2,3]],'
        '"property":"konig","verdict":"fails"}\n'
    )


def test_konig_triangle_holds(capsys):
    code, out = _run(capsys, "konig", TRIANGLE)
    assert code == 0
    assert out == (
        '{"alpha0":1,"beta1":1,"cover":[0],"matching":[[0,1,2]],'
        '"property":"konig","verdict":"holds"}\n'
    )


def test_konig_honours_the_deadline(capsys, monkeypatch):
    # the zero budget is spent before the first node of the cover search
    monkeypatch.setenv("CLUTTERLAB_GUARD_MS", "0")
    code = main(["konig", C5])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "per-instance compute exceeded 0 ms" in captured.err


@pytest.mark.parametrize("raw", ["abc", "-5", "nan"])
def test_malformed_budget_exits_2(capsys, monkeypatch, raw):
    monkeypatch.setenv("CLUTTERLAB_GUARD_MS", raw)
    code = main(["cauc", "--d", "2", "--g", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"error: CLUTTERLAB_GUARD_MS must be a number of milliseconds >= 0, got {raw!r}\n"
    )


def test_mfmc_witness_disagreeing_with_the_sweep_exits_4(capsys, padded_cover_search):
    code = main(["mfmc", "--wmax", "1", C5])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert ("alpha0/beta1 of C^w from weights on C = Koenig search on C^w: "
            "[3, 2] vs [4, 2]") in captured.err


def test_certify_records_a_raised_consistency_error(capsys, monkeypatch, tmp_path):
    # a decomposition that finds the flow unconserved raises; the error is
    # recorded at every w of the cauc(2,2) poset, each w keeps its max flow
    # and min cut, and the run goes on
    def unconserved(self, cap):
        raise ConsistencyError("flow is conserved", 1, 0)

    monkeypatch.setattr(HasseNetwork, "_decompose", unconserved)
    path = tmp_path / "cauc22.json"
    path.write_text(json.dumps({"instances": [
        {"type": "poset", "data": cauc_poset(2, 2).to_json()},
        {"type": "clutter", "data": complete_admissible_uniform_clutter(2, 2).to_json()},
    ]}))
    code, out = _run(capsys, "certify", "--wmax", "2", json.dumps({"kind": "explicit", "path": str(path)}))
    assert code == 1
    doc = json.loads(out)
    assert doc["counts"] == {"instances": 2, "failed": 1, "skipped": 0}
    checks = doc["instances"][0]["checks"]
    assert checks.pop("menger_agrees") is False
    assert checks and all(checks.values())  # every other check still decided
    assert doc["instances"][1]["pass"] is True
    [example] = doc["counterexamples"]
    assert example["index"] == 0
    mismatches = example["witness"]["menger_mismatches"]
    assert mismatches and set(example["witness"]) == {"menger_mismatches"}
    for entry in mismatches:
        # the flow is a maximum, so only the invariant is off
        assert entry["konig"] == entry["menger"]
        assert entry["invariant"] == {"check": "flow is conserved", "values": [1, 0]}


def test_duality_c5(capsys):
    code, out = _run(capsys, "duality", C5)
    assert code == 1
    assert json.loads(out)["details"] == {"int_max": 2, "int_min": 3, "lp": "5/2"}
    code, out = _run(capsys, "duality", "--w", "1,0,1,0,0", C5)
    assert code == 0
    assert json.loads(out)["details"] == {"int_max": 0, "int_min": 0, "lp": "0"}


DIAMOND = '{"n":4,"relation":[[0,1],[0,2],[0,3],[1,3],[2,3]]}'


@pytest.mark.parametrize(
    "command, doc, w",
    [
        ("duality", C5, "1,0,-1,0,0"),
        ("duality", C5, "1,1"),
        ("menger", DIAMOND, "1,-2,1,1"),
        ("menger", DIAMOND, "1,1,1,1,1"),
    ],
    ids=["duality-negative", "duality-length", "menger-negative", "menger-length"],
)
def test_bad_weights_exit_2(capsys, command, doc, w):
    code = main([command, "--w", w, doc])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: weight")


def test_an_empty_w_is_the_weight_vector_of_no_points(capsys):
    code, out = _run(capsys, "menger", "--w=", '{"n":0,"relation":[]}')
    assert code == 0 and json.loads(out)["alpha0"] == 0


@pytest.mark.parametrize(
    "argv, code",
    [(["konig", C5], 1), (["mfmc", "--wmax", "1", C5], 1)],
    ids=["konig", "mfmc"],
)
def test_verdicts_are_the_same_under_python_O(argv, code):
    # no verdict rests on an assert, which -O strips
    src = str(Path(clutterlab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    runs = [
        subprocess.run([sys.executable, *flags, "-m", "clutterlab.cli", *argv], env=env,
                       capture_output=True, text=True, timeout=120)
        for flags in ([], ["-O"])
    ]
    assert [r.returncode for r in runs] == [code, code]
    assert runs[0].stdout == runs[1].stdout != ""


def test_polyhedron_c5_is_not_integral(capsys):
    code, out = _run(capsys, "polyhedron", C5)
    assert code == 1
    doc = json.loads(out)
    assert doc["integral"] is False and len(doc["vertices"]) == 6
    assert ["1/2"] * 5 in doc["vertices"]
    code, out = _run(capsys, "polyhedron", TWO_SQUARES)
    assert code == 1
    assert json.loads(out)["vertices"] == [["1/2", "1/2"]]


def test_idp(capsys):
    code, out = _run(capsys, "idp", "--kmax", "2", TWO_SQUARES)
    assert code == 0
    assert json.loads(out)["details"] == {"checked": {"1": 6, "2": 15}}
    code, out = _run(capsys, "idp", "--kmax", "2",
                     '{"n":3,"columns":[[0,2,2],[1,3,0],[3,1,1]]}')
    assert code == 1
    assert json.loads(out)["witness"] == {"k": 2, "point": [3, 4, 2]}


def test_rounding(capsys):
    code, out = _run(capsys, "rounding", "--wmax", "1", TWO_SQUARES)
    assert code == 1
    assert json.loads(out)["witness"] == {"floor": 1, "holds": False, "ilp": 0, "lp": "1", "w": [1, 1]}
    code, out = _run(capsys, "rounding", "--wmax", "1", C5)
    assert code == 0
    assert json.loads(out)["details"]["tested"] == 32


NON_SQUAREFREE = '{"n":3,"generators":[[2,1,0],[0,1,2],[1,0,1]]}'


ROUNDING_BYTES = pytest.mark.parametrize(
    "doc, code, digest",
    [
        (TWO_SQUARES, 1, "22d411f467709a7c4335db7a5db036fbfb990f692a70a9d2b729dbd39688ddd6"),
        (C5, 0, "d76e52ab0306adbcb6013370dfa7921c65ce3f787c2aeaa15693d684cd25d83c"),
        (NON_SQUAREFREE, 0, "65a62462e711b946c4160343a2ad6c2ebad277e4cb82a4c611a1b9fe0d4fb33b"),
    ],
    ids=["two-squares", "c5", "non-squarefree"],
)


@ROUNDING_BYTES
def test_rounding_canonical_bytes(capsys, doc, code, digest):
    # pins every per_w entry, its order and its formatting, as the per-w
    # simplex and integer-packing route printed them
    got, out = _run(capsys, "rounding", "--wmax", "2", "--json", doc)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@ROUNDING_BYTES
def test_a_disagreement_witness_is_the_rounding_certificate(monkeypatch, doc, code, digest):
    # certify reads the rounding verdict off the box arrays and renders the
    # per-w certificate only for a disagreement; flipping the normality
    # verdict forces one, and its witness must be the pinned CLI document
    def flipped(ideal, kmax):
        return (1, (0,) * ideal.n) if normality_gap(ideal, kmax) is None else None

    monkeypatch.setattr(certify, "normality_gap", flipped)
    parsed = json.loads(doc)
    ideal = (MonomialIdeal.from_json(parsed) if "generators" in parsed
             else edge_ideal(Clutter.from_json(parsed)))
    rec = certify.check_ideal_instance(ideal, certify.Bounds(wmax=2))
    assert rec["checks"]["rounding"] == (code == 0)
    assert not rec["pass"] and not rec["checks"]["normal_equals_rounding"]
    rounding = rec["witness"]["rounding"]
    assert rounding == integer_rounding_check(ideal.matrix(), 2).to_json()
    assert hashlib.sha256(certify.canonical_json(rounding).encode()).hexdigest() == digest


def test_mfmc_sweep_box_over_the_guard_exits_3(capsys, monkeypatch):
    # 4^12 weights exceed the grid guard, which fires before the box is built
    def unreachable(*args, **kwargs):
        raise AssertionError("the sweep box was allocated")

    monkeypatch.setattr("clutterlab.polyhedra._ThresholdSets", unreachable)
    monkeypatch.setattr("clutterlab.packing._cover_matrix", unreachable)
    doc = json.dumps({"n": 12, "labels": [f"x{i}" for i in range(12)], "edges": [list(range(12))]})
    code, out = _run(capsys, "mfmc", "--wmax", "3", doc)
    assert code == 3
    assert out == ""


def test_rounding_box_over_the_guard_exits_3(capsys):
    doc = json.dumps({"n": 12, "columns": [[1] * 12]})
    code, out = _run(capsys, "rounding", "--wmax", "3", doc)
    assert code == 3
    assert out == ""


def test_normal(capsys):
    code, out = _run(capsys, "normal", "--kmax", "2", TWO_SQUARES)
    assert code == 1
    assert json.loads(out)["witness"] == [1, 1]
    code, out = _run(capsys, "normal", "--kmax", "2", C5)
    assert code == 0
    assert out == '{"bound":2,"kind":"normal-up-to"}\n'


RANDOM_IDEAL_A = '{"n":3,"generators":[[0,0,3],[2,1,1]]}'  # random_ideals(3, 3, 3, 10, seed=3)
RANDOM_IDEAL_B = '{"n":3,"generators":[[2,1,3],[2,3,1],[3,2,2]]}'  # same, seed=2
TWO_TRIANGLES = json.dumps({"n": 6, "labels": list("abcdef"),
                            "edges": [[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]]})
# random_clutters(5, 6, 20, seed=2) and seed=3
CLUTTER_A = '{"n":5,"labels":["x0","x1","x2","x3","x4"],"edges":[[0,1,3],[0,2,4],[1,2,4]]}'
CLUTTER_B = ('{"n":5,"labels":["x0","x1","x2","x3","x4"],'
             '"edges":[[0,1,3],[0,1,4],[0,3,4],[1,3,4],[2,4]]}')


@pytest.mark.parametrize(
    "doc, code, digest",
    [
        (TWO_SQUARES, 1, "fac4a080148c11adf4c9e498951cebf0ba584e1c83cd96f4ae6eae7676b15aa9"),
        (C5, 0, "adfd56023b4c9e6401748194301af03f32d7d4c3864a4fa84eb04803a6d6650e"),
        (NON_SQUAREFREE, 0, "adfd56023b4c9e6401748194301af03f32d7d4c3864a4fa84eb04803a6d6650e"),
        (RANDOM_IDEAL_A, 1, "90fb4d26bbd1953908232dacdb65a38963fb4a30e6b9b255d664cf7f042f7bb5"),
        (RANDOM_IDEAL_B, 1, "ff497013a6868a0a12dafa72ff8d69bde7aac67d02b5ac146edac94db5ad5df5"),
        (TWO_TRIANGLES, 1, "553c84a7dbab34071c3dfe154d36cac43a743ca5053589c4f48ea2e29dcbe3ce"),
    ],
    ids=["two-squares", "c5", "non-squarefree", "random-a", "random-b", "two-triangles"],
)
def test_normal_canonical_bytes(capsys, doc, code, digest):
    # pins the witness and the whole explanation of each negative verdict,
    # level 3 and the IDP witness included for the two triangles
    got, out = _run(capsys, "normal", "--kmax", "3", "--json", doc)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "doc, digest",
    [
        (C5, "0c74a9fc02b50e24081eea26abfd8db5a87bc84b288f55a9cade6e3b16067309"),
        (TWO_TRIANGLES, "81d9fdebe180b67fc39fadd22d1d117e4d021381c5897a35fa15cbac03864029"),
        (CLUTTER_A, "9284629dd809dba6cde5a96cc010ce4bf81fb17bdaf3460720cdf74b4582db53"),
        (CLUTTER_B, "091878e9755ac8d553ab1c1b19a3ea30ecc71940341e9f0c24743fe6d99fc4e4"),
    ],
    ids=["c5", "two-triangles", "clutter-a", "clutter-b"],
)
def test_ntf_canonical_bytes(capsys, doc, digest):
    got, out = _run(capsys, "ntf", "--imax", "3", "--json", doc)
    assert got == 1
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_ntf(capsys):
    code, out = _run(capsys, "ntf", "--imax", "3", C5)
    assert code == 1
    assert json.loads(out)["witness"] == [1, 1, 1, 1, 1]
    code, out = _run(capsys, "ntf", "--imax", "2", C5)
    assert code == 0
    assert out == '{"bound":2,"kind":"ntf-up-to"}\n'


def test_closure(capsys):
    code, out = _run(capsys, "closure", "--a", "1,1", TWO_SQUARES)
    assert code == 0
    assert json.loads(out)["member"] is True
    code, out = _run(capsys, "closure", "--a", "1,0", TWO_SQUARES)
    assert code == 1
    assert json.loads(out)["member"] is False


def test_certify_with_every_instance_skipped_is_inconclusive(capsys, monkeypatch):
    # a zero budget is spent before the first w of every instance
    monkeypatch.setenv("CLUTTERLAB_GUARD_MS", "0")
    corpus = '{"kind":"random-posets","n":4,"count":2,"seed":1}'
    code, out = _run(capsys, "certify", corpus)
    assert code == 3
    doc = json.loads(out)
    assert doc["aggregate"] == "inconclusive"
    assert doc["counts"] == {"instances": 0, "failed": 0, "skipped": 2}
    code, out = _run(capsys, "certify", "--text", corpus)
    assert code == 3
    assert out.rstrip().endswith("aggregate: inconclusive")


def test_a_count_of_zero_is_an_empty_inconclusive_corpus(capsys):
    code, out = _run(capsys, "certify", '{"kind":"random-posets","n":3,"count":0,"seed":1}')
    assert code == 3
    doc = json.loads(out)
    assert doc["aggregate"] == "inconclusive"
    assert doc["counts"] == {"instances": 0, "failed": 0, "skipped": 0}


def test_certify_ideals_honour_the_deadline(capsys, monkeypatch):
    # the zero budget is spent by the normality check, before rounding
    monkeypatch.setenv("CLUTTERLAB_GUARD_MS", "0")
    corpus = '{"kind":"random-ideals","n":3,"q":3,"maxexp":3,"count":4,"seed":1}'
    code, out = _run(capsys, "certify", corpus)
    assert code == 3
    doc = json.loads(out)
    assert doc["aggregate"] == "inconclusive"
    assert doc["counts"] == {"instances": 0, "failed": 0, "skipped": 4}


@pytest.mark.parametrize(
    "argv, err",
    [
        (["normal", '{"n":2,"generators":5}'],
         "malformed input document: TypeError: 'int' object is not iterable"),
        (["konig", '{"labels":["a"],"edges":[]}'], "malformed input document: KeyError: 'n'"),
        (["comparability", '{"n":2,"relation":[5]}'],
         "malformed input document: TypeError: cannot unpack non-iterable int object"),
        (["certify", '{"kind":"random-posets","n":"4","count":2,"seed":1}'],
         "corpus parameter 'n' must be int, got '4'"),
        (["certify", '{"kind":"explicit","path":["x"]}'], "corpus parameter 'path' must be str, got ['x']"),
        (["konig", '{"n":2,"labels":"ab","edges":[[0,1]]}'], "expected a list of string labels, got 'ab'"),
        (["parallelize", '{"n":2,"labels":[1,2],"edges":[[0,1]]}', "--w", "2,1"],
         "expected a list of string labels, got [1, 2]"),
        (["konig", '{"n":2,"labels":[],"edges":[[0,1]]}'], "expected 2 labels, got 0"),
        (["clique-clutter", '{"n":2,"edges":[[0,1]],"labels":["a"]}'], "expected 2 labels, got 1"),
        (["comparability", '{"n":2,"relation":[[0,1]],"labels":"ab"}'],
         "expected a list of string labels, got 'ab'"),
        (["menger", '{"n":2,"relation":[[0,1]],"labels":["a","a"]}'], "labels must be unique"),
        # only an absent --w means all ones; an empty one is the empty vector
        (["duality", "--w=", C5], "weight vector has length 0, expected 5"),
        (["menger", "--w=", DIAMOND], "weight vector has length 0, expected 4"),
        (["duality", "--w=1,,1,1,1", C5], "--w must be a comma-separated integer list"),
        (["menger", "--w=1,1,1,1,", DIAMOND], "--w must be a comma-separated integer list"),
        (["closure", "--a= 1, ", TWO_SQUARES], "--a must be a comma-separated integer list"),
        # a generator parameter below its least value is named, not passed to random
        (["certify", '{"kind":"random-posets","n":3,"count":-1,"seed":1}'],
         "corpus parameter 'count' must be >= 0, got -1"),
        (["certify", '{"kind":"random-graphs","n":3,"count":-2,"seed":1}'],
         "corpus parameter 'count' must be >= 0, got -2"),
        (["certify", '{"kind":"random-ideals","n":0,"q":2,"maxexp":1,"count":2,"seed":1}'],
         "corpus parameter 'n' must be >= 1, got 0"),
        (["certify", '{"kind":"random-ideals","n":2,"q":0,"maxexp":1,"count":2,"seed":1}'],
         "corpus parameter 'q' must be >= 1, got 0"),
        (["certify", '{"kind":"random-ideals","n":3,"q":2,"maxexp":-1,"count":2,"seed":1}'],
         "corpus parameter 'maxexp' must be >= 0, got -1"),
        (["certify", '{"kind":"random-clutters","n":1,"maxedges":2,"count":2,"seed":1}'],
         "corpus parameter 'n' must be >= 2, got 1"),
        (["certify", '{"kind":"random-clutters","n":3,"maxedges":0,"count":2,"seed":1}'],
         "corpus parameter 'maxedges' must be >= 1, got 0"),
    ],
    ids=["generators-not-a-list", "no-n", "pair-not-a-list", "corpus-n-a-string", "corpus-path-a-list",
         "labels-a-string", "labels-not-strings", "labels-empty", "graph-labels-too-few",
         "poset-labels-a-string", "poset-labels-repeated", "duality-w-empty", "menger-w-empty",
         "w-empty-item", "w-trailing-comma", "a-blank-item", "posets-count-negative",
         "graphs-count-negative", "ideals-n-0", "ideals-q-0", "ideals-maxexp-negative",
         "clutters-n-1", "clutters-maxedges-0"],
)
def test_a_malformed_document_exits_2_with_one_error_line(capsys, argv, err):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize(
    "argv, err",
    [
        (["normal", '{"n":2,"generators":[[1.5,1]]}'], "expected an integer, got 1.5"),
        (["normal", '{"n":"2","generators":[[1,1]]}'], "expected an integer, got '2'"),
        (["polyhedron", '{"n":1,"columns":[[true]]}'], "expected an integer, got True"),
        (["comparability", '{"n":2,"relation":[[0,1.0]]}'], "expected an integer, got 1.0"),
        (["konig", '{"n":2,"labels":["a","b"],"edges":[[0,"1"]]}'], "expected an integer, got '1'"),
        (["clique-clutter", '{"n":2.5,"edges":[]}'], "expected an integer, got 2.5"),
    ],
    ids=["ideal-entry", "ideal-n", "matrix-entry", "poset-pair", "clutter-edge", "graph-n"],
)
def test_a_non_integer_in_a_document_exits_2(capsys, argv, err):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize(
    "content, err",
    [
        (None, "IsADirectoryError: "),
        ("absent", "FileNotFoundError: "),
        ('{"instances": [', "JSONDecodeError: "),
        ('{"instances": [{"type": "poset"}]}', "KeyError: 'data'"),
        ('[1]', "TypeError: "),
        ('{"instances": [{"type": "ideal", "data": {"n": 1, "generators": [[0.5]]}}]}',
         "ValueError: expected an integer, got 0.5"),
    ],
    ids=["directory", "missing", "bad-json", "no-data", "not-an-object", "non-integer"],
)
def test_an_unreadable_explicit_corpus_exits_2_with_one_error_line(capsys, tmp_path, content, err):
    path = tmp_path if content is None else tmp_path / "corpus.json"
    if content not in (None, "absent"):
        path.write_text(content)
    code = main(["certify", json.dumps({"kind": "explicit", "path": str(path)})])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: cannot read explicit corpus {str(path)!r}: {err}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, err",
    [
        (["certify", '{"kind":"random-posets","n":4,"count":2,"seed":1,"sed":3}'],
         "corpus kind 'random-posets' does not read 'sed'"),
        (["certify", "--seed", "7", '{"kind":"all-posets","n":2}'],
         "corpus kind 'all-posets' does not read 'seed'"),
        (["certify", '{"kind":"all-posets","n":2,"q":3,"seed":7}'],
         "corpus kind 'all-posets' does not read 'q', 'seed'"),
        (["certify", "--seed", "7", '{"kind":"explicit","path":"corpus.json"}'],
         "corpus kind 'explicit' does not read 'seed'"),
    ],
    ids=["unknown-key", "seed-override", "unread-keys", "explicit-seed"],
)
def test_a_corpus_key_its_kind_does_not_read_exits_2(capsys, argv, err):
    # the report would echo the key although no value of it was used
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {err}\n")


def test_an_explicit_clutter_with_no_edges_exits_2_before_any_instance_runs(
    capsys, monkeypatch, tmp_path
):
    checked = []
    monkeypatch.setitem(certify.CHECKS, "clutter",
                        certify.CHECKS["clutter"]._replace(check=lambda c, bounds: checked.append(c)))
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"instances": [
        {"type": "clutter", "data": complete_admissible_uniform_clutter(2, 2).to_json()},
        {"type": "clutter", "data": {"n": 2, "edges": []}},
    ]}))
    code = main(["certify", json.dumps({"kind": "explicit", "path": str(path)})])
    captured = capsys.readouterr()
    assert (code, captured.out, checked) == (2, "", [])
    assert captured.err == (f"error: cannot read explicit corpus {str(path)!r}: "
                            "ValueError: instance 1: clutter must have at least one edge\n")


def test_a_directory_as_input_exits_2(capsys, tmp_path):
    code = main(["konig", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: malformed input document: IsADirectoryError: ")


@pytest.mark.parametrize("a, n", [("2", 1), ("1,1,1", 3)])
def test_closure_of_a_point_of_the_wrong_length_exits_2(capsys, a, n):
    code = main(["closure", "--a", a, TWO_SQUARES])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: point has length {n}, expected 2\n")
