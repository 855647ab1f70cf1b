import json

from clutterlab.cli import main
from clutterlab.structures import complete_admissible_uniform_clutter


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


def test_duality_c5(capsys):
    code, out = _run(capsys, "duality", C5)
    assert code == 1
    assert json.loads(out)["details"] == {"int_max": 2, "int_min": 3, "lp": "5/2"}
    code, out = _run(capsys, "duality", "--w", "1,0,1,0,0", C5)
    assert code == 0
    assert json.loads(out)["details"] == {"int_max": 0, "int_min": 0, "lp": "0"}


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


def test_normal(capsys):
    code, out = _run(capsys, "normal", "--kmax", "2", TWO_SQUARES)
    assert code == 1
    assert json.loads(out)["witness"] == [1, 1]
    code, out = _run(capsys, "normal", "--kmax", "2", C5)
    assert code == 0
    assert out == '{"bound":2,"kind":"normal-up-to"}\n'


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
