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
