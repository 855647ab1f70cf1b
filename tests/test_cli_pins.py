"""Pins of the command-line front end: the stdout bytes and exit code of
every subcommand in JSON and ``--text`` mode, the ``error:`` line of each
usage error the program itself raises, and the structure of the parser
(option strings, defaults, required, type and help of every argument).
The ``--help`` bytes are not pinned: argparse lays them out differently
from one Python version to the next.
"""

import hashlib
import io
import json
from types import SimpleNamespace

import pytest

import clutterlab
from clutterlab import certify
from clutterlab.cli import build_parser, main

C5 = json.dumps({"n": 5, "labels": [f"x{i}" for i in range(5)],
                 "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]})
DIAMOND = '{"n":4,"relation":[[0,1],[0,2],[0,3],[1,3],[2,3]]}'
TRIANGLE = '{"n":3,"edges":[[0,1],[1,2],[0,2]]}'
PATH4 = '{"n":4,"labels":["a","b","c","d"],"edges":[[0,1],[1,2],[2,3]]}'
TWO_SQUARES = '{"n":2,"generators":[[2,0],[0,2]]}'
MATRIX = '{"n":3,"columns":[[1,1,0],[0,1,1]]}'
IDP_FAILS = '{"n":3,"columns":[[0,2,2],[1,3,0],[3,1,1]]}'
CAUC22 = '{"n":4,"labels":["x0","x1","x2","x3"],"edges":[[0,1],[0,3],[1,2],[2,3]]}'
POSETS = '{"kind":"random-posets","n":4,"count":2,"seed":1}'
IDEALS = '{"kind":"random-ideals","n":3,"q":3,"maxexp":2,"count":3,"seed":2}'

# (id, argv, stdin or None): each runs as given and with --text appended
CASES = [
    ("comparability", ["comparability", DIAMOND], None),
    ("clique-clutter", ["clique-clutter", TRIANGLE], None),
    ("clique-clutter-path", ["clique-clutter", '{"n":4,"edges":[[0,1],[1,2],[2,3],[0,2]]}'], None),
    ("cauc", ["cauc", "--d", "2", "--g", "3"], None),
    ("cauc-poset", ["cauc", "--d", "2", "--g", "3", "--poset"], None),
    ("parallelize", ["parallelize", "--w", "2,1,0,1,1", C5], None),
    ("parallelize-graph", ["parallelize", "--w", "1,2,0", TRIANGLE], None),
    ("konig-c5", ["konig", C5], None),
    ("konig-graph", ["konig", TRIANGLE], None),
    ("mfmc-c5", ["mfmc", "--wmax", "1", C5], None),
    ("mfmc-cauc22", ["mfmc", "--wmax", "2", CAUC22], None),
    ("mfmc-default", ["mfmc", PATH4], None),
    ("menger", ["menger", DIAMOND], None),
    ("menger-w", ["menger", "--w", "2,1,1,1", DIAMOND], None),
    ("duality", ["duality", C5], None),
    ("duality-w", ["duality", "--w", "1,0,1,0,0", C5], None),
    ("polyhedron-c5", ["polyhedron", C5], None),
    ("polyhedron-ideal", ["polyhedron", TWO_SQUARES], None),
    ("polyhedron-matrix", ["polyhedron", MATRIX], None),
    ("idp", ["idp", "--kmax", "2", TWO_SQUARES], None),
    ("idp-fails", ["idp", "--kmax", "2", IDP_FAILS], None),
    ("idp-default", ["idp", MATRIX], None),
    ("rounding", ["rounding", "--wmax", "1", TWO_SQUARES], None),
    ("rounding-c5", ["rounding", "--wmax", "1", C5], None),
    ("edge-ideal", ["edge-ideal", C5], None),
    ("edge-ideal-graph", ["edge-ideal", TRIANGLE], None),
    ("power", ["power", "--i", "2", TWO_SQUARES], None),
    ("power-clutter", ["power", "--i", "2", C5], None),
    ("symbolic", ["symbolic", "--i", "2", C5], None),
    ("closure-member", ["closure", "--a", "1,1", TWO_SQUARES], None),
    ("closure-not", ["closure", "--a", "1,0", TWO_SQUARES], None),
    ("closure-k", ["closure", "--a", "2,2", "--k", "2", TWO_SQUARES], None),
    ("closure-clutter", ["closure", "--a", "1,1,1,1,1", "--k", "2", C5], None),
    ("normal", ["normal", "--kmax", "2", TWO_SQUARES], None),
    ("normal-c5", ["normal", "--kmax", "2", C5], None),
    ("ntf", ["ntf", "--imax", "3", C5], None),
    ("ntf-holds", ["ntf", "--imax", "2", C5], None),
    ("certify", ["certify", POSETS], None),
    ("certify-seed", ["certify", "--seed", "3", "--wmax", "2", POSETS], None),
    ("certify-ideals", ["certify", "--kmax", "2", "--imax", "2", IDEALS], None),
    ("stdin-dash", ["konig", "-"], C5),
    ("stdin-implicit", ["normal", "--kmax", "2"], TWO_SQUARES),
    ("certify-stdin", ["certify", "--wmax", "1"], POSETS),
]

PINS = {
    "comparability": (0, "07056056915dd40d0953d3f9c571969c6a407505ec25f5f9e393e7e36331f9a8",
                      "bf4726bd410841cccb55dfa2b9a4f87dbfba700787694eb9421ec69e63622e6d"),
    "clique-clutter": (0, "7ed623f5b8e182d6f703f01c6b4ebdb041daa0efe70fae8ec74cbc0ff3ff44db",
                       "99d542f3fbead585c39e17841ff4d0de05cb92c916c1d7a0b02e8a2762d3486e"),
    "clique-clutter-path": (0, "6d08625cb04df54bc734ed0f991d4470a764fb03745f6e8d7d189706c8f4053b",
                            "670e0e44f2974bc6023cfc70bf3a1b733606219683227a5171ca45bc082dfeca"),
    "cauc": (0, "e3c348d83ef089f5c279d9c49833dd6eb9632eb454b190d17e3577bc2f61391f",
             "bbbfc1e337a3dd7c09f7ccb99eb79d78603ab641901349bf9522bbccfff2442d"),
    "cauc-poset": (0, "421f088af7eda37dfb04e87be870017ee767656d8644cb412b8852a34931678f",
                   "ef14d7a560755507fabaf2ec4cd8e668682fc60d5a340a37d9ec997535da65df"),
    "parallelize": (0, "5b4b545e6dcf1d359e037817ec0c9a8fe2225d1fe368404cef8e42d9ad278087",
                    "504bdbcc761f0b3c2ae627a029e12812e9228c88e6140aa3d42d922e75b8bb76"),
    "parallelize-graph": (0, "9498b91f7f68f21194b16fab7c61f7fb145eb1d5f3dbb1c4433a570b0c5afc3c",
                          "05b5681a760201512ca83c69d085d64520c498e0e90e49ca75044e91ce8183a9"),
    "konig-c5": (1, "ec77f844d985dd490aba049c1e89c2140c0d7838f4a497c7760030f809ac932e",
                 "205c9ea7d6879973fbd7840011228b050334477c22f6c86ab8b09be1024cda89"),
    "konig-graph": (0, "401399d4707304341c8e83a5e89fdd1abb3fc5316a406c7e5006b4174250bc40",
                    "44fc1fc00f3af33306143beadd79b9477c1c4d95b3a8a143ab9adcdbcddb7c7b"),
    "mfmc-c5": (1, "47ada7d4200f5dc4a856f6b69624340312a84c076f6732cd5205580450825c96",
                "65ef8ac19fc834faca50879ca0cc514bb5e262200ec2783d8d2546cb0f22fcd4"),
    "mfmc-cauc22": (0, "0bd82dbedf1915b3e2a853c7f6975f3ee22ef01e983ec1a28f741fd253db0335",
                    "0b2dd802f0c592e3baec432dd728d75698190d259d8e77180bcec5673bc79165"),
    "mfmc-default": (0, "0c6a5cfaa9a1e23403230544504831f5d8cbb39a9b025597196db6fd3b048f62",
                     "b07416d23e1ba3485532fed767dfc68a4e54f87322762060dd1c74e4c4f21227"),
    "menger": (0, "1016df979476fda48babd643f32001fd4d4027c2c70eef6e40381e2d93489c12",
               "6c35ce89bd688de76d4d5217db426999e0392dfdd03173383c1b35ec580a5e58"),
    "menger-w": (0, "2ea679c8b03d8b98cab63edb0e16dcef335acaf3b5e10c6454159751f677f108",
                 "7c33f92e4e413157fd0b00cb0524037b578ec31f5691e46ed983fc1ff2912955"),
    "duality": (1, "7c482f3488d49d2c9adba4541d5fe99131d7b52a4a590634e6854146ea1b78d7",
                "9655dd788bd86a916417e2b0d352da10531164e6697e01b50dabd4c32eea0103"),
    "duality-w": (0, "e705fea5b1fd3030637b3094e472d4c498b90e614968ddb4ae60a01cf35a8a01",
                  "89f6e5b818f00e5fa030e8cd05faeca853c9581ba3e450f31e60b234d66bba42"),
    "polyhedron-c5": (1, "07296f183fbefbe3e77a002f2c8fed5f75099ae6f4193b551cc391ec53597d6b",
                      "d946becb865dec7724df6c4f12028c383c6e588364f418d6b2a88004cff85dd6"),
    "polyhedron-ideal": (1, "85e280496dc596b9990ed803cb01480085d26b4a924ea91aac83d7c3bb24c4f9",
                         "3a289451052209af545823dc6dfe2617f0a1c5b9ae99881f3746d6392d3b440c"),
    "polyhedron-matrix": (0, "83bfad1245b3b9a53a5abee4a5929dbbb40564b507548e544e4d5800289161f5",
                          "4d65110e9e09b8968061cd05a271dba05c5524d32e52b497e446c845aae4c4db"),
    "idp": (0, "fbddd3b86b3a74de998df98a1684a18e89e09fd7c1d8aa462a87575e46847935",
            "cc0031028ee96f174a0e6cfe89b5a08da3bf78e28224c007e094384ceedec188"),
    "idp-fails": (1, "64c2a9fe5c581683dfbf526179b1997a2e0a2e9195041b3a98dcc941b9d589b1",
                  "a1b73da31fe3a0a0f7afaa73d88cb79fd636d9b0b61494d3ca2b1e66850569f9"),
    "idp-default": (0, "1075337fba434e445e15e50b427082fefe0b3d8c2cc40ea9dc954adc0e89e69b",
                    "0b0041508590d805844a779d88909e0877cf615d3e8b08e9c022b75cbacec40a"),
    "rounding": (1, "e06b5f058bc528b1ff96ba8ef01a468a9542fc0677459c58cded28efc668f3df",
                 "0432d14553dff7e714a275018039f3c9a8d6b3504ba92721c41bdd7f5d35ca56"),
    "rounding-c5": (0, "1c582beda3521d49ee7e8e005d2dc6da4057c0832baf76939db36fa5e65e6741",
                    "1a2efb60777fd089bd1574026b856cb06d0402e8f5eef461b73a9f5139f7d8a2"),
    "edge-ideal": (0, "31889c0772e222cd4d9378e84629202bd7f0916dce487a2f1a58530c71d59fbd",
                   "9d5443a242272dd7def55360cc8a7d23221cdbaaa31ab5af63a444a17613d0a7"),
    "edge-ideal-graph": (0, "41f3be0cf556e6ff660247641513a6f16cda1f6c86185eeb0335c3ccc766658b",
                         "c71859ac32728422bf33bf172e6363fdc7390b5d97f407f818afe2d900161aad"),
    "power": (0, "7fb40ba92cca7cb264b772b925ba36d1fd60cc9b9669df4b4dbf28ebde143e5c",
              "67b4cc231724a22ce217103d8835d5c4996bed9c75a3f6819c3070009f113575"),
    "power-clutter": (0, "64e429aa91f0f81d006685b34bcc8d866ee46428361e9c57b257206628cf0880",
                      "c54800cbd5987110dee0b29a3a47f7a08aa0b5ef15416fcca001d22a789809c7"),
    "symbolic": (0, "64e429aa91f0f81d006685b34bcc8d866ee46428361e9c57b257206628cf0880",
                 "c54800cbd5987110dee0b29a3a47f7a08aa0b5ef15416fcca001d22a789809c7"),
    "closure-member": (0, "80a9f5acae44482285469d064115f740f6ca9911c3ec69a271cfa43bde348ffc",
                       "e6fded2f8470c8975bf87059c8ff317e23ec37592ad46eddad61f6c44f43485e"),
    "closure-not": (1, "97d1dbe57cbd2484b4dbe21a82e739ef6993ab22bca5138e06f5bd3b5bf3bdbe",
                    "bea8ae338bf39058aa3d02ca5e4251c9fc017361c2ea26f6fb06e2f635a0b8c6"),
    "closure-k": (0, "bd93a165f7a58e30adb040149b62a78376afd4866c0c61847233ace8d269c860",
                  "e05e254ded8838bff061ead851928fedddee746a808fb924d3bad46b595f27b1"),
    "closure-clutter": (0, "32a98da71202e5be6c84f26075be2dce32f79d07f30918db8155d3c9aacfc9b9",
                        "d2093a1947b19a42e87b34b1ccfa15f589c95eb638010b3b2da527edfc0196eb"),
    "normal": (1, "0693e46991067461a84dc4da10a130042c23fbbf62504c696104a704c66dd008",
               "9bb314b220feee78a7bceca5eff4ffdd04512c84b0da50dfe6b42bbcde27914a"),
    "normal-c5": (0, "1d678c11f17e0552230bc50159752f4fa0a6cb2ad023c601f22a8545b3f9cd1e",
                  "7bcf8bc1bf2e134bdb937a0290b35e7376ee19a286f872326716ca742735f45a"),
    "ntf": (1, "0c74a9fc02b50e24081eea26abfd8db5a87bc84b288f55a9cade6e3b16067309",
            "5f646e7ab1f275889020f370741e4025f86ec91ef4cb71881b94a9e4402fef0f"),
    "ntf-holds": (0, "72e97520e3b8c393cdde5b02508174adf33c45f7b914dd6cda6cb0ae94569b50",
                  "c791973b1976f2e6876d9d011b13c1a89620950f29fb66fe5f6cd5983d238590"),
    "certify": (0, "f5a5e29421cbc55aed863226404debce85c19acb10a69676d4bfddd94d8ea9a8",
                "af13b0f2cbaf82a0d7bbb639015058a8c8aa0442270815880ad32c558f553b78"),
    "certify-seed": (0, "fcb7821e07b08c515db8327ca688a8194241c96c3a8024488c6ced803274a921",
                     "7b1bdd1e7a40c83544d2fa57f140970e2ef9af8fec0407b9f03ea5f97d617364"),
    "certify-ideals": (0, "614190090ea8c6ecc269fa2c0f40e147aad96d53e9ecf042f3343c1352e1713a",
                       "85f01f02c1e9b2522cf1cddf9abf79f3f0ac383df05ffec45acf826c39200811"),
    "stdin-dash": (1, "ec77f844d985dd490aba049c1e89c2140c0d7838f4a497c7760030f809ac932e",
                   "205c9ea7d6879973fbd7840011228b050334477c22f6c86ab8b09be1024cda89"),
    "stdin-implicit": (1, "0693e46991067461a84dc4da10a130042c23fbbf62504c696104a704c66dd008",
                       "9bb314b220feee78a7bceca5eff4ffdd04512c84b0da50dfe6b42bbcde27914a"),
    "certify-stdin": (0, "d45e803101a9a7db5a6c708a096a3dbd886fc015b09559047d9f367b7da070c5",
                      "ae53fe6304e51a96dc161f492dd31c18ec25b76f5fc0ba701e3533a5585e8638"),
    "certify-tty": (0, "fb4b78670df28fcf4eee4e1f57ba1e140dc7e15fc98085d47f361eb9aef49838", ""),
}


class _Stdin(io.StringIO):
    def __init__(self, text, tty):
        super().__init__(text)
        self._tty = tty

    def isatty(self):
        return self._tty


def _invoke(capsys, monkeypatch, argv, stdin, tty=False):
    monkeypatch.setattr("sys.stdin", _Stdin(stdin or "", tty))
    # certify --text prints its wall time: hold it at the pinned 0.00 s
    monkeypatch.setattr(certify, "time", SimpleNamespace(monotonic=lambda: 0.0))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case_id, argv, stdin", CASES, ids=[c[0] for c in CASES])
def test_stdout_bytes_and_exit_code(capsys, monkeypatch, case_id, argv, stdin):
    code, json_digest, text_digest = PINS[case_id]
    got = _invoke(capsys, monkeypatch, argv, stdin)
    assert (got[0], _sha(got[1]), got[2]) == (code, json_digest, "")
    got = _invoke(capsys, monkeypatch, [*argv, "--json"], stdin)
    assert (got[0], _sha(got[1]), got[2]) == (code, json_digest, "")
    got = _invoke(capsys, monkeypatch, [*argv, "--text"], stdin)
    assert (got[0], _sha(got[1]), got[2]) == (code, text_digest, "")


def test_certify_on_a_terminal_runs_the_default_corpus(capsys, monkeypatch):
    code, out, err = _invoke(capsys, monkeypatch, ["certify", "--wmax", "1"], None, tty=True)
    assert (code, _sha(out), err) == PINS["certify-tty"]


# (argv, the one stderr line); a lone "-" reads the stdin text [1, 2]
USAGE_ERRORS = [
    (["konig", DIAMOND], "error: expected a clutter, got poset\n"),
    (["polyhedron", DIAMOND], "error: expected a matrix, clutter, or ideal, got poset\n"),
    (["normal", TRIANGLE], "error: expected an ideal or clutter, got graph\n"),
    (["konig", '{"foo":1}'], "error: cannot determine input type from keys ['foo']\n"),
    (["konig", "no/such/file.json"], "error: input file not found: no/such/file.json\n"),
    (["konig", "-"], "error: input must be a JSON object\n"),
    (["konig", '{"n":'], "error: malformed JSON at line 1 column 6: Expecting value\n"),
    (["parallelize", "--w", "1,x", C5], "error: --w must be a comma-separated integer list\n"),
    (["closure", "--a", "1;1", TWO_SQUARES], "error: --a must be a comma-separated integer list\n"),
    (["certify", C5], "error: certify expects a corpus document with a 'kind' key\n"),
    (["certify", '{"kind":"no-such-kind"}'],
     "error: unknown corpus kind 'no-such-kind'; expected one of ('all-posets', "
     "'random-posets', 'random-graphs', 'random-ideals', 'random-clutters', 'explicit')\n"),
    (["certify", '{"kind":"random-posets","n":4}'],
     "error: corpus kind 'random-posets' requires parameter 'count'\n"),
    (["closure", "--a", "1,1", "--k", "0", TWO_SQUARES], "error: k must be >= 1\n"),
    (["power", "--i", "0", TWO_SQUARES], "error: power exponent must be >= 1\n"),
]


@pytest.mark.parametrize("argv, err", USAGE_ERRORS)
def test_usage_errors_exit_2_with_one_error_line(capsys, monkeypatch, argv, err):
    assert _invoke(capsys, monkeypatch, argv, "[1, 2]") == (2, "", err)


@pytest.mark.parametrize(
    "argv",
    [[], ["nope"], ["cauc", "--d", "2"], ["mfmc", "--wmax", "x", C5], ["konig", "--json", "--text", C5],
     ["konig", C5, "extra"], ["parallelize", C5]],
)
def test_argparse_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


def test_version(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out == f"clutterlab {clutterlab.__version__} (schema 1)\n"


def _structure(parser):
    """Every subcommand as [help, arguments, mutually exclusive groups]."""
    [sub] = [a for a in parser._actions if a.dest == "command"]
    helps = {a.dest: a.help for a in sub._choices_actions}
    out = {}
    for name, sp in sub.choices.items():
        args = [[a.option_strings or [a.dest], type(a).__name__, a.default, a.required,
                 getattr(a.type, "__name__", a.type), a.nargs, a.help]
                for a in sp._actions if a.dest != "help"]
        groups = [sorted(s for a in g._group_actions for s in a.option_strings)
                  for g in sp._mutually_exclusive_groups]
        out[name] = [helps[name], args, groups]
    return out


def test_parser_structure():
    parser = build_parser()
    assert parser.prog == "clutterlab"
    expected = {name: [help, args, [["--json", "--text"]]] for name, (help, args) in PARSER.items()}
    assert json.loads(json.dumps(_structure(parser))) == expected


# the arguments every subcommand ends with (cauc reads no input)
INPUT = [["input"], "_StoreAction", None, False, None, "?",
         "path to a JSON document, an inline JSON object, or '-' for stdin (default)"]
FORMAT = [
    [["--json"], "_StoreTrueAction", True, False, None, 0, "canonical JSON output (default)"],
    [["--text"], "_StoreTrueAction", False, False, None, 0, "human-readable output"],
]
PARSER = {
    "comparability": ("poset -> comparability graph", [
        INPUT, *FORMAT,
    ]),
    "clique-clutter": ("graph -> clutter of maximal cliques", [
        INPUT, *FORMAT,
    ]),
    "cauc": ("complete admissible uniform clutter (or its poset)", [
        [["--d"], "_StoreAction", None, True, "int", None, None],
        [["--g"], "_StoreAction", None, True, "int", None, None],
        [["--poset"], "_StoreTrueAction", False, False, None, 0, "emit the defining poset instead"],
        *FORMAT,
    ]),
    "parallelize": ("clutter + weights -> C^w", [
        [["--w"], "_StoreAction", None, True, None, None, "comma-separated natural weights"],
        INPUT, *FORMAT,
    ]),
    "konig": ("alpha0/beta1 certificate for a clutter", [
        INPUT, *FORMAT,
    ]),
    "mfmc": ("Koenig property of C^w for all w <= wmax", [
        [["--wmax"], "_StoreAction", 3, False, "int", None, None],
        INPUT, *FORMAT,
    ]),
    'menger': ("vertex-capacitated flow oracle on a poset's Hasse diagram", [
        [["--w"], "_StoreAction", None, False, None, None, "comma-separated weights (default all ones)"],
        INPUT, *FORMAT,
    ]),
    "duality": ("LP duality equation with integrality check", [
        [["--w"], "_StoreAction", None, False, None, None, "comma-separated weights (default all ones)"],
        INPUT, *FORMAT,
    ]),
    "polyhedron": ("vertices and integrality of Q(A)", [
        INPUT, *FORMAT,
    ]),
    "idp": ("integer decomposition property up to kmax", [
        [["--kmax"], "_StoreAction", 3, False, "int", None, None],
        INPUT, *FORMAT,
    ]),
    "rounding": ("integer rounding over w in {0..wmax}^n", [
        [["--wmax"], "_StoreAction", 3, False, "int", None, None],
        INPUT, *FORMAT,
    ]),
    "edge-ideal": ("clutter -> edge ideal", [
        INPUT, *FORMAT,
    ]),
    "power": ("minimal generators of I^i", [
        [["--i"], "_StoreAction", None, True, "int", None, None],
        INPUT, *FORMAT,
    ]),
    "symbolic": ("minimal generators of the i-th symbolic power", [
        [["--i"], "_StoreAction", None, True, "int", None, None],
        INPUT, *FORMAT,
    ]),
    "closure": ("membership of x^a in the closure of I^k", [
        [["--a"], "_StoreAction", None, True, None, None, "comma-separated exponent vector"],
        [["--k"], "_StoreAction", 1, False, "int", None, None],
        INPUT, *FORMAT,
    ]),
    "normal": ("bounded normality verdict for an ideal", [
        [["--kmax"], "_StoreAction", 3, False, "int", None, None],
        INPUT, *FORMAT,
    ]),
    "ntf": ("bounded normal torsion-freeness for a clutter", [
        [["--imax"], "_StoreAction", 3, False, "int", None, None],
        INPUT, *FORMAT,
    ]),
    "certify": ("run the theorem cross-validation suite", [
        [["--kmax"], "_StoreAction", 3, False, "int", None, None],
        [["--imax"], "_StoreAction", 3, False, "int", None, None],
        [["--wmax"], "_StoreAction", 3, False, "int", None, None],
        [["--seed"], "_StoreAction", None, False, "int", None, "override the corpus seed"],
        INPUT, *FORMAT,
    ]),
}
