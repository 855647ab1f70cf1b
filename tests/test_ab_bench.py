import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab_bench", Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"
)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

BETTER = {"certify_s": "lower", "setup_s": "lower", "peak_rss_mb": "lower"}
BOUND = {"certify_s": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.1}


def _stdout(certify_s, setup_s, rss, sha="02718bc3", failed=0):
    metrics = {
        "certify_s": {"value": certify_s, "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    return "\n".join([
        "certbench workload=cauc seed=1 trace=0 rounds=3",
        f"certify_s {certify_s:.4f} s (median of 3; min 0.1, max 0.2)",
        f"failed_frac 0.0000 ({failed} of 18 instances)",
        f"report_sha256 {sha}",
        json.dumps({"correct": failed == 0, "attempted": 18, "failed": failed,
                    "metrics": metrics}),
    ]) + "\n"


def test_summary_of_canned_pairs():
    pairs = [
        (_stdout(0.16, 0.10, 40.0), _stdout(0.08, 0.11, 38.0)),
        (_stdout(0.12, 0.10, 40.5), _stdout(0.09, 0.10, 38.5)),
        (_stdout(0.14, 0.12, 40.0), _stdout(0.15, 0.09, 38.0)),
        (_stdout(0.18, 0.11, 41.0), _stdout(0.07, 0.12, 38.0)),
        (_stdout(0.10, 0.10, 40.0), _stdout(0.06, 0.10, 38.0)),
    ]
    s = ab_bench.summarize(pairs, BETTER, BOUND)
    assert s["pairs"] == 5
    parent = s["parent"]["metrics"]["certify_s"]
    assert parent["runs"] == [0.16, 0.12, 0.14, 0.18, 0.10]
    assert (parent["q1"], parent["median"], parent["q3"]) == pytest.approx((0.12, 0.14, 0.16))
    change = s["change"]["metrics"]["certify_s"]
    assert (change["q1"], change["median"], change["q3"]) == pytest.approx((0.07, 0.08, 0.09))
    # ties count for neither side
    assert s["change_wins"] == {"certify_s": 4, "setup_s": 1, "peak_rss_mb": 5}
    assert s["parent"]["sha256"] == s["change"]["sha256"] == ["02718bc3"]
    assert s["parent"]["failed"] == 0 and s["parent"]["attempted"] == 90
    assert s["change"]["all_correct"]


def test_summary_keeps_every_report_hash_and_failure():
    pairs = [
        (_stdout(0.1, 0.1, 40.0), _stdout(0.2, 0.1, 40.0, sha="ffff", failed=2)),
        (_stdout(0.1, 0.1, 40.0), _stdout(0.2, 0.1, 40.0)),
    ]
    s = ab_bench.summarize(pairs, {"certify_s": "lower", "peak_rss_mb": "higher"},
                           {"certify_s": 0.25, "peak_rss_mb": 0.1})
    assert s["change"]["sha256"] == ["02718bc3", "ffff"]
    assert s["change"]["failed"] == 2 and not s["change"]["all_correct"]
    assert s["change_wins"] == {"certify_s": 0, "peak_rss_mb": 0}
    assert set(s["parent"]["metrics"]) == {"certify_s", "peak_rss_mb"}


def _pairs(parent_runs, change_runs):
    """Canned pairs that differ only in certify_s."""
    return [(_stdout(p, 0.1, 40.0), _stdout(c, 0.1, 40.0)) for p, c in zip(parent_runs, change_runs)]


PARENT = [0.100, 0.104, 0.096, 0.102, 0.098, 0.101, 0.099, 0.103, 0.097, 0.100]


def test_verdict_gain_needs_nine_tenths_of_the_pairs_and_the_parents_iqr():
    # the parent's quartiles are about 0.098 and 0.102; a median of 0.08
    # beats its median 0.1 by far more than that
    s = ab_bench.summarize(_pairs(PARENT, [0.08] * 9 + [0.2]), BETTER, BOUND)
    assert s["change_wins"]["certify_s"] == 9
    assert s["verdict"]["certify_s"] == "gain"
    # eight wins of ten are not enough, however large the gain
    s = ab_bench.summarize(_pairs(PARENT, [0.08] * 8 + [0.2] * 2), BETTER, BOUND)
    assert s["verdict"]["certify_s"] == "within-bound"
    # every pair won, but by less than the parent's spread
    s = ab_bench.summarize(_pairs(PARENT, [p - 0.001 for p in PARENT]), BETTER, BOUND)
    assert s["change_wins"]["certify_s"] == 10
    assert s["verdict"]["certify_s"] == "within-bound"
    # a flat metric neither gains nor worsens
    assert s["verdict"]["setup_s"] == s["verdict"]["peak_rss_mb"] == "within-bound"


def test_verdict_gain_needs_one_percent_of_the_parents_median():
    # peak RSS of BENCH_23.json: every pair won, and the drops of 0.05 MB
    # (posets) and 0.03 MB (cauc) beat the parent's IQR of 0.010 and
    # 0.005 MB, but not 1 % of its median of about 35.3 and 35.7 MB
    for parent, drop, iqr in [(35.3047, 0.05, 0.010), (35.7148, 0.03, 0.005)]:
        parent_runs = [parent - iqr / 2] * 4 + [parent] * 2 + [parent + iqr / 2] * 4
        pairs = [(_stdout(0.1, 0.1, p), _stdout(0.1, 0.1, p - drop)) for p in parent_runs]
        s = ab_bench.summarize(pairs, BETTER, BOUND)
        spread = s["parent"]["metrics"]["peak_rss_mb"]
        assert spread["q3"] - spread["q1"] == pytest.approx(iqr)
        assert s["change_wins"]["peak_rss_mb"] == 10
        assert s["verdict"]["peak_rss_mb"] == "within-bound"
    # a drop just over 1 % of the median is a gain
    pairs = [(_stdout(0.1, 0.1, 35.3), _stdout(0.1, 0.1, 34.9))] * 10
    assert ab_bench.summarize(pairs, BETTER, BOUND)["verdict"]["peak_rss_mb"] == "gain"


def test_verdict_worse_is_measured_against_the_bound():
    # bound 0.25 of the parent's median 0.1: 0.124 is inside, 0.126 is not
    s = ab_bench.summarize(_pairs(PARENT, [0.124] * 10), BETTER, BOUND)
    assert s["verdict"]["certify_s"] == "within-bound"
    s = ab_bench.summarize(_pairs(PARENT, [0.126] * 10), BETTER, BOUND)
    assert s["verdict"]["certify_s"] == "worse"
    # for a higher-is-better metric a drop is the worse direction
    higher = {"certify_s": "higher"}
    s = ab_bench.summarize(_pairs(PARENT, [0.07] * 10), higher, {"certify_s": 0.25})
    assert s["verdict"]["certify_s"] == "worse"
    s = ab_bench.summarize(_pairs(PARENT, [0.13] * 10), higher, {"certify_s": 0.25})
    assert s["verdict"]["certify_s"] == "gain"


def test_each_workload_records_the_bounds_it_runs_at():
    bench = json.loads((ab_bench.ROOT / "BENCHMARK.json").read_text())
    for workload in bench["workloads"]:
        bounds = ab_bench.workload_bounds(workload["name"])
        assert set(bounds) == {"kmax", "imax", "wmax"}
        assert all(isinstance(v, int) and v >= 1 for v in bounds.values())
    with pytest.raises(KeyError):
        ab_bench.workload_bounds("no-such-workload")


def test_same_report_needs_one_hash_on_both_sides():
    same = ab_bench.summarize(_pairs(PARENT[:2], [0.1, 0.1]), BETTER, BOUND)
    assert same["same_report"]
    changed = [(_stdout(0.1, 0.1, 40.0), _stdout(0.1, 0.1, 40.0, sha="ffff"))] * 2
    assert not ab_bench.summarize(changed, BETTER, BOUND)["same_report"]
    # both sides drift alike from one run to the next: not one report
    drifting = [(_stdout(0.1, 0.1, 40.0, sha=h), _stdout(0.1, 0.1, 40.0, sha=h)) for h in ("aa", "bb")]
    assert not ab_bench.summarize(drifting, BETTER, BOUND)["same_report"]


def test_src_lines_counts_the_package_modules_of_each_tree(tmp_path):
    for name, modules in {"parent": ["a\nb\nc\n", "d\n"], "change": ["a\nb\n", "no newline"]}.items():
        pkg = tmp_path / name / "src" / "clutterlab"
        pkg.mkdir(parents=True)
        for i, text in enumerate(modules):
            (pkg / f"m{i}.py").write_text(text)
        (pkg / "notes.txt").write_text("not\ncounted\n")
        (pkg / "sub").mkdir()
        (pkg / "sub" / "deep.py").write_text("not\ncounted\n")
    assert ab_bench.src_lines(tmp_path / "parent") == 4
    assert ab_bench.src_lines(tmp_path / "change") == 2


def _main(monkeypatch, tmp_path, change_stdout):
    """Exit code and written file of ab_bench's main, with every run of
    this checkout printing ``change_stdout`` and every parent run the
    canned passing output."""
    parent = tmp_path / "parent"

    def run_once(checkout, workload, seed, seconds):
        return _stdout(0.1, 0.1, 40.0) if checkout == parent.resolve() else change_stdout

    out = tmp_path / "bench.json"
    monkeypatch.setattr(ab_bench, "run_once", run_once)
    monkeypatch.setattr("sys.argv", ["ab_bench.py", str(parent), "--workload", "cauc",
                                     "--pairs", "2", "--out", str(out)])
    return ab_bench.main(), json.loads(out.read_text())


def test_main_exits_nonzero_on_a_changed_report_or_a_failure(monkeypatch, tmp_path, capsys):
    code, doc = _main(monkeypatch, tmp_path, _stdout(0.09, 0.1, 40.0))
    assert code == 0 and doc["runs"][0]["same_report"]
    assert doc["runs"][0]["src_lines"] == {"parent": 0, "change": ab_bench.src_lines(ab_bench.ROOT)}
    code, doc = _main(monkeypatch, tmp_path, _stdout(0.09, 0.1, 40.0, sha="ffff"))
    assert code == 1 and not doc["runs"][0]["same_report"]
    assert "cauc seed 1: report sha256 ['02718bc3'] (parent) vs ['ffff'] (change)" in capsys.readouterr().err
    code, doc = _main(monkeypatch, tmp_path, _stdout(0.09, 0.1, 40.0, failed=1))
    assert code == 1 and doc["runs"][0]["same_report"] and doc["runs"][0]["change"]["failed"] == 2
    assert "cauc seed 1: 2 failed instances (change)" in capsys.readouterr().err
