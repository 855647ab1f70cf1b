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
    s = ab_bench.summarize(pairs, BETTER)
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
    s = ab_bench.summarize(pairs, {"certify_s": "lower", "peak_rss_mb": "higher"})
    assert s["change"]["sha256"] == ["02718bc3", "ffff"]
    assert s["change"]["failed"] == 2 and not s["change"]["all_correct"]
    assert s["change_wins"] == {"certify_s": 0, "peak_rss_mb": 0}
    assert set(s["parent"]["metrics"]) == {"certify_s", "peak_rss_mb"}


def test_each_workload_records_the_bounds_it_runs_at():
    bench = json.loads((ab_bench.ROOT / "BENCHMARK.json").read_text())
    for workload in bench["workloads"]:
        bounds = ab_bench.workload_bounds(workload["name"])
        assert set(bounds) == {"kmax", "imax", "wmax"}
        assert all(isinstance(v, int) and v >= 1 for v in bounds.values())
    with pytest.raises(KeyError):
        ab_bench.workload_bounds("no-such-workload")
