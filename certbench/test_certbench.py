"""Self-tests of the certify benchmark.

Run from the root of a checkout with ``python3 -m pytest -q certbench``.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(workload: str, trace: int) -> dict:
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# BENCHMARK.json

def test_benchmark_json_mirrors_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "certbench/run.py"]
    assert doc["paths"] == ["certbench"]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert doc["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in metrics.END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]


def test_benchmark_json_within_contract_limits():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]] + [
        w["name"] for w in doc["workloads"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert 1 <= doc["run_seconds"] <= 60
    # 4 + 22 runs per workload must fit in the time the whole benchmark gets.
    assert (4 + 22 * len(doc["workloads"])) * (doc["run_seconds"] + 4) < 3420


def test_every_layer_metric_names_its_target():
    for m in metrics.PER_LAYER:
        assert set(m.moves) <= {n for n, _, _, _ in metrics.END_TO_END}
        assert set(m.shows_on) | set(m.flat_on) <= set(workloads.WORKLOADS)
        assert not set(m.shows_on) & set(m.flat_on)


# ---------------------------------------------------------------------------
# Corpora

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_committed_corpus_matches_its_source(name):
    assert workloads.load_base(name) == workloads.generate_base(name)


def test_relabeling_is_seeded_and_keeps_instance_shapes():
    for name in ("posets", "ideals"):
        a = workloads.corpus_items(name, 3)
        assert a == workloads.corpus_items(name, 3)
        assert a != workloads.corpus_items(name, 4)
        base = workloads.load_base(name)["instances"]

        def shape(item):
            d = item["data"]
            return (d["n"], len(d.get("relation", d.get("generators", []))))

        assert sorted(map(shape, a)) == sorted(map(shape, base))
    assert workloads.corpus_items("cauc", 3) == workloads.corpus_items("cauc", 4)


# ---------------------------------------------------------------------------
# Known-answer gate

@pytest.fixture
def smoke_report(monkeypatch):
    from clutterlab.certify import Bounds, Corpus, run_theorem_suite

    monkeypatch.chdir(ROOT)

    def make(name):
        path, count = workloads.write_corpus(name, 3, smoke=True)
        bounds = Bounds(**workloads.bounds_for(name, smoke=True))
        doc = json.loads(run_theorem_suite(Corpus(kind="explicit", path=str(path)), bounds).to_json())
        return doc, count

    return make


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_passes_the_real_report(smoke_report, name):
    doc, count = smoke_report(name)
    assert workloads.gate(name, doc, count) == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_fails_a_false_check(smoke_report, name):
    doc, count = smoke_report(name)
    bad = copy.deepcopy(doc)
    bad["instances"][0]["checks"][workloads.WORKLOADS[name].required_check] = False
    assert workloads.gate(name, bad, count) / count > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_fails_skipped_missing_and_raised(smoke_report, name):
    doc, count = smoke_report(name)
    skipped = copy.deepcopy(doc)
    skipped["skipped"] = [
        {"index": r["index"], "instance": r["instance"], "reason": "guard"} for r in doc["instances"]
    ]
    skipped["instances"] = []
    skipped["aggregate"] = "pass"
    assert workloads.gate(name, skipped, count) == count
    missing = copy.deepcopy(doc)
    missing["instances"] = missing["instances"][1:]
    assert workloads.gate(name, missing, count) == 1
    assert workloads.gate(name, None, count) == count


def test_gate_checks_every_check_on_the_theorem_workloads(smoke_report):
    doc, count = smoke_report("posets")
    bad = copy.deepcopy(doc)
    bad["instances"][0]["checks"]["menger_agrees"] = False
    assert workloads.gate("posets", bad, count) == 1


# ---------------------------------------------------------------------------
# Tracer

def test_tracer_rebinds_every_holder_and_restores():
    import clutterlab
    from clutterlab import certify, cli, packing, structures

    orig = structures.parallelize_masks
    with tracer.Tracer():
        for mod in (clutterlab, certify, packing, structures):
            if "parallelize_masks" in mod.__dict__:
                assert mod.parallelize_masks is not orig
        assert cli.mfmc_bounded is packing.mfmc_bounded
    for mod in (certify, packing, structures):
        assert mod.parallelize_masks is orig


def test_tracer_sees_intra_module_calls_and_self_time():
    from clutterlab import packing
    from clutterlab.structures import complete_admissible_uniform_clutter

    c = complete_admissible_uniform_clutter(2, 2)
    with tracer.Tracer() as t:
        cert = packing.mfmc_bounded(c, 1)
    stats = t.stats
    assert stats["packing.mfmc_bounded"][:1] == [1]
    assert stats["packing.mfmc_bounded"][2] == cert.details["checked"] == 2 ** c.n
    assert stats["packing.min_cover_size"][0] == 2 ** c.n
    assert stats["structures.parallelize_masks"][0] == 2 ** c.n
    root = [s for s in t.spans if s[1] < 0]
    assert len(root) == 1 and root[0][3] == "packing.mfmc_bounded"
    assert all(s[2] == root[0][0] for s in t.spans)
    total_self = sum(v[1] for v in stats.values())
    assert total_self == pytest.approx(root[0][5] - root[0][4], rel=1e-6, abs=1e-9)


# ---------------------------------------------------------------------------
# Runner, smoke mode

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_end_to_end_emits_every_metric(name):
    out = smoke(name, 0)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        n: u for n, u, _, _ in metrics.END_TO_END
    }
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_trace_emits_every_layer_metric(name):
    out = smoke(name, 1)
    assert out["correct"] is True and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m.name: m.unit for m in metrics.PER_LAYER
    }
    if name == "ideals":
        zero = [k for k in out["metrics"]
                if (k.startswith("packing.") or k.startswith("structures.parallelize_masks."))
                and not k.endswith(".self_s")]
        assert zero and all(out["metrics"][k]["value"] == 0 for k in zero)


def test_traced_counts_repeat_exactly():
    exact = [m.name for m in metrics.PER_LAYER if m.name.rsplit(".", 1)[1] in metrics.EXACT_STATS]
    a, b = smoke("cauc", 1), smoke("cauc", 1)
    assert {k: a["metrics"][k] for k in exact} == {k: b["metrics"][k] for k in exact}


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "certbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "posets", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
