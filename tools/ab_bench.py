"""Before/after file for a claimed change: ``certbench/run.py`` run
alternately from a parent checkout and from this checkout.

Usage, from the root of this checkout::

    python3 tools/ab_bench.py PARENT_CHECKOUT --workload cauc --seed 1 \\
        --seconds 40 --pairs 10 --out BENCH.json

Each pair runs ``certbench/run.py --trace 0`` once in each checkout, one run
at a time; even pairs start with the parent, odd pairs with this checkout.
The runs read the end-to-end metrics and their directions from
``BENCHMARK.json``. Every workload and seed given is run in turn, and the
file gets one entry per (workload, seed), or the entry is replaced when
the file already has one: the Python version, the run length, the bounds
the workload runs at (``certbench/workloads.py``), per side the median and
quartiles of each metric over the runs with their report sha256 and failed
counts, ``same_report`` (true when every run of both sides printed one and
the same report sha256), ``src_lines`` (the line count of
``src/clutterlab/*.py`` in each checkout, so a change's size shows next to
its runs), and per metric the pairs this checkout won (ties count for
neither side) and a verdict:

- ``gain``: the change wins at least nine tenths of the pairs and its
  median beats the parent's by more than the parent's interquartile range
  and by more than 1 % of the parent's median (a floor on the effect: a
  narrow parent spread within one build says nothing about the shift that
  source layout alone gives between builds, about 0.3 MB of peak RSS);
- ``worse``: the change's median is worse than the parent's by more than
  the metric's ``bound`` in ``BENCHMARK.json``, a share of the parent's
  median;
- ``within-bound``: neither.

The script exits with code 1, after writing the file, when an entry it ran
has ``same_report`` false or a failed count above 0 on either side: such a
run does not compare the same work.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import runpy
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_run(stdout: str) -> dict:
    """The metrics, failed count and report sha256 of one run.py output."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    sha = next(line.split()[1:] for line in lines if line.startswith("report_sha256 "))
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "failed": result["failed"],
        "attempted": result["attempted"],
        "correct": result["correct"],
        "sha256": sha,
    }


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def verdict(parent: dict, change: dict, wins: int, pairs: int, better: str, bound: float) -> str:
    """The verdict on one metric, "gain", "worse" or "within-bound", from
    the two sides' spreads, the pairs the change won, and the metric's
    direction and bound (a share of the parent's median). A gain must
    beat both the parent's interquartile range and 1 % of its median."""
    gained = (parent["median"] - change["median"]) * (1 if better == "lower" else -1)
    floor = max(parent["q3"] - parent["q1"], 0.01 * abs(parent["median"]))
    if 10 * wins >= 9 * pairs and gained > floor:
        return "gain"
    if -gained > bound * parent["median"]:
        return "worse"
    return "within-bound"


def summarize(pairs: list[tuple[str, str]], better: dict[str, str], bound: dict[str, float]) -> dict:
    """Per-side spread, pair wins and verdicts from (parent stdout, change
    stdout) pairs; ``better`` maps each metric to "lower" or "higher" and
    ``bound`` to its bound."""
    runs = [(parse_run(p), parse_run(c)) for p, c in pairs]
    sides = {}
    for i, side in enumerate(("parent", "change")):
        own = [r[i] for r in runs]
        sides[side] = {
            "metrics": {m: _spread([r["metrics"][m] for r in own]) for m in better},
            "failed": sum(r["failed"] for r in own),
            "attempted": sum(r["attempted"] for r in own),
            "all_correct": all(r["correct"] for r in own),
            "sha256": sorted({h for r in own for h in r["sha256"]}),
        }
    wins = {}
    for m, direction in better.items():
        sign = 1 if direction == "lower" else -1
        wins[m] = sum(
            sign * (p["metrics"][m] - c["metrics"][m]) > 0 for p, c in runs
        )
    verdicts = {
        m: verdict(sides["parent"]["metrics"][m], sides["change"]["metrics"][m],
                   wins[m], len(runs), better[m], bound[m])
        for m in better
    }
    same = sides["parent"]["sha256"] == sides["change"]["sha256"] and len(sides["parent"]["sha256"]) == 1
    return {"pairs": len(runs), **sides, "same_report": same, "change_wins": wins, "verdict": verdicts}


def problems(entry: dict) -> list[str]:
    """Why an entry compares no like work: its report sha256 differs
    between or within the sides, or a side failed instances."""
    name = f"{entry['workload']} seed {entry['seed']}"
    out = []
    if not entry["same_report"]:
        out.append(f"{name}: report sha256 {entry['parent']['sha256']} (parent) "
                   f"vs {entry['change']['sha256']} (change)")
    for side in ("parent", "change"):
        if entry[side]["failed"]:
            out.append(f"{name}: {entry[side]['failed']} failed instances ({side})")
    return out


def workload_bounds(workload: str) -> dict[str, int]:
    """The bounds ``certbench/run.py`` checks ``workload`` at."""
    bounds_for = runpy.run_path(str(ROOT / "certbench" / "workloads.py"))["bounds_for"]
    return dict(bounds_for(workload))


def src_lines(checkout: Path) -> int:
    """Line count of ``src/clutterlab/*.py`` in ``checkout``, as ``wc -l``
    counts it."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src" / "clutterlab").glob("*.py"))


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> str:
    cmd = [sys.executable, "certbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return proc.stdout


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, help="root of the parent checkout")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", type=int, action="append", default=None)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    parent = args.parent.resolve()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.update(python=platform.python_version(), machine=platform.machine(),
               cpus=os.cpu_count())
    entries = doc.setdefault("runs", [])
    found = []
    for workload in args.workload:
        for seed in args.seed or [1]:
            pairs = []
            for i in range(args.pairs):
                order = [parent, ROOT] if i % 2 == 0 else [ROOT, parent]
                out = {side: run_once(side, workload, seed, args.seconds) for side in order}
                pairs.append((out[parent], out[ROOT]))
                print(f"{workload} seed {seed}: pair {i + 1}/{args.pairs} done", file=sys.stderr)
            entry = {"workload": workload, "seed": seed, "seconds": args.seconds,
                     "bounds": workload_bounds(workload),
                     "src_lines": {"parent": src_lines(parent), "change": src_lines(ROOT)},
                     **summarize(pairs, better, bound)}
            entries[:] = [e for e in entries if (e["workload"], e["seed"]) != (workload, seed)]
            entries.append(entry)
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
            found += problems(entry)
    for line in found:
        print(line, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
