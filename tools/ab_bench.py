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
the file already has one: the Python version, the run length, per side
the median and quartiles of each metric over the runs with their report
sha256 and failed counts, and per metric the pairs this checkout won (ties
count for neither side).

The runs of a pair are compared on their medians, so a claim reads: the
change wins at least nine tenths of the pairs and its median beats the
parent's by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
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


def summarize(pairs: list[tuple[str, str]], better: dict[str, str]) -> dict:
    """Per-side spread and pair wins from (parent stdout, change stdout)
    pairs; ``better`` maps each metric to "lower" or "higher"."""
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
    return {"pairs": len(runs), **sides, "change_wins": wins}


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
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.update(python=platform.python_version(), machine=platform.machine(),
               cpus=os.cpu_count())
    entries = doc.setdefault("runs", [])
    for workload in args.workload:
        for seed in args.seed or [1]:
            pairs = []
            for i in range(args.pairs):
                order = [parent, ROOT] if i % 2 == 0 else [ROOT, parent]
                out = {side: run_once(side, workload, seed, args.seconds) for side in order}
                pairs.append((out[parent], out[ROOT]))
                print(f"{workload} seed {seed}: pair {i + 1}/{args.pairs} done", file=sys.stderr)
            entry = {"workload": workload, "seed": seed, "seconds": args.seconds,
                     **summarize(pairs, better)}
            entries[:] = [e for e in entries if (e["workload"], e["seed"]) != (workload, seed)]
            entries.append(entry)
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
