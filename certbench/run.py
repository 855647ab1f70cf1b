"""Benchmark of ``clutterlab certify`` on three workloads.

Usage, from the root of a checkout::

    python3 certbench/run.py --workload posets --seed 1 --seconds 40 --trace 0

The workloads (see ``workloads.py``) are ``posets`` (comparability clique
clutters: Koenig branch-and-bound and the Menger flow), ``cauc`` (complete
admissible uniform clutters: the three-way MFMC / NTF / normality check with
large parallelizations and lattice grids) and ``ideals`` (normality against
integer rounding: simplex and integer packing, no packing or structures
calls at all).

Each sample is a fresh interpreter, started one at a time, so lru caches
start cold as for a command-line user. Samples run until ``--seconds`` is
used up (at least three, or one pair with ``--trace 1``); every metric is the
median over the samples of the run.

``--trace 0`` reports the end-to-end metrics: ``certify_s`` (wall time of
``run_theorem_suite`` plus ``Report.to_json()``), ``setup_s`` (importing
clutterlab and building the corpus instances) and ``peak_rss_mb``.
``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics of ``metrics.py``.

Every sample is gated on answers known from the paper's theorems; failed
and skipped instances are counted in ``failed``. The last line of standard
output is one JSON object; the lines before it are a readable summary with
the failed fraction and the sha256 of the canonical report.

The program is imported from ``src/`` of the current directory; without it
the runner exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
# Every run ends well inside the 180 s a run may take.
HARD_LIMIT_S = 160.0
MIN_SAMPLES = 3


def child_env() -> dict[str, str]:
    """One BLAS thread, no deadline-based skips, no -O (which would strip
    the program's own cross-route asserts)."""
    env = dict(os.environ)
    for var in ("CLUTTERLAB_GUARD_MS", "PYTHONOPTIMIZE"):
        env.pop(var, None)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def run_child(mode: str, args, timeout: float) -> dict | None:
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"{mode} sample exceeded {timeout:.0f} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{mode} sample exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def sample_loop(args, modes: tuple[str, ...], min_rounds: int) -> tuple[dict, bool]:
    """Run rounds of samples (one child per mode) until the time is used.

    Returns the samples by mode and whether every child ran to the end."""
    start = time.monotonic()
    out: dict[str, list[dict]] = {m: [] for m in modes}
    while True:
        t0 = time.monotonic()
        for mode in modes:
            res = run_child(mode, args, HARD_LIMIT_S - (time.monotonic() - start))
            if res is None:
                return out, False
            out[mode].append(res)
        took = time.monotonic() - t0
        elapsed = time.monotonic() - start
        rounds = len(out[modes[0]])
        if elapsed + took > HARD_LIMIT_S:
            return out, True
        if rounds >= min_rounds and elapsed + took > args.seconds:
            return out, True


def summary(label: str, values: list[float], unit: str) -> str:
    return (f"{label} {statistics.median(values):.4f} {unit} "
            f"(median of {len(values)}; min {min(values):.4f}, max {max(values):.4f})")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1,
                    help="relabeling seed of the posets and ideals corpora "
                         "(default 1; 7 is held out for checking a claimed gain)")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny corpora and one round minimum, for the self-tests")
    args = ap.parse_args()

    if not (Path("src") / "clutterlab" / "__init__.py").is_file():
        print("no src/clutterlab here: run from the root of a clutterlab checkout",
              file=sys.stderr)
        return 2
    if run_child("warmup", args, 60.0) is None:
        print("could not import clutterlab from src/", file=sys.stderr)
        return 2

    modes = ("certify", "trace") if args.trace else ("certify",)
    min_rounds = 1 if args.trace or args.smoke else MIN_SAMPLES
    samples, complete = sample_loop(args, modes, min_rounds)
    done = [s for mode in modes for s in samples[mode]]
    per_sample = len(workloads.corpus_items(args.workload, args.seed, args.smoke))
    attempted = sum(s["attempted"] for s in done) + (0 if complete else per_sample)
    failed = sum(s["failed"] for s in done) + (0 if complete else per_sample)
    untraced = samples["certify"]
    hashes = sorted({s["sha256"] or "none" for s in untraced})
    correct = complete and failed == 0 and len(hashes) == 1 and "none" not in hashes

    print(f"certbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(untraced)}")
    if untraced:
        print(summary("certify_s", [s["certify_s"] for s in untraced], "s"))
        print(summary("setup_s", [s["setup_s"] for s in untraced], "s"))
        print(summary("peak_rss_mb", [s["peak_rss_mb"] for s in untraced], "MB"))
    print(f"failed_frac {failed / max(attempted, 1):.4f} ({failed} of {attempted} instances)")
    print(f"report_sha256 {' '.join(hashes)}")

    if not untraced or (args.trace and not samples["trace"]):
        return 1
    if args.trace:
        values, unstable = metrics.per_layer(samples["trace"], untraced)
        if unstable:
            print(f"counts differ between traced samples: {', '.join(unstable)}")
            correct = False
        units = {m.name: m.unit for m in metrics.PER_LAYER}
        print(f"spans written to {workloads.WORK_DIR / f'spans-{args.workload}.json'}")
    else:
        values = metrics.end_to_end(untraced)
        units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
