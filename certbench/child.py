"""One sample of the certify benchmark, in a fresh interpreter.

Run from the checkout root by ``run.py``; prints one JSON object as its last
line. Modes:

* ``warmup``: import the program once, so later samples find compiled
  bytecode as a returning command-line user would.
* ``certify``: time ``run_theorem_suite`` plus ``Report.to_json()``, the
  public certify call, with nothing wrapped.
* ``trace``: call the public ``check_*_instance`` functions in corpus order
  with every layer function wrapped by the outside-in tracer, one root
  span per instance; the spans of the last traced sample are written to
  ``.certbench/spans-<workload>.json`` at the end.

Set-up time is the import of clutterlab plus building the corpus
instances. The lru caches start cold in every sample, as for a user.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads


def import_program(root: Path) -> None:
    src = root / "src"
    sys.path.insert(0, str(src))
    import clutterlab

    origin = Path(clutterlab.__file__).resolve().parent
    if origin != (src / "clutterlab").resolve():
        raise ImportError(f"clutterlab imported from {origin}, not from this checkout")


def run_certify(name: str, corpus, bounds, attempted: int) -> dict:
    from clutterlab.certify import run_theorem_suite

    text, error = None, None
    t0 = time.perf_counter()
    try:
        text = run_theorem_suite(corpus, bounds).to_json()
    except Exception:
        error = traceback.format_exc()
    certify_s = time.perf_counter() - t0
    if error:
        print(error, file=sys.stderr)
    return {
        "certify_s": certify_s,
        "failed": workloads.gate(name, json.loads(text) if text else None, attempted),
        "sha256": hashlib.sha256(text.encode()).hexdigest() if text else None,
        "error": error,
    }


def run_trace(name: str, instances, bounds, attempted: int, spans_out: Path) -> dict:
    from clutterlab import certify
    from tracer import Tracer

    records, error = [], None
    with Tracer() as tracer:
        t0 = time.perf_counter()
        for kind, obj in instances:
            try:
                result = getattr(certify, f"check_{kind}_instance")(obj, bounds)
            except Exception:
                error = traceback.format_exc()
                continue
            records.append({"instance": {"type": kind}, **result})
        traced_s = time.perf_counter() - t0
        hit_ratios = tracer.cache_hit_ratios()
    if error:
        print(error, file=sys.stderr)
    roots = [end - start for _, parent, _, _, start, end in tracer.spans if parent < 0]
    origin = tracer.spans[0][4] if tracer.spans else 0.0
    spans_out.parent.mkdir(exist_ok=True)
    spans_out.write_text(
        json.dumps(
            {
                "fields": ["id", "parent", "root", "name", "start_s", "end_s"],
                "spans": [
                    [sid, parent, root, fname, start - origin, end - origin]
                    for sid, parent, root, fname, start, end in tracer.spans
                ],
            }
        )
        + "\n",
        encoding="utf-8",
    )
    return {
        "traced_s": traced_s,
        "failed": workloads.gate(name, {"instances": records}, attempted),
        "stats": tracer.stats,
        "hit_ratios": hit_ratios,
        "instance_s": roots,
        "error": error,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=("warmup", "certify", "trace"), required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if sys.flags.optimize:
        print("refusing to run under -O: it strips the program's own checks", file=sys.stderr)
        return 2
    root = Path.cwd()

    t0 = time.perf_counter()
    import_program(root)
    if args.mode == "warmup":
        print(json.dumps({"ok": True}))
        return 0
    from clutterlab.certify import Bounds, Corpus

    path, attempted = workloads.write_corpus(args.workload, args.seed, args.smoke)
    corpus = Corpus(kind="explicit", path=str(path))
    bounds = Bounds(**workloads.bounds_for(args.workload, args.smoke))
    instances = corpus.instances()
    setup_s = time.perf_counter() - t0

    if args.mode == "certify":
        out = run_certify(args.workload, corpus, bounds, attempted)
    else:
        spans_out = workloads.WORK_DIR / f"spans-{args.workload}.json"
        out = run_trace(args.workload, instances, bounds, attempted, spans_out)
    out.update(
        attempted=attempted,
        setup_s=setup_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
