"""Time of the Koenig vs Menger check on the comparability posets of complete
admissible uniform clutters, the large w-boxes that no benchmark workload
walks: by default cauc_poset(3,3) and cauc_poset(2,4) at wmax 3.

Usage, from the root of a checkout::

    python3 tools/probe_walk.py                              # (3,3), (2,4) at wmax 3
    python3 tools/probe_walk.py --poset 2 5 --poset 3 3 --wmax 2

Each line is measured in a fresh interpreter, so the lru caches start
cold and ``ru_maxrss`` counts that measurement alone: the wall time of
``certify.comparability_mfmc_check(cauc_poset(d,g), its clique clutter,
wmax)`` (the packed Koenig sweep and the box-certified Menger walk), the
``ru_maxrss`` of its process, and whether Koenig held and the walk agreed.
"""

from __future__ import annotations

import argparse
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _measure(d: int, g: int, wmax: int) -> str:
    sys.path.insert(0, str(ROOT / "src"))
    from clutterlab.certify import comparability_mfmc_check
    from clutterlab.structures import cauc_poset, clique_clutter, comparability_graph

    p = cauc_poset(d, g)
    cl = clique_clutter(comparability_graph(p))
    t0 = time.perf_counter()
    result = comparability_mfmc_check(p, cl, wmax)
    took = time.perf_counter() - t0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verdict = "agrees" if result["mfmc_holds"] and result["menger_agrees"] else "DISAGREES"
    return f"walk cauc_poset({d},{g}) wmax {wmax}: {took:.3f} s, ru_maxrss {rss:.1f} MB, {verdict}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--poset", nargs=2, type=int, action="append", metavar=("D", "G"),
                    help="cauc_poset(D, G) to time; repeatable (default: 3 3 and 2 4)")
    ap.add_argument("--wmax", type=int, default=3)
    ap.add_argument("--part", nargs=2, type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.part:
        print(_measure(*args.part, args.wmax))
        return 0
    for d, g in args.poset or [(3, 3), (2, 4)]:
        cmd = [sys.executable, __file__, "--wmax", str(args.wmax), "--part", str(d), str(g)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        if done.returncode:
            sys.stderr.write(done.stderr)
            return done.returncode
        sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
