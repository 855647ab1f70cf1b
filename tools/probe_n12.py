"""Time and memory of the box kernels on one complete admissible uniform
clutter past the box guard, by default cauc(3,4) (n = 12, [0,3]^12 boxes).

Usage, from the root of a checkout::

    python3 tools/probe_n12.py            # cauc(3,4)
    python3 tools/probe_n12.py --d 2 --g 3

Each line is measured in a fresh interpreter, so the lru caches start
cold and ``ru_maxrss`` counts that measurement alone:

- ``ntf``: the wall time of ``is_ntf_up_to(cauc(d,g), 3)``, then the
  tracemalloc peak of a second run with the caches cleared;
- ``certify``: the wall time of ``check_clutter_instance(cauc(d,g))`` at
  kmax = imax = 3, wmax = 2, and the ``ru_maxrss`` of its process.

At n = 12 the [0,3]^n boxes exceed ``MAX_GRID_POINTS``; each measuring
process raises the guard in its own copy of ``polyhedra`` to 4^n cells,
and nothing else is changed.
"""

from __future__ import annotations

import argparse
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _measure(part: str, d: int, g: int) -> str:
    sys.path.insert(0, str(ROOT / "src"))
    from clutterlab import ideals, polyhedra
    from clutterlab.certify import Bounds, check_clutter_instance
    from clutterlab.structures import complete_admissible_uniform_clutter

    c = complete_admissible_uniform_clutter(d, g)
    polyhedra.MAX_GRID_POINTS = max(polyhedra.MAX_GRID_POINTS, 4 ** c.n)
    name = f"cauc({d},{g})"
    if part == "ntf":
        t0 = time.perf_counter()
        verdict = ideals.is_ntf_up_to(c, 3)
        took = time.perf_counter() - t0
        for cache in (ideals._power_grids, ideals.edge_ideal, polyhedra._threshold_sets):
            cache.cache_clear()
        tracemalloc.start()
        ideals.is_ntf_up_to(c, 3)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return (f"ntf {name} imax 3: {took:.3f} s, tracemalloc peak "
                f"{peak / 2 ** 20:.2f} MiB, {verdict.kind}")
    t0 = time.perf_counter()
    record = check_clutter_instance(c, Bounds(kmax=3, imax=3, wmax=2))
    took = time.perf_counter() - t0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return (f"certify {name} at 3/3/2: {took:.3f} s, ru_maxrss {rss:.1f} MB, "
            f"{'pass' if record['pass'] else 'FAIL'}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--d", type=int, default=3)
    ap.add_argument("--g", type=int, default=4)
    ap.add_argument("--part", choices=("ntf", "certify"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.part:
        print(_measure(args.part, args.d, args.g))
        return 0
    for part in ("ntf", "certify"):
        cmd = [sys.executable, __file__, "--d", str(args.d), "--g", str(args.g), "--part", part]
        done = subprocess.run(cmd, capture_output=True, text=True)
        if done.returncode:
            sys.stderr.write(done.stderr)
            return done.returncode
        sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
