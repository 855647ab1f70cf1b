"""Outside-in tracer for clutterlab's layer functions.

The tracer changes no program file. It rebinds each traced public function,
in every clutterlab module that holds the name, to a wrapper that records
a span (name, start, end, parent span, root instance). The defining module
is rebound too, so calls inside one module (``mfmc_bounded`` calling
``min_cover_size``, ``is_ntf_up_to`` calling ``symbolic_power``) are seen.
Cache hit ratios are read from the original ``lru_cache`` objects.

Self time of a call is its span minus the time covered by the traced calls
it made. Wrapping costs time, so traced runs are never the timed runs.
"""

from __future__ import annotations

import importlib
import math
import time
from typing import Any, Callable

MODULES = (
    "clutterlab",
    "clutterlab.certify",
    "clutterlab.cli",
    "clutterlab.ideals",
    "clutterlab.packing",
    "clutterlab.polyhedra",
    "clutterlab.structures",
)

# Traced public functions, by defining layer.
TRACED = {
    "structures": ("parallelize_masks", "clique_clutter"),
    "packing": (
        "min_cover_size",
        "max_matching_size",
        "menger_oracle",
        "mfmc_bounded",
        "minimal_vertex_covers",
        "konig_certificate",
    ),
    "polyhedra": (
        "simplex_max",
        "ilp_max_packing",
        "integer_rounding_check",
        "minimal_lattice_points",
        "integer_decomposition_check",
        "vertices",
    ),
    "ideals": ("is_normal_up_to", "is_ntf_up_to", "symbolic_power", "power"),
    "certify": ("check_poset_instance", "check_clutter_instance", "check_ideal_instance"),
}

# lru-cached functions whose hit ratio is reported.
CACHED = ("polyhedra.q_vertices", "ideals.power")


def _grid_cells(args: tuple, kwargs: dict, out: Any) -> int:
    from clutterlab.polyhedra import box_caps

    a = args[0] if args else kwargs["a"]
    kmax = args[1] if len(args) > 1 else kwargs["kmax"]
    return math.prod(c + 1 for c in box_caps(a, kmax))


# Work counted from a traced call's arguments and result.
WORK: dict[str, tuple[str, Callable[[tuple, dict, Any], int]]] = {
    "structures.parallelize_masks": ("cw_edges", lambda a, k, out: len(out[0])),
    "packing.mfmc_bounded": ("checked_w", lambda a, k, out: out.details["checked"]),
    "polyhedra.integer_decomposition_check": ("cells", _grid_cells),
    "polyhedra.vertices": ("vertices_out", lambda a, k, out: len(out)),
    "ideals.symbolic_power": ("generators_out", lambda a, k, out: len(out.generators)),
}


class Tracer:
    """Spans and per-function totals of one traced run.

    ``stats[name]`` is [calls, self seconds, work]; ``spans`` holds
    (span id, parent id or -1, root id, name, start, end) tuples.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self._stack: list[list] = []
        self._restore: list[tuple[Any, str, Any]] = []
        self._originals: dict[str, Callable] = {}

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stats = self.stats.setdefault(name, [0, 0.0, 0])
        work = WORK.get(name, (None, None))[1]
        stack, spans = self._stack, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            frame = [sid, parent[1] if parent else sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if parent:
                    parent[2] += dur
                stats[0] += 1
                stats[1] += dur - frame[2]
                spans[sid] = (sid, parent[0] if parent else -1, frame[1], name, t0, t1)
            if work is not None:
                stats[2] += work(args, kwargs, out)
            return out

        return traced

    def cache_hit_ratios(self) -> dict[str, float]:
        """hits / lookups of each lru cache in CACHED, 0.0 if never used."""
        out = {}
        for name in CACHED:
            layer, fname = name.split(".")
            fn = self._originals.get(name) or getattr(
                importlib.import_module(f"clutterlab.{layer}"), fname
            )
            info = fn.cache_info()
            lookups = info.hits + info.misses
            out[name] = info.hits / lookups if lookups else 0.0
        return out

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"clutterlab.{layer}")
            for fname in names:
                orig = getattr(home, fname)
                self._originals[f"{layer}.{fname}"] = orig
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    if mod.__dict__.get(fname) is orig:
                        self._restore.append((mod, fname, orig))
                        setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, orig in reversed(self._restore):
            setattr(mod, fname, orig)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


