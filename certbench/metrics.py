"""The benchmark's metrics: names, units, and what each should move.

``END_TO_END`` and ``PER_LAYER`` are mirrored in ``BENCHMARK.json`` (a
self-test keeps the two equal). Each per-layer row also records, before
any optimisation is measured, which end-to-end metric it should move, the
workloads on which it should show, and the workloads on which it should
stay flat (the bypass prediction).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: tuple[str, ...] = ()
    shows_on: tuple[str, ...] = ()
    flat_on: tuple[str, ...] = ()


END_TO_END = (
    # (name, unit, better, bound as a share of the parent's median)
    ("certify_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_STAT_UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "cw_edges": ("count", "lower"),
    "checked_w": ("count", "lower"),
    "cells": ("count", "lower"),
    "vertices_out": ("count", "lower"),
    "generators_out": ("count", "lower"),
    "hit_ratio": ("ratio", "higher"),
}

ALL = ("posets", "cauc", "ideals")


def _rows(functions, stats, moves, shows_on, flat_on):
    return [
        Metric(f"{fn}.{stat}", *_STAT_UNITS[stat], moves, shows_on, flat_on)
        for fn in functions
        for stat in stats
    ]


PER_LAYER = tuple(
    _rows(["structures.parallelize_masks"], ["calls", "self_s", "cw_edges"],
          ("certify_s",), ("posets", "cauc"), ("ideals",))
    + _rows(["structures.clique_clutter"], ["calls", "self_s"],
            ("certify_s",), ("posets",), ("ideals",))
    + _rows(["packing.min_cover_size", "packing.max_matching_size"], ["calls", "self_s"],
            ("certify_s",), ("posets", "cauc"), ("ideals",))
    + _rows(["packing.menger_oracle"], ["calls", "self_s"],
            ("certify_s",), ("posets",), ("cauc", "ideals"))
    + _rows(["packing.mfmc_bounded"], ["calls", "self_s", "checked_w"],
            ("certify_s",), ("cauc",), ("posets", "ideals"))
    + _rows(["packing.minimal_vertex_covers"], ["calls", "self_s"],
            ("certify_s",), ("cauc",), ("ideals",))
    + _rows(["packing.konig_certificate"], ["calls"],
            ("certify_s",), ("cauc",), ("ideals",))
    + _rows(["polyhedra.simplex_max", "polyhedra.ilp_max_packing",
             "polyhedra.integer_rounding_check"], ["calls", "self_s"],
            ("certify_s",), ("ideals",), ("posets", "cauc"))
    + _rows(["polyhedra.minimal_lattice_points"], ["calls", "self_s"],
            ("certify_s", "peak_rss_mb"), ("cauc",), ("posets",))
    + _rows(["polyhedra.integer_decomposition_check"], ["calls", "self_s", "cells"],
            ("certify_s", "peak_rss_mb"), ("cauc",), ("posets",))
    # Small on all three workloads; recorded so that a regression of the
    # double description shows.
    + _rows(["polyhedra.vertices"], ["calls", "self_s", "vertices_out"],
            ("certify_s",), (), ())
    + _rows(["polyhedra.q_vertices"], ["hit_ratio"], ("certify_s",), (), ())
    + _rows(["ideals.is_normal_up_to", "ideals.is_ntf_up_to"], ["calls", "self_s"],
            ("certify_s", "peak_rss_mb"), ("cauc",), ("posets",))
    + _rows(["ideals.symbolic_power"], ["calls", "self_s", "generators_out"],
            ("certify_s", "peak_rss_mb"), ("cauc",), ("posets",))
    + _rows(["ideals.power"], ["calls", "self_s", "hit_ratio"],
            ("certify_s", "peak_rss_mb"), ("cauc",), ("posets",))
    + _rows(["certify.check_poset_instance", "certify.check_clutter_instance",
             "certify.check_ideal_instance"], ["self_s"], ("certify_s",), ALL, ())
    + [
        Metric("certify.instance_ms_p50", "ms", "lower", ("certify_s",), ALL),
        Metric("certify.instance_ms_max", "ms", "lower", ("certify_s",), ALL),
        # Traced time over untraced certify_s, minus one.
        Metric("trace.overhead_frac", "ratio", "lower", (), ALL),
    ]
)

# Values that must repeat exactly between traced samples of one seed.
EXACT_STATS = ("calls", "cw_edges", "checked_w", "cells", "vertices_out",
               "generators_out", "hit_ratio")


def end_to_end(samples: list[dict]) -> dict[str, float]:
    """Medians over the untraced samples of one run."""
    return {
        name: statistics.median(s[name] for s in samples)
        for name, _, _, _ in END_TO_END
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer values from the traced samples of one run, and the names
    of exact values that differed between those samples."""
    values: dict[str, float] = {}
    unstable: list[str] = []
    for m in PER_LAYER:
        head, stat = m.name.rsplit(".", 1)
        if head == "trace":
            traced_s = statistics.median(t["traced_s"] for t in traced)
            certify_s = statistics.median(u["certify_s"] for u in untraced)
            values[m.name] = traced_s / certify_s - 1
            continue
        if stat.startswith("instance_ms_"):
            pick = statistics.median if stat.endswith("p50") else max
            per = [1000 * pick(t["instance_s"]) for t in traced]
            values[m.name] = statistics.median(per)
            continue
        if stat == "hit_ratio":
            per = [t["hit_ratios"][head] for t in traced]
        else:
            column = {"calls": 0, "self_s": 1}.get(stat, 2)
            per = [t["stats"][head][column] for t in traced]
        if stat in EXACT_STATS and len(set(per)) > 1:
            unstable.append(m.name)
        values[m.name] = statistics.median(per)
    return values, unstable
