"""Workload corpora and the known-answer gate of the certify benchmark.

Each workload is a committed base corpus plus the bounds it runs at. The
seed picks a vertex (or variable) relabeling of every instance and an
instance order; it never picks the isomorphism types. Relabeling keeps
every known answer (they are theorems about isomorphism classes) and keeps
the amount of work nearly constant from seed to seed, so seeds vary the
inputs without varying what is measured.

The known answers come from the paper, not from the code under test:

* posets: the clique clutter of a comparability graph satisfies MFMC, so
  Koenig holds on every parallelization, the Menger flow agrees, and the
  edge ideal is normally torsion-free and normal with Q(A) integral
  (Gitler-Reyes-Villarreal, and Gitler-Valencia-Villarreal for the
  equivalences). Every check of every record must be true.
* cauc: complete admissible uniform clutters satisfy MFMC (the paper's main
  family), so the three signs NTF, normal-and-integral and MFMC are all
  true and agree.
* ideals: normality and the integer rounding property are equivalent, so
  the two bounded verdicts must agree on every ideal.

This module imports nothing from clutterlab, so the runner can use it
before the program is imported and timed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
CORPORA = HERE / "corpora"
WORK_DIR = Path(".certbench")


@dataclass(frozen=True)
class Workload:
    name: str
    instance_type: str
    bounds: dict[str, int]
    required_check: str
    every_check_true: bool
    source: dict[str, Any]
    seeded: bool
    smoke_count: int
    smoke_bounds: dict[str, int]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="posets",
            instance_type="poset",
            bounds={"kmax": 3, "imax": 3, "wmax": 3},
            required_check="mfmc_holds",
            every_check_true=True,
            source={"kind": "random-posets", "n": 6, "count": 2, "seed": 1},
            seeded=True,
            smoke_count=1,
            smoke_bounds={"kmax": 3, "imax": 3, "wmax": 1},
        ),
        Workload(
            name="cauc",
            instance_type="clutter",
            bounds={"kmax": 3, "imax": 3, "wmax": 2},
            required_check="mfmc",
            every_check_true=True,
            source={"cauc": [[2, 2], [2, 3], [3, 2], [2, 4], [4, 2], [3, 3]]},
            seeded=False,
            smoke_count=2,
            smoke_bounds={"kmax": 3, "imax": 3, "wmax": 2},
        ),
        Workload(
            name="ideals",
            instance_type="ideal",
            bounds={"kmax": 3, "imax": 3, "wmax": 3},
            required_check="normal_equals_rounding",
            every_check_true=False,
            source={"kind": "random-ideals", "n": 4, "q": 5, "maxexp": 3, "count": 120, "seed": 1},
            seeded=True,
            smoke_count=5,
            smoke_bounds={"kmax": 3, "imax": 3, "wmax": 3},
        ),
    )
}


def base_corpus_path(name: str) -> Path:
    return CORPORA / f"{name}.json"


def load_base(name: str) -> dict[str, Any]:
    with open(base_corpus_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def relabel(item: dict[str, Any], rng: random.Random) -> dict[str, Any]:
    """An isomorphic copy of one explicit-corpus item under a random
    permutation of its vertices (posets) or variables (ideals)."""
    data = item["data"]
    n = data["n"]
    perm = list(range(n))
    rng.shuffle(perm)
    if item["type"] == "poset":
        rel = sorted([perm[a], perm[b]] for a, b in data["relation"])
        return {"type": "poset", "data": {"n": n, "relation": rel}}
    if item["type"] == "ideal":
        gens = sorted([g[perm[i]] for i in range(n)] for g in data["generators"])
        return {"type": "ideal", "data": {"n": n, "generators": gens}}
    raise ValueError(f"cannot relabel instance type {item['type']!r}")


def corpus_items(name: str, seed: int, smoke: bool = False) -> list[dict[str, Any]]:
    """The explicit-corpus items a run of workload ``name`` checks."""
    wl = WORKLOADS[name]
    items = load_base(name)["instances"]
    if smoke:
        items = items[: wl.smoke_count]
    if not wl.seeded:
        return items
    rng = random.Random(seed)
    items = [relabel(item, rng) for item in items]
    rng.shuffle(items)
    return items


def write_corpus(name: str, seed: int, smoke: bool = False) -> tuple[Path, int]:
    """Materialize the run's explicit corpus; returns (path relative to the
    checkout root, instance count). The path enters the canonical report,
    so it must not depend on where the checkout is."""
    items = corpus_items(name, seed, smoke)
    if not (WORKLOADS[name].seeded or smoke):
        return base_corpus_path(name).relative_to(HERE.parent), len(items)
    path = WORK_DIR / f"{name}-{'smoke' if smoke else f'seed{seed}'}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"instances": items}, sort_keys=True) + "\n", encoding="utf-8")
    return path, len(items)


def bounds_for(name: str, smoke: bool = False) -> dict[str, int]:
    wl = WORKLOADS[name]
    return wl.smoke_bounds if smoke else wl.bounds


# ---------------------------------------------------------------------------
# Known-answer gate

def record_ok(wl: Workload, record: dict[str, Any]) -> bool:
    checks = record.get("checks") or {}
    if record.get("instance", {}).get("type") != wl.instance_type:
        return False
    if checks.get(wl.required_check) is not True:
        return False
    if wl.every_check_true:
        return record.get("pass") is True and all(v is True for v in checks.values())
    return True


def gate(name: str, doc: dict[str, Any] | None, attempted: int) -> int:
    """Number of failed instances in a certify report document.

    An instance fails when its record breaks a known answer, when it was
    skipped, or when it is missing from the report. ``doc`` is None when
    the suite raised, and then every instance fails.
    """
    if doc is None:
        return attempted
    wl = WORKLOADS[name]
    records = doc.get("instances", [])
    good = sum(1 for rec in records if record_ok(wl, rec))
    return attempted - min(good, attempted)


# ---------------------------------------------------------------------------
# Base corpora, generated once from the program's own generators

def generate_base(name: str) -> dict[str, Any]:
    from clutterlab.certify import Corpus
    from clutterlab.structures import complete_admissible_uniform_clutter

    src = WORKLOADS[name].source
    if "cauc" in src:
        items = [
            {"type": "clutter", "data": complete_admissible_uniform_clutter(d, g).to_json()}
            for d, g in src["cauc"]
        ]
    else:
        items = [
            {"type": kind, "data": obj.to_json()}
            for kind, obj in Corpus.from_json(src).instances()
        ]
    return {"source": src, "instances": items}


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(HERE.parent / "src"))
    CORPORA.mkdir(exist_ok=True)
    for wname in WORKLOADS:
        base_corpus_path(wname).write_text(
            json.dumps(generate_base(wname), sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {base_corpus_path(wname).relative_to(HERE.parent)}")
