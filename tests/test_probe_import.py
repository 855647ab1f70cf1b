"""Smoke run of ``tools/probe_import.py``, so the probe of the import's
compile / class creation split keeps running as the program changes."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE = ROOT / "tools" / "probe_import.py"

LINE = (
    r"import clutterlab, package from {}: (\d+\.\d) ms = compile (\d+\.\d) \+ classes (\d+\.\d) "
    r"\+ rest (-?\d+\.\d) ms \((\d+) modules compiled, (\d+) classes\)\n"
)


def test_probe_splits_the_import_from_source_and_from_bytecode():
    before = sorted(p.relative_to(ROOT) for p in ROOT.rglob("*.pyc"))
    done = subprocess.run([sys.executable, str(PROBE)], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    source, bytecode = done.stdout.splitlines(keepends=True)
    compiled = re.fullmatch(LINE.format("source"), source)
    cached = re.fullmatch(LINE.format("bytecode"), bytecode)
    assert compiled and cached, done.stdout
    # every module of the package is compiled from source, none from bytecode
    assert int(compiled[5]) >= 8 and int(cached[5]) == 0 and float(cached[2]) == 0
    # the bytecode went to a temporary directory, not into the checkout
    assert sorted(p.relative_to(ROOT) for p in ROOT.rglob("*.pyc")) == before
