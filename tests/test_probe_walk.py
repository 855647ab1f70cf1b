"""Smoke run of ``tools/probe_walk.py`` on a small poset, so the probe of
the Menger walk on large boxes keeps running as the program changes."""

import re
import subprocess
import sys
from pathlib import Path

PROBE = Path(__file__).resolve().parent.parent / "tools" / "probe_walk.py"


def test_probe_times_the_walk_on_cauc_poset_2_3():
    done = subprocess.run(
        [sys.executable, str(PROBE), "--poset", "2", "3", "--wmax", "2"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(
        r"walk cauc_poset\(2,3\) wmax 2: \d+\.\d{3} s, ru_maxrss \d+\.\d MB, agrees\n", done.stdout
    )
