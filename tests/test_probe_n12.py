"""Smoke run of ``tools/probe_n12.py`` on a small clutter, so the probe
of the n = 12 box kernels keeps running as the program changes."""

import re
import subprocess
import sys
from pathlib import Path

PROBE = Path(__file__).resolve().parent.parent / "tools" / "probe_n12.py"


def test_probe_prints_both_measurements_on_cauc_2_3():
    done = subprocess.run(
        [sys.executable, str(PROBE), "--d", "2", "--g", "3"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    ntf, certify = done.stdout.splitlines()
    assert re.fullmatch(
        r"ntf cauc\(2,3\) imax 3: \d+\.\d{3} s, tracemalloc peak \d+\.\d\d MiB, ntf-up-to", ntf
    )
    assert re.fullmatch(
        r"certify cauc\(2,3\) at 3/3/2: \d+\.\d{3} s, ru_maxrss \d+\.\d MB, pass", certify
    )
