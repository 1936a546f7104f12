"""The benchmark's own unittest suite, run from tier-1.

``bench/`` traces the library from outside and checks that it can rebind
the functions it wraps; a change to the library that breaks that (say, a
generator that stops calling the traced ``canonical_key``) fails here too.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_unittest_suite_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "bench"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
