"""The benchmark's own smoke test, run as part of this suite.

A change under ``src`` that breaks what ``perfbench/`` imports or reads
(config fields, record fields, span targets) then fails here, not only
when the benchmark is next run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "perfbench/test_smoke.py"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
