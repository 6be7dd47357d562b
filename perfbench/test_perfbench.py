"""The benchmark's own test: its smoke mode at tiny sizes.

Smoke mode asserts that every metric is emitted with its unit, that each
workload drives the layer metrics it exists for, and that output digests
repeat across runs and between traced and untraced runs.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke():
    done = subprocess.run([sys.executable, str(RUN), "--smoke"],
                          cwd=RUN.parent.parent, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert "SMOKE FAILURE" not in done.stdout
