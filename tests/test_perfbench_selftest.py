"""The benchmark's self-test passes on this source tree.

`perfbench/run.py --selftest` runs every workload on the toy instance,
traced and untraced, checks each result against `perfbench/references.json`
and checks that a corrupted reference is caught.  A library change that
breaks those reference checks or the tracer's targets fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--selftest"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
