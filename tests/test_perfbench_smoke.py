"""The benchmark's tiny-size smoke check as a test.

`perfbench/smoke.py` runs every workload once untraced and once traced at
tiny sizes, with the benchmark's output checks on every operation (Theta,
Phi and Q on both a Hermitian and a non-normal main operator, the CLI
measure pipeline, and the structural chain).  It asserts no timings."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke():
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "smoke.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
