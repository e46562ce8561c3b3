"""The benchmark's self-check runs against the current source tree.

``bench/workloads.py`` keeps bitwise replicas of ``train()`` and of the
model's forward pass; a change to the program that breaks them shows up
here rather than only when the benchmark is next run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_is_ok():
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: ok" in proc.stdout
