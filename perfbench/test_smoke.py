"""The benchmark's own test: ``run.py --smoke`` runs every workload at tiny
sizes, traced and untraced, and fails unless every metric BENCHMARK.json
names is printed with its unit and no operation fails.

    python3 -m pytest perfbench/test_smoke.py
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_prints_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("smoke ") == 4, proc.stdout
