"""The benchmark's traced pass still finds every name it binds.

bench/tracing.py wraps library functions by name (qseries.mul,
theta.monomial_series, theta.atom_series.cache_info and others), so a
refactor that removes one of them breaks the benchmark with an
AttributeError that no library test sees.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_quick_pass_binds_every_layer():
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "bench/worker.py", "--workload", "verify-1000",
         "--seed", "1", "--quick", "1", "--trace", "1", "--full-checks", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert "layers" in result
