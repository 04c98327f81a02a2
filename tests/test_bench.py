"""The benchmark's traced pass still finds every name it binds.

bench/tracing.py wraps library functions by name (qseries.mul,
theta.monomial_series, theta.atom_series.cache_info and others), so a
refactor that removes one of them breaks the benchmark with an
AttributeError that no library test sees.  The search workloads bind
search.run_search and search._scan_unit by name as well.  Every workload
runs once, so each library path (act and classify among them) is
exercised through the tracer.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload",
                         ["verify-1000", "verify-3000", "classify-300",
                          "search-found", "search-empty"])
def test_traced_quick_pass_binds_every_layer(workload):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "bench/worker.py", "--workload", workload,
         "--seed", "1", "--quick", "1", "--trace", "1", "--full-checks", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert "layers" in result
