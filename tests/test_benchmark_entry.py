"""The benchmark's sample script still runs against this tree.

``perfbench/sample.py`` imports the program from ``src`` of the checkout it
runs in and calls it the way the benchmark does, so a change to the program's
names or signatures can break the benchmark without any solver test noticing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _sample(workload, mode):
    """One sample in a fresh process from the repository root, with one BLAS
    thread, as the benchmark runs it; its JSON line."""
    cmd = [sys.executable, "perfbench/sample.py", "--workload", workload, "--mode", mode]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["generic-n50", "exact-n50-cold"])
def test_benchmark_setup_sample_runs(workload):
    # set-up alone: mesh, instance and forms
    assert _sample(workload, "setup")["setup_s"] > 0.0


@pytest.mark.parametrize("workload", ["generic-n50", "exact-n50-cold"])
def test_benchmark_solve_sample_runs(workload):
    # csv_matches_seed is not asserted: the hashes recorded in
    # perfbench/workloads.py predate later changes to the CSV.
    sample = _sample(workload, "solve")
    assert {"setup_s", "solve_s", "peak_rss_mb"} <= sample.keys()
    assert sample["failed_checks"] == []
