"""The benchmark's sample script still runs against this tree.

``perfbench/sample.py`` imports the program from ``src`` of the checkout it
runs in and calls it the way the benchmark does, so a change to the program's
names or signatures can break the benchmark without any solver test noticing.
The command ``BENCHMARK.json`` declares is run as well, for one second a
workload; nothing is written under ``perfbench/``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _last_line(cmd):
    """The JSON last line of ``cmd`` run in a fresh process from the repository
    root, with one BLAS thread, as the benchmark runs it."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _sample(workload, mode):
    return _last_line([sys.executable, "perfbench/sample.py", "--workload", workload,
                       "--mode", mode])


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


@pytest.mark.parametrize("workload", ["generic-n50", "exact-n50-cold"])
def test_benchmark_trace_sample_runs(workload):
    # the trace hook reads OracleResult.converged: every oracle call it sees converged
    sample = _sample(workload, "trace")
    assert sample["failed_checks"] == []
    assert sample["layers"]["tv_oracle.unconverged"] == 0


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_benchmark_command_reports_its_end_to_end_metrics(workload):
    result = _last_line(BENCHMARK["command"] + ["--workload", workload, "--seconds", "1"])
    assert result["correct"] is True and result["failed"] == 0
    assert {m["name"] for m in BENCHMARK["end_to_end"]} <= result["metrics"].keys()
