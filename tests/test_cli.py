import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tvcontrol
from tvcontrol import cli
from tvcontrol.cli import main
from tvcontrol.driver import INNER_FAILURE, RunReport
from tvcontrol.reporting import CSV_HEADER, load_field

FAST = ["--n", "6", "--eps-start", "1e-5", "--eps-min", "1e-5"]


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_invalid_n_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--n", "0"])
    assert exc.value.code == 1


def test_negative_depth_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--depth", "-1"])
    assert exc.value.code == 1
    assert "subdivision_depth" in capsys.readouterr().err


def test_unknown_flag_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["--frobnicate"])
    assert exc.value.code == 1


def test_bad_instance_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["--instance", "nonexistent"])
    assert exc.value.code == 1


def test_fast_exact_run_csv(capsys):
    code, out = _run(capsys, ["--instance", "exact", *FAST])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) >= 2
    eps_field = lines[1].split(",")[1]
    assert "e-" in eps_field


def test_fast_exact_run_json(capsys):
    code, out = _run(capsys, ["--instance", "exact", *FAST, "--output", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["terminated"] == "tolerance_met"
    assert payload["config"]["n"] == 6
    assert payload["records"]


def test_dump_fields(tmp_path, capsys):
    code, _ = _run(
        capsys, ["--instance", "exact", *FAST, "--dump-fields", str(tmp_path / "out")]
    )
    assert code == 0
    control = load_field(tmp_path / "out" / "control.txt")
    reference = load_field(tmp_path / "out" / "reference_control.txt")
    assert control.values.shape == reference.values.shape


def test_seed_and_no_warm_start_accepted(capsys):
    code, out = _run(capsys, ["--instance", "exact", *FAST, "--no-warm-start"])
    assert code == 0
    assert out.splitlines()[0] == CSV_HEADER


def test_small_runs_are_byte_identical(capsys):
    _, first = _run(capsys, ["--instance", "exact", *FAST])
    _, second = _run(capsys, ["--instance", "exact", *FAST])
    assert first == second


def test_inner_failure_explained_on_stderr(capsys, monkeypatch):
    message = "TV oracle did not converge at outer iteration k = 0"
    failed = RunReport(records=[], terminated=INNER_FAILURE, final_control=None,
                       planes=[], failure=message)
    monkeypatch.setattr(cli, "run_outer_approximation", lambda instance, config: failed)
    code = main(["--instance", "exact", *FAST])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == CSV_HEADER + "\n"
    assert captured.err == f"tvcontrol: {message}\n"


def test_csv_independent_of_blas_threads():
    # at the default n = 50 the banded Cholesky takes LAPACK's blocked
    # (BLAS-3) path, whose threading must not change a digit
    cmd = [sys.executable, "-m", "tvcontrol.cli", "--instance", "exact"]
    src = str(Path(tvcontrol.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        outputs.append(subprocess.run(cmd, capture_output=True, check=True, env=env).stdout)
    assert outputs[0].startswith(CSV_HEADER.encode())
    assert outputs[0] == outputs[1]
