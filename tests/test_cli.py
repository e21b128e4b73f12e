import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tvcontrol
from oracles import read_field_dump
from tvcontrol import cli
from tvcontrol.cli import main
from tvcontrol.driver import INNER_FAILURE, RunReport, SolverConfig
from tvcontrol.master_problem import SingularBorderError
from tvcontrol.reporting import CSV_HEADER
from tvcontrol.sparse_linalg import InnerSolverError, NotPositiveDefiniteError

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


@pytest.mark.parametrize("flag, value, field", [
    ("--tol", "nan", "tol"),
    ("--alpha", "nan", "alpha"),
    ("--eps-start", "nan", "eps_start"),
    ("--eps-min", "inf", "eps_min"),
])
def test_nonfinite_setting_exits_one(capsys, flag, value, field):
    with pytest.raises(SystemExit) as exc:
        main(["--n", "4", flag, value])
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert field in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, expected", [
    pytest.param(["--instance", "exact", *FAST],
                 SolverConfig(n=6, eps_start=1e-5, eps_min=1e-5), id="fast-exact"),
    pytest.param(["--instance", "generic", "--n", "4"],
                 SolverConfig(n=4, eps_min=1.6e-7), id="generic-eps-min"),
    pytest.param(["--instance", "exact", *FAST, "--no-warm-start"],
                 SolverConfig(n=6, eps_start=1e-5, eps_min=1e-5, warm_start=False),
                 id="no-warm-start"),
    pytest.param(["--instance", "exact", *FAST, "--depth", "2"],
                 SolverConfig(n=6, eps_start=1e-5, eps_min=1e-5, subdivision_depth=2),
                 id="depth"),
])
def test_cli_passes_settings_to_config(capsys, argv, expected):
    main([*argv, "--output", "json"])
    assert json.loads(capsys.readouterr().out)["config"] == dataclasses.asdict(expected)


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
    out = tmp_path / "out"
    control = read_field_dump(out / "control.txt")
    reference = read_field_dump(out / "reference_control.txt")
    assert control.shape == reference.shape
    # the pinned bytes of both dumps at these settings
    pinned = {
        "control.txt": "9a1581ff3f7460feac396e6eeca1287ca45d1af1a9cc377cd67d234d7f564617",
        "reference_control.txt": "de9b8a48019a30399b026034c1426dd147def393337b9f0d5a29db741c178354",
    }
    for name, digest in pinned.items():
        data = (out / name).read_bytes()
        assert data.split(b"\n", 1)[0] == b"p0 72"
        assert hashlib.sha256(data).hexdigest() == digest


def test_dump_fields_into_a_file_exits_one_before_the_solve(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the dump directory is checked before the solve")

    monkeypatch.setattr(cli, "run_outer_approximation", no_solve)
    taken = tmp_path / "taken"
    taken.write_text("")
    with pytest.raises(SystemExit) as exc:
        main(["--instance", "exact", *FAST, "--dump-fields", str(taken)])
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert str(taken) in captured.err and "--dump-fields" in captured.err
    assert captured.out == ""


def test_dump_that_fails_after_the_solve_exits_one(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "control.txt").mkdir(parents=True)
    code = main(["--instance", "exact", *FAST, "--dump-fields", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.startswith(CSV_HEADER)
    assert captured.err.startswith("tvcontrol: error: ")
    assert str(out / "control.txt") in captured.err
    assert "Traceback" not in captured.err


def test_seed_and_no_warm_start_accepted(capsys):
    code, out = _run(capsys, ["--instance", "exact", *FAST, "--no-warm-start"])
    assert code == 0
    assert out.splitlines()[0] == CSV_HEADER


def test_small_runs_are_byte_identical(capsys):
    _, first = _run(capsys, ["--instance", "exact", *FAST])
    _, second = _run(capsys, ["--instance", "exact", *FAST])
    assert first == second


# sha256 of `--n 1 --output json`: n = 1 has no interior node, so every band
# factor and solve of the run is empty, and each oracle call takes one empty
# Newton step (it_oracle = 1 on every row)
JSON_SHA256_N1 = {
    "exact": "01aa354936cb8d4c57f34ec393486b1d2662af0f7628a804e769ff0b481c5fce",
    "generic": "99b4eaf179df5b5cf30e97a12efc867129c2e3ef56ec5da391b2558a496375db",
}


@pytest.mark.parametrize("instance", sorted(JSON_SHA256_N1))
def test_smallest_mesh_json_pinned(capsys, instance):
    code, out = _run(capsys, ["--instance", instance, "--n", "1", "--output", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == JSON_SHA256_N1[instance]


def test_inner_failure_explained_on_stderr(capsys, monkeypatch):
    message = ("TV oracle failed at outer iteration k = 26, eps = 7.80000e-08: "
               "did not converge in 200 Newton steps, final duality gap 2.017e+24")
    failed = RunReport(records=[], terminated=INNER_FAILURE, final_control=None,
                       planes=[], config=SolverConfig(), failure=message)
    monkeypatch.setattr(cli, "run_outer_approximation", lambda instance, config: failed)
    code = main(["--instance", "exact", *FAST])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == CSV_HEADER + "\n"
    assert captured.err == f"tvcontrol: {message}\n"


@pytest.mark.parametrize("argv, message", [
    pytest.param(["--n", "8", "--alpha", "1e-9"],
                 "TV oracle failed at outer iteration k = 0, eps = 1.00000e-05: "
                 "Newton step solve residual ", id="oracle-step-residual"),
    pytest.param(["--n", "8", "--alpha", "1e-6"],
                 "TV oracle failed at outer iteration k = 4, eps = 6.25000e-07: "
                 "did not converge in 200 Newton steps, final duality gap ",
                 id="oracle-newton-cap"),
    pytest.param(["--n", "4", "--alpha", "1e-12"],
                 "master problem failed at outer iteration k = 0, eps = 1.00000e-05: "
                 "bordered solve residual ", id="master-bordered-residual"),
    pytest.param(["--n", "16", "--alpha", "1e-9"],
                 "master problem failed at outer iteration k = 0, eps = 1.00000e-05: "
                 "base solve: CG residual ", id="master-base-solve-exact"),
    pytest.param(["--instance", "generic", "--n", "16", "--alpha", "1e-9"],
                 "master problem failed at outer iteration k = 0, eps = 1.00000e-05: "
                 "base solve: CG residual ", id="master-base-solve-generic"),
])
def test_inner_solver_error_exits_two(capsys, argv, message):
    # an inner solver's error ends the run as inner_failure, not as a
    # traceback with the usage-error status 1; stdout holds the k rows finished
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.startswith(CSV_HEADER + "\n")
    assert captured.out.count("\n") == 1 + int(re.search(r"k = (\d+)", message)[1])
    assert captured.err.startswith(f"tvcontrol: {message}")


def test_inner_solver_errors_share_one_base():
    assert issubclass(SingularBorderError, InnerSolverError)
    assert issubclass(NotPositiveDefiniteError, InnerSolverError)


@pytest.mark.parametrize("argv", [
    # 31 planes whose rows have rank 24: the active set cycles, k = 31
    pytest.param(["--n", "8", "--tol", "1e-12"], id="dependent-planes", marks=pytest.mark.xfail(
        reason="the master's active set does not converge on every plane set: ROADMAP item 20")),
    # past the master (see the next test), the oracle stalls at k = 16
    pytest.param(["--n", "8", "--alpha", "1e-8"], id="small-alpha", marks=pytest.mark.xfail(
        reason="the oracle does not converge from every start: ROADMAP item 13")),
    # no plane yet, k = 0: the bordered residual check rejects the data's solve;
    # past the master, with item 16's control-space base, the oracle fails (item 13)
    pytest.param(["--n", "4", "--alpha", "1e-10"], id="small-alpha-no-planes",
                 marks=pytest.mark.xfail(reason="the data's base solve loses "
                                         "accuracy as 1/alpha: ROADMAP item 16")),
])
def test_master_converges_on_valid_input(capsys, argv):
    code, _ = _run(capsys, argv)
    assert code == 0


def test_small_alpha_passes_the_master(capsys):
    # the active set repeats at once, but its KKT residual sits on a rounding
    # floor that grows as 1/alpha (1.1e-8 here): the master must stop at the
    # repeat rather than stall at its iteration cap, k = 12
    main(["--n", "8", "--alpha", "1e-8"])
    assert not capsys.readouterr().err.startswith("tvcontrol: master problem")


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


# recorded CSV output of the runs below: a refactor must reproduce these
# bytes, and a change that moves a digit updates them and says why
RECORDED_EXACT_N16 = (
    "k,eps,J,it_P,it_Q,tv_eps,tv_lb,err,eoc\n"
    "0,1.00000e-05,7.40047,1,4,0.609917,1.12312,0.238011,\n"
    "1,5.00000e-06,7.40047,1,4,0.881767,1.175,0.238011,0\n"
    "2,2.50000e-06,7.40052,2,3,1.01409,1.20569,0.221388,0.104451\n"
    "3,1.25000e-06,7.40097,3,3,1.00537,1.13052,0.161479,0.455231\n"
    "4,6.25000e-07,7.40143,3,2,1.00263,1.08368,0.127973,0.335504\n"
    "5,3.12500e-07,7.40179,3,3,1.00117,1.05172,0.107437,0.252349\n"
    "6,1.56250e-07,7.40203,3,3,1.00081,1.03188,0.0971859,0.144671\n"
    "7,7.80000e-08,7.40217,2,4,1.00604,1.03237,0.0932347,0.0597414\n"
)
RECORDED_GENERIC_N16 = (
    "k,eps,J,it_P,it_Q,tv_eps,tv_lb,err,eoc\n"
    "0,1.00000e-05,0.000144101,1,6,0.989845,1.41948,,\n"
    "1,5.00000e-06,0.00194251,2,5,1.02098,1.31421,,\n"
    "2,2.50000e-06,0.00541787,3,4,1.00819,1.18497,,\n"
    "3,1.25000e-06,0.00805322,3,4,1.002,1.0978,,\n"
    "4,6.25000e-07,0.00951924,2,4,1.00274,1.05119,,\n"
    "5,3.12500e-07,0.0103221,3,3,1.00088,1.025,,\n"
    "6,1.60000e-07,0.0107249,2,4,1.00129,1.01507,,\n"
)
RECORDED_EXACT_N16_COLD = (
    "k,eps,J,it_P,it_Q,tv_eps,tv_lb,err,eoc\n"
    "0,1.00000e-05,7.40047,1,4,0.609917,1.12312,0.238011,\n"
    "1,5.00000e-06,7.40047,1,6,0.881767,1.175,0.238011,0\n"
    "2,2.50000e-06,7.40052,2,6,1.01409,1.20569,0.221388,0.104451\n"
    "3,1.25000e-06,7.40097,5,6,1.00537,1.13052,0.161479,0.455231\n"
    "4,6.25000e-07,7.40143,7,7,1.00263,1.08368,0.127973,0.335504\n"
    "5,3.12500e-07,7.40179,7,7,1.00117,1.05172,0.107437,0.252349\n"
    "6,1.56250e-07,7.40203,8,8,1.00081,1.03188,0.0971859,0.144671\n"
    "7,7.80000e-08,7.40217,6,8,1.00604,1.03237,0.0932347,0.0597423\n"
)


@pytest.mark.parametrize("argv, recorded", [
    pytest.param(["--instance", "exact", "--n", "16"], RECORDED_EXACT_N16, id="exact"),
    pytest.param(["--instance", "generic", "--n", "16"], RECORDED_GENERIC_N16, id="generic"),
    pytest.param(["--instance", "exact", "--n", "16", "--no-warm-start"],
                 RECORDED_EXACT_N16_COLD, id="exact-cold"),
])
def test_csv_matches_recorded_output(capsys, argv, recorded):
    code, out = _run(capsys, argv)
    assert code == 0
    assert out == recorded
