"""Acceptance suite: every numbered criterion runs at its stated tolerance
and prints one PASS/FAIL line. Criterion 3 documents a known data
inconsistency (see notes in the repository root README); its assertions are
stated faithfully and left to fail rather than being loosened.
"""

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import tvcontrol
from oracles import (
    dense_master_qp,
    dense_qp_active_set_enumeration,
    fk_interior_nodes,
    fk_nodes,
    fk_triangles,
    project_p0_by_einsum,
    projected_ascent_tv,
    reduced_gradient,
    reduced_objective,
)
from tvcontrol.driver import TOLERANCE_MET, SolverConfig, run_outer_approximation
from tvcontrol.instances import (
    ProblemInstance,
    build_exact_instance,
    build_generic_instance,
)
from tvcontrol.master_problem import MasterOperator
from tvcontrol.mesh_fem import build_friedrichs_keller
from tvcontrol.reporting import serialize_report
from tvcontrol.tv_oracle import discrete_tv, eval_tv_eps

#: sha256 of the CSV report of each n = 50 run, as ``tvcontrol.cli`` prints it
CSV_SHA256_N50 = {
    "exact": "f15b6d1ffe3cba75dbb4785a43b03f1145c4e8e73ab5c4207031c4a4d35edf71",
    "generic": "6f911d468b68215b97f6e97f7aab64bffb6e5a6bdf435a29e9d8f998ae4f8d4a",
    "exact-cold": "653728ea40388e277785cefe5ecd1852301d7f818acad3b35a434c3ee6e27d3b",
}


def _report_line(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    return ok


@pytest.fixture(scope="module")
def exact_run():
    mesh = build_friedrichs_keller(50)
    instance = build_exact_instance(mesh)
    config = SolverConfig(n=50, eps_start=1e-5, eps_factor=0.5, eps_min=7.8e-8)
    start = time.perf_counter()
    report = run_outer_approximation(instance, config)
    elapsed = time.perf_counter() - start
    return report, elapsed


@pytest.fixture(scope="module")
def generic_run():
    mesh = build_friedrichs_keller(50)
    instance = build_generic_instance(mesh)
    config = SolverConfig(n=50, eps_start=1e-5, eps_factor=0.5, eps_min=1.6e-7)
    return run_outer_approximation(instance, config)


def _csv_sha256(report):
    return hashlib.sha256(serialize_report(report, "csv")).hexdigest()


def test_exact_csv_pinned(exact_run):
    assert _csv_sha256(exact_run[0]) == CSV_SHA256_N50["exact"]


def test_generic_csv_pinned(generic_run):
    assert _csv_sha256(generic_run) == CSV_SHA256_N50["generic"]


def test_exact_cold_csv_pinned():
    instance = build_exact_instance(build_friedrichs_keller(50))
    report = run_outer_approximation(instance, SolverConfig(n=50, warm_start=False))
    assert _csv_sha256(report) == CSV_SHA256_N50["exact-cold"]


def test_criterion_1_exact_table(exact_run):
    report, elapsed = exact_run
    final = report.records[-1]
    checks = {
        "terminated": report.terminated == TOLERANCE_MET,
        "iterations": len(report.records) == 8,
        "J": 7.70 <= final.objective <= 7.81,
        "tv_eps": 1.0 - 1e-6 <= final.tv_eps <= 1.01,
        "err": 0.03 <= final.rel_error <= 0.08,
        "tv_lb": 1.0 <= final.tv_lower_bound <= 1.10,
        "runtime": elapsed < 300.0,
    }
    ok = _report_line(
        1,
        all(checks.values()),
        f"rows={len(report.records)} J={final.objective:.3f} tv={final.tv_eps:.5f} "
        f"err={final.rel_error:.4f} lb={final.tv_lower_bound:.5f} t={elapsed:.0f}s",
    )
    assert ok, checks


def test_exact_first_row(exact_run):
    # reference first row: J = 7.753, tv_eps = 0.69112 (tolerances loosened
    # for the stated quadrature/orientation choices)
    report, _ = exact_run
    first = report.records[0]
    assert first.it_master == 1  # no planes yet: one linear solve
    assert 7.70 <= first.objective <= 7.80
    assert 0.64 <= first.tv_eps <= 0.73
    assert 1.15 <= first.tv_lower_bound <= 1.30
    assert 0.25 <= first.rel_error <= 0.30


def test_criterion_2_convergence_rate(exact_run):
    report, _ = exact_run
    mid = [r for r in report.records if 2 <= r.k <= 5]
    slope = np.polyfit(
        np.log([r.eps for r in mid]), np.log([r.rel_error for r in mid]), 1
    )[0]
    eocs = {r.k: r.eoc for r in report.records}
    checks = {
        "slope": 0.3 <= slope <= 0.8,
        "eoc4": 0.35 <= eocs[4] <= 0.75,
        "eoc5": 0.35 <= eocs[5] <= 0.75,
    }
    ok = _report_line(
        2,
        all(checks.values()),
        f"slope={slope:.3f} eoc4={eocs[4]:.3f} eoc5={eocs[5]:.3f}",
    )
    assert ok, checks


def test_criterion_3_generic_table(generic_run):
    report = generic_run
    final = report.records[-1]
    objectives = [r.objective for r in report.records]
    checks = {
        "iterations": len(report.records) == 7,
        "J": 0.113 <= final.objective <= 0.125,
        "tv_eps": final.tv_eps <= 1.01,
        "tv_lb": final.tv_lower_bound <= 1.10,
        "J_monotone": all(b >= a - 1e-9 for a, b in zip(objectives, objectives[1:])),
    }
    ok = _report_line(
        3,
        all(checks.values()),
        f"rows={len(report.records)} J={final.objective:.4f} tv={final.tv_eps:.5f} "
        f"lb={final.tv_lower_bound:.5f} (known spec/paper data inconsistency)",
    )
    assert ok, checks


def test_criterion_4_oracle_property_suite():
    failures = []
    for n in (2, 4, 8):
        mesh = build_friedrichs_keller(n)
        for const in (-3.0, 0.0, 2.5):
            res = eval_tv_eps(np.full(mesh.n_cells, const), 1e-5, mesh)
            if not (res.converged and abs(res.value) <= 1e-9):
                failures.append((n, "constant", const))
        for seed in range(50):
            rng = np.random.default_rng(1000 * n + seed)
            u = rng.standard_normal(mesh.n_cells)
            by_eps = {}
            for eps in (1e-4, 1e-5, 1e-6):
                r = eval_tv_eps(u, eps, mesh)
                if not r.converged:
                    failures.append((n, seed, "convergence", eps))
                by_eps[eps] = r
            if not (
                by_eps[1e-6].value >= by_eps[1e-5].value - 1e-10
                and by_eps[1e-5].value >= by_eps[1e-4].value - 1e-10
            ):
                failures.append((n, seed, "monotonicity"))
            shifted = eval_tv_eps(u + 1.7, 1e-5, mesh)
            if abs(shifted.value - by_eps[1e-5].value) > 1e-9:
                failures.append((n, seed, "shift"))
            if by_eps[1e-5].value > discrete_tv(u, mesh) + 1e-9:
                failures.append((n, seed, "domination"))
            if seed % 2 == 1:
                prev = np.random.default_rng(1000 * n + seed - 1).standard_normal(
                    mesh.n_cells
                )
                r_prev = eval_tv_eps(prev, 1e-5, mesh)
                d = by_eps[1e-5].phi - r_prev.phi
                lhs = 1e-5 * float(d @ mesh.elasticity(d))
                rhs = float(mesh.dual_load(u - prev) @ d)
                if lhs > rhs + 1e-9:
                    failures.append((n, seed, "lipschitz"))
    ok = _report_line(4, not failures, f"violations={failures[:5] if failures else 'none'}")
    assert ok


def test_criterion_5_oracle_vs_projected_ascent():
    mesh = build_friedrichs_keller(2)
    worst = 0.0
    for seed in range(20):
        u = np.random.default_rng(seed).standard_normal(mesh.n_cells)
        res = eval_tv_eps(u, 1e-5, mesh)
        assert res.converged
        reference = projected_ascent_tv(u, 1e-5, mesh)
        worst = max(worst, abs(res.value - reference))
    ok = _report_line(5, worst <= 1e-7, f"max |active-set - ascent| = {worst:.2e}")
    assert ok


def test_criterion_6_master_certificates():
    mesh = build_friedrichs_keller(2)
    worst_kkt = worst_compl = worst_qp = worst_fd = 0.0
    for seed in range(3):
        rng = np.random.default_rng(500 + seed)
        instance = ProblemInstance(
            mesh=mesh,
            alpha=1.0,
            f=rng.standard_normal(mesh.n_cells),
            u_d=8.0 * rng.standard_normal(mesh.n_cells),
            y_d=rng.standard_normal(mesh.n_nodes),
            reference_u=None,
            subdivision_depth=4,
        )
        eps = 1e-4
        op = MasterOperator(instance)
        for _ in range(2):
            res = eval_tv_eps(8.0 * rng.standard_normal(mesh.n_cells), eps, mesh)
            assert op.add_plane(res.phi, res.energy)
        planes = op.planes
        sol = op.solve(eps)
        grad = reduced_gradient(sol.u, instance, mesh)
        slacks = []
        for i, plane in enumerate(planes):
            grad += sol.mu[i] * plane.div_phi
            slacks.append(
                1.0
                + 0.5 * eps * plane.energy
                - float(np.sum(mesh.cell_area * sol.u * plane.div_phi))
            )
        worst_kkt = max(worst_kkt, float(np.abs(grad).max()))
        worst_compl = max(worst_compl, float(np.abs(sol.mu * np.array(slacks)).max()))
        hess, lin, g_rows, h = dense_master_qp(instance, mesh, planes, eps)
        _, u_ref, _, _ = dense_qp_active_set_enumeration(hess, lin, g_rows, h)
        worst_qp = max(worst_qp, float(np.abs(sol.u - u_ref).max()))

        u0 = rng.standard_normal(mesh.n_cells)
        g0 = reduced_gradient(u0, instance, mesh)
        base_step = 1e-6
        for _ in range(10):
            direction = rng.standard_normal(mesh.n_cells)
            plus = reduced_objective(u0 + base_step * direction, instance, mesh)
            minus = reduced_objective(u0 - base_step * direction, instance, mesh)
            fd = (plus - minus) / (2 * base_step)
            analytic = float(np.sum(mesh.cell_area * g0 * direction))
            worst_fd = max(worst_fd, abs(fd - analytic) / max(abs(analytic), 1e-12))
    checks = {
        "kkt": worst_kkt <= 1e-8,
        "complementarity": worst_compl <= 1e-8,
        "dense_qp": worst_qp <= 1e-8,
        "fd_gradient": worst_fd <= 1e-5,
    }
    ok = _report_line(
        6,
        all(checks.values()),
        f"kkt={worst_kkt:.1e} compl={worst_compl:.1e} qp={worst_qp:.1e} fd={worst_fd:.1e}",
    )
    assert ok, checks


def test_criterion_7_exact_construction():
    mesh = build_friedrichs_keller(50)
    instance = build_exact_instance(mesh)
    from tvcontrol.instances import _psi_and_prime, exact_div_phi_bar, exact_state

    p_bar = np.zeros(mesh.n_nodes)
    interior = fk_interior_nodes(50)
    p_bar[interior] = exact_state(*fk_nodes(50)[interior].T)
    residual = (
        -project_p0_by_einsum(exact_div_phi_bar, mesh, 4)
        + p_bar[fk_triangles(50)].mean(axis=1)
        + instance.alpha * (instance.reference_u - instance.u_d)
    )
    # psi = 0, 1, 0 and psi' = 0 at the knots 3/16, 1/4, 5/16
    value, slope = _psi_and_prime(np.array([3 / 16, 1 / 4, 5 / 16]), np.empty(3), np.empty(3))
    knot_dev = max(np.abs(value - [0.0, 1.0, 0.0]).max(), np.abs(slope).max())
    mass = float(np.sum(mesh.cell_area * instance.reference_u))
    checks = {
        "gradient_residual": float(np.abs(residual).max()) <= 1e-10,
        "knots": knot_dev <= 1e-12,
        "mass": abs(mass - 0.125) <= 1e-3,
    }
    ok = _report_line(
        7,
        all(checks.values()),
        f"residual={np.abs(residual).max():.1e} knots={knot_dev:.1e} mass={mass:.5f}",
    )
    assert ok, checks


def test_criterion_8_cli_determinism():
    cmd = [sys.executable, "-m", "tvcontrol.cli", "--instance", "exact", "--output", "csv"]
    # the subprocess imports the package under test, installed or not
    src = str(Path(tvcontrol.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    first = subprocess.run(cmd, capture_output=True, check=True, env=env)
    second = subprocess.run(cmd, capture_output=True, check=True, env=env)
    lines = first.stdout.decode().splitlines()
    shape_ok = lines[0] == "k,eps,J,it_P,it_Q,tv_eps,tv_lb,err,eoc" and len(lines) == 9
    ok = _report_line(
        8,
        first.stdout == second.stdout and shape_ok,
        f"{len(first.stdout)} bytes, identical={first.stdout == second.stdout}, "
        f"rows={len(lines) - 1}",
    )
    assert ok


def test_iteration_caps_exact(exact_run):
    report, _ = exact_run
    worst_p = max(r.it_master for r in report.records)
    worst_q = max(r.it_oracle for r in report.records)
    ok = worst_p <= 15 and worst_q <= 15
    _report_line("caps/exact", ok, f"max it_P={worst_p} max it_Q={worst_q}")
    assert ok


def test_iteration_caps_generic(generic_run):
    # the eps_min transition is where the oracle's active set changes most;
    # it has to release nodes whose multiplier turned negative in one step,
    # not a few per step, to stay within the cap
    worst_p = max(r.it_master for r in generic_run.records)
    worst_q = max(r.it_oracle for r in generic_run.records)
    ok = worst_p <= 15 and worst_q <= 15
    _report_line("caps/generic", ok, f"max it_P={worst_p} max it_Q={worst_q}")
    assert ok
