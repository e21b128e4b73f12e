import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    dense_master_base,
    dense_master_qp,
    dense_qp_active_set_enumeration,
    interior_load,
    plane_slack,
    reduced_gradient,
    reduced_objective,
)
import tvcontrol
from tvcontrol import master_problem
from tvcontrol.instances import ProblemInstance, build_exact_instance, build_generic_instance
from tvcontrol.master_problem import MasterOperator, SingularBorderError
from tvcontrol.mesh_fem import build_friedrichs_keller
from tvcontrol.tv_oracle import eval_tv_eps


def _instance(mesh, u_d, y_d=None, f=None, alpha=1.0, reference=None):
    return ProblemInstance(
        mesh=mesh,
        alpha=alpha,
        f=np.zeros(mesh.n_cells) if f is None else f,
        u_d=u_d,
        y_d=np.zeros(mesh.n_nodes) if y_d is None else y_d,
        reference_u=reference,
        subdivision_depth=4,
    )


@pytest.fixture(scope="module")
def mesh():
    return build_friedrichs_keller(2)


def _add_cut(op, u_values, eps):
    """Add the oracle's cut at the control ``u_values`` and return the stored plane."""
    res = eval_tv_eps(u_values, eps, op.mesh)
    assert op.add_plane(res.phi, res.energy)
    return op.planes[-1]


def test_zero_instance_is_stationary(mesh):
    sol = MasterOperator(_instance(mesh, np.zeros(mesh.n_cells))).solve(1e-5)
    assert sol.objective == pytest.approx(0.0, abs=1e-15)
    assert np.abs(sol.u).max() == 0.0
    assert np.abs(sol.y).max() == 0.0
    assert np.abs(sol.p).max() == 0.0
    assert sol.inner_iterations == 1


@pytest.mark.parametrize("n", [
    2,
    # the border column of add_plane has the wrong sign in its state rows: once
    # a plane is active, the returned state breaks K y = B (u + f) and J is not
    # J(u). At n = 2 the lone interior node hides it (item 16 of ROADMAP.md)
    pytest.param(4, marks=pytest.mark.xfail(strict=True, reason="border sign defect")),
])
def test_single_plane_becomes_active(n):
    mesh = build_friedrichs_keller(n)
    rng = np.random.default_rng(1)
    inst = _instance(mesh, 10.0 * rng.standard_normal(mesh.n_cells))
    eps = 1e-4
    op = MasterOperator(inst)
    free = op.solve(eps)
    plane = _add_cut(op, free.u, eps)
    assert plane_slack(plane, free.u, eps, mesh) < 0  # unconstrained point is cut off
    sol = op.solve(eps)
    assert sol.mu[0] > 0
    assert abs(plane_slack(plane, sol.u, eps, mesh)) < 1e-8

    hess, grad, g_rows, h = dense_master_qp(inst, mesh, [plane], eps)
    _, u_ref, active_ref, _ = dense_qp_active_set_enumeration(hess, grad, g_rows, h)
    assert np.abs(sol.u - u_ref).max() < 1e-8
    assert list(sol.active_planes) == list(active_ref)
    assert sol.objective == pytest.approx(reduced_objective(sol.u, inst, mesh), rel=1e-12)


def test_multiple_planes_match_enumeration(mesh):
    eps = 5e-5
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        inst = _instance(mesh, 8.0 * rng.standard_normal(mesh.n_cells))
        op = MasterOperator(inst)
        # cuts from independent controls so the borders stay well separated
        for _ in range(3):
            _add_cut(op, 8.0 * rng.standard_normal(mesh.n_cells), eps)
        sol = op.solve(eps)
        hess, grad, g_rows, h = dense_master_qp(inst, mesh, op.planes, eps)
        _, u_ref, _, _ = dense_qp_active_set_enumeration(hess, grad, g_rows, h)
        assert np.abs(sol.u - u_ref).max() < 1e-8


def test_plane_slack_basics(mesh):
    op = MasterOperator(_instance(mesh, np.zeros(mesh.n_cells)))
    plane = _add_cut(op, np.random.default_rng(3).standard_normal(mesh.n_cells), 1e-4)
    eps = 1e-4
    zero = np.zeros(mesh.n_cells)
    assert plane_slack(plane, zero, eps, mesh) == pytest.approx(
        1.0 + 0.5 * eps * plane.energy, abs=1e-12
    )
    # affine decrease along a scaling of the divergence direction
    direction = plane.div_phi
    s1 = plane_slack(plane, direction, eps, mesh)
    s2 = plane_slack(plane, 2.0 * direction, eps, mesh)
    s3 = plane_slack(plane, 3.0 * direction, eps, mesh)
    assert s2 - s1 == pytest.approx(s3 - s2, abs=1e-10)
    assert s2 < s1


def test_kkt_certificates(mesh):
    rng = np.random.default_rng(4)
    inst = _instance(mesh, 6.0 * rng.standard_normal(mesh.n_cells))
    eps = 1e-4
    op = MasterOperator(inst)
    sol = op.solve(eps)
    for _ in range(2):
        _add_cut(op, sol.u, eps)
        sol = op.solve(eps, warm_start=sol)
    # stationarity from an independent gradient evaluation (two Poisson solves)
    grad = reduced_gradient(sol.u, inst, mesh)
    for i, plane in enumerate(op.planes):
        grad = grad + sol.mu[i] * plane.div_phi
    assert np.abs(grad).max() < 1e-8
    slacks = np.array([plane_slack(p, sol.u, eps, mesh) for p in op.planes])
    assert np.all(sol.mu >= -1e-9)
    assert np.all(slacks >= -1e-8)
    assert np.abs(sol.mu * slacks).max() < 1e-8


def test_gradient_matches_finite_differences(mesh):
    rng = np.random.default_rng(5)
    inst = _instance(
        mesh,
        rng.standard_normal(mesh.n_cells),
        y_d=rng.standard_normal(mesh.n_nodes),
        f=rng.standard_normal(mesh.n_cells),
    )
    u = rng.standard_normal(mesh.n_cells)
    grad = reduced_gradient(u, inst, mesh)
    h = 1e-6
    for _ in range(10):
        direction = rng.standard_normal(mesh.n_cells)
        plus = reduced_objective(u + h * direction, inst, mesh)
        minus = reduced_objective(u - h * direction, inst, mesh)
        fd = (plus - minus) / (2 * h)
        analytic = float(np.sum(mesh.cell_area * grad * direction))
        assert fd == pytest.approx(analytic, rel=1e-5, abs=1e-10)


def test_feasible_set_nesting():
    # n=2 admits at most two independent cuts (two interior dual dofs),
    # so the nesting sequence runs on a slightly finer mesh
    mesh = build_friedrichs_keller(3)
    rng = np.random.default_rng(6)
    inst = _instance(mesh, 7.0 * rng.standard_normal(mesh.n_cells))
    eps = 1e-4
    op = MasterOperator(inst)
    cuts = 0
    previous = -np.inf
    sol = op.solve(eps)
    for _ in range(4):
        assert sol.objective >= previous - 1e-9
        previous = sol.objective
        plane = _add_cut(op, sol.u, eps)
        if plane_slack(plane, sol.u, eps, mesh) >= -1e-10:
            break  # current minimizer already satisfies its own cut
        cuts += 1
        sol = op.solve(eps, warm_start=sol)
    assert cuts  # at least one genuine cut was exercised


def test_eps_tightening_monotonicity(mesh):
    rng = np.random.default_rng(7)
    inst = _instance(mesh, 7.0 * rng.standard_normal(mesh.n_cells))
    op = MasterOperator(inst)
    free = op.solve(1e-4)
    _add_cut(op, free.u, 1e-4)
    coarse = op.solve(1e-4)
    fine = op.solve(2e-5)
    assert fine.objective >= coarse.objective - 1e-9


def test_optimality_certificate(mesh):
    rng = np.random.default_rng(8)
    inst = _instance(mesh, 9.0 * rng.standard_normal(mesh.n_cells))
    eps = 1e-4
    op = MasterOperator(inst)
    sol = op.solve(eps)
    _add_cut(op, sol.u, eps)
    sol = op.solve(eps)
    planes = op.planes
    base = reduced_objective(sol.u, inst, mesh)
    for _ in range(20):
        delta = rng.standard_normal(mesh.n_cells)
        # scale the step so the perturbed control stays inside the polytope
        t = 1e-2
        for plane in planes:
            slope = float(np.sum(mesh.cell_area * delta * plane.div_phi))
            slack = plane_slack(plane, sol.u, eps, mesh)
            if slope > 0:
                t = min(t, max(slack, 0.0) / (slope + 1e-30))
        candidate = sol.u + t * delta
        assert all(plane_slack(p, candidate, eps, mesh) >= -1e-10 for p in planes)
        assert reduced_objective(candidate, inst, mesh) >= base - 1e-9


def test_duplicate_planes_fail_loudly(mesh, monkeypatch):
    rng = np.random.default_rng(9)
    inst = _instance(mesh, 10.0 * rng.standard_normal(mesh.n_cells))
    eps = 1e-4
    op = MasterOperator(inst)
    free = op.solve(eps)
    plane = _add_cut(op, free.u, eps)
    assert plane_slack(plane, free.u, eps, mesh) < 0
    # add_plane drops a twin; kept at a zero tolerance, it makes the Schur block singular
    monkeypatch.setattr(master_problem, "DUPLICATE_TOL", 0.0)
    twin = _add_cut(op, free.u, eps)
    assert np.array_equal(twin.div_phi, plane.div_phi)
    with pytest.raises(SingularBorderError, match=r"\[0, 1\]"):
        op.solve(eps)


def test_active_set_cap_fails_loudly(mesh, monkeypatch):
    # one iteration cannot repeat an active set that the iteration changes:
    # the solve raises, naming the iterations, the last KKT residual and the
    # active planes, instead of returning an unconverged solution
    rng = np.random.default_rng(10)
    inst = _instance(mesh, 10.0 * rng.standard_normal(mesh.n_cells))
    eps = 1e-4
    op = MasterOperator(inst)
    free = op.solve(eps)
    plane = _add_cut(op, free.u, eps)
    sol = op.solve(eps)
    assert sol.active_planes.tolist() == [0]
    monkeypatch.setattr(master_problem, "MAX_ACTIVE_SET_ITERATIONS", 1)
    # cold, the plane is inactive and cut off: the residual is its violation
    pattern = r"active set did not repeat in 1 iterations, KKT residual (\S+); cutting planes "
    with pytest.raises(SingularBorderError, match=pattern + r"\[\]$") as cold:
        op.solve(eps)
    residual = float(re.search(pattern, str(cold.value)).group(1))
    assert residual == pytest.approx(-plane_slack(plane, free.u, eps, mesh), rel=1e-3)
    # warm from [0] at a looser eps the plane is released after one iteration
    with pytest.raises(SingularBorderError, match=pattern + r"\[0\]$") as warm:
        op.solve(1e-2, warm_start=sol)
    assert float(re.search(pattern, str(warm.value)).group(1)) > 0.0


@pytest.mark.parametrize("n", [4, 8])
def test_schur_complement_grown_per_plane_matches_the_dense_one(n):
    # add_plane makes each plane's row of block - border^T base^-1 border once;
    # the reference stacks the planes and solves the base as one dense matrix
    mesh = build_friedrichs_keller(n)
    rng = np.random.default_rng(11)
    op = MasterOperator(_instance(mesh, 8.0 * rng.standard_normal(mesh.n_cells)))
    for _ in range(3):
        _add_cut(op, 8.0 * rng.standard_normal(mesh.n_cells), 1e-4)
    div = np.array([p.div_phi for p in op.planes])
    load = interior_load(mesh) @ div.T
    border = np.vstack([np.zeros_like(load), -load / op.alpha])
    block = -mesh.cell_area * div @ div.T / op.alpha
    coupling = border.T @ np.linalg.solve(dense_master_base(mesh, op.alpha), border)
    dense = block - coupling
    assert op._schur.shape == (3, 3)
    assert np.abs(op._schur - dense).max() <= 1e-12 * np.abs(dense).max()
    # the block dominates; the base's share alone, 5e-4 of it, holds to 1e-9 of itself
    assert np.abs(block - op._schur - coupling).max() <= 1e-9 * np.abs(coupling).max()


def test_solve_memory_does_not_grow_with_the_planes(monkeypatch):
    # a solve stacks no plane vectors: on a generic n = 50 run its traced
    # peak with nine planes is within a tenth of its peak with none
    peaks = {}
    solve = MasterOperator.solve

    def traced(op, *args, **kwargs):
        tracemalloc.start()
        try:
            return solve(op, *args, **kwargs)
        finally:
            k = len(op.planes)
            peaks[k] = max(peaks.get(k, 0), tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(MasterOperator, "solve", traced)
    instance = build_generic_instance(build_friedrichs_keller(50))
    tvcontrol.run_outer_approximation(instance, tvcontrol.SolverConfig(n=50, eps_min=1.6e-7))
    assert max(peaks) >= 9
    assert peaks[9] <= 1.1 * peaks[0], peaks


def _count_calls(op, attr):
    """Replace ``op.attr`` by a wrapper that counts its calls; returns the count list."""
    calls = []
    original = getattr(op, attr)

    def counting(*args):
        calls.append(None)
        return original(*args)

    setattr(op, attr, counting)
    return calls


def test_twin_plane_is_dropped_without_a_base_solve(mesh):
    rng = np.random.default_rng(9)
    inst = _instance(mesh, 10.0 * rng.standard_normal(mesh.n_cells))
    eps = 1e-4
    op = MasterOperator(inst)
    res = eval_tv_eps(op.solve(eps).u, eps, mesh)
    assert op.add_plane(res.phi, res.energy)
    base_solves = _count_calls(op, "_base_solve")
    assert not op.add_plane(res.phi, res.energy)
    assert len(base_solves) == 0
    assert len(op.planes) == 1


def test_base_factor_solved_once_per_plane(mesh):
    rng = np.random.default_rng(10)
    inst = _instance(mesh, 10.0 * rng.standard_normal(mesh.n_cells))
    eps = 1e-4
    op = MasterOperator(inst)
    base_solves = _count_calls(op, "_base_solve")
    free = op.solve(eps)
    assert len(base_solves) == 0
    _add_cut(op, free.u, eps)
    assert len(base_solves) == 1
    sol = op.solve(eps)
    assert sol.active_planes.tolist() == [0]
    assert sol.inner_iterations >= 2
    op.solve(eps / 2, warm_start=sol)
    assert len(base_solves) == 1
    _add_cut(op, sol.u, eps)
    op.solve(eps, warm_start=sol)
    assert len(base_solves) == 2


def test_state_and_bordered_check_formed_once_per_solve(mesh):
    # the active-set loop reads the slack off the k x k Schur complement; the
    # mesh-sized base product runs once, in the check of the returned solution
    rng = np.random.default_rng(10)
    inst = _instance(mesh, 10.0 * rng.standard_normal(mesh.n_cells))
    eps = 1e-4
    op = MasterOperator(inst)
    _add_cut(op, op.solve(eps).u, eps)
    base_products = _count_calls(op, "apply_base")
    sol = op.solve(eps)
    assert sol.inner_iterations >= 2
    assert len(base_products) == 1


def _data_base_solve(n, alpha=1.0):
    """The data's base solve on the exact instance: its relative residual and CG steps."""
    mesh = build_friedrichs_keller(n)
    op = MasterOperator(build_exact_instance(mesh, alpha=alpha))
    poisson_solves = _count_calls(op, "_poisson")
    x = op._base_solve(op.rhs0)
    residual = np.abs(op.apply_base(x) - op.rhs0).max() / np.abs(op.rhs0).max()
    # two Poisson solves before the recursion and two per CG step
    return residual, (len(poisson_solves) - 2) // 2


def test_base_solve_accurate_in_mesh_independent_steps():
    results = [_data_base_solve(n) for n in (8, 16, 32)]
    assert all(residual <= 1e-12 for residual, _ in results)
    steps = [s for _, s in results]
    assert max(steps) - min(steps) <= 1


def test_base_solve_converges_at_small_alpha():
    residual, steps = _data_base_solve(16, alpha=1e-4)
    assert steps < master_problem.MAX_CG_STEPS
    assert residual <= 1e-12


def test_base_solve_fails_loudly_at_its_step_cap(monkeypatch):
    mesh = build_friedrichs_keller(8)
    op = MasterOperator(build_exact_instance(mesh))
    monkeypatch.setattr(master_problem, "MAX_CG_STEPS", 1)
    with pytest.raises(SingularBorderError, match=r"CG residual .* relative after 1 steps"):
        op._base_solve(op.rhs0)


def test_plane_base_solve_matches_a_direct_solve():
    mesh = build_friedrichs_keller(8)
    op = MasterOperator(build_exact_instance(mesh))
    plane = _add_cut(op, op.solve(1e-4).u, 1e-4)
    direct = np.linalg.solve(dense_master_base(mesh, op.alpha), op._border(plane.div_phi))
    assert np.abs(plane.base_solve - direct).max() <= 1e-10 * np.abs(direct).max()


def _run_python(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports tvcontrol from this tree."""
    src = str(Path(tvcontrol.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    return done.stdout.strip()


def test_package_and_a_run_leave_sparse_linalg_unimported():
    # the forms are stencils, the master's Poisson solves are dense products in
    # the Laplacian's sine eigenbasis, not numpy.fft, and the band Cholesky binds
    # SciPy's OpenBLAS through ctypes, so no SciPy module, nor its memory, enters a run
    code = (
        "import sys, tvcontrol\n"
        "from tvcontrol.instances import build_exact_instance\n"
        "from tvcontrol.mesh_fem import build_friedrichs_keller\n"
        "report = tvcontrol.run_outer_approximation(\n"
        "    build_exact_instance(build_friedrichs_keller(4)), tvcontrol.SolverConfig(n=4))\n"
        "assert report.records\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'scipy' or m.startswith('numpy.fft')))\n"
    )
    assert _run_python(code) == "[]"


def test_master_holds_no_band():
    # the master keeps its data's rows, their base solve and the Poisson solves'
    # sine basis (0.47 MB at n = 100), and no factor of the Laplacian's band (7.84 MB)
    instance = build_exact_instance(build_friedrichs_keller(100))
    tracemalloc.start()
    try:
        op = MasterOperator(instance)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert op.rhs0.size == 2 * instance.mesh.n_interior
    assert held < 1_000_000, held


@pytest.mark.parametrize("first", ["tvcontrol", "scipy.linalg"])
def test_band_cholesky_matches_scipy_linalg_in_either_import_order(first):
    # a scipy.linalg imported after tvcontrol still works, and one imported
    # before shares its OpenBLAS with tvcontrol; either way the factor and
    # the solve are bitwise those of cholesky_banded and cho_solve_banded,
    # and tvcontrol's routines are those that scipy.linalg's LAPACK links
    second = {"tvcontrol": "scipy.linalg", "scipy.linalg": "tvcontrol"}[first]
    code = (
        "import ctypes, importlib\n"
        f"importlib.import_module({first!r}); importlib.import_module({second!r})\n"
        "import numpy as np, scipy.linalg as sl\n"
        "from tvcontrol import sparse_linalg\n"
        "rng = np.random.default_rng(5)\n"
        "size, width = 40, 6\n"
        "band = rng.uniform(-1.0, 1.0, (width + 1, size))\n"
        "band[0] = 2.0 * width + rng.uniform(1.0, 2.0, size)\n"
        "for k in range(1, width + 1):\n"
        "    band[k, size - k:] = 0.0\n"
        "b = rng.standard_normal(size)\n"
        "factor = sl.cholesky_banded(band, lower=True)\n"
        "expected = sl.cho_solve_banded((factor, True), b)\n"
        "overwritten = np.asfortranarray(band)\n"
        "x = sparse_linalg.solve_spd(overwritten, b)\n"
        "linked = ctypes.CDLL(sl._flapack.__file__)\n"
        "same = all(ctypes.cast(getattr(linked, s), ctypes.c_void_p).value\n"
        "           == ctypes.cast(r, ctypes.c_void_p).value\n"
        "           for s, r in [('scipy_dpbtrf_', sparse_linalg._dpbtrf),\n"
        "                        ('scipy_dpbtrs_', sparse_linalg._dpbtrs)])\n"
        "print(overwritten.tobytes() == factor.tobytes() and x.tobytes() == expected.tobytes(),\n"
        "      same)\n"
    )
    assert _run_python(code) == "True True"
