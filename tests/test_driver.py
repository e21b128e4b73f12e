import json
import re

import numpy as np
import pytest

from tvcontrol import driver, master_problem, sparse_linalg, tv_oracle
from tvcontrol.driver import (
    INNER_FAILURE,
    MAX_OUTER,
    TOLERANCE_MET,
    IterationRecord,
    SolverConfig,
    compute_eoc,
    rel_error,
    run_outer_approximation,
)
from tvcontrol.instances import ProblemInstance, build_exact_instance, build_generic_instance
from tvcontrol.mesh_fem import build_forms, build_friedrichs_keller, l2_error_p0
from tvcontrol.reporting import serialize_report


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(eps_factor=1.0)
    with pytest.raises(ValueError):
        SolverConfig(eps_min=2e-5, eps_start=1e-5)
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(alpha=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(n=0)


@pytest.mark.parametrize("field", ["eps_start", "eps_min", "tol", "alpha", "eps_factor"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_config_rejects_nonfinite(field, value):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: value})


def test_config_rejects_negative_subdivision_depth():
    with pytest.raises(ValueError, match="subdivision_depth"):
        SolverConfig(subdivision_depth=-3)
    assert SolverConfig(subdivision_depth=0).subdivision_depth == 0


@pytest.mark.parametrize("field, value", [("n", True), ("n", 8.0), ("subdivision_depth", 4.0)])
def test_config_rejects_a_non_integer_size(field, value):
    with pytest.raises(TypeError, match=re.escape(f"{field}={value!r}")):
        SolverConfig(**{field: value})


def test_config_stores_a_numpy_integer_as_an_int():
    config = SolverConfig(n=np.int64(4), subdivision_depth=np.int32(4))
    assert type(config.n) is int and type(config.subdivision_depth) is int
    report = run_outer_approximation(build_exact_instance(build_friedrichs_keller(4)), config)
    assert report.terminated == TOLERANCE_MET
    echoed = json.loads(serialize_report(report, "json"))["config"]
    assert echoed["n"] == 4 and echoed["subdivision_depth"] == 4


@pytest.mark.parametrize("field, value", [
    ("warm_start", "no"), ("warm_start", 1), ("tol", "0.01"), ("alpha", True),
    ("eps_min", np.bool_(True)), ("eps_start", None),
])
def test_config_rejects_a_setting_of_the_wrong_kind(field, value):
    # "no" would run warm-started and be echoed as "no"; "0.01" would fail
    # later, comparing a float with a str
    with pytest.raises(TypeError, match=re.escape(f"{field}={value!r}")):
        SolverConfig(**{field: value})


def test_config_stores_numpy_scalars_as_python_values():
    config = SolverConfig(n=4, eps_start=np.float64(1e-5), eps_min=np.float32(1e-5),
                          tol=np.float32(1e-2), alpha=1, warm_start=np.bool_(False))
    assert type(config.warm_start) is bool and config.warm_start is False
    floats = ("eps_start", "eps_factor", "eps_min", "tol", "alpha")
    assert all(type(getattr(config, name)) is float for name in floats)
    assert config.eps_min == float(np.float32(1e-5)) and config.alpha == 1.0
    report = run_outer_approximation(build_exact_instance(build_friedrichs_keller(4)), config)
    assert report.terminated == TOLERANCE_MET
    echoed = json.loads(serialize_report(report, "json"))["config"]
    assert echoed["warm_start"] is False and echoed["tol"] == config.tol


def _records(errs, epss):
    return [
        IterationRecord(
            k=i, eps=e, objective=0.0, it_master=1, it_oracle=1,
            tv_eps=1.0, tv_lower_bound=1.0, rel_error=err,
        )
        for i, (err, e) in enumerate(zip(errs, epss))
    ]


def test_eoc_halving_error_quartering_eps():
    recs = compute_eoc(_records([0.4, 0.2], [1e-4, 2.5e-5]))
    assert recs[0].eoc is None
    assert recs[1].eoc == pytest.approx(0.5, abs=1e-12)


def test_eoc_constant_error():
    recs = compute_eoc(_records([0.4, 0.4], [1e-4, 5e-5]))
    assert recs[1].eoc == pytest.approx(0.0, abs=1e-12)


def test_eoc_undefined_cases():
    recs = compute_eoc(_records([0.4, 0.2, None, 0.1], [1e-4, 1e-4, 5e-5, 2.5e-5]))
    assert recs[1].eoc is None       # equal eps
    assert recs[2].eoc is None       # missing error
    assert recs[3].eoc is None


def test_rel_error_basics():
    mesh = build_friedrichs_keller(2)
    ref = np.full(mesh.n_cells, 2.0)
    assert rel_error(mesh, ref, ref) == 0.0
    assert rel_error(mesh, np.zeros(mesh.n_cells), ref) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        rel_error(mesh, ref, np.zeros(mesh.n_cells))


def test_early_exit_with_feasible_unconstrained_optimum():
    mesh = build_friedrichs_keller(4)
    instance = ProblemInstance(
        mesh=mesh,
        alpha=1.0,
        f=np.zeros(mesh.n_cells),
        u_d=np.zeros(mesh.n_cells),
        y_d=np.full(mesh.n_nodes, 1e-3),
        reference_u=None,
        subdivision_depth=4,
    )
    config = SolverConfig(n=4, eps_start=1e-5, eps_min=1e-5)
    report = run_outer_approximation(instance, config)
    assert report.terminated == TOLERANCE_MET
    assert len(report.records) == 1
    assert report.records[0].k == 0
    assert not report.planes


@pytest.fixture(scope="module")
def small_exact_run():
    mesh = build_friedrichs_keller(8)
    instance = build_exact_instance(mesh)
    config = SolverConfig(n=8, eps_start=1e-5, eps_min=7.8e-8)
    return instance, config, run_outer_approximation(instance, config)


def test_small_run_terminates(small_exact_run):
    _, config, report = small_exact_run
    assert report.terminated == TOLERANCE_MET
    final = report.records[-1]
    assert final.eps == config.eps_min
    assert final.tv_eps <= 1.0 + config.tol


def test_report_planes_are_distinct_and_base_solved(small_exact_run):
    instance, _, report = small_exact_run
    planes = report.planes
    assert len(planes) >= 2
    mesh = instance.mesh
    for i, a in enumerate(planes):
        for b in planes[:i]:
            assert l2_error_p0(mesh, a.div_phi, b.div_phi) >= master_problem.DUPLICATE_TOL
    op = master_problem.MasterOperator(instance)
    for p in planes:
        residual = np.abs(op.apply_base(p.base_solve) - p.border).max()
        assert residual <= 1e-12 * np.abs(p.border).max()


def test_objective_monotone_over_run(small_exact_run):
    _, _, report = small_exact_run
    objectives = [r.objective for r in report.records]
    assert all(b >= a - 1e-9 for a, b in zip(objectives, objectives[1:]))


def test_lower_bound_dominates_value(small_exact_run):
    _, _, report = small_exact_run
    for rec in report.records:
        assert rec.tv_lower_bound >= rec.tv_eps - 1e-12


def test_eps_ladder_snaps_to_minimum(small_exact_run):
    _, config, report = small_exact_run
    eps_path = [r.eps for r in report.records]
    assert eps_path[0] == config.eps_start
    assert eps_path[-1] == config.eps_min
    ratios = [b / a for a, b in zip(eps_path, eps_path[1:])]
    assert all(0.4 <= r <= 1.05 for r in ratios)


def test_warm_start_consistency(small_exact_run):
    instance, config, report = small_exact_run
    cold_config = SolverConfig(
        n=config.n, eps_start=config.eps_start, eps_min=config.eps_min, warm_start=False
    )
    cold = run_outer_approximation(instance, cold_config)
    assert cold.terminated == report.terminated
    assert len(cold.records) == len(report.records)
    for a, b in zip(report.records, cold.records):
        assert b.objective == pytest.approx(a.objective, abs=1e-6)
        assert b.tv_eps == pytest.approx(a.tv_eps, abs=1e-6)
        assert b.tv_lower_bound == pytest.approx(a.tv_lower_bound, abs=1e-6)
        if a.rel_error is not None:
            assert b.rel_error == pytest.approx(a.rel_error, abs=1e-6)


@pytest.mark.parametrize("warm_start", [True, False], ids=["warm", "cold"])
def test_one_oracle_call_per_outer_iteration(monkeypatch, warm_start):
    calls, results = [], []
    oracle = driver.eval_tv_eps

    def counting(*args, **kwargs):
        calls.append(kwargs.get("warm_start"))
        results.append(oracle(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(driver, "eval_tv_eps", counting)
    mesh = build_friedrichs_keller(8)
    config = SolverConfig(n=8, eps_start=1e-5, eps_min=7.8e-8, warm_start=warm_start)
    report = run_outer_approximation(build_exact_instance(mesh), config)
    assert report.terminated == TOLERANCE_MET
    assert len(calls) == len(report.records)
    if warm_start:
        assert calls[0] is None
        assert all(warm is prev for warm, prev in zip(calls[1:], results))
    else:
        assert all(warm is None for warm in calls)


def test_certificate_checked_at_each_eps_min_row(monkeypatch):
    # generic n = 16 with tol 1e-3 reaches eps_min twice: the first row has
    # tv_eps 1.00129, so its bound exceeds 1 + tol and the loop cuts once more
    bounds = []
    oracle = driver.eval_tv_eps

    def recording(u, eps, *args, **kwargs):
        result = oracle(u, eps, *args, **kwargs)
        if eps == config.eps_min:
            bounds.append(result.upper_bound)
        return result

    monkeypatch.setattr(driver, "eval_tv_eps", recording)
    mesh = build_friedrichs_keller(16)
    config = SolverConfig(n=16, eps_min=1.6e-7, tol=1e-3)
    report = run_outer_approximation(build_generic_instance(mesh), config)
    at_eps_min = [r for r in report.records if r.eps == config.eps_min]
    assert report.terminated == TOLERANCE_MET
    assert len(at_eps_min) == len(bounds) == 2
    assert bounds[0] > 1.0 + config.tol >= bounds[1]
    assert all(bound >= r.tv_eps - 1e-9 for bound, r in zip(bounds, at_eps_min))


def test_one_band_factorization_per_newton_step(monkeypatch):
    # the certificate factors nothing: every banded Cholesky is a Newton step's,
    # apart from the master's one factor of the Laplacian per run
    factorizations = []
    dpbtrf = sparse_linalg.dpbtrf

    def counting(*args, **kwargs):
        factorizations.append(None)
        return dpbtrf(*args, **kwargs)

    monkeypatch.setattr(sparse_linalg, "dpbtrf", counting)
    mesh = build_friedrichs_keller(8)
    report = run_outer_approximation(build_exact_instance(mesh), SolverConfig(n=8))
    assert report.terminated == TOLERANCE_MET
    assert len(factorizations) == sum(r.it_oracle for r in report.records) + 1


def test_cold_run_solves_each_oracle_call_directly_at_its_eps():
    # each cold oracle call solves directly at its eps, with no continuation
    # from eps_start, so every row stays within the caps/* bound
    mesh = build_friedrichs_keller(25)
    instance = build_exact_instance(mesh)
    warm = run_outer_approximation(instance, SolverConfig(n=25))
    cold = run_outer_approximation(instance, SolverConfig(n=25, warm_start=False))
    assert cold.terminated == warm.terminated == TOLERANCE_MET
    assert max(r.it_oracle for r in cold.records) <= 15
    assert len(cold.records) == len(warm.records)
    for a, b in zip(warm.records, cold.records):
        assert b.eps == a.eps
        assert b.objective == pytest.approx(a.objective, abs=1e-6)
        assert b.tv_eps == pytest.approx(a.tv_eps, abs=1e-6)
        assert b.tv_lower_bound == pytest.approx(a.tv_lower_bound, abs=1e-6)
        assert b.rel_error == pytest.approx(a.rel_error, abs=1e-6)


@pytest.mark.parametrize(
    "field, value", [("n", 8), ("alpha", 2.0), ("subdivision_depth", 0)]
)
def test_config_must_match_instance(field, value):
    instance = build_exact_instance(build_friedrichs_keller(4))
    config = SolverConfig(**{"n": 4, field: value})
    with pytest.raises(ValueError, match=f"config.{field}"):
        run_outer_approximation(instance, config)


def test_forms_must_match_instance_mesh():
    instance = build_exact_instance(build_friedrichs_keller(16))
    forms = build_forms(build_friedrichs_keller(8))
    with pytest.raises(ValueError, match="forms were built for n = 8 .* mesh has n = 16"):
        run_outer_approximation(instance, SolverConfig(n=16), forms)


def test_max_outer_reported(monkeypatch):
    monkeypatch.setattr(driver, "MAX_OUTER_ITERATIONS", 3)
    mesh = build_friedrichs_keller(8)
    instance = build_exact_instance(mesh)
    config = SolverConfig(n=8, eps_start=1e-5, eps_min=7.8e-8)
    report = run_outer_approximation(instance, config)
    assert report.terminated == MAX_OUTER
    assert len(report.records) == 3
    assert report.final_control is not None


def test_inner_failure_reported(monkeypatch):
    monkeypatch.setattr(tv_oracle, "MAX_NEWTON_STEPS", 2)
    mesh = build_friedrichs_keller(8)
    instance = build_exact_instance(mesh)
    config = SolverConfig(n=8, eps_start=1e-5, eps_min=7.8e-8)
    report = run_outer_approximation(instance, config)
    assert report.terminated == INNER_FAILURE
    assert not report.records
    assert report.failure.startswith(
        "TV oracle did not converge at outer iteration k = 0, eps = 1.00000e-05: "
        "2 Newton steps, final duality gap "
    )
    gap = float(report.failure.rsplit(" ", 1)[1])
    assert tv_oracle.GAP_TOL < gap < np.inf


def test_master_failure_reported(monkeypatch):
    monkeypatch.setattr(master_problem, "MAX_ACTIVE_SET_ITERATIONS", 1)
    mesh = build_friedrichs_keller(8)
    config = SolverConfig(n=8, eps_start=1e-5, eps_min=7.8e-8)
    report = run_outer_approximation(build_exact_instance(mesh), config)
    assert report.terminated == INNER_FAILURE
    k = len(report.records)
    assert report.failure.startswith(
        f"master problem failed at outer iteration k = {k}, eps = "
    )
    assert ": active set did not repeat in 1 iterations, KKT residual " in report.failure
    assert re.search(r"; cutting planes \[[\d, ]*\]$", report.failure)


def test_no_failure_message_on_success(small_exact_run):
    assert small_exact_run[2].failure is None


def test_data_base_solve_failure_reported(monkeypatch):
    # the data's base solve runs in the master's constructor, before any
    # outer iteration: its failure is reported at k = 0 and eps_start
    monkeypatch.setattr(master_problem, "MAX_CG_STEPS", 1)
    config = SolverConfig(n=8, eps_start=2e-5)
    report = run_outer_approximation(build_exact_instance(build_friedrichs_keller(8)), config)
    assert report.terminated == INNER_FAILURE
    assert not report.records and not report.planes and report.final_control is None
    assert report.failure.startswith(
        "master problem failed at outer iteration k = 0, eps = 2.00000e-05: "
        "base solve: CG residual "
    )
    assert report.failure.endswith(" relative after 1 steps")


def test_plane_base_solve_failure_keeps_the_records(monkeypatch):
    # the second plane's base solve hits its CG cap: the run ends as
    # inner_failure at that outer iteration with the rows and the plane so far
    add_plane = master_problem.MasterOperator.add_plane
    planes_added = []

    def capped(op, *args):
        if planes_added:
            monkeypatch.setattr(master_problem, "MAX_CG_STEPS", 1)
        planes_added.append(add_plane(op, *args))
        return planes_added[-1]

    monkeypatch.setattr(master_problem.MasterOperator, "add_plane", capped)
    config = SolverConfig(n=8, eps_start=1e-5, eps_min=7.8e-8)
    report = run_outer_approximation(build_exact_instance(build_friedrichs_keller(8)), config)
    assert report.terminated == INNER_FAILURE
    assert [r.k for r in report.records] == [0, 1]
    assert len(report.planes) == 1
    assert report.final_control is not None
    assert report.failure.startswith(
        "master problem failed at outer iteration k = 1, eps = 5.00000e-06: "
        "base solve: CG residual "
    )
