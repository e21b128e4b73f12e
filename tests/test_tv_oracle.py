import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    dense_newton_step,
    dual_objective,
    exact_u_bar,
    fk_nodes,
    fk_triangles,
    interior_edge_cells_by_loop,
    interior_elasticity,
    project_p0_by_einsum,
    projected_ascent_tv,
)
from tvcontrol import tv_oracle
from tvcontrol.mesh_fem import build_friedrichs_keller, elasticity_floor
from tvcontrol.tv_oracle import (
    GAP_TOL,
    _dual_bound,
    _newton_step,
    discrete_tv,
    eval_tv_eps,
    tv_lower_bound,
)


@pytest.fixture(scope="module")
def mesh4():
    return build_friedrichs_keller(4)


@pytest.fixture(scope="module")
def mesh8():
    return build_friedrichs_keller(8)


def _random_p0(mesh, seed):
    return np.random.default_rng(seed).standard_normal(mesh.n_cells)


def _newton_step_case(mesh, case):
    """(x, lam, active) of one Newton step's input, as eval_tv_eps passes it."""
    n_int = mesh.n_interior
    rng = np.random.default_rng(40)
    if case == "none_active":
        return rng.standard_normal(2 * n_int) * 0.3, np.zeros(n_int), np.zeros(n_int, bool)
    if case == "overshooting_warm_start":
        res = eval_tv_eps(_random_p0(mesh, 41), 1e-5, mesh)
        active = res.ball_state.active_nodes
        lam = np.where(active, res.ball_state.multipliers, 0.0)
        return 1.3 * res.phi, lam, active
    if case == "inside_circle":
        x = np.zeros((n_int, 2))
        active = np.zeros(n_int, bool)
        active[n_int // 2] = True
        x[n_int // 2] = (0.3, 0.4)
        return x.ravel(), np.zeros(n_int), active
    x = rng.standard_normal(2 * n_int)
    return x, rng.exponential(size=n_int), np.ones(n_int, bool)


@pytest.mark.parametrize(
    "case", ["none_active", "overshooting_warm_start", "inside_circle", "all_active"]
)
def test_newton_step_matches_dense_saddle_solve(mesh8, case):
    x, lam, active = _newton_step_case(mesh8, case)
    if case == "overshooting_warm_start":
        points = x.reshape(-1, 2)
        assert 0 < active.sum() < active.size
        assert np.all(np.linalg.norm(points[active], axis=1) > 1.0)
    eps = 1e-5
    b = mesh8.dual_load(_random_p0(mesh8, 42))
    x_new, lam_new, ax_new = _newton_step(mesh8, b, eps, x, lam, active)
    assert np.array_equal(ax_new, mesh8.elasticity(x_new))
    x_ref, lam_ref = dense_newton_step(interior_elasticity(mesh8), b, eps, x, lam, active)
    assert np.linalg.norm(x_new - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
    assert np.linalg.norm(lam_new - lam_ref) <= 1e-10 * np.linalg.norm(lam_ref)
    assert np.all(lam_new[~active] == 0.0)
    if case == "inside_circle":
        # the linearized circle at |p| = 1/2 puts the new point at radius 5/4
        node = np.flatnonzero(active)[0]
        assert x_new.reshape(-1, 2)[node] @ [0.6, 0.8] == pytest.approx(1.25)


def test_constant_control_has_zero_tv(mesh4):
    result = eval_tv_eps(np.full(mesh4.n_cells, 4.2), 1e-4, mesh4)
    assert result.converged
    assert abs(result.value) < 1e-12
    assert result.phi.shape == (2 * mesh4.n_interior,)
    assert np.abs(result.phi).max() < 1e-9


def test_values_decrease_in_eps(mesh4):
    u = _random_p0(mesh4, 42)
    small = eval_tv_eps(u, 2e-6, mesh4).value
    large = eval_tv_eps(u, 4e-6, mesh4).value
    assert small >= large - 1e-10


def test_matches_projected_ascent_on_tiny_mesh():
    mesh = build_friedrichs_keller(2)
    for seed in range(3):
        u = _random_p0(mesh, seed)
        result = eval_tv_eps(u, 1e-5, mesh)
        assert result.converged
        reference = projected_ascent_tv(u, 1e-5, mesh)
        assert result.value == pytest.approx(reference, abs=1e-7)


def test_discrete_tv_of_constant():
    mesh = build_friedrichs_keller(3)
    assert discrete_tv(np.full(mesh.n_cells, 9.0), mesh) == 0.0


def test_discrete_tv_single_triangle():
    mesh = build_friedrichs_keller(4)
    # a triangle near the center: all three of its edges are interior
    centroids = fk_nodes(4)[fk_triangles(4)].mean(axis=1)
    cell = int(np.argmin(np.abs(centroids[:, 0] - 0.5) + np.abs(centroids[:, 1] - 0.5)))
    u = np.zeros(mesh.n_cells)
    u[cell] = 3.0
    perimeter = (1.0 + 1.0 + np.sqrt(2.0)) / 4
    assert discrete_tv(u, mesh) == pytest.approx(3.0 * perimeter, abs=1e-12)


def test_discrete_tv_single_jump():
    mesh = build_friedrichs_keller(1)
    assert discrete_tv(np.array([1.0, 0.0]), mesh) == pytest.approx(np.sqrt(2.0), abs=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16])
def test_discrete_tv_matches_an_edge_walk(n):
    mesh = build_friedrichs_keller(n)
    triangles = fk_triangles(n)
    cells = interior_edge_cells_by_loop(triangles)
    assert cells.shape == (3 * n * n - 2 * n, 2)
    ends = fk_nodes(n)[[np.intersect1d(*triangles[pair]) for pair in cells]]
    lengths = np.hypot(*(ends[:, 1] - ends[:, 0]).T)
    u = np.random.default_rng(n).standard_normal(mesh.n_cells)
    walked = np.sum(lengths * np.abs(u[cells[:, 0]] - u[cells[:, 1]]))
    assert abs(discrete_tv(u, mesh) - walked) <= 1e-14 * walked
    with pytest.raises(ValueError, match=f"{mesh.n_cells} cell values"):
        discrete_tv(u[:-1], mesh)


def test_lower_bound_trivial_cases(mesh4):
    zero = eval_tv_eps(np.zeros(mesh4.n_cells), 1e-4, mesh4)
    assert tv_lower_bound(zero, 1e-4) == pytest.approx(0.0, abs=1e-12)
    u = _random_p0(mesh4, 5)
    res = eval_tv_eps(u, 1e-5, mesh4)
    gap = tv_lower_bound(res, 1e-5) - res.value
    assert gap == pytest.approx(0.5e-5 * res.energy, abs=1e-12)
    assert gap >= 0.0


def test_lower_bound_requires_convergence(mesh4, monkeypatch):
    monkeypatch.setattr(tv_oracle, "MAX_NEWTON_STEPS", 1)
    u = _random_p0(mesh4, 6)
    res = eval_tv_eps(u, 1e-6, mesh4)
    assert not res.converged
    with pytest.raises(ValueError):
        tv_lower_bound(res, 1e-6)


def _bound_at(u, res, eps, mesh, multipliers):
    """_dual_bound at the result's phi and the given multipliers."""
    return _dual_bound(mesh.dual_load(u), res.phi, mesh.elasticity(res.phi), multipliers, eps,
                       elasticity_floor(mesh))


def test_upper_bound_dominates_value(mesh4):
    rng = np.random.default_rng(21)
    for seed in range(5):
        u = _random_p0(mesh4, 20 + seed)
        for eps in (1e-5, 1e-6):
            res = eval_tv_eps(u, eps, mesh4)
            slack = 1e-12 * (1.0 + abs(res.value))
            assert res.upper_bound >= res.value - slack
            lam = np.maximum(res.ball_state.multipliers, 0.0)
            assert _bound_at(u, res, eps, mesh4, lam) >= res.value - slack
            # weak duality: any nonnegative multipliers bound the maximum
            lam = rng.exponential(size=mesh4.n_interior)
            lam[rng.random(mesh4.n_interior) < 0.5] = 0.0
            assert _bound_at(u, res, eps, mesh4, lam) >= res.value - slack


def test_upper_bound_tight_at_converged_result(mesh4):
    for seed, eps in ((30, 1e-5), (31, 1e-6), (32, 2e-7)):
        u = _random_p0(mesh4, seed)
        res = eval_tv_eps(u, eps, mesh4)
        assert res.converged
        assert res.ball_state.active_nodes.any()
        assert res.upper_bound == pytest.approx(res.value, rel=1e-10)
        lam = np.maximum(res.ball_state.multipliers, 0.0)
        assert _bound_at(u, res, eps, mesh4, lam) == pytest.approx(res.value, rel=1e-10)


@pytest.mark.parametrize("n", [4, 8])
def test_converged_result_is_feasible_and_bracketed(n):
    # the returned phi is the projected iterate, so it lies in the unit ball up to
    # rounding, and its objective and the bound the oracle stopped on bracket tv_eps.
    # Both ends are rounded sums of O(1) terms: once the gap closes they can cross
    # by a few ulps (up to 3, in 18 of these 60 results), which 1e-15 allows.
    mesh = build_friedrichs_keller(n)
    for seed in range(10):
        u = _random_p0(mesh, seed)
        for eps in (1e-5, 1e-6, 2e-7):
            res = eval_tv_eps(u, eps, mesh)
            if not res.converged:
                continue
            assert np.linalg.norm(res.phi.reshape(-1, 2), axis=1).max() <= 1.0 + 1e-15
            assert res.value == dual_objective(u, res.phi, eps, mesh)
            scale = 1.0 + abs(res.value)
            assert res.value - 1e-15 * scale <= res.upper_bound <= res.value + GAP_TOL * scale


def test_shift_invariance_including_phi(mesh4):
    u = _random_p0(mesh4, 7)
    shifted = u + 3.25
    a = eval_tv_eps(u, 1e-5, mesh4)
    b = eval_tv_eps(shifted, 1e-5, mesh4)
    assert a.value == pytest.approx(b.value, abs=1e-9)
    assert np.abs(a.phi - b.phi).max() < 1e-9


def test_dominated_by_discrete_tv(mesh4):
    for seed in range(10):
        u = _random_p0(mesh4, seed)
        res = eval_tv_eps(u, 1e-5, mesh4)
        assert res.value <= discrete_tv(u, mesh4) + 1e-9


def test_lipschitz_inequality(mesh4):
    for seed in (0, 1, 2, 3):
        rng = np.random.default_rng(100 + seed)
        u1 = rng.standard_normal(mesh4.n_cells)
        u2 = rng.standard_normal(mesh4.n_cells)
        eps = 1e-5
        r1, r2 = eval_tv_eps(u1, eps, mesh4), eval_tv_eps(u2, eps, mesh4)
        d = r1.phi - r2.phi
        lhs = eps * float(d @ mesh4.elasticity(d))
        rhs = float(mesh4.dual_load(u1 - u2) @ d)
        assert lhs <= rhs + 1e-9


def test_maximizer_certificate(mesh4):
    u = _random_p0(mesh4, 11)
    eps = 1e-5
    res = eval_tv_eps(u, eps, mesh4)
    rng = np.random.default_rng(12)
    for _ in range(100):
        v = rng.standard_normal((mesh4.n_interior, 2))
        norms = np.linalg.norm(v, axis=1)
        v /= np.maximum(norms, 1.0)[:, None]
        assert res.value >= dual_objective(u, v.ravel(), eps, mesh4) - 1e-9


def test_kkt_complementarity(mesh4):
    u = _random_p0(mesh4, 13)
    res = eval_tv_eps(u, 1e-5, mesh4)
    assert res.converged
    norms = np.linalg.norm(res.phi.reshape(-1, 2), axis=1)
    active = res.ball_state.active_nodes
    lam = res.ball_state.multipliers
    assert np.all(norms <= 1.0 + 1e-9)
    if active.any():
        assert np.abs(norms[active] - 1.0).max() < 1e-8
        assert lam[active].min() >= -1e-9
    if (~active).any():
        assert np.all(lam[~active] == 0.0)
        assert np.all(norms[~active] <= 1.0 + 1e-9)


def test_value_energy_consistency(mesh4):
    u = _random_p0(mesh4, 14)
    eps = 2e-5
    res = eval_tv_eps(u, eps, mesh4)
    x = res.phi
    recomputed = -0.5 * eps * float(x @ mesh4.elasticity(x)) + float(mesh4.dual_load(u) @ x)
    assert res.value == pytest.approx(recomputed, abs=1e-9)


def test_warm_start_agrees_with_cold_start(mesh4):
    u = _random_p0(mesh4, 15)
    base = eval_tv_eps(u, 1e-5, mesh4)
    warm = eval_tv_eps(u, 5e-6, mesh4, warm_start=base)
    cold = eval_tv_eps(u, 5e-6, mesh4)
    assert warm.converged and cold.converged
    assert warm.value == pytest.approx(cold.value, abs=1e-8)


@pytest.mark.parametrize("n", [25, 50])
def test_cold_start_converges_at_eps_min(n):
    # active nodes whose multiplier turns negative must leave at once, or the
    # iteration sheds them a few per step and cycles at small eps
    mesh = build_friedrichs_keller(n)
    u = project_p0_by_einsum(exact_u_bar, mesh, 4)
    res = eval_tv_eps(u, 7.8e-8, mesh)
    assert res.converged
    assert res.inner_iterations <= 15


def test_invalid_inputs(mesh4):
    u = _random_p0(mesh4, 16)
    with pytest.raises(ValueError):
        eval_tv_eps(u, 0.0, mesh4)
    with pytest.raises(ValueError):
        eval_tv_eps(np.ones(3), 1e-5, mesh4)


@pytest.mark.parametrize("eps", [np.nan, np.inf], ids=["nan", "inf"])
def test_nonfinite_eps_rejected_before_any_step(mesh4, monkeypatch, eps):
    # a NaN eps passes the test eps <= 0 and would take Newton steps full of NaNs
    def no_step(*args):
        raise AssertionError("Newton step taken")

    monkeypatch.setattr(tv_oracle, "_newton_step", no_step)
    with pytest.raises(ValueError, match="positive and finite"):
        eval_tv_eps(_random_p0(mesh4, 16), eps, mesh4)


def test_warm_start_from_another_mesh_rejected(mesh4, mesh8):
    u = _random_p0(mesh8, 17)
    coarse = eval_tv_eps(_random_p0(mesh4, 17), 1e-5, mesh4)
    with pytest.raises(ValueError, match="warm start has 9 multipliers"):
        eval_tv_eps(u, 1e-5, mesh8, warm_start=coarse)


def test_empty_interior_mesh():
    # no interior node: the general loop takes one empty Newton step, whose
    # bracket is [0, 0], cold or warm-started from its own result
    mesh = build_friedrichs_keller(1)
    res = eval_tv_eps(np.array([1.0, -1.0]), 1e-5, mesh)
    warm = eval_tv_eps(np.array([2.0, 0.0]), 5e-6, mesh, warm_start=res)
    for r in (res, warm):
        assert r.converged and r.inner_iterations == 1
        assert r.value == r.upper_bound == r.energy == 0.0
        assert r.phi.shape == r.ball_state.multipliers.shape == r.ball_state.active_nodes.shape == (0,)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=-5.0, max_value=5.0))
def test_shift_invariance_property(seed, shift):
    mesh = build_friedrichs_keller(2)
    u = _random_p0(mesh, seed)
    a = eval_tv_eps(u, 1e-5, mesh)
    b = eval_tv_eps(u + shift, 1e-5, mesh)
    assert a.value == pytest.approx(b.value, abs=1e-9)
    assert a.value <= discrete_tv(u, mesh) + 1e-9
