"""Evaluation of the dual-regularized total variation.

For a piecewise-constant control u and regularization weight eps > 0,

    tv_eps(u) = max { -(eps/2) a[phi, phi] + int u div(phi) dx :
                      phi P1 vector field, zero on the boundary,
                      |phi(node)|_2 <= 1 at every node },

with a[., .] the elasticity energy form. A P1 field whose nodal Euclidean
norms are <= 1 is bounded by 1 everywhere (barycentric convexity), so the
nodal constraints are exact for the discrete space. The maximizer doubles
as the next cutting plane of the outer approximation, and the unregularized
discrete TV of u (sum of edge-length-weighted jumps) bounds tv_eps from
above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh_fem import Forms, Mesh, P1VectorField, _p0_values
from .sparse_linalg import SparseSymMatrix, solve_spd, solve_symmetric


@dataclass
class BallConstraintState:
    """Active nodal ball constraints and their radial multipliers."""

    active_nodes: np.ndarray  # bool mask over interior nodes
    multipliers: np.ndarray   # one nonnegative real per interior node


@dataclass
class OracleResult:
    phi: P1VectorField
    value: float
    energy: float
    inner_iterations: int
    converged: bool
    ball_state: BallConstraintState


def eval_tv_eps(
    u,
    eps: float,
    forms: Forms,
    warm_start: OracleResult | None = None,
    max_inner_iterations: int = 200,
    tol: float = 1e-9,
) -> OracleResult:
    """Maximize the regularized dual objective by a primal-dual active-set method.

    Each iteration performs one Newton step on the stationarity system

        eps * A phi + 2 diag(lambda) phi = b,   b_j = int u div(basis_j) dx,

    with |phi(node)|^2 = 1 enforced (linearized) on the active set and
    lambda = 0 elsewhere, then reclassifies nodes by the rule
    lambda_i + (|phi_i|^2 - 1) > 0. Terminates once the active set repeats
    and the KKT residual drops below ``tol``; ties (|phi_i| = 1, lambda_i = 0)
    deactivate. Returns ``converged=False`` when the iteration cap is hit.
    """
    if eps <= 0.0:
        raise ValueError(f"regularization weight must be positive, got {eps}")
    n_int = forms.n_interior
    mesh = forms.mesh
    if _p0_values(u).shape != (mesh.n_cells,):
        raise ValueError("control does not match the mesh of the assembled forms")

    if n_int == 0:
        return OracleResult(
            phi=P1VectorField(np.zeros((mesh.n_nodes, 2))),
            value=0.0,
            energy=0.0,
            inner_iterations=0,
            converged=True,
            ball_state=BallConstraintState(
                active_nodes=np.zeros(0, dtype=bool), multipliers=np.zeros(0)
            ),
        )

    a_mat = forms.elasticity.matrix
    b = forms.dual_load(u)

    if warm_start is not None and warm_start.ball_state.multipliers.size == n_int:
        x = forms.interior_vector(warm_start.phi)
        lam = warm_start.ball_state.multipliers.astype(float).copy()
        active = warm_start.ball_state.active_nodes.astype(bool).copy()
    else:
        x = np.zeros(2 * n_int)
        lam = np.zeros(n_int)
        active = np.zeros(n_int, dtype=bool)

    converged = False
    iterations = 0
    for _ in range(max_inner_iterations):
        iterations += 1
        lam = np.where(active, lam, 0.0)
        x, lam = _newton_step(a_mat, b, eps, x, lam, active)

        norms2 = np.sum(x.reshape(-1, 2) ** 2, axis=1)
        residual = _kkt_residual(a_mat, b, eps, x, lam, active, norms2)
        active_next = (lam + (norms2 - 1.0)) > 0.0
        if np.array_equal(active_next, active) and residual <= tol:
            converged = True
            break
        active = active_next
        lam = np.where(active, lam, 0.0)

    energy = float(x @ (a_mat @ x))
    value = -0.5 * eps * energy + float(b @ x)
    return OracleResult(
        phi=forms.full_vector_field(x),
        value=value,
        energy=energy,
        inner_iterations=iterations,
        converged=converged,
        ball_state=BallConstraintState(active_nodes=active, multipliers=lam),
    )


def _newton_step(a_mat, b, eps, x, lam, active):
    """One Newton step on the coupled stationarity/active-constraint system.

    Two stabilizations of the plain linearization: the operator uses the
    nonnegative part of the multipliers (it stays positive definite while
    transiently negative multipliers would let iterates escape), and active
    circles are linearized at the radially projected point, so overshooting
    warm starts return to the constraint in one step instead of halving.
    """
    idx = np.flatnonzero(active)
    m = idx.size
    xhat = x
    if m:
        xhat = x.copy()
        rows = np.column_stack([2 * idx, 2 * idx + 1]).ravel()
        points = xhat[rows].reshape(m, 2)
        radii = np.linalg.norm(points, axis=1)
        points[radii > 1.0] /= radii[radii > 1.0, None]
        xhat[rows] = points.ravel()

    lam_dof = np.repeat(np.maximum(lam, 0.0), 2)
    h = (eps * a_mat + sp.diags(2.0 * lam_dof)).tocsr()
    rhs1 = b + 2.0 * lam_dof * xhat

    if m == 0:
        x_new = solve_spd(SparseSymMatrix(h, check=False), rhs1)
        return x_new, np.zeros_like(lam)

    cols = np.repeat(np.arange(m), 2)
    c = sp.coo_matrix((2.0 * points.ravel(), (rows, cols)), shape=(x.size, m))
    saddle = sp.bmat([[h, c], [c.T, None]], format="csr")
    norms2 = np.sum(points**2, axis=1)
    rhs = np.concatenate([rhs1, 1.0 + norms2])

    sol = solve_symmetric(SparseSymMatrix(saddle, check=False), rhs)
    x_new = sol[: x.size]
    lam_new = np.zeros_like(lam)
    lam_new[idx] = sol[x.size:]
    return x_new, lam_new


def _kkt_residual(a_mat, b, eps, x, lam, active, norms2):
    stationarity = eps * (a_mat @ x) + 2.0 * np.repeat(lam, 2) * x - b
    res = float(np.abs(stationarity).max(initial=0.0))
    if active.any():
        res = max(res, float(np.abs(norms2[active] - 1.0).max()))
        res = max(res, float(max(0.0, -lam[active].min())))
    inactive = ~active
    if inactive.any():
        res = max(res, float(max(0.0, (norms2[inactive] - 1.0).max())))
    return res


def eval_tv_eps_path(
    u,
    eps: float,
    forms: Forms,
    eps_init: float = 1e-5,
    factor: float = 0.5,
    max_inner_iterations: int = 200,
    tol: float = 1e-9,
) -> OracleResult:
    """Evaluate tv_eps without external warm-start data.

    The plain active-set iteration cycles when started from zero at small
    eps (the quadratic term is too weak to damp the constraint set), so this
    runs its own geometric continuation: solve at eps_init, halve towards
    the target, warm-starting each leg from the previous one. Iteration
    counts accumulate over the legs; the reported value belongs to the
    target eps.
    """
    ladder = [eps]
    cur = eps_init
    while cur > eps * 1.05:  # legs closer than 5% to the target add nothing
        ladder.append(cur)
        cur *= factor
    ladder.sort(reverse=True)

    result: OracleResult | None = None
    total = 0
    for leg in ladder:
        result = eval_tv_eps(
            u,
            leg,
            forms,
            warm_start=result,
            max_inner_iterations=max_inner_iterations,
            tol=tol,
        )
        total += result.inner_iterations
        if not result.converged:
            break
    result.inner_iterations = total
    return result


def dual_objective(u, phi, eps: float, forms: Forms) -> float:
    """The regularized dual objective -(eps/2) a[phi, phi] + int u div(phi) dx."""
    x = forms.interior_vector(phi) if isinstance(phi, P1VectorField) else np.asarray(phi)
    energy = forms.elasticity.energy(x)
    return -0.5 * eps * energy + forms.integrate_u_div(u, x)


def discrete_tv(u, mesh: Mesh) -> float:
    """Exact total variation of a piecewise-constant function on the mesh.

    The distributional gradient concentrates on the edges, so
    TV(u) = sum over interior edges of length(e) * |jump of u across e|.
    """
    v = _p0_values(u)
    edges = mesh.interior_edges
    jumps = np.abs(v[edges.cells[:, 0]] - v[edges.cells[:, 1]])
    return float(np.sum(edges.lengths * jumps))


def tv_lower_bound(result: OracleResult, eps: float) -> float:
    """Lower bound for the unregularized TV at the evaluated control.

    TV(u) >= int u div(phi) dx = tv_eps(u) + (eps/2) a[phi, phi] for the
    maximizing phi, since phi is feasible for the exact dual representation.
    """
    if not result.converged:
        raise ValueError("lower bound requires a converged oracle result")
    return result.value + 0.5 * eps * result.energy


def tv_upper_bound(u, result: OracleResult, eps: float, forms: Forms) -> float:
    """Upper bound for tv_eps(u) by weak duality, at the cost of one SPD solve.

    For any nodal multipliers lambda >= 0 the Lagrangian of the ball
    constraints gives

        tv_eps(u) <= sum(lambda) + (1/2) b^T (eps * A + 2 diag(lambda))^{-1} b.

    Uses the nonnegative part of the multipliers in ``result``, which need
    not be converged; at a converged result the bound equals its value.
    """
    lam = np.maximum(result.ball_state.multipliers, 0.0)
    b = forms.dual_load(u)
    h = (eps * forms.elasticity.matrix + sp.diags(np.repeat(2.0 * lam, 2))).tocsr()
    x = solve_spd(SparseSymMatrix(h, check=False), b)
    return float(lam.sum() + 0.5 * (b @ x))
