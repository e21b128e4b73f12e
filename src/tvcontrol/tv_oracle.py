"""Evaluation of the dual-regularized total variation.

For a piecewise-constant control u and regularization weight eps > 0,

    tv_eps(u) = max { -(eps/2) a[phi, phi] + int u div(phi) dx :
                      phi P1 vector field, zero on the boundary,
                      |phi(node)|_2 <= 1 at every node },

with a[., .] the elasticity energy form. A P1 field whose nodal Euclidean
norms are <= 1 is bounded by 1 everywhere (barycentric convexity), so the
nodal constraints are exact for the discrete space. The oracle stops on a
weak-duality bracket of tv_eps(u) and returns a feasible field, which
doubles as the next cutting plane of the outer approximation. The
unregularized discrete TV of u (sum of edge-length-weighted jumps) bounds
tv_eps from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh_fem import Mesh, elasticity_floor, rotate_pairs
from .sparse_linalg import RESIDUAL_TOL, InnerSolverError, NotPositiveDefiniteError, solve_spd

#: the oracle stops once its weak-duality gap is at most this times 1 + |value|
GAP_TOL = 1e-12

#: an oracle call that has not converged after this many Newton steps raises
MAX_NEWTON_STEPS = 200


@dataclass
class BallConstraintState:
    """Active nodal ball constraints and their radial multipliers."""

    active_nodes: np.ndarray  # bool mask over interior nodes
    multipliers: np.ndarray   # one real per interior node, zero off the active set


@dataclass
class OracleResult:
    phi: np.ndarray  # the field's interior vector dofs, node-major, 2 per interior node
    value: float
    energy: float
    inner_iterations: int
    ball_state: BallConstraintState
    upper_bound: float  # weak-duality bound on tv_eps(u) >= value, at the last Newton step
    converged: bool = True  # always: a call that does not converge raises; perfbench reads it


def eval_tv_eps(u, eps: float, mesh: Mesh, warm_start: OracleResult | None = None) -> OracleResult:
    """Maximize the regularized dual objective by a primal-dual active-set method.

    Each iteration performs one Newton step on the stationarity system

        eps * A phi + 2 diag(lambda) phi = b,   b_j = int u div(basis_j) dx,

    with |phi(node)|^2 = 1 enforced (linearized) on the active set and
    lambda = 0 elsewhere, then reclassifies each side by its own test: an
    active node stays active iff lambda_i > 0, and an inactive node becomes
    active iff |phi_i|^2 > 1 (the primal-dual active-set rule in its
    semismooth-Newton form). The combined test lambda_i + (|phi_i|^2 - 1) > 0
    is not used: on the active set the linearized circle constraint leaves
    |phi_i|^2 - 1 = |phi_i - phi_hat_i|^2 >= 0, which would keep nodes whose
    multiplier has turned negative. Ties (|phi_i| = 1, lambda_i = 0)
    deactivate.

    After each step, weak duality brackets tv_eps(u). The iterate scaled
    node by node into the unit ball, phi / max(|phi|, 1), is feasible, so
    its objective ``value`` bounds it from below; ``_dual_bound`` at the
    unscaled iterate and the nonnegative part of its multipliers bounds it
    from above. The iteration stops once the two are within GAP_TOL *
    (1 + |value|); otherwise it reclassifies and steps on from the unscaled
    iterate. Returns the scaled field, as its interior dofs, with its value,
    energy and upper bound, and the last step's active set and multipliers.
    Without ``warm_start`` the iteration starts from phi = 0 with no active
    node, directly at ``eps``; with no interior node (n = 1) one empty step
    brackets tv_eps by [0, 0]. Raises InnerSolverError, naming the step
    count and the final duality gap, if the gap has not closed after
    MAX_NEWTON_STEPS steps, and ValueError unless 0 < eps < inf, and when
    ``u`` or ``warm_start`` does not match ``mesh``.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(f"regularization weight must be positive and finite, got {eps}")
    n_int = mesh.n_interior
    if np.shape(u) != (mesh.n_cells,):
        raise ValueError("control does not match the mesh")
    if warm_start is not None and warm_start.ball_state.multipliers.size != n_int:
        raise ValueError(
            f"warm start has {warm_start.ball_state.multipliers.size} multipliers, "
            f"the mesh has {n_int} interior nodes"
        )

    b = mesh.dual_load(u)

    if warm_start is not None:
        x = warm_start.phi
        lam = warm_start.ball_state.multipliers.astype(float)
        active = warm_start.ball_state.active_nodes.astype(bool)
    else:
        x = np.zeros(2 * n_int)
        lam = np.zeros(n_int)
        active = np.zeros(n_int, dtype=bool)

    theta = elasticity_floor(mesh)
    for iterations in range(1, MAX_NEWTON_STEPS + 1):
        step_active = active
        x, lam, ax = _newton_step(mesh, b, eps, x, np.where(active, lam, 0.0), active)

        norms2 = np.sum(x.reshape(-1, 2) ** 2, axis=1)
        upper_bound = _dual_bound(b, x, ax, np.maximum(lam, 0.0), eps, theta)
        xhat = (x.reshape(-1, 2) / np.sqrt(np.maximum(norms2, 1.0))[:, None]).ravel()
        energy = float(xhat @ mesh.elasticity(xhat))
        value = -0.5 * eps * energy + float(b @ xhat)
        if upper_bound - value <= GAP_TOL * (1.0 + abs(value)):
            break
        active = np.where(active, lam > 0.0, norms2 > 1.0)
    else:
        raise InnerSolverError(f"did not converge in {iterations} Newton steps, "
                               f"final duality gap {upper_bound - value:.3e}")

    return OracleResult(
        phi=xhat,
        value=value,
        energy=energy,
        inner_iterations=iterations,
        ball_state=BallConstraintState(active_nodes=step_active, multipliers=lam),
        upper_bound=upper_bound,
    )


def _newton_step(mesh, b, eps, x, lam, active):
    """One Newton step on the coupled stationarity/active-constraint system.

    The step solves the saddle system

        H x + C lambda = b + 2 diag(lambda) p,   C^T x = 1 + |p|^2,
        H = eps * A + 2 diag(lambda),

    whose column of C for active node i is 2 p_i on that node's dofs, by the
    null-space method: the linearized circle constraint 2 p_i . x_i = 1 +
    |p_i|^2 fixes the radial component of x_i at (1 + |p_i|^2) / (2 |p_i|)
    along p_i / |p_i|. With x = x_fixed + Z y, where Z is the identity on
    inactive dofs and the unit tangent (-p_i2, p_i1) / |p_i| on each active
    node, the tangential and inactive unknowns solve the SPD system
    Z^T H Z y = Z^T (rhs - H x_fixed). Each multiplier then comes from its
    node's radial row: lambda_i = (p_i / |p_i|) . (rhs - H x)_i / (2 |p_i|).
    Its other rows, Z^T (rhs - H x), are the reduced solve's residual; the
    step raises ``NotPositiveDefiniteError`` if that exceeds RESIDUAL_TOL
    (1 + ||Z^T (rhs - H x_fixed)||_inf). Returns the new x and lambda, and
    A x, which the caller reuses.

    No sparse matrix is built: Z^T H Z is written into band storage from the
    stencil of A, its four constant 2×2 node blocks (``Mesh.elasticity_band``),
    and the products with H and Z are taken node by node around
    ``mesh.elasticity(v)``.

    Two stabilizations of the plain linearization: the operator uses the
    nonnegative part of the multipliers (it stays positive definite while
    transiently negative multipliers would let iterates escape), and active
    circles are linearized at the radially projected point p, so
    overshooting warm starts return to the constraint in one step instead
    of halving.
    """
    idx = np.flatnonzero(active)
    points = x.reshape(-1, 2)[idx]
    radii = np.linalg.norm(points, axis=1)
    unit = points / radii[:, None]
    outside = radii > 1.0
    points[outside] = unit[outside]
    radii[outside] = 1.0
    xhat = x.copy()
    xhat.reshape(-1, 2)[idx] = points

    node_diagonal = 2.0 * np.maximum(lam, 0.0)
    diagonal = np.repeat(node_diagonal, 2)
    rhs = b + diagonal * xhat

    # each node's frame (radial, tangent), its radial direction (cos, sin); the
    # identity off the active set. Z keeps the dofs ``kept``: all but the active radial ones.
    cos, sin = np.ones(lam.size), np.zeros(lam.size)
    cos[idx], sin[idx] = unit.T
    kept = np.ones((lam.size, 2), dtype=bool)
    kept[idx, 0] = False
    x_frame = np.zeros((lam.size, 2))
    x_frame[idx, 0] = (1.0 + radii**2) / (2.0 * radii)
    x_fixed = rotate_pairs(x_frame.T, cos, -sin).T.ravel()

    band = mesh.elasticity_band(eps, node_diagonal, (cos, sin), kept)
    h_fixed = eps * mesh.elasticity(x_fixed) + diagonal * x_fixed
    reduced_rhs = rotate_pairs((rhs - h_fixed).reshape(-1, 2).T, cos, sin).T[kept]
    x_frame[kept] = solve_spd(band, reduced_rhs)
    x_new = rotate_pairs(x_frame.T, cos, -sin).T.ravel()

    ax_new = mesh.elasticity(x_new)
    remainder = rotate_pairs((rhs - (eps * ax_new + diagonal * x_new)).reshape(-1, 2).T, cos, sin).T
    residual = np.abs(remainder[kept]).max(initial=0.0)
    bound = RESIDUAL_TOL * (1.0 + np.abs(reduced_rhs).max(initial=0.0))
    if not residual <= bound:
        raise NotPositiveDefiniteError(
            f"Newton step solve residual {residual:.3e} exceeds bound {bound:.3e}"
        )
    lam_new = np.zeros_like(lam)
    lam_new[idx] = remainder[idx, 0] / (2.0 * radii)
    return x_new, lam_new, ax_new


def _dual_bound(b, x, ax, lam, eps, theta):
    """Upper bound for tv_eps(u) by weak duality, given ax = A x and lam >= 0.

    For any nodal multipliers lambda >= 0 the Lagrangian of the ball
    constraints gives tv_eps(u) <= g(lambda) = sum(lambda) + (1/2) b^T H^{-1} b,
    H = eps * A + 2 diag(lambda). Writing r = b - H x for any x,

        g(lambda) = sum(lambda) + (1/2) (b + r)^T x + (1/2) r^T H^{-1} r,

    and H >= eps * theta I with theta = mu 8 sin^2(pi / 2n)
    (``mesh_fem.elasticity_floor``): the shear part of a[., .] alone is mu
    times the 5-point Laplacian, whose smallest eigenvalue is 8 sin^2(pi / 2n),
    so theta <= the smallest eigenvalue of A and the last term is at most
    |r|^2 / (2 eps theta). Neither x nor lambda need be converged or feasible.
    """
    r = b - (eps * ax + np.repeat(2.0 * lam, 2) * x)
    return float(lam.sum() + 0.5 * ((b + r) @ x) + 0.5 * (r @ r) / (eps * theta))


def discrete_tv(u, mesh: Mesh) -> float:
    """Exact total variation of a piecewise-constant function on the mesh.

    The distributional gradient concentrates on the edges, so
    TV(u) = sum over interior edges of length(e) * |jump of u across e|.
    With U = u.reshape(n, n, 2) in the ``Mesh`` cell order, the 3n^2 - 2n
    interior edges are the square diagonals, of length sqrt(2)/n, between
    U[..., 0] and U[..., 1], and the legs, of length 1/n, between
    U[:, :-1, 0] and U[:, 1:, 1] (vertical) and U[:-1, :, 1] and U[1:, :, 0]
    (horizontal). Raises ValueError unless u has one value per cell.
    """
    v = np.asarray(u, dtype=float)
    if v.shape != (mesh.n_cells,):
        raise ValueError(f"expected {mesh.n_cells} cell values, got shape {v.shape}")
    cells = v.reshape(mesh.n, mesh.n, 2)
    diagonals = np.abs(cells[..., 0] - cells[..., 1]).sum()
    vertical = np.abs(cells[:, :-1, 0] - cells[:, 1:, 1]).sum()
    horizontal = np.abs(cells[:-1, :, 1] - cells[1:, :, 0]).sum()
    return float((math.sqrt(2.0) * diagonals + vertical + horizontal) / mesh.n)


def tv_lower_bound(result: OracleResult, eps: float) -> float:
    """Lower bound for the unregularized TV at the evaluated control.

    TV(u) >= int u div(phi) dx = value + (eps/2) a[phi, phi] for the returned
    phi, since phi is feasible for the exact dual representation. Every
    returned phi is, so the bound needs no convergence test.
    """
    return result.value + 0.5 * eps * result.energy
