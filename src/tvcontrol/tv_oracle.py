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

import math
from dataclasses import dataclass

import numpy as np

from .mesh_fem import Forms, Mesh, P1VectorField, _p0_values, elasticity_floor
from .sparse_linalg import RESIDUAL_TOL, NotPositiveDefiniteError, solve_spd

#: the active set is optimal once it repeats and the KKT residual is at most this
KKT_TOL = 1e-9

#: an oracle call that has not converged after this many Newton steps fails
MAX_NEWTON_STEPS = 200


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
    residual: float  # KKT residual after the last Newton step


def eval_tv_eps(
    u, eps: float, forms: Forms, warm_start: OracleResult | None = None
) -> OracleResult:
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
    multiplier has turned negative. Terminates once the active set repeats
    and the KKT residual drops to KKT_TOL; ties (|phi_i| = 1, lambda_i = 0)
    deactivate. Returns ``converged=False`` after MAX_NEWTON_STEPS steps.
    Without ``warm_start`` the iteration starts from phi = 0 with no active
    node, directly at ``eps``. Raises ValueError when ``u`` or ``warm_start``
    does not match the mesh of ``forms``.
    """
    if eps <= 0.0:
        raise ValueError(f"regularization weight must be positive, got {eps}")
    n_int = forms.n_interior
    mesh = forms.mesh
    if _p0_values(u).shape != (mesh.n_cells,):
        raise ValueError("control does not match the mesh of the assembled forms")
    if warm_start is not None and warm_start.ball_state.multipliers.size != n_int:
        raise ValueError(
            f"warm start has {warm_start.ball_state.multipliers.size} multipliers, "
            f"the assembled forms have {n_int} interior nodes"
        )

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
            residual=0.0,
        )

    b = forms.dual_load(u)

    if warm_start is not None:
        x = forms.interior_vector(warm_start.phi)
        lam = warm_start.ball_state.multipliers.astype(float).copy()
        active = warm_start.ball_state.active_nodes.astype(bool).copy()
    else:
        x = np.zeros(2 * n_int)
        lam = np.zeros(n_int)
        active = np.zeros(n_int, dtype=bool)

    converged = False
    iterations = 0
    residual = np.inf
    for _ in range(MAX_NEWTON_STEPS):
        iterations += 1
        lam = np.where(active, lam, 0.0)
        x, lam, ax = _newton_step(forms, b, eps, x, lam, active)

        norms2 = np.sum(x.reshape(-1, 2) ** 2, axis=1)
        residual = _kkt_residual(ax, b, eps, x, lam, active, norms2)
        active_next = np.where(active, lam > 0.0, norms2 > 1.0)
        if np.array_equal(active_next, active) and residual <= KKT_TOL:
            converged = True
            break
        active = active_next
        lam = np.where(active, lam, 0.0)

    energy = float(x @ ax)
    value = -0.5 * eps * energy + float(b @ x)
    return OracleResult(
        phi=forms.full_vector_field(x),
        value=value,
        energy=energy,
        inner_iterations=iterations,
        converged=converged,
        ball_state=BallConstraintState(active_nodes=active, multipliers=lam),
        residual=residual,
    )


def _newton_step(forms, b, eps, x, lam, active):
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

    No sparse matrix is built: Z^T H Z goes straight into band storage from
    the 2×2 node blocks of A (``NodeBlocks.reduced_band``), and the products
    with H and Z are taken node by node around ``forms.elasticity @ v``.

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

    # each node's frame (radial, tangent) as the rows (cos, sin); the identity off
    # the active set. Z keeps the dofs ``kept``: all but the active radial ones.
    frame = np.zeros((2, lam.size))
    frame[0] = 1.0
    frame[:, idx] = unit.T
    kept = np.ones((lam.size, 2), dtype=bool)
    kept[idx, 0] = False
    x_frame = np.zeros((lam.size, 2))
    x_frame[idx, 0] = (1.0 + radii**2) / (2.0 * radii)
    x_fixed = _from_frame(x_frame, frame)

    band = forms.elasticity_blocks.reduced_band(eps, node_diagonal, frame, kept)
    h_fixed = eps * (forms.elasticity @ x_fixed) + diagonal * x_fixed
    reduced_rhs = _to_frame(rhs - h_fixed, frame)[kept]
    x_frame[kept] = solve_spd(band, reduced_rhs)
    x_new = _from_frame(x_frame, frame)

    ax_new = forms.elasticity @ x_new
    remainder = _to_frame(rhs - (eps * ax_new + diagonal * x_new), frame)
    residual = np.abs(remainder[kept]).max(initial=0.0)
    bound = RESIDUAL_TOL * (1.0 + np.abs(reduced_rhs).max(initial=0.0))
    if not residual <= bound:
        raise NotPositiveDefiniteError(
            f"Newton step solve residual {residual:.3e} exceeds bound {bound:.3e}"
        )
    lam_new = np.zeros_like(lam)
    lam_new[idx] = remainder[idx, 0] / (2.0 * radii)
    return x_new, lam_new, ax_new


def _to_frame(v, frame):
    """Per node, the (radial, tangent) components of the node-major vector v."""
    v = v.reshape(-1, 2)
    cos, sin = frame
    return np.column_stack([cos * v[:, 0] + sin * v[:, 1], cos * v[:, 1] - sin * v[:, 0]])


def _from_frame(w, frame):
    """The node-major vector whose per-node (radial, tangent) components are w."""
    cos, sin = frame
    return np.column_stack([cos * w[:, 0] - sin * w[:, 1], sin * w[:, 0] + cos * w[:, 1]]).ravel()


def _kkt_residual(ax, b, eps, x, lam, active, norms2):
    """The largest violation of the KKT conditions at x, given ax = A x."""
    stationarity = eps * ax + 2.0 * np.repeat(lam, 2) * x - b
    res = float(np.abs(stationarity).max(initial=0.0))
    if active.any():
        res = max(res, float(np.abs(norms2[active] - 1.0).max()))
        res = max(res, float(max(0.0, -lam[active].min())))
    inactive = ~active
    if inactive.any():
        res = max(res, float(max(0.0, (norms2[inactive] - 1.0).max())))
    return res


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
    v = _p0_values(u)
    if v.shape != (mesh.n_cells,):
        raise ValueError(f"expected {mesh.n_cells} cell values, got shape {v.shape}")
    cells = v.reshape(mesh.n, mesh.n, 2)
    diagonals = np.abs(cells[..., 0] - cells[..., 1]).sum()
    vertical = np.abs(cells[:, :-1, 0] - cells[:, 1:, 1]).sum()
    horizontal = np.abs(cells[:-1, :, 1] - cells[1:, :, 0]).sum()
    return float((math.sqrt(2.0) * diagonals + vertical + horizontal) / mesh.n)


def tv_lower_bound(result: OracleResult, eps: float) -> float:
    """Lower bound for the unregularized TV at the evaluated control.

    TV(u) >= int u div(phi) dx = tv_eps(u) + (eps/2) a[phi, phi] for the
    maximizing phi, since phi is feasible for the exact dual representation.
    """
    if not result.converged:
        raise ValueError("lower bound requires a converged oracle result")
    return result.value + 0.5 * eps * result.energy


def tv_upper_bound(u, result: OracleResult, eps: float, forms: Forms) -> float:
    """Upper bound for tv_eps(u) by weak duality, at the cost of one product with A.

    For any nodal multipliers lambda >= 0 the Lagrangian of the ball
    constraints gives tv_eps(u) <= g(lambda) = sum(lambda) + (1/2) b^T H^{-1} b,
    H = eps * A + 2 diag(lambda). Writing r = b - H phi for any phi,

        g(lambda) = sum(lambda) + (1/2) (b + r)^T phi + (1/2) r^T H^{-1} r,

    and H >= eps * theta I with theta = mu 8 sin^2(pi / 2n)
    (``mesh_fem.elasticity_floor``): the shear part of a[., .] alone is mu
    times the 5-point Laplacian, whose smallest eigenvalue is 8 sin^2(pi / 2n),
    so theta <= the smallest eigenvalue of A and the last term is at most
    |r|^2 / (2 eps theta). Uses the result's phi and the nonnegative part
    of its multipliers, which need not be converged; at a converged result
    r is at the KKT tolerance and the bound equals the value to within it.
    """
    lam = np.maximum(result.ball_state.multipliers, 0.0)
    b = forms.dual_load(u)
    x = forms.interior_vector(result.phi)
    r = b - (eps * (forms.elasticity @ x) + np.repeat(2.0 * lam, 2) * x)
    theta = elasticity_floor(forms.mesh)
    return float(lam.sum() + 0.5 * ((b + r) @ x) + 0.5 * (r @ r) / (eps * theta))
