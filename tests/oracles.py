"""Independent reference computations the solver tests check against.

Everything here deliberately avoids the code paths under test: dense
Gaussian elimination instead of sparse factorizations, projected gradient
ascent instead of the active-set iteration, the full dense saddle system
instead of the oracle's null-space reduction, dense products instead of
its band written from the elasticity's node blocks, bands laid out from
triplets by ``np.bincount`` instead of written block by block, a band's
product summed diagonal by diagonal instead of the stencils', active-set
enumeration on dense KKT systems instead of the bordered solver, a
dictionary walk over the triangles instead of the edge families read off
the cell grid, one ``einsum`` over every quadrature point of the mesh
instead of the per-axis tables the instances walk in blocks, the exact
instance's u_bar, f and phi_bar and the generic instance's u_d as pointwise
closed forms instead of their fused per-axis terms, psi by its cubics
branch by branch instead of by Horner's rule under masks, and the reduced
objective and gradient by separate state and adjoint solves instead of the
master's coupled KKT elimination, and the regularized optimum J*_eps by
SLSQP on one smooth convex program instead of the outer approximation.

The mesh is its own Friedrichs-Keller node and triangle list
(:func:`fk_nodes`, :func:`fk_triangles`), built from node indices instead
of sliced off the node grid. The finite element forms are summed cell by
cell from those coordinates (:func:`cell_areas`, :func:`basis_gradients`) into sparse
matrices instead of applied as the grid's stencils: the stiffness instead
of the 5-point Laplacian, the mass instead of its 7-point stencil, the
P0-P1 coupling and the cell average instead of their six- and three-cell
sums, the divergence instead of its edge differences, and the elasticity
from the Lame tensor instead of the shear Laplacian plus the divergence
energy or its closed-form node blocks.
"""

from __future__ import annotations

from itertools import combinations
from pathlib import Path

import numpy as np

import scipy.sparse as sp
from scipy.optimize import minimize

from tvcontrol import mesh_fem
from tvcontrol.instances import (
    BALL_CENTER,
    BALL_PERIMETER,
    BALL_RADIUS,
    CERTIFICATE_SCALE,
    generic_u_d_x,
    generic_u_d_y,
)
from tvcontrol.mesh_fem import (
    LAME_LAMBDA,
    SHEAR_MODULUS,
    Mesh,
    _subtriangle_centroids,
)
from tvcontrol.sparse_linalg import NotPositiveDefiniteError, solve_spd
from tvcontrol.tv_oracle import RESIDUAL_TOL


def _summed_csr_without_zeros(rows, cols, data, shape) -> sp.csr_matrix:
    """Sum the per-cell triplets into CSR and drop entries that are, or cancel to, 0.0."""
    m = sp.coo_matrix((data, (rows, cols)), shape=shape).tocsr()
    m.sum_duplicates()
    m.eliminate_zeros()
    return m


def lower_band(rows, cols, values, size: int) -> np.ndarray:
    """LAPACK lower band storage of the entries (rows, cols, values), broadcast together.

    The triplet reference of ``Mesh``'s band writer. Only entries with
    0 <= col <= row and a nonzero value count, so a negative index marks an
    entry to skip: ``band[i - j, j]`` sums the values at (i, j) by
    ``np.bincount``, and the band is as wide as the farthest of them from
    the diagonal. It is laid out column-major so that the factorization
    overwrites it in place.
    """
    rows, cols, values = np.broadcast_arrays(rows, cols, values)
    offsets = rows - cols
    entries = np.flatnonzero((cols >= 0) & (offsets >= 0) & (values != 0.0))
    offsets = offsets.ravel()[entries]
    width = int(offsets.max(initial=0))
    flat = cols.ravel()[entries].astype(np.intp, copy=False) * (width + 1) + offsets
    return np.bincount(
        flat, weights=values.ravel()[entries], minlength=size * (width + 1)
    ).reshape(size, width + 1).T


def stiffness_band(mesh: Mesh) -> np.ndarray:
    """The lower band of ``Mesh.stiffness``, written by ``Mesh``'s band writer.

    The one-dof input of the band writer's tests, from ``LAPLACIAN_LOWER``; no
    run factors it, since the master solves the Laplacian in its sine
    eigenbasis. The writer is looked up at each call, so a test that wraps
    ``mesh_fem._stencil_band`` sees this band too.
    """
    m = mesh.n - 1
    return mesh_fem._stencil_band(np.arange(m * m).reshape(1, m, m), mesh_fem.LAPLACIAN_LOWER,
                                  m * m)


def solve_sparse_spd(matrix, b) -> np.ndarray:
    """Solve with a symmetric positive definite sparse matrix by the banded core.

    Its stored entries on or below the diagonal (duplicates summed) go into
    LAPACK band storage by ``lower_band``, then ``solve_spd`` factors it.
    Like the Newton step, it fails unless ||A x - b||_inf <= RESIDUAL_TOL
    (1 + ||b||_inf).
    """
    b = np.asarray(b, dtype=float)
    coo = matrix.tocoo()
    band = lower_band(coo.row, coo.col, coo.data, matrix.shape[0])
    x = solve_spd(band, b)
    residual = np.abs(matrix @ x - b).max(initial=0.0)
    bound = RESIDUAL_TOL * (1.0 + np.abs(b).max(initial=0.0))
    if not residual <= bound:
        raise NotPositiveDefiniteError(f"solve residual {residual:.3e} exceeds bound {bound:.3e}")
    return x


def fk_nodes(n: int) -> np.ndarray:
    """Coordinates of the Friedrichs-Keller grid's nodes, node (i, j) -> j*(n+1)+i, (n_nodes, 2)."""
    side = np.arange(n + 1) / n
    xx, yy = np.meshgrid(side, side, indexing="xy")
    return np.column_stack([xx.ravel(), yy.ravel()])


def fk_triangles(n: int) -> np.ndarray:
    """Corner nodes of every cell, counterclockwise, (2 n^2, 3).

    By grid row, then column, then the lower (a, a+1, a+n+2) and upper
    (a, a+n+2, a+n+1) triangle of the square with lower-left corner a.
    """
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    a = (jj * (n + 1) + ii).ravel()
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([a, a + 1, a + n + 2])
    triangles[1::2] = np.column_stack([a, a + n + 2, a + n + 1])
    return triangles


def fk_interior_nodes(n: int) -> np.ndarray:
    """The nodes with neither coordinate 0 or 1, in node order."""
    nodes = fk_nodes(n)
    return np.flatnonzero(~((nodes == 0.0) | (nodes == 1.0)).any(axis=1))


def _corner_coordinates(mesh: Mesh) -> np.ndarray:
    return fk_nodes(mesh.n)[fk_triangles(mesh.n)]


def cell_areas(mesh: Mesh) -> np.ndarray:
    """Signed area of every triangle from its corner coordinates, (n_tri,)."""
    coords = _corner_coordinates(mesh)
    e1 = coords[:, 1] - coords[:, 0]
    e2 = coords[:, 2] - coords[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def basis_gradients(mesh: Mesh) -> np.ndarray:
    """Gradients of the three barycentric basis functions per triangle, (n_tri, 3, 2)."""
    coords = _corner_coordinates(mesh)
    x, y = coords[..., 0], coords[..., 1]
    two_a = 2.0 * cell_areas(mesh)
    grads = np.empty_like(coords)
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        grads[:, a, 0] = (y[:, b] - y[:, c]) / two_a
        grads[:, a, 1] = (x[:, c] - x[:, b]) / two_a
    return grads


def assemble_stiffness(mesh: Mesh):
    """P1 Galerkin matrix of the Laplacian on all nodes, summed cell by cell.

    Rows sum to zero (constants lie in the kernel); the restriction to
    interior nodes is the 5-point Laplacian that ``Mesh.stiffness`` applies
    from the grid.
    """
    grads = basis_gradients(mesh)
    local = np.einsum("tad,tbd->tab", grads, grads) * cell_areas(mesh)[:, None, None]
    triangles = fk_triangles(mesh.n)
    rows = np.repeat(triangles, 3, axis=1).ravel()
    cols = np.tile(triangles, (1, 3)).ravel()
    return _summed_csr_without_zeros(rows, cols, local.ravel(), (mesh.n_nodes, mesh.n_nodes))


def assemble_mass_p1(mesh: Mesh):
    """Consistent P1 mass matrix on all nodes (exact integration), summed cell by cell."""
    local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    data = (cell_areas(mesh)[:, None, None] * local).ravel()
    triangles = fk_triangles(mesh.n)
    rows = np.repeat(triangles, 3, axis=1).ravel()
    cols = np.tile(triangles, (1, 3)).ravel()
    return _summed_csr_without_zeros(rows, cols, data, (mesh.n_nodes, mesh.n_nodes))


def assemble_p0_p1_coupling(mesh: Mesh):
    """Map P0 coefficients to the P1 load vector: B[v, T] = integral of basis_v over T.

    Each triangle contributes area/3 to each of its vertices (exact for the
    linear basis).
    """
    rows = fk_triangles(mesh.n).ravel()
    cols = np.repeat(np.arange(mesh.n_cells), 3)
    data = np.repeat(cell_areas(mesh) / 3.0, 3)
    return sp.coo_matrix((data, (rows, cols)), shape=(mesh.n_nodes, mesh.n_cells)).tocsr()


def assemble_elasticity(mesh: Mesh):
    """Linear elasticity energy a[phi, psi] = int sym_grad(phi) : C sym_grad(psi) dx.

    C is the isotropic Lame tensor, C eps = 2 mu eps + lam tr(eps) I, summed
    cell by cell on all vector dofs (node-major: dof 2q and 2q+1 belong to
    node q), so rigid translations lie in its kernel.
    """
    mu, lam = SHEAR_MODULUS, LAME_LAMBDA
    grads = basis_gradients(mesh)
    dots = np.einsum("tad,tbd->tab", grads, grads)
    t1 = np.einsum("tab,ij->taibj", dots, np.eye(2))
    t2 = np.einsum("taj,tbi->taibj", grads, grads)
    t3 = np.einsum("tai,tbj->taibj", grads, grads)
    local = cell_areas(mesh)[:, None, None, None, None] * (mu * (t1 + t2) + lam * t3)

    dofs = (2 * fk_triangles(mesh.n)[:, :, None] + np.arange(2)).reshape(-1, 6)
    rows = np.repeat(dofs, 6, axis=1).ravel()
    cols = np.tile(dofs, (1, 6)).ravel()
    shape = (2 * mesh.n_nodes, 2 * mesh.n_nodes)
    return _summed_csr_without_zeros(rows, cols, local.ravel(), shape)


def assemble_divergence(mesh: Mesh):
    """P1 -> P0 divergence on the interior vector dofs, cells x (2 * n_interior).

    Cell T's row holds the basis gradients of its interior corners.
    """
    interior, triangles = fk_interior_nodes(mesh.n), fk_triangles(mesh.n)
    pos = np.full(mesh.n_nodes, -1, dtype=np.int64)
    pos[interior] = np.arange(interior.size)
    cells, corners = np.nonzero(pos[triangles] >= 0)
    rows = np.repeat(cells, 2)
    cols = (2 * pos[triangles[cells, corners]][:, None] + np.arange(2)).ravel()
    data = basis_gradients(mesh)[cells, corners].ravel()
    return _summed_csr_without_zeros(rows, cols, data, (mesh.n_cells, 2 * interior.size))


def assemble_cell_average(mesh: Mesh):
    """P1 -> P0 cell means, cells x all nodes: a third at each corner of the cell."""
    rows = np.repeat(np.arange(mesh.n_cells), 3)
    data = np.full(3 * mesh.n_cells, 1.0 / 3.0)
    return sp.csr_matrix((data, (rows, fk_triangles(mesh.n).ravel())),
                         shape=(mesh.n_cells, mesh.n_nodes))


def interior_stiffness(mesh: Mesh):
    """The per-cell stiffness on the interior nodes."""
    interior = fk_interior_nodes(mesh.n)
    return assemble_stiffness(mesh)[interior][:, interior].tocsr()


def interior_load(mesh: Mesh):
    """The per-cell P0-P1 coupling at the interior nodes, interior nodes x cells."""
    return assemble_p0_p1_coupling(mesh)[fk_interior_nodes(mesh.n)].tocsr()


def interior_elasticity(mesh: Mesh):
    """The per-cell elasticity on the interior vector dofs (node-major)."""
    interior = fk_interior_nodes(mesh.n)
    dofs = np.column_stack([2 * interior, 2 * interior + 1]).ravel()
    return assemble_elasticity(mesh)[np.ix_(dofs, dofs)].tocsr()


def symmetric_band_product(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for the symmetric A whose LAPACK lower band is ``band``: band[d, j] = A[j + d, j]."""
    out = band[0] * x
    for d in range(1, band.shape[0]):
        out[d:] += band[d, :-d] * x[:-d]
        out[:-d] += band[d, :-d] * x[d:]
    return out


def dense_master_base(mesh: Mesh, alpha: float) -> np.ndarray:
    """The master's plane-free base [[-M, K], [K, G G^T]] from the per-cell forms.

    G = B / sqrt(alpha |T|) with B the coupling at the interior nodes, so
    G G^T = B diag(1 / (alpha |T|)) B^T.
    """
    interior = fk_interior_nodes(mesh.n)
    m = assemble_mass_p1(mesh)[interior][:, interior].toarray()
    k = interior_stiffness(mesh).toarray()
    b = interior_load(mesh).toarray()
    gg = b @ (b.T / (alpha * cell_areas(mesh))[:, None])
    return np.block([[-m, k], [k, gg]])


def dense_gaussian_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting, written out longhand."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    for col in range(n):
        pivot = col + np.argmax(np.abs(a[col:, col]))
        if a[pivot, col] == 0.0:
            raise np.linalg.LinAlgError("singular matrix")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def interior_edge_cells_by_loop(triangles) -> np.ndarray:
    """(left, right) cells of each edge shared by two triangles, by first appearance."""
    seen: dict[tuple[int, int], list[int]] = {}
    for t, tri in enumerate(triangles):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            seen.setdefault((min(a, b), max(a, b)), []).append(t)
    return np.array([c for c in seen.values() if len(c) == 2], dtype=np.int64).reshape(-1, 2)


#: where psi's cubics meet: psi vanishes off [3/16, 5/16] and peaks at 1/4
PSI_KNOTS = (3.0 / 16.0, 0.25, 5.0 / 16.0)


def _branchwise(r, lower_cubic, upper_cubic):
    """The lower cubic on 3/16 <= r <= 1/4, the upper one on 1/4 < r <= 5/16, 0 elsewhere."""
    r = np.asarray(r, dtype=float)
    lower = (PSI_KNOTS[0] <= r) & (r <= PSI_KNOTS[1])
    upper = (PSI_KNOTS[1] < r) & (r <= PSI_KNOTS[2])
    out = np.zeros_like(r)
    out[lower], out[upper] = lower_cubic(r[lower]), upper_cubic(r[upper])
    return out[()]


def psi(r):
    """The certificate's radial C^1 bump: psi = 0 at 3/16 and 5/16, 1 at 1/4, |psi| <= 1."""
    return _branchwise(r, lambda r: ((-8192.0 * r + 5376.0) * r - 1152.0) * r + 81.0,
                       lambda r: ((8192.0 * r - 6912.0) * r + 1920.0) * r - 175.0)


def psi_prime(r):
    """The derivative of :func:`psi`, which vanishes at all three knots."""
    return _branchwise(r, lambda r: (-24576.0 * r + 10752.0) * r - 1152.0,
                       lambda r: (24576.0 * r - 13824.0) * r + 1920.0)


def exact_u_bar(x1, x2):
    """Optimal control: indicator of the centered disc, scaled by 1/perimeter."""
    inside = (x1 - BALL_CENTER[0]) ** 2 + (x2 - BALL_CENTER[1]) ** 2 < BALL_RADIUS**2
    return inside / BALL_PERIMETER


def exact_phi_bar(x1, x2):
    """Dual certificate -s psi(rho) e_rho, (..., 2); s = CERTIFICATE_SCALE, its sup-norm at rho = 1/4."""
    dx = np.asarray(x1, dtype=float) - BALL_CENTER[0]
    dy = np.asarray(x2, dtype=float) - BALL_CENTER[1]
    rho = np.hypot(dx, dy)
    scale = -CERTIFICATE_SCALE * psi(rho) / np.where(rho > 0.0, rho, 1.0)
    return np.stack([scale * dx, scale * dy], axis=-1)


def branchwise_div_phi_bar(x1, x2):
    """The certificate's divergence -s (psi' + psi / rho), each cubic on its own branch only."""
    rho = np.hypot(x1 - 0.5, x2 - 0.5)
    return -CERTIFICATE_SCALE * (psi_prime(rho) + psi(rho) / np.where(rho > 0.0, rho, 1.0))


def exact_f_integrand(x1, x2):
    """The exact instance's f at a point: -Laplace of its state minus the disc indicator."""
    return 0.8 * np.pi**2 * np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * x2) - exact_u_bar(x1, x2)


def generic_u_d_integrand(x1, x2):
    """The generic instance's u_d at a point: the product of its factors in x1 and in x2."""
    return generic_u_d_x(x1) * generic_u_d_y(x2)


def midpoint_points(mesh, subdivision_depth: int = 4) -> np.ndarray:
    """The midpoint rule's points on 4^depth subtriangles of every cell at once, (cells, 4^depth, 2)."""
    bary = _subtriangle_centroids(subdivision_depth)
    return np.einsum("qc,tcd->tqd", bary, _corner_coordinates(mesh))


def project_p0_by_einsum(f, mesh, subdivision_depth: int = 4) -> np.ndarray:
    """Midpoint-rule cell averages of f on the points of :func:`midpoint_points`."""
    pts = midpoint_points(mesh, subdivision_depth)
    vals = np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float)
    vals = np.broadcast_to(vals, pts.shape[:2])
    return vals.mean(axis=1)


def projected_ascent_tv(u, eps: float, mesh: Mesh, iterations: int = 100_000) -> float:
    """Maximize the regularized dual objective by projected gradient ascent.

    Step size 1/L with L the operator norm of eps*A; the feasible set is the
    product of nodal unit balls. Returns the value at the iterate after
    ``iterations`` steps. Once an iterate equals one of the two before it
    bitwise, the iteration only repeats a fixed point or a 2-cycle, so it
    stops there with the iterate of the cycle that the last step reaches.
    """
    a = interior_elasticity(mesh).toarray()
    b = assemble_divergence(mesh).T @ (cell_areas(mesh) * u)
    step = 1.0 / (eps * np.linalg.eigvalsh(a).max())
    x, before = np.zeros(b.size), None
    for k in range(1, iterations + 1):
        pts = (x + step * (b - eps * (a @ x))).reshape(-1, 2)
        norms = np.linalg.norm(pts, axis=1)
        pts /= np.maximum(norms, 1.0)[:, None]
        if np.array_equal(pts.ravel(), x):
            break
        if before is not None and np.array_equal(pts.ravel(), before):
            # the iterates alternate from here: step k, k + 2, ... land on pts
            x = pts.ravel() if (iterations - k) % 2 == 0 else x
            break
        before, x = x, pts.ravel()
    return float(-0.5 * eps * (x @ a @ x) + b @ x)


def dense_newton_step(a_mat, b, eps, x, lam, active):
    """The TV oracle's Newton step from the full saddle system, solved densely.

    Active circles are linearized at the radially projected point p; the
    operator uses the nonnegative part of the multipliers:

        [[eps*A + 2 diag(lam+), C], [C^T, 0]] [x; mu] = [b + 2 diag(lam+) p; 1 + |p|^2],

    with one column 2 p_i per active node i. Returns (x, multipliers), the
    multipliers zero off the active set.
    """
    n = b.size
    idx = np.flatnonzero(active)
    p = np.array(x, dtype=float).reshape(-1, 2)
    p[idx] /= np.maximum(np.linalg.norm(p[idx], axis=1), 1.0)[:, None]
    lam_dof = np.repeat(np.maximum(lam, 0.0), 2)
    h = eps * a_mat.toarray() + np.diag(2.0 * lam_dof)
    c = np.zeros((n, idx.size))
    for col, i in enumerate(idx):
        c[2 * i : 2 * i + 2, col] = 2.0 * p[i]
    saddle = np.block([[h, c], [c.T, np.zeros((idx.size, idx.size))]])
    rhs = np.concatenate([b + 2.0 * lam_dof * p.ravel(), 1.0 + np.sum(p[idx] ** 2, axis=1)])
    sol = np.linalg.solve(saddle, rhs)
    multipliers = np.zeros(len(active))
    multipliers[idx] = sol[n:]
    return sol[:n], multipliers


def dense_reduced_newton_band(a_mat, eps, x, lam, active) -> np.ndarray:
    """Lower band of the Newton step's reduced matrix Z^T H Z, from dense products.

    H = eps*A + 2 diag(lam+); Z keeps both dofs of an inactive node and the
    unit tangent (-p_2, p_1) / |p| of each active node's point p. The band
    is as wide as the farthest nonzero entry: band[d, j] = M[j + d, j].
    """
    n = x.size
    points = np.asarray(x, dtype=float).reshape(-1, 2)
    columns = []
    for node, is_active in enumerate(active):
        if is_active:
            p = points[node] / np.linalg.norm(points[node])
            column = np.zeros(n)
            column[2 * node : 2 * node + 2] = (-p[1], p[0])
            columns.append(column)
        else:
            columns.extend(np.eye(n)[2 * node : 2 * node + 2])
    z = np.array(columns).T
    h = eps * a_mat.toarray() + np.diag(np.repeat(2.0 * np.maximum(lam, 0.0), 2))
    m = z.T @ h @ z
    rows, cols = np.nonzero(np.tril(m))
    width = int((rows - cols).max(initial=0))
    band = np.zeros((width + 1, m.shape[0]))
    for d in range(width + 1):
        band[d, : m.shape[0] - d] = np.diagonal(m, -d)
    return band


def dense_master_qp(instance, mesh: Mesh, planes, eps: float):
    """Reduced dense QP data for the relaxed control problem.

    Returns (hessian, gradient_const, constraint_matrix, constraint_rhs)
    for min 0.5 u'Hu + g'u + const  s.t.  Gu <= h over P0 coefficients.
    """
    k_dense = interior_stiffness(mesh).toarray()
    b_in = interior_load(mesh).toarray()
    m_full = assemble_mass_p1(mesh).toarray()
    areas = cell_areas(mesh)
    alpha = instance.alpha
    u_d = instance.u_d
    f = instance.f
    y_d = instance.y_d

    # y_full = E K^{-1} B (u + f); embed interior rows into the full node set
    t = np.linalg.solve(k_dense, b_in) if k_dense.size else np.zeros((0, mesh.n_cells))
    e = np.zeros((mesh.n_nodes, mesh.n_interior))
    e[fk_interior_nodes(mesh.n), np.arange(mesh.n_interior)] = 1.0
    s = e @ t

    hessian = s.T @ m_full @ s + alpha * np.diag(areas)
    grad_const = s.T @ m_full @ (s @ f - y_d) - alpha * areas * u_d

    g_rows = np.array([areas * p.div_phi for p in planes]).reshape(len(planes), mesh.n_cells)
    h = np.array([1.0 + 0.5 * eps * p.energy for p in planes])
    return hessian, grad_const, g_rows, h


def dense_qp_active_set_enumeration(hessian, grad, g_rows, h, tol: float = 1e-10):
    """Solve min 0.5 u'Hu + g'u s.t. Gu <= h by enumerating active subsets.

    Exponential in the number of constraints; intended for a handful of
    cutting planes on tiny meshes.
    """
    m = g_rows.shape[0] if g_rows.size else 0
    best = None
    for size in range(m + 1):
        for subset in combinations(range(m), size):
            idx = list(subset)
            ga = g_rows[idx]
            kkt = np.block(
                [
                    [hessian, ga.T],
                    [ga, np.zeros((size, size))],
                ]
            )
            rhs = np.concatenate([-grad, h[idx]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            u, mu = sol[: hessian.shape[0]], sol[hessian.shape[0] :]
            if np.any(mu < -tol):
                continue
            if m and np.any(g_rows @ u - h > tol):
                continue
            value = 0.5 * u @ hessian @ u + grad @ u
            if best is None or value < best[0] - tol:
                best = (value, u, np.array(idx, dtype=int), mu)
    if best is None:
        raise RuntimeError("no feasible active set found")
    return best


def regularized_optimum(instance, mesh: Mesh, eps: float):
    """J*_eps = min J(u) over (u, lam >= 0) s.t. sum(lam) + (1/2) b^T H^-1 b <= 1, by SLSQP.

    b = b(u) = D^T (area u) and H = eps A + 2 diag(lam) on the interior
    vector dofs. By Lagrangian duality the constraint's left side, minimized
    over lam >= 0, is tv_eps(u), and (b, lam) -> b^T H^-1 b is jointly
    convex, so this is one smooth convex program with closed-form gradients:
    with z = H^-1 b, the left side's gradient is area * (D z) in u and
    1 - |z_i|^2 in lam_i. J is the dense reduced QP of
    :func:`dense_master_qp` plus J(0). Starts from u = 0, lam = 0. Returns
    SciPy's result, the constraint violation max(0, lhs - 1) and J there.
    """
    hessian, grad, _, _ = dense_master_qp(instance, mesh, [], eps)
    j0 = reduced_objective(np.zeros(mesh.n_cells), instance, mesh)
    a = interior_elasticity(mesh).toarray()
    load = assemble_divergence(mesh).T.toarray() * cell_areas(mesh)
    cells = mesh.n_cells

    def objective(v):
        u = v[:cells]
        return 0.5 * u @ hessian @ u + grad @ u + j0

    def objective_gradient(v):
        return np.concatenate([hessian @ v[:cells] + grad, np.zeros(v.size - cells)])

    def dual(v):
        b, lam = load @ v[:cells], v[cells:]
        return b, np.linalg.solve(eps * a + np.diag(np.repeat(2.0 * lam, 2)), b), lam

    def slack(v):
        b, z, lam = dual(v)
        return 1.0 - lam.sum() - 0.5 * b @ z

    def slack_gradient(v):
        _, z, _ = dual(v)
        return np.concatenate([-load.T @ z, np.sum(z.reshape(-1, 2) ** 2, axis=1) - 1.0])

    start = np.zeros(cells + mesh.n_interior)
    bounds = [(None, None)] * cells + [(0.0, None)] * mesh.n_interior
    result = minimize(objective, start, jac=objective_gradient, method="SLSQP", bounds=bounds,
                      constraints=[{"type": "ineq", "fun": slack, "jac": slack_gradient}],
                      options={"ftol": 1e-12, "maxiter": 1000})
    return result, max(0.0, -slack(result.x)), objective(result.x)


def plane_slack(plane, u, eps: float, mesh) -> float:
    """1 + (eps/2) energy - int u div_phi dx; nonnegative iff u is feasible."""
    lhs = float(np.sum(cell_areas(mesh) * u * plane.div_phi))
    return 1.0 + 0.5 * eps * plane.energy - lhs


def dual_objective(u, phi, eps: float, mesh: Mesh) -> float:
    """The regularized dual objective -(eps/2) a[phi, phi] + int u div(phi) dx, phi's interior dofs."""
    x = np.asarray(phi)
    return -0.5 * eps * float(x @ mesh.elasticity(x)) + float(mesh.dual_load(u) @ x)


def solve_state(u, instance, mesh: Mesh) -> np.ndarray:
    rhs = interior_load(mesh) @ (u + instance.f)
    return mesh.on_all_nodes(solve_sparse_spd(interior_stiffness(mesh), rhs))


def reduced_objective(u, instance, mesh: Mesh) -> float:
    """J(u) via a state solve: tracking term plus control penalty."""
    y = solve_state(u, instance, mesh)
    du = u - instance.u_d
    diff = y - instance.y_d
    tracking = 0.5 * float(diff @ (assemble_mass_p1(mesh) @ diff))
    return tracking + 0.5 * instance.alpha * float(np.sum(cell_areas(mesh) * du * du))


def reduced_gradient(u, instance, mesh: Mesh) -> np.ndarray:
    """Gradient density alpha (u - u_d) + p of the reduced objective (two Poisson solves)."""
    y = solve_state(u, instance, mesh)
    adjoint_rhs = (assemble_mass_p1(mesh)[fk_interior_nodes(mesh.n)]
                   @ (y - instance.y_d))
    p = mesh.on_all_nodes(solve_sparse_spd(interior_stiffness(mesh), adjoint_rhs))
    p_bar = assemble_cell_average(mesh) @ p
    return instance.alpha * (u - instance.u_d) + p_bar


def read_field_dump(path) -> np.ndarray:
    """The cell values of a ``--dump-fields`` file, asserting its ``p0 <ncells>`` header."""
    head, *lines = Path(path).read_text().splitlines()
    assert head == f"p0 {len(lines)}", head
    return np.array([float(line) for line in lines])
