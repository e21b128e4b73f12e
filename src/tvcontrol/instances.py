"""The two built-in problem instances on the unit square.

The first instance carries an analytically known optimal control: the
normalized indicator of the disc of radius 1/4 about the center, whose
total variation equals exactly 1. State, adjoint, dual certificate and the
matching data f, y_d, u_d are constructed so that the full optimality
system holds in closed form. The second instance uses generic smooth data
scaled so that the desired control has total variation 2 while the
constraint only admits 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh_fem import Mesh, _integer, _quadrature_blocks, interpolate_p1

BALL_RADIUS = 0.25
BALL_CENTER = (0.5, 0.5)
BALL_PERIMETER = 2.0 * np.pi * BALL_RADIUS

#: sup-norm s of the exact instance's dual certificate, attained on the interface
CERTIFICATE_SCALE = 0.01

#: psi and psi' vanish outside this annulus 3/16 <= rho <= 5/16 about BALL_CENTER
PSI_SUPPORT = (3.0 / 16.0, 5.0 / 16.0)

#: -Laplace exact_state = LAPLACE_FACTOR sin(2 pi x1) sin(2 pi x2)
LAPLACE_FACTOR = 0.8 * np.pi**2


@dataclass
class ProblemInstance:
    """Data of one tracking-type control problem, as float arrays in the ``Mesh`` numbering.

    f, u_d and reference_u hold one value per cell, y_d one per node; a
    field of any other shape raises ValueError naming it.
    """

    mesh: Mesh
    alpha: float
    f: np.ndarray
    u_d: np.ndarray
    y_d: np.ndarray
    reference_u: np.ndarray | None
    subdivision_depth: int  # quadrature depth of the P0 projections

    def __post_init__(self):
        self.f, self.u_d, self.y_d = (np.asarray(v, float) for v in (self.f, self.u_d, self.y_d))
        if self.reference_u is not None:
            self.reference_u = np.asarray(self.reference_u, float)
        cells, nodes = self.mesh.n_cells, self.mesh.n_nodes
        for name, size, kind in (("f", cells, "cell"), ("u_d", cells, "cell"), ("y_d", nodes, "node"),
                                 ("reference_u", cells, "cell")):
            values = getattr(self, name)
            if values is not None and values.shape != (size,):
                raise ValueError(f"{name} has shape {values.shape}, expected ({size},): "
                                 f"one value per mesh {kind}")
        if not 0.0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        self.subdivision_depth = _integer(self.subdivision_depth, "subdivision_depth",
                                          "the quadrature depth")


#: psi's cubics on 3/16 <= rho <= 1/4 and on 1/4 < rho <= 5/16, highest power first,
#: and their derivatives
PSI_CUBICS = ((-8192.0, 5376.0, -1152.0, 81.0), (8192.0, -6912.0, 1920.0, -175.0))
PSI_SLOPES = tuple((3.0 * a, 2.0 * b, c) for a, b, c, _ in PSI_CUBICS)


def _horner(coefficients, r, out, where=True):
    """The polynomial with these coefficients, highest power first, at r, into out where ``where``."""
    np.multiply(coefficients[0], r, out=out, where=where)
    for c in coefficients[1:-1]:
        np.add(out, c, out=out, where=where)
        np.multiply(out, r, out=out, where=where)
    np.add(out, coefficients[-1], out=out, where=where)


def _psi_and_prime(r, value, slope):
    """psi and psi' at the radii r, written into value and slope, arrays like r.

    psi is the certificate's radial C^1 bump on (0, 1/2), two cubics glued
    at 3/16, 1/4 and 5/16: psi(3/16) = psi(5/16) = 0, psi(1/4) = 1,
    |psi| <= 1, and psi' vanishes at all three knots. Each is the lower
    cubic by Horner's rule on every point, overwritten by the upper one
    where r > 1/4 and by 0 off PSI_SUPPORT: bitwise the formulas evaluated
    branch by branch.
    """
    upper = r > 0.25
    off = ~((r >= PSI_SUPPORT[0]) & (r <= PSI_SUPPORT[1]))
    for out, (lower_cubic, upper_cubic) in ((value, PSI_CUBICS), (slope, PSI_SLOPES)):
        _horner(lower_cubic, r, out)
        _horner(upper_cubic, r, out, where=upper)
        np.copyto(out, 0.0, where=off)
    return value, slope


def exact_state(x1, x2):
    """Optimal state (equals the adjoint): 0.1 sin(2 pi x1) sin(2 pi x2)."""
    return 0.1 * np.sin(2.0 * np.pi * x1) * np.sin(2.0 * np.pi * x2)


def exact_div_phi_bar(x1, x2, out=None):
    """Divergence -s (psi'(rho) + psi(rho)/rho) of the certificate -s psi(rho) e_rho, s = CERTIFICATE_SCALE.

    x1 and x2 broadcast against each other. With ``out``, a float array of
    their broadcast shape, the result is written there and ``out`` returned,
    bitwise the result without it; then the call allocates two more such
    arrays (rho and psi) and the branch masks.
    """
    x1, x2 = np.broadcast_arrays(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
    result = np.empty(x1.shape) if out is None else out
    rho, value = np.empty(x1.shape), np.empty(x1.shape)
    np.hypot(np.subtract(x1, BALL_CENTER[0], out=value), np.subtract(x2, BALL_CENTER[1], out=result), out=rho)
    _psi_and_prime(rho, value, result)
    np.divide(value, rho, out=value, where=rho > 0.0)  # psi = 0 at rho = 0, and 0 / 1 = 0
    np.multiply(-CERTIFICATE_SCALE, np.add(result, value, out=result), out=result)
    return result if out is not None else result[()]


def _exact_projections(mesh: Mesh, subdivision_depth: int):
    """Cell averages of u_bar, f and div phi_bar in one walk over the quadrature blocks.

    Bitwise the midpoint rule of ``tests/oracles.py`` (``project_p0_by_einsum``)
    on the disc indicator u_bar = 1/perimeter inside rho < 1/4, on
    f = -Laplace exact_state - u_bar = LAPLACE_FACTOR sin(2 pi x1) sin(2 pi x2) - u_bar
    and on :func:`exact_div_phi_bar`. The terms in one coordinate are built
    once for the whole grid. Bounds on each cell's rho sort the cells into
    those wholly inside the disc, wholly outside it and cut by its circle:
    u_bar is the mean of 4^depth values 1/perimeter or 0 on the first two
    kinds and the indicator is evaluated point by point on cut cells only,
    and f subtracts u_bar's point values on inside and cut cells only
    (x - 0.0 is x). The divergence is evaluated, in place, only on the
    cells that may meet PSI_SUPPORT, one call per block; every other cell
    takes the mean of 4^depth values -0.0, which is +0.0. Each block is
    written into buffers allocated once per call.
    """
    n = mesh.n
    x, y, blocks = _quadrature_blocks(mesh, subdivision_depth)
    q = x.shape[-1]
    dx, dy = x - BALL_CENTER[0], y - BALL_CENTER[1]
    dx2, dy2 = dx**2, dy**2
    sin_x, sin_y = LAPLACE_FACTOR * np.sin(2 * np.pi * x), np.sin(2 * np.pi * y)
    # rho of a cell's points lies between the hypot of the least and of the
    # greatest |dx| and |dy| over them; the margin keeps a cell whose bound
    # rounds by an ulp the other way from a point's rho
    near = np.hypot(np.abs(dy).min(axis=-1)[:, None], np.abs(dx).min(axis=-1)[None])
    far = np.hypot(np.abs(dy).max(axis=-1)[:, None], np.abs(dx).max(axis=-1)[None])
    annulus = (far >= PSI_SUPPORT[0] - 1e-12) & (near <= PSI_SUPPORT[1] + 1e-12)
    inside = far < BALL_RADIUS - 1e-12
    cut = ~inside & (near <= BALL_RADIUS + 1e-12)

    # the cell means of constant point values, summed as the midpoint rule sums them
    u_bar = np.where(inside, np.full(q, 1.0 / BALL_PERIMETER).mean(), 0.0)
    div_phi = np.full((n, n, 2), np.full(q, -0.0).mean())
    f = np.empty((n, n, 2))
    rows, cols = blocks[0]
    size = (rows.stop - rows.start) * (cols.stop - cols.start) * 2 * q
    f_buf, x_buf, y_buf, div_buf = np.empty(size), np.empty(size), np.empty(size), np.empty(size)
    x_cells, y_cells = x.reshape(-1, q), y.reshape(-1, q)  # row 2k + t: triangle t of column or row k
    for rows, cols in blocks:
        shape = (rows.stop - rows.start, cols.stop - cols.start, 2, q)
        f_pts = f_buf[: math.prod(shape)].reshape(shape)
        np.multiply(sin_x[None, cols], sin_y[rows, None], out=f_pts)
        np.subtract(f_pts, 1.0 / BALL_PERIMETER, out=f_pts, where=inside[rows, cols, :, None])
        j, i, t = np.nonzero(cut[rows, cols])
        if j.size:
            u_pts = (dx2[cols.start + i, t] + dy2[rows.start + j, t] < BALL_RADIUS**2) / BALL_PERIMETER
            f_pts[j, i, t] -= u_pts
            u_bar[rows, cols][j, i, t] = u_pts.mean(axis=-1)
        f[rows, cols] = f_pts.mean(axis=-1)
        j, i, t = np.nonzero(annulus[rows, cols])
        if j.size:  # the gathered points; mode="clip" lets np.take write out unbuffered
            x_pts, y_pts, div_pts = (buf[: j.size * q].reshape(j.size, q) for buf in (x_buf, y_buf, div_buf))
            np.take(x_cells, 2 * (cols.start + i) + t, axis=0, out=x_pts, mode="clip")
            np.take(y_cells, 2 * (rows.start + j) + t, axis=0, out=y_pts, mode="clip")
            div_phi[rows, cols][j, i, t] = exact_div_phi_bar(x_pts, y_pts, out=div_pts).mean(axis=-1)
    return u_bar.ravel(), f.ravel(), div_phi.ravel()


def build_exact_instance(
    mesh: Mesh, alpha: float = 1.0, subdivision_depth: int = 4
) -> ProblemInstance:
    """Instance whose exact optimal control is the normalized disc indicator.

    The desired control is assembled from the already-projected pieces
    (cell-averaged adjoint, projected indicator and certificate divergence),
    so the discrete gradient equation holds to rounding.
    """
    u_bar, f, div_phi = _exact_projections(mesh, subdivision_depth)
    p_bar = interpolate_p1(exact_state, mesh, dirichlet=True)
    y_d = interpolate_p1(
        lambda x1, x2: (0.1 - LAPLACE_FACTOR) * np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * x2),
        mesh,
    )
    p_bar_cells = mesh.corners(p_bar).mean(axis=1)

    return ProblemInstance(
        mesh=mesh,
        alpha=alpha,
        f=f,
        u_d=u_bar + (p_bar_cells - div_phi) / alpha,
        y_d=y_d,
        reference_u=u_bar,
        subdivision_depth=subdivision_depth,
    )


#: Total variation of 2 pi^2 sin(pi x1) cos(pi x2), i.e. the integral of the
#: Euclidean gradient norm over the unit square, by adaptive quadrature
#: (recomputed by the test suite).
REFERENCE_PROFILE_TV = 42.01182591224323

#: c of the generic instance, which scales its profile to TV(u_d) = 2
GENERIC_SCALE = 2.0 / REFERENCE_PROFILE_TV


def generic_u_d_x(x1):
    """The generic u_d's factor in x1, c 2 pi^2 sin(pi x1), with c = GENERIC_SCALE."""
    return 2.0 * GENERIC_SCALE * np.pi**2 * np.sin(np.pi * x1)


def generic_u_d_y(x2):
    """The generic u_d's factor in x2, cos(pi x2): u_d is it times :func:`generic_u_d_x`."""
    return np.cos(np.pi * x2)


def build_generic_instance(
    mesh: Mesh, alpha: float = 1.0, subdivision_depth: int = 4
) -> ProblemInstance:
    """Instance with smooth data and no known optimal control.

    u_d = c * 2 pi^2 sin(pi x1) cos(pi x2) with c = GENERIC_SCALE chosen so
    that TV(u_d) = 2; y_d = c sin(pi x1) cos(pi x2) solves
    -Laplace y_d = u_d and is plain data (it does not vanish on the whole
    boundary), f = 0. u_d is the midpoint rule's cell averages, bitwise
    those of ``tests/oracles.py`` (``project_p0_by_einsum``) on the product
    of :func:`generic_u_d_x` and :func:`generic_u_d_y`: each factor is
    evaluated once on the quadrature points of its grid columns or rows,
    and each block of cells takes the mean of their products.
    """
    x, y, blocks = _quadrature_blocks(mesh, subdivision_depth)
    sin_x, cos_y = generic_u_d_x(x), generic_u_d_y(y)
    u_d = np.empty((mesh.n, mesh.n, 2))
    for rows, cols in blocks:
        u_d[rows, cols] = (sin_x[None, cols] * cos_y[rows, None]).mean(axis=-1)
    y_d = interpolate_p1(
        lambda x1, x2: GENERIC_SCALE * np.sin(np.pi * x1) * np.cos(np.pi * x2), mesh
    )
    return ProblemInstance(
        mesh=mesh,
        alpha=alpha,
        f=np.zeros(mesh.n_cells),
        u_d=u_d.ravel(),
        y_d=y_d,
        reference_u=None,
        subdivision_depth=subdivision_depth,
    )
