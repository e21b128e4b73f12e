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

from dataclasses import dataclass

import numpy as np

from .mesh_fem import Mesh, _depth, _positive_alpha, _quadrature_points, interpolate_p1

BALL_RADIUS = 0.25
BALL_CENTER = (0.5, 0.5)
BALL_PERIMETER = 2.0 * np.pi * BALL_RADIUS

#: sup-norm s of the exact instance's dual certificate, attained on the interface
CERTIFICATE_SCALE = 0.01

#: psi and psi' vanish outside this annulus 3/16 <= rho <= 5/16 about BALL_CENTER
PSI_SUPPORT = (3.0 / 16.0, 5.0 / 16.0)

#: -Laplace exact_state = LAPLACE_FACTOR sin(2 pi x1) sin(2 pi x2)
LAPLACE_FACTOR = 0.8 * np.pi**2

#: Most quadrature points the exact projections gather and evaluate at once,
#: unless one cell alone holds more
P0_CHUNK_POINTS = 2**14


@dataclass
class ProblemInstance:
    """Data of one tracking-type control problem, as float arrays in the ``Mesh`` numbering.

    f, u_d and reference_u hold one value per cell, y_d one per node; a
    field of any other shape raises ValueError naming it, as do an alpha
    that is not positive and finite and a negative subdivision_depth.
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
        self.alpha = _positive_alpha(self.alpha)
        self.subdivision_depth = _depth(self.subdivision_depth)


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


def exact_div_phi_bar(x1, x2):
    """Divergence -s (psi'(rho) + psi(rho)/rho) of the certificate -s psi(rho) e_rho, s = CERTIFICATE_SCALE.

    x1 and x2 broadcast against each other; the result has their broadcast
    shape, a NumPy float for two scalars. It is evaluated in place in three
    arrays of that shape (the result, rho and psi) and the branch masks.
    """
    x1, x2 = np.broadcast_arrays(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
    result, rho, value = np.empty(x1.shape), np.empty(x1.shape), np.empty(x1.shape)
    np.hypot(np.subtract(x1, BALL_CENTER[0], out=value), np.subtract(x2, BALL_CENTER[1], out=result), out=rho)
    _psi_and_prime(rho, value, result)
    np.divide(value, rho, out=value, where=rho > 0.0)  # psi = 0 at rho = 0, and 0 / 1 = 0
    np.multiply(-CERTIFICATE_SCALE, np.add(result, value, out=result), out=result)
    return result[()]


def _separable_means(f_x, g_y):
    """Midpoint-rule cell means of f(x) g(y), (n, n, 2), from tables like ``_quadrature_points``' x and y.

    One contraction per triangle kind, by einsum's own loops and no BLAS, so
    the bytes depend on neither the BLAS library nor its threads.
    """
    return np.einsum("jtq,itq->jit", g_y, f_x) / f_x.shape[-1]


def _exact_projections(mesh: Mesh, subdivision_depth: int):
    """Cell averages of u_bar, f and div phi_bar: the midpoint rule of ``tests/oracles.py``.

    That rule (``project_p0_by_einsum``) on the disc indicator u_bar =
    1/perimeter inside rho < 1/4 and on :func:`exact_div_phi_bar` bitwise, and to
    rounding on f = -Laplace exact_state - u_bar, :func:`_separable_means` of
    LAPLACE_FACTOR sin(2 pi x1) sin(2 pi x2) less u_bar. Bounds on each cell's
    rho pick the cells that may meet PSI_SUPPORT, which hold every cell cut by
    the disc's circle (1/4 lies in the support). One walk over them, in
    row-major order and in chunks of at most P0_CHUNK_POINTS points (one
    cell if it holds more), gathers their points from the tables of
    :func:`_quadrature_points` and evaluates both the indicator and the
    divergence there. Every other cell lies wholly inside the disc or wholly
    outside it: u_bar is the mean of 4^depth values 1/perimeter or 0, and the
    divergence the mean of 4^depth values -0.0, which is +0.0.
    """
    x, y = _quadrature_points(mesh, subdivision_depth)
    q = x.shape[-1]
    smooth = _separable_means(LAPLACE_FACTOR * np.sin(2 * np.pi * x), np.sin(2 * np.pi * y))
    # rho of a cell's points lies between the hypot of the least and of the
    # greatest |x - 1/2| and |y - 1/2| over them; the margin keeps a cell
    # whose bound rounds by an ulp the other way from a point's rho
    near = np.hypot(np.abs(y - BALL_CENTER[1]).min(axis=-1)[:, None],
                    np.abs(x - BALL_CENTER[0]).min(axis=-1)[None])
    far = np.hypot(np.abs(y - BALL_CENTER[1]).max(axis=-1)[:, None],
                   np.abs(x - BALL_CENTER[0]).max(axis=-1)[None])
    annulus = (far >= PSI_SUPPORT[0] - 1e-12) & (near <= PSI_SUPPORT[1] + 1e-12)

    # the cell means of constant point values, summed as the midpoint rule sums them
    u_bar = np.where(far < BALL_RADIUS - 1e-12, np.full(q, 1.0 / BALL_PERIMETER).mean(), 0.0)
    div_phi = np.full(annulus.shape, np.full(q, -0.0).mean())
    cells, chunk = np.nonzero(annulus), max(1, P0_CHUNK_POINTS // q)
    for start in range(0, cells[0].size, chunk):
        j, i, t = (k[start:start + chunk] for k in cells)
        x_pts, y_pts = x[i, t], y[j, t]
        inner = (x_pts - BALL_CENTER[0]) ** 2 + (y_pts - BALL_CENTER[1]) ** 2 < BALL_RADIUS**2
        u_bar[j, i, t] = (inner / BALL_PERIMETER).mean(axis=-1)
        div_phi[j, i, t] = exact_div_phi_bar(x_pts, y_pts).mean(axis=-1)
    return u_bar.ravel(), (smooth - u_bar).ravel(), div_phi.ravel()


def build_exact_instance(
    mesh: Mesh, alpha: float = 1.0, subdivision_depth: int = 4
) -> ProblemInstance:
    """Instance whose exact optimal control is the normalized disc indicator.

    The desired control is assembled from the already-projected pieces
    (cell-averaged adjoint, projected indicator and certificate divergence),
    so the discrete gradient equation holds to rounding.
    """
    alpha = _positive_alpha(alpha)  # checked before u_d divides by it
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
    boundary), f = 0. u_d is the midpoint rule's cell averages, to rounding
    those of ``tests/oracles.py`` (``project_p0_by_einsum``) on the product
    of :func:`generic_u_d_x` and :func:`generic_u_d_y`: each factor is
    evaluated once on the quadrature points of its grid columns or rows,
    and :func:`_separable_means` contracts them.
    """
    x, y = _quadrature_points(mesh, subdivision_depth)
    u_d = _separable_means(generic_u_d_x(x), generic_u_d_y(y))
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
