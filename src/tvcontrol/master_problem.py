"""Relaxed optimal control problems with finitely many cutting planes.

The k-th relaxation minimizes

    (alpha/2) ||u - u_d||^2 + (1/2) ||y - y_d||^2
    s.t.  -Laplace y = u + f,
          int u div(phi_i) dx <= 1 + (eps/2) a[phi_i, phi_i],  i = 1..k,

over P0 controls and P1 states. The control is eliminated analytically from
the gradient equation p + alpha (u - u_d) + sum_i mu_i div(phi_i) = 0, which
leaves a symmetric KKT system in (y, p) bordered by one column per plane.
Its plane-free base [[-M, K], [K, G G^T]] is never stored: M, K and G are
the mesh's stencils, and the base is solved by conjugate gradients on the
control's reduced Hessian I + G^T K^-1 M K^-1 G (alpha I plus a compact
smoothing term, up to scale), in a number of steps that does not grow with
the mesh; each step makes two Poisson solves, ``Mesh.stiffness_solve``,
exact in the 5-point Laplacian's sine eigenbasis, with no band or factor.
The operator owns the planes: ``add_plane`` makes each from the oracle's
field and energy, drops it when its divergence repeats a stored one, and
otherwise solves the base for its border column, once, and grows the k x k
Schur complement of the planes by the plane's row and column. With the data's
solve, made once per instance, a solve touches k x k data and the active planes
only: the primal-dual active set reads the planes' slack off the Schur complement
until the active set repeats, then one walk over the active planes forms the
state, the adjoint, the control and the bordered system's residual. The
eps-dependent bounds enter only the plane bounds, so shrinking eps tightens
every stored plane without a new base solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh_fem import l2_error_p0
from .sparse_linalg import InnerSolverError

#: a master solve whose active set has not repeated after this many iterations fails
MAX_ACTIVE_SET_ITERATIONS = 100

#: a plane whose divergence is this close in L2 to a stored one is dropped
DUPLICATE_TOL = 1e-12

#: a base solve's CG stops once its residual is this fraction of the initial one
CG_TOL = 1e-16

#: a base solve whose CG has not converged after this many steps fails
MAX_CG_STEPS = 500


class SingularBorderError(InnerSolverError):
    """The master's ``InnerSolverError``: it cannot solve its KKT system accurately, for a
    singular Schur block (e.g. duplicated cutting planes), a bordered residual too large, a
    base solve at MAX_CG_STEPS, or an active set that has not repeated after
    MAX_ACTIVE_SET_ITERATIONS."""


@dataclass
class CuttingPlane:
    """One cut int u div_phi dx <= 1 + (eps/2) energy, with eps supplied at solve time.

    ``div_phi`` holds one value per cell and ``base_solve`` is base^{-1} of the
    plane's column of the bordered KKT system, ``MasterOperator._border``.
    """

    div_phi: np.ndarray
    energy: float
    base_solve: np.ndarray


@dataclass
class MasterSolution:
    """The relaxation's minimizer: control u on the cells, state y and adjoint p on all nodes."""

    u: np.ndarray
    y: np.ndarray
    p: np.ndarray
    mu: np.ndarray                # one multiplier per plane, >= 0
    active_planes: np.ndarray     # indices into the plane list
    objective: float
    inner_iterations: int


class MasterOperator:
    """The plane-free blocks and the planes added so far."""

    def __init__(self, instance):
        self.mesh = mesh = instance.mesh
        self.alpha = instance.alpha
        # G = B / sqrt(alpha |T|), and B^T is |T| times the cell average
        area = mesh.cell_area
        scale = 1.0 / np.sqrt(self.alpha * area)
        self._g = lambda w: scale * mesh.load_interior(w)
        self._gt = lambda q: scale * area * mesh.cell_average(mesh.on_all_nodes(q))
        self._poisson = mesh.stiffness_solve

        self._u_d = instance.u_d
        self._y_d = instance.y_d
        self.rhs0 = np.concatenate([-mesh.mass_interior(self._y_d),
                                    mesh.load_interior(self._u_d + instance.f)])
        self._x0 = self._base_solve(self.rhs0)
        self.planes: list[CuttingPlane] = []
        # made in add_plane, a row per plane: the Schur complement and the shares of u_d and x0
        self._schur, self._u_d_share, self._x0_share = np.zeros((0, 0)), np.zeros(0), np.zeros(0)

    def add_plane(self, phi: np.ndarray, energy: float) -> bool:
        """Store the cut of the oracle's field, its interior dofs ``phi``, with energy a[phi, phi].

        Returns False, storing nothing, when the divergence is within
        DUPLICATE_TOL in L2 of a stored plane's; otherwise the plane is
        appended, its border column is solved with the base, once, and the
        Schur complement gains the plane's row and column.
        """
        mesh = self.mesh
        div_phi = mesh.divergence(phi)
        if any(l2_error_p0(mesh, div_phi, p.div_phi) < DUPLICATE_TOL for p in self.planes):
            return False
        border = self._border(div_phi)
        xc = self._base_solve(border)
        self.planes.append(CuttingPlane(div_phi, energy, xc))
        # the block's row less border_j.xc, both read off div_j (see _div_products)
        xc_average = mesh.cell_average(mesh.on_all_nodes(xc[mesh.n_interior:]))
        row = self._div_products(self.planes, div_phi - xc_average)
        self._schur = np.block([[self._schur, row[:-1, None]], [row]])
        self._u_d_share = np.append(self._u_d_share, div_phi @ (mesh.cell_area * self._u_d))
        self._x0_share = np.append(self._x0_share, border @ self._x0)
        return True

    def _border(self, div_phi: np.ndarray) -> np.ndarray:
        """The column of the plane with divergence ``div_phi`` in the bordered KKT system."""
        # the plane's row needs this column, the state rows its negative (ROADMAP.md, item 16)
        return np.concatenate([np.zeros(self.mesh.n_interior),
                               -self.mesh.load_interior(div_phi) / self.alpha])

    def _div_products(self, planes: list[CuttingPlane], v: np.ndarray) -> np.ndarray:
        """-|T| div_i.v / alpha for each of ``planes``: with v a divergence, a row of the block;
        with v the cell average of p, border_i.(y, p), as B^T is |T| times the cell average."""
        return np.array([-(self.mesh.cell_area * p.div_phi) @ v / self.alpha for p in planes])

    def apply_base(self, x: np.ndarray) -> np.ndarray:
        """The plane-free base [[-M, K], [K, G G^T]] times x = (y, p), from the mesh's stencils."""
        mesh, n_i = self.mesh, self.mesh.n_interior
        y, p = x[:n_i], x[n_i:]
        return np.concatenate([mesh.stiffness(p) - mesh.mass_interior(y),
                               mesh.stiffness(y) + self._g(self._gt(p))])

    def _base_solve(self, rhs: np.ndarray) -> np.ndarray:
        """base^{-1} rhs by CG on the reduced Hessian; SingularBorderError after MAX_CG_STEPS.

        With P = K^-1 M K^-1 and q = K^-1 r1 + P r2 it solves (I + G^T P G) w = G^T q;
        y = K^-1 (r2 - G w) and p = q - P G w come from K^-1 G w and P G w, carried along.
        """
        poisson, mass, n_i = self._poisson, self.mesh.mass_interior, self.mesh.n_interior
        s = poisson(rhs[n_i:])
        q = poisson(rhs[:n_i] + mass(s))
        r = self._gt(q)
        d, kgw, pgw = r.copy(), np.zeros(n_i), np.zeros(n_i)
        rr = rr0 = r @ r
        for steps in range(MAX_CG_STEPS + 1):
            if rr <= CG_TOL**2 * rr0:
                return np.concatenate([s - kgw, q - pgw])
            if steps == MAX_CG_STEPS:
                raise SingularBorderError(f"base solve: CG residual {np.sqrt(rr / rr0):.3e} "
                                          f"relative after {steps} steps")
            kgd = poisson(self._g(d))
            pgd = poisson(mass(kgd))
            hd = d + self._gt(pgd)
            step = rr / (d @ hd)
            kgw += step * kgd
            pgw += step * pgd
            r -= step * hd
            rr, rr_old = r @ r, rr
            d = r + (rr / rr_old) * d

    def solve(self, eps: float, warm_start: MasterSolution | None = None) -> MasterSolution:
        """Minimize the relaxation with ``self.planes`` by a primal-dual active-set method.

        The base solves of the data and of each plane's border column, and
        the planes' Schur complement S, row by row, are made once, in the
        constructor and in :meth:`add_plane`, so a solve touches k x k data and
        the active planes only. Each iteration solves S restricted to the
        active planes, takes every plane's slack r - S mu and reclassifies a
        plane as active iff mu_i - slack_i > 0. It stops at the first repeated
        active set, the KKT point: every inactive slack is >= 0 and every active
        multiplier exceeds its slack, that row's solve residual. Only then are
        the state, the adjoint and the control formed, in one walk over the
        active planes. Raises SingularBorderError, naming the active planes'
        indices, when an iteration's Schur block is singular, when the active
        set has not repeated after MAX_ACTIVE_SET_ITERATIONS (with the last
        KKT residual), or when the returned solution's bordered residual
        exceeds 1e-9 (1 + ||rhs||_inf).
        """
        mesh = self.mesh
        planes = self.planes
        n_i = mesh.n_interior
        k = len(planes)
        schur = self._schur
        # plane bounds less u_d's share, then less x0's
        g = 1.0 + 0.5 * eps * np.array([p.energy for p in planes]) - self._u_d_share
        r = g - self._x0_share

        active = np.zeros(k, dtype=bool)
        if warm_start is not None:
            prev = warm_start.active_planes
            active[prev[prev < k]] = True

        for iterations in range(1, MAX_ACTIVE_SET_ITERATIONS + 1):
            idx = np.flatnonzero(active)
            try:
                mu_act = np.linalg.solve(schur[np.ix_(idx, idx)], r[idx])
            except np.linalg.LinAlgError as exc:
                raise SingularBorderError(f"cutting planes {idx.tolist()}") from exc
            mu = np.zeros(k)
            mu[idx] = mu_act
            # the plane rows with xy = x0 - xc mu: g - border^T xy - block mu
            slack = r - schur @ mu
            active_next = (mu - slack) > 0.0
            if np.array_equal(active_next, active):
                break
            active = active_next
        else:
            # primal infeasibility, dual infeasibility and complementarity
            residual = np.concatenate([-slack, -mu, np.abs(mu * slack)]).max(initial=0.0)
            raise SingularBorderError(
                f"active set did not repeat in {iterations} iterations, KKT residual "
                f"{residual:.3e}; cutting planes {idx.tolist()}"
            )

        # one walk over the active planes: xy = x0 - xc mu and the control's div mu
        xy, div_mu = self._x0.copy(), np.zeros(mesh.n_cells)
        for i, m in zip(idx, mu_act):
            xy -= m * planes[i].base_solve
            div_mu += m * planes[i].div_phi
        p_full = mesh.on_all_nodes(xy[n_i:])
        shift = mesh.cell_average(p_full) + div_mu    # alpha (u_d - u)
        # border mu is border(div mu); the plane rows border^T xy + block mu are read off div_i
        res = max(
            np.abs(self.apply_base(xy) + self._border(div_mu) - self.rhs0).max(initial=0.0),
            np.abs(self._div_products([planes[i] for i in idx], shift) - g[idx]).max(initial=0.0),
        )
        bound = 1e-9 * (1.0 + np.abs(np.concatenate([self.rhs0, g[idx]])).max(initial=0.0))
        if not res <= bound:
            raise SingularBorderError(
                f"bordered solve residual {res:.3e} exceeds bound {bound:.3e}; "
                f"cutting planes {idx.tolist()}"
            )
        y_full, u = mesh.on_all_nodes(xy[:n_i]), self._u_d - shift / self.alpha
        return MasterSolution(
            u=u,
            y=y_full,
            p=p_full,
            mu=mu,
            active_planes=idx,
            objective=self.objective_value(u, y_full),
            inner_iterations=iterations,
        )

    def objective_value(self, u: np.ndarray, y: np.ndarray) -> float:
        mesh = self.mesh
        # on a cell T the P1 mass gives int d^2 = |T|/12 ((sum_a d_a)^2 + sum_a d_a^2)
        d = mesh.corners(y - self._y_d)
        squares = float(np.sum(d.sum(axis=1) ** 2 + np.sum(d * d, axis=1)))
        tracking = mesh.cell_area / 12.0 * squares
        du = u - self._u_d
        return 0.5 * tracking + 0.5 * self.alpha * float(np.sum(mesh.cell_area * du * du))

