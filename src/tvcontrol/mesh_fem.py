"""Structured triangular mesh on the unit square and its finite element forms.

Provides the Friedrichs-Keller triangulation of (0,1)^2, given by n alone,
and the bilinear/linear forms used by the solvers: Poisson stiffness, mass,
the P0-P1 load, the linear-elasticity energy form, and the P1 -> P0 cell
average and divergence. Fields are plain arrays in the mesh's numbering
(see :class:`Mesh`): piecewise-constant (P0) controls one value per cell,
continuous piecewise-linear (P1) states one value per node.

All integrands appearing in the forms are piecewise polynomial, so they are
exact. Every cell of the mesh is a right triangle with legs 1/n, so every
form is a constant stencil of one cell area 1/(2n^2) and the basis gradients
of one cell with legs 1, times n. :class:`Mesh` applies each by
slicing grid-shaped arrays and stores nothing but n. The oracle's Newton
bands are written from the elasticity's four 2x2 node blocks, so this module
alone numbers the interior nodes, and the master's Poisson solves are dense
products in the 5-point Laplacian's sine eigenbasis. Discontinuous data is
projected to P0 by midpoint quadrature on 4^depth subtriangles, on
quadrature coordinates built once per grid column and once per grid row
(see :func:`_quadrature_points`).
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: Young's modulus and Poisson ratio of the elasticity energy form
YOUNGS_MODULUS = 2900.0
POISSON_RATIO = 0.4
#: the shear modulus mu, the Lame parameter of the symmetric gradient
SHEAR_MODULUS = YOUNGS_MODULUS / (2.0 * (1.0 + POISSON_RATIO))
#: the Lame parameter lambda, of the trace of the strain
LAME_LAMBDA = (YOUNGS_MODULUS * POISSON_RATIO
               / ((1.0 + POISSON_RATIO) * (1.0 - 2.0 * POISSON_RATIO)))

#: The corners, as (column, row) steps from the lower-left corner a of a grid
#: square, of its lower triangle (a, a+1, a+n+2) and its upper one (a, a+n+2, a+n+1)
CELL_CORNERS = np.array([[[0, 0], [1, 0], [1, 1]], [[0, 0], [1, 1], [0, 1]]])


@dataclass(frozen=True)
class Mesh:
    """Friedrichs-Keller triangulation of the unit square, given by its size alone.

    ``n`` subdivisions per side give ``(n+1)**2`` nodes and ``2*n**2``
    congruent right triangles; every grid square is split along the
    lower-left to upper-right diagonal. Node (i, j), at (i/n, j/n), is
    ``j*(n+1) + i``; cells are stored by grid row j, then column i, then the
    lower and upper triangle of the square (``CELL_CORNERS``).

    Every field is a plain float array in this numbering: cell values
    (P0), shape (2n^2,), reshape to (n, n, 2); node values (P1), shape
    ((n+1)^2,), reshape to (n+1, n+1). Dirichlet dofs are eliminated by
    deletion, which keeps the forms exactly SPD: interior node values,
    shape ((n-1)^2,), number the interior nodes row by row, and interior
    vector fields, shape (2(n-1)^2,), are node-major, the two components of
    a node next to each other.

    Its methods are the forms the solvers share, each applied as its stencil
    on arrays shaped like the node or the cell grid, none stored as a
    matrix.
    """

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "n", "the number of subdivisions"))
        if self.n < 1:
            raise ValueError(f"need at least one subdivision per side, got n={self.n}")

    @property
    def cell_area(self) -> float:
        """The area of every cell, 1/(2n^2)."""
        return 0.5 / self.n**2

    @property
    def n_nodes(self) -> int:
        return (self.n + 1) ** 2

    @property
    def n_cells(self) -> int:
        return 2 * self.n**2

    @property
    def n_interior(self) -> int:
        return (self.n - 1) ** 2

    def corners(self, values) -> np.ndarray:
        """Node values (n_nodes, ...) at each cell's three corners, (n_cells, 3, ...)."""
        n, v = self.n, np.asarray(values)
        grid = v.reshape((n + 1, n + 1) + v.shape[1:])
        at = [grid[j:j + n, i:i + n] for i, j in CELL_CORNERS.reshape(-1, 2)]
        return np.stack(at, axis=2).reshape((self.n_cells, 3) + v.shape[1:])

    def on_all_nodes(self, y_int: np.ndarray) -> np.ndarray:
        """Interior node values on all nodes, 0 on the boundary."""
        return _padded(y_int, self.n).ravel()

    def stiffness(self, y: np.ndarray) -> np.ndarray:
        """K y on the interior nodes: the 5-point Laplacian, SPD."""
        return _interior_stencil(_padded(y, self.n), LAPLACIAN_STENCIL).ravel()

    def mass_interior(self, y: np.ndarray) -> np.ndarray:
        """The P1 mass at the interior rows times y, on all nodes or on the interior ones only."""
        n = self.n
        grid = _padded(y, n) if y.size == self.n_interior else y.reshape(n + 1, n + 1)
        return _interior_stencil(grid, self.cell_area * MASS_STENCIL).ravel()

    def cell_average(self, p: np.ndarray) -> np.ndarray:
        """Each cell's mean of p on all nodes: its square's diagonal and one more corner."""
        n = self.n
        g = p.reshape(n + 1, n + 1)
        diagonal = g[:-1, :-1] + g[1:, 1:]
        return (np.stack([diagonal + g[:-1, 1:], diagonal + g[1:, :-1]], axis=-1) / 3.0).ravel()

    def load_interior(self, u: np.ndarray) -> np.ndarray:
        """B u = int u * basis dx at the interior nodes, the cell average's adjoint times the area.

        A third of the area times u on the six cells around a node: its own
        square, the one below-left, and one cell of the squares below and left.
        """
        n = self.n
        c = u.reshape(n, n, 2)
        square = c[..., 0] + c[..., 1]
        around = square[:-1, :-1] + c[:-1, 1:, 1] + c[1:, :-1, 0] + square[1:, 1:]
        return (self.cell_area / 3.0 * around).ravel()

    def divergence(self, x: np.ndarray) -> np.ndarray:
        """D x: div phi on each cell, from the interior vector dofs x of phi.

        n times the x-difference along the lower cell's bottom edge (upper
        cell's top edge) plus the y-difference along its right (left) edge.
        """
        n = self.n
        g = _padded(x.reshape(-1, 2), n)
        along_rows, along_columns = np.diff(g[..., 0], axis=1), np.diff(g[..., 1], axis=0)
        lower = along_rows[:-1] + along_columns[:, 1:]
        upper = along_columns[:, :-1] + along_rows[1:]
        return (n * np.stack([lower, upper], axis=-1)).ravel()

    def dual_load(self, u: np.ndarray) -> np.ndarray:
        """D^T (area u): b_j = int u * div(basis_j) dx over the interior vector dofs.

        At a node, n times the jumps of area * u across the grid lines through it.
        """
        n = self.n
        v = (self.cell_area * u).reshape(n, n, 2)
        across_columns, across_rows = v[:, :-1] - v[:, 1:], v[:-1] - v[1:]
        first = across_columns[:-1, :, 1] + across_columns[1:, :, 0]
        second = across_rows[:, :-1, 0] + across_rows[:, 1:, 1]
        return (n * np.stack([first, second], axis=-1)).ravel()

    def elasticity(self, x: np.ndarray) -> np.ndarray:
        """A x = mu (K kron I) x + (mu + lam) area D^T D x on the interior vector dofs, A SPD.

        On fields that vanish on the boundary: the shear and the divergence energy.
        """
        shear = _interior_stencil(_padded(x.reshape(-1, 2), self.n), LAPLACIAN_STENCIL)
        return (SHEAR_MODULUS * shear.ravel()
                + (SHEAR_MODULUS + LAME_LAMBDA) * self.dual_load(self.divergence(x)))

    def stiffness_solve(self, b: np.ndarray) -> np.ndarray:
        """K^-1 b on the interior nodes, exact in the Laplacian's eigenbasis (:func:`_sine_basis`)."""
        m = self.n - 1
        sine, inverse_eigenvalues = _sine_basis(self.n)
        return (sine @ ((sine @ b.reshape(m, m) @ sine) * inverse_eigenvalues) @ sine).ravel()

    def elasticity_band(self, scale, diagonal, frame, kept) -> np.ndarray:
        """The lower band of Z^T (scale * A + D) Z, written from ``ELASTICITY_BLOCKS``.

        D adds ``diagonal[q]`` to both dofs of interior node q. Z rotates the
        dofs of node q into its (radial, tangent) frame, with ``frame`` = (cos,
        sin) and (cos[q], sin[q]) the radial direction, and keeps the rotated dofs
        ``kept[q]``; its columns follow the kept dofs in order. Every block is
        rotated by :func:`rotate_pairs` as :func:`_stencil_band` takes it to
        write, its rows by its row node's frame, then its columns by its column
        node's; an identity frame leaves a block's nonzero entries bitwise
        unchanged, since 1·a + 0·b = a and b − 0·a = b.
        """
        m = self.n - 1
        cos, sin = np.reshape(frame, (2, m, m))
        blocks = [scale * h[:, :, None, None] for h in ELASTICITY_BLOCKS]
        # D on the diagonal of the own blocks; adding 0 * D leaves the rest unchanged
        blocks[0] = blocks[0] + np.eye(2)[:, :, None, None] * diagonal.reshape(m, m)
        column = np.where(kept, np.cumsum(kept).reshape(-1, 2) - 1, -1).T

        def rotated(block, dj, di):
            rows = rotate_pairs(block, cos[dj:, di:], sin[dj:, di:])
            below = np.s_[:m - dj, :m - di]
            return rotate_pairs(rows.swapaxes(0, 1), cos[below], sin[below]).swapaxes(0, 1)

        blocks = (rotated(block, dj, di) for block, (dj, di) in zip(blocks, LOWER_STEPS))
        return _stencil_band(column.reshape(2, m, m), blocks, np.count_nonzero(kept))


def _integer(value, name: str, meaning: str) -> int:
    """``value`` by ``operator.index``; TypeError naming ``name`` for a bool or a non-integer."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise TypeError(f"{meaning} must be an integer, got {name}={value!r}")
    return operator.index(value)


def _depth(value) -> int:
    """A quadrature depth as a Python int: TypeError as :func:`_integer`, ValueError if negative."""
    depth = _integer(value, "subdivision_depth", "the quadrature depth")
    if depth < 0:
        raise ValueError(f"subdivision_depth must be nonnegative, got {depth}")
    return depth


def _real(value, name: str) -> float:
    """``value`` as a Python float; TypeError naming ``name`` for a bool or a non-real."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {name}={value!r}")
    return float(value)


def _positive_alpha(value) -> float:
    """alpha as a Python float: TypeError as :func:`_real`, ValueError unless positive and finite."""
    alpha = _real(value, "alpha")
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    return alpha


def build_friedrichs_keller(n: int) -> Mesh:
    """Triangulate (0,1)^2 into 2*n^2 right triangles with legs 1/n (see :class:`Mesh`)."""
    return Mesh(n)


def elasticity_floor(mesh: Mesh) -> float:
    """theta = mu 8 sin^2(pi / 2n), at most the smallest eigenvalue of the interior elasticity.

    On fields that vanish on the boundary, integrating by parts gives
    a[phi, phi] = mu ||grad phi||^2 + (mu + lam) ||div phi||^2 >= mu ||grad phi||^2,
    the split ``Mesh.elasticity`` applies, and the P1 stiffness of the
    interior nodes is the 5-point Laplacian (``Mesh.stiffness``), whose
    smallest eigenvalue is 8 sin^2(pi / 2n).
    """
    return SHEAR_MODULUS * 8.0 * math.sin(math.pi / (2 * mesh.n)) ** 2


def rotate_pairs(pairs, cos, sin) -> np.ndarray:
    """(cos a + sin b, cos b - sin a) for the pairs (a, b) stacked along axis 0 of ``pairs``.

    Each pair in the frame whose first axis is (cos, sin); with -sin it rotates back.
    """
    a, b = pairs
    return np.stack([cos * a + sin * b, cos * b - sin * a])


@lru_cache(maxsize=None)
def _subtriangle_centroids(depth: int) -> np.ndarray:
    """Barycentric centroids of the 4^depth uniform subtriangles, (4^depth, 3)."""
    tris = np.eye(3)[None, :, :]
    for _ in range(depth):
        b0, b1, b2 = tris[:, 0], tris[:, 1], tris[:, 2]
        m01, m12, m02 = (b0 + b1) / 2, (b1 + b2) / 2, (b0 + b2) / 2
        tris = np.concatenate([
            np.stack([b0, m01, m02], axis=1),
            np.stack([m01, b1, m12], axis=1),
            np.stack([m02, m12, b2], axis=1),
            np.stack([m01, m12, m02], axis=1),
        ])
    return tris.mean(axis=1)


@lru_cache(maxsize=None)
def _sine_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal DST-I matrix S = sqrt(2/n) sin(pi j k / n) and 1/(l_j + l_k), 0 < j, k < n.

    S = S^-1 diagonalizes one grid line's tridiag(-1, 2, -1), eigenvalues l_k = 4 sin^2(pi k / 2n),
    and K is that along rows plus along columns: on the interior grid K^-1 B = S (S B S / l) S.
    """
    k = np.arange(1, n)
    eigenvalues = 4.0 * np.sin(np.pi * k / (2 * n)) ** 2
    return (np.sqrt(2.0 / n) * np.sin(np.pi * (np.outer(k, k) % (2 * n)) / n),
            1.0 / np.add.outer(eigenvalues, eigenvalues))


def _quadrature_points(mesh: Mesh, subdivision_depth: int):
    """The midpoint rule's points on 4^depth subtriangles: x of the grid columns, y of the grid rows.

    Each of shape (n, 2, 4^depth) with axis 1 the lower and upper triangle
    of a grid square: cell (j, i, t) has the points (x[i, t], y[j, t]). On
    the Friedrichs-Keller mesh a quadrature point's x depends only on its
    column and y only on its row. Raises TypeError for a bool or
    non-integer depth, ValueError for a negative one.
    """
    b0, b1, b2 = _subtriangle_centroids(_depth(subdivision_depth)).T
    # the cells' corners in grid column (x) or grid row (y) k, (n, 2, 3, 2): k/n plus a step
    corners = (np.arange(mesh.n)[:, None, None, None] + CELL_CORNERS) / mesh.n
    row, col = corners[..., 0, None], corners[..., 1, None]
    x = b0 * row[:, :, 0] + b1 * row[:, :, 1] + b2 * row[:, :, 2]
    y = b0 * col[:, :, 0] + b1 * col[:, :, 1] + b2 * col[:, :, 2]
    return x, y


def interpolate_p1(f, mesh: Mesh, dirichlet: bool = False) -> np.ndarray:
    """Nodal interpolation, f called on x = i/n of shape (1, n+1) and y = j/n of shape (n+1, 1).

    With ``dirichlet=True`` the values on the grid's border are forced to 0.
    """
    side = np.arange(mesh.n + 1) / mesh.n
    vals = np.asarray(f(side[None, :], side[:, None]), dtype=float)
    vals = np.broadcast_to(vals, (mesh.n + 1, mesh.n + 1)).copy()
    if dirichlet:
        vals[[0, -1]] = vals[:, [0, -1]] = 0.0
    return vals.ravel()


def l2_norm_p0(mesh: Mesh, u) -> float:
    v = np.asarray(u, dtype=float)
    if v.shape != (mesh.n_cells,):
        raise ValueError(f"expected {mesh.n_cells} cell values, got shape {v.shape}")
    return float(np.sqrt(np.sum(mesh.cell_area * v * v)))


def l2_error_p0(mesh: Mesh, u, v) -> float:
    a, b = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"mismatched P0 lengths: {a.shape} vs {b.shape}")
    return l2_norm_p0(mesh, a - b)


#: the 5-point Laplacian and the 7-point mass over the cell area as 3 x 3 stencils,
#: rows below, through and above the node: the Laplacian's couplings across square
#: diagonals cancel, the mass has a sixth at the six neighbours
LAPLACIAN_STENCIL = np.array([[0.0, -1.0, 0.0], [-1.0, 4.0, -1.0], [0.0, -1.0, 0.0]])
MASS_STENCIL = np.array([[1, 1, 0], [1, 6, 1], [0, 1, 1]]) / 6.0

#: the steps back, (rows, columns), from an interior node to the neighbours its
#: lower band entries couple it to: itself, left, below and below-left. The square
#: diagonals run from lower left to upper right, so no form couples a node to the
#: one below-right.
LOWER_STEPS = ((0, 0), (0, 1), (1, 0), (1, 1))

#: the 5-point Laplacian's entries at ``LOWER_STEPS``
LAPLACIAN_LOWER = np.array([LAPLACIAN_STENCIL[1 - dj, 1 - di] for dj, di in LOWER_STEPS])

#: the elasticity's 2x2 node blocks at ``LOWER_STEPS``, the same at every interior node
#: for every n (squared gradients scale as n^2, cell areas as 1/n^2): the shear, mu times
#: the Laplacian's entries times I, plus mu + lam times the divergence energy's area D^T D
ELASTICITY_BLOCKS = (SHEAR_MODULUS * np.multiply.outer(LAPLACIAN_LOWER, np.eye(2))
                     + (SHEAR_MODULUS + LAME_LAMBDA) * np.array([
                         [[2.0, -1.0], [-1.0, 2.0]], [[-1.0, 0.5], [0.5, 0.0]],
                         [[0.0, 0.5], [0.5, -1.0]], [[0.0, -0.5], [-0.5, 0.0]]]))


def _padded(values: np.ndarray, n: int) -> np.ndarray:
    """Interior node values, (n_interior, ...), on the (n+1, n+1, ...) grid, 0 on the boundary."""
    grid = np.zeros((n + 1, n + 1) + values.shape[1:])
    grid[1:-1, 1:-1] = values.reshape((n - 1, n - 1) + values.shape[1:])
    return grid


def _interior_stencil(grid: np.ndarray, stencil: np.ndarray) -> np.ndarray:
    """A 3 x 3 stencil at each interior node of a node grid (n+1, n+1, ...), (n-1, n-1, ...).

    Each term is one contiguous slice of the flattened grid, from node (1, 1)
    to node (n-1, n-1), the boundary columns between them cut off at the end.
    """
    side, per_node = grid.shape[0], grid[0, 0].size
    flat, out = grid.reshape(-1), np.zeros((side - 2) * side * per_node)
    sums = out[:max(out.size - 2 * per_node, 0)]
    for (row, col), w in np.ndenumerate(stencil):
        if w:
            sums += w * flat[(row * side + col) * per_node:][:sums.size]
    return out.reshape((side - 2, side) + grid.shape[2:])[:, :side - 2]


def _stencil_band(column: np.ndarray, blocks, size: int) -> np.ndarray:
    """The lower band of the matrix with the lower node blocks ``blocks``, written block by block.

    ``column`` (d, n-1, n-1) holds the band column of each of the d dofs of
    every interior node, or -1 for a dropped dof; ``blocks`` yields the
    (d, d, ...) block at each of ``LOWER_STEPS``, broadcast over the grid of
    the nodes that have that neighbour. Each nonzero entry on or below the
    diagonal between kept dofs, no two in one place, is written at
    ``band[row - col, col]`` of a zeroed band as wide as the farthest of
    them, column-major for LAPACK to factor in place.
    """
    m = column.shape[1]
    # as a column, a dropped dof lies past every row, so its entries fall above the diagonal
    as_column = np.where(column < 0, size, column)
    entries = [_kept_entries(column[:, None, dj:, di:], as_column[None, :, :m - dj, :m - di], block)
               for (dj, di), block in zip(LOWER_STEPS, blocks)]
    band = np.zeros((size, 1 + max(offset.max(initial=0) for offset, _, _ in entries)))
    for offset, col, value in entries:
        band[col, offset] = value
    return band.T


def _kept_entries(row, col, block):
    """(row - col, col, value) of the nonzero entries of ``block`` on or below the diagonal.

    ``row`` (d, 1, ...) and ``col`` (1, d, ...) are the band columns of the dofs of each node
    pair; the step's temporaries on the node grid are freed before the band is allocated.
    """
    col = np.repeat(col, row.shape[0], axis=0)
    offset = row - col
    value = np.broadcast_to(block, offset.shape)
    keep = (offset >= 0) & (value != 0.0)
    return offset[keep], col[keep], value[keep]


def build_forms(mesh: Mesh) -> Mesh:
    """Returns ``mesh``, which applies every form; kept only for ``perfbench/sample.py``."""
    return mesh
