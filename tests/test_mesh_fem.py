import dataclasses
import hashlib
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    assemble_cell_average,
    assemble_divergence,
    assemble_elasticity,
    assemble_mass_p1,
    assemble_stiffness,
    basis_gradients,
    cell_areas,
    exact_f_integrand,
    fk_interior_nodes,
    fk_nodes,
    fk_triangles,
    interior_elasticity,
    interior_load,
    interior_stiffness,
    project_p0_by_einsum,
    solve_sparse_spd,
    symmetric_band_product,
)
from tvcontrol import instances, mesh_fem
from tvcontrol.mesh_fem import (
    CELL_GRADIENTS,
    LAME_LAMBDA,
    Mesh,
    P0_CHUNK_POINTS,
    SHEAR_MODULUS,
    P0Field,
    build_forms,
    build_friedrichs_keller,
    elasticity_floor,
    interpolate_p1,
    l2_error_p0,
    l2_norm_p0,
    project_p0,
)
from tvcontrol.sparse_linalg import lower_band


def test_smallest_mesh():
    mesh = build_friedrichs_keller(1)
    assert mesh.n_nodes == 4
    assert mesh.n_cells == 2


def test_n2_by_hand():
    mesh = build_friedrichs_keller(2)
    assert mesh.n_nodes == 9
    assert mesh.n_cells == 8
    assert mesh.cell_area * mesh.n_cells == 1.0


def test_mesh_is_its_size():
    assert [f.name for f in dataclasses.fields(Mesh)] == ["n"]
    mesh = build_friedrichs_keller(7)
    assert mesh == Mesh(7) and mesh != Mesh(8)
    assert (mesh.n_nodes, mesh.n_cells, mesh.n_interior) == (64, 98, 36)
    assert mesh.cell_area == 0.5 / 49
    assert not hasattr(mesh, "interior_nodes")


def test_paper_mesh_size():
    # the mesh size h is the longest edge, the square diagonal from corner 0 to 2
    corners = fk_nodes(50)[fk_triangles(50)]
    edges = corners - np.roll(corners, 1, axis=1)
    longest = np.hypot(edges[..., 0], edges[..., 1]).max()
    assert longest == pytest.approx(np.sqrt(2.0) / 50, abs=1e-15)


def test_zero_subdivisions_rejected():
    with pytest.raises(ValueError):
        build_friedrichs_keller(0)


@pytest.mark.parametrize("n", [0, -2, 2.5, 8.0, True])
def test_mesh_without_subdivisions_rejected(n):
    # a hand-built mesh is checked too, before its cell area divides by n^2
    # and before set-up takes a float or a bool for a count
    if type(n) is int:
        with pytest.raises(ValueError, match=f"at least one subdivision per side, got n={n}"):
            Mesh(n)
    else:
        with pytest.raises(TypeError, match=f"must be an integer, got n={n}"):
            Mesh(n)


def test_mesh_takes_a_numpy_integer_as_its_size():
    mesh = Mesh(np.int64(8))
    assert type(mesh.n) is int and mesh == Mesh(8)


@pytest.mark.parametrize("n", range(1, 9))
def test_corners_equal_the_triangle_list(n):
    mesh = build_friedrichs_keller(n)
    rng = np.random.default_rng(n)
    for values in (rng.standard_normal(mesh.n_nodes), rng.standard_normal((mesh.n_nodes, 2))):
        expected = values[fk_triangles(n)]
        corners = mesh.corners(values)
        assert corners.shape == expected.shape
        assert corners.tobytes() == expected.tobytes()


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=1, max_value=8))
def test_mesh_invariants(n):
    mesh = build_friedrichs_keller(n)
    # the reference list has the mesh's counts, with counterclockwise cells,
    # each of the area the mesh reports
    nodes, triangles = fk_nodes(n), fk_triangles(n)
    assert nodes.shape == (mesh.n_nodes, 2) and triangles.shape == (mesh.n_cells, 3)
    assert np.array_equal(np.unique(triangles), np.arange(mesh.n_nodes))
    areas = cell_areas(mesh)
    assert np.all(areas > 0)
    assert np.abs(areas - mesh.cell_area).max() <= 1e-14 * mesh.cell_area
    assert mesh.cell_area * mesh.n_cells == pytest.approx(1.0, abs=1e-15)
    interior = fk_interior_nodes(n)
    assert interior.size == mesh.n_interior == mesh.n_nodes - 4 * n
    assert np.all((nodes[interior] > 0.0) & (nodes[interior] < 1.0))


def test_stiffness_rows_sum_to_zero():
    mesh = build_friedrichs_keller(5)
    k = assemble_stiffness(mesh)
    assert np.abs(np.asarray(k.sum(axis=1))).max() < 1e-12


def test_stiffness_five_point_stencil():
    # interior node (2, 2) of the n = 4 mesh sits in the middle of the 3 x 3
    # interior nodes; K is symmetric, so its column is its row
    center, m = 4, 3
    row = build_friedrichs_keller(4).stiffness(np.eye(m * m)[center])
    assert row[center] == 4.0
    for neighbor in (center - 1, center + 1, center - m, center + m):
        assert row[neighbor] == -1.0
    # entries across the square diagonals cancel on this triangulation
    assert row[center + m + 1] == 0.0
    assert row[center - m - 1] == 0.0
    assert np.count_nonzero(row) == 5


def _matches(product, reference, v, rel_tol):
    """Whether product = reference @ v to rel_tol times |reference| @ |v|."""
    expected = reference @ v
    scale = (abs(reference) @ np.abs(v)).max(initial=0.0)
    return product.shape == expected.shape and (
        np.abs(product - expected).max(initial=0.0) <= rel_tol * scale)


@pytest.mark.parametrize("n, rel_tol", [(2, 0.0), (3, 0.0), (8, 0.0), (16, 0.0),
                                        (50, 1e-14), (100, 1e-14)])
def test_stiffness_equals_the_per_cell_assembly(n, rel_tol):
    # the stencil sums a row's terms in the reference's column order, so where
    # the per-cell entries are exact, 4 and -1, so is the product; at n = 50
    # and 100 the per-cell sums carry rounding noise of a few ulps
    mesh = build_friedrichs_keller(n)
    v = np.random.default_rng(n).standard_normal(mesh.n_interior)
    assert _matches(mesh.stiffness(v), interior_stiffness(mesh), v, rel_tol)
    # the master's band, written from the same stencil
    ref = interior_stiffness(mesh).tocoo()
    expected = lower_band(ref.row, ref.col, ref.data, mesh.n_interior)
    band = mesh.stiffness_band()
    assert band.shape == expected.shape
    assert np.abs(band - expected).max() <= rel_tol * 4.0


def _poisson_max_error(n):
    mesh = build_friedrichs_keller(n)
    load = project_p0(
        lambda x, y: 2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y), mesh
    )
    y_int = solve_sparse_spd(interior_stiffness(mesh), mesh.load_interior(load.values))
    y = mesh.full_scalar_field(y_int)
    nodes = fk_nodes(n)
    exact = np.sin(np.pi * nodes[:, 0]) * np.sin(np.pi * nodes[:, 1])
    return np.abs(y.values - exact).max()


def test_manufactured_poisson_second_order():
    coarse, fine = _poisson_max_error(16), _poisson_max_error(32)
    rate = np.log2(coarse / fine)
    assert 1.7 <= rate <= 2.3


def test_empty_interior_solve():
    mesh = build_friedrichs_keller(1)
    rhs = mesh.load_interior(np.ones(mesh.n_cells))
    assert rhs.shape == (0,)
    y = mesh.full_scalar_field(solve_sparse_spd(interior_stiffness(mesh), rhs))
    assert np.all(y.values == 0.0)


def test_coupling_constant_control():
    # a hat function integrates to a third of its six cells' area, 1/n^2
    mesh = build_friedrichs_keller(4)
    load = mesh.load_interior(np.ones(mesh.n_cells))
    assert np.allclose(load, 1.0 / 16.0, rtol=1e-15, atol=0.0)


def test_coupling_single_cell():
    # cell 8 of the n = 3 mesh, the lower triangle (5, 6, 10), has three interior
    # corners; cell 7, the upper triangle (4, 9, 8), has one
    mesh = build_friedrichs_keller(3)
    for cell, interior_corners in [(8, [0, 1, 3]), (7, [2])]:
        column = mesh.load_interior(np.eye(mesh.n_cells)[cell])
        corners = np.flatnonzero(np.isin(fk_interior_nodes(3), fk_triangles(3)[cell]))
        assert corners.tolist() == interior_corners
        assert np.flatnonzero(column).tolist() == corners.tolist()
        assert np.allclose(column[corners], mesh.cell_area / 3.0, rtol=1e-15, atol=0.0)


def _dense(apply, size):
    """The matrix of a linear map of R^size to itself, column by column."""
    return np.stack([apply(e) for e in np.eye(size)], axis=1) if size else np.zeros((0, 0))


@pytest.mark.parametrize("n", [1, 3, 8])
def test_operators_are_symmetric(n):
    mesh = build_friedrichs_keller(n)
    size = mesh.n_interior
    for apply, dofs in [(mesh.stiffness, size), (mesh.mass_interior, size),
                        (mesh.elasticity, 2 * size)]:
        a = _dense(apply, dofs)
        assert np.array_equal(a, a.T)


def _per_cell_references(mesh):
    """(form, its per-cell reference, input size): each form and its adjoint."""
    interior = fk_interior_nodes(mesh.n)
    mass = assemble_mass_p1(mesh)[interior].tocsr()
    divergence = assemble_divergence(mesh)
    return [
        ("mass_interior", mass, mesh.n_nodes),
        ("mass_interior", mass[:, interior], interior.size),  # zero on the boundary
        ("load_interior", interior_load(mesh), mesh.n_cells),
        ("cell_average", assemble_cell_average(mesh), mesh.n_nodes),
        ("divergence", divergence, 2 * interior.size),
        ("dual_load", divergence.T.multiply(cell_areas(mesh)).tocsr(), mesh.n_cells),
    ]


@pytest.mark.parametrize("n, rel_tol", [(1, 1e-15), (2, 1e-15), (3, 1e-15), (4, 1e-15),
                                        (8, 1e-15), (16, 1e-15), (50, 5e-14), (100, 5e-14)])
def test_operators_equal_the_per_cell_assembly(n, rel_tol):
    # on random vectors, to rounding: the stencils sum their terms in another
    # order. n = 1 has no interior node, so every product into or out of the
    # interior is empty; at n = 50 and 100 the references' own cell areas, from
    # node coordinates, spread by up to 2e-14 relative about 1/(2n^2)
    mesh = build_friedrichs_keller(n)
    rng = np.random.default_rng(n)
    for name, ref, size in _per_cell_references(mesh):
        v = rng.standard_normal(size)
        assert _matches(getattr(mesh, name)(v), ref, v, rel_tol), (name, size)


def test_forms_hold_only_the_mesh():
    # every band is written from a stencil when it is needed, so the forms are
    # the mesh itself and store nothing but its size
    mesh = build_friedrichs_keller(50)
    forms = build_forms(mesh)
    assert forms is mesh
    assert [field.name for field in dataclasses.fields(forms)] == ["n"]


def test_build_forms_builds_no_mesh():
    mesh = build_friedrichs_keller(4)

    def no_mesh(n):
        raise AssertionError(f"build_forms built a mesh with n={n}")

    with patch.object(mesh_fem, "build_friedrichs_keller", no_mesh):
        assert build_forms(mesh) is mesh


def test_lame_constants():
    # affine fields are exact in P1; on the unit square a[phi, phi] equals
    # C sym_grad(phi) : sym_grad(phi) with C the Lame tensor of E = 2900, nu = 0.4
    mu = 2900.0 / 2.8
    lam = 2900.0 * 0.4 / (1.4 * 0.2)
    mesh = build_friedrichs_keller(3)
    a = assemble_elasticity(mesh)
    x1, x2 = fk_nodes(3).T
    stretch = np.column_stack([x1, np.zeros_like(x1)]).ravel()  # phi = (x1, 0)
    shear = np.column_stack([x2, x1]).ravel()                    # phi = (x2, x1)
    assert stretch @ (a @ stretch) == pytest.approx(2.0 * mu + lam, rel=1e-12)
    assert shear @ (a @ shear) == pytest.approx(4.0 * mu, rel=1e-12)


def test_translation_has_zero_energy_before_reduction():
    mesh = build_friedrichs_keller(3)
    a = assemble_elasticity(mesh)
    translation = np.tile([0.3, -1.2], mesh.n_nodes)
    assert abs(translation @ (a @ translation)) < 1e-9


def test_reduced_elasticity_positive_definite():
    mesh = build_friedrichs_keller(6)
    a = _dense(mesh.elasticity, 2 * mesh.n_interior)
    # the Cholesky factorization succeeding is the positive-pivot check
    assert np.isfinite(np.linalg.cholesky(a)).all()
    rng = np.random.default_rng(3)
    for _ in range(100):
        v = rng.standard_normal(a.shape[0])
        assert v @ mesh.elasticity(v) >= 0.0


@pytest.mark.parametrize("n, rel_tol", [(2, 1e-15), (8, 1e-15), (16, 1e-15),
                                        (3, 1e-14), (50, 1e-14), (100, 1e-14)])
def test_stencil_elasticity_equals_the_per_cell_assembly(n, rel_tol):
    # the per-cell sums round: 14500.000000000004 on the diagonal at n = 2,
    # 14500.000000000018 at n = 50 and 14499.999999999993 at n = 100, where
    # the closed-form stencil has 14500.000000000002
    mesh = build_friedrichs_keller(n)
    ref = interior_elasticity(mesh)
    v = np.random.default_rng(n).standard_normal(2 * mesh.n_interior)
    assert _matches(mesh.elasticity(v), ref, v, rel_tol)


@pytest.mark.parametrize("n", [2, 3, 8, 16, 50, 100])
def test_elasticity_is_shear_plus_divergence_energy(n):
    # on fields vanishing on the boundary, a[phi, phi] = mu ||grad phi||^2
    # + (mu + lam) ||div phi||^2: A = mu (K kron I) + (mu + lam) area D^T D,
    # the identity Mesh.elasticity applies and elasticity_floor rests on,
    # here between the per-cell references
    mesh = build_friedrichs_keller(n)
    divergence = assemble_divergence(mesh)
    identity = (SHEAR_MODULUS * sp.kron(interior_stiffness(mesh), sp.eye(2))
                + (SHEAR_MODULUS + LAME_LAMBDA) * (divergence.T @ sp.diags(cell_areas(mesh))
                                                   @ divergence))
    ref = interior_elasticity(mesh)
    assert np.abs(ref - identity).max() <= 1e-14 * np.abs(ref.data).max()


def _elasticity_band(mesh):
    """The band of A itself: no node rotated, every dof kept, no diagonal added."""
    size = mesh.n_interior
    identity = np.array([np.ones(size), np.zeros(size)])
    return mesh.elasticity_band(1.0, np.zeros(size), identity, np.ones((size, 2), dtype=bool))


@pytest.mark.parametrize("n", [2, 3, 8, 50])
def test_elasticity_product_equals_its_node_blocks(n):
    # the shear Laplacian plus the divergence energy, against the band written
    # from the closed-form node blocks the oracle's bands come from: equal up
    # to rounding
    mesh = build_friedrichs_keller(n)
    band = _elasticity_band(mesh)
    for seed in range(3):
        v = np.random.default_rng(seed).standard_normal(2 * mesh.n_interior)
        scale = symmetric_band_product(np.abs(band), np.abs(v)).max()
        error = np.abs(mesh.elasticity(v) - symmetric_band_product(band, v)).max()
        assert error <= 1e-15 * scale


def test_smallest_mesh_has_empty_bands():
    mesh = build_friedrichs_keller(1)
    assert _elasticity_band(mesh).shape == mesh.stiffness_band().shape == (1, 0)
    assert mesh.elasticity(np.zeros(0)).shape == (0,)
    assert mesh.stiffness(np.zeros(0)).shape == (0,)


def _fixed_vector(size):
    """One exactly representable input per size, the same on every platform."""
    return ((np.arange(size) * 7919) % 1009) / 1009 - 0.5


#: sha256 of each form applied to ``_fixed_vector``. The CSR matrices the
#: stencils replaced gave the same bytes for the stiffness and the mass; the
#: others sum their terms in another order and differ by at most 4e-16 relative
FORMS_SHA256 = {
    (16, "stiffness"): "495c597188103282bc46e5dc5f0ff7a00cb7d8d4097dde0269623f2a5aeb87d4",
    (16, "mass_interior"): "c78f43ebd3e65fec57108040bd18c873943a3d2b6eb915621f12bb2bdb17e272",
    (16, "load_interior"): "ac078ac95876e4b74c27e36330f2035197b7ded7b6988598525d7da9fa5fae5d",
    (16, "cell_average"): "ec46b0546fea27cbdb0c0187a7a9f8302665ce2d57491e93e3e6a6cd90ebbf8d",
    (16, "elasticity"): "f4d14a9b033e27773876a962892c353287f0d0297d16462da2007953f2880bda",
    (16, "divergence"): "15564d49d288bf5b6f5083ba2c823f63b9b5a1814d9073a0d8155544f738dd30",
    (16, "dual_load"): "901f4f52ea1f924632d65eecf7a0089b2ade3eeadd14acfe2ef0f92a279d3697",
    (50, "stiffness"): "4dd358f25ead3dc1806665dd7e1b7967b94a248b26e9a661d1a62c5b579f7685",
    (50, "mass_interior"): "b12387a57e1ca5ad03772c0fa1caeb24fcd4edab822a5f35a3d92472d1cea3df",
    (50, "load_interior"): "149a04dd6bd8d2e3b1627de05697c487d74c6a359877295d7f8f71fe867fd526",
    (50, "cell_average"): "26bf696bc4e74cc8b6b263fe21c606d2e1e549be3b1b80897d6306edb1978e4a",
    (50, "elasticity"): "1845d81cc9e0280d854d1a4369bce84f628ad476a09b19c842fcd747acec785b",
    (50, "divergence"): "cd79a93ac352c2fb1a0b5ca42e94e7b918f52d2560b871c717efe5252a78f6c0",
    (50, "dual_load"): "3a6bfd0a5458357421b0644401e1c85db492b8a86538a5f38250d322a72b2135",
    (100, "stiffness"): "6efb2259c493cf072be90e2c7c5f36bfdf346c07fa9c35b5ac5e7646c26b77b1",
    (100, "mass_interior"): "b0271901a7f75569d591eb68568a9b13865f8f6ed96bad0f1bfc7faf355ff589",
    (100, "load_interior"): "20039f274e1306c702afa22c35b7ad0e0efa21d82b03683155b84c8749eb7396",
    (100, "cell_average"): "63945dc21e2398fc50e466e635693b4c21625798c7db7f31c12ae8bb88d724f7",
    (100, "elasticity"): "cc9f0dc15771cc9e48a45d7a9a7bd5e28087fd1e4ab8bcc0daf65d045a442f35",
    (100, "divergence"): "af589dc3ff28d4001e887af6ca33e082a7e4b9f3d5054a14b89cdcb87608ec5d",
    (100, "dual_load"): "1c5057e83bf14d8038c8e254479c354542f432859405b41714487fc90ca634b7",
}


def _pinned_inputs(mesh):
    size = mesh.n_interior
    return {"stiffness": size, "mass_interior": mesh.n_nodes, "load_interior": mesh.n_cells,
            "cell_average": mesh.n_nodes, "elasticity": 2 * size, "divergence": 2 * size,
            "dual_load": mesh.n_cells}


@pytest.mark.parametrize("n, name", sorted(FORMS_SHA256))
def test_forms_bytes_are_pinned(n, name):
    mesh = build_friedrichs_keller(n)
    product = getattr(mesh, name)(_fixed_vector(_pinned_inputs(mesh)[name]))
    assert product.dtype == np.float64 and product.flags.c_contiguous
    assert hashlib.sha256(product.tobytes()).hexdigest() == FORMS_SHA256[n, name]


def test_build_forms_memory_at_n100():
    # build_forms returns the mesh and traces nothing (320 bytes when it wrapped
    # the mesh in a class of its own); with the per-cell
    # elasticity assembly (720 000 COO entries at n = 100) this peaked at 68.9
    # MB, and with the elasticity's node blocks stored at 2.67 MB
    mesh = build_friedrichs_keller(100)
    tracemalloc.start()
    try:
        build_forms(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4096


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_elasticity_floor_is_below_smallest_eigenvalue(n):
    # the oracle's dual bound divides by theta, so theta must not exceed lambda_min(A),
    # and a floor far below lambda_min(A) would loosen the certificate
    mesh = build_friedrichs_keller(n)
    smallest = np.linalg.eigvalsh(_dense(mesh.elasticity, 2 * mesh.n_interior))[0]
    theta = elasticity_floor(mesh)
    assert 0.0 < theta <= smallest <= 3.0 * theta


def test_divergence_of_zero_field():
    mesh = build_friedrichs_keller(3)
    div = mesh.divergence(np.zeros(2 * mesh.n_interior))
    assert np.all(div == 0.0)


def test_divergence_of_hat_field():
    # phi = hat_q e_1 has div phi = d(hat_q)/dx: the x-component of node q's
    # basis gradient on the six cells around q (+-1/h on four, 0 on the two
    # above and below q), zero elsewhere
    mesh = build_friedrichs_keller(3)
    position = 2
    q = fk_interior_nodes(3)[position]
    x = np.zeros(2 * mesh.n_interior)
    x[2 * position] = 1.0
    expected = np.zeros(mesh.n_cells)
    cells, corners = np.nonzero(fk_triangles(3) == q)
    expected[cells] = basis_gradients(mesh)[cells, corners, 0]
    assert np.array_equal(np.sort(expected[cells]), [-3.0, -3.0, 0.0, 0.0, 3.0, 3.0])
    assert np.array_equal(mesh.divergence(x), expected)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_divergence_compatibility(seed):
    mesh = build_friedrichs_keller(4)
    x = np.random.default_rng(seed).standard_normal(2 * mesh.n_interior)
    div = mesh.divergence(x)
    assert abs(np.sum(mesh.cell_area * div)) < 1e-12


def test_projection_of_constant():
    mesh = build_friedrichs_keller(3)
    p0 = project_p0(lambda x, y: np.full_like(x, 2.5), mesh)
    assert np.allclose(p0.values, 2.5, atol=1e-14)
    p1 = interpolate_p1(lambda x, y: np.full_like(x, 2.5), mesh)
    assert np.allclose(p1.values, 2.5, atol=1e-14)


def test_projection_of_disc_indicator():
    mesh = build_friedrichs_keller(50)
    chi = project_p0(
        lambda x, y: ((x - 0.5) ** 2 + (y - 0.5) ** 2 < 0.25**2).astype(float),
        mesh,
        subdivision_depth=4,
    )
    mass = np.sum(mesh.cell_area * chi.values)
    assert mass == pytest.approx(np.pi / 16.0, abs=1e-3)


def test_projection_exact_for_affine():
    mesh = build_friedrichs_keller(4)
    f = lambda x, y: 1.0 + 2.0 * x - 3.0 * y
    centroids = fk_nodes(4)[fk_triangles(4)].mean(axis=1)
    exact = f(centroids[:, 0], centroids[:, 1])
    for depth in (0, 2):
        assert np.allclose(project_p0(f, mesh, depth).values, exact, atol=1e-13)


def _instance_integrands():
    """The exact instance's three integrands and the one the generic builder projects."""
    passed = []

    def record(f, mesh, depth):
        passed.append(f)
        return project_p0(f, mesh, depth)

    with patch.object(instances, "project_p0", record):
        instances.build_generic_instance(build_friedrichs_keller(1))
    (generic_u_d,) = passed
    return {
        "exact_u_bar": instances.exact_u_bar,
        "exact_f": exact_f_integrand,
        "exact_div_phi_bar": instances.exact_div_phi_bar,
        "generic_u_d": generic_u_d,
    }


PROJECTION_INTEGRANDS = {
    "disc": lambda x, y: ((x - 0.5) ** 2 + (y - 0.5) ** 2 < 0.25**2).astype(float),
    "smooth": lambda x, y: np.sin(3.0 * x) * np.cos(2.0 * y),
    "scalar": lambda x, y: 2.5,
    **_instance_integrands(),
}


@pytest.mark.parametrize("integrand", sorted(PROJECTION_INTEGRANDS))
@pytest.mark.parametrize("depth", [0, 1, 4])
@pytest.mark.parametrize("n", [1, 3, 16, 50, 100])
def test_projection_matches_einsum_bitwise(n, depth, integrand):
    # at depth 4 the blocks are 8 x 8 grid squares, narrower at the last
    # columns and rows when 8 does not divide n (n = 3, 50, 100)
    mesh = build_friedrichs_keller(n)
    f = PROJECTION_INTEGRANDS[integrand]
    chunked = project_p0(f, mesh, depth).values
    assert chunked.tobytes() == project_p0_by_einsum(f, mesh, depth).values.tobytes()


def _projection_calls(n, depth):
    """The x and y of every integrand call of ``project_p0``, and how often it visits each cell."""
    calls, visits = [], np.zeros((3 * n, 3 * n), dtype=int)

    def f(x, y):
        calls.append((x, y))
        # a cell's centroid times 3n is (3i + 2, 3j + 1) or (3i + 1, 3j + 2)
        centroid = np.stack(np.broadcast_arrays(x, y), axis=-1).mean(axis=-2)
        i, j = np.rint(3 * n * centroid).astype(int).reshape(-1, 2).T
        np.add.at(visits, (i, j), 1)
        return x + y

    project_p0(f, build_friedrichs_keller(n), depth)
    return calls, visits


@pytest.mark.parametrize("n, depth, side", [(50, 4, 8), (100, 4, 8), (3, 0, 3), (2, 8, 1)])
def test_projection_evaluates_square_blocks_of_whole_cells(n, depth, side):
    # a grid square holds 2 * 4^depth points: 8 x 8 squares fit in P0_CHUNK_POINTS at
    # depth 4; at depth 8 one square alone holds more, so each call takes one square
    assert side == max(1, min(n, int(np.sqrt(P0_CHUNK_POINTS // (2 * 4**depth)))))
    calls, visits = _projection_calls(n, depth)
    for x, y in calls:
        assert x.flags.c_contiguous and y.flags.c_contiguous
        assert x.shape[0] == 1 and x.shape[1] <= side and x.shape[2:] == (2, 4**depth)
        assert y.shape[1] == 1 and y.shape[0] <= side and y.shape[2:] == (2, 4**depth)
        points = np.prod(np.broadcast_shapes(x.shape, y.shape))
        assert points <= max(P0_CHUNK_POINTS, 2 * 4**depth)
    # every cell exactly once
    cells = np.add.outer(3 * np.arange(n), [[2, 1], [1, 2]])
    assert visits[cells[:, None, 0, 0], cells[None, :, 0, 1]].min() == 1  # lower triangles
    assert visits[cells[:, None, 1, 0], cells[None, :, 1, 1]].min() == 1  # upper triangles
    assert visits.sum() == 2 * n * n


def test_projection_evaluates_each_coordinate_once_per_block():
    # n = 50, depth 4: 7 blocks of 8 (the last of 2) along each axis. A term in
    # x runs on each grid column's 2 * 256 points once per block row, 7 times,
    # where calls on whole grid rows ran it 50 times
    calls, _ = _projection_calls(50, 4)
    assert len(calls) == 49
    assert sum(x.size for x, _ in calls) == 7 * 50 * 512
    assert sum(y.size for _, y in calls) == 7 * 50 * 512


def test_projection_rejects_negative_depth():
    with pytest.raises(ValueError, match="subdivision_depth.*-1"):
        project_p0(lambda x, y: x + y, build_friedrichs_keller(2), -1)


@pytest.mark.parametrize("depth", [2.0, 2.5, True])
def test_projection_rejects_a_non_integer_depth(depth):
    # as Mesh does for n; a NumPy integer passes, and a call with one first
    # must not let 2.0 through the centroids' cache afterwards
    mesh = build_friedrichs_keller(2)
    project_p0(lambda x, y: x + y, mesh, np.int64(2))
    with pytest.raises(TypeError, match=f"must be an integer, got subdivision_depth={depth}"):
        project_p0(lambda x, y: x + y, mesh, depth)


def test_interpolation_dirichlet_forcing():
    mesh = build_friedrichs_keller(4)
    boundary = np.ones(mesh.n_nodes, dtype=bool)
    boundary[fk_interior_nodes(4)] = False
    field = interpolate_p1(lambda x, y: np.cos(np.pi * y), mesh, dirichlet=True)
    assert np.all(field.values[boundary] == 0.0)
    free = interpolate_p1(lambda x, y: np.cos(np.pi * y), mesh)
    assert free.values[boundary].max() == pytest.approx(1.0)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_interpolation_dirichlet_zeroes_exactly_the_border(n):
    # f is nonzero at every node, so the zeros are exactly the forced ones
    mesh = build_friedrichs_keller(n)
    nodes = fk_nodes(n)
    f = lambda x, y: 2.0 + x + 3.0 * y
    field = interpolate_p1(f, mesh, dirichlet=True).values
    on_border = ((nodes == 0.0) | (nodes == 1.0)).any(axis=1)
    assert np.array_equal(field == 0.0, on_border)
    expected = f(nodes[:, 0], nodes[:, 1])
    assert np.array_equal(field[~on_border], expected[~on_border])
    assert np.array_equal(interpolate_p1(f, mesh).values, expected)


def test_p0_norms():
    mesh = build_friedrichs_keller(5)
    ones = P0Field(np.ones(mesh.n_cells))
    assert l2_norm_p0(mesh, ones) == pytest.approx(1.0, abs=1e-14)
    assert l2_error_p0(mesh, ones, ones) == 0.0
    two = P0Field(np.full(mesh.n_cells, 2.0))
    zero = P0Field(np.zeros(mesh.n_cells))
    assert l2_error_p0(mesh, two, zero) == pytest.approx(2.0, abs=1e-14)


def test_p0_norm_shape_mismatch():
    mesh = build_friedrichs_keller(2)
    with pytest.raises(ValueError):
        l2_norm_p0(mesh, np.ones(5))
    with pytest.raises(ValueError):
        l2_error_p0(mesh, np.ones(mesh.n_cells), np.ones(mesh.n_cells - 1))


def test_gradients_sum_to_zero():
    # the basis functions of a cell sum to one; times n the table is every
    # cell's gradients, as computed from its corner coordinates
    assert np.array_equal(CELL_GRADIENTS.sum(axis=1), np.zeros((2, 2)))
    mesh = build_friedrichs_keller(3)
    from_coordinates = basis_gradients(mesh).reshape(-1, 2, 3, 2)
    assert np.allclose(from_coordinates, 3 * CELL_GRADIENTS, rtol=0.0, atol=1e-14)
