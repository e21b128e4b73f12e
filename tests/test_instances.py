import hashlib
import re
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from oracles import (
    PSI_KNOTS as KNOTS,
    branchwise_div_phi_bar,
    exact_f_integrand,
    exact_phi_bar,
    exact_u_bar,
    fk_interior_nodes,
    fk_nodes,
    fk_triangles,
    generic_u_d_integrand,
    project_p0_by_einsum,
)
from tvcontrol import instances
from tvcontrol.instances import (
    BALL_PERIMETER,
    CERTIFICATE_SCALE,
    PSI_CUBICS,
    PSI_SLOPES,
    REFERENCE_PROFILE_TV,
    ProblemInstance,
    build_exact_instance,
    build_generic_instance,
    exact_div_phi_bar,
    exact_state,
)
from tvcontrol.mesh_fem import _quadrature_blocks, build_friedrichs_keller
from tvcontrol.tv_oracle import discrete_tv

# total variation of 2 pi^2 sin(pi x1) cos(pi x2); adaptive quadrature against
# composite Gauss-Legendre agreed to ~1e-10
GOLDEN_PROFILE_TV = 42.011825912243


def _psi(r):
    """psi and psi' at r by the program's ``_psi_and_prime``, arrays like r."""
    r = np.asarray(r, dtype=float)
    return instances._psi_and_prime(r, np.empty_like(r), np.empty_like(r))


def _divergence_probe_points():
    # the centre, points on each knot and one ulp of x either side, and
    # points off the annulus on both sides of it, on the x axis and a diagonal
    on_axis = [0.5] + [np.nextafter(0.5 + k, side) for k in KNOTS for side in (0.0, 0.5 + k, 1.0)]
    on_axis += [0.55, 0.6, 0.9, 1.0]
    x1 = np.array(on_axis + on_axis)
    x2 = np.concatenate([np.full(len(on_axis), 0.5), np.array(on_axis)])
    return x1, x2


def test_divergence_writes_into_out_bitwise():
    x1, x2 = _divergence_probe_points()
    rho = np.hypot(x1 - 0.5, x2 - 0.5)
    for knot in KNOTS:  # on each knot and a hair either side
        assert (rho == knot).any() and (rho < knot).any() and (rho > knot).any()
        assert np.sort(np.abs(rho - knot))[2] < 1e-15
    assert (rho == 0.0).any() and (rho > KNOTS[2]).sum() >= 4
    expected = branchwise_div_phi_bar(x1, x2)
    buf = np.full(x1.shape, np.nan)
    assert exact_div_phi_bar(x1, x2, out=buf) is buf
    assert buf.tobytes() == exact_div_phi_bar(x1, x2).tobytes() == expected.tobytes()
    # x broadcast against y, as the quadrature blocks pass them
    grid = np.empty((x1.size, x1.size))
    assert exact_div_phi_bar(x1[None], x1[:, None], out=grid) is grid
    assert grid.tobytes() == branchwise_div_phi_bar(x1[None], x1[:, None]).tobytes()
    assert isinstance(exact_div_phi_bar(0.75, 0.5), np.float64)


def test_bump_knot_values():
    value, _ = _psi(KNOTS)
    assert value == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)
    # both cubics agree at the middle knot
    assert np.polyval(PSI_CUBICS[0], 0.25) == pytest.approx(np.polyval(PSI_CUBICS[1], 0.25), abs=1e-12)


def test_bump_knot_derivatives():
    _, slope = _psi(KNOTS)
    assert slope == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)
    # derivative of both branches vanishes at the middle knot
    for cubic_slope in PSI_SLOPES:
        assert np.polyval(cubic_slope, 0.25) == pytest.approx(0.0, abs=1e-12)


def test_bump_outside_support():
    r = np.array([0.01, 0.18, 0.32, 0.49, 0.6, 1.0])
    assert not ((KNOTS[0] <= r) & (r <= KNOTS[2])).any()
    value, slope = _psi(r)
    assert (value == 0.0).all() and (slope == 0.0).all()


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-6, max_value=0.499999))
def test_bump_bounded_by_one(r):
    assert abs(_psi(r)[0]) <= 1.0 + 1e-12


def test_bump_matches_fd():
    rs = np.linspace(0.19, 0.31, 37)
    h = 1e-7
    fd = (_psi(rs + h)[0] - _psi(rs - h)[0]) / (2 * h)
    assert np.abs(fd - _psi(rs)[1]).max() < 1e-5


@pytest.fixture(scope="module")
def exact50():
    mesh = build_friedrichs_keller(50)
    return mesh, build_exact_instance(mesh)


def test_indicator_mass(exact50):
    mesh, inst = exact50
    mass = np.sum(mesh.cell_area * inst.reference_u)
    assert mass == pytest.approx(0.125, abs=1e-3)


def test_certificate_divergence_on_interface():
    # at rho = 1/4: psi' = 0 and psi = 1, so div = -s / rho = -0.04
    assert exact_div_phi_bar(0.75, 0.5) == pytest.approx(-0.04, abs=1e-13)


def test_certificate_divergence_matches_fd():
    rng = np.random.default_rng(0)
    h = 1e-6
    checked = 0
    while checked < 100:
        x, y = rng.uniform(0.2, 0.8, size=2)
        rho = np.hypot(x - 0.5, y - 0.5)
        if not 3 / 16 + 1e-3 < rho < 5 / 16 - 1e-3:
            continue
        dx = (exact_phi_bar(x + h, y)[0] - exact_phi_bar(x - h, y)[0]) / (2 * h)
        dy = (exact_phi_bar(x, y + h)[1] - exact_phi_bar(x, y - h)[1]) / (2 * h)
        assert dx + dy == pytest.approx(exact_div_phi_bar(x, y), abs=1e-6)
        checked += 1


def test_certificate_on_interface_is_scaled_inward_normal():
    s = CERTIFICATE_SCALE
    angles = np.linspace(0.0, 2 * np.pi, 10_000, endpoint=False)
    x = 0.5 + 0.25 * np.cos(angles)
    y = 0.5 + 0.25 * np.sin(angles)
    phi = exact_phi_bar(x, y)
    normal = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    assert np.abs(phi + s * normal).max() < 1e-12
    # the interface is where the sup-norm is attained
    rng = np.random.default_rng(1)
    xs, ys = rng.uniform(0.0, 1.0, size=(2, 10_000))
    norms = np.linalg.norm(exact_phi_bar(xs, ys), axis=-1)
    assert norms.max() <= s + 1e-12


def test_gradient_equation_residual(exact50):
    mesh, inst = exact50
    # rebuild the pieces exactly as the constructor does
    p_bar = np.zeros(mesh.n_nodes)
    interior = fk_interior_nodes(mesh.n)
    p_bar[interior] = exact_state(*fk_nodes(mesh.n)[interior].T)
    p_bar_cells = p_bar[fk_triangles(mesh.n)].mean(axis=1)
    div_phi = project_p0_by_einsum(exact_div_phi_bar, mesh, 4)
    residual = (
        -div_phi
        + p_bar_cells
        + inst.alpha * (inst.reference_u - inst.u_d)
    )
    assert np.abs(residual).max() < 1e-10


def test_exact_instance_tv_of_reference(exact50):
    mesh, inst = exact50
    # the projected indicator's jump TV sees the staircase-inflated perimeter
    # (measured 1.41 at n=50; the continuous TV is exactly 1)
    staircase = discrete_tv(inst.reference_u, mesh)
    assert 1.0 <= staircase <= 1.5


def test_exact_state_fields(exact50):
    mesh, inst = exact50
    # y_d carries the constant (0.1 - 0.8 pi^2) against the state profile
    idx = np.argmax(np.abs(inst.y_d))
    x, y = fk_nodes(mesh.n)[idx]
    coeff = inst.y_d[idx] / (np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))
    assert coeff == pytest.approx(0.1 - 0.8 * np.pi**2, rel=1e-9)


def test_reference_profile_tv_golden():
    gradient_norm = lambda y, x: 2.0 * np.pi**3 * np.sqrt(
        np.cos(np.pi * x) ** 2 * np.cos(np.pi * y) ** 2
        + np.sin(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2
    )
    value, _ = integrate.dblquad(gradient_norm, 0.0, 1.0, 0.0, 1.0, epsabs=1e-11, epsrel=1e-11)
    assert REFERENCE_PROFILE_TV == pytest.approx(value, abs=1e-8)
    assert REFERENCE_PROFILE_TV == pytest.approx(GOLDEN_PROFILE_TV, abs=1e-8)


@pytest.fixture(scope="module")
def generic50():
    mesh = build_friedrichs_keller(50)
    return mesh, build_generic_instance(mesh)


def test_generic_eigenfunction_identity():
    # -Laplace(c sin(pi x1) cos(pi x2)) equals the desired control analytically
    c = 2.0 / REFERENCE_PROFILE_TV
    rng = np.random.default_rng(2)
    for x, y in rng.uniform(0.05, 0.95, size=(50, 2)):
        lap = -2.0 * np.pi**2 * c * np.sin(np.pi * x) * np.cos(np.pi * y)
        u_d = 2.0 * c * np.pi**2 * np.sin(np.pi * x) * np.cos(np.pi * y)
        assert -lap == pytest.approx(u_d, rel=1e-12)


def test_generic_control_statistics(generic50):
    mesh, inst = generic50
    # mean of u_d vanishes by the odd symmetry in x2 about 1/2
    assert np.sum(mesh.cell_area * inst.u_d) == pytest.approx(0.0, abs=1e-12)
    # continuous TV(u_d) = c * TV(profile) = 2 exactly by construction; the
    # edge-jump TV of the projection sees the mesh anisotropy instead
    c = 2.0 / REFERENCE_PROFILE_TV
    assert c * REFERENCE_PROFILE_TV == pytest.approx(2.0, abs=1e-14)
    staircase = discrete_tv(inst.u_d, mesh)
    assert 2.5 <= staircase <= 3.0


def test_generic_y_d_keeps_boundary_values(generic50):
    mesh, inst = generic50
    top = fk_nodes(mesh.n)[:, 1] == 1.0
    assert np.abs(inst.y_d[top]).max() > 0.0


def test_instance_alpha_validated():
    mesh = build_friedrichs_keller(2)
    with pytest.raises(ValueError):
        ProblemInstance(
            mesh=mesh,
            alpha=0.0,
            f=np.zeros(mesh.n_cells),
            u_d=np.zeros(mesh.n_cells),
            y_d=np.zeros(mesh.n_nodes),
            reference_u=None,
            subdivision_depth=4,
        )


def test_instance_stores_lists_as_float_arrays():
    mesh = build_friedrichs_keller(1)
    inst = ProblemInstance(mesh=mesh, alpha=1.0, f=[0, 1], u_d=[2, 3], y_d=[0, 0, 0, 1],
                           reference_u=[1, 0], subdivision_depth=0)
    for values, listed in [(inst.f, [0, 1]), (inst.u_d, [2, 3]), (inst.y_d, [0, 0, 0, 1]),
                           (inst.reference_u, [1, 0])]:
        assert isinstance(values, np.ndarray) and values.dtype == np.float64
        assert values.tolist() == listed


@pytest.mark.parametrize("field, shape, expected", [
    ("y_d", (32,), (25,)),
    ("f", (25,), (32,)),
    ("u_d", (33,), (32,)),
    ("u_d", (16, 2), (32,)),
    ("reference_u", (31,), (32,)),
], ids=["y_d-per-cell", "f-per-node", "u_d-long", "u_d-grid", "reference_u-short"])
def test_instance_rejects_a_field_of_the_wrong_length(field, shape, expected):
    # unchecked, a y_d given per cell fails only deep in the master's set-up
    mesh = build_friedrichs_keller(4)
    fields = {"f": np.zeros(32), "u_d": np.zeros(32), "y_d": np.zeros(25), "reference_u": np.zeros(32)}
    ProblemInstance(mesh=mesh, alpha=1.0, subdivision_depth=4, **fields)
    fields[field] = np.zeros(shape)
    with pytest.raises(ValueError, match=rf"^{field} has shape {re.escape(str(shape))}, "
                                         rf"expected {re.escape(str(expected))}"):
        ProblemInstance(mesh=mesh, alpha=1.0, subdivision_depth=4, **fields)


@pytest.mark.parametrize("alpha", [np.nan, np.inf])
def test_instance_rejects_nonfinite_alpha(alpha):
    with pytest.raises(ValueError, match="alpha"):
        build_generic_instance(build_friedrichs_keller(2), alpha=alpha)


@pytest.mark.parametrize("build", [build_exact_instance, build_generic_instance])
def test_instance_rejects_negative_depth(build):
    with pytest.raises(ValueError, match="subdivision_depth.*-1"):
        build(build_friedrichs_keller(2), subdivision_depth=-1)


def test_indicator_profile():
    assert exact_u_bar(0.5, 0.5) == pytest.approx(1.0 / BALL_PERIMETER)
    assert exact_u_bar(0.9, 0.9) == 0.0


# sha256 of f, u_d, y_d[, reference_u] (concatenated tobytes(), default depth),
# as built with the all-points projection of oracles.project_p0_by_einsum
INSTANCE_SHA256 = {
    (16, "exact"): "84cd8918b8d2d03ac91af6045ba1e7a74f2ad4e516cf4c150022a9f0c50e1c7b",
    (16, "generic"): "20a3a17066ec3fa37a2badf319bbc37a4edbcee8f88c10b404acc28246042784",
    (50, "exact"): "976a4b1681e479c6b7ab240bd6eba0c46becf7371e80d083aaf2c6d4f26fe506",
    (50, "generic"): "67015661cdf0cdba593122d00386b353a4e9885ac12c41f7e9a2fa1dda96b274",
    (100, "exact"): "df931e64d4b64135041d733dc22ac196e746f483adaf6d2c10d72819d7ffa7d7",
    (100, "generic"): "6e4cb78a88f222ddc1c3570e6efdbb81b08880652091d49f42a958d10d0627ad",
}


# the same at other quadrature depths, where the annulus' cells differ
INSTANCE_SHA256_BY_DEPTH = {
    (16, "exact", 0): "135ea469061af3fd2d7a66256025f057e345fa0f3dc9dbc3773186a1b6629168",
    (16, "generic", 0): "7f68dc364192ff55f54ce2c1384d4d7760d7deada6d28a8c843a77441f6d8a6e",
    (16, "exact", 2): "778e82500858ffc5193dbb8784f5119620fd7db1a539eba9230ea8ce4ba9e022",
    (16, "generic", 2): "415bfc5d9b4582dd2882274b6e460aec059df3ce621e0276b508747ac2accd94",
}


def _instance_digest(label, n, depth=4):
    build = {"exact": build_exact_instance, "generic": build_generic_instance}[label]
    inst = build(build_friedrichs_keller(n), subdivision_depth=depth)
    fields = [inst.f, inst.u_d, inst.y_d]
    if inst.reference_u is not None:
        fields.append(inst.reference_u)
    return hashlib.sha256(b"".join(field.tobytes() for field in fields)).hexdigest()


@pytest.mark.parametrize("n, label", sorted(INSTANCE_SHA256))
def test_instance_bytes_are_pinned(n, label):
    assert _instance_digest(label, n) == INSTANCE_SHA256[n, label]


@pytest.mark.parametrize("n, label, depth", sorted(INSTANCE_SHA256_BY_DEPTH))
def test_instance_bytes_are_pinned_at_other_depths(n, label, depth):
    assert _instance_digest(label, n, depth) == INSTANCE_SHA256_BY_DEPTH[n, label, depth]


@pytest.mark.parametrize("label", ["exact", "generic"])
def test_numpy_integer_depth_gives_the_same_instance(label):
    # stored as a Python int, with the bytes of depth 2
    assert _instance_digest(label, 16, np.int64(2)) == INSTANCE_SHA256_BY_DEPTH[16, label, 2]
    build = {"exact": build_exact_instance, "generic": build_generic_instance}[label]
    depth = build(build_friedrichs_keller(2), subdivision_depth=np.int64(2)).subdivision_depth
    assert type(depth) is int and depth == 2


@pytest.mark.parametrize("depth", [2.0, 2.5, True])
@pytest.mark.parametrize("build", [build_exact_instance, build_generic_instance])
def test_instance_rejects_a_non_integer_depth(build, depth):
    build(build_friedrichs_keller(2), subdivision_depth=np.int64(2))
    with pytest.raises(TypeError, match=f"must be an integer, got subdivision_depth={depth}"):
        build(build_friedrichs_keller(2), subdivision_depth=depth)


@pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 12, 16, 50, 100])
def test_one_pass_exact_projections_match_einsum_bitwise(n, depth):
    mesh = build_friedrichs_keller(n)
    one_pass = instances._exact_projections(mesh, depth)
    for values, integrand in zip(one_pass, [exact_u_bar, exact_f_integrand, exact_div_phi_bar]):
        assert values.tobytes() == project_p0_by_einsum(integrand, mesh, depth).tobytes()


def test_divergence_evaluated_near_its_annulus_only():
    # psi vanishes off 3/16 <= rho <= 5/16. The per-axis bounds on rho put
    # 1168 cells of the n = 50 mesh near it (1140 hold a point in it), and
    # the divergence runs on their 4^depth points only, in one call per block
    points = []

    def counting(x1, x2, out=None):
        points.append(np.broadcast(x1, x2).size)
        return exact_div_phi_bar(x1, x2, out=out)

    with patch.object(instances, "exact_div_phi_bar", counting):
        build_exact_instance(build_friedrichs_keller(50), subdivision_depth=4)
    assert sum(points) == 1168 * 4**4 == 299_008
    assert len(points) <= len(_quadrature_blocks(build_friedrichs_keller(50), 4)[2])


@pytest.mark.parametrize("depth", [0, 1, 4])
@pytest.mark.parametrize("n", [1, 3, 16, 50, 100])
def test_generic_u_d_matches_einsum_bitwise(n, depth):
    mesh = build_friedrichs_keller(n)
    u_d = build_generic_instance(mesh, subdivision_depth=depth).u_d
    assert u_d.tobytes() == project_p0_by_einsum(generic_u_d_integrand, mesh, depth).tobytes()


def test_generic_factors_evaluated_once_per_grid_line():
    # each factor runs once per build on the n x 2 x 4^depth = 25 600 points
    # of its grid columns or rows, not once per block of cells (7 x 25 600)
    points = {"x": [], "y": []}

    def counting(axis, factor):
        def count(values):
            points[axis].append(np.size(values))
            return factor(values)
        return count

    with patch.object(instances, "generic_u_d_x", counting("x", instances.generic_u_d_x)), \
            patch.object(instances, "generic_u_d_y", counting("y", instances.generic_u_d_y)):
        build_generic_instance(build_friedrichs_keller(50), subdivision_depth=4)
    assert points == {"x": [25_600], "y": [25_600]}


def _build_peak_bytes(n):
    mesh = build_friedrichs_keller(n)
    tracemalloc.start()
    try:
        build_exact_instance(mesh)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exact_build_memory_does_not_grow_with_quadrature_points():
    # the all-points projection peaked at 351 MB at n = 100, 4x its n = 50 peak
    peak50, peak100 = _build_peak_bytes(50), _build_peak_bytes(100)
    assert peak100 < 16e6
    assert peak100 <= 2 * peak50
