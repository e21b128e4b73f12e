import hashlib
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
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
    P0_CHUNK_POINTS,
    REFERENCE_PROFILE_TV,
    ProblemInstance,
    build_exact_instance,
    build_generic_instance,
    exact_div_phi_bar,
    exact_state,
)
from tvcontrol.mesh_fem import _quadrature_points, build_friedrichs_keller
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


def test_divergence_matches_branchwise_bitwise():
    x1, x2 = _divergence_probe_points()
    rho = np.hypot(x1 - 0.5, x2 - 0.5)
    for knot in KNOTS:  # on each knot and a hair either side
        assert (rho == knot).any() and (rho < knot).any() and (rho > knot).any()
        assert np.sort(np.abs(rho - knot))[2] < 1e-15
    assert (rho == 0.0).any() and (rho > KNOTS[2]).sum() >= 4
    assert exact_div_phi_bar(x1, x2).tobytes() == branchwise_div_phi_bar(x1, x2).tobytes()
    # x broadcast against y
    grid = exact_div_phi_bar(x1[None], x1[:, None])
    assert grid.shape == (x1.size, x1.size)
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


@pytest.mark.parametrize("alpha", [True, np.bool_(True), "1.0", 1j, None])
@pytest.mark.parametrize("build", [build_exact_instance, build_generic_instance])
def test_instance_rejects_a_non_real_alpha(build, alpha):
    # as SolverConfig does: a bool alpha would otherwise build and solve as 1.0
    with pytest.raises(TypeError, match=f"must be a real number, got alpha={re.escape(repr(alpha))}"):
        build(build_friedrichs_keller(2), alpha=alpha)


@pytest.mark.parametrize("alpha", [2, np.int64(2), np.float32(2.0)])
def test_instance_stores_alpha_as_a_python_float(alpha):
    inst = build_exact_instance(build_friedrichs_keller(2), alpha=alpha)
    assert type(inst.alpha) is float and inst.alpha == 2.0


@pytest.mark.parametrize("alpha", [0.0, -0.0, -1.0, np.nan, np.inf])
def test_instance_rejects_nonfinite_alpha(alpha):
    # before u_d divides by it: a zero alpha would warn first, and under
    # warnings as errors the warning would replace this ValueError
    for build in (build_exact_instance, build_generic_instance):
        with pytest.raises(ValueError, match=f"^alpha must be positive and finite, got {alpha}$"):
            build(build_friedrichs_keller(2), alpha=alpha)


@pytest.mark.parametrize("build", [build_exact_instance, build_generic_instance])
def test_instance_rejects_negative_depth(build):
    with pytest.raises(ValueError, match="subdivision_depth.*-1"):
        build(build_friedrichs_keller(2), subdivision_depth=-1)


def test_problem_instance_rejects_negative_depth():
    # as SolverConfig and the quadrature do, with their message
    mesh = build_friedrichs_keller(1)
    fields = {"f": np.zeros(2), "u_d": np.zeros(2), "y_d": np.zeros(4), "reference_u": None}
    assert ProblemInstance(mesh=mesh, alpha=1.0, subdivision_depth=0, **fields).subdivision_depth == 0
    with pytest.raises(ValueError, match="^subdivision_depth must be nonnegative, got -1$"):
        ProblemInstance(mesh=mesh, alpha=1.0, subdivision_depth=-1, **fields)


def test_indicator_profile():
    assert exact_u_bar(0.5, 0.5) == pytest.approx(1.0 / BALL_PERIMETER)
    assert exact_u_bar(0.9, 0.9) == 0.0


# sha256 of f, u_d, y_d[, reference_u] (concatenated tobytes(), default depth),
# as built by the code: f and the generic u_d agree with the all-points
# projection of oracles.project_p0_by_einsum to rounding, the rest bitwise
INSTANCE_SHA256 = {
    (16, "exact"): "74f395604696abcedf5cd96b139900cda9898d1dfe27ba0758273613da16f5a4",
    (16, "generic"): "f7e765f101aab6fc0d4977c8d669a84eaacdb51b2c2edd704705fb12c616b222",
    (50, "exact"): "fcd48c7a08d6f39673f931f33f78b769c97220e375c6f19c057ee84da1cf357c",
    (50, "generic"): "9ab75eaddb8e38bf88b11a1911563edc8608b559a260fcc3f140edf779d836ce",
    (100, "exact"): "f554024b99f0d3637f561f068f2c765dcb9cb71b2af331668b1a6beb03dc9019",
    (100, "generic"): "c3b2bf71dfbeebb350cc046c547faec51fc76778f198afded568b6f23bef45b3",
}


# the same at other quadrature depths, where the annulus' cells differ
INSTANCE_SHA256_BY_DEPTH = {
    (16, "exact", 0): "135ea469061af3fd2d7a66256025f057e345fa0f3dc9dbc3773186a1b6629168",
    (16, "generic", 0): "7f68dc364192ff55f54ce2c1384d4d7760d7deada6d28a8c843a77441f6d8a6e",
    (16, "exact", 2): "dc09bd433f1d3d68d55df12a94742c563d10d94e9b0b94b0b89dab60faa274ad",
    (16, "generic", 2): "70844553264028866635f98ee98b7ddd9307f78e25ab2999768320a314f7e7d4",
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


@pytest.mark.parametrize("n, depth", [(n, depth) for n in (1, 2, 3, 4, 8, 12, 16, 50, 100)
                                      for depth in range(5)] + [(2, 8)])
def test_one_pass_exact_projections_match_einsum_bitwise(n, depth):
    # u_bar and the divergence bitwise; f sums its smooth part in einsum's
    # order, not the pairwise mean's, so it agrees to rounding. At depth 8
    # a cell holds more than P0_CHUNK_POINTS points, so each chunk is one cell
    mesh = build_friedrichs_keller(n)
    u_bar, f, div_phi = instances._exact_projections(mesh, depth)
    for values, integrand in [(u_bar, exact_u_bar), (div_phi, exact_div_phi_bar)]:
        assert values.tobytes() == project_p0_by_einsum(integrand, mesh, depth).tobytes()
    _assert_close_in_max_norm(f, project_p0_by_einsum(exact_f_integrand, mesh, depth))


def _assert_close_in_max_norm(values, reference):
    assert np.abs(values - reference).max() <= 4e-15 * np.abs(reference).max()


def test_divergence_evaluated_near_its_annulus_only():
    # psi vanishes off 3/16 <= rho <= 5/16. The per-axis bounds on rho put
    # 1168 cells of the n = 50 mesh near it (1140 hold a point in it), and
    # the divergence runs on their 4^depth points only, one call per chunk
    points = []

    def counting(x1, x2):
        points.append(np.broadcast(x1, x2).size)
        return exact_div_phi_bar(x1, x2)

    with patch.object(instances, "exact_div_phi_bar", counting):
        build_exact_instance(build_friedrichs_keller(50), subdivision_depth=4)
    assert sum(points) == 1168 * 4**4 == 299_008
    assert len(points) <= -(-1168 // (P0_CHUNK_POINTS // 4**4))


@pytest.mark.parametrize("n, depth", [(50, 4), (100, 4), (3, 0), (2, 8)])
def test_projection_evaluates_each_gathered_cell_once_in_chunks(n, depth):
    # one walk over the cells whose rho bounds (1e-12 margin) meet psi's
    # support, in row-major order and in chunks of at most P0_CHUNK_POINTS
    # points, or of one cell where a cell holds more. It must hold every
    # cell whose points straddle the disc's circle, whose u_bar it also takes
    mesh, q = build_friedrichs_keller(n), 4**depth
    x, y = _quadrature_points(mesh, depth)
    dx, dy = np.abs(x - 0.5), np.abs(y - 0.5)
    near = np.hypot(dy.min(axis=-1)[:, None], dx.min(axis=-1)[None])
    far = np.hypot(dy.max(axis=-1)[:, None], dx.max(axis=-1)[None])
    walked = (far >= 3 / 16 - 1e-12) & (near <= 5 / 16 + 1e-12)
    j, i, t = np.nonzero(walked)
    x_walked, y_walked, calls = x[i, t], y[j, t], []

    def recording(x1, x2):
        done, size = sum(calls), len(x1)
        assert x1.shape == x2.shape == (size, q)
        assert (x1 == x_walked[done:done + size]).all() and (x2 == y_walked[done:done + size]).all()
        calls.append(size)
        return exact_div_phi_bar(x1, x2)

    with patch.object(instances, "exact_div_phi_bar", recording):
        instances._exact_projections(mesh, depth)
    assert sum(calls) == i.size > 0
    assert all(0 < size * q <= max(P0_CHUNK_POINTS, q) for size in calls)
    for row in range(n):  # a row of cells at a time: (n, 2, q) points
        inner = (x - 0.5) ** 2 + (y[row] - 0.5) ** 2 < 0.25**2
        straddles = inner.any(axis=-1) & ~inner.all(axis=-1)
        assert (walked[row] | ~straddles).all()


@pytest.mark.parametrize("depth", [0, 1, 4])
@pytest.mark.parametrize("n", [1, 3, 16, 50, 100])
def test_generic_u_d_matches_einsum_bitwise(n, depth):
    # to rounding: the contraction sums in einsum's order
    mesh = build_friedrichs_keller(n)
    u_d = build_generic_instance(mesh, subdivision_depth=depth).u_d
    _assert_close_in_max_norm(u_d, project_p0_by_einsum(generic_u_d_integrand, mesh, depth))


@pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 3, 16])
def test_separable_means_are_the_means_of_the_products(n, depth):
    rng = np.random.default_rng(16 * n + depth)
    f_x, g_y = rng.standard_normal((2, n, 2, 4**depth))
    products = f_x[None] * g_y[:, None]  # (row, column, triangle, point)
    means = instances._separable_means(f_x, g_y)
    assert means.shape == (n, n, 2)
    # two orders of one sum: within 4 ulp of the largest term
    assert np.abs(means - products.mean(axis=-1)).max() <= 4 * np.spacing(np.abs(products).max())


def test_separable_means_independent_of_blas_threads():
    # einsum's own loops make the contraction: no BLAS call, whose
    # threading could change the order of the sums
    script = ("import hashlib, numpy as np; from tvcontrol import instances; "
              "f, g = np.random.default_rng(0).standard_normal((2, 50, 2, 256)); "
              "print(hashlib.sha256(instances._separable_means(f, g).tobytes()).hexdigest())")
    src = str(Path(instances.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        digests.append(subprocess.run([sys.executable, "-c", script], capture_output=True,
                                      check=True, env=env, text=True).stdout)
    assert len(digests[0].strip()) == 64
    assert digests[0] == digests[1]


def test_generic_factors_evaluated_once_per_grid_line():
    # each factor runs once per build on the n x 2 x 4^depth = 25 600 points
    # of its grid columns or rows
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


def test_exact_build_memory_at_n100():
    # 2.4 MB measured: the walk gathers one chunk of cells at a time, where
    # gathering square blocks of cells into buffers kept per build took 5.2 MB
    assert _build_peak_bytes(100) <= 3.0e6
