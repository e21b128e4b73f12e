import ctypes
import hashlib
import os
import re
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from oracles import (
    dense_gaussian_solve,
    dense_reduced_newton_band,
    interior_elasticity,
    lower_band,
    solve_sparse_spd,
)
from tvcontrol import sparse_linalg, tv_oracle
from tvcontrol.mesh_fem import build_friedrichs_keller
from tvcontrol.sparse_linalg import NotPositiveDefiniteError, solve_spd


def test_identity_solve():
    b = np.array([3.0, -1.0, 0.5])
    band = lower_band(np.arange(3), np.arange(3), np.ones(3), 3)
    assert band.shape == (1, 3)
    assert np.array_equal(solve_spd(band, b), b)


def test_diagonal_solve():
    x = solve_sparse_spd(sp.diags([2.0, 4.0]).tocsr(), np.array([2.0, 8.0]))
    assert np.allclose(x, [1.0, 2.0], atol=1e-14)


def _random_spd(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return m.T @ m + np.eye(n)


def test_random_spd_matches_dense_elimination():
    a = _random_spd(20, seed=7)
    rng = np.random.default_rng(8)
    b = rng.standard_normal(20)
    x = solve_sparse_spd(sp.csr_matrix(a), b)
    assert np.abs(x - dense_gaussian_solve(a, b)).max() < 1e-9


def test_solves_are_bitwise_deterministic():
    a = sp.csr_matrix(_random_spd(30, seed=1))
    b = np.random.default_rng(2).standard_normal(30)
    assert np.array_equal(solve_sparse_spd(a, b), solve_sparse_spd(a, b))
    fresh = sp.csr_matrix(_random_spd(30, seed=1))
    assert np.array_equal(solve_sparse_spd(a, b), solve_sparse_spd(fresh, b))


def test_indefinite_matrix_rejected():
    a = sp.diags([1.0, -1.0]).tocsr()
    with pytest.raises(NotPositiveDefiniteError):
        solve_sparse_spd(a, np.ones(2))


@pytest.fixture(scope="module")
def mesh8():
    return build_friedrichs_keller(8)


@pytest.mark.parametrize("pattern", [slice(None, None, 3), slice(0)], ids=["third", "none"])
def test_newton_step_checks_the_reduced_residual(mesh8, monkeypatch, pattern):
    # a band solve that is off by 1e-6 in every entry must not pass unnoticed
    def wrong_solve(*args):
        return solve_spd(*args) + 1e-6

    n_int = mesh8.n_interior
    rng = np.random.default_rng(27)
    b = mesh8.dual_load(rng.standard_normal(mesh8.n_cells))
    active = np.zeros(n_int, dtype=bool)
    active[pattern] = True
    x = rng.standard_normal(2 * n_int)
    lam = np.where(active, rng.exponential(size=n_int), 0.0)
    tv_oracle._newton_step(mesh8, b, 1e-5, x, lam, active)
    monkeypatch.setattr(tv_oracle, "solve_spd", wrong_solve)
    with pytest.raises(NotPositiveDefiniteError, match="residual"):
        tv_oracle._newton_step(mesh8, b, 1e-5, x, lam, active)


def _assert_matches_dense(a, b):
    x = solve_sparse_spd(a, b)
    expected = np.linalg.solve(a.toarray(), b)
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("n, rel_tol", [(2, 1e-15), (3, 1e-14), (8, 1e-15), (16, 1e-15),
                                        (50, 1e-14), (100, 1e-14)])
def test_oracle_operator_matches_dense(n, rel_tol):
    # the band written from the node blocks with no node rotated and every dof
    # kept is the band of the lower entries of eps * A + 2 diag(lambda), with A
    # the per-cell elasticity: the same entries up to its sums' rounding, which
    # gives 14500.000000000018 on A's diagonal at n = 50 where the closed-form
    # blocks have 14500.000000000002
    mesh = build_friedrichs_keller(n)
    rng = np.random.default_rng(21)
    n_int = mesh.n_interior
    identity = np.array([np.ones(n_int), np.zeros(n_int)])
    kept = np.ones((n_int, 2), dtype=bool)
    elasticity = interior_elasticity(mesh)
    for scale, lam in [(1.0, np.zeros(n_int)), (1e-5, rng.exponential(size=n_int))]:
        h = (scale * elasticity + sp.diags(np.repeat(2.0 * lam, 2))).tocoo()
        band = mesh.elasticity_band(scale, 2.0 * lam, identity, kept)
        expected = lower_band(h.row, h.col, h.data, h.shape[0])
        assert band.shape == expected.shape
        assert np.array_equal(band != 0.0, expected != 0.0)
        assert np.abs(band - expected).max() <= rel_tol * np.abs(expected).max()
    if n <= 16:
        _assert_matches_dense(h.tocsr(), rng.standard_normal(h.shape[0]))


def test_reduced_newton_system_matches_dense(mesh8, monkeypatch):
    bands = []

    def recording_solve(band, rhs):
        bands.append(band.copy())
        return solve_spd(band, rhs)

    monkeypatch.setattr(tv_oracle, "solve_spd", recording_solve)
    n_int = mesh8.n_interior
    rng = np.random.default_rng(22)
    b = mesh8.dual_load(rng.standard_normal(mesh8.n_cells))
    elasticity = interior_elasticity(mesh8)
    for pattern in (slice(None, None, 3), slice(0), slice(None)):  # every third, none, all
        active = np.zeros(n_int, dtype=bool)
        active[pattern] = True
        x = rng.standard_normal(2 * n_int)
        lam = np.where(active, rng.exponential(size=n_int), 0.0)
        tv_oracle._newton_step(mesh8, b, 1e-5, x, lam, active)
        band = bands.pop()
        # radial projection keeps each tangent, so Z can be built from x itself
        expected = dense_reduced_newton_band(elasticity, 1e-5, x, lam, active)
        assert band.shape == expected.shape
        assert band.shape[1] == 2 * n_int - active.sum()
        assert np.linalg.norm(band - expected) <= 1e-14 * np.linalg.norm(expected)


#: sha256 of the bands of ``_pinned_bands``: the oracle's Newton bands for seeded
#: points, multipliers and active sets, the only bands a run factors. They pin
#: the arithmetic order of the fill, which the solves' bytes depend on; recorded
#: when the bands were filled from stored node blocks and node index arithmetic
BAND_SHA256 = {
    (8, "newton"): "6624b6dd3a98621b6fe0b0903f1ba9e4c4e827f721c29a8be358abab90078016",
    (50, "newton"): "159b627bb21bd4b37921e37797b626a8af282368df3f3f9b96722a696ddbbad0",
}


def _pinned_bands(n, monkeypatch):
    """The bands three Newton steps factor, as they reach LAPACK."""
    mesh = build_friedrichs_keller(n)
    bands = []

    def recording(band, *args):
        bands.append(band.copy())
        return solve_spd(band, *args)

    monkeypatch.setattr(tv_oracle, "solve_spd", recording)
    n_int = mesh.n_interior
    rng = np.random.default_rng(n)
    b = mesh.dual_load(rng.standard_normal(mesh.n_cells))
    for share in (0.0, 0.3, 1.0):  # of the nodes active
        active = rng.random(n_int) < share
        x = rng.standard_normal(2 * n_int)
        # negative multipliers enter the operator as 0
        lam = np.where(active, rng.standard_normal(n_int), 0.0)
        tv_oracle._newton_step(mesh, b, 1e-5, x, lam, active)
    return bands


@pytest.mark.parametrize("n, kind", sorted(BAND_SHA256))
def test_band_bytes_are_pinned(n, kind, monkeypatch):
    bands = _pinned_bands(n, monkeypatch)
    assert len(bands) == 3
    digest = hashlib.sha256()
    for band in bands:
        digest.update(repr(band.shape).encode())
        digest.update(band.tobytes())
    assert digest.hexdigest() == BAND_SHA256[n, kind]


def _public_sparse_classes():
    return [
        cls for cls in vars(sp).values()
        if isinstance(cls, type) and issubclass(cls, (sp.spmatrix, sp.sparray))
        and cls not in (sp.spmatrix, sp.sparray)
    ]


def test_newton_steps_build_no_sparse_matrix(mesh8, monkeypatch):
    # every public scipy.sparse class records its constructions inside a step
    built, inside = [], []
    newton_step = tv_oracle._newton_step

    def tracked_step(*args):
        inside.append(True)
        try:
            return newton_step(*args)
        finally:
            inside.pop()

    def tracking(init):
        def tracked_init(self, *args, **kwargs):
            if inside:
                built.append(type(self).__name__)
            init(self, *args, **kwargs)
        return tracked_init

    classes = _public_sparse_classes()
    assert sp.csr_matrix in classes and sp.dia_matrix in classes
    for cls, init in [(cls, cls.__init__) for cls in classes]:
        monkeypatch.setattr(cls, "__init__", tracking(init))
    monkeypatch.setattr(tv_oracle, "_newton_step", tracked_step)
    rng = np.random.default_rng(26)
    res = tv_oracle.eval_tv_eps(rng.standard_normal(mesh8.n_cells), 1e-6, mesh8)
    assert res.inner_iterations > 1 and res.ball_state.active_nodes.any()
    assert built == []
    # the tracking sees sparse matrices where they are built
    inside.append(True)
    sp.diags(np.ones(3)).tocsr()
    assert "csr_matrix" in built


def test_full_bandwidth_arrow_matrix():
    size = 25
    a = np.diag(np.full(size, float(size)))
    a[0, 1:] = a[1:, 0] = 1.0
    _assert_matches_dense(sp.csr_matrix(a), np.random.default_rng(23).standard_normal(size))


def test_duplicate_entries_are_summed():
    # rows of [[4, 1, 0], [1, 5, 2], [0, 2, 6]]; the diagonal and both
    # off-diagonal pairs (0, 1), (1, 0) are split into unsorted duplicates
    data = np.array([3.0, 0.5, 1.0, 0.5, 0.25, 5.0, 2.0, 0.75, 2.0, 2.0, 4.0])
    indices = np.array([0, 1, 0, 1, 0, 1, 2, 0, 1, 2, 2])
    indptr = np.array([0, 4, 8, 11])
    a = sp.csr_matrix((data, indices, indptr), shape=(3, 3))
    assert not a.has_canonical_format
    summed = a.copy()
    summed.sum_duplicates()
    assert np.array_equal(summed.toarray(), [[4.0, 1.0, 0.0], [1.0, 5.0, 2.0], [0.0, 2.0, 6.0]])
    coo, canonical = a.tocoo(), summed.tocoo()
    assert coo.nnz > canonical.nnz
    assert np.array_equal(
        lower_band(coo.row, coo.col, coo.data, 3),
        lower_band(canonical.row, canonical.col, canonical.data, 3),
    )
    b = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(solve_sparse_spd(a, b), solve_sparse_spd(summed, b))


def _path_laplacian(size):
    """Pure-Neumann graph Laplacian of a path: singular, constants span its null space."""
    return sp.diags([-np.ones(size - 1), np.r_[1.0, np.full(size - 2, 2.0), 1.0],
                     -np.ones(size - 1)], [-1, 0, 1])


@pytest.mark.parametrize("a", [
    _path_laplacian(6),
    np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 3.0]]),
], ids=["singular_laplacian", "indefinite_coupled"])
def test_not_positive_definite_rejected(a):
    a = sp.csr_matrix(a)
    with pytest.raises(NotPositiveDefiniteError):
        solve_sparse_spd(a, np.arange(1.0, a.shape[0] + 1.0))


def test_solve_does_not_use_superlu(monkeypatch):
    def no_splu(*args, **kwargs):
        raise AssertionError("solve_spd must not call SuperLU")

    monkeypatch.setattr(spla, "splu", no_splu)
    a = sp.csr_matrix(_random_spd(10, seed=24))
    b = np.random.default_rng(25).standard_normal(10)
    assert np.abs(a @ solve_sparse_spd(a, b) - b).max() < 1e-10


def test_empty_system():
    empty = np.zeros(0, dtype=int)
    band = lower_band(empty, empty, np.zeros(0), 0)
    x = solve_spd(band, np.zeros(0))
    assert x.size == 0


def _second_difference_band():
    """Lower band of tridiag(-1, 2, -1) on three unknowns."""
    return np.array([[2.0, 2.0, 2.0], [-1.0, -1.0, 0.0]])


@pytest.mark.parametrize("length", [2, 4])
def test_solve_rejects_a_right_hand_side_of_another_length(length):
    # LAPACK's dpbtrs does not check the length of b; the check comes before
    # the factorization, so a band it could overwrite in place is left as it was
    band = np.asfortranarray(_second_difference_band())
    with pytest.raises(ValueError, match="3 unknowns"):
        solve_spd(band, np.ones(length))
    assert np.array_equal(band, _second_difference_band())
    assert np.allclose(solve_spd(band, np.ones(3)), [1.5, 2.0, 1.5], rtol=0.0, atol=1e-15)


def test_solve_raises_when_the_triangular_solves_fail(monkeypatch):
    monkeypatch.setattr(sparse_linalg, "dpbtrs", lambda factor, b: (b, -2))
    with pytest.raises(ValueError, match="info -2"):
        solve_spd(_second_difference_band(), np.ones(3))


def test_factor_names_the_first_nonpositive_leading_minor():
    # lower band of [[1, 2, 0], [2, 1, 0], [0, 0, 3]], whose second leading minor is -3
    with pytest.raises(NotPositiveDefiniteError, match="2-th leading minor"):
        solve_spd(np.array([[1.0, 1.0, 3.0], [2.0, 0.0, 0.0]]), np.ones(3))


def test_factor_rejects_a_band_lapack_refuses(monkeypatch):
    monkeypatch.setattr(sparse_linalg, "dpbtrf", lambda band: (band, -3))
    with pytest.raises(ValueError, match="argument 3") as raised:
        solve_spd(_second_difference_band(), np.ones(3))
    assert not isinstance(raised.value, NotPositiveDefiniteError)


@pytest.mark.parametrize("shape", [(0, 0), (1, 0)])
def test_empty_band_never_reaches_lapack(monkeypatch, shape):
    # LAPACK may reject the zero leading dimension of an empty band or b
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called on an empty system")

    monkeypatch.setattr(sparse_linalg, "dpbtrf", refuse)
    monkeypatch.setattr(sparse_linalg, "dpbtrs", refuse)
    band = np.zeros(shape)
    x = solve_spd(band, np.zeros(0))
    assert x.shape == (0,) and x.dtype == float
    assert solve_spd(band, np.zeros((0, 2))).shape == (0, 2)
    with pytest.raises(ValueError, match="0 unknowns"):
        solve_spd(band, np.ones(1))


def test_loader_names_the_library_it_did_not_find(monkeypatch, tmp_path):
    # a scipy package with no scipy.libs directory beside it
    scipy_dir = tmp_path / "scipy"
    monkeypatch.setattr(sparse_linalg, "find_spec",
                        lambda name: SimpleNamespace(submodule_search_locations=[str(scipy_dir)]))
    pattern = os.path.join(f"{scipy_dir}.libs", "libscipy_openblas*.so")
    with pytest.raises(ImportError, match=re.escape(pattern)):
        sparse_linalg._openblas()
    monkeypatch.setattr(sparse_linalg, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match="no scipy package"):
        sparse_linalg._openblas()


def test_loader_names_the_routine_it_did_not_find():
    with pytest.raises(ImportError, match="scipy_dpbtrx_ in .*libscipy_openblas"):
        sparse_linalg._routine(sparse_linalg._lapack, "dpbtrx", 5)


def test_loader_names_the_prefixed_symbol_a_library_lacks():
    # a LAPACK without scipy-openblas's prefix, here the process's own
    # symbols, fails at import, naming the LP64 symbol the binding needs
    with pytest.raises(ImportError, match="no LAPACK routine scipy_dpbtrf_ in "):
        sparse_linalg._routine(ctypes.CDLL(None), "dpbtrf", 5)
