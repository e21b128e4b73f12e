import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from oracles import dense_gaussian_solve
from tvcontrol import tv_oracle
from tvcontrol.mesh_fem import build_forms, build_friedrichs_keller
from tvcontrol.sparse_linalg import NotPositiveDefiniteError, solve_spd


def test_identity_solve():
    b = np.array([3.0, -1.0, 0.5])
    assert np.array_equal(solve_spd(sp.eye(3, format="csr"), b), b)


def test_diagonal_solve():
    a = sp.diags([2.0, 4.0]).tocsr()
    x = solve_spd(a, np.array([2.0, 8.0]))
    assert np.allclose(x, [1.0, 2.0], atol=1e-14)


def _random_spd(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return m.T @ m + np.eye(n)


def test_random_spd_matches_dense_elimination():
    a = _random_spd(20, seed=7)
    rng = np.random.default_rng(8)
    b = rng.standard_normal(20)
    x = solve_spd(sp.csr_matrix(a), b)
    assert np.abs(x - dense_gaussian_solve(a, b)).max() < 1e-9


def test_solves_are_bitwise_deterministic():
    a = sp.csr_matrix(_random_spd(30, seed=1))
    b = np.random.default_rng(2).standard_normal(30)
    assert np.array_equal(solve_spd(a, b), solve_spd(a, b))
    fresh = sp.csr_matrix(_random_spd(30, seed=1))
    assert np.array_equal(solve_spd(a, b), solve_spd(fresh, b))


def test_indefinite_matrix_rejected():
    a = sp.diags([1.0, -1.0]).tocsr()
    with pytest.raises(NotPositiveDefiniteError):
        solve_spd(a, np.ones(2))


@pytest.fixture(scope="module")
def forms8():
    return build_forms(build_friedrichs_keller(8))


def _assert_matches_dense(a, b):
    x = solve_spd(a, b)
    expected = np.linalg.solve(a.toarray(), b)
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


def test_oracle_operator_matches_dense(forms8):
    rng = np.random.default_rng(21)
    lam = rng.exponential(size=forms8.n_interior)
    h = (1e-5 * forms8.elasticity + sp.diags(np.repeat(2.0 * lam, 2))).tocsr()
    _assert_matches_dense(h, rng.standard_normal(h.shape[0]))


def test_reduced_newton_system_matches_dense(forms8, monkeypatch):
    systems = []

    def recording_solve(matrix, b):
        systems.append((matrix, b))
        return solve_spd(matrix, b)

    monkeypatch.setattr(tv_oracle, "solve_spd", recording_solve)
    n_int = forms8.n_interior
    rng = np.random.default_rng(22)
    active = np.zeros(n_int, dtype=bool)
    active[::3] = True
    b = forms8.dual_load(rng.standard_normal(forms8.mesh.n_cells))
    tv_oracle._newton_step(
        forms8.elasticity, b, 1e-5, rng.standard_normal(2 * n_int),
        np.where(active, rng.exponential(size=n_int), 0.0), active,
    )
    (reduced, rhs), = systems
    assert reduced.shape[0] == 2 * n_int - active.sum()
    _assert_matches_dense(reduced, rhs)


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
    b = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(solve_spd(a, b), solve_spd(summed, b))


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
        solve_spd(a, np.arange(1.0, a.shape[0] + 1.0))


def test_solve_does_not_use_superlu(monkeypatch):
    def no_splu(*args, **kwargs):
        raise AssertionError("solve_spd must not call SuperLU")

    monkeypatch.setattr(spla, "splu", no_splu)
    a = sp.csr_matrix(_random_spd(10, seed=24))
    b = np.random.default_rng(25).standard_normal(10)
    assert np.abs(a @ solve_spd(a, b) - b).max() < 1e-10


def test_empty_system():
    x = solve_spd(sp.csr_matrix((0, 0)), np.zeros(0))
    assert x.size == 0

