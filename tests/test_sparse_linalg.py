import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from oracles import dense_gaussian_solve
from tvcontrol.sparse_linalg import (
    NotPositiveDefiniteError,
    SingularBorderError,
    solve_bordered,
    solve_spd,
)


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


def _solve_bordered(base, border, rhs, block=None, ids=None):
    """solve_bordered with a dense base factored here; zero block and ids 0..m-1 by default."""
    base = sp.csr_matrix(base)
    m = border.shape[1]
    block = np.zeros((m, m)) if block is None else block
    ids = list(range(m)) if ids is None else ids
    return solve_bordered(base, spla.splu(base.tocsc()), border, block, rhs, ids)


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


def test_empty_system():
    x = solve_spd(sp.csr_matrix((0, 0)), np.zeros(0))
    assert x.size == 0


def test_bordered_empty_border_matches_spd():
    a = _random_spd(12, seed=3)
    b = np.random.default_rng(4).standard_normal(12)
    x, mu = _solve_bordered(a, np.zeros((12, 0)), b)
    assert mu.size == 0
    assert np.abs(x - solve_spd(sp.csr_matrix(a), b)).max() < 1e-9


def test_bordered_two_by_two_by_hand():
    x, mu = _solve_bordered(np.array([[1.0]]), np.array([[1.0]]), np.array([1.0, 0.5]))
    assert x[0] == pytest.approx(0.5, abs=1e-12)
    assert mu[0] == pytest.approx(0.5, abs=1e-12)


def test_bordered_matches_dense_oracle():
    n, m = 15, 3
    base = _random_spd(n, seed=11)
    rng = np.random.default_rng(12)
    border = rng.standard_normal((n, m))
    block = -np.eye(m) * 0.5
    rhs = rng.standard_normal(n + m)
    full = np.block([[base, border], [border.T, block]])
    expected = dense_gaussian_solve(full, rhs)
    x, mu = _solve_bordered(base, border, rhs, block)
    assert np.abs(np.concatenate([x, mu]) - expected).max() < 1e-8


def test_duplicate_borders_fail_with_ids():
    base = _random_spd(6, seed=5)
    col = np.random.default_rng(6).standard_normal((6, 1))
    with pytest.raises(SingularBorderError, match=r"4.*9"):
        _solve_bordered(base, np.hstack([col, col]), np.ones(8), ids=[4, 9])


def test_bordered_rhs_length_checked():
    with pytest.raises(ValueError):
        _solve_bordered(np.eye(3), np.ones((3, 1)), np.ones(3))
