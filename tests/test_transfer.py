import numpy as np
import pytest

from spinlattice import Transfer, generate, j_power_factor, lambda_grid
from spinlattice.errors import PoleError


@pytest.fixture
def transfer(small_triple):
    return Transfer(generate(small_triple, 12))


def grid(triple):
    return lambda_grid(triple.alpha, count=8)


def test_j_power_factor_closed_form():
    out = j_power_factor(2.0 + 1j, 3, 2)
    lam = 2.0 + 1j
    assert out[0, 0] == pytest.approx((1 - 1j / lam) ** 3)
    assert out[2, 2] == pytest.approx((1 + 1j / lam) ** 3)
    assert np.count_nonzero(out - np.diag(np.diag(out))) == 0


def test_pole_rejection(small_triple, transfer):
    eig = np.linalg.eigvals(small_triple.alpha)[0]
    with pytest.raises(PoleError):
        transfer.w(2, eig)


def test_identity_residual(small_triple, transfer):
    for lam in grid(small_triple):
        for n in range(8):
            assert transfer.identity_residual(n, lam) <= 1e-9


def test_inverse_product(small_triple, transfer):
    for lam in grid(small_triple):
        for n in range(8):
            assert transfer.unitarity_residual(n, lam) <= 1e-9


def test_fundamental_normalized_at_zero(small_triple, transfer):
    lam = 2.0 - 1.5j
    assert np.allclose(transfer.fundamental(0, lam), np.eye(2 * small_triple.m))


def test_w_makes_one_solve_per_distinct_point(transfer, monkeypatch):
    """The resolvent is the only solve of W(n, lambda): Sigma_n^{-1} Lambda_n
    comes with the state, and repeated points come from the cache."""
    solves = []
    solve = np.linalg.solve

    def counted(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    points = [(n, lam) for n in range(13) for lam in (2.0 - 1.5j, 3j)]
    for n, lam in points + points:
        transfer.w(n, lam)
    assert len(solves) == len(points)


def test_fundamental_is_cached(transfer):
    assert transfer.fundamental(4, 2.0 - 1.5j) is transfer.fundamental(4, 2.0 - 1.5j)


def test_fundamental_recursion(small_triple, transfer):
    for lam in grid(small_triple):
        for n in range(10):
            assert transfer.recursion_residual(n, lam) <= 1e-9


def test_two_point_identity(small_triple, transfer):
    for lam in grid(small_triple):
        for n in range(8):
            assert transfer.gram_identity_residual(n, lam) <= 1e-9


def test_contractive_lower_half_plane(small_triple, transfer):
    scale = 1.0 + np.linalg.norm(small_triple.alpha, 2)
    for k in range(8):
        lam = scale * np.exp(-1j * np.pi * (k + 0.5) / 8)
        for n in range(8):
            w = transfer.w(n, lam)
            top = np.linalg.eigvalsh(w.conj().T @ w - np.eye(w.shape[0]))[-1]
            assert top <= 1e-9


def test_factorization_residuals(small_triple, transfer):
    for n in range(8):
        res = transfer.factorization_residuals(n)
        assert max(res.values()) <= 1e-9


def test_rank_of_i_plus_minus_s(wide_triple):
    state = generate(wide_triple, 10)
    m = wide_triple.m
    for s in state.spins:
        for sign in (1.0, -1.0):
            sv = np.linalg.svd(np.eye(2 * m) + sign * s, compute_uv=False)
            assert sv[m] <= 1e-8


def test_properness(small_triple, transfer):
    assert transfer.properness_deviation(4, radius=1e8) <= 1e-6
