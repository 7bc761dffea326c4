import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlattice import linalg
from spinlattice.errors import (
    DimensionError,
    NotPositiveDefiniteError,
    NumericError,
    SingularEquationError,
    SingularMatrixError,
)


def test_as_matrix_rejects_nan():
    with pytest.raises(NumericError):
        linalg.as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_as_matrix_rejects_vector():
    with pytest.raises(DimensionError):
        linalg.as_matrix(np.array([1.0, 2.0]))


def test_as_matrix_accepts_transposed_view():
    a = (np.arange(4.0).reshape(2, 2) + 1j).conj().T
    out = linalg.as_matrix(a)
    assert out.shape == (2, 2)


def test_herm_projects():
    a = np.array([[1.0, 2.0 + 1j], [0.0, 3.0]])
    h = linalg.herm(a)
    assert np.allclose(h, h.conj().T)


def test_hermitian_sqrt_roundtrip(rng):
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = b @ b.conj().T + np.eye(4)
    r = linalg.hermitian_powers(a, (0.5,))[0]
    assert np.allclose(r @ r, a)


def test_hermitian_sqrt_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        linalg.hermitian_powers(np.diag([1.0, -1.0]), (0.5,))


def test_solve_singular():
    with pytest.raises(SingularMatrixError):
        linalg.solve(np.zeros((2, 2)), np.eye(2))


def test_hermitian_conds_are_the_condition_numbers_of_cond(rng):
    """From eigvalsh, the 2-norm condition numbers of ``linalg.cond`` to
    1e-12 on definite and indefinite Hermitian matrices of orders 1-8, and
    inf, as there, where a matrix is singular or not finite."""
    for order in range(1, 9):
        g = rng.standard_normal((4, order, order)) * (1 + 1j)
        stack = linalg.herm(g + 1j * rng.standard_normal(g.shape))
        stack[:2] += 3 * order * np.eye(order)
        want = linalg.cond(stack)
        assert np.allclose(linalg._hermitian_conds(stack), want, rtol=1e-12)
    bad = np.array([np.diag([1.0, 0.0]), [[np.nan, 0.0], [0.0, 1.0]],
                    [[np.inf, 0.0], [0.0, 1.0]], np.zeros((2, 2))],
                   dtype=complex)
    assert linalg._hermitian_conds(bad).tolist() == [np.inf] * 4
    assert [linalg.cond(x) for x in bad] == [np.inf] * 4


def test_sylvester_disjoint_spectra():
    a = np.diag([1.0 + 1j, 2.0 + 1j])
    b = a.conj().T
    c = np.eye(2, dtype=complex)
    x = linalg.solve_sylvester(a, b, c)
    assert np.allclose(a @ x - x @ b, c)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(order=st.integers(0, 8), cols=st.integers(0, 6),
       stack=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_sylvester_stack_is_scipy_per_matrix_bit_for_bit(order, cols, stack,
                                                         seed):
    """One pair of Schur forms for the whole stack gives, for each
    right-hand side, the bits of scipy.linalg.solve_sylvester."""
    rng = np.random.default_rng(seed)

    def normal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    a = normal(order, order) + 3j * np.eye(order)
    b = normal(cols, cols) - 3j * np.eye(cols)
    c = normal(stack, order, cols)
    x = linalg.solve_sylvester(a, b, c)
    assert x.shape == c.shape
    for got, rhs in zip(x, c):
        assert (got == scipy.linalg.solve_sylvester(a, -b, rhs)).all()


def test_sylvester_shared_spectrum_raises():
    a = np.eye(2, dtype=complex)
    with pytest.raises(SingularEquationError):
        linalg.solve_sylvester(a, a, np.eye(2, dtype=complex))


_HERMITIAN = np.array([[2.0, 1 - 1j, 0.5], [1 + 1j, -1.0, 3j],
                       [0.5, -3j, 0.25]])
_SHARED = np.array([[1 + 2j, 5.0], [0.0, 3 - 1j]])


@pytest.mark.parametrize("a, b", ((_HERMITIAN, _HERMITIAN),
                                  (_SHARED, _SHARED[:1, :1])))
def test_sylvester_reads_the_separation_from_its_schur_forms(a, b):
    """eig(A) = diag(R) and eig(B) = -conj(diag(S)), S the Schur form of
    -B*: a shared real spectrum, and the shared eigenvalue 1 + 2i of a
    non-normal A, are refused."""
    with pytest.raises(SingularEquationError, match="spectra of A and B"):
        linalg.solve_sylvester(a, b, np.ones((a.shape[0], b.shape[0])))


def test_sigma_from_identity():
    """alpha Sigma - Sigma alpha* = i Lambda Lambda* as a Sylvester solve."""
    alpha = np.array([[2j]])
    lam = np.array([[np.sqrt(2), np.sqrt(2)]])
    sigma = linalg.solve_sylvester(alpha, alpha.conj().T,
                                   1j * lam @ lam.conj().T)
    assert abs(sigma[0, 0] - 1.0) < 1e-14


def test_krylov_rank_detection(rng):
    # block diagonal with b supported on the first coordinate only
    a = np.diag([2j, 3j])
    b = np.array([[1.0], [0.0]], dtype=complex)
    assert not linalg.is_full_range(a, b)
    assert linalg.krylov_basis(a, b).shape[1] == 1
    b2 = np.array([[1.0], [1.0]], dtype=complex)
    assert linalg.is_full_range(a, b2)
    assert linalg.krylov_basis(a, b2).shape[1] == 2


def test_spectrum_report():
    rep = linalg.spectrum(np.diag([1j, 2.0 + 0j]))
    assert rep.contains_plus_i
    assert not rep.contains_minus_i
    assert rep.min_imag_part == pytest.approx(0.0, abs=1e-12)


def _pbh_full_range(a, b, tol=1e-8):
    """Popov-Belevitch-Hautus: [A - zI, B] has full row rank at every
    eigenvalue z of A."""
    eye = np.eye(a.shape[0])
    scale = max(1.0, np.linalg.norm(np.hstack([a, b]), 2))
    return all(
        np.linalg.svd(np.hstack([a - z * eye, b]), compute_uv=False)[-1]
        > tol * scale
        for z in np.linalg.eigvals(a)
    )


@settings(max_examples=200, derandomize=True, deadline=None)
@given(order=st.integers(1, 10), m=st.integers(1, 3),
       hidden=st.integers(0, 3), h_scale=st.sampled_from((1.0, 4.0, 8.0)),
       seed=st.integers(0, 2**32 - 1))
def test_full_range_agrees_with_pbh(order, m, hidden, h_scale, seed):
    """alpha-like pairs (Hermitian part scaled by h_scale), with ``hidden``
    uncontrollable directions rotated out of sight by a unitary."""
    rng = np.random.default_rng(seed)
    cg = lambda *shape: (rng.standard_normal(shape)
                         + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    hidden = min(hidden, order - 1)
    b = cg(order, m)
    b[order - hidden:] = 0
    a = h_scale * linalg.herm(cg(order, order)) + 0.5j * b @ b.conj().T
    a[order - hidden:, :order - hidden] = 0
    u, _ = np.linalg.qr(cg(order, order))
    a, b = u @ a @ u.conj().T, u @ b
    flag = linalg.is_full_range(a, b)
    assert flag == _pbh_full_range(a, b)
    if hidden:
        assert not flag
        assert linalg.krylov_basis(a, b).shape[1] <= order - hidden
