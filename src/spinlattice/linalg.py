"""Dense complex matrix kernel: spectra, Hermitian square roots, Sylvester
solves and full-range (controllability) tests.

Everything operates on plain ``numpy`` arrays of complex128.  Matrices are
validated on entry (finite entries, conforming shapes); all functions are
pure.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .config import DEFAULT, Tolerances
from .errors import (
    DimensionError,
    NotPositiveDefiniteError,
    NumericError,
    PoleError,
    SingularEquationError,
    SingularMatrixError,
)

__all__ = [
    "as_matrix",
    "frob",
    "eye",
    "herm",
    "hermitian_deviation",
    "require_hermitian",
    "SpectrumReport",
    "spectrum",
    "hermitian_eigenvalues",
    "min_eig_hermitian",
    "hermitian_sqrt",
    "hermitian_power",
    "solve_sylvester",
    "sigma_from_identity",
    "is_full_range",
    "krylov_basis",
    "cond",
    "solve",
    "inv",
    "poles",
    "check_pole",
]


def as_matrix(a, name="matrix"):
    """Coerce to a 2-d complex array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise NumericError(f"{name} contains non-finite entries")
    return m


def frob(a):
    return float(np.linalg.norm(a, "fro"))


def eye(n):
    return np.eye(n, dtype=complex)


def herm(a):
    """Hermitian part (M + M*)/2."""
    return (a + a.conj().T) / 2


def hermitian_deviation(m):
    """Relative deviation ||M - M*||_F / max(1, ||M||_F)."""
    return frob(m - m.conj().T) / max(1.0, frob(m))


def require_hermitian(m, tol: Tolerances = DEFAULT, name="matrix"):
    m = as_matrix(m, name)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    dev = hermitian_deviation(m)
    if dev > tol.hermitian_tol:
        raise NumericError(f"{name} is not Hermitian (relative deviation {dev:.3e})")
    return herm(m)


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of a square matrix plus flags against the points 0, +/-i."""

    eigenvalues: np.ndarray
    min_imag_part: float
    contains_plus_i: bool
    contains_minus_i: bool
    contains_zero: bool


def spectrum(m, tol: Tolerances = DEFAULT):
    """Eigenvalues of a square complex matrix with point flags at 0 and +/-i."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"spectrum needs a square matrix, got {m.shape}")
    try:
        eigs = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericError(f"eigensolver failed to converge: {exc}") from exc
    return SpectrumReport(
        eigenvalues=eigs,
        min_imag_part=float(np.min(eigs.imag)) if eigs.size else 0.0,
        contains_plus_i=bool(np.any(np.abs(eigs - 1j) <= tol.spec_tol)),
        contains_minus_i=bool(np.any(np.abs(eigs + 1j) <= tol.spec_tol)),
        contains_zero=bool(np.any(np.abs(eigs) <= tol.spec_tol)),
    )


def hermitian_eigenvalues(m, tol: Tolerances = DEFAULT):
    m = require_hermitian(m, tol)
    return np.linalg.eigvalsh(m)


def min_eig_hermitian(m, tol: Tolerances = DEFAULT):
    return float(hermitian_eigenvalues(m, tol)[0])


def hermitian_sqrt(m, tol: Tolerances = DEFAULT):
    """Positive definite square root of a Hermitian positive definite matrix."""
    return hermitian_power(m, 0.5, tol)


def hermitian_power(m, power, tol: Tolerances = DEFAULT):
    """Fractional power M^p of a Hermitian positive definite M (eigh-based)."""
    m = require_hermitian(m, tol)
    w, v = np.linalg.eigh(m)
    if w.size and w[0] <= tol.posdef_tol:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (min eigenvalue {w[0]:.3e})",
            min_eigenvalue=float(w[0]) if w.size else None,
        )
    return herm((v * w**power) @ v.conj().T)


def solve_sylvester(a, b, c, tol: Tolerances = DEFAULT):
    """Solve AX - XB = C for X.

    Requires the spectra of A and B to be disjoint (checked up to
    ``spec_tol``); uses the Schur-based Bartels-Stewart solver.
    """
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    c = as_matrix(c, "C")
    if a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
        raise DimensionError("A and B must be square")
    if c.shape != (a.shape[0], b.shape[0]):
        raise DimensionError(
            f"C must be {a.shape[0]}x{b.shape[0]}, got {c.shape}"
        )
    ea = spectrum(a, tol).eigenvalues
    eb = spectrum(b, tol).eigenvalues
    if ea.size and eb.size:
        sep = np.min(np.abs(ea[:, None] - eb[None, :]))
        if sep <= tol.spec_tol:
            raise SingularEquationError(
                f"spectra of A and B overlap (separation {sep:.3e})"
            )
    # scipy solves AX + XB = Q
    return scipy.linalg.solve_sylvester(a, -b, c)


def sigma_from_identity(alpha, lam, tol: Tolerances = DEFAULT):
    """Solve alpha Sigma - Sigma alpha* = i lam lam* and symmetrize.

    Returns ``(sigma, asymmetry)`` where asymmetry is the Frobenius norm of
    the discarded anti-Hermitian part.
    """
    alpha = as_matrix(alpha, "alpha")
    lam = as_matrix(lam, "lambda")
    x = solve_sylvester(alpha, alpha.conj().T, 1j * lam @ lam.conj().T, tol)
    sym = herm(x)
    return sym, frob(x - sym)


def krylov_basis(a, b, tol: Tolerances = DEFAULT):
    """Orthonormal basis of span{A^k B : 0 <= k < N} via SVD rank truncation.

    Returns an ``N x r`` matrix with orthonormal columns, r the numeric rank.
    """
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    n = a.shape[0]
    if a.shape[0] != a.shape[1] or b.shape[0] != n:
        raise DimensionError("conformality failure in Krylov construction")
    blocks = [b]
    for _ in range(n - 1):
        blocks.append(a @ blocks[-1])
    k = np.hstack(blocks)
    u, s, _ = np.linalg.svd(k, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return u[:, :0]
    rank = int(np.sum(s > tol.rank_tol * s[0]))
    return u[:, :rank]


def is_full_range(a, b, tol: Tolerances = DEFAULT):
    """Controllability test for the pair {A, B}.

    Returns ``(flag, rank)`` where flag is True iff the numeric rank of
    [B, AB, ..., A^{N-1}B] equals N.
    """
    q = krylov_basis(a, b, tol)
    rank = q.shape[1]
    return rank == a.shape[0], rank


def cond(m):
    """2-norm condition number; inf for singular input."""
    try:
        return float(np.linalg.cond(m))
    except np.linalg.LinAlgError:  # pragma: no cover
        return float("inf")


def solve(m, rhs, name="matrix"):
    """LU solve M X = rhs, raising SingularMatrixError on failure."""
    try:
        return np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"{name} is singular") from exc


def inv(m, name="matrix"):
    return solve(as_matrix(m, name), eye(m.shape[0]), name)


def poles(m):
    """Eigenvalues of M and its pole scale max(1, ||M||_2), for check_pole."""
    return np.linalg.eigvals(m), max(1.0, float(np.linalg.norm(m, 2)))


def check_pole(lam, eigs, scale, tol: Tolerances = DEFAULT, name="matrix"):
    """Raise PoleError if lam lies within pole_tol * scale of an eigenvalue.

    ``eigs`` and ``scale`` come from ``poles(M)`` for the matrix M whose
    resolvent (lam I - M)^{-1} is about to be formed.
    """
    if eigs.size:
        nearest = eigs[int(np.argmin(np.abs(eigs - lam)))]
        if abs(nearest - lam) <= tol.pole_tol * scale:
            raise PoleError(
                f"lambda = {lam} too close to the spectrum of {name} "
                f"(nearest eigenvalue {nearest})",
                nearest=nearest,
            )
