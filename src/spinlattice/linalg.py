"""Dense complex matrix kernel: spectra, Hermitian fractional powers,
Sylvester solves and full-range (controllability) tests.

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
    InputError,
    NotPositiveDefiniteError,
    NumericError,
    PoleError,
    SingularEquationError,
    SingularMatrixError,
)

__all__ = [
    "as_matrix",
    "frob",
    "frob_norms",
    "herm",
    "require_hermitian",
    "SpectrumReport",
    "spectrum",
    "hermitian_powers",
    "solve_sylvester",
    "is_full_range",
    "krylov_basis",
    "cond",
    "solve",
    "inv",
    "check_pole",
]


def as_matrix(a, name="matrix"):
    """Coerce to a 2-d complex array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got shape {m.shape}")
    return as_matrices(m, name)


def as_matrices(a, name="matrix"):
    """Coerce to a complex array of matrices over its last two axes,
    rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2:
        raise DimensionError(f"{name} must be at least 2-dimensional, got "
                             f"shape {m.shape}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise NumericError(f"{name} contains non-finite entries")
    return m


def frob(a):
    return float(np.linalg.norm(a, "fro"))


def herm(a):
    """Hermitian part (M + M*)/2, of each matrix of a stack."""
    return (a + a.conj().swapaxes(-1, -2)) / 2


def _hermitian_deviation(m):
    """||M - M*||_F / max(1, ||M||_F) of a square M, NaN or infinite where
    it overflows."""
    with np.errstate(all="ignore"):
        return frob(m - m.conj().T) / max(1.0, frob(m))


def require_hermitian(m, tol: Tolerances = DEFAULT, name="matrix"):
    m = as_matrix(m, name)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    dev = _hermitian_deviation(m)
    with np.errstate(all="ignore"):
        h = herm(m)
    if not dev <= tol.hermitian_tol:
        raise NumericError(f"{name} is not Hermitian (relative deviation {dev:.3e})")
    if not np.isfinite(h).all():
        raise NumericError(f"the Hermitian part of {name} overflows")
    return h


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of a square matrix M plus flags against the points 0,
    +/-i and the open upper half plane (every imaginary part above
    spec_tol), its 2-norm and the pole scale max(1, ||M||_2) of
    ``check_pole``."""

    eigenvalues: np.ndarray
    min_imag_part: float
    in_upper_half_plane: bool
    contains_plus_i: bool
    contains_minus_i: bool
    contains_zero: bool
    norm: float
    scale: float


def spectrum(m, tol: Tolerances = DEFAULT):
    """The SpectrumReport of a square complex matrix."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"spectrum needs a square matrix, got {m.shape}")
    try:
        eigs = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericError(f"eigensolver failed to converge: {exc}") from exc
    norm = float(np.linalg.norm(m, 2))
    if not (np.isfinite(eigs).all() and np.isfinite(norm)):
        raise NumericError("the eigenvalues or the 2-norm of the matrix "
                           "overflow")
    min_imag_part = float(np.min(eigs.imag)) if eigs.size else 0.0
    return SpectrumReport(
        eigenvalues=eigs,
        min_imag_part=min_imag_part,
        in_upper_half_plane=min_imag_part > tol.spec_tol,
        contains_plus_i=bool(np.any(np.abs(eigs - 1j) <= tol.spec_tol)),
        contains_minus_i=bool(np.any(np.abs(eigs + 1j) <= tol.spec_tol)),
        contains_zero=bool(np.any(np.abs(eigs) <= tol.spec_tol)),
        norm=norm, scale=max(1.0, norm),
    )


# Largest cond(V), V the unit eigenvectors of alpha, at which the time-t
# stage is formed in the eigenbasis (``_eigenbasis``).  Its error grows
# like cond(V)^2 eps: 1.1e-14 at cond(V) = 21, 2.7e-13 at 70 and 1.6e-12
# at 210 on the family alpha = [[1+2i, 1, 0], [0, 1+2i+delta, 0.5],
# [0, 0, -0.7+1.5i]], against 6e-16 by the Schur route there; that route
# too misses Sigma_0(t) by 1.5e-10 (relative) at delta = 1e-7, t = -2.5.
EIGENBASIS_COND = 100.0


def _refined(a, d, v):
    """One Newton step on the eigenpairs (d, V) of A (Dongarra, Moler
    & Wilkinson, SIAM J. Numer. Anal. 20, 1983): with
    G = V^{-1} (A V - V diag(d)), d + diag(G) and V (I + F),
    F_jk = G_jk / (d_k - d_j) off the diagonal, kept where it is at most
    1e-3 (a pair of close eigenvalues keeps its vectors), each column of
    V rescaled to unit norm.  It leaves the residual of one product where
    ``np.linalg.eig`` leaves that of its QR iterations: on random triples
    ||A - V D V^{-1}|| / ||A|| falls from about 1.2e-15 to 3e-16,
    and the error of Sigma_0(t) in the eigenbasis from 1.7e-15 to 5.5e-16
    (medians)."""
    g = solve(v, a @ v - v * d)
    d = d + np.diag(g)
    with np.errstate(all="ignore"):
        f = g / (d[None, :] - d[:, None])
    f[~(abs(f) <= 1e-3)] = 0.0          # the diagonal, and close pairs
    v = v + v @ f
    return d, v / np.linalg.norm(v, axis=0)


def _eigenbasis(a):
    """(d, V, V^{-1}) with A = V diag(d) V^{-1}, the eigenpairs refined by
    ``_refined``, where the unit eigenvectors of ``np.linalg.eig`` have
    cond(V) <= EIGENBASIS_COND; else None."""
    d, v = np.linalg.eig(a)
    if not cond(v) <= EIGENBASIS_COND:
        return None
    d, v = _refined(a, d, v)
    return d, v, inv(v)


def hermitian_powers(m, powers, tol: Tolerances = DEFAULT):
    """The fractional powers M^p, p in ``powers``, of a Hermitian positive
    definite M, all from one eigendecomposition."""
    m = require_hermitian(m, tol)
    w, v = np.linalg.eigh(m)
    if w.size and w[0] <= tol.posdef_tol:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (min eigenvalue {w[0]:.3e})")
    return [herm((v * w**p) @ v.conj().T) for p in powers]


def solve_sylvester(a, b, c, tol: Tolerances = DEFAULT):
    """Solve AX - XB = C for X, or for each right-hand side of a stack C.

    Requires the spectra of A and B to be disjoint (checked up to
    ``spec_tol`` on the diagonals of the Schur forms).  Bartels-Stewart
    with the steps of ``scipy.linalg.solve_sylvester(a, -b, c)``, and so its
    bits: one pair of Schur forms of A and -B* serves every right-hand side,
    each solved by LAPACK ``trsyl``.
    """
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    c = as_matrices(c, "C")
    if a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
        raise DimensionError("A and B must be square")
    if c.shape[-2:] != (a.shape[0], b.shape[0]):
        raise DimensionError(
            f"C must be {a.shape[0]}x{b.shape[0]}, got {c.shape[-2:]}"
        )
    if not (a.size and b.size):
        return np.empty(c.shape, dtype=complex)
    # scipy solves AX + XB' = Q with B' = -B: Schur forms of A and B'*
    r, u = scipy.linalg.schur(a, output="real")
    s, v = scipy.linalg.schur((-b).conj().T, output="real")
    # the complex Schur forms carry the spectra: eig(A) = diag(R) and
    # eig(B) = -conj(diag(S))
    sep = np.min(np.abs(np.diag(r)[:, None] + np.diag(s).conj()[None, :]))
    if sep <= tol.spec_tol:
        raise SingularEquationError(
            f"spectra of A and B overlap (separation {sep:.3e})"
        )
    f = u.conj().T @ c @ v
    trsyl, = scipy.linalg.get_lapack_funcs(("trsyl",), (r, s, f))
    y = np.empty_like(f)
    for index in np.ndindex(c.shape[:-2]):
        y_k, scale, info = trsyl(r, s, f[index], tranb="C")
        if info < 0:  # pragma: no cover - LAPACK argument error
            raise np.linalg.LinAlgError(
                f"Illegal value encountered in the {-info} term")
        y[index] = scale * y_k
    return u @ y @ v.conj().T


def krylov_basis(a, b, tol: Tolerances = DEFAULT):
    """Orthonormal basis of span{A^k B : 0 <= k < N} by an orthonormal
    staircase: B is orthonormalized, then only the newest directions are
    multiplied by A, the basis is projected out twice, and directions with
    singular values above rank_tol max(1, ||A||_2) are kept.  (The stacked
    [B, AB, ..., A^{N-1}B] grows apart in scale and under-counts the rank.)

    Returns an ``N x r`` matrix with orthonormal columns, r the numeric rank.
    """
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    n = a.shape[0]
    if a.shape[0] != a.shape[1] or b.shape[0] != n:
        raise DimensionError("conformality failure in Krylov construction")
    u, s, _ = np.linalg.svd(b, full_matrices=False)
    basis = new = u[:, :int(np.sum(s > tol.rank_tol * s.max(initial=0.0)))]
    with np.errstate(all="ignore"):
        cutoff = tol.rank_tol * max(1.0, float(np.linalg.norm(a, 2)))
    if not np.isfinite(cutoff):
        raise NumericError(f"Krylov rank cutoff {cutoff} is not finite: "
                           f"||A||_2 overflows")
    while new.shape[1] and basis.shape[1] < n:
        with np.errstate(all="ignore"):
            block = a @ new
            for _ in range(2):
                block = block - basis @ (basis.conj().T @ block)
        if not np.isfinite(block).all():
            raise NumericError("Krylov block A Q overflows")
        u, s, _ = np.linalg.svd(block, full_matrices=False)
        new = u[:, :min(int(np.sum(s > cutoff)), n - basis.shape[1])]
        basis = np.hstack([basis, new])
    return basis


def is_full_range(a, b, tol: Tolerances = DEFAULT):
    """Controllability test for the pair {A, B}: whether the numeric rank
    of [B, AB, ..., A^{N-1}B] equals N."""
    return krylov_basis(a, b, tol).shape[1] == a.shape[0]


def cond(m):
    """2-norm condition number, or an array of them over a stack; inf for a
    singular matrix."""
    try:
        c = np.linalg.cond(m)
    except np.linalg.LinAlgError:
        if m.ndim == 2:
            return float("inf")
        return np.array([cond(x) for x in m])
    return c if m.ndim > 2 else float(c)


def _hermitian_conds(m):
    """``cond`` of each Hermitian matrix of a stack, max|w| / min|w| over
    its eigenvalues w (``np.linalg.eigvalsh``, which costs about half of
    ``np.linalg.cond``'s SVD on these sizes); inf for a singular matrix, or
    one that is not finite or that eigvalsh cannot handle."""
    with np.errstate(all="ignore"):
        try:
            w = abs(np.linalg.eigvalsh(m))
        except np.linalg.LinAlgError:
            if m.ndim == 2:
                return float("inf")
            return np.array([_hermitian_conds(x) for x in m])
        c = w.max(axis=-1) / w.min(axis=-1)
    return np.where(np.isfinite(m).all(axis=(-2, -1)) & ~np.isnan(c), c,
                    np.inf)


def solve(m, rhs, name="matrix"):
    """LU solve M X = rhs, raising SingularMatrixError on failure."""
    try:
        return np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"{name} is singular") from exc


def inv(m, name="matrix"):
    return solve(as_matrix(m, name), np.eye(m.shape[0], dtype=complex), name)


def check_pole(lam, spec: SpectrumReport, tol: Tolerances = DEFAULT,
               name="matrix"):
    """Raise PoleError if lam, or the first in order of a sequence of
    points, lies within pole_tol * spec.scale of an eigenvalue, for the
    report ``spec`` of the matrix M whose resolvent (lam I - M)^{-1} is
    about to be formed; before that, InputError if one is NaN or infinite.
    """
    lams = np.atleast_1d(np.asarray(lam, dtype=complex))
    for bad in lams[~np.isfinite(lams)][:1].tolist():
        raise InputError(f"lambda must be finite, got {bad}")
    eigs = spec.eigenvalues
    if not eigs.size:
        return
    gaps = np.abs(eigs[None, :] - lams[:, None])
    nearest = np.argmin(gaps, axis=1)
    close = np.flatnonzero(
        gaps[np.arange(lams.size), nearest] <= tol.pole_tol * spec.scale)
    if close.size:
        k = close[0]
        raise PoleError(
            f"lambda = {complex(lams[k])} too close to the spectrum of {name} "
            f"(nearest eigenvalue {eigs[nearest[k]]})")


def frob_norms(a):
    """Frobenius norms of a stack of matrices, over the last two axes.  Each
    equals ``frob`` of the C-ordered matrix bit for bit: both take
    sqrt(re.re + im.im) over the flattened entries."""
    flat = a.reshape(a.shape[:-2] + (a.shape[-2] * a.shape[-1],))
    return np.sqrt(np.vecdot(flat.real, flat.real)
                   + np.vecdot(flat.imag, flat.imag))
