"""Inverse Weyl problem: from a strictly proper rational matrix function,
given as a state-space ``Realization``, recover the admissible triple via
the algebraic Riccati equation.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import linalg
from .config import DEFAULT, Tolerances
from .errors import AdmissibilityError, NotPositiveDefiniteError, NumericError
from .triples import ParameterTriple, _complex_gaussian
from .weyl import Realization

__all__ = [
    "check_minimal",
    "reduce_to_minimal",
    "RiccatiSolution",
    "solve_riccati",
    "invert",
    "random_minimal_realization",
]


def check_minimal(r: Realization, tol: Tolerances = DEFAULT):
    """(controllable, observable) flags of the realization.

    Controllability tests {gamma, vartheta2}; observability dualizes to the
    full-range test on {gamma*, vartheta1}.
    """
    controllable = linalg.is_full_range(r.gamma, r.vartheta2, tol)
    observable = linalg.is_full_range(r.gamma.conj().T, r.vartheta1, tol)
    return controllable, observable


def reduce_to_minimal(r: Realization, tol: Tolerances = DEFAULT):
    """Staircase-style reduction to a minimal realization.

    First compresses onto the controllable subspace of {gamma, vartheta2},
    then onto the observable part via the dual pair; phi is unchanged on the
    resolvent set.  An empty basis leaves phi = 0, which has no admissible
    triple: an AdmissibilityError.
    """
    for dual in (False, True):
        q = (linalg.krylov_basis(r.gamma.conj().T, r.vartheta1, tol) if dual
             else linalg.krylov_basis(r.gamma, r.vartheta2, tol))
        if q.shape[1] == 0:
            raise AdmissibilityError(
                "the zero function has no admissible triple (order 0)")
        p = q.conj().T
        r = Realization(gamma=p @ r.gamma @ q, vartheta1=p @ r.vartheta1,
                        vartheta2=p @ r.vartheta2)
    return r


@dataclass(frozen=True)
class RiccatiSolution:
    x: np.ndarray
    residual_norm: float
    min_eigenvalue: float
    newton_iterations: int


def _riccati_residual(r: Realization, x):
    return (
        r.gamma @ x
        - x @ r.gamma.conj().T
        - 1j * (x @ r.vartheta1 @ r.vartheta1.conj().T @ x
                - r.vartheta2 @ r.vartheta2.conj().T)
    )


def solve_riccati(r: Realization, tol: Tolerances = DEFAULT):
    """Unique positive definite solution X of

        gamma X - X gamma* = i (X v1 v1* X - v2 v2*).

    Multiplying by -i turns this into the continuous-time Riccati equation
    A* X + X A - X v1 v1* X + v2 v2* = 0 with A = i gamma*, solved from
    the stable eigenvectors of its Hamiltonian (``_stable_subspace``), or
    by scipy's Schur method where those do not serve, and polished with
    Newton-Kleinman steps (Sylvester solves) until the relative residual
    reaches 1e-12, at most 25 of them.
    """
    _require_minimal(r, tol)
    return _riccati(r, tol)


def _require_minimal(r: Realization, tol: Tolerances):
    controllable, observable = check_minimal(r, tol)
    if not (controllable and observable):
        raise AdmissibilityError(
            "Riccati solve requires a minimal realization "
            f"(controllable={controllable}, observable={observable})"
        )


def _stable_subspace(a, bbt, q):
    """X = U2 U1^{-1} of the stabilizing solution of A* X + X A - X B B* X
    + Q = 0 (Potter, SIAM J. Appl. Math. 14, 1966): [U1; U2] are the
    eigenvectors of the Hamiltonian [[A, -B B*], [-Q, -A*]] whose
    eigenvalues have Re < 0.  None where their count is not N, cond(U1)
    exceeds ``linalg.EIGENBASIS_COND`` or the eigensolver fails."""
    n = a.shape[0]
    try:
        w, u = np.linalg.eig(np.block([[a, -bbt], [-q, -a.conj().T]]))
    except np.linalg.LinAlgError:
        return None
    stable = w.real < 0
    if np.count_nonzero(stable) != n:
        return None
    u1, u2 = u[:n, stable], u[n:, stable]
    if not linalg.cond(u1) <= linalg.EIGENBASIS_COND:
        return None
    return np.linalg.solve(u1.T, u2.T).T


def _riccati(r: Realization, tol: Tolerances):
    """``solve_riccati`` of a realization known to be minimal."""
    with np.errstate(all="ignore"):
        a = 1j * r.gamma.conj().T
        b = r.vartheta1
        q = r.vartheta2 @ r.vartheta2.conj().T
        bbt = b @ b.conj().T
        x = _stable_subspace(a, bbt, q)
        if x is None:
            m_eye = np.eye(r.m, dtype=complex)
            try:
                x = scipy.linalg.solve_continuous_are(a, b, linalg.herm(q),
                                                      m_eye)
            except (np.linalg.LinAlgError, ValueError) as exc:
                raise NumericError(
                    f"Riccati subspace solver failed: {exc}") from exc
        x = linalg.herm(np.asarray(x, dtype=complex))

        scale = max(1.0, linalg.frob(r.gamma) * linalg.frob(x) + linalg.frob(q))
        iterations = 0
        for iterations in range(1, 26):
            res = _riccati_residual(r, x)
            if linalg.frob(res) <= 1e-12 * scale:
                break
            # Newton-Kleinman: closed-loop Sylvester for the next iterate
            a_cl = a - bbt @ x
            rhs = -(linalg.herm(q) + x @ bbt @ x)
            x = linalg.herm(linalg.solve_sylvester(a_cl.conj().T, -a_cl, rhs,
                                                   tol))
        res_norm = linalg.frob(_riccati_residual(r, x))
    if not np.isfinite(x).all():
        raise NumericError("Riccati solution has non-finite entries")
    min_eig = float(np.linalg.eigvalsh(x)[0])
    if min_eig <= tol.posdef_tol:
        raise NotPositiveDefiniteError(
            f"Riccati solution is not positive definite (min eig "
            f"{min_eig:.3e})")
    return RiccatiSolution(
        x=x,
        residual_norm=res_norm,
        min_eigenvalue=min_eig,
        newton_iterations=iterations,
    )


def invert(r: Realization, tol: Tolerances = DEFAULT):
    """Recover the admissible triple whose Weyl function is phi.

    theta1 = X^{1/2} v1, theta2 = X^{-1/2} v2, beta = X^{-1/2} gamma X^{1/2},
    alpha = beta + i theta2 theta2*; the symmetrized realization satisfies
    beta - beta* = i(theta1 theta1* - theta2 theta2*).
    """
    # one minimality test of the realization the Riccati solve receives
    if not all(check_minimal(r, tol)):
        r = reduce_to_minimal(r, tol)
        _require_minimal(r, tol)
    sol = _riccati(r, tol)
    x_half, x_minus_half = linalg.hermitian_powers(sol.x, (0.5, -0.5), tol)
    theta1 = x_half @ r.vartheta1
    theta2 = x_minus_half @ r.vartheta2
    beta = x_minus_half @ r.gamma @ x_half
    alpha = beta + 1j * theta2 @ theta2.conj().T
    return ParameterTriple(alpha=alpha, theta1=theta1, theta2=theta2)


def random_minimal_realization(rng, order, m, tol: Tolerances = DEFAULT):
    """Random minimal realization with all entries complex Gaussian, at most
    200 draws."""
    for _ in range(200):
        r = Realization(gamma=_complex_gaussian(rng, order, order),
                        vartheta1=_complex_gaussian(rng, order, m),
                        vartheta2=_complex_gaussian(rng, order, m))
        if all(check_minimal(r, tol)):
            return r
    raise NumericError("no minimal realization found in 200 draws")
