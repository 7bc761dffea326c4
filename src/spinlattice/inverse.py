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
from .triples import ParameterTriple
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
    if r.order == 0:
        return True, True
    controllable, _ = linalg.is_full_range(r.gamma, r.vartheta2, tol)
    observable, _ = linalg.is_full_range(r.gamma.conj().T, r.vartheta1, tol)
    return controllable, observable


def reduce_to_minimal(r: Realization, tol: Tolerances = DEFAULT):
    """Staircase-style reduction to a minimal realization.

    First compresses onto the controllable subspace of {gamma, vartheta2},
    then onto the observable part via the dual pair; phi is unchanged on the
    resolvent set.
    """
    if r.order == 0:
        return r
    q = linalg.krylov_basis(r.gamma, r.vartheta2, tol)
    r = Realization(
        gamma=q.conj().T @ r.gamma @ q,
        vartheta1=q.conj().T @ r.vartheta1,
        vartheta2=q.conj().T @ r.vartheta2,
    )
    if r.order == 0:
        return r
    q = linalg.krylov_basis(r.gamma.conj().T, r.vartheta1, tol)
    return Realization(
        gamma=q.conj().T @ r.gamma @ q,
        vartheta1=q.conj().T @ r.vartheta1,
        vartheta2=q.conj().T @ r.vartheta2,
    )


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


def solve_riccati(r: Realization, tol: Tolerances = DEFAULT, max_newton=25,
                  target=1e-12):
    """Unique positive definite solution X of

        gamma X - X gamma* = i (X v1 v1* X - v2 v2*).

    Multiplying by -i turns this into the continuous-time Riccati equation
    A* X + X A - X v1 v1* X + v2 v2* = 0 with A = i gamma*, solved by the
    Hamiltonian invariant-subspace method and polished with Newton-Kleinman
    steps (Sylvester solves) until the relative residual reaches ``target``.
    """
    controllable, observable = check_minimal(r, tol)
    if not (controllable and observable):
        raise AdmissibilityError(
            "Riccati solve requires a minimal realization "
            f"(controllable={controllable}, observable={observable})"
        )
    if r.order == 0:
        return RiccatiSolution(
            x=np.zeros((0, 0), dtype=complex),
            residual_norm=0.0,
            min_eigenvalue=np.inf,
            newton_iterations=0,
        )
    a = 1j * r.gamma.conj().T
    b = r.vartheta1
    q = r.vartheta2 @ r.vartheta2.conj().T
    m_eye = np.eye(r.m, dtype=complex)
    try:
        x = scipy.linalg.solve_continuous_are(a, b, linalg.herm(q), m_eye)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NumericError(f"Riccati subspace solver failed: {exc}") from exc
    x = linalg.herm(np.asarray(x, dtype=complex))

    scale = max(1.0, linalg.frob(r.gamma) * linalg.frob(x) + linalg.frob(q))
    iterations = 0
    bbt = b @ b.conj().T
    for iterations in range(1, max_newton + 1):
        res = _riccati_residual(r, x)
        if linalg.frob(res) <= target * scale:
            break
        # Newton-Kleinman: closed-loop Sylvester for the next iterate
        a_cl = a - bbt @ x
        rhs = -(linalg.herm(q) + x @ bbt @ x)
        x_new = scipy.linalg.solve_sylvester(a_cl.conj().T, a_cl, rhs)
        x = linalg.herm(np.asarray(x_new, dtype=complex))
    res_norm = linalg.frob(_riccati_residual(r, x))
    min_eig = float(np.linalg.eigvalsh(x)[0])
    if min_eig <= tol.posdef_tol:
        raise NotPositiveDefiniteError(
            f"Riccati solution is not positive definite (min eig {min_eig:.3e})",
            min_eigenvalue=min_eig,
        )
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
    controllable, observable = check_minimal(r, tol)
    if not (controllable and observable):
        r = reduce_to_minimal(r, tol)
    if r.order == 0:
        raise AdmissibilityError(
            "the zero function has no admissible triple (order 0)"
        )
    sol = solve_riccati(r, tol)
    x_half = linalg.hermitian_sqrt(sol.x, tol)
    x_minus_half = linalg.hermitian_power(sol.x, -0.5, tol)
    theta1 = x_half @ r.vartheta1
    theta2 = x_minus_half @ r.vartheta2
    beta = x_minus_half @ r.gamma @ x_half
    alpha = beta + 1j * theta2 @ theta2.conj().T
    return ParameterTriple(alpha=alpha, theta1=theta1, theta2=theta2)


def random_minimal_realization(rng, order, m, max_tries=200,
                               tol: Tolerances = DEFAULT):
    """Random minimal realization with all entries complex Gaussian."""
    for _ in range(max_tries):
        gamma = (rng.standard_normal((order, order))
                 + 1j * rng.standard_normal((order, order))) / np.sqrt(2)
        v1 = (rng.standard_normal((order, m))
              + 1j * rng.standard_normal((order, m))) / np.sqrt(2)
        v2 = (rng.standard_normal((order, m))
              + 1j * rng.standard_normal((order, m))) / np.sqrt(2)
        r = Realization(gamma=gamma, vartheta1=v1, vartheta2=v2)
        if all(check_minimal(r, tol)):
            return r
    raise NumericError(f"no minimal realization found in {max_tries} draws")
