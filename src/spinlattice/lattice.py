"""Lattice recursion: the sequences Lambda_n, Sigma_n, S_n and their
structural diagnostics (identity propagation, involution, monotone R/Q
sequences, the K residual).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.integrate

from . import linalg
from .config import DEFAULT, Tolerances
from .errors import ConditioningError, NumericError, SpectrumError
from .triples import ParameterTriple, signature_matrix

__all__ = [
    "advance",
    "lambda_closed_form",
    "LatticeState",
    "generate",
    "spin_matrix",
    "MonotoneDiagnostics",
    "monotone_diagnostics",
    "k_residual",
    "sigma_quadrature",
]


def advance(alpha, lam, sigma, alpha_inv=None):
    """One step of the lattice recursion.

    Lambda' = Lambda + i alpha^{-1} Lambda J,
    Sigma'  = Sigma + alpha^{-1} Sigma alpha^{-*}
                    + alpha^{-1} Lambda J Lambda* alpha^{-*}.

    Returns ``(lam_next, sigma_next, asymmetry)`` with sigma_next
    symmetrized and the discarded anti-Hermitian norm reported.
    """
    if alpha_inv is None:
        alpha_inv = linalg.inv(alpha, "alpha")
    m = lam.shape[1] // 2
    j = signature_matrix(m)
    lam_next = lam + 1j * alpha_inv @ lam @ j
    core = sigma + lam @ j @ lam.conj().T
    sigma_next = sigma + alpha_inv @ core @ alpha_inv.conj().T
    sym = linalg.herm(sigma_next)
    return lam_next, sym, linalg.frob(sigma_next - sym)


def _lattice_powers(alpha, lam0, n):
    """[(I + i a^{-1})^n lam0_1, (I - i a^{-1})^n lam0_2] for the column
    blocks lam0 = [lam0_1, lam0_2]."""
    a_inv = linalg.inv(alpha, "alpha")
    i_n = np.eye(alpha.shape[0], dtype=complex)
    m = lam0.shape[1] // 2
    plus = np.linalg.matrix_power(i_n + 1j * a_inv, n)
    minus = np.linalg.matrix_power(i_n - 1j * a_inv, n)
    return np.hstack([plus @ lam0[:, :m], minus @ lam0[:, m:]])


def lambda_closed_form(triple: ParameterTriple, n, tol: Tolerances = DEFAULT):
    """Lambda_n = [(I + i a^{-1})^n theta1, (I - i a^{-1})^n theta2].

    Valid for the normalized form sigma0 = I.
    """
    if not triple.sigma0_is_identity(tol):
        raise NumericError("closed form requires sigma0 = I (normalize first)")
    return _lattice_powers(triple.alpha, triple.lambda0, n)


@dataclass(frozen=True)
class LatticeState:
    """Sequences Lambda_0..Lambda_{n_max}, Sigma_0..Sigma_{n_max} and the
    spins S_0..S_{n_max-1} generated from one triple."""

    triple: ParameterTriple
    n_max: int
    lambdas: list
    sigmas: list
    spins: list
    conditioning: list          # cond(Sigma_n), n = 0..n_max
    spin_residuals: list        # ||S_n^2 - I||_F, n = 0..n_max-1
    sigma_asymmetries: list

    @property
    def m(self):
        return self.triple.m

    @property
    def j(self):
        return signature_matrix(self.m)

    def xi(self, n):
        """Lambda_n* Sigma_n^{-1} Lambda_n (solved, never inverted)."""
        lam = self.lambdas[n]
        return lam.conj().T @ linalg.solve(self.sigmas[n], lam, f"Sigma_{n}")

    def sigma_solve(self, n, rhs):
        return linalg.solve(self.sigmas[n], rhs, f"Sigma_{n}")


def generate(triple: ParameterTriple, n_max=50, tol: Tolerances = DEFAULT,
             overflow_limit=None):
    """Run the recursion up to horizon ``n_max`` and assemble a LatticeState.

    Aborts with diagnostics if ||Sigma_n|| exceeds the overflow guard or the
    conditioning limit is crossed (Sigma_n inversion is the dominant error
    source, so it is tracked per n).
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    if overflow_limit is None:
        overflow_limit = tol.sigma_overflow
    alpha_inv = linalg.inv(triple.alpha, "alpha")
    lambdas = [triple.lambda0]
    sigmas = [triple.sigma0.copy()]
    asymmetries = [0.0]
    for n in range(n_max):
        lam_next, sigma_next, asym = advance(
            triple.alpha, lambdas[-1], sigmas[-1], alpha_inv
        )
        norm = linalg.frob(sigma_next)
        if overflow_limit and norm > overflow_limit:
            raise NumericError(
                f"||Sigma_{n + 1}|| = {norm:.3e} exceeds the overflow guard "
                f"{overflow_limit:.1e}; triple growth is too fast for this "
                f"horizon (reached n = {n + 1} of {n_max})"
            )
        lambdas.append(lam_next)
        sigmas.append(sigma_next)
        asymmetries.append(asym)
    conditioning = [linalg.cond(s) for s in sigmas]
    for n, c in enumerate(conditioning):
        if c > tol.cond_limit:
            raise ConditioningError(
                f"cond(Sigma_{n}) = {c:.3e} exceeds the limit {tol.cond_limit:.1e}",
                index=n,
                condition=c,
            )
    m = triple.m
    j = signature_matrix(m)
    spins = []
    spin_residuals = []
    xi = [
        lam.conj().T @ linalg.solve(sig, lam, "Sigma")
        for lam, sig in zip(lambdas, sigmas)
    ]
    i2m = np.eye(2 * m, dtype=complex)
    for n in range(n_max):
        s = linalg.herm(j + xi[n] - xi[n + 1])
        spins.append(s)
        spin_residuals.append(linalg.frob(s @ s - i2m))
    return LatticeState(
        triple=triple,
        n_max=n_max,
        lambdas=lambdas,
        sigmas=sigmas,
        spins=spins,
        conditioning=conditioning,
        spin_residuals=spin_residuals,
        sigma_asymmetries=asymmetries,
    )


def spin_matrix(state: LatticeState, n):
    """S_n = J + Lambda_n* Sigma_n^{-1} Lambda_n
              - Lambda_{n+1}* Sigma_{n+1}^{-1} Lambda_{n+1}."""
    if not 0 <= n < state.n_max:
        raise ValueError(f"spin index {n} outside horizon {state.n_max}")
    return state.spins[n]


def k_residual(state: LatticeState, n):
    """Frobenius norm of the K matrix whose vanishing drives the transfer
    identity:

    K_n = Lam_{n+1}* Sig_{n+1}^{-1}(a^2 + I) - Lam_n* Sig_n^{-1} a^2
          + i S_n Lam_n* Sig_n^{-1} a.
    """
    a = state.triple.alpha
    i_n = np.eye(state.triple.order, dtype=complex)
    y_next = state.sigma_solve(n + 1, state.lambdas[n + 1]).conj().T
    y = state.sigma_solve(n, state.lambdas[n]).conj().T
    k = (
        y_next @ (a @ a + i_n)
        - y @ a @ a
        + 1j * state.spins[n] @ y @ a
    )
    return linalg.frob(k)


@dataclass(frozen=True)
class MonotoneDiagnostics:
    """R_n (non-decreasing) and Q_n (non-increasing) sequences.

    Either side is None when the spectral precondition (i, resp. -i, not an
    eigenvalue of alpha) fails.  Cross-check residuals compare the direct
    difference R_{n+1}-R_n against its closed Gram form.
    """

    r_sequence: list
    q_sequence: list
    r_increments_min_eig: list
    q_increments_max_eig: list
    r_cross_residuals: list
    q_cross_residuals: list
    r_scales: list              # ||R_{n+1}||_F per increment
    q_scales: list


def monotone_diagnostics(state: LatticeState, tol: Tolerances = DEFAULT):
    triple = state.triple
    spec = linalg.spectrum(triple.alpha, tol)
    a_inv = linalg.inv(triple.alpha, "alpha")
    i_n = np.eye(triple.order, dtype=complex)
    m = state.m

    def build(factor, column, sign):
        # factor = I -/+ i a^{-1}; column selects the theta block feeding
        # the Gram increment; sign +1 for R (non-decreasing), -1 for Q.
        seq = [linalg.herm(state.sigmas[0])]
        extremes = []
        cross = []
        scales = []
        power_inv = i_n.copy()
        for n in range(state.n_max):
            power_inv = linalg.solve(factor, power_inv)
            rn1 = linalg.herm(
                power_inv @ state.sigmas[n + 1] @ power_inv.conj().T
            )
            diff = linalg.herm(rn1 - seq[-1])
            lam_block = state.lambdas[n][:, column * m:(column + 1) * m]
            z = power_inv @ a_inv @ lam_block
            gram = sign * 2.0 * z @ z.conj().T
            cross.append(linalg.frob(diff - gram))
            w = np.linalg.eigvalsh(diff)
            extremes.append(float(w[0] if sign > 0 else w[-1]))
            scales.append(linalg.frob(rn1))
            seq.append(rn1)
        return seq, extremes, cross, scales

    r_seq = q_seq = None
    r_min, q_max, r_cross, q_cross = [], [], [], []
    r_scales, q_scales = [], []
    if not spec.contains_plus_i:
        r_seq, r_min, r_cross, r_scales = build(i_n - 1j * a_inv, 0, +1)
    if not spec.contains_minus_i:
        q_seq, q_max, q_cross, q_scales = build(i_n + 1j * a_inv, 1, -1)
    if r_seq is None and q_seq is None:
        raise SpectrumError(
            "both i and -i are eigenvalues of alpha; no monotone sequence "
            "is defined",
            eigenvalue=1j,
        )
    return MonotoneDiagnostics(
        r_sequence=r_seq,
        q_sequence=q_seq,
        r_increments_min_eig=r_min,
        q_increments_max_eig=q_max,
        r_cross_residuals=r_cross,
        q_cross_residuals=q_cross,
        r_scales=r_scales,
        q_scales=q_scales,
    )


def sigma_quadrature(triple: ParameterTriple, n, tol: Tolerances = DEFAULT,
                     quad_tol=1e-10):
    """Integral representation oracle for Sigma_n:

    Sigma_n = (1/2 pi) int (a - x I)^{-1} Lam_n Lam_n* (a* - x I)^{-1} dx

    over the real axis, compactified by x = tan(u).  Requires the spectrum
    of alpha in the open upper half plane and sigma0 = I; used as a test
    oracle only.
    """
    spec = linalg.spectrum(triple.alpha, tol)
    if spec.min_imag_part <= tol.spec_tol:
        raise SpectrumError(
            "quadrature oracle requires the spectrum in the open upper half plane"
        )
    lam = lambda_closed_form(triple, n, tol)
    gram = lam @ lam.conj().T
    a = triple.alpha
    i_n = np.eye(triple.order, dtype=complex)

    def integrand(u):
        x = np.tan(u)
        jac = 1.0 + x * x
        r = np.linalg.solve(a - x * i_n, gram)
        # right-multiply by (a* - x I)^{-1} via a transposed solve
        r = np.linalg.solve(a.conj() - x * i_n, r.T).T
        out = r * (jac / (2 * np.pi))
        return np.concatenate([out.real.ravel(), out.imag.ravel()])

    flat, _ = scipy.integrate.quad_vec(
        integrand, -np.pi / 2, np.pi / 2, epsabs=quad_tol, epsrel=quad_tol
    )
    size = triple.order * triple.order
    re = flat[:size].reshape(triple.order, triple.order)
    im = flat[size:].reshape(triple.order, triple.order)
    return linalg.herm(re + 1j * im)
