"""Parameter triples (alpha, theta1, theta2; optional general sigma0).

A triple determines a spin sequence through the lattice recursion.  This
module constructs, classifies, normalizes and reduces triples, and provides
the random generators used by the verification suites.
"""

import enum
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .config import DEFAULT, Tolerances
from .errors import (
    DimensionError,
    NotPositiveDefiniteError,
    NumericError,
    SingularMatrixError,
    SpectrumError,
)

__all__ = [
    "signature_matrix",
    "projectors",
    "ParameterTriple",
    "TripleClass",
    "AdmissibilityReport",
    "validate",
    "normalize_sigma0",
    "reduce_triple",
    "random_admissible_triple",
    "random_general_sigma_triple",
    "pad_triple",
]


def signature_matrix(m):
    """J = diag(I_m, -I_m) of order 2m."""
    j = np.zeros((2 * m, 2 * m), dtype=complex)
    j[:m, :m] = np.eye(m)
    j[m:, m:] = -np.eye(m)
    return j


def projectors(m):
    """Complementary projectors P_+ = (I + J)/2 and P_- = (I - J)/2."""
    j = signature_matrix(m)
    i2m = np.eye(2 * m, dtype=complex)
    return (i2m + j) / 2, (i2m - j) / 2


@dataclass(frozen=True)
class ParameterTriple:
    """(alpha, theta1, theta2) with an explicit sigma0 (identity by default)."""

    alpha: np.ndarray
    theta1: np.ndarray
    theta2: np.ndarray
    sigma0: np.ndarray = None

    def __post_init__(self):
        alpha = linalg.as_matrix(self.alpha, "alpha")
        theta1 = linalg.as_matrix(self.theta1, "theta1")
        theta2 = linalg.as_matrix(self.theta2, "theta2")
        n = alpha.shape[0]
        if alpha.shape != (n, n):
            raise DimensionError(f"alpha must be square, got {alpha.shape}")
        if theta1.shape[0] != n or theta2.shape[0] != n:
            raise DimensionError(
                f"theta blocks must have {n} rows, got "
                f"{theta1.shape} and {theta2.shape}"
            )
        if theta1.shape[1] != theta2.shape[1]:
            raise DimensionError("theta1 and theta2 must have equal width")
        sigma0 = self.sigma0
        if sigma0 is None:
            sigma0 = np.eye(n, dtype=complex)
        sigma0 = linalg.require_hermitian(sigma0, name="sigma0")
        if sigma0.shape != (n, n):
            raise DimensionError(f"sigma0 must be {n}x{n}, got {sigma0.shape}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "theta1", theta1)
        object.__setattr__(self, "theta2", theta2)
        object.__setattr__(self, "sigma0", sigma0)

    @property
    def order(self):
        return self.alpha.shape[0]

    @property
    def m(self):
        return self.theta1.shape[1]

    @property
    def lambda0(self):
        return np.hstack([self.theta1, self.theta2])

    def sigma0_is_identity(self, tol: Tolerances = DEFAULT):
        return linalg.frob(self.sigma0 - np.eye(self.order)) <= tol.id_tol * max(
            1.0, self.order
        )

    def identity_residual(self):
        """Frobenius residual of alpha sigma0 - sigma0 alpha* = i Lam0 Lam0*."""
        lam = self.lambda0
        r = (
            self.alpha @ self.sigma0
            - self.sigma0 @ self.alpha.conj().T
            - 1j * lam @ lam.conj().T
        )
        return linalg.frob(r)

    def identity_scale(self):
        return linalg.frob(self.alpha) * linalg.frob(self.sigma0) + linalg.frob(
            self.lambda0
        ) ** 2


class TripleClass(enum.Enum):
    FG = "FG"
    FG_TILDE = "FG-tilde"
    IDENTITY_ONLY = "identity-only"
    INVALID = "invalid"


@dataclass(frozen=True)
class AdmissibilityReport:
    identity_ok: bool
    theta1_full_range: bool
    theta2_full_range: bool
    spectrum: linalg.SpectrumReport
    triple_class: TripleClass
    identity_residual: float = 0.0


def validate(triple: ParameterTriple, tol: Tolerances = DEFAULT):
    """Classify a triple as FG / FG-tilde / identity-only / invalid.

    For a class-FG verdict the spectrum of alpha must lie in the open upper
    half plane; a full-range triple violating that signals an internal
    inconsistency and raises.
    """
    residual = triple.identity_residual()
    identity_ok = residual <= tol.id_tol * max(1.0, triple.identity_scale())
    fr1, _ = linalg.is_full_range(triple.alpha, triple.theta1, tol)
    fr2, _ = linalg.is_full_range(triple.alpha, triple.theta2, tol)
    spec = linalg.spectrum(triple.alpha, tol)

    if not identity_ok:
        cls = TripleClass.INVALID
    elif fr1 and fr2:
        if spec.min_imag_part <= tol.spec_tol:
            raise NumericError(
                "full-range triple with spectrum not in the open upper half "
                f"plane (min imag part {spec.min_imag_part:.3e})"
            )
        cls = TripleClass.FG
    elif not spec.contains_zero and not spec.contains_plus_i:
        cls = TripleClass.FG_TILDE
    else:
        cls = TripleClass.IDENTITY_ONLY
    return AdmissibilityReport(
        identity_ok=identity_ok,
        theta1_full_range=fr1,
        theta2_full_range=fr2,
        spectrum=spec,
        triple_class=cls,
        identity_residual=residual,
    )


def normalize_sigma0(triple: ParameterTriple, tol: Tolerances = DEFAULT):
    """Transform to the equivalent triple with sigma0 = I.

    The spin sequence is unchanged under
    (alpha, sigma0, Lam) -> (sigma0^{-1/2} alpha sigma0^{1/2}, I,
    sigma0^{-1/2} Lam).
    """
    if triple.sigma0_is_identity(tol):
        return triple
    r = linalg.hermitian_sqrt(triple.sigma0, tol)
    r_inv = linalg.hermitian_power(triple.sigma0, -0.5, tol)
    return ParameterTriple(
        alpha=r_inv @ triple.alpha @ r,
        theta1=r_inv @ triple.theta1,
        theta2=r_inv @ triple.theta2,
    )


def reduce_triple(triple: ParameterTriple, which="theta2", tol: Tolerances = DEFAULT):
    """Compress out the non-full-range part in one theta factor.

    Rotates the Krylov span of {alpha^k theta} onto the leading coordinates
    and keeps the leading block.  The generated spin sequence is unchanged.
    Requires sigma0 = I and 0, i not in the spectrum of alpha.
    """
    if which not in ("theta1", "theta2"):
        raise ValueError(f"which must be 'theta1' or 'theta2', got {which!r}")
    if not triple.sigma0_is_identity(tol):
        raise NotPositiveDefiniteError(
            "reduce_triple requires the normalized form sigma0 = I"
        )
    spec = linalg.spectrum(triple.alpha, tol)
    if spec.contains_zero or spec.contains_plus_i:
        bad = 0.0 if spec.contains_zero else 1j
        raise SpectrumError(
            f"reduce_triple requires 0, i not in the spectrum of alpha "
            f"(found eigenvalue near {bad})",
            eigenvalue=bad,
        )
    theta = triple.theta1 if which == "theta1" else triple.theta2
    q = linalg.krylov_basis(triple.alpha, theta, tol)
    n0 = q.shape[1]
    if n0 == triple.order:
        return triple
    u, _, _ = np.linalg.svd(q, full_matrices=True)
    # first n0 columns of u span the Krylov subspace
    basis = u[:, :n0]
    return ParameterTriple(
        alpha=basis.conj().T @ triple.alpha @ basis,
        theta1=basis.conj().T @ triple.theta1,
        theta2=basis.conj().T @ triple.theta2,
    )


def _complex_gaussian(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def random_admissible_triple(
    rng,
    order,
    m,
    h_scale=2.0,
    inv_norm_max=1.0,
    avoid_distance=0.05,
    max_tries=500,
    tol: Tolerances = DEFAULT,
):
    """Draw a random class-FG triple.

    alpha = h_scale*H + (i/2)(theta1 theta1* + theta2 theta2*) with H random
    Hermitian satisfies the identity by construction.  Draws are rejected
    until both pairs are full range, ||alpha^{-1}|| <= inv_norm_max (keeps
    the lattice recursion growth moderate) and the spectrum stays away from
    {0, i, -i}.
    """
    for _ in range(max_tries):
        theta1 = _complex_gaussian(rng, order, m)
        theta2 = _complex_gaussian(rng, order, m)
        h = linalg.herm(_complex_gaussian(rng, order, order)) * h_scale
        gram = theta1 @ theta1.conj().T + theta2 @ theta2.conj().T
        alpha = h + 0.5j * gram
        fr1, _ = linalg.is_full_range(alpha, theta1, tol)
        fr2, _ = linalg.is_full_range(alpha, theta2, tol)
        if not (fr1 and fr2):
            continue
        try:
            a_inv = linalg.inv(alpha)
        except SingularMatrixError:
            continue
        if np.linalg.norm(a_inv, 2) > inv_norm_max:
            continue
        eigs = np.linalg.eigvals(alpha)
        if min(
            np.min(np.abs(eigs)),
            np.min(np.abs(eigs - 1j)),
            np.min(np.abs(eigs + 1j)),
        ) < avoid_distance:
            continue
        return ParameterTriple(alpha=alpha, theta1=theta1, theta2=theta2)
    raise NumericError(f"no admissible triple found in {max_tries} draws")


def random_general_sigma_triple(rng, order, m, min_eig=0.05, max_tries=500,
                                tol: Tolerances = DEFAULT):
    """Random triple with a non-trivial positive definite sigma0.

    alpha is taken from an admissible draw (spectrum in the upper half
    plane), a fresh Lambda0 is drawn, and sigma0 is recovered from the
    structural identity via a Sylvester solve; redrawn until sigma0 is
    comfortably positive definite.
    """
    for _ in range(max_tries):
        base = random_admissible_triple(rng, order, m, tol=tol)
        theta1 = _complex_gaussian(rng, order, m)
        theta2 = _complex_gaussian(rng, order, m)
        lam = np.hstack([theta1, theta2])
        sigma0, _ = linalg.sigma_from_identity(base.alpha, lam, tol)
        if linalg.min_eig_hermitian(sigma0, tol) < min_eig:
            continue
        return ParameterTriple(alpha=base.alpha, theta1=theta1, theta2=theta2,
                               sigma0=sigma0)
    raise NumericError(f"no general-sigma triple found in {max_tries} draws")


def pad_triple(triple: ParameterTriple, rng, pad, which="theta2", h_scale=3.0):
    """Append an uncontrollable block of size ``pad`` in the chosen factor.

    The padded triple still satisfies the structural identity and generates
    the same spin sequence; ``reduce_triple`` on the padded factor must
    recover the original order.
    """
    if not triple.sigma0_is_identity():
        raise NotPositiveDefiniteError("pad_triple requires sigma0 = I")
    n, m = triple.order, triple.m
    kappa = _complex_gaussian(rng, pad, m)
    h22 = linalg.herm(_complex_gaussian(rng, pad, pad)) * h_scale
    a22 = h22 + 0.5j * kappa @ kappa.conj().T
    alpha = np.zeros((n + pad, n + pad), dtype=complex)
    alpha[:n, :n] = triple.alpha
    alpha[n:, n:] = a22
    zeros = np.zeros((pad, m), dtype=complex)
    if which == "theta2":
        alpha[:n, n:] = 1j * triple.theta1 @ kappa.conj().T
        theta1 = np.vstack([triple.theta1, kappa])
        theta2 = np.vstack([triple.theta2, zeros])
    elif which == "theta1":
        alpha[:n, n:] = 1j * triple.theta2 @ kappa.conj().T
        theta1 = np.vstack([triple.theta1, zeros])
        theta2 = np.vstack([triple.theta2, kappa])
    else:
        raise ValueError(f"which must be 'theta1' or 'theta2', got {which!r}")
    return ParameterTriple(alpha=alpha, theta1=theta1, theta2=theta2)
