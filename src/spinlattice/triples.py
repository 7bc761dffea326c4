"""Parameter triples (alpha, theta1, theta2; optional general sigma0).

A triple determines a spin sequence through the lattice recursion.  This
module constructs, classifies, normalizes and reduces triples, and provides
the random generators used by the verification suites.
"""

import enum
from dataclasses import dataclass

import numpy as np

from . import linalg
from .config import DEFAULT, Tolerances
from .errors import (
    DimensionError,
    NotPositiveDefiniteError,
    NumericError,
    SingularMatrixError,
    SpectrumError,
    SpinLatticeError,
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


def _identity_residuals(alpha, sigma, lam):
    """Frobenius norms of alpha Sigma - Sigma alpha* - i Lambda Lambda*, the
    residual of the structural identity, for one (Sigma, Lambda) or each of
    a stack."""
    return linalg.frob_norms(alpha @ sigma - sigma @ alpha.conj().T
                             - 1j * lam @ lam.conj().swapaxes(-1, -2))


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
        if n == 0 or theta1.shape[1] == 0:
            raise DimensionError(f"a triple needs N >= 1 and m >= 1, got "
                                 f"N = {n}, m = {theta1.shape[1]}")
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
        # work on alpha alone (``_of_alpha``), shared with each triple
        # moved from this one (``_moved``)
        object.__setattr__(self, "_spectra", {})

    def _of_alpha(self, key, make, *args):
        """make(alpha, *args), made once per key: the spectrum reports,
        keyed by Tolerances, the resolvents and the eigenbasis."""
        if key not in self._spectra:
            self._spectra[key] = make(self.alpha, *args)
        return self._spectra[key]

    def spectrum(self, tol: Tolerances = DEFAULT):
        """The SpectrumReport of alpha, made once per Tolerances."""
        return self._of_alpha(tol, linalg.spectrum, tol)

    def _resolvents(self):
        """(alpha - iI)^{-1} and (alpha + iI)^{-1}, inverted once per alpha."""
        def invert(alpha):
            i_n = np.eye(alpha.shape[0], dtype=complex)
            return linalg.inv(alpha - 1j * i_n), linalg.inv(alpha + 1j * i_n)

        return self._of_alpha("resolvents", invert)

    def _eigenbasis(self, tol: Tolerances):
        """(d, V, V^{-1}) with alpha = V diag(d) V^{-1}, made once per alpha
        (``linalg._eigenbasis``), where the spectrum lies in the open upper
        half plane and cond(V) <= ``linalg.EIGENBASIS_COND``; else None,
        with no eigendecomposition off the half plane.  None also where the
        spectrum report raises a SpinLatticeError."""
        try:
            if not self.spectrum(tol).in_upper_half_plane:
                return None
        except SpinLatticeError:
            return None
        return self._of_alpha("eigenbasis", linalg._eigenbasis)

    def _moved(self, lam, sigma):
        """The triple with this alpha, Lambda_0 = ``lam`` and Sigma_0 =
        ``sigma``: it holds the one alpha array, and so shares the work on
        it (``_of_alpha``)."""
        m = self.m
        moved = ParameterTriple(alpha=self.alpha, theta1=lam[:, :m],
                                theta2=lam[:, m:], sigma0=sigma)
        object.__setattr__(moved, "_spectra", self._spectra)
        return moved

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
        return float(_identity_residuals(self.alpha, self.sigma0, self.lambda0))

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
    with np.errstate(all="ignore"):
        residual = triple.identity_residual()
        scale = triple.identity_scale()
    if not np.isfinite(residual):
        raise NumericError("the identity residual alpha Sigma_0 - Sigma_0 "
                           "alpha* - i Lambda_0 Lambda_0* overflows")
    identity_ok = residual <= tol.id_tol * max(1.0, scale)
    fr1 = linalg.is_full_range(triple.alpha, triple.theta1, tol)
    fr2 = linalg.is_full_range(triple.alpha, triple.theta2, tol)
    spec = triple.spectrum(tol)

    if not identity_ok:
        cls = TripleClass.INVALID
    elif fr1 and fr2:
        if not spec.in_upper_half_plane:
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
    r, r_inv = linalg.hermitian_powers(triple.sigma0, (0.5, -0.5), tol)
    return ParameterTriple(
        alpha=r_inv @ triple.alpha @ r,
        theta1=r_inv @ triple.theta1,
        theta2=r_inv @ triple.theta2,
    )


def reduce_triple(triple: ParameterTriple, which="theta2", tol: Tolerances = DEFAULT):
    """Compress out the non-full-range part in one theta factor.

    Projects onto the orthonormal Krylov basis of span{alpha^k theta}
    (``linalg.krylov_basis``), as ``inverse.reduce_to_minimal`` does.  The
    generated spin sequence is unchanged.
    Requires sigma0 = I and 0, i not in the spectrum of alpha.
    """
    if which not in ("theta1", "theta2"):
        raise ValueError(f"which must be 'theta1' or 'theta2', got {which!r}")
    if not triple.sigma0_is_identity(tol):
        raise NotPositiveDefiniteError(
            "reduce_triple requires the normalized form sigma0 = I"
        )
    spec = triple.spectrum(tol)
    if spec.contains_zero or spec.contains_plus_i:
        bad = 0.0 if spec.contains_zero else 1j
        raise SpectrumError(
            f"reduce_triple requires 0, i not in the spectrum of alpha "
            f"(found eigenvalue near {bad})")
    theta = triple.theta1 if which == "theta1" else triple.theta2
    q = linalg.krylov_basis(triple.alpha, theta, tol)
    if q.shape[1] == triple.order:
        return triple
    p = q.conj().T
    return ParameterTriple(alpha=p @ triple.alpha @ q, theta1=p @ triple.theta1,
                           theta2=p @ triple.theta2)


def _complex_gaussian(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def random_admissible_triple(
    rng,
    order,
    m,
    h_scale=2.0,
    inv_norm_max=1.0,
    tol: Tolerances = DEFAULT,
):
    """Draw a random class-FG triple.

    alpha = h_scale*H + (i/2)(theta1 theta1* + theta2 theta2*) with H random
    Hermitian satisfies the identity by construction.  Draws are rejected
    until both pairs are full range, ||alpha^{-1}|| <= inv_norm_max (keeps
    the lattice recursion growth moderate) and the spectrum stays 0.05 away
    from {0, i, -i}, at most 500 draws.  ``order`` and ``m`` must be >= 1.
    """
    for name, size in (("order", order), ("m", m)):
        if size < 1:
            raise ValueError(f"{name} must be >= 1, got {size}")
    for _ in range(500):
        theta1 = _complex_gaussian(rng, order, m)
        theta2 = _complex_gaussian(rng, order, m)
        h = linalg.herm(_complex_gaussian(rng, order, order)) * h_scale
        gram = theta1 @ theta1.conj().T + theta2 @ theta2.conj().T
        alpha = h + 0.5j * gram
        if not (linalg.is_full_range(alpha, theta1, tol)
                and linalg.is_full_range(alpha, theta2, tol)):
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
        ) < 0.05:
            continue
        return ParameterTriple(alpha=alpha, theta1=theta1, theta2=theta2)
    raise NumericError("no admissible triple found in 500 draws")


def random_general_sigma_triple(rng, order, m, tol: Tolerances = DEFAULT):
    """Random triple with a non-trivial positive definite sigma0.

    alpha is taken from an admissible draw (spectrum in the upper half
    plane), a fresh Lambda0 is drawn, and sigma0 is recovered from the
    structural identity via a Sylvester solve; redrawn, at most 500 times,
    until the least eigenvalue of sigma0 is at least 0.05.
    """
    for _ in range(500):
        base = random_admissible_triple(rng, order, m, tol=tol)
        theta1 = _complex_gaussian(rng, order, m)
        theta2 = _complex_gaussian(rng, order, m)
        lam = np.hstack([theta1, theta2])
        sigma0 = linalg.herm(linalg.solve_sylvester(
            base.alpha, base.alpha.conj().T, 1j * lam @ lam.conj().T, tol))
        if np.linalg.eigvalsh(sigma0)[0] < 0.05:
            continue
        return ParameterTriple(alpha=base.alpha, theta1=theta1, theta2=theta2,
                               sigma0=sigma0)
    raise NumericError("no general-sigma triple found in 500 draws")


def pad_triple(triple: ParameterTriple, rng, pad, which="theta2", h_scale=3.0):
    """Append an uncontrollable block of size ``pad`` in the chosen factor.

    The padded triple still satisfies the structural identity and generates
    the same spin sequence; ``reduce_triple`` on the padded factor must
    recover the original order.  ``pad`` must be >= 0.
    """
    if pad < 0:
        raise ValueError(f"pad must be >= 0, got {pad}")
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
