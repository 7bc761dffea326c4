"""Weyl functions as state-space realizations, and the summability
diagnostic that defines the Weyl function.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import linalg
from .config import DEFAULT, Tolerances
from .errors import AdmissibilityError, DimensionError, PoleError
from .lattice import generate
from .transfer import Transfer, _scaled, _shifted
from .triples import ParameterTriple, TripleClass, validate

__all__ = [
    "Realization",
    "weyl",
    "SummabilityReport",
    "summability_diagnostic",
    "lambda_grid",
]


@dataclass(frozen=True)
class Realization:
    """phi(lambda) = i vartheta1* (lambda I - gamma)^{-1} vartheta2.

    Both the input of the inverse problem and the Weyl function of a triple
    take this form; see ``weyl`` for the latter.
    """

    gamma: np.ndarray
    vartheta1: np.ndarray
    vartheta2: np.ndarray

    def __post_init__(self):
        gamma = linalg.as_matrix(self.gamma, "gamma")
        v1 = linalg.as_matrix(self.vartheta1, "vartheta1")
        v2 = linalg.as_matrix(self.vartheta2, "vartheta2")
        n = gamma.shape[0]
        if gamma.shape != (n, n):
            raise DimensionError(f"gamma must be square, got {gamma.shape}")
        if v1.shape[0] != n or v2.shape[0] != n or v1.shape[1] != v2.shape[1]:
            raise DimensionError(
                f"vartheta blocks must be {n} x m, got {v1.shape} and {v2.shape}"
            )
        if n == 0 or v1.shape[1] == 0:
            raise DimensionError(f"a realization needs N >= 1 and m >= 1, "
                                 f"got N = {n}, m = {v1.shape[1]}")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "vartheta1", v1)
        object.__setattr__(self, "vartheta2", v2)

    @property
    def order(self):
        return self.gamma.shape[0]

    @property
    def m(self):
        return self.vartheta1.shape[1]

    @cached_property
    def _spectrum(self):
        return linalg.spectrum(self.gamma)

    def __call__(self, lam, tol: Tolerances = DEFAULT):
        return self.grid([lam], tol)[0]

    def grid(self, lams, tol: Tolerances = DEFAULT):
        """phi at each of ``lams``, indexed [k] for lams[k]: the poles
        checked in order, then one broadcast solve of the stacked
        lambda I - gamma."""
        lams = np.array([complex(lam) for lam in lams], dtype=complex)
        linalg.check_pole(lams, self._spectrum, tol, "gamma")
        resolvents = linalg.solve(_shifted(lams, self.gamma), self.vartheta2)
        return 1j * self.vartheta1.conj().T @ resolvents

    def similarity(self, t):
        """State-space similarity (gamma, v1, v2) -> (T g T^{-1}, T^{-*} v1, T v2).

        Leaves phi unchanged: the output pair transforms contragrediently.
        """
        t = linalg.as_matrix(t, "T")
        t_inv = linalg.inv(t, "T")
        return Realization(
            gamma=t @ self.gamma @ t_inv,
            vartheta1=t_inv.conj().T @ self.vartheta1,
            vartheta2=t @ self.vartheta2,
        )


def weyl(triple: ParameterTriple, tol: Tolerances = DEFAULT):
    """Weyl function phi(lambda) = i theta1* sigma0^{-1} (lambda I - beta)^{-1}
    theta2 of the system generated by a triple, as the realization
    gamma = beta = alpha - i theta2 theta2* sigma0^{-1},
    vartheta1 = sigma0^{-1} theta1, vartheta2 = theta2.

    Accepts class FG triples (and FG-tilde, through the general-sigma0
    formula, which reduces to the FG formula when sigma0 = I).
    """
    report = validate(triple, tol)
    if report.triple_class in (TripleClass.INVALID, TripleClass.IDENTITY_ONLY):
        raise AdmissibilityError(
            f"triple of class {report.triple_class.value} has no Weyl function"
        )
    return _realization(triple)


def _realization(t: ParameterTriple):
    """gamma = beta = alpha - i theta2 theta2* sigma0^{-1},
    vartheta1 = sigma0^{-1} theta1, vartheta2 = theta2."""
    sigma_inv_t2 = linalg.solve(t.sigma0, t.theta2, "sigma0")
    return Realization(
        gamma=t.alpha - 1j * t.theta2 @ sigma_inv_t2.conj().T,
        vartheta1=linalg.solve(t.sigma0, t.theta1, "sigma0"),
        vartheta2=t.theta2,
    )


@dataclass(frozen=True)
class SummabilityReport:
    partial_sums: list
    is_cauchy: bool
    tail_increment: float
    column_identity_residual: float


def summability_diagnostic(triple: ParameterTriple, lam, n_terms=40,
                           phi=None, tol: Tolerances = DEFAULT):
    """Partial sums of sum_n ||W_n(lam) [phi; I]||_F^2.

    For the true Weyl function on Im(lam) < -1/2 the series converges; any
    other strictly proper candidate diverges.  ``phi`` may override the m x m
    value tested at ``lam`` (e.g. a perturbed candidate).  The Cauchy flag is
    a truncation heuristic: the increment over the last quarter of terms must
    stay below 1e-8 times the first term.

    When ``phi`` is None (the true Weyl function), also verifies the column
    identity W_n [phi; I] = ((lam + i)/lam)^n W(n, lam) [0; d(lam)^{-1}].
    ``n_terms`` must be at least 1.
    """
    if n_terms < 1:
        raise ValueError(f"summability_diagnostic needs n_terms >= 1, got "
                         f"{n_terms}")
    lam = complex(lam)
    if lam.imag >= -0.5:
        raise PoleError(
            f"summability is defined on Im(lambda) < -1/2, got {lam}"
        )
    transfer = Transfer(generate(triple, n_max=n_terms, tol=tol), tol)
    is_true_phi = phi is None
    if is_true_phi:
        phi = weyl(triple, tol)(lam, tol)
    return _summability(transfer, lam, n_terms, phi, is_true_phi)


def _summability(transfer, lam, n_terms, phi, is_true_phi):
    """``summability_diagnostic`` over a Transfer of horizon >= n_terms, for
    the m x m value ``phi`` at ``lam``; ``is_true_phi`` adds the column
    identity check."""
    m = transfer.m
    stack = np.vstack([phi, np.eye(m, dtype=complex)])
    w = transfer.w_grid([lam])[:, 0]
    wn = transfer.fundamental_grid([lam])[:, 0]

    column_residual = 0.0
    if is_true_phi:
        d_inv = linalg.inv(w[0][m:, m:], "d(lambda)")
        rhs_stack = np.vstack([np.zeros((m, m), dtype=complex), d_inv])
        sites = min(n_terms, 5) + 1
        rhs = _scaled([((lam + 1j) / lam) ** n for n in range(sites)],
                      w[:sites]) @ rhs_stack
        column_residual = linalg.frob_norms(wn[:sites] @ stack - rhs).max()

    # squares of Python floats summed in sequence: the bits of a running sum
    terms = linalg.frob_norms(wn[:n_terms] @ stack).tolist()
    partial = np.cumsum([t ** 2 for t in terms])
    quarter = max(1, (3 * n_terms) // 4)
    tail = partial[-1] - partial[quarter - 1]
    is_cauchy = tail < 1e-8 * max(partial[0], np.finfo(float).tiny)
    return SummabilityReport(
        partial_sums=partial.tolist(),
        is_cauchy=bool(is_cauchy),
        tail_increment=float(tail),
        column_identity_residual=float(column_residual),
    )


def lambda_grid(alpha, count=20, tol: Tolerances = DEFAULT):
    """``count`` sampling points on the circle of radius 2(1 + ||alpha||_2)
    about 0; points within 10 pole_tol of the spectrum of alpha are dropped,
    and dropping all of them is a PoleError."""
    return _lambda_grid(linalg.spectrum(alpha, tol), count, tol)


def _lambda_grid(spec, count, tol: Tolerances = DEFAULT):
    """``lambda_grid`` from the SpectrumReport ``spec`` of alpha."""
    radius = 2.0 * (1.0 + spec.norm)
    margin = replace(spec, scale=10 * spec.scale)   # 10x pole threshold
    pts = []
    for k in range(count):
        lam = radius * np.exp(2j * np.pi * (k + 0.37) / count)
        try:
            linalg.check_pole(lam, margin, tol, "alpha")
        except PoleError:
            continue
        pts.append(lam)
    if count and not pts:
        raise PoleError(f"all {count} sample points of the circle lie within "
                        f"10 pole_tol of the spectrum of alpha")
    return pts
