"""Time-dependent triples and explicit solutions of the isotropic
Heisenberg magnet lattice: Lambda_0(t), Sigma_0(t), spin vectors, the Lax
pair with its V = H equality, and residual checks for the zero-curvature
and IHM equations.

IHM semantics are fixed to 2x2 spin matrices (m = 1); the time evolution of
Lambda_0 and Sigma_0 is implemented for general m.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from . import linalg
from .config import DEFAULT, Tolerances
from .errors import (DegeneracyError, DimensionError, InputError,
                     NumericError, SpectrumError, SpinLatticeError)
from .lattice import _lattice_powers, generate
from .transfer import Transfer, _g
from .triples import ParameterTriple, projectors, signature_matrix
from .weyl import _realization

__all__ = [
    "evolve_lambda0",
    "lambda_n_at",
    "evolve_sigma0",
    "triple_at",
    "state_at",
    "TimeSlice",
    "SpinVector",
    "spin_vector",
    "spin_evolution",
    "LaxPair",
    "lax_pair",
    "zero_curvature_residual",
    "ihm_residual",
    "weyl_evolution",
    "positivity_interval",
    "monodromy_residual",
]


# Cap on the RK4 steps of one integration: |t| <= 100 at the default step.
MAX_RK_STEPS = 100_000


def _check_spectrum(triple, tol, need_zero=True, need_upper=False):
    spec = linalg.spectrum(triple.alpha, tol)
    if spec.contains_plus_i or spec.contains_minus_i:
        raise SpectrumError(
            "time evolution requires +/-i not in the spectrum of alpha",
            eigenvalue=1j if spec.contains_plus_i else -1j,
        )
    if need_zero and spec.contains_zero:
        raise SpectrumError(
            "time evolution requires alpha invertible", eigenvalue=0.0
        )
    if need_upper and spec.min_imag_part <= tol.spec_tol:
        raise SpectrumError(
            "sylvester route needs the spectrum of alpha strictly in the "
            "open upper half plane"
        )
    return spec


def _expm(a, t):
    """e^a for a time-t quantity; an overflow is a NumericError naming t,
    not a numpy warning followed by NaN downstream."""
    with np.errstate(over="ignore", invalid="ignore"):
        e = scipy.linalg.expm(a)
    if not np.isfinite(e).all():
        raise NumericError(f"matrix exponential overflows at t = {t:g}")
    return e


def _exp_factors(alpha, t):
    """e^{-2t(alpha - iI)^{-1}} and e^{-2t(alpha + iI)^{-1}}."""
    i_n = np.eye(alpha.shape[0], dtype=complex)
    e_minus = _expm(-2.0 * t * linalg.inv(alpha - 1j * i_n), t)
    e_plus = _expm(-2.0 * t * linalg.inv(alpha + 1j * i_n), t)
    return e_minus, e_plus


def _check_time(t):
    if not np.isfinite(t):
        raise InputError(f"time t must be finite, got {t!r}")


def _lambda0(triple, t, tol, need_upper=False):
    """(Lambda_0(t), spectrum report of alpha); ``need_upper`` adds the
    spectrum condition of the Sylvester route to the checks."""
    _check_time(t)
    spec = _check_spectrum(triple, tol, need_zero=False, need_upper=need_upper)
    e_minus, e_plus = _exp_factors(triple.alpha, t)
    return np.hstack([e_minus @ triple.theta1, e_plus @ triple.theta2]), spec


def evolve_lambda0(triple: ParameterTriple, t, tol: Tolerances = DEFAULT):
    """Lambda_0(t) = [e^{-2t(a - iI)^{-1}} theta1, e^{-2t(a + iI)^{-1}} theta2]."""
    return _lambda0(triple, t, tol)[0]


def lambda_n_at(triple: ParameterTriple, n, t, tol: Tolerances = DEFAULT):
    """Closed-form Lambda_n(t): lattice powers applied to Lambda_0(t)."""
    _check_spectrum(triple, tol)
    return _lattice_powers(triple.alpha, evolve_lambda0(triple, t, tol), n)


def _sigma_rk4(triple, t, rk_step=1e-3):
    """Classical RK4 on the Sigma_0 flow from Sigma_0(0), ceil(|t| / rk_step)
    steps (at most MAX_RK_STEPS), symmetrized:

    dSigma/dt = -(R Sigma + Sigma R* + 2 Q (alpha C + C alpha*) Q*),

    R = (alpha - iI)^{-1} + (alpha + iI)^{-1}, Q = (alpha^2 + I)^{-1},
    C = Lambda_0 J Lambda_0*.  Lambda_0 is advanced from one stage time to
    the next by the exact half-step propagators e^{-h(alpha -/+ iI)^{-1}}.
    """
    alpha, m = triple.alpha, triple.m
    steps = abs(t) / rk_step
    if steps > MAX_RK_STEPS:
        raise NumericError(
            f"RK4 route needs {steps:.3e} steps of {rk_step:g} to reach "
            f"t = {t:g}, beyond the limit of {MAX_RK_STEPS}"
        )
    steps = max(1, int(np.ceil(steps)))
    h = t / steps
    i_n = np.eye(alpha.shape[0], dtype=complex)
    r = linalg.inv(alpha - 1j * i_n) + linalg.inv(alpha + 1j * i_n)
    r_adj = r.conj().T
    q = linalg.inv(alpha @ alpha + i_n)
    q_alpha = q @ alpha
    j = signature_matrix(m)
    p_minus, p_plus = _exp_factors(alpha, h / 2)

    def rhs(sigma, lam):
        # Q alpha C Q* = (Q alpha Lam) J (Q Lam)*, and Q C alpha* Q* is its
        # adjoint.
        term = (q_alpha @ lam) @ j @ (q @ lam).conj().T
        return -(r @ sigma + sigma @ r_adj + 2.0 * (term + term.conj().T))

    def half_step(lam):
        return np.hstack([p_minus @ lam[:, :m], p_plus @ lam[:, m:]])

    sigma = triple.sigma0.copy()
    lam = np.hstack([triple.theta1, triple.theta2])
    for _ in range(steps):
        lam_mid = half_step(lam)
        lam_end = half_step(lam_mid)
        k1 = rhs(sigma, lam)
        k2 = rhs(sigma + h / 2 * k1, lam_mid)
        k3 = rhs(sigma + h / 2 * k2, lam_mid)
        k4 = rhs(sigma + h * k3, lam_end)
        sigma = sigma + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        lam = lam_end
    return linalg.herm(sigma)


def _gramian(a, b, t):
    """int_0^t e^{sA} b b* e^{sA*} ds from one expm of the Van Loan block
    t [[-A, b b*], [0, A*]] (Van Loan, IEEE TAC 23, 1978): its top-right
    block, premultiplied by the adjoint of its bottom-right block e^{tA*}."""
    n = a.shape[0]
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    block[:n, :n] = -a
    block[:n, n:] = b @ b.conj().T
    block[n:, n:] = a.conj().T
    f = _expm(t * block, t)
    return f[n:, n:].conj().T @ f[:n, n:]


def _sigma_flow(triple, t):
    """Exact solution at t of the Sigma_0 flow that ``_sigma_rk4``
    integrates, from three expm calls whatever t is.  R, Q and the
    propagators are functions of alpha and commute, so

    Sigma_0(t) = E [Sigma_0 - 2(Q alpha W Q* + Q W alpha* Q*)] E*,

    E = e^{-tR}, W = G(L, theta1) - G(-L, theta2) with the Gramians
    G(A, b) = int_0^t e^{sA} b b* e^{sA*} ds and
    L = (alpha + iI)^{-1} - (alpha - iI)^{-1}.
    """
    alpha = triple.alpha
    i_n = np.eye(alpha.shape[0], dtype=complex)
    minus, plus = linalg.inv(alpha - 1j * i_n), linalg.inv(alpha + 1j * i_n)
    q = minus @ plus
    e = _expm(-t * (minus + plus), t)
    w = (_gramian(plus - minus, triple.theta1, t)
         - _gramian(minus - plus, triple.theta2, t))
    term = q @ alpha @ linalg.herm(w) @ q.conj().T
    y = triple.sigma0 - 2.0 * (term + term.conj().T)
    return linalg.herm(e @ y @ e.conj().T)


def _lambda_sigma(triple, t, tol, need_upper=False):
    """(Lambda_0(t), Sigma_0(t)).  a Sig - Sig a* = i Lam0(t) Lam0(t)* fixes
    Sigma_0(t) only for spec(alpha) in the open upper half plane: a Sylvester
    solve there, else the exact solution of its flow (which ``need_upper``
    refuses)."""
    lam_t, spec = _lambda0(triple, t, tol, need_upper)
    if spec.min_imag_part > tol.spec_tol:
        return lam_t, linalg.sigma_from_identity(triple.alpha, lam_t, tol)[0]
    return lam_t, _sigma_flow(triple, t)


def evolve_sigma0(triple: ParameterTriple, t, method="sylvester",
                  rk_step=1e-3, tol: Tolerances = DEFAULT):
    """Sigma_0(t) by one named route, for comparing them.

    ``sylvester``: unique solution of a Sig - Sig a* = i Lam0(t) Lam0(t)*
    (requires the spectrum of alpha strictly inside the upper half plane).
    ``gramian``: exact solution of the Sigma_0 flow from Sigma_0(0), three
    expm calls for any t (Van Loan Gramians, see ``_sigma_flow``).
    ``ode``: fixed-step RK4 on the same flow, the reference for
    ``gramian``; ``rk_step`` applies to it alone.
    All results are symmetrized.  ``triple_at`` takes ``sylvester`` on
    the open upper half plane and ``gramian`` elsewhere.
    """
    if method == "sylvester":
        return _lambda_sigma(triple, t, tol, need_upper=True)[1]
    if method not in ("gramian", "ode"):
        raise ValueError(f"unknown method {method!r}")
    _check_time(t)
    if method == "ode" and not (np.isfinite(rk_step) and rk_step > 0):
        raise InputError(f"rk_step must be finite and positive, got {rk_step!r}")
    _check_spectrum(triple, tol, need_zero=False)
    if method == "gramian":
        return _sigma_flow(triple, t)
    return _sigma_rk4(triple, t, rk_step)


def triple_at(triple: ParameterTriple, t, tol: Tolerances = DEFAULT):
    """The parameter triple carrying Lambda_0(t) and Sigma_0(t)."""
    if t == 0:
        return triple
    lam_t, sigma_t = _lambda_sigma(triple, t, tol)
    m = triple.m
    return ParameterTriple(
        alpha=triple.alpha,
        theta1=lam_t[:, :m],
        theta2=lam_t[:, m:],
        sigma0=sigma_t,
    )


def state_at(triple: ParameterTriple, t, n_max, tol: Tolerances = DEFAULT):
    return generate(triple_at(triple, t, tol), n_max=n_max, tol=tol)


@dataclass(frozen=True)
class SpinVector:
    s1: float
    s2: float
    s3: float

    def as_array(self):
        return np.array([self.s1, self.s2, self.s3])

    @property
    def norm(self):
        return float(np.linalg.norm(self.as_array()))


def spin_vector(s, tol: Tolerances = DEFAULT):
    """Extract (s1, s2, s3) from a 2x2 spin matrix.

    s3 is the (1,1) entry, s1 + i s2 the (2,1) entry.  Enforces the unit
    norm and rejects S ~ +/- I (the degenerate poles of the IHM equation).
    """
    s = linalg.as_matrix(s, "spin matrix")
    if s.shape != (2, 2):
        raise DimensionError(f"spin matrix must be 2x2, got {s.shape}")
    i2 = np.eye(2)
    if min(linalg.frob(s - i2), linalg.frob(s + i2)) < tol.degeneracy_tol:
        raise DegeneracyError("spin matrix degenerates to +/- I")
    vec = SpinVector(
        s1=float(s[1, 0].real), s2=float(s[1, 0].imag), s3=float(s[0, 0].real)
    )
    if abs(vec.norm - 1.0) > 1e-9:
        raise NumericError(
            f"spin vector norm {vec.norm} deviates from 1 beyond 1e-09"
        )
    return vec


def _require_ihm(triple):
    if triple.m != 1:
        raise DimensionError(
            f"IHM semantics require 2x2 spin matrices (m = 1), got m = {triple.m}"
        )


def spin_evolution(triple: ParameterTriple, n, t, tol: Tolerances = DEFAULT):
    """(S_n(t), spin vector) from the time-t triple."""
    _require_ihm(triple)
    state = state_at(triple, t, n_max=n + 1, tol=tol)
    s = state.spins[n]
    return s, spin_vector(s, tol)


def _spin_vectors(state, tol):
    return [spin_vector(s, tol) for s in state.spins]


@dataclass(frozen=True)
class LaxPair:
    g: np.ndarray               # G_n(t, lambda)
    f: np.ndarray               # F_n(t, lambda)
    v_plus: np.ndarray
    v_minus: np.ndarray
    h_plus: np.ndarray
    h_minus: np.ndarray
    equality_plus: float        # ||V+ - H+||
    equality_minus: float
    trace_v_plus: complex
    trace_v_minus: complex


def _bond(vectors, n, tol: Tolerances):
    """1 + s_{n-1}.s_n, the denominator of V_n and of the IHM equation."""
    if n < 1:
        raise ValueError(f"site n = {n} has no S_{{n-1}}: needs n >= 1")
    denom = 1.0 + float(np.dot(vectors[n - 1].as_array(), vectors[n].as_array()))
    if abs(denom) < tol.degeneracy_tol:
        raise DegeneracyError(f"1 + s_{n - 1}.s_{n} = {denom:.3e} vanishes")
    return denom


def _v_pair(vectors, spins, n, tol: Tolerances):
    denom = _bond(vectors, n, tol)
    i2 = np.eye(2, dtype=complex)
    v_plus = (i2 + spins[n]) @ (i2 + spins[n - 1]) / denom
    v_minus = (i2 - spins[n]) @ (i2 - spins[n - 1]) / denom
    return v_plus, v_minus


def _lax_parameter(lam, tol: Tolerances):
    """complex(lambda), kept off {0, i, -i}, the poles of G_n and F_n."""
    lam = complex(lam)
    if min(abs(lam), abs(lam - 1j), abs(lam + 1j)) < tol.degeneracy_tol:
        raise SpectrumError("lambda must avoid {0, i, -i}")
    return lam


def _lax_f(v_plus, v_minus, lam):
    """F_n(lambda) = V_n^+ / (lambda - i) + V_n^- / (lambda + i)."""
    return v_plus / (lam - 1j) + v_minus / (lam + 1j)


def lax_pair(triple: ParameterTriple, n, t, lam, tol: Tolerances = DEFAULT):
    """TimeSlice.lax at site n >= 1, from the sites up to n."""
    return TimeSlice(triple, t, n + 1, tol=tol).lax(n, lam)


class TimeSlice:
    """The lattice around one time t, read by the residuals of every site:
    the state at t to horizon N with its spin vectors and its Transfer, and
    the states at t +/- h_t to horizon N - 1 for the central differences in
    t.  The Transfer and the t +/- h_t states are built on first use, so a
    slice read only by ``lax`` or ``monodromy`` builds one state.  The
    differences can be evaluated at sites 1 <= n <= N - 2."""

    def __init__(self, triple: ParameterTriple, t, n_max, h_t=1e-4,
                 tol: Tolerances = DEFAULT):
        _require_ihm(triple)
        self.state = state_at(triple, t, n_max=n_max, tol=tol)
        self.vectors = _spin_vectors(self.state, tol)
        self.triple, self.t, self.h_t, self.tol = triple, t, h_t, tol

    @cached_property
    def plus(self):
        return state_at(self.triple, self.t + self.h_t,
                        n_max=self.state.n_max - 1, tol=self.tol)

    @cached_property
    def minus(self):
        return state_at(self.triple, self.t - self.h_t,
                        n_max=self.state.n_max - 1, tol=self.tol)

    @cached_property
    def transfer(self):
        return Transfer(self.state, self.tol)

    def _d_dt(self, f, n):
        """Central difference in t of f(S_n)."""
        return (f(self.plus.spins[n]) - f(self.minus.spins[n])) / (2 * self.h_t)

    def zero_curvature(self, n, lam):
        """|| dG_n/dt - (F_{n+1} G_n - G_n F_n) || with a central difference.

        Exact zero curvature makes this O(h_t^2).
        """
        lam = _lax_parameter(lam, self.tol)
        spins = self.state.spins
        f_n, f_n1 = (_lax_f(*_v_pair(self.vectors, spins, k, self.tol), lam)
                     for k in (n, n + 1))
        g_mid = _g(spins[n], lam)
        dg = self._d_dt(lambda s: _g(s, lam), n)
        return linalg.frob(dg - (f_n1 @ g_mid - g_mid @ f_n))

    def ihm(self, n):
        """Residual of the IHM lattice equation at site n, central difference
        in t:

        ds_n/dt = 2 s_n x ( s_{n+1} / (1 + s_n.s_{n+1})
                            + s_{n-1} / (1 + s_{n-1}.s_n) ).
        """
        d_prev, d_next = (_bond(self.vectors, k, self.tol) for k in (n, n + 1))
        s_prev, s_mid, s_next = (v.as_array() for v in self.vectors[n - 1:n + 2])
        rhs = 2.0 * np.cross(s_mid, s_next / d_next + s_prev / d_prev)
        dvec = self._d_dt(lambda s: spin_vector(s, self.tol).as_array(), n)
        return float(np.linalg.norm(dvec - rhs))

    def lax(self, n, lam):
        """Lax pair at site n >= 1, with the V = H equality report.

        H_n^+ = 2 W(n, i) P_+ W(n, -i)*, H_n^- = 2 W(n, -i) P_- W(n, i)*.
        """
        lam = _lax_parameter(lam, self.tol)
        v_plus, v_minus = _v_pair(self.vectors, self.state.spins, n, self.tol)
        w = self.transfer.w
        p_plus, p_minus = projectors(1)
        h_plus = 2.0 * w(n, 1j) @ p_plus @ w(n, -1j).conj().T
        h_minus = 2.0 * w(n, -1j) @ p_minus @ w(n, 1j).conj().T
        return LaxPair(
            g=_g(self.state.spins[n], lam),
            f=_lax_f(v_plus, v_minus, lam),
            v_plus=v_plus,
            v_minus=v_minus,
            h_plus=h_plus,
            h_minus=h_minus,
            equality_plus=linalg.frob(v_plus - h_plus),
            equality_minus=linalg.frob(v_minus - h_minus),
            trace_v_plus=complex(np.trace(v_plus)),
            trace_v_minus=complex(np.trace(v_minus)),
        )

    def monodromy(self, n, lam):
        """``monodromy_residual`` at site n <= N - 1 and this slice's time."""
        return _monodromy(self.transfer, self.t, n, lam)


def zero_curvature_residual(triple: ParameterTriple, n, t, lam, h_t=1e-4,
                            tol: Tolerances = DEFAULT):
    """TimeSlice.zero_curvature at site n >= 1, from the sites up to n + 1."""
    return TimeSlice(triple, t, n + 2, h_t, tol).zero_curvature(n, lam)


def ihm_residual(triple: ParameterTriple, n, t, h_t=1e-4,
                 tol: Tolerances = DEFAULT):
    """TimeSlice.ihm at site n >= 1, from the sites up to n + 1."""
    return TimeSlice(triple, t, n + 2, h_t, tol).ihm(n)


def weyl_evolution(triple: ParameterTriple, t, tol: Tolerances = DEFAULT):
    """Weyl function at time t from the explicit evolution formula, as a
    Realization.

    phi(t, lam) = i theta1* E_-* Sigma_0(t)^{-1} (lam I - beta(t))^{-1} E_+ theta2
    with E_-* = (e^{-2t(a - iI)^{-1}})*, E_+ = e^{-2t(a + iI)^{-1}} and
    beta(t) = a - i E_+ theta2 theta2* E_+* Sigma_0(t)^{-1}.
    """
    lam_t, sigma_t = _lambda_sigma(triple, t, tol)
    m = triple.m
    return _realization(triple.alpha, lam_t[:, :m], lam_t[:, m:], sigma_t)


def positivity_interval(triple: ParameterTriple, t_max=5.0, step=0.05,
                        tol: Tolerances = DEFAULT):
    """Empirical positivity interval of Sigma_0(t) around t = 0.

    Marches outward in both directions until the minimal eigenvalue drops
    below 1e-10 max(1, maximal eigenvalue), a test relative to the size of
    Sigma_0(t) that round-off cannot decide (or until ``t_max`` is
    reached); returns the last good bracketing times
    ``(t_minus, t_plus)``.  Each point evolves the triple of the previous
    one by ``step``, so the march costs time linear in ``t_max / step``
    on either route of Sigma_0(t).
    """
    edges = []
    for sign in (-1.0, 1.0):
        good = 0.0
        current = triple
        steps = int(np.floor(t_max / step))
        for k in range(1, steps + 1):
            try:
                current = triple_at(current, sign * step, tol)
                eigs = np.linalg.eigvalsh(current.sigma0)
                if eigs[0] < 1e-10 * max(1.0, eigs[-1]):
                    break
            except (SpinLatticeError, np.linalg.LinAlgError):
                break
            good = sign * k * step
        edges.append(good)
    return edges[0], edges[1]


def monodromy_residual(triple: ParameterTriple, n, t, lam,
                       tol: Tolerances = DEFAULT):
    """Residual of the discrete half of the auxiliary linear system for the
    normalized family

    What_n = lam^{-n} W(n, t, lam) diag((lam - i)^n e^{2t/(lam - i)} I_m,
                                        (lam + i)^n e^{2t/(lam + i)} I_m):

    returns ||What_{n+1} - G_n What_n||_F.
    """
    return _monodromy(Transfer(state_at(triple, t, n_max=n + 1, tol=tol), tol),
                      t, n, lam)


def _monodromy(transfer, t, n, lam):
    """``monodromy_residual`` over the Transfer of the state at time t."""
    lam = _lax_parameter(lam, transfer.tol)
    m = transfer.m

    def what(k):
        d = np.zeros((2 * m, 2 * m), dtype=complex)
        d[:m, :m] = (lam - 1j) ** k * np.exp(2 * t / (lam - 1j)) * np.eye(m)
        d[m:, m:] = (lam + 1j) ** k * np.exp(2 * t / (lam + 1j)) * np.eye(m)
        return lam ** (-k) * transfer.w(k, lam) @ d

    return linalg.frob(what(n + 1) - _g(transfer.state.spins[n], lam) @ what(n))
