"""Time-dependent triples and explicit solutions of the isotropic
Heisenberg magnet lattice: Lambda_0(t), Sigma_0(t), spin vectors, the Lax
pair with its V = H equality, and residual checks for the zero-curvature
and IHM equations from dS_n/dt, the time flow evaluated at each site
(``lattice._dspins``): exact up to round-off, where a step h_t (the two
public residual functions alone) makes it a central difference.

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
from .lattice import (_cauchy, _check_site, _closed_form_stack, _finite, _h,
                      _lattice_powers, _live, _record, _record_non_finite,
                      generate_stack)
from .transfer import Transfer, _g, _j_diagonals
from .triples import ParameterTriple, projectors, signature_matrix
from .weyl import _realization

__all__ = [
    "evolve_lambda0",
    "lambda_n_at",
    "evolve_sigma0",
    "triple_at",
    "TimeGrid",
    "trajectory",
    "SpinVector",
    "spin_vector",
    "spin_evolution",
    "LaxPair",
    "lax_pair",
    "zero_curvature_residual",
    "ihm_residual",
    "weyl_evolution",
    "positivity_interval",
]


# Cap on the RK4 steps of one integration: |t| <= 100 at the default step.
MAX_RK_STEPS = 100_000

# Bound on | ||(s1, s2, s3)|| - 1 | of a spin vector.
SPIN_NORM_BOUND = 1e-9

# Cap on the points that ``positivity_interval`` marches on either side.
MAX_MARCH_POINTS = 100_000

def _check_spectrum(triple, tol):
    spec = triple.spectrum(tol)
    if spec.contains_plus_i or spec.contains_minus_i:
        raise SpectrumError(
            "time evolution requires +/-i not in the spectrum of alpha")
    return spec


def _overflow(t):
    return NumericError(f"matrix exponential overflows at t = {t:g}")


def _refuse_non_finite(times, faults):
    """Make the error of each non-finite time an InputError, whatever else
    failed there: a time is checked first."""
    for k in np.flatnonzero(~np.isfinite(times)).tolist():
        faults[k] = InputError(
            f"time t must be finite, got {float(times[k])!r}")
    return faults


def _expm(a, times, faults):
    """e^{a[p, k]} for the time-times[k] quantities a[p, k] of each entry k
    without an error in ``faults``, in one expm call.  A non-finite exponent
    or exponential is a NumericError naming t, not numpy warnings and NaN
    downstream; the entries with an error get the identity."""
    _record(faults, ~_finite(a).all(axis=0), lambda k: _overflow(times[k]))
    live = _live(faults)
    e = np.broadcast_to(np.eye(a.shape[-1], dtype=complex), a.shape).copy()
    if live.size:
        e[:, live] = scipy.linalg.expm(a[:, live])
    _record(faults, ~_finite(e).all(axis=0), lambda k: _overflow(times[k]))
    return e


def _exp_factors(triple, times):
    """(e^{-2t(alpha - iI)^{-1}} and e^{-2t(alpha + iI)^{-1}} at each time,
    indexed [0 or 1, time]; the error of each time or None)."""
    faults = [None] * times.size
    scale = (-2.0 * times)[:, None, None]
    return _expm(np.stack([scale * r for r in triple._resolvents()]), times,
                 faults), faults


def _at(stacked, subject, t, *args):
    """``stacked(subject, times, *args)``, a stacked evaluation that returns
    the error of each time (or None) last, on the grid of the one time t:
    its other results, after raising the error of t.  Floating point
    warnings are silenced; failures are errors."""
    with np.errstate(all="ignore"):
        *results, (error,) = stacked(subject, np.array([t], dtype=float),
                                     *args)
    if error is not None:
        raise error
    return results


def _primed_resolvents(d):
    """The diagonals 1/(d -/+ i) of (alpha -/+ iI)^{-1} in its eigenbasis."""
    return 1.0 / (d - 1j), 1.0 / (d + 1j)


def _lambda0(triple, times, tol):
    """(Lambda_0(t) at each of ``times``, stacked; the eigenbasis
    (d, V, V^{-1}) of alpha or None; the error of each time or None): the
    one choice of route of the time-t stage.  +/-i in the spectrum of
    alpha is the error of every time, a non-finite time an InputError.
    Where the triple's cached eigenbasis admits alpha
    (``ParameterTriple._eigenbasis``) it comes primed, Lam' = V^{-1} Lam:
    Lam'(t) = e^{-2t r} V^{-1} Lambda_0 elementwise, r = 1/(d -/+ i) down
    the theta1 and theta2 columns (``_primed_resolvents``), and a
    non-finite exponent or exponential is the overflow of its time, as in
    ``_expm``.  Else it comes from one stacked expm over the times
    t != 0, and is Lambda_0 at t = 0 and where the route fails."""
    try:
        _check_spectrum(triple, tol)
        basis = triple._eigenbasis(tol)
        if basis is None:
            moving = np.flatnonzero(times != 0)
            e, moved = _exp_factors(triple, times[moving])
    except SpinLatticeError as exc:        # the same for every time
        lam = np.broadcast_to(triple.lambda0,
                              times.shape + triple.lambda0.shape)
        return lam, None, _refuse_non_finite(times, [exc] * times.size)
    faults = [None] * times.size
    if basis is not None:
        d, _, v_inv = basis
        exponent = (-2.0 * times)[:, None, None] * np.repeat(
            np.stack(_primed_resolvents(d), axis=-1), triple.m, axis=-1)
        e = np.exp(exponent)
        _record(faults, ~(_finite(exponent) & _finite(e)),
                lambda k: _overflow(times[k]))
        lam = e * (v_inv @ triple.lambda0)
    else:
        lam = np.repeat(triple.lambda0[None], times.size, axis=0)
        lam[moving] = np.concatenate([e[0] @ triple.theta1,
                                      e[1] @ triple.theta2], axis=-1)
        for k, error in zip(moving.tolist(), moved):
            faults[k] = error
    return lam, basis, _refuse_non_finite(times, faults)


def evolve_lambda0(triple: ParameterTriple, t, tol: Tolerances = DEFAULT):
    """Lambda_0(t) = [e^{-2t(a - iI)^{-1}} theta1, e^{-2t(a + iI)^{-1}} theta2]."""
    lam, basis = _at(_lambda0, triple, t, tol)
    if t == 0:
        return triple.lambda0
    return lam[0] if basis is None else (basis[1] @ lam)[0]


def lambda_n_at(triple: ParameterTriple, n, t, tol: Tolerances = DEFAULT):
    """Closed-form Lambda_n(t) at a site n >= 0: lattice powers applied to
    Lambda_0(t)."""
    _check_site("lambda_n_at", n)
    if _check_spectrum(triple, tol).contains_zero:
        raise SpectrumError("time evolution requires alpha invertible")
    return _lattice_powers(triple.alpha, evolve_lambda0(triple, t, tol), [n])[0]


def _flow(triple):
    """The right-hand side of the Sigma_0 flow as a function of
    (Sigma_0(t), Lambda_0(t)), for RK4 (``_sigma_rk4``); ``lattice._dspins``
    evaluates it at each site,

    dSigma/dt = -(R Sigma + Sigma R* + 2 Q (alpha C + C alpha*) Q*),

    R = (alpha - iI)^{-1} + (alpha + iI)^{-1},
    Q = (alpha^2 + I)^{-1} = (alpha - iI)^{-1} (alpha + iI)^{-1},
    C = Lambda_0 J Lambda_0*: products of the resolvents that the triple
    caches (``ParameterTriple._resolvents``), with no inversion."""
    minus, plus = triple._resolvents()
    r = minus + plus
    r_adj = _h(r)
    q = minus @ plus
    q_alpha = q @ triple.alpha
    j = signature_matrix(triple.m)

    def rhs(sigma, lam):
        # Q alpha C Q* = (Q alpha Lam) J (Q Lam)*, and Q C alpha* Q* is its
        # adjoint.
        term = (q_alpha @ lam) @ j @ _h(q @ lam)
        return -(r @ sigma + sigma @ r_adj + 2.0 * (term + _h(term)))

    return rhs


def _sigma_rk4(triple, t, rk_step=1e-3):
    """Classical RK4 on the Sigma_0 flow (``_flow``) from Sigma_0(0),
    ceil(|t| / rk_step) steps (at most MAX_RK_STEPS), symmetrized.
    Lambda_0 is carried from one stage time to the next by the exact
    half-step propagators e^{-h(alpha -/+ iI)^{-1}}.
    """
    m = triple.m
    steps = abs(t) / rk_step
    if steps > MAX_RK_STEPS:
        raise NumericError(
            f"RK4 route needs {steps:.3e} steps of {rk_step:g} to reach "
            f"t = {t:g}, beyond the limit of {MAX_RK_STEPS}"
        )
    steps = max(1, int(np.ceil(steps)))
    h = t / steps
    rhs = _flow(triple)
    (p_minus,), (p_plus,) = _at(_exp_factors, triple, h / 2)[0]

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


def _van_loan(a, b):
    """The block [[-A, b b*], [0, A*]]: the top-right block of e^{t block},
    premultiplied by the adjoint of its bottom-right block e^{tA*}, is the
    Gramian int_0^t e^{sA} b b* e^{sA*} ds (Van Loan, IEEE TAC 23, 1978)."""
    n = a.shape[0]
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    block[:n, :n] = -a
    block[:n, n:] = b @ b.conj().T
    block[n:, n:] = a.conj().T
    return block


def _sigma_flow(triple, times):
    """Exact solution at each of ``times`` of the Sigma_0 flow that
    ``_sigma_rk4`` integrates, stacked, from three exponentials per time
    whatever t is.  R, Q and the propagators are functions of alpha and
    commute, so

    Sigma_0(t) = E [Sigma_0 - 2(Q alpha W Q* + Q W alpha* Q*)] E*,

    E = e^{-tR}, W = G(L, theta1) - G(-L, theta2) with the Gramians
    G(A, b) = int_0^t e^{sA} b b* e^{sA*} ds and
    L = (alpha + iI)^{-1} - (alpha - iI)^{-1}.

    Returns ``(sigma, faults)``, the overflow of a time in ``faults``.
    """
    alpha = triple.alpha
    n = alpha.shape[0]
    faults = [None] * times.size
    minus, plus = triple._resolvents()
    q = minus @ plus
    e = _expm((-times)[None, :, None, None] * (minus + plus), times, faults)[0]
    blocks = np.stack([_van_loan(plus - minus, triple.theta1),
                       _van_loan(minus - plus, triple.theta2)])
    f = _expm(times[:, None, None] * blocks[:, None], times, faults)
    g = _h(f[..., n:, n:]) @ f[..., :n, n:]
    term = q @ alpha @ linalg.herm(g[0] - g[1]) @ q.conj().T
    y = triple.sigma0 - 2.0 * (term + _h(term))
    return linalg.herm(e @ y @ _h(e)), faults


def evolve_sigma0(triple: ParameterTriple, t, method="sylvester",
                  rk_step=1e-3, tol: Tolerances = DEFAULT):
    """Sigma_0(t) by one named route, for comparing them.

    ``sylvester``: the Sigma_0(t) of ``triple_at`` (``_triples_at``), the
    unique solution of the Sylvester equation
    a Sig - Sig a* = i Lam0(t) Lam0(t)*, with its finite checks at t != 0;
    at t = 0 Sigma_0 itself, on every route.  The equation is solved in
    the eigenbasis of a where the triple's cached eigenbasis admits a
    (``ParameterTriple._eigenbasis``), else over its Schur form.
    ``gramian``: exact solution of the Sigma_0 flow from Sigma_0(0), three
    matrix exponentials for any t (Van Loan Gramians, see ``_sigma_flow``).
    ``ode``: fixed-step RK4 on the same flow, the reference for
    ``gramian``; ``rk_step`` applies to it alone.
    The checks run in order: t finite, then ``rk_step`` (``ode``), then
    +/-i not in the spectrum of alpha (every route), then the spectrum
    strictly inside the open upper half plane (``sylvester`` alone).
    All results are symmetrized.  ``triple_at`` takes ``sylvester`` on
    the open upper half plane and ``gramian`` elsewhere.
    """
    if method not in ("sylvester", "gramian", "ode"):
        raise ValueError(f"unknown method {method!r}")
    if not np.isfinite(t):
        raise InputError(f"time t must be finite, got {t!r}")
    if method == "ode" and not (np.isfinite(rk_step) and rk_step > 0):
        raise InputError(f"rk_step must be finite and positive, got {rk_step!r}")
    spec = _check_spectrum(triple, tol)
    if method == "gramian":
        return _at(_sigma_flow, triple, t)[0][0]
    if method == "ode":
        return _sigma_rk4(triple, t, rk_step)
    if not spec.in_upper_half_plane:
        raise SpectrumError(
            "sylvester route needs the spectrum of alpha strictly in the "
            "open upper half plane"
        )
    return _at(_triples_at, triple, t, tol)[1][0]


def _triples_at(triple, times, tol):
    """(Lambda_0(t), Sigma_0(t), faults) of the time-t triple at each of
    ``times``, stacked, with the checks of ParameterTriple, for
    ``triple_at``, ``evolve_sigma0`` (``sylvester``) and ``verify``."""
    return _sigma0_at(triple, times, _lambda0(triple, times, tol), tol)


def _sigma0_at(triple, times, batch, tol):
    """``_triples_at`` from the ``_lambda0`` batch (Lam, basis, faults) of
    ``times``, on its route, also for the fallback of ``TimeGrid``.  Where
    spec(alpha) lies in the open upper half plane Sigma_0(t) solves
    a Sig - Sig a* = i Lam0(t) Lam0(t)*.  In the eigenbasis
    alpha = V D V^{-1}, D = diag(d), the equation is
    D Sig' - Sig' D* = i Lam' Lam'* for Sig' = V^{-1} Sig V^{-*}, a
    Cauchy-like matrix: Sig'_jk = i (Lam' Lam'*)_jk / (d_j - conj d_k)
    (``lattice._cauchy``).  Without the eigenbasis it is a Sylvester solve
    over one pair of Schur forms.  Elsewhere it is the exact solution of
    its flow (``_sigma_flow``).  ``_sigma_cross`` takes the other route;
    dS_n/dt is formed where the lattice reads it (``lattice._dspins``).

    A time fails on the first of: its error in ``_lambda0``; Lambda_0(t)
    not finite; C = i Lam0(t) Lam0(t)* not finite, where the route forms
    it (the Cauchy formula and the Schur solve); the Sylvester solve or the
    Gramians of its Sigma_0(t); Sigma_0(t) not finite.  A non-finite time
    is an InputError whatever else failed.  The finite checks apply at
    t != 0 alone, on every route: at t = 0 the result is Lambda_0 and
    Sigma_0, as at a time that fails."""
    lam, basis, faults = batch
    moving = times != 0
    c = None
    sigma = np.repeat(triple.sigma0[None], times.size, axis=0)
    if basis is not None:                               # the Cauchy formula
        d, v, _ = basis
        c, sigma = _cauchy(d, lam)
        lam = v @ lam
        sigma = linalg.herm(v @ sigma @ _h(v))
    elif None in faults:                    # some time has no error yet
        live = moving & np.array([e is None for e in faults], dtype=bool)
        if triple.spectrum(tol).in_upper_half_plane:    # the Schur solve
            c = 1j * lam @ _h(lam)
            solved = np.flatnonzero(live & _finite(c))
            try:
                if solved.size:
                    sigma[solved] = linalg.herm(linalg.solve_sylvester(
                        triple.alpha, _h(triple.alpha), c[solved], tol))
            except SpinLatticeError as exc:             # overlapping spectra
                _record(faults, solved, exc)
        else:                                           # the Gramian flow
            flowed = np.flatnonzero(live & _finite(lam))
            if flowed.size:
                sigma[flowed], errors = _sigma_flow(triple, times[flowed])
                for k, error in zip(flowed.tolist(), errors):
                    faults[k] = error
    _record_non_finite(faults, moving, (("lambda", lam), ("C", c),
                                        ("sigma0", sigma)))
    kept = np.array([e is not None for e in faults], dtype=bool) | ~moving
    return (np.where(kept[:, None, None], triple.lambda0, lam),
            np.where(kept[:, None, None], triple.sigma0, sigma), faults)


def _sigma_cross(triple, times, tol):
    """(Sigma_0(t) at each of ``times`` by the route that ``_triples_at``
    did not take, stacked; the error of each time or None): the exact flow
    (``_sigma_flow``) where spec(alpha) lies in the open upper half plane,
    else RK4 time by time (``evolve_sigma0``, ``ode``), where an entry that
    fails keeps Sigma_0.  +/-i in the spectrum of alpha raises."""
    if _check_spectrum(triple, tol).in_upper_half_plane:
        return _sigma_flow(triple, times)
    sigma = np.repeat(triple.sigma0[None], times.size, axis=0)
    faults = [None] * times.size
    for k, t in enumerate(times.tolist()):
        try:
            sigma[k] = evolve_sigma0(triple, t, "ode", tol=tol)
        except SpinLatticeError as exc:
            faults[k] = exc
    return sigma, faults


def triple_at(triple: ParameterTriple, t, tol: Tolerances = DEFAULT):
    """The parameter triple carrying Lambda_0(t) and Sigma_0(t) of
    ``_triples_at``: on the open upper half plane Sigma_0(t) solves the
    Sylvester equation alpha Sig - Sig alpha* = i Lam0(t) Lam0(t)*, in the
    eigenbasis of alpha where the triple's cached eigenbasis admits it;
    elsewhere it follows its flow.  At t = 0 the triple itself.  The
    time-t triple shares the work on alpha (``ParameterTriple._moved``)."""
    if t == 0:
        return triple
    lam, sigma = _at(_triples_at, triple, t, tol)
    return triple._moved(lam[0], sigma[0])


@dataclass(frozen=True)
class SpinVector:
    s1: float
    s2: float
    s3: float

    @property
    def norm(self):
        return float(np.linalg.norm([self.s1, self.s2, self.s3]))


def _components(s):
    """(s1, s2, s3) of each 2x2 matrix of a stack, indexed [..., i]: Re and
    Im of its (2, 1) entry, Re of its (1, 1) entry; linear, so dS to ds."""
    return np.stack([s[..., 1, 0].real, s[..., 1, 0].imag, s[..., 0, 0].real],
                    axis=-1)


def _spin_vectors(spins, tol):
    """(s1, s2, s3) of each 2x2 spin matrix of a stack (``_components``);
    the mask of the matrices that ``spin_vector`` rejects; and the function
    that makes the error it raises on the one at a stack index."""
    vectors = _components(spins)
    with np.errstate(all="ignore"):
        i2 = np.eye(2)
        near = np.minimum(linalg.frob_norms(spins - i2),
                          linalg.frob_norms(spins + i2))
        norms = np.sqrt(np.vecdot(vectors, vectors))
    finite = _finite(spins)
    degenerate = near < tol.degeneracy_tol

    def error(index):
        if not finite[index]:
            return NumericError("spin matrix contains non-finite entries")
        if degenerate[index]:
            return DegeneracyError("spin matrix degenerates to +/- I")
        return NumericError(f"spin vector norm {float(norms[index])} deviates "
                            f"from 1 beyond {SPIN_NORM_BOUND:g}")

    off = abs(norms - 1.0) > SPIN_NORM_BOUND
    return vectors, ~finite | degenerate | off, error


def spin_vector(s, tol: Tolerances = DEFAULT):
    """Extract (s1, s2, s3) from a 2x2 spin matrix.

    s3 is the (1,1) entry, s1 + i s2 the (2,1) entry.  Enforces the unit
    norm and rejects S ~ +/- I (the degenerate poles of the IHM equation).
    """
    s = linalg.as_matrix(s, "spin matrix")
    if s.shape != (2, 2):
        raise DimensionError(f"spin matrix must be 2x2, got {s.shape}")
    vector, bad, error = _spin_vectors(s, tol)
    if bad:
        raise error(())
    return SpinVector(*vector.tolist())


def _require_ihm(triple):
    if triple.m != 1:
        raise DimensionError(
            f"IHM semantics require 2x2 spin matrices (m = 1), got m = {triple.m}"
        )


def spin_evolution(triple: ParameterTriple, n, t, tol: Tolerances = DEFAULT):
    """(S_n(t), spin vector) at a site n >= 0: the state of the TimeGrid of
    time t alone, from the sites up to n."""
    _require_ihm(triple)
    _check_site("spin_evolution", n)
    s = TimeGrid(triple, [t], n + 1, tol=tol).state(0).spins[n]
    return s, spin_vector(s, tol)


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


def _lax_parameter(lam, tol: Tolerances):
    """complex(lambda), finite and off {0, i, -i}, the poles of G_n and F_n."""
    lam = complex(lam)
    if not np.isfinite(lam):
        raise InputError(f"lambda must be finite, got {lam}")
    if min(abs(lam), abs(lam - 1j), abs(lam + 1j)) < tol.degeneracy_tol:
        raise SpectrumError("lambda must avoid {0, i, -i}")
    return lam


def _lax_f(v_plus, v_minus, lam):
    """F_n(lambda) = V_n^+ / (lambda - i) + V_n^- / (lambda + i)."""
    return v_plus / (lam - 1j) + v_minus / (lam + 1j)


def lax_pair(triple: ParameterTriple, n, t, lam, tol: Tolerances = DEFAULT):
    """TimeGrid.lax at site n >= 1 of time t alone, from the sites up to n."""
    _check_site("lax_pair", n, 1)
    return TimeGrid(triple, [t], n + 1, tol=tol).lax(0, n, lam)


# Times per TimeGrid in ``trajectory``: a long time grid is built and
# dropped one block of stacks at a time.
TIME_BLOCK = 32


class TimeGrid:
    """The lattice at each time t of a grid: the state at t to horizon N
    (grid entry k is time k), its spin vectors, the bonds 1 + s_{n-1}.s_n
    and ``dspins``, dS_n/dt indexed like the spins.  The grid's one
    ``_lambda0`` batch picks the route: in the eigenbasis of alpha the whole
    [time, n] grid is one closed-form batch (``lattice._closed_form_stack``),
    elsewhere the time-t triples are one batch (``_sigma0_at``) for one
    ``generate_stack``.  dS_n/dt is the flow at each site
    (``lattice._dspins``), NaN where every time fails (+/-i in the spectrum
    of alpha).  The residuals are arrays indexed [time, n - 1] over the
    sites 1 <= n <= N - 2, each computed once.  The Transfer of a state is
    built on first read (``lax``, ``monodromy``).

    A grid raises the error of its first failing time (``check``).  Within
    a time, the first failing stage raises, in the order: the state (+/-i
    in the spectrum of alpha fails every time), its spin vectors, dS_n/dt
    not finite, the bonds; lowest site first.  A read of one time raises
    only the stages and sites that it reads: the state and spin vectors,
    then at site n the bond n (``lax``), or dS_n/dt and the bonds n, n + 1
    (``zero_curvature_at``, ``ihm_at``).
    """

    def __init__(self, triple: ParameterTriple, times, n_max,
                 tol: Tolerances = DEFAULT):
        _require_ihm(triple)
        self.triple, self.n_max, self.tol = triple, n_max, tol
        self.times = np.asarray(times, dtype=float)
        with np.errstate(all="ignore"):
            lam, basis, faults = _lambda0(triple, self.times, tol)
            if basis is None:
                lam0, sigma0, faults = _sigma0_at(
                    triple, self.times, (lam, None, faults), tol)
                self.stack = generate_stack(
                    triple.alpha, lam0, sigma0, n_max, tol, faults,
                    triple._resolvents() if None in faults else None)
            else:       # a failing time and t = 0 start from the triple
                kept = np.array([e is not None for e in faults],
                                dtype=bool) | (self.times == 0)
                lam[kept] = basis[2] @ triple.lambda0
                self.stack = _closed_form_stack(
                    basis, (triple.lambda0, triple.sigma0), lam,
                    _primed_resolvents(basis[0]), kept, n_max, tol, faults)
        self.spins, self.dspins = self.stack.spins, self.stack.dspins
        if self.dspins is None:
            self.dspins = np.full_like(self.spins, np.nan)
        self.vectors, self._bad_vectors, self._vector_error = _spin_vectors(
            self.spins, tol)
        # 1 + s_{n-1}.s_n, the denominator of V_n, at [time, n - 1]
        with np.errstate(all="ignore"):
            self.bonds = 1.0 + np.vecdot(self.vectors[:, :-1],
                                         self.vectors[:, 1:])
        self._bad_bonds = abs(self.bonds) < tol.degeneracy_tol
        self._zero_curvature = {}
        self._transfers = {}

    @property
    def sigma0(self):
        """Sigma_0(t) at each time."""
        return self.stack.sigmas[:, 0]

    def state(self, k):
        """The LatticeState at time k; raises its error."""
        self.stack.check(k)
        triple = self.triple
        if self.times[k] != 0:
            triple = triple._moved(self.stack.lambdas[k, 0],
                                   self.stack.sigmas[k, 0])
        return self.stack.state(k, triple)

    def _check(self, k, bonds=(), tangents=()):
        """Raise the first error of time k, stage by stage, among: its state
        and spin vectors; dS_n/dt at the sites ``tangents``; its bonds at
        the sites ``bonds``."""
        self.stack.check(k)
        for n in np.flatnonzero(self._bad_vectors[k])[:1].tolist():
            raise self._vector_error((k, n))
        for n in tangents:
            if not np.isfinite(self.dspins[k, n]).all():
                raise NumericError(f"dS_{n}/dt contains non-finite entries")
        for n in bonds:
            if self._bad_bonds[k, n - 1]:
                raise DegeneracyError(f"1 + s_{n - 1}.s_{n} = "
                                      f"{self.bonds[k, n - 1]:.3e} vanishes")

    def check(self):
        """Raise the first error of the grid, carrying the time that raised
        it as ``time``."""
        bad = (np.array([e is not None for e in self.stack.faults], dtype=bool)
               | self._bad_vectors.any(axis=1) | self._bad_bonds.any(axis=1)
               | ~_finite(self.dspins[:, 1:self.n_max - 1]).all(axis=1))
        for k in np.flatnonzero(bad)[:1].tolist():
            try:
                self._check(k, range(1, self.n_max), range(1, self.n_max - 1))
            except SpinLatticeError as exc:
                exc.time = float(self.times[k])
                raise

    @cached_property
    def _v_pairs(self):
        """V_n^+ and V_n^- at [time, n - 1], n = 1..N - 1."""
        i2 = np.eye(2, dtype=complex)
        s, d = self.spins, self.bonds[..., None, None]
        with np.errstate(all="ignore"):
            return ((i2 + s[:, 1:]) @ (i2 + s[:, :-1]) / d,
                    (i2 - s[:, 1:]) @ (i2 - s[:, :-1]) / d)

    def zero_curvature(self, lam):
        """|| dG_n/dt - (F_{n+1} G_n - G_n F_n) || at [time, n - 1], with
        dG_n/dt = -(i/lambda) dS_n/dt."""
        lam = _lax_parameter(lam, self.tol)
        if lam not in self._zero_curvature:
            sites = slice(1, self.n_max - 1)
            f = _lax_f(*self._v_pairs, lam)
            g = _g(self.spins[:, sites], lam)
            with np.errstate(all="ignore"):
                dg = (-1j / lam) * self.dspins[:, sites]
                self._zero_curvature[lam] = linalg.frob_norms(
                    dg - (f[:, 1:] @ g - g @ f[:, :-1]))
        return self._zero_curvature[lam]

    @cached_property
    def ihm(self):
        """Residual of the IHM lattice equation at [time, n - 1], with ds_n/dt
        read from dS_n/dt:

        ds_n/dt = 2 s_n x ( s_{n+1} / (1 + s_n.s_{n+1})
                            + s_{n-1} / (1 + s_{n-1}.s_n) ).
        """
        v = self.vectors
        with np.errstate(all="ignore"):
            rhs = 2.0 * np.cross(v[:, 1:-1], v[:, 2:] / self.bonds[:, 1:, None]
                                 + v[:, :-2] / self.bonds[:, :-1, None])
            gap = _components(self.dspins[:, 1:self.n_max - 1]) - rhs
            return np.sqrt(np.vecdot(gap, gap))

    def _site(self, k, n, top, lam=None, bonds=(), tangents=()):
        """Raise the first error of a read at time k and site n: the state
        and spin vectors, ``lam``, n outside 1..top, then ``_check``."""
        self._check(k)
        if lam is not None:
            lam = _lax_parameter(lam, self.tol)
        if not 1 <= n <= top:
            raise ValueError(f"site n = {n} outside 1..{top} of this grid")
        self._check(k, bonds, tangents)
        return lam

    def _transfer(self, k):
        """The Transfer of the state at time k, built once."""
        if k not in self._transfers:
            self._transfers[k] = Transfer(self.state(k), self.tol)
        return self._transfers[k]

    def zero_curvature_at(self, k, n, lam):
        """``zero_curvature`` at time k and site n."""
        lam = self._site(k, n, self.n_max - 2, lam, (n, n + 1), (n,))
        return float(self.zero_curvature(lam)[k, n - 1])

    def ihm_at(self, k, n):
        """``ihm`` at time k and site n."""
        self._site(k, n, self.n_max - 2, None, (n, n + 1), (n,))
        return float(self.ihm[k, n - 1])

    def lax(self, k, n, lam):
        """Lax pair at time k and site n >= 1, with the V = H equality report.

        H_n^+ = 2 W(n, i) P_+ W(n, -i)*, H_n^- = 2 W(n, -i) P_- W(n, i)*.
        """
        lam = self._site(k, n, self.n_max - 1, lam, (n,))
        v_plus, v_minus = (v[k, n - 1] for v in self._v_pairs)
        w = self._transfer(k).w
        p_plus, p_minus = projectors(1)
        h_plus = 2.0 * w(n, 1j) @ p_plus @ w(n, -1j).conj().T
        h_minus = 2.0 * w(n, -1j) @ p_minus @ w(n, 1j).conj().T
        return LaxPair(
            g=_g(self.spins[k, n], lam),
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

    def monodromy(self, k, n, lam):
        """``_monodromy`` at time k and site n <= N - 1."""
        self._check(k)
        return _monodromy(self._transfer(k), float(self.times[k]), n, lam)


def trajectory(triple: ParameterTriple, times, n_max, lam,
               tol: Tolerances = DEFAULT):
    """The TimeGrids of ``times`` in blocks of TIME_BLOCK, each checked:
    yields ``(grid, zero_curvature(lam), ihm)`` per block.  The error of
    a block carries the time that raised it (``TimeGrid.check``)."""
    for start in range(0, len(times), TIME_BLOCK):
        grid = TimeGrid(triple, times[start:start + TIME_BLOCK], n_max, tol)
        grid.check()
        yield grid, grid.zero_curvature(lam), grid.ihm


def _grid(triple, n, t, h_t, tol):
    """The TimeGrid for the residuals at site n of time t, its time 0.  With
    a finite nonzero step ``h_t`` it holds t + h_t and t - h_t too, whose
    states and spin vectors are checked after those at t, and the dS/dt of
    time t is the central difference of their spins."""
    if h_t is None:
        return TimeGrid(triple, [t], n + 2, tol)
    if not (np.isfinite(h_t) and h_t != 0):
        raise ValueError(f"h_t must be finite and nonzero, got {h_t!r}")
    grid = TimeGrid(triple, [t, t + h_t, t - h_t], n + 2, tol)
    for k in range(3):
        grid._check(k)
    grid.dspins = (grid.spins[1:2] - grid.spins[2:]) / (2 * h_t)
    return grid


def zero_curvature_residual(triple: ParameterTriple, n, t, lam, h_t=None,
                            tol: Tolerances = DEFAULT):
    """TimeGrid.zero_curvature_at site n >= 1 of time t alone, from the
    sites up to n + 1; with a step ``h_t``, dS_n/dt by a central
    difference, whose truncation error is O(h_t^2)."""
    _check_site("zero_curvature_residual", n, 1)
    return _grid(triple, n, t, h_t, tol).zero_curvature_at(0, n, lam)


def ihm_residual(triple: ParameterTriple, n, t, h_t=None,
                 tol: Tolerances = DEFAULT):
    """TimeGrid.ihm_at site n >= 1 of time t alone, from the sites up to
    n + 1; with a step ``h_t``, dS_n/dt by a central difference."""
    _check_site("ihm_residual", n, 1)
    return _grid(triple, n, t, h_t, tol).ihm_at(0, n)


def weyl_evolution(triple: ParameterTriple, t, tol: Tolerances = DEFAULT):
    """The Weyl realization of ``triple_at(triple, t)``:

    phi(t, lam) = i theta1* E_-* Sigma_0(t)^{-1} (lam I - beta(t))^{-1} E_+ theta2
    with E_-* = (e^{-2t(a - iI)^{-1}})*, E_+ = e^{-2t(a + iI)^{-1}} and
    beta(t) = a - i E_+ theta2 theta2* E_+* Sigma_0(t)^{-1}.
    """
    return _realization(triple_at(triple, t, tol))


def positivity_interval(triple: ParameterTriple, t_max=5.0, step=0.05,
                        tol: Tolerances = DEFAULT):
    """Empirical positivity interval of Sigma_0(t) around t = 0.

    Marches outward in both directions until the minimal eigenvalue drops
    below 1e-10 max(1, maximal eigenvalue), a test relative to the size of
    Sigma_0(t) that round-off cannot decide (or until ``t_max`` is
    reached); returns the last good bracketing times
    ``(t_minus, t_plus)``.  Each point evolves the triple of the previous
    one by ``step``, so the march costs time linear in ``t_max / step``
    on either route of Sigma_0(t).  ``t_max`` must be finite and
    non-negative, ``step`` finite and positive, and so ``t_max / step``.
    """
    if not (np.isfinite(t_max) and t_max >= 0):
        raise ValueError(f"positivity_interval needs a finite t_max >= 0, "
                         f"got {t_max}")
    if not (np.isfinite(step) and step > 0 and np.isfinite(t_max / step)):
        raise ValueError(f"positivity_interval needs a finite step > 0 and "
                         f"a finite t_max / step, got step = {step}")
    steps = np.floor(t_max / step)
    if steps > MAX_MARCH_POINTS:
        raise ValueError(f"positivity_interval would march {steps:.6g} points "
                         f"per side, beyond the limit of {MAX_MARCH_POINTS}")
    edges = []
    for sign in (-1.0, 1.0):
        good, current = 0.0, triple
        for k in range(1, int(steps) + 1):
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


def _monodromy(transfer, t, n, lam):
    """Residual of the discrete half of the auxiliary linear system over the
    Transfer of the state at time t, for the normalized family

    What_n = lam^{-n} W(n, t, lam) diag((lam - i)^n e^{2t/(lam - i)} I_m,
                                        (lam + i)^n e^{2t/(lam + i)} I_m)
           = W(n, t, lam) (I - (i/lam)J)^n E(t, lam):

    returns ||What_{n+1} - G_n What_n||_F, the gap of the transfer identity
    (``Transfer._identity_gaps``) times the diagonal (I - (i/lam)J)^n E.
    """
    lam = _lax_parameter(lam, transfer.tol)
    gap = transfer._identity_gaps([n], [lam])[0, 0]
    e = np.repeat(np.exp([2 * t / (lam - 1j), 2 * t / (lam + 1j)]),
                  transfer.m)
    return linalg.frob(gap * (_j_diagonals([lam], n, transfer.m)[n, 0] * e))
