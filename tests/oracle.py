"""High-precision oracle of the time-t triple and the lattice recursion, for
the tests.

Lambda_0(t) = [e^{-2t(alpha - iI)^{-1}} theta1, e^{-2t(alpha + iI)^{-1}} theta2]
is formed by ``mpmath.expm``.  Sigma_0(t) is the solution of
alpha Sigma - Sigma alpha* = i Lambda_0(t) Lambda_0(t)* by its Kronecker form
when the spectrum of alpha lies in the open upper half plane, else the exact
solution of its flow,

    Sigma_0(t) = E [Sigma_0 - 2(Q alpha W Q* + Q W alpha* Q*)] E*,

with E = e^{-tR}, R = (alpha - iI)^{-1} + (alpha + iI)^{-1},
Q = (alpha^2 + I)^{-1}, W = G(L, theta1) - G(-L, theta2),
L = (alpha + iI)^{-1} - (alpha - iI)^{-1}, each Gramian
G(A, b) = int_0^t e^{sA} b b* e^{sA*} ds taken from one exponential of the
Van Loan block [[-A, b b*], [0, A*]].  Every step runs at ``DPS`` digits.

``triple_derivatives`` is the central difference, at t +/- 1e-15, of
that time-t triple.  ``sigmas`` is the lattice recursion of Sigma_n in
the same arithmetic, ``spins`` the S_n of the recursion run from the
time-t triple, and ``transfer`` W(n, lambda) = I + i Lambda_n*
Sigma_n^{-1} (lambda I - alpha)^{-1} Lambda_n over that recursion.
dS_n/dt is the central difference, at t +/- 1e-15, of the spins of the
recursion run from those time-t triples; the triples, the recursion and
the difference stay in mpmath values throughout.
"""

import mpmath as mp
import numpy as np

DPS = 30


def _mp(a):
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    return mp.matrix([[mp.mpc(x.real, x.imag) for x in row] for row in a])


def _np(a):
    return np.array([[complex(a[i, j]) for j in range(a.cols)]
                     for i in range(a.rows)])


def _blocks(rows):
    """The matrix of a nested list of mpmath blocks."""
    out = mp.matrix(sum(r[0].rows for r in rows),
                    sum(b.cols for b in rows[0]))
    i = 0
    for row in rows:
        j = 0
        for block in row:
            for p in range(block.rows):
                for q in range(block.cols):
                    out[i + p, j + q] = block[p, q]
            j += block.cols
        i += row[0].rows
    return out


def _sylvester(a, c):
    """X with a X - X a* = c, from the Kronecker form over column-major
    vec(X): (I (x) a - conj(a) (x) I) vec(X) = vec(c)."""
    n = a.rows
    k = mp.matrix(n * n, n * n)
    for j in range(n):
        for i in range(n):
            for p in range(n):
                k[i + n * j, p + n * j] += a[i, p]
                k[i + n * j, i + n * p] -= mp.conj(a[j, p])
    x = mp.lu_solve(k, mp.matrix([c[i, j] for j in range(n)
                                  for i in range(n)]))
    return mp.matrix([[x[i + n * j] for j in range(n)] for i in range(n)])


def _gramian(a, b, t):
    """int_0^t e^{sA} b b* e^{sA*} ds (Van Loan, IEEE TAC 23, 1978)."""
    n = a.rows
    f = mp.expm(t * _blocks([[-a, b * b.H], [mp.zeros(n, n), a.H]]))
    return f[n:, n:].H * f[:n, n:]


def triple_at(triple, t, upper_half_plane):
    """(Lambda_0(t), Sigma_0(t)) of ``triple`` as complex arrays: the
    Sylvester solution if ``upper_half_plane``, else that of the flow."""
    with mp.workdps(DPS):
        return tuple(_np(x) for x in _triple_at(triple, mp.mpf(t),
                                                upper_half_plane))


def triple_derivatives(triple, t, upper_half_plane, step="1e-15"):
    """(dLambda_0/dt, dSigma_0/dt) as complex arrays: the central difference
    of step ``step`` of ``triple_at`` at t +/- step."""
    with mp.workdps(DPS):
        t, step = mp.mpf(t), mp.mpf(step)
        plus, minus = (_triple_at(triple, t + d, upper_half_plane)
                       for d in (step, -step))
        return tuple(_np((p - q) / (2 * step)) for p, q in zip(plus, minus))


def _triple_at(triple, t, upper_half_plane):
    """``triple_at`` as mpmath matrices, at an mpmath time t."""
    a = _mp(triple.alpha)
    eye = mp.eye(a.rows)
    minus = mp.inverse(a - mp.mpc(0, 1) * eye)
    plus = mp.inverse(a + mp.mpc(0, 1) * eye)
    theta1, theta2 = _mp(triple.theta1), _mp(triple.theta2)
    lam = _blocks([[mp.expm(-2 * t * minus) * theta1,
                    mp.expm(-2 * t * plus) * theta2]])
    if upper_half_plane:
        sigma = _sylvester(a, mp.mpc(0, 1) * lam * lam.H)
    else:
        q = minus * plus
        e = mp.expm(-t * (minus + plus))
        w = (_gramian(plus - minus, theta1, t)
             - _gramian(minus - plus, theta2, t))
        term = q * a * w * q.H
        sigma = e * (_mp(triple.sigma0) - 2 * (term + term.H)) * e.H
    return lam, sigma


def _recursion(alpha, lam, sigma, n_max):
    """(Lambda_n, Sigma_n), n = 0..n_max, of the lattice recursion from
    (Lambda_0, Sigma_0):

    Lambda_{n+1} = Lambda_n + i alpha^{-1} Lambda_n J,
    Sigma_{n+1}  = Sigma_n + alpha^{-1} (Sigma_n + Lambda_n J Lambda_n*)
                   alpha^{-*}.
    """
    m = lam.cols // 2
    j = mp.diag([1] * m + [-1] * m)
    a_inv = mp.inverse(alpha)
    pairs = [(lam, sigma)]
    for _ in range(n_max):
        lam, sigma = (lam + mp.mpc(0, 1) * a_inv * lam * j,
                      sigma + a_inv * (sigma + lam * j * lam.H) * a_inv.H)
        pairs.append((lam, sigma))
    return pairs


def sigmas(triple, n_max):
    """Sigma_0..Sigma_{n_max} of the recursion from the triple, as complex
    arrays."""
    with mp.workdps(DPS):
        return [_np(sigma) for _, sigma in _recursion(
            _mp(triple.alpha), _mp(triple.lambda0), _mp(triple.sigma0),
            n_max)]


def _spins(alpha, lam, sigma, n_max):
    """S_0..S_{n_max-1} of the recursion from (Lambda_0, Sigma_0)."""
    m = lam.cols // 2
    j = mp.diag([1] * m + [-1] * m)
    xi = [lam.H * mp.inverse(sigma) * lam
          for lam, sigma in _recursion(alpha, lam, sigma, n_max)]
    return [j + xi[n] - xi[n + 1] for n in range(n_max)]


def spins(triple, t, n_max, upper_half_plane):
    """S_0..S_{n_max-1}, as complex arrays, of the recursion from the
    time-t triple (``triple_at``)."""
    with mp.workdps(DPS):
        lam, sigma = _triple_at(triple, mp.mpf(t), upper_half_plane)
        return [_np(s) for s in _spins(_mp(triple.alpha), lam, sigma, n_max)]


def spin_derivatives(triple, t, n_max, upper_half_plane, step="1e-15"):
    """dS_n/dt, n < n_max, as complex arrays: the central difference of
    step ``step`` of the spins from the time-t triples (``triple_at``) at
    t +/- step."""
    with mp.workdps(DPS):
        t, step = mp.mpf(t), mp.mpf(step)
        plus, minus = (_spins(_mp(triple.alpha),
                              *_triple_at(triple, t + d, upper_half_plane),
                              n_max) for d in (step, -step))
        return [_np((p - q) / (2 * step)) for p, q in zip(plus, minus)]


def transfer(triple, lams, n_max):
    """W(n, lambda) = I + i Lambda_n* Sigma_n^{-1} (lambda I - alpha)^{-1}
    Lambda_n, as complex arrays indexed [n][k] for n = 0..n_max and
    lams[k], over the recursion from the triple (``_recursion``)."""
    with mp.workdps(DPS):
        alpha = _mp(triple.alpha)
        eye = mp.eye(alpha.rows)
        resolvents = [mp.inverse(mp.mpc(lam.real, lam.imag) * eye - alpha)
                      for lam in map(complex, lams)]
        unit = mp.eye(2 * triple.m)
        return [[_np(unit + mp.mpc(0, 1) * lam.H * mp.inverse(sigma) * r * lam)
                 for r in resolvents]
                for lam, sigma in _recursion(alpha, _mp(triple.lambda0),
                                             _mp(triple.sigma0), n_max)]
