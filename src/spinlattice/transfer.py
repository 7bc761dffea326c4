"""Transfer matrix function W(n, lambda) and the fundamental solution of the
discrete system, with the identity residuals used by the verification
suites.

W is evaluated one batch of lambdas at a time, at every site of the state
at once.  Where the eigenbasis (d, V, V^{-1}) of alpha admits it, W(n,
lambda) = I + sum_j R_{n,j} / (lambda - d_j) from its pole residues,
formed once per Transfer, so a batch is one product with the Cauchy
matrix 1/(lambda - d_j); elsewhere a batch is one broadcast solve, one LU
of lambda I - alpha per lambda.  Each identity is written once, over
arrays of sites x lambdas; the scalar residuals index those arrays.
"""

from functools import cached_property

import numpy as np

from . import linalg
from .config import DEFAULT, Tolerances
from .errors import NumericError, PoleError
from .lattice import LatticeState, _h, _sites

__all__ = ["Transfer"]


def _j_diagonals(lams, n_max, m):
    """The diagonals of (I - (i/lambda)J)^n, (1 - i/lambda)^n over the
    first m entries and (1 + i/lambda)^n over the last m, indexed [n, k]
    for n = 0..n_max and lams[k], from one array power.  lambda = 0 is a
    PoleError, and powers that overflow a NumericError, of the first
    lambda that has them."""
    lams = [complex(lam) for lam in lams]
    if 0 in lams:
        raise PoleError("the factor (I - (i/lambda)J)^n has a pole at lambda = 0")
    # the factors in Python complex arithmetic, their powers in numpy's
    bases = np.array([(1 - 1j / lam, 1 + 1j / lam) for lam in lams])
    with np.errstate(all="ignore"):
        powers = bases ** np.arange(n_max + 1)[:, None, None]
    finite = np.isfinite(powers).all(axis=(0, 2))
    if not finite.all():
        raise NumericError(f"(I - (i/lambda)J)^n overflows at lambda = "
                           f"{lams[np.argmin(finite)]}")
    return np.repeat(powers, m, axis=-1)


def _scaled(factors, a):
    """The matrices a[..., k, :, :] times factors[k].  The factors are
    computed with Python complex arithmetic, and each product has the bits
    of factor * matrix."""
    return np.array(factors, dtype=complex)[:, None, None] * a


def _solve_blocks(a, b, name="matrix"):
    """x[p, q] = a[p]^{-1} b[p, q] for the matrices a[p] and the blocks
    b[p, q] (b may have one row p for all): the blocks of a row are the
    columns of one right-hand side, so each a[p] is factored once."""
    p, q, rows, cols = b.shape
    rhs = b.transpose(0, 2, 1, 3).reshape(p, rows, q * cols)
    x = linalg.solve(a, rhs, name).reshape(-1, rows, q, cols)
    return x.transpose(0, 2, 1, 3)


def _shifted(lams, a):
    """lam I - a for each lam, stacked."""
    i_n = np.eye(a.shape[0], dtype=complex)
    return np.array([lam * i_n - a for lam in lams])


def _g(s, lam):
    """G_n(lambda) = I - (i/lambda) S_n, the one-step factor of W(n, lambda)
    and the Lax matrix of the IHM lattice."""
    return np.eye(s.shape[-1], dtype=complex) - (1j / lam) * s


def _with_conjugates(lams):
    """lam_0, conj(lam_0), lam_1, conj(lam_1), ...: the order in which the
    values W(n, lam) W(n, conj(lam))* check their poles."""
    return [z for lam in lams for z in (lam, lam.conjugate())]


class Transfer:
    """Evaluator for W(n, lambda) = I + i Lam_n* Sig_n^{-1} (lam I - a)^{-1} Lam_n
    over one lattice state, with per-instance caches of W(n, lambda) and the
    fundamental solution W_n(lambda), one row of sites n = 0..n_max per
    lambda."""

    def __init__(self, state: LatticeState, tol: Tolerances = DEFAULT):
        self.state = state
        self.tol = tol
        self.alpha = state.triple.alpha
        self.m = state.m
        self.spectrum = state.triple.spectrum(tol)
        self._y = _h(state.sigma_inv_lambdas)    # Lam_n* Sig_n^{-1}
        # W from its pole residues where the eigenbasis admits alpha, else
        # one LU of lam I - alpha per lambda
        self._basis = state.triple._eigenbasis(tol)
        # lam -> (the row over n stacked, its per-n views): repeated reads of
        # one point return the same object
        self._cache = {}            # W(n, lam)
        self._fundamentals = {}     # W_n(lam)

    def _grid(self, cache, build, lams):
        """The rows of ``cache`` at ``lams``, indexed [n, k] for lams[k];
        ``build`` makes the rows of the lambdas not yet cached, in one
        batch."""
        lams = [complex(lam) for lam in lams]
        new = [lam for lam in dict.fromkeys(lams) if lam not in cache]
        if new:
            for lam, row in zip(new, build(new)):
                cache[lam] = row, tuple(row)
        return np.stack([cache[lam][0] for lam in lams], axis=1)

    def _build_w(self, lams):
        linalg.check_pole(lams, self.spectrum, self.tol, "alpha")
        i2m = np.eye(2 * self.m, dtype=complex)
        if self._basis is None:
            resolvents = _solve_blocks(_shifted(lams, self.alpha),
                                       self.state.lambdas[None])
            return i2m + 1j * self._y @ resolvents
        # sum_j R_{n,j} / (lam - d_j): one product with the Cauchy matrix
        d = self._basis[0]
        cauchy = 1.0 / (np.asarray(lams)[None, :] - d[:, None])
        w = (self._residues @ cauchy).reshape(self._y.shape[:2]
                                              + (2 * self.m, len(lams)))
        return i2m + np.moveaxis(w, -1, 0)

    @cached_property
    def _residues(self):
        """The residues R_{n,j} = i (Y_n V)_{:,j} (V^{-1} Lambda_n)_{j,:} of
        W(n, lambda) at its poles d_j, Y_n = Lambda_n* Sigma_n^{-1}, over
        the eigenbasis (d, V, V^{-1}) of alpha: W(n, lambda) = I + sum_j
        R_{n,j} / (lambda - d_j).  Indexed [(n, row, column), j]."""
        _, v, v_inv = self._basis
        left = self._y @ v                                  # [n, row, j]
        right = (v_inv @ self.state.lambdas).swapaxes(-1, -2)   # [n, col, j]
        return (1j * left[:, :, None] * right[:, None]).reshape(
            -1, v.shape[0])

    def _build_fundamental(self, lams):
        # W_n = W(n, lam) (I - (i/lam)J)^n W(0, conj(lam))^*, the middle
        # factor diagonal: it scales the columns of W(n, lam)
        for lam in lams:
            if lam == 0:
                raise PoleError("fundamental solution undefined at lambda = 0")
        w = self.w_grid(_with_conjugates(lams))
        steps = _j_diagonals(lams, self.state.n_max, self.m)[:, :, None]
        return ((w[:, ::2] * steps) @ _h(w[0, 1::2])).swapaxes(0, 1)

    def w_grid(self, lams):
        """W(n, lambda) at n = 0..n_max for each lambda, indexed [n, k] for
        lams[k]."""
        return self._grid(self._cache, self._build_w, lams)

    def fundamental_grid(self, lams):
        """W_n(lambda) at n = 0..n_max for each lambda, indexed [n, k]."""
        return self._grid(self._fundamentals, self._build_fundamental, lams)

    def w(self, n, lam):
        """W(n, lambda), cached per lambda for every n."""
        n = _sites(self.state, [n], self.state.n_max)[0]
        self.w_grid([lam])
        return self._cache[complex(lam)][1][n]

    def fundamental(self, n, lam):
        """Fundamental solution W_n(lambda), normalized to I at n = 0 and
        cached per lambda for every n:

        W_n = W(n, lam) (I - (i/lam)J)^n W(0, lam)^{-1}.
        """
        n = _sites(self.state, [n], self.state.n_max)[0]
        self.fundamental_grid([lam])
        return self._fundamentals[complex(lam)][1][n]

    def _identity_gaps(self, sites, lams):
        """The gaps of the one-step transfer identity

        W(n+1, lam)(I - (i/lam)J) - (I - (i/lam)S_n) W(n, lam),

        indexed [i, k] for sites[i] and lams[k].
        """
        n = _sites(self.state, sites, self.state.n_max - 1)
        lams = [complex(lam) for lam in lams]
        w = self.w_grid(lams)
        step = _j_diagonals(lams, 1, self.m)[1, :, None]    # scales columns
        g = np.stack([_g(self.state.spins[n], lam) for lam in lams], axis=1)
        return w[n + 1] * step - g @ w[n]

    def identity_residuals(self, sites, lams):
        """Frobenius norms of ``_identity_gaps``, indexed [i, k]."""
        return linalg.frob_norms(self._identity_gaps(sites, lams))

    def unitarity_residuals(self, sites, lams):
        """Residuals of W(n, lam) W(n, conj(lam))* = I, indexed [i, k]."""
        n = _sites(self.state, sites, self.state.n_max)
        w = self.w_grid(_with_conjugates([complex(lam) for lam in lams]))[n]
        return linalg.frob_norms(w[:, ::2] @ _h(w[:, 1::2]) - np.eye(2 * self.m))

    def gram_identity_residuals(self, sites, lams):
        """Residuals of the two-point identity

        W(n,lam)* W(n,lam) = I - i(lam - conj(lam)) Z* Sig_n^{-1} Z,
        Z = (lam I - a)^{-1} Lam_n,

        indexed [i, k].
        """
        n = _sites(self.state, sites, self.state.n_max)
        lams = [complex(lam) for lam in lams]
        w = self.w_grid(lams)[n]
        # Z indexed [k, i], then [i, k]: one LU per matrix
        z = _solve_blocks(_shifted(lams, self.alpha),
                          self.state.lambdas[n][None]).swapaxes(0, 1)
        inner = _solve_blocks(self.state.sigmas[n], z, "Sigma_n")
        rhs = np.eye(2 * self.m, dtype=complex) - _scaled(
            [1j * (lam - np.conj(lam)) for lam in lams], _h(z) @ inner)
        return linalg.frob_norms(_h(w) @ w - rhs)

    def contractivity_gram(self, sites, lams):
        """W(n, lam)* W(n, lam) - I, negative semidefinite on the lower half
        plane, indexed [i, k]."""
        w = self.w_grid(lams)[_sites(self.state, sites, self.state.n_max)]
        return _h(w) @ w - np.eye(2 * self.m)

    def recursion_residuals(self, sites, lams):
        """Residuals of W_{n+1} - W_n = -(i/lam) S_n W_n for the fundamental
        solution, indexed [i, k]."""
        n = _sites(self.state, sites, self.state.n_max - 1)
        lams = [complex(lam) for lam in lams]
        f = self.fundamental_grid(lams)
        step = _scaled([1j / lam for lam in lams], self.state.spins[n][:, None])
        return linalg.frob_norms(f[n + 1] - f[n] + step @ f[n])

    def factorization_residual_arrays(self, sites):
        """Residuals of the +/-i relations tying consecutive W columns and
        the rank-m factorizations of I +/- S_n, over the sites.

        Returns a dict of arrays with keys 'first', 'second', 'plus', 'minus'.
        """
        n = _sites(self.state, sites, self.state.n_max - 1)
        m = self.m
        i_m = np.eye(m, dtype=complex)
        i2m = np.eye(2 * m, dtype=complex)
        # (a^2 + I)^{-1} = (a - iI)^{-1} (a + iI)^{-1}
        minus_i, plus_i = self.state.triple._resolvents()
        core = minus_i @ plus_i
        lam_n, y = self.state.lambdas[n], self._y[n]
        w = self.w_grid([1j, -1j])

        w_n_pi_1, w_n1_mi_1 = w[n, 0, :, :m], w[n + 1, 1, :, :m]
        first = linalg.frob_norms(w_n_pi_1 - w_n1_mi_1 @ (
            i_m + 2 * _h(w_n_pi_1) @ y @ core @ lam_n[..., :m]
        ))

        w_n_mi_2, w_n1_pi_2 = w[n, 1, :, m:], w[n + 1, 0, :, m:]
        second = linalg.frob_norms(w_n_mi_2 - w_n1_pi_2 @ (
            i_m - 2 * _h(w_n_mi_2) @ y @ core @ lam_n[..., m:]
        ))

        s = self.state.spins[n]
        plus = linalg.frob_norms(i2m + s - 2 * w_n1_mi_1 @ _h(w_n_pi_1))
        minus = linalg.frob_norms(i2m - s - 2 * w_n1_pi_2 @ _h(w_n_mi_2))
        return {"first": first, "second": second, "plus": plus, "minus": minus}

    # the residuals at one site and one lambda

    def identity_residual(self, n, lam):
        return float(self.identity_residuals([n], [lam])[0, 0])

    def unitarity_residual(self, n, lam):
        return float(self.unitarity_residuals([n], [lam])[0, 0])

    def gram_identity_residual(self, n, lam):
        return float(self.gram_identity_residuals([n], [lam])[0, 0])

    def recursion_residual(self, n, lam):
        return float(self.recursion_residuals([n], [lam])[0, 0])

    def factorization_residuals(self, n):
        return {key: float(value[0]) for key, value
                in self.factorization_residual_arrays([n]).items()}
