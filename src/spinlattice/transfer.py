"""Transfer matrix function W(n, lambda) and the fundamental solution of the
discrete system, with the identity residuals used by the verification
suites.
"""

import numpy as np

from . import linalg
from .config import DEFAULT, Tolerances
from .errors import PoleError
from .lattice import LatticeState
from .triples import signature_matrix

__all__ = ["Transfer", "j_power_factor"]


def j_power_factor(lam, n, m):
    """(I - (i/lambda) J)^n in closed form: diag((1 - i/lam)^n, (1 + i/lam)^n)."""
    if lam == 0:
        raise PoleError("the factor (I - (i/lambda)J)^n has a pole at lambda = 0")
    top = (1 - 1j / lam) ** n
    bot = (1 + 1j / lam) ** n
    out = np.zeros((2 * m, 2 * m), dtype=complex)
    out[:m, :m] = top * np.eye(m)
    out[m:, m:] = bot * np.eye(m)
    return out


def _g(s, lam):
    """G_n(lambda) = I - (i/lambda) S_n, the one-step factor of W(n, lambda)
    and the Lax matrix of the IHM lattice."""
    return np.eye(s.shape[0], dtype=complex) - (1j / lam) * s


class Transfer:
    """Evaluator for W(n, lambda) = I + i Lam_n* Sig_n^{-1} (lam I - a)^{-1} Lam_n
    over one lattice state, with per-instance caches of W(n, lambda) and the
    fundamental solution W_n(lambda)."""

    def __init__(self, state: LatticeState, tol: Tolerances = DEFAULT):
        self.state = state
        self.tol = tol
        self.alpha = state.triple.alpha
        self.order = state.triple.order
        self.m = state.m
        self.poles = linalg.poles(self.alpha)
        self._cache = {}
        self._fundamentals = {}

    def w(self, n, lam):
        """W(n, lambda), cached per (n, lambda)."""
        lam = complex(lam)
        key = (n, lam)
        if key not in self._cache:
            linalg.check_pole(lam, *self.poles, self.tol, "alpha")
            lam_n = self.state.lambdas[n]
            resolvent = linalg.solve(
                lam * np.eye(self.order, dtype=complex) - self.alpha, lam_n
            )
            y = self.state.sigma_inv_lambdas[n].conj().T
            self._cache[key] = np.eye(2 * self.m, dtype=complex) + 1j * y @ resolvent
        return self._cache[key]

    def w_inverse(self, n, lam):
        """W(n, lambda)^{-1} = W(n, conj(lambda))* (structural identity)."""
        return self.w(n, np.conj(complex(lam))).conj().T

    def fundamental(self, n, lam):
        """Fundamental solution W_n(lambda), normalized to I at n = 0 and
        cached per (n, lambda):

        W_n = W(n, lam) (I - (i/lam)J)^n W(0, lam)^{-1}.
        """
        lam = complex(lam)
        if lam == 0:
            raise PoleError("fundamental solution undefined at lambda = 0")
        key = (n, lam)
        if key not in self._fundamentals:
            self._fundamentals[key] = (
                self.w(n, lam) @ j_power_factor(lam, n, self.m)
                @ self.w_inverse(0, lam))
        return self._fundamentals[key]

    def identity_residual(self, n, lam):
        """Residual of the one-step transfer identity

        W(n+1, lam)(I - (i/lam)J) = (I - (i/lam)S_n) W(n, lam).
        """
        lam = complex(lam)
        lhs = self.w(n + 1, lam) @ j_power_factor(lam, 1, self.m)
        return linalg.frob(lhs - _g(self.state.spins[n], lam) @ self.w(n, lam))

    def recursion_residual(self, n, lam):
        """Residual of W_{n+1} - W_n = -(i/lam) S_n W_n for the fundamental
        solution."""
        lam = complex(lam)
        wn = self.fundamental(n, lam)
        wn1 = self.fundamental(n + 1, lam)
        return linalg.frob(wn1 - wn + (1j / lam) * self.state.spins[n] @ wn)

    def unitarity_residual(self, n, lam):
        """Residual of W(n, lam) W(n, conj(lam))* = I."""
        prod = self.w(n, complex(lam)) @ self.w_inverse(n, lam)
        return linalg.frob(prod - np.eye(2 * self.m))

    def gram_identity_residual(self, n, lam):
        """Residual of the two-point identity

        W(n,lam)* W(n,lam) = I - i(lam - conj(lam)) Lam_n* (conj(lam) I - a*)^{-1}
                                Sig_n^{-1} (lam I - a)^{-1} Lam_n.
        """
        lam = complex(lam)
        w = self.w(n, lam)
        lam_n = self.state.lambdas[n]
        i_n = np.eye(self.order, dtype=complex)
        inner = self.state.sigma_solve(n, linalg.solve(lam * i_n - self.alpha, lam_n))
        inner = linalg.solve(np.conj(lam) * i_n - self.alpha.conj().T, inner)
        rhs = np.eye(2 * self.m, dtype=complex) - 1j * (lam - np.conj(lam)) * (
            lam_n.conj().T @ inner
        )
        return linalg.frob(w.conj().T @ w - rhs)

    def column_block(self, n, lam, block):
        """First (block=0) or second (block=1) m-column block of W(n, lam)."""
        return self.w(n, lam)[:, block * self.m:(block + 1) * self.m]

    def factorization_residuals(self, n):
        """Residuals of the +/-i relations tying consecutive W columns and
        the rank-m factorizations of I +/- S_n.

        Returns a dict with keys 'first', 'second', 'plus', 'minus'.
        """
        m = self.m
        i_m = np.eye(m, dtype=complex)
        i2m = np.eye(2 * m, dtype=complex)
        a = self.alpha
        core = linalg.inv(a @ a + np.eye(self.order, dtype=complex))
        lam_n = self.state.lambdas[n]
        y = self.state.sigma_inv_lambdas[n].conj().T    # Lam_n* Sig_n^{-1}

        w_n_pi_1 = self.column_block(n, 1j, 0)
        w_n1_mi_1 = self.column_block(n + 1, -1j, 0)
        first = linalg.frob(w_n_pi_1 - w_n1_mi_1 @ (
            i_m + 2 * w_n_pi_1.conj().T @ y @ core @ lam_n[:, :m]
        ))

        w_n_mi_2 = self.column_block(n, -1j, 1)
        w_n1_pi_2 = self.column_block(n + 1, 1j, 1)
        second = linalg.frob(w_n_mi_2 - w_n1_pi_2 @ (
            i_m - 2 * w_n_mi_2.conj().T @ y @ core @ lam_n[:, m:]
        ))

        s = self.state.spins[n]
        plus = linalg.frob(i2m + s - 2 * w_n1_mi_1 @ w_n_pi_1.conj().T)
        minus = linalg.frob(i2m - s - 2 * w_n1_pi_2 @ w_n_mi_2.conj().T)
        return {"first": first, "second": second, "plus": plus, "minus": minus}

    def properness_deviation(self, n, radius=1e8):
        """||W(n, lam) - I|| at |lam| = radius (decays like 1/|lam|)."""
        return linalg.frob(
            self.w(n, complex(radius)) - np.eye(2 * self.m)
        )
