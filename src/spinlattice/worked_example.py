"""Scalar family with fully closed-form solutions.

alpha = ih (h > 0, h != 1), theta1 = theta2 = sqrt(h), Sigma_0 = 1.  Every
lattice and evolution quantity has an explicit formula here, which makes
the family the golden fixture for end-to-end diffs.
"""

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import InputError
from .evolution import triple_at, weyl_evolution
from .lattice import generate
from .triples import ParameterTriple
from .weyl import weyl

__all__ = [
    "example_triple",
    "lambda_closed_form_t",
    "spin_closed_form",
    "phi_closed_form",
    "run_diffs",
]


def example_triple(h=2.0):
    """The admissible scalar triple alpha = ih, theta1 = theta2 = sqrt(h)."""
    h = float(h)
    if not np.isfinite(h):
        raise InputError(f"h must be finite, got {h!r}")
    if h <= 0 or h == 1.0:
        raise InputError("h must be positive and different from 1")
    theta1 = theta2 = complex(np.sqrt(h))
    return ParameterTriple(
        alpha=np.array([[1j * h]]),
        theta1=np.array([[theta1]], dtype=complex),
        theta2=np.array([[theta2]], dtype=complex),
    )


def c_coefficient(n, h, theta1, theta2):
    return ((h + 1) ** (2 * n) * abs(theta1) ** 2
            + (h - 1) ** (2 * n) * abs(theta2) ** 2)


def sigma_closed_form(n, h, theta1, theta2):
    """Sigma_n = c_n(h) / (2 h^{2n+1}), constant in t."""
    return c_coefficient(n, h, theta1, theta2) / (2.0 * h ** (2 * n + 1))


def lambda_closed_form_t(n, t, h, theta1, theta2):
    """Lambda_n(t) = h^{-n} [(h+1)^n t1 e^{2it/(h-1)}, (h-1)^n t2 e^{2it/(h+1)}]."""
    return np.array([[
        (h + 1) ** n * theta1 * np.exp(2j * t / (h - 1)),
        (h - 1) ** n * theta2 * np.exp(2j * t / (h + 1)),
    ]]) / h ** n


def spin_closed_form(n, t, h, theta1, theta2):
    c_n = c_coefficient(n, h, theta1, theta2)
    c_n1 = c_coefficient(n + 1, h, theta1, theta2)
    s11 = 1.0 - (8 * h ** 2 * abs(theta1 * theta2) ** 2
                 * (h ** 2 - 1) ** (2 * n)) / (c_n * c_n1)
    s12 = (
        4 * h * np.conj(theta1) * theta2 / (c_n * c_n1)
        * np.exp(4j * t / (1 - h ** 2))
        * (h ** 2 - 1) ** n
        * ((h + 1) ** (2 * n + 1) * abs(theta1) ** 2
           - (h - 1) ** (2 * n + 1) * abs(theta2) ** 2)
    )
    return np.array([[s11, s12], [np.conj(s12), -s11]])


def phi_closed_form(t, lam, h, theta1, theta2):
    """phi(t, lam) = e^{4it/(1-h^2)} i conj(t1) t2 / (lam + i(|t2|^2 - h))."""
    return (np.exp(4j * t / (1 - h ** 2)) * 1j * np.conj(theta1) * theta2
            / (lam + 1j * (abs(theta2) ** 2 - h)))


def run_diffs(h=2.0, tol: Tolerances = DEFAULT):
    """Diff the library pipeline against every closed form of the family.

    Returns (name, computed, expected, diff) rows covering Sigma_n for
    n <= 6, the spins S_n(t) for n < 3, and the Weyl function phi(t, lam)
    on sample points, at t = 0 and 0.4.
    """
    n_max, times = 6, (0.0, 0.4)
    triple = example_triple(h)
    t1 = complex(triple.theta1[0, 0])
    t2 = complex(triple.theta2[0, 0])
    rows = []

    state = generate(triple, n_max=n_max, tol=tol)
    for n in range(n_max + 1):
        got = complex(state.sigmas[n][0, 0])
        want = sigma_closed_form(n, h, t1, t2)
        rows.append((f"sigma_{n}", got, complex(want), abs(got - want)))

    for t in times:
        state_t = generate(triple_at(triple, t, tol=tol), n_max=n_max, tol=tol)
        for n in range(3):
            got = state_t.spins[n]
            want = spin_closed_form(n, t, h, t1, t2)
            diff = float(np.linalg.norm(got - want))
            rows.append((f"spin_{n}(t={t:g})", complex(got[0, 1]),
                         complex(want[0, 1]), diff))

    weyl(triple, tol)   # raises under a tol that leaves no Weyl function
    lam_samples = [2.0 + 1.5j, -1.0 - 2.0j, 3.0]
    for t in times:
        phi_t = weyl_evolution(triple, t, tol=tol)
        for lam in lam_samples:
            got = complex(phi_t(lam, tol)[0, 0])
            want = complex(phi_closed_form(t, lam, h, t1, t2))
            rows.append((f"phi(t={t:g},lam={lam:g})", got, want,
                         abs(got - want)))
    return rows
