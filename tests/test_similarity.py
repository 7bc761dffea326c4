"""Similarity invariance: a state-space similarity T maps the triple
(alpha, theta, sigma0) to (T alpha T^{-1}, T theta, T sigma0 T*), and so
Lambda_n to T Lambda_n and Sigma_n to T Sigma_n T*.  Xi_n, the spins S_n,
W(n, lambda) and the Weyl function phi do not change.  The property needs
no oracle: two runs of the library must agree to rounding."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlattice import (ParameterTriple, Transfer, generate, invert,
                         random_admissible_triple,
                         random_general_sigma_triple, weyl)
from spinlattice.errors import SpinLatticeError

EPS = np.finfo(float).eps
N_MAX = 20
POINTS = (2.0 + 0.5j, -1.5 - 3.0j)


def _similar(triple, t):
    """(T alpha T^{-1}, T theta1, T theta2, T sigma0 T*)."""
    return ParameterTriple(alpha=t @ triple.alpha @ np.linalg.inv(t),
                           theta1=t @ triple.theta1, theta2=t @ triple.theta2,
                           sigma0=t @ triple.sigma0 @ t.conj().T)


def _rel_errs(got, want):
    """||got - want||_2 / max(1, ||want||_2) for each matrix of the stacks."""
    return (np.linalg.norm(got - want, 2, axis=(-2, -1))
            / np.fmax(1.0, np.linalg.norm(want, 2, axis=(-2, -1))))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(order=st.integers(1, 8), m=st.integers(1, 3),
       general=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_spins_transfer_and_weyl_are_similarity_invariant(order, m, general,
                                                          seed):
    """Spins and W(n, lambda) at two points under a random similarity
    T = I + 0.5 G / sqrt(N), within 1e3 eps cond(T)^2 max cond(Sigma_n); phi
    under Realization.similarity and of the similar triple; and
    invert(weyl(T triple)) gives the spins back, or refuses with a typed
    error."""
    rng = np.random.default_rng(seed)
    draw = random_general_sigma_triple if general else random_admissible_triple
    triple = draw(rng, order, m)
    g = (rng.standard_normal((order, order))
         + 1j * rng.standard_normal((order, order))) / np.sqrt(2)
    t = np.eye(order) + 0.5 * g / np.sqrt(order)
    similar = _similar(triple, t)

    state, moved = generate(triple, N_MAX), generate(similar, N_MAX)
    bound = 1e3 * EPS * np.linalg.cond(t) ** 2 * max(state.conditioning)
    assert _rel_errs(moved.spins, state.spins).max() <= bound
    assert _rel_errs(Transfer(moved).w_grid(POINTS),
                     Transfer(state).w_grid(POINTS)).max() <= bound

    phi = weyl(triple)
    want = phi.grid(POINTS)
    assert _rel_errs(phi.similarity(t).grid(POINTS), want).max() <= bound
    realization = weyl(similar)
    assert _rel_errs(realization.grid(POINTS), want).max() <= bound

    try:
        inverted = generate(invert(realization), N_MAX)
    except SpinLatticeError:
        return
    assert _rel_errs(inverted.spins, state.spins).max() <= bound
