import sys

import numpy as np
import pytest
import scipy.linalg

from spinlattice import ParameterTriple, linalg, random_admissible_triple


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def small_triple(rng):
    """Scalar-block class FG triple, moderate growth."""
    return random_admissible_triple(rng, 3, 1)


@pytest.fixture
def wide_triple(rng):
    """Class FG triple with m = 2."""
    return random_admissible_triple(rng, 4, 2)


@pytest.fixture
def real_mode_triple():
    """FG-tilde: alpha = diag(2i, 3) with the real mode 3 uncontrollable.
    Its spins are those of the scalar example h = 2, and Sigma_0(t) is
    defined only by its flow."""
    r2 = np.sqrt(2.0)
    return ParameterTriple(alpha=np.diag([2j, 3.0]), theta1=[[r2], [0.0]],
                           theta2=[[r2], [0.0]])


@pytest.fixture
def calls(monkeypatch):
    """calls(owner, name, key) patches the callable ``owner.name``, and
    every binding of the same object in the loaded spinlattice modules, to
    record key(*args, **kwargs) per call (the positional arguments without
    a key) in the list it returns."""

    def patch(owner, name, key=lambda *args, **kwargs: args):
        original = getattr(owner, name)
        record = []

        def counted(*args, **kwargs):
            record.append(key(*args, **kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        bindings = [(module, attr)
                    for path, module in list(sys.modules.items())
                    if path.split(".")[0] == "spinlattice"
                    for attr, value in vars(module).items()
                    if value is original]
        for module, attr in bindings:
            monkeypatch.setattr(module, attr, counted)
        return record

    return patch


@pytest.fixture
def eigh_calls(calls):
    """The shape of the matrix of each np.linalg.eigh call."""
    return calls(np.linalg, "eigh", lambda a, *args, **kwargs: np.shape(a))


@pytest.fixture
def spectrum_calls(calls):
    """One entry per np.linalg.eigvals call, and the ord of each
    np.linalg.norm call."""
    return {"eigvals": calls(np.linalg, "eigvals"),
            "norm": calls(np.linalg, "norm",
                          lambda x, ord=None, *args, **kwargs: ord)}


@pytest.fixture
def stage_calls(calls):
    """The work of the time-t stage: the number of matrices of each stacked
    scipy.linalg.expm call and of right-hand sides of each
    linalg.solve_sylvester call, and one entry per np.linalg.eig call."""
    return {"expm": calls(scipy.linalg, "expm", lambda a: a[..., 0, 0].size),
            "sylvester": calls(linalg, "solve_sylvester",
                               lambda a, b, c, *args, **kwargs:
                               c[..., 0, 0].size),
            "eig": calls(np.linalg, "eig")}


@pytest.fixture
def near_defective_triple():
    """near_defective_triple(delta): alpha = [[1+2i, 1, 0], [0, 1+2i+delta,
    0.5], [0, 0, -0.7+1.5i]], a Jordan block at delta = 0, with m = 1 and
    the sigma0 of the structural identity.  cond(V) grows like 2.1/delta,
    so the eigenbasis admits delta = 1e-1 alone."""

    def make(delta):
        alpha = np.array([[1 + 2j, 1, 0], [0, 1 + 2j + delta, 0.5],
                          [0, 0, -0.7 + 1.5j]])
        theta1, theta2 = np.ones((3, 1)), np.array([[1], [-1j], [0.5]])
        lam = np.hstack([theta1, theta2])
        sigma0 = linalg.herm(linalg.solve_sylvester(
            alpha, alpha.conj().T, 1j * lam @ lam.conj().T))
        return ParameterTriple(alpha=alpha, theta1=theta1, theta2=theta2,
                               sigma0=sigma0)

    return make


@pytest.fixture
def routes(calls):
    """The routes taken, one entry per call: the lattice recursion
    (``lattice._recur``) and its closed form (``lattice._closed_form_stack``),
    dS_n/dt from the flow at each site (``lattice._dspins``), the LU solves
    of W(n, lambda) (``transfer._solve_blocks``, the number of matrices
    factored) and scipy's Riccati solver.  A test of where a route
    runs reads these, so that moving a route re-points this fixture
    alone."""
    from spinlattice import lattice, transfer

    return {"recur": calls(lattice, "_recur"),
            "closed_form": calls(lattice, "_closed_form_stack"),
            "dspins": calls(lattice, "_dspins"),
            "lu": calls(transfer, "_solve_blocks",
                        lambda a, *args, **kwargs: a[..., 0, 0].size),
            "care": calls(scipy.linalg, "solve_continuous_are")}
