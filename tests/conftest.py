import numpy as np
import pytest

from spinlattice import ParameterTriple, random_admissible_triple


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
def eigh_calls(monkeypatch):
    """The shapes of the matrices passed to np.linalg.eigh, one per call."""
    eigh = np.linalg.eigh
    shapes = []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return shapes


@pytest.fixture
def spectrum_calls(monkeypatch):
    """The counts of np.linalg.eigvals calls and of 2-norms taken by
    np.linalg.norm."""
    eigvals, norm = np.linalg.eigvals, np.linalg.norm
    calls = {"eigvals": 0, "norm2": 0}

    def counted_eigvals(a):
        calls["eigvals"] += 1
        return eigvals(a)

    def counted_norm(x, ord=None, *args, **kwargs):
        calls["norm2"] += ord == 2
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    return calls
