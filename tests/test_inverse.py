import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlattice import (
    Realization,
    TripleClass,
    check_minimal,
    generate,
    invert,
    lambda_grid,
    random_admissible_triple,
    random_general_sigma_triple,
    random_minimal_realization,
    reduce_to_minimal,
    solve_riccati,
    triple_at,
    validate,
    weyl,
    weyl_evolution,
)
from spinlattice.errors import AdmissibilityError


def test_scalar_riccati_oracle():
    # gamma = 0, vartheta = sqrt(2): the equation reduces to X^2 = 1
    r = Realization(
        gamma=np.array([[0.0 + 0j]]),
        vartheta1=np.array([[np.sqrt(2)]], dtype=complex),
        vartheta2=np.array([[np.sqrt(2)]], dtype=complex),
    )
    sol = solve_riccati(r)
    assert sol.x[0, 0] == pytest.approx(1.0)
    assert sol.residual_norm <= 1e-12


def test_riccati_residual_and_positivity(rng):
    for _ in range(5):
        r = random_minimal_realization(rng, 4, 2)
        sol = solve_riccati(r)
        assert sol.min_eigenvalue > 0
        scale = max(1.0, np.linalg.norm(sol.x) ** 2)
        assert sol.residual_norm <= 1e-10 * scale


def test_invert_produces_fg_triple(rng):
    r = random_minimal_realization(rng, 3, 1)
    t = invert(r)
    assert validate(t).triple_class is TripleClass.FG


def test_symmetrized_realization(rng):
    r = random_minimal_realization(rng, 4, 2)
    t = invert(r)
    beta = t.alpha - 1j * t.theta2 @ t.theta2.conj().T
    res = beta - beta.conj().T - 1j * (
        t.theta1 @ t.theta1.conj().T - t.theta2 @ t.theta2.conj().T
    )
    assert np.linalg.norm(res) <= 1e-10


def test_round_trip_weyl(rng):
    r = random_minimal_realization(rng, 4, 2)
    t = invert(r)
    phi = weyl(t)
    for lam in lambda_grid(t.alpha, count=8):
        assert np.linalg.norm(phi(lam) - r(lam)) <= 1e-9


def test_similarity_invariance(rng):
    r = random_minimal_realization(rng, 3, 1)
    t_mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    r2 = r.similarity(t_mat)
    assert np.linalg.norm(r(2.0 + 1j) - r2(2.0 + 1j)) <= 1e-10
    spins1 = generate(invert(r), 8).spins
    spins2 = generate(invert(r2), 8).spins
    worst = max(np.linalg.norm(a - b) for a, b in zip(spins1, spins2))
    assert worst <= 1e-9


def test_reduce_to_minimal(rng):
    base = random_minimal_realization(rng, 2, 1)
    # embed into a larger non-minimal realization with a decoupled block
    gamma = np.zeros((4, 4), dtype=complex)
    gamma[:2, :2] = base.gamma
    gamma[2:, 2:] = np.diag([5.0 + 1j, 7.0 - 2j])
    pad = np.zeros((2, 1), dtype=complex)
    big = Realization(
        gamma=gamma,
        vartheta1=np.vstack([base.vartheta1, pad]),
        vartheta2=np.vstack([base.vartheta2, pad]),
    )
    assert not all(check_minimal(big))
    small = reduce_to_minimal(big)
    assert small.order == 2
    assert np.linalg.norm(small(3.0 + 2j) - base(3.0 + 2j)) <= 1e-10


def test_invert_handles_non_minimal(rng):
    base = random_minimal_realization(rng, 2, 1)
    gamma = np.zeros((3, 3), dtype=complex)
    gamma[:2, :2] = base.gamma
    gamma[2, 2] = 4.0 + 1j
    pad = np.zeros((1, 1), dtype=complex)
    big = Realization(
        gamma=gamma,
        vartheta1=np.vstack([base.vartheta1, pad]),
        vartheta2=np.vstack([base.vartheta2, pad]),
    )
    t = invert(big)
    assert t.order == 2
    assert np.linalg.norm(weyl(t)(3.0 - 2j) - base(3.0 - 2j)) <= 1e-9


def test_zero_function_rejected():
    r = Realization(
        gamma=np.array([[2.0 + 1j]]),
        vartheta1=np.array([[0.0]], dtype=complex),
        vartheta2=np.array([[0.0]], dtype=complex),
    )
    with pytest.raises(AdmissibilityError):
        invert(r)


def _spins_error(a, b):
    return max(np.linalg.norm(x - y) for x, y in zip(generate(a, 8).spins,
                                                     generate(b, 8).spins))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(order=st.integers(1, 6), m=st.integers(1, 3), general=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_invert_weyl_round_trip(order, m, general, seed):
    rng = np.random.default_rng(seed)
    draw = random_general_sigma_triple if general else random_admissible_triple
    t = draw(rng, order, m)
    assert _spins_error(invert(weyl(t)), t) <= 1e-9


@settings(max_examples=50, derandomize=True, deadline=None)
@given(order=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_invert_weyl_evolution_round_trip(order, seed):
    t = random_admissible_triple(np.random.default_rng(seed), order, 1)
    assert _spins_error(invert(weyl_evolution(t, 0.2)), triple_at(t, 0.2)) <= 1e-9
