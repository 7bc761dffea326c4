import pathlib

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlattice import (
    ParameterTriple,
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
from spinlattice import inverse, linalg, serialize
from spinlattice.config import DEFAULT
from spinlattice.cli import main
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


def _perturb_the_subspace_solution(monkeypatch):
    """Scale the X of either subspace route, the Hamiltonian eigenvectors
    or scipy's Schur method where those do not serve (cond(U1) = 195 at
    order 8), by 1 + 1e-6."""
    def perturbed(solve):
        def run(*args):
            x = solve(*args)
            return None if x is None else x * (1 + 1e-6)
        return run

    monkeypatch.setattr(inverse, "_stable_subspace",
                        perturbed(inverse._stable_subspace))
    monkeypatch.setattr(inverse.scipy.linalg, "solve_continuous_are",
                        perturbed(scipy.linalg.solve_continuous_are))


@pytest.mark.parametrize("order, m", ((2, 1), (3, 2), (5, 1), (8, 2)))
def test_newton_kleinman_polishes_a_perturbed_subspace_solution(
        monkeypatch, order, m):
    r = random_minimal_realization(np.random.default_rng(order), order, m)
    want = solve_riccati(r).x
    _perturb_the_subspace_solution(monkeypatch)
    sol = solve_riccati(r)
    assert sol.newton_iterations >= 2
    assert np.linalg.norm(sol.x - want) <= 1e-9 * np.linalg.norm(want)


def test_newton_kleinman_solves_under_the_given_table(monkeypatch, calls):
    """Each closed-loop Sylvester solve of the Newton steps of ``invert``
    checks its spectra with the table ``invert`` was given."""
    r = random_minimal_realization(np.random.default_rng(3), 3, 2)
    _perturb_the_subspace_solution(monkeypatch)
    tables = calls(linalg, "solve_sylvester",
                   lambda a, b, c, tol=DEFAULT: tol)
    table = DEFAULT.replace(spec_tol=1e-9)
    invert(r, table)
    assert len(tables) >= 2
    assert all(tol is table for tol in tables)


DATA = pathlib.Path(__file__).parent / "data" / "json"


@pytest.mark.parametrize("name", ("m2", "m3"))
def test_invert_solves_the_riccati_equation_without_scipy(routes, monkeypatch,
                                                         name):
    """The m2 and m3 realizations take the stable eigenvectors of the
    Hamiltonian, with no scipy Riccati call and no Newton step; with
    cond(U1) over the limit (a limit of 0 here), scipy's solver is the
    fallback, and both give X to 1e-12."""
    path = DATA / f"{name}.realization.json"
    r = serialize.realization_from_obj(serialize.load_json(path))
    invert(r)
    assert routes["care"] == []
    sol = solve_riccati(r)
    assert sol.newton_iterations == 1
    monkeypatch.setattr(linalg, "EIGENBASIS_COND", 0.0)
    invert(r)
    assert len(routes["care"]) == 1
    fallback = solve_riccati(r)
    assert (np.linalg.norm(fallback.x - sol.x)
            <= 1e-12 * np.linalg.norm(sol.x))


def test_invert_takes_both_roots_from_one_eigh(eigh_calls):
    """X^{1/2} and X^{-1/2} of the Riccati solution X share one eigh."""
    r = random_minimal_realization(np.random.default_rng(2), 3, 2)
    eigh_calls.clear()
    invert(r)
    assert eigh_calls == [(3, 3)]


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


def test_zero_function_rejected(tmp_path, capsys):
    """phi = 0: reduce_to_minimal finds an empty controllable basis and
    raises what invert raises, which the invert command writes as one
    error line."""
    r = Realization(
        gamma=np.array([[2.0 + 1j]]),
        vartheta1=np.array([[0.0]], dtype=complex),
        vartheta2=np.array([[0.0]], dtype=complex),
    )
    for fn in (invert, reduce_to_minimal):
        with pytest.raises(AdmissibilityError, match=r"^the zero function "
                           r"has no admissible triple \(order 0\)$"):
            fn(r)
    path = tmp_path / "zero.json"
    path.write_text('{"gamma": [[{"re": 2, "im": 1}]], '
                    '"vartheta1": [[{"re": 1, "im": 0}]], '
                    '"vartheta2": [[{"re": 0, "im": 0}]]}')
    assert main(["invert", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "error: the zero function has no admissible triple (order 0)\n")


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


def test_order_ten_weyl_realization_is_minimal():
    """The Krylov powers of an order-10 gamma grow apart by orders of
    magnitude; the rank test must still see a minimal realization."""
    rng = np.random.default_rng(4)
    cg = lambda *shape: (rng.standard_normal(shape)
                         + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    theta1, theta2, h = cg(10, 2), cg(10, 2), cg(10, 10)
    alpha = 4.0 * (h + h.conj().T) + 0.5j * (theta1 @ theta1.conj().T
                                             + theta2 @ theta2.conj().T)
    t = ParameterTriple(alpha=alpha, theta1=theta1, theta2=theta2)
    r = weyl(t)
    assert check_minimal(r) == (True, True)
    recovered = invert(r)
    assert recovered.order == 10
    assert _spins_error(recovered, t) <= 1e-8


def test_invert_tests_minimality_once(calls, capsys):
    """One controllability and one observability staircase for a minimal
    realization: the Riccati solve of invert does not test it again."""
    path = pathlib.Path(__file__).parent / "data" / "json" / "m3.realization.json"
    staircases = calls(inverse.linalg, "krylov_basis",
                       lambda a, *args, **kwargs: a.shape)
    assert main(["invert", str(path)]) == 0
    assert len(staircases) == 2
    assert capsys.readouterr().out == (path.parent / "m3.invert.json").read_text()


def test_invert_tests_the_reduced_realization_once(calls):
    """A non-minimal realization: its test, the two reduction staircases
    (the second on the controllable part) and one test of the reduced
    realization that the Riccati solve receives."""
    r = random_minimal_realization(np.random.default_rng(4), 2, 1)
    pad = np.zeros((1, 1), dtype=complex)
    big = Realization(
        gamma=scipy.linalg.block_diag(r.gamma, [[4.0 + 1j]]),
        vartheta1=np.vstack([r.vartheta1, pad]),
        vartheta2=np.vstack([r.vartheta2, pad]))
    staircases = calls(inverse.linalg, "krylov_basis",
                       lambda a, *args, **kwargs: a.shape)
    assert invert(big).order == 2
    assert staircases == [(3, 3)] * 3 + [(2, 2)] * 3


@pytest.mark.parametrize("block", ("uncontrollable", "unobservable"))
def test_solve_riccati_refuses_a_non_minimal_realization(block):
    r = random_minimal_realization(np.random.default_rng(6), 2, 1)
    pad = np.zeros((1, 1), dtype=complex)
    side = {"uncontrollable": "vartheta2", "unobservable": "vartheta1"}[block]
    parts = {name: np.vstack([getattr(r, name),
                              pad if name == side else [[1.0]]])
             for name in ("vartheta1", "vartheta2")}
    big = Realization(gamma=scipy.linalg.block_diag(r.gamma, [[4.0 + 1j]]),
                      **parts)
    flags = dict(zip(("controllable", "observable"), check_minimal(big)))
    assert flags == {"controllable": block != "uncontrollable",
                     "observable": block != "unobservable"}
    with pytest.raises(AdmissibilityError,
                       match="Riccati solve requires a minimal realization"):
        solve_riccati(big)
