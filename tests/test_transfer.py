import contextlib
import io
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinlattice import (Transfer, generate, lambda_grid,
                         random_admissible_triple, random_general_sigma_triple)
from spinlattice import cli, linalg, transfer as transfer_module
from spinlattice.config import DEFAULT
from spinlattice.errors import PoleError, SpinLatticeError
from spinlattice.lattice import LatticeState
from spinlattice.verify import run_checks


@pytest.fixture
def transfer(small_triple):
    return Transfer(generate(small_triple, 12))


def grid(triple):
    return lambda_grid(triple.alpha, count=8)


def test_j_power_factor_closed_form():
    """(I - (i/lambda)J)^n is diagonal: its diagonal, (1 - i/lambda)^n over
    the first m entries and (1 + i/lambda)^n over the last m."""
    lam = 2.0 + 1j
    out = transfer_module._j_diagonals([lam], 3, 2)[3, 0]
    assert out[:2] == pytest.approx([(1 - 1j / lam) ** 3] * 2)
    assert out[2:] == pytest.approx([(1 + 1j / lam) ** 3] * 2)


def test_pole_rejection(small_triple, transfer):
    eig = np.linalg.eigvals(small_triple.alpha)[0]
    with pytest.raises(PoleError):
        transfer.w(2, eig)
    # lambda = 0, the pole of (I - (i/lambda)J)^n
    with pytest.raises(PoleError, match=r"^fundamental solution undefined "
                       r"at lambda = 0$"):
        transfer.fundamental(1, 0)
    with pytest.raises(PoleError, match=r"^the factor \(I - \(i/lambda\)J\)"
                       r"\^n has a pole at lambda = 0$"):
        transfer.identity_residual(1, 0)


def test_identity_residual(small_triple, transfer):
    for lam in grid(small_triple):
        for n in range(8):
            assert transfer.identity_residual(n, lam) <= 1e-9


def test_inverse_product(small_triple, transfer):
    for lam in grid(small_triple):
        for n in range(8):
            assert transfer.unitarity_residual(n, lam) <= 1e-9


def test_fundamental_normalized_at_zero(small_triple, transfer):
    lam = 2.0 - 1.5j
    assert np.allclose(transfer.fundamental(0, lam), np.eye(2 * small_triple.m))


def test_w_makes_one_solve_per_distinct_lambda(real_mode_triple, calls):
    """Off the eigenbasis (the real mode 3) the resolvent is the only solve
    of W(n, lambda), one per lambda for every n: Sigma_n^{-1} Lambda_n
    comes with the state, and repeated points come from the cache."""
    transfer = Transfer(generate(real_mode_triple, 12))
    solves = calls(np.linalg, "solve")
    points = [(n, lam) for n in range(13) for lam in (2.0 - 1.5j, 3j)]
    for n, lam in points + points:
        transfer.w(n, lam)
    assert len(solves) == 2


def test_w_makes_no_lu_on_an_admitted_triple(small_triple, real_mode_triple,
                                            near_defective_triple, routes):
    """The LU route of W is the fallback alone: none for an FG triple,
    whose W comes from its pole residues, one per lambda for the real-mode
    triple and the near-defective alpha at delta = 1e-2."""
    lams = [2.0 - 1.5j, 3j, 0.5 + 0.5j]
    Transfer(generate(small_triple, 12)).w_grid(lams)
    assert routes["lu"] == []
    for triple in (real_mode_triple, near_defective_triple(1e-2)):
        Transfer(generate(triple, 12)).w_grid(lams)
    assert routes["lu"] == [3, 3]


def test_two_point_and_factorization_factor_no_extra_matrix(small_triple,
                                                           calls):
    """The two-point identity factors lambda I - alpha once per point and
    no conj(lambda) I - alpha*: the adjoint of its one solve Z serves.  The
    factorization residuals take (alpha^2 + I)^{-1} from the cached
    resolvents (alpha -/+ iI)^{-1} and factor no alpha^2 + I.  W comes from
    its pole residues, with no solve."""
    transfer = Transfer(generate(small_triple, 12))
    lams = [2.0 - 1.5j, 3j, 0.5 + 0.5j]
    alpha, i_n = small_triple.alpha, np.eye(small_triple.order)
    factored = calls(linalg, "solve", lambda a, *args, **kwargs: np.reshape(
        a, (-1,) + np.shape(a)[-2:]))

    def count(matrices):
        return sum(np.array_equal(a, b) for stack in factored for a in stack
                   for b in matrices)

    transfer.gram_identity_residuals(range(13), lams)
    assert count([lam * i_n - alpha for lam in lams]) == len(lams)
    assert count([np.conj(lam) * i_n - alpha.conj().T for lam in lams]) == 0
    factored.clear()
    transfer.factorization_residual_arrays(range(12))
    assert count([alpha @ alpha + i_n]) == 0


def test_fundamental_is_cached(transfer):
    assert transfer.fundamental(4, 2.0 - 1.5j) is transfer.fundamental(4, 2.0 - 1.5j)


def test_fundamental_recursion(small_triple, transfer):
    for lam in grid(small_triple):
        for n in range(10):
            assert transfer.recursion_residual(n, lam) <= 1e-9


def test_two_point_identity(small_triple, transfer):
    for lam in grid(small_triple):
        for n in range(8):
            assert transfer.gram_identity_residual(n, lam) <= 1e-9


def test_contractive_lower_half_plane(small_triple, transfer):
    scale = 1.0 + np.linalg.norm(small_triple.alpha, 2)
    for k in range(8):
        lam = scale * np.exp(-1j * np.pi * (k + 0.5) / 8)
        for n in range(8):
            w = transfer.w(n, lam)
            top = np.linalg.eigvalsh(w.conj().T @ w - np.eye(w.shape[0]))[-1]
            assert top <= 1e-9


def test_factorization_residuals(small_triple, transfer):
    for n in range(8):
        res = transfer.factorization_residuals(n)
        assert max(res.values()) <= 1e-9


def test_rank_of_i_plus_minus_s(wide_triple):
    state = generate(wide_triple, 10)
    m = wide_triple.m
    for s in state.spins:
        for sign in (1.0, -1.0):
            sv = np.linalg.svd(np.eye(2 * m) + sign * s, compute_uv=False)
            assert sv[m] <= 1e-8


def test_properness(small_triple, transfer):
    # ||W(n, lam) - I|| decays like 1/|lam|
    assert linalg.frob(transfer.w(4, 1e8) - np.eye(2 * small_triple.m)) <= 1e-6


@pytest.mark.parametrize("n", [-1, -6, 6])
def test_site_outside_the_horizon_is_rejected(small_triple, n):
    transfer = Transfer(generate(small_triple, n_max=5))
    with pytest.raises(ValueError, match=f"site {n} outside 0..5"):
        transfer.w(n, 2.0 - 1.5j)
    with pytest.raises(ValueError, match=f"site {n} outside 0..5"):
        transfer.fundamental(n, 2.0 - 1.5j)
    with pytest.raises(ValueError, match="outside 0..4"):
        transfer.identity_residual(5, 2.0 - 1.5j)


# The per-point formulas W(n, lambda) and its residuals were evaluated with
# before they were stacked over sites x lambdas; the stacked kernel on its
# LU route must reproduce them bit for bit, and W from its pole residues
# must agree with them.  Two residuals have since been formed from fewer
# solves, and are held to a bound instead: the two-point identity, whose
# right side comes from the one solve Z = (lambda I - alpha)^{-1} Lambda_n
# where the reference solves with lambda I - alpha and its adjoint apart,
# and the factorization residuals, whose (alpha^2 + I)^{-1} is the product
# of the resolvents at +/-i where the reference inverts alpha^2 + I.

EPS = np.finfo(float).eps


def _two_point_bound(w):
    """1000 eps (1 + ||W(n, lambda)||_F^2), indexed [n, k] like ``w``: W* W
    is the size of the two-point right side.  Over 2,000 random draws like
    those of either test the gap stayed below 185 eps (1 + ||W||^2).  The
    bound holds away from the spectrum of alpha, where every point of
    ``lambda_grid`` lies; within 1e-6 of an eigenvalue the gap grows like
    cond(lambda I - alpha) and passes it (8e6 eps (1 + ||W||^2))."""
    return 1000 * EPS * (1.0 + linalg.frob_norms(w) ** 2)


def _on_lu(transfer):
    """``transfer`` on its fallback route, one LU of lambda I - alpha per
    lambda, as where the eigenbasis does not admit alpha."""
    transfer._basis = None
    return transfer


def _w(state, n, lam):
    lam = complex(lam)
    alpha = state.triple.alpha
    resolvent = np.linalg.solve(
        lam * np.eye(alpha.shape[0], dtype=complex) - alpha, state.lambdas[n])
    y = state.sigma_inv_lambdas[n].conj().T
    return np.eye(2 * state.m, dtype=complex) + 1j * y @ resolvent


def _j_diagonal(lam, n, m):
    """The diagonal of (I - (i/lambda)J)^n: factors in Python complex
    arithmetic, raised by numpy's power loop over an array of exponents
    (a scalar exponent 2 takes numpy's square instead)."""
    return np.repeat(np.array([1 - 1j / lam, 1 + 1j / lam])
                     ** np.array([n, n]), m)


def _fundamental(state, n, lam):
    return ((_w(state, n, lam) * _j_diagonal(lam, n, state.m))
            @ _w(state, 0, np.conj(lam)).conj().T)


def _frob(a):
    return float(np.linalg.norm(a, "fro"))


def _point_residuals(state, n, lam):
    m, alpha, s = state.m, state.triple.alpha, state.spins[n]
    i_n = np.eye(alpha.shape[0], dtype=complex)
    w, w1 = _w(state, n, lam), _w(state, n + 1, lam)
    g = np.eye(2 * m, dtype=complex) - (1j / lam) * s
    lam_n = state.lambdas[n]
    inner = np.linalg.solve(state.sigmas[n],
                            np.linalg.solve(lam * i_n - alpha, lam_n))
    inner = np.linalg.solve(np.conj(lam) * i_n - alpha.conj().T, inner)
    rhs = np.eye(2 * m, dtype=complex) - 1j * (lam - np.conj(lam)) * (
        lam_n.conj().T @ inner)
    f, f1 = _fundamental(state, n, lam), _fundamental(state, n + 1, lam)
    return {
        "identity": _frob(w1 * _j_diagonal(lam, 1, m) - g @ w),
        "unitarity": _frob(w @ _w(state, n, np.conj(lam)).conj().T
                           - np.eye(2 * m)),
        "gram": _frob(w.conj().T @ w - rhs),
        "recursion": _frob(f1 - f + (1j / lam) * s @ f),
    }


def _point_factorizations(state, n):
    m, a, s = state.m, state.triple.alpha, state.spins[n]
    i_m, i2m = np.eye(m, dtype=complex), np.eye(2 * m, dtype=complex)
    core = np.linalg.solve(a @ a + np.eye(a.shape[0], dtype=complex),
                           np.eye(a.shape[0], dtype=complex))
    lam_n = state.lambdas[n]
    y = state.sigma_inv_lambdas[n].conj().T
    w_n_pi_1 = _w(state, n, 1j)[:, :m]
    w_n1_mi_1 = _w(state, n + 1, -1j)[:, :m]
    w_n_mi_2 = _w(state, n, -1j)[:, m:]
    w_n1_pi_2 = _w(state, n + 1, 1j)[:, m:]
    return {
        "first": _frob(w_n_pi_1 - w_n1_mi_1 @ (
            i_m + 2 * w_n_pi_1.conj().T @ y @ core @ lam_n[:, :m])),
        "second": _frob(w_n_mi_2 - w_n1_pi_2 @ (
            i_m - 2 * w_n_mi_2.conj().T @ y @ core @ lam_n[:, m:])),
        "plus": _frob(i2m + s - 2 * w_n1_mi_1 @ w_n_pi_1.conj().T),
        "minus": _frob(i2m - s - 2 * w_n1_pi_2 @ w_n_mi_2.conj().T),
    }


@settings(max_examples=25, derandomize=True, deadline=None)
@given(order=st.integers(1, 8), m=st.integers(1, 3), general=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_kernel_matches_the_per_point_formulas(order, m, general, seed):
    rng = np.random.default_rng(seed)
    make = random_general_sigma_triple if general else random_admissible_triple
    try:
        state = generate(make(rng, order, m), n_max=6)
    except SpinLatticeError:
        assume(False)
    transfer = _on_lu(Transfer(state))
    scale = 1.0 + float(np.linalg.norm(state.triple.alpha, 2))
    lams = [complex(lam) for lam in lambda_grid(state.triple.alpha, count=3)]
    lams.append(scale * (0.6 - 0.8j))
    sites = range(state.n_max)

    residues = Transfer(state)
    assert residues._basis is not None
    w = transfer.w_grid(lams)
    bound = 1e-12 * (1.0 + linalg.frob_norms(w))
    assert (linalg.frob_norms(residues.w_grid(lams) - w) <= bound).all()
    f = transfer.fundamental_grid(lams)
    gram = transfer.contractivity_gram(sites, lams)
    arrays = {
        "identity": transfer.identity_residuals(sites, lams),
        "unitarity": transfer.unitarity_residuals(sites, lams),
        "gram": transfer.gram_identity_residuals(sites, lams),
        "recursion": transfer.recursion_residuals(sites, lams),
    }
    two_point = _two_point_bound(w)
    for k, lam in enumerate(lams):
        for n in range(state.n_max + 1):
            assert np.array_equal(w[n, k], _w(state, n, lam))
            assert np.array_equal(f[n, k], _fundamental(state, n, lam))
        for n in sites:
            point = _w(state, n, lam)
            assert np.array_equal(gram[n, k],
                                  point.conj().T @ point - np.eye(2 * m))
            bounds = {"gram": two_point[n, k]}
            for name, value in _point_residuals(state, n, lam).items():
                assert abs(arrays[name][n, k] - value) <= bounds.get(
                    name, 0.0), (name, n, lam)
    factorizations = transfer.factorization_residual_arrays(sites)
    w_i = linalg.frob_norms(transfer.w_grid([1j, -1j])) ** 2
    for n in sites:
        # (alpha^2 + I)^{-1} as the product of the resolvents at +/-i
        core = 100 * EPS * (1.0 + w_i[n].sum() + w_i[n + 1].sum())
        bounds = {"first": core, "second": core}
        for name, value in _point_factorizations(state, n).items():
            assert abs(factorizations[name][n] - value) <= bounds.get(
                name, 0.0), (name, n)


def _assert_w_meets_the_oracle(triple, n_max, routed):
    """W(n, lambda) of ``Transfer.w_grid`` within 100 eps cond(Sigma_n)
    max(1, ||W||) of the 30-digit ``oracle.transfer``, on the route that
    ``routed`` names (the pole residues or the LU solves), at three points
    of the lambda grid, +/-i and a point of the lower half plane."""
    import oracle

    state = generate(triple, n_max)
    transfer = Transfer(state)
    assert (transfer._basis is not None) == (routed == "residues")
    lams = [complex(lam) for lam in lambda_grid(triple.alpha, count=3)]
    lams += [1j, -1j, 0.5 - 2j]
    want = np.array(oracle.transfer(triple, lams, n_max))
    cond = np.array(state.conditioning)[:, None]
    bound = 100 * np.finfo(float).eps * cond * np.fmax(
        1.0, linalg.frob_norms(want))
    assert (linalg.frob_norms(transfer.w_grid(lams) - want) <= bound).all()


@settings(max_examples=12, derandomize=True, deadline=None)
@given(order=st.integers(1, 6), m=st.integers(1, 3), general=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_w_from_its_pole_residues_meets_the_oracle(order, m, general, seed):
    pytest.importorskip("mpmath")
    make = random_general_sigma_triple if general else random_admissible_triple
    triple = make(np.random.default_rng(seed), order, m)
    assume(triple._eigenbasis(DEFAULT) is not None)
    _assert_w_meets_the_oracle(triple, 8, "residues")


def test_w_from_the_lu_solves_meets_the_oracle(real_mode_triple,
                                               near_defective_triple):
    """The fallback: the real mode 3 and cond(V) = 210 (delta = 1e-2) keep
    alpha out of the eigenbasis."""
    pytest.importorskip("mpmath")
    for triple in (real_mode_triple, near_defective_triple(1e-2)):
        _assert_w_meets_the_oracle(triple, 10, "lu")


def test_run_checks_solves_once_per_lambda_batch(calls):
    """One run_checks of an order-3, m = 1 triple at n_max = 15 makes a few
    broadcast solves in transfer, where one solve per (n, lambda) point made
    522."""
    triple = random_admissible_triple(np.random.default_rng(5), 3, 1)

    def caller(*args, **kwargs):
        frame = sys._getframe(2)    # the caller of the counting wrapper
        while frame.f_globals.get("__name__") == "spinlattice.linalg":
            frame = frame.f_back
        return frame.f_globals.get("__name__")

    callers = calls(np.linalg, "solve", caller)
    run_checks(triple, n_max=15)
    assert 0 < callers.count("spinlattice.transfer") <= 20


# One LU factorization per evaluation point: W(n, lambda) and the two-point
# identity were a broadcast solve per (lambda, n) pair; the solves from one
# LU per matrix, W on its LU route, must reproduce W and the fundamental
# solution bit for bit, and the two-point residuals, whose right side now
# comes from one solve with lambda I - alpha, within ``_two_point_bound``.

def _h(a):
    return a.conj().swapaxes(-1, -2)


def _w_per_pair(state, lams):
    """W(n, lambda) from one broadcast solve per (lambda, n), [n, k]."""
    alpha = state.triple.alpha
    i_n = np.eye(alpha.shape[0], dtype=complex)
    shifted = np.array([lam * i_n - alpha for lam in lams])
    resolvents = np.linalg.solve(shifted[:, None], state.lambdas[None])
    w = np.eye(2 * state.m, dtype=complex) + 1j * _h(
        state.sigma_inv_lambdas) @ resolvents
    return w.swapaxes(0, 1)


def _fundamental_per_pair(state, lams):
    w = _w_per_pair(state, [z for lam in lams for z in (lam, np.conj(lam))])
    steps = np.array([[_j_diagonal(lam, n, state.m) for lam in lams]
                      for n in range(state.n_max + 1)])
    return (w[:, ::2] * steps[:, :, None]) @ _h(w[0, 1::2])


def _gram_per_pair(state, lams):
    """The residuals of the two-point identity at every site, from the
    three solves with lambda I - alpha, Sigma_n and conj(lambda) I - alpha*,
    each broadcast over (site, lambda) pairs."""
    alpha, m = state.triple.alpha, state.m
    i_n = np.eye(alpha.shape[0], dtype=complex)
    w = _w_per_pair(state, lams)[:-1]
    lam_n = state.lambdas[:-1][:, None]
    inner = np.linalg.solve(np.array([lam * i_n - alpha for lam in lams]),
                            lam_n)
    inner = np.linalg.solve(state.sigmas[:-1][:, None], inner)
    inner = np.linalg.solve(np.array(
        [np.conj(lam) * i_n - alpha.conj().T for lam in lams]), inner)
    factors = np.array([1j * (lam - np.conj(lam)) for lam in lams])
    rhs = np.eye(2 * m, dtype=complex) - factors[:, None, None] * (
        _h(lam_n) @ inner)
    return linalg.frob_norms(_h(w) @ w - rhs)


def _random_state(rng, order, m, n_max):
    """A LatticeState of random Lambda_n and positive definite Sigma_n
    beside the alpha of an admissible triple: the solves of the transfer
    kernel at every order and horizon, without the growth of the
    recursion."""
    triple = random_admissible_triple(rng, order, m)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    lambdas = gaussian(n_max + 1, order, 2 * m)
    g = gaussian(n_max + 1, order, order)
    sigmas = linalg.herm(g @ _h(g) + order * np.eye(order))
    return LatticeState(
        triple=triple, n_max=n_max, lambdas=lambdas, sigmas=sigmas,
        spins=np.zeros((n_max, 2 * m, 2 * m), dtype=complex),
        conditioning=[], spin_residuals=[],
        sigma_inv_lambdas=np.linalg.solve(sigmas, lambdas))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(order=st.integers(1, 16), m=st.integers(1, 3),
       n_max=st.integers(1, 200), count=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_one_lu_per_point_is_the_per_pair_solve_bit_for_bit(order, m, n_max,
                                                           count, seed):
    rng = np.random.default_rng(seed)
    state = _random_state(rng, order, m, n_max)
    scale = 1.0 + float(np.linalg.norm(state.triple.alpha, 2))
    lams = [complex(lam) for lam in lambda_grid(state.triple.alpha,
                                                count=count)]
    lams.append(scale * complex(*rng.standard_normal(2)))
    transfer = _on_lu(Transfer(state))
    assert np.array_equal(transfer.w_grid(lams), _w_per_pair(state, lams))
    assert np.array_equal(transfer.fundamental_grid(lams),
                          _fundamental_per_pair(state, lams))
    gaps = abs(transfer.gram_identity_residuals(range(n_max), lams)
               - _gram_per_pair(state, lams))
    w = transfer.w_grid(lams)[:-1]
    assert (gaps <= _two_point_bound(w)).all()


DATA = pathlib.Path(__file__).parent / "data"


@pytest.mark.parametrize("argv, most", (
    (["verify", "m3.json", "--nmax", "30"], 139),
    (["fundamental", "m3.json", "--nmax", "60", "--lambda", "2+0.5i"], 3),
))
def test_commands_factor_each_matrix_once(calls, argv, most):
    """Broadcast over sites, the resolvent was factored once per (lambda,
    n): 1216 factorizations in this verify and 123 in this fundamental,
    whose 61 sites need two matrices, lambda I - alpha and its conjugate,
    beside the inverse of alpha.  LU factorizations are counted through
    linalg.solve (and linalg.inv): one per matrix of the broadcast batch of
    each call."""
    factored = calls(linalg, "solve", lambda a, rhs, *args: int(np.prod(
        np.broadcast_shapes(np.shape(a)[:-2], np.shape(rhs)[:-2]),
        dtype=int)))
    argv[1] = str(DATA / "verify" / argv[1])
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert 0 < sum(factored) <= most
