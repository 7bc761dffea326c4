import contextlib
import io
import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinlattice import (
    ParameterTriple,
    generate,
    k_residual,
    lambda_closed_form,
    monotone_diagnostics,
    random_admissible_triple,
    random_general_sigma_triple,
    signature_matrix,
)
from spinlattice import cli, lattice, linalg, serialize
from spinlattice.config import DEFAULT
from spinlattice.errors import (ConditioningError, InputError, NumericError,
                                SingularMatrixError, SpectrumError)


def scalar_example():
    return ParameterTriple(
        alpha=np.array([[2j]]),
        theta1=np.array([[np.sqrt(2)]], dtype=complex),
        theta2=np.array([[np.sqrt(2)]], dtype=complex),
    )


def _advance(alpha, lam, sigma):
    """One step of the recursion: row n = 1 of a horizon-1 stack."""
    stack = lattice.generate_stack(alpha, lam[None], sigma[None], 1)
    return stack.lambdas[0, 1], stack.sigmas[0, 1]


def test_advance_hand_values():
    t = scalar_example()
    lam1, sigma1 = _advance(t.alpha, t.lambda0, t.sigma0)
    assert np.allclose(lam1, [[3 * np.sqrt(2) / 2, np.sqrt(2) / 2]])
    assert sigma1[0, 0] == pytest.approx(1.25)


def test_advance_zero_lambda():
    alpha = np.array([[2j, 0], [0, 3j]])
    lam = np.zeros((2, 2), dtype=complex)
    sigma = np.eye(2, dtype=complex)
    lam1, sigma1 = _advance(alpha, lam, sigma)
    assert np.allclose(lam1, 0)
    a_inv = np.linalg.inv(alpha)
    assert np.allclose(sigma1, sigma + a_inv @ sigma @ a_inv.conj().T)


def test_closed_form_matches_recursion(rng):
    """For every sigma0: the Lambda_n step never reads Sigma_n."""
    cases = [(random_admissible_triple(rng, 4, 2), (0, 1, 5, 12))] + [
        (random_general_sigma_triple(np.random.default_rng(order), order,
                                     1 + order % 3), (0, 1, 7, 20))
        for order in range(1, 7)]
    for t, ns in cases:
        state = generate(t, max(ns))
        for n in ns:
            closed = lambda_closed_form(t, n)
            rel = np.linalg.norm(closed - state.lambdas[n]) / max(
                1.0, np.linalg.norm(state.lambdas[n])
            )
            assert rel <= 1e-11


def test_spin_zero_potential():
    alpha = np.array([[2j, 0], [0, 3j]])
    t = ParameterTriple(
        alpha=alpha,
        theta1=np.zeros((2, 1), dtype=complex),
        theta2=np.zeros((2, 1), dtype=complex),
    )
    state = generate(t, 5)
    j = signature_matrix(1)
    for n in range(5):
        assert np.allclose(state.spins[n], j)


def test_spin_involution_and_hermitian(small_triple):
    state = generate(small_triple, 20)
    i2m = np.eye(2 * small_triple.m)
    for n in range(20):
        s = state.spins[n]
        assert np.allclose(s, s.conj().T)
        assert np.linalg.norm(s @ s - i2m) <= 1e-10


def test_identity_propagates(small_triple):
    state = generate(small_triple, 20)
    a = small_triple.alpha
    for lam, sig in zip(state.lambdas, state.sigmas):
        res = np.linalg.norm(a @ sig - sig @ a.conj().T - 1j * lam @ lam.conj().T)
        assert res <= 1e-9 * max(1.0, np.linalg.norm(sig) * np.linalg.norm(a))


def test_sigma_positive(small_triple):
    state = generate(small_triple, 20)
    for sig in state.sigmas:
        assert np.linalg.eigvalsh(sig)[0] > 0


def test_k_residual_small(small_triple):
    state = generate(small_triple, 11)
    for n in range(10):
        assert k_residual(state, n) <= 1e-9 * max(
            1.0, np.linalg.norm(state.lambdas[n]) * state.conditioning[n]
        )


def test_k_residual_zero_potential():
    alpha = np.array([[2j]])
    t = ParameterTriple(
        alpha=alpha,
        theta1=np.zeros((1, 1), dtype=complex),
        theta2=np.zeros((1, 1), dtype=complex),
    )
    state = generate(t, 3)
    assert k_residual(state, 0) == 0.0


def test_overflow_guard():
    t = scalar_example()
    with pytest.raises(NumericError):
        generate(t, 60, tol=DEFAULT.replace(sigma_overflow=1e6))


def test_monotone_sequences(rng):
    t = random_admissible_triple(rng, 3, 1, h_scale=16.0, inv_norm_max=0.15)
    diag = monotone_diagnostics(generate(t, 20))
    assert diag.r_sequence is not None and diag.q_sequence is not None
    assert min(diag.r_increments_min_eig) >= -1e-10
    assert max(diag.q_increments_max_eig) <= 1e-10
    assert max(diag.r_cross_residuals) <= 1e-10
    assert max(diag.q_cross_residuals) <= 1e-10


def test_monotone_constant_for_zero_potential():
    # Lambda = 0 forces alpha Hermitian for the structural identity to hold
    alpha = np.array([[2.0 + 0j]])
    t = ParameterTriple(
        alpha=alpha,
        theta1=np.zeros((1, 1), dtype=complex),
        theta2=np.zeros((1, 1), dtype=complex),
    )
    diag = monotone_diagnostics(generate(t, 6))
    assert max(abs(e) for e in diag.r_increments_min_eig) <= 1e-14
    assert max(abs(e) for e in diag.q_increments_max_eig) <= 1e-14
    # with both i and -i in the spectrum, neither sequence is defined
    t = ParameterTriple(alpha=np.diag([1j, -1j]), theta1=np.zeros((2, 1)),
                        theta2=np.zeros((2, 1)))
    with pytest.raises(SpectrumError, match="^both i and -i are eigenvalues "
                       "of alpha; no monotone sequence is defined$"):
        monotone_diagnostics(generate(t, 3))


def test_quadrature_oracle(rng):
    """Sigma_n of the recursion against the 30-digit recursion of
    ``oracle.sigmas``."""
    pytest.importorskip("mpmath")
    import oracle

    t = random_admissible_triple(rng, 3, 1)
    state = generate(t, 4)
    want = oracle.sigmas(t, 4)
    for n in (0, 2, 4):
        assert (np.linalg.norm(state.sigmas[n] - want[n])
                <= 1e-12 * np.linalg.norm(want[n]))


def test_spins_of_triple_118_meet_the_oracle():
    """Triple 118 of the sweep below, where cond(Sigma_20) is 6.4e10: the
    spins of ``generate`` are within 1e-8 of the 30-digit recursion of
    ``oracle.spins`` at horizon 20, where the plain recursion misses by
    6.4e-6.  The guards are unchanged: horizon 25 is refused at n = 23."""
    pytest.importorskip("mpmath")
    import oracle

    t = random_admissible_triple(np.random.default_rng(118), 5, 2)
    want = oracle.spins(t, 0.0, 20, True)
    assert max(np.linalg.norm(a - b) for a, b in
               zip(generate(t, 20).spins, want, strict=True)) <= 1e-8
    with pytest.raises(ConditioningError, match=re.escape(
            "cond(Sigma_23) = 2.553e+12 exceeds the limit 1.0e+12")):
        generate(t, 25)


FIXTURES = pathlib.Path(__file__).parent / "data"


@pytest.mark.parametrize("name, n_max", (
    ("verify/example", 15), ("verify/fg4", 15), ("verify/general", 15),
    ("verify/cond30", 15), ("verify/m2", 30), ("verify/m3", 30),
    ("verify/m2", 60), ("verify/m3", 60), ("evolve/fg4", 6),
    ("evolve/norm_drift", 8),
))
def test_closed_form_generate_agrees_with_the_recursion(name, n_max):
    """On every fixture triple that the eigenbasis admits, at its horizon,
    the closed-form spins of ``generate`` are within 100 eps
    max(cond(Sigma_n), cond(Sigma_{n+1})) of those of ``generate_stack``,
    the recursion, whose error that bound allows for."""
    t = serialize.triple_from_obj(serialize.load_json(
        FIXTURES / f"{name}.json"))
    assert t._eigenbasis(DEFAULT) is not None
    want = lattice.generate_stack(t.alpha, t.lambda0[None], t.sigma0[None],
                                  n_max).state(0, t)
    got = generate(t, n_max)
    cond = np.array(want.conditioning)
    bound = 100 * np.finfo(float).eps * np.fmax(cond[:-1], cond[1:])
    assert (linalg.frob_norms(got.spins - want.spins) <= bound).all()


def test_a_start_off_the_identity_fails_alike_on_both_routes(small_triple):
    """Sigma_0 off the structural identity by 5 %: the closed form carries
    the difference by M^n, so its Sigma_n are the recursion's to 1e-14,
    and ``generate`` raises the involution error that ``generate_stack``
    records."""
    rng = np.random.default_rng(7)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    g = linalg.herm(g) / np.linalg.norm(linalg.herm(g))
    t = small_triple
    bad = ParameterTriple(alpha=t.alpha, theta1=t.theta1, theta2=t.theta2,
                          sigma0=t.sigma0 + 0.05 * g * np.linalg.norm(
                              t.sigma0))
    basis = t._eigenbasis(DEFAULT)
    assert basis is not None
    want = lattice.generate_stack(bad.alpha, bad.lambda0[None],
                                  bad.sigma0[None], 12)
    with np.errstate(all="ignore"):
        got = lattice._closed_form_stack(
            basis, (bad.lambda0, bad.sigma0), (basis[2] @ bad.lambda0)[None],
            None, np.ones(1, dtype=bool), 12, DEFAULT, None)
    assert (linalg.frob_norms(got.sigmas - want.sigmas)
            <= 1e-14 * linalg.frob_norms(want.sigmas)).all()
    assert isinstance(want.faults[0], NumericError)
    assert "is not an involution" in str(want.faults[0])
    with pytest.raises(NumericError) as info:
        generate(bad, 12)
    assert str(info.value) == str(want.faults[0])


@pytest.mark.parametrize("command", (
    ["spins"], ["fundamental", "--lambda", "2+0.5i"]))
def test_spins_and_fundamental_take_the_closed_form(routes, command, tmp_path,
                                                    real_mode_triple):
    """No recursion on the m3 fixture, which the eigenbasis admits; one on
    the real-mode triple, whose real eigenvalue it does not."""
    argv = [command[0], str(FIXTURES / "verify" / "m3.json"), "--nmax", "30",
            *command[1:], "-o", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert (len(routes["recur"]), len(routes["closed_form"])) == (0, 1)
    path = tmp_path / "real_mode.json"
    path.write_text(serialize.dumps(serialize._triple_doc(real_mode_triple)))
    argv[1] = str(path)
    assert cli.main(argv) == 0
    assert (len(routes["recur"]), len(routes["closed_form"])) == (1, 1)


def test_verify_keeps_the_recursion(routes, calls):
    """``verify``'s lattice is the recursion, the reference of the closed
    form: one ``generate_stack``, on a triple the eigenbasis admits."""
    stacks = calls(lattice, "generate_stack")
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["verify", str(FIXTURES / "verify" / "m3.json"), "--nmax",
                  "30"])
    assert len(stacks) == 1
    assert len(routes["recur"]) == 1


def test_stack_entries_are_the_states_of_generate(small_triple):
    """Entries of one stacked run equal separate runs of the recursion bit
    for bit, in a stack of horizon 3 and one of horizon 6, and an entry that
    fails a guard records the error that the recursion raises on it alone,
    which ``generate`` raises too."""
    from spinlattice.lattice import generate_stack

    grown = ParameterTriple(alpha=small_triple.alpha,
                            theta1=1e7 * small_triple.theta1,
                            theta2=1e7 * small_triple.theta2,
                            sigma0=1e14 * small_triple.sigma0)

    def alone(t, n_max):
        return generate_stack(t.alpha, t.lambda0[None], t.sigma0[None], n_max)

    triples = (small_triple, grown, small_triple)
    for n_max in (3, 6):
        stack = generate_stack(small_triple.alpha,
                               np.stack([t.lambda0 for t in triples]),
                               np.stack([t.sigma0 for t in triples]), n_max)
        for k in (0, 2):
            want = alone(triples[k], n_max).state(0, triples[k])
            got = stack.state(k, triples[k])
            assert got.n_max == n_max
            for name in ("lambdas", "sigmas", "spins", "sigma_inv_lambdas"):
                assert all((a == b).all() for a, b in zip(
                    getattr(got, name), getattr(want, name), strict=True))
            for name in ("conditioning", "spin_residuals"):
                assert getattr(got, name) == getattr(want, name)
    # the horizon-6 stack, whose entry 1 fails
    assert str(stack.faults[1]) == str(alone(grown, 6).faults[0])
    with pytest.raises(NumericError) as info:
        generate(grown, n_max=6)
    assert str(stack.faults[1]) == str(info.value)
    with pytest.raises(NumericError):
        stack.state(1, grown)


def _assert_backward_stable_solves(state):
    """Each X = sigma_inv_lambdas[n] solves Sigma_n X = Lambda_n backward
    stably: ||Sigma_n X - Lambda_n||_F <= 8 eps (||Sigma_n||_F ||X||_F
    + ||Lambda_n||_F).  A solve through inv(Sigma_n) misses this bound by
    orders of magnitude once cond(Sigma_n) is large."""
    x = state.sigma_inv_lambdas
    residuals = linalg.frob_norms(state.sigmas @ x - state.lambdas)
    scales = (linalg.frob_norms(state.sigmas) * linalg.frob_norms(x)
              + linalg.frob_norms(state.lambdas))
    assert (residuals <= 8 * np.finfo(float).eps * scales).all()


def test_sigma_inv_lambda_is_a_backward_stable_solve():
    """Triple 118 of the sweep below, at horizon 20, where cond(Sigma_20)
    is 6.4e10."""
    t = random_admissible_triple(np.random.default_rng(118), 5, 2)
    _assert_backward_stable_solves(generate(t, 20))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(s=st.integers(0, 119))
def test_sigma_inv_lambda_is_a_backward_stable_solve_on_random_triples(s):
    """Triple s of the sweep of 120: order 1 + s % 6, m = 1 + (s // 6) % 2,
    from default_rng(s), with a general sigma0 when s % 3 == 2."""
    make = (random_general_sigma_triple if s % 3 == 2
            else random_admissible_triple)
    t = make(np.random.default_rng(s), 1 + s % 6, 1 + (s // 6) % 2)
    _assert_backward_stable_solves(generate(t, 15))


def test_a_horizon_beyond_the_stack_budget_is_refused_before_allocating():
    """10**15 sites cannot be allocated: the refusal names the horizon and
    the budget before any array is made."""
    with pytest.raises(InputError, match=r"horizon 1000000000000000 needs "
                       r".* MiB .* budget of 1024 MiB"):
        generate(scalar_example(), 10 ** 15)


def test_stack_budget_counts_the_arrays_of_every_entry(monkeypatch):
    """The scalar triple in closed form, as ``generate`` builds it, needs
    16 (4 * 2 + 7 + 5 * 4) + 64 = 624 bytes per site and entry (Lambda_n,
    Lam', X' and V^{-*} X'; C, Sig', Sigma_n, two temporaries and the M^n
    term with its product; Xi_n, S_n, S_n^2 - I and their temporaries; and
    8 floats): a budget of 11 sites takes horizon 10 and refuses 11.  The
    recursion needs 16 (3 + 2 * 2 + 5 * 4) + 64 = 496 bytes per site and
    entry (Lambda_n and Sigma_n, then Sigma_n^{-1} Lambda_n, the conjugate
    copy of Lambda_n, five 2 x 2 arrays of Xi_n, S_n, S_n^2 - I and their
    temporaries, and 8 floats), 160 per entry for one step and 160 for
    alpha^{-1}, and two stacked entries need twice the bytes."""
    t = scalar_example()
    assert t._eigenbasis(DEFAULT) is not None
    monkeypatch.setattr(lattice, "STACK_BUDGET", 624 * 11)
    assert generate(t, 10).n_max == 10
    with pytest.raises(InputError, match="horizon 11 "):
        generate(t, 11)
    monkeypatch.setattr(lattice, "STACK_BUDGET", 496 * 11 + 160 + 160)
    lam0, sigma0 = t.lambda0[None], t.sigma0[None]
    assert lattice.generate_stack(t.alpha, lam0, sigma0, 10).faults == [None]
    with pytest.raises(InputError, match="horizon 11 "):
        lattice.generate_stack(t.alpha, lam0, sigma0, 11)
    lam0, sigma0 = np.stack([t.lambda0] * 2), np.stack([t.sigma0] * 2)
    with pytest.raises(InputError, match="horizon 5 "):
        lattice.generate_stack(t.alpha, lam0, sigma0, 5)
    assert lattice.generate_stack(t.alpha, lam0, sigma0, 4).faults == [
        None, None]


@settings(max_examples=30, derandomize=True, deadline=None)
@given(order=st.integers(1, 16), m=st.integers(1, 3), derivative=st.booleans(),
       rows=st.integers(1, 3), horizon=st.integers(64, 512))
def test_stack_budget_bounds_the_traced_peak(order, m, derivative, rows,
                                             horizon):
    """At a budget of its tracemalloc peak less one byte, a run is refused:
    the budget counts every array that generate_stack holds at once, with
    and without dS_n/dt.  The horizons have 64 sites or more, where the
    arrays outweigh the few kB of Python objects of a call."""
    t = random_admissible_triple(np.random.default_rng(order + 16 * m), order,
                                 m)
    start = (t.alpha, np.stack([t.lambda0] * rows),
             np.stack([t.sigma0] * rows), horizon)
    resolvents = t._resolvents() if derivative else None
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        lattice.generate_stack(*start, resolvents=resolvents)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattice, "STACK_BUDGET", peak - 1)
        with pytest.raises(InputError, match=f"horizon {horizon} "):
            lattice.generate_stack(*start, resolvents=resolvents)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(order=st.integers(1, 8), m=st.integers(1, 3), rows=st.integers(1, 3),
       horizon=st.integers(64, 256), derivative=st.booleans(),
       kept=st.integers(0, 3))
def test_closed_form_budget_bounds_the_traced_peak(order, m, rows, horizon,
                                                   derivative, kept):
    """The same of the closed-form stack in the eigenbasis of alpha, which
    holds the primed arrays beside those of the original basis, with and
    without dS_n/dt (given the diagonals 1/(d -/+ i) of the resolvents),
    and with up to ``kept`` entries that start from the triple itself;
    traced after a first run, which makes the one-time caches of its
    calls."""
    t = random_admissible_triple(np.random.default_rng(order + 16 * m), order,
                                 m)
    basis = t._eigenbasis(DEFAULT)
    assume(basis is not None)
    lam = np.stack([basis[2] @ t.lambda0] * rows)
    d = basis[0]
    resolvents = (1.0 / (d - 1j), 1.0 / (d + 1j)) if derivative else None
    start = (basis, (t.lambda0, t.sigma0), lam, resolvents,
             np.arange(rows) < kept, horizon, DEFAULT)
    with np.errstate(all="ignore"):
        lattice._closed_form_stack(*start, None)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            lattice._closed_form_stack(*start, None)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattice, "STACK_BUDGET", peak - 1)
        with pytest.raises(InputError, match=f"horizon {horizon} "):
            lattice._closed_form_stack(*start, None)


def test_a_singular_alpha_stops_the_recursion():
    triple = ParameterTriple(alpha=np.diag([0j, 2j]), theta1=[[1.0], [1.0]],
                             theta2=[[1.0], [1.0]])
    with pytest.raises(SingularMatrixError, match="alpha is singular"):
        generate(triple, 3)


def test_stack_budget_counts_one_stage_at_order_10(monkeypatch):
    """Order 10, m = 1: Lambda_n and Sigma_n, then the arrays after the
    loop, 16 (120 + 2 * 20 + 5 * 4) + 64 = 2944 bytes per site; with 16 (4 *
    100 + 3 * 20) = 7360 for one step and 16 (6 * 100 + 4) = 9664 for
    alpha^{-1}, a budget of 11 sites takes horizon 10 and refuses 11."""
    monkeypatch.setattr(lattice, "STACK_BUDGET", 2944 * 11 + 7360 + 9664)
    t = random_admissible_triple(np.random.default_rng(3), 10, 1)
    lam0, sigma0 = t.lambda0[None], t.sigma0[None]
    assert lattice.generate_stack(t.alpha, lam0, sigma0, 10).faults == [None]
    with pytest.raises(InputError, match="horizon 11 "):
        lattice.generate_stack(t.alpha, lam0, sigma0, 11)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(order=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       ns=st.lists(st.integers(0, 64), min_size=1, max_size=12))
def test_lattice_powers_are_numpys_matrix_powers_bit_for_bit(order, seed, ns):
    """One shared squaring ladder gives the bits of one matrix_power per n,
    for n = 0..64 and for any order of the n."""
    t = random_admissible_triple(np.random.default_rng(seed), order, 1)
    a_inv = np.linalg.inv(t.alpha)
    i_n = np.eye(order, dtype=complex)
    for ns_ in (range(65), ns):
        plus, minus = (np.array([np.linalg.matrix_power(base, n) for n in ns_])
                       for base in (i_n + 1j * a_inv, i_n - 1j * a_inv))
        want = np.concatenate([plus @ t.lambda0[:, :1],
                               minus @ t.lambda0[:, 1:]], axis=-1)
        got = lattice._lattice_powers(t.alpha, t.lambda0, ns_)
        assert np.array_equal(got, want)


def _recur_step_by_step(alpha_inv, m, lambdas, sigmas):
    """The recursion as one step per n, each step forming its own Lambda_n J
    Lambda_n*: the reference of ``_recur``."""
    j = signature_matrix(m)
    i_alpha_inv = 1j * alpha_inv
    alpha_inv_adj = alpha_inv.conj().T
    for n in range(lambdas.shape[1] - 1):
        lam, sigma = lambdas[:, n], sigmas[:, n]
        lambdas[:, n + 1] = lam + i_alpha_inv @ lam @ j
        core = sigma + lam @ j @ lattice._h(lam)
        sigma_next = sigma + alpha_inv @ core @ alpha_inv_adj
        sigmas[:, n + 1] = linalg.herm(sigma_next)


def _same_bits(a, b):
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint8), b.view(np.uint8))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(order=st.integers(1, 6), m=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1),
       horizon=st.integers(0, 14), rows=st.integers(1, 3),
       scales=st.lists(st.sampled_from([1.0, 1e7, 1e150]), min_size=3,
                       max_size=3),
       with_derivative=st.booleans())
def test_generate_stack_is_the_step_by_step_recursion(
        order, m, seed, horizon, rows, scales, with_derivative):
    """Every array and every fault of a stack, faulting entries included,
    with and without dS_n/dt, are those of the recursion run one step per
    n."""
    rng = np.random.default_rng(seed)
    t = random_admissible_triple(rng, order, m)
    lam0 = np.stack([scales[i] * (t.lambda0 + rng.standard_normal(
        t.lambda0.shape)) for i in range(rows)])
    sigma0 = np.stack([scales[i] ** 2 * t.sigma0 for i in range(rows)])
    resolvents = t._resolvents() if with_derivative else None

    def run():
        return lattice.generate_stack(t.alpha, lam0, sigma0, horizon,
                                      resolvents=resolvents)

    got = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattice, "_recur", _recur_step_by_step)
        want = run()
    assert got.n_max == want.n_max == horizon
    for name in ("lambdas", "sigmas", "spins", "conditioning",
                 "spin_residuals", "involution_residuals",
                 "sigma_inv_lambdas", "dspins"):
        assert _same_bits(getattr(got, name), getattr(want, name)), name
    assert [(type(e), str(e)) for e in got.faults] == [
        (type(e), str(e)) for e in want.faults]
