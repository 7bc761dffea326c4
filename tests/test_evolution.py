import contextlib
import io
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinlattice import cli, evolution, lattice, linalg, serialize
from spinlattice import (
    ParameterTriple,
    evolve_lambda0,
    evolve_sigma0,
    generate,
    weyl,
    ihm_residual,
    lambda_n_at,
    lax_pair,
    positivity_interval,
    random_admissible_triple,
    random_general_sigma_triple,
    spin_evolution,
    spin_vector,
    triple_at,
    weyl_evolution,
    zero_curvature_residual,
)
from spinlattice.config import DEFAULT
from spinlattice.errors import (ConditioningError, DegeneracyError,
                                DimensionError, InputError, NumericError,
                                SpectrumError, SpinLatticeError)
from spinlattice.triples import signature_matrix
from spinlattice.worked_example import (
    example_triple,
    lambda_closed_form_t,
    phi_closed_form,
    spin_closed_form,
)


@pytest.fixture
def ihm_triple(rng):
    return random_admissible_triple(rng, 3, 1)


def test_lambda_evolution_scalar_family():
    t = example_triple(2.0)
    t1 = t.theta1[0, 0]
    t2 = t.theta2[0, 0]
    for n in (0, 1, 3):
        for tt in (0.0, 0.5, -0.7):
            got = (evolve_lambda0(t, tt) if n == 0
                   else lambda_n_at(t, n, tt))
            want = lambda_closed_form_t(n, tt, 2.0, t1, t2)
            assert np.linalg.norm(got - want) <= 1e-12


def test_identity_holds_along_flow(ihm_triple):
    for tt in (0.0, 0.3, -0.4):
        trip = triple_at(ihm_triple, tt)
        assert trip.identity_residual() <= 1e-9 * max(
            1.0, trip.identity_scale()
        )


def test_sigma_methods_agree(ihm_triple):
    for tt in (0.2, -0.35):
        a = evolve_sigma0(ihm_triple, tt, "sylvester")
        b = evolve_sigma0(ihm_triple, tt, "ode")
        assert np.linalg.norm(a - b) <= 1e-7


@pytest.fixture
def expm_calls(stage_calls):
    """The number of matrices of each stacked scipy.linalg.expm call."""
    return stage_calls["expm"]


@pytest.mark.parametrize("tt", (0.1, 0.35))
def test_ode_route_makes_two_expm_calls(ihm_triple, expm_calls, tt):
    """The half-step propagators are the only matrix exponentials of the
    RK4 route, whatever its step count."""
    evolve_sigma0(ihm_triple, tt, "ode")
    assert sum(expm_calls) == 2


def test_triple_at_makes_no_expm_call(ihm_triple, stage_calls):
    """In the eigenbasis of alpha the time-t triple is elementwise: no
    matrix exponential and no Sylvester solve.  alpha is decomposed once,
    and the triples moved from it share the decomposition."""
    moved = triple_at(ihm_triple, 0.2)
    triple_at(moved, -0.1)
    triple_at(ihm_triple, 0.3)
    assert stage_calls["expm"] == stage_calls["sylvester"] == []
    assert len(stage_calls["eig"]) == 1


def test_the_flow_route_inverts_each_resolvent_once(real_mode_triple, calls):
    """One batch on the flow route inverts alpha - iI and alpha + iI once,
    for Lambda_0(t), the exact flow and the derivatives alike; the next
    batch on the same alpha inverts nothing."""
    inverted = calls(linalg, "inv", lambda m, *args: m.shape)
    times = np.array([0.0, 0.3, -0.5])
    for count in (2, 0):
        inverted.clear()
        *_, faults = evolution._triples_at(real_mode_triple, times, DEFAULT)
        assert faults == [None] * 3
        assert len(inverted) == count


def test_ode_route_converges_at_fourth_order(ihm_triple):
    """Coarse steps keep the RK4 error far above round-off."""
    for tt in (0.4, -0.4):
        exact = evolve_sigma0(ihm_triple, tt, "sylvester")
        coarse, fine = (
            np.linalg.norm(evolve_sigma0(ihm_triple, tt, "ode", rk_step=h) - exact)
            for h in (0.05, 0.025))
        assert np.log2(coarse / fine) >= 3.8


@settings(max_examples=100, derandomize=True, deadline=None)
@given(order=st.integers(1, 6), m=st.integers(1, 3),
       tt=st.floats(-0.4, 0.4), seed=st.integers(0, 2**32 - 1))
def test_sigma_methods_agree_on_random_triples(order, m, tt, seed):
    triple = random_admissible_triple(np.random.default_rng(seed), order, m)
    a = evolve_sigma0(triple, tt, "sylvester")
    b = evolve_sigma0(triple, tt, "ode")
    assert np.linalg.norm(a - b) <= 1e-7


def _relative_gap(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(order=st.integers(1, 8), m=st.integers(1, 3),
       tt=st.floats(-1.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_gramian_matches_sylvester_on_random_triples(order, m, tt, seed):
    triple = random_admissible_triple(np.random.default_rng(seed), order, m)
    assert _relative_gap(evolve_sigma0(triple, tt, "gramian"),
                         evolve_sigma0(triple, tt, "sylvester")) <= 1e-12


def _pad_real_mode(triple, real, rng):
    """The triple with an uncontrollable real eigenvalue ``real`` appended
    and mixed in by a random unitary: FG-tilde, with the same spins."""
    order, m = triple.alpha.shape[0], triple.m
    alpha = np.zeros((order + 1, order + 1), dtype=complex)
    alpha[:order, :order] = triple.alpha
    alpha[order, order] = real
    zeros = np.zeros((1, m))
    u, _ = np.linalg.qr(rng.standard_normal((order + 1, order + 1))
                        + 1j * rng.standard_normal((order + 1, order + 1)))
    return ParameterTriple(alpha=u @ alpha @ u.conj().T,
                           theta1=u @ np.vstack([triple.theta1, zeros]),
                           theta2=u @ np.vstack([triple.theta2, zeros]))


@settings(max_examples=10, derandomize=True, deadline=None)
@given(order=st.integers(1, 5), m=st.integers(1, 3),
       real=st.floats(-5.0, 5.0), seed=st.integers(0, 2**32 - 1))
def test_gramian_matches_rk4_on_real_mode_padded_triples(order, m, real, seed):
    rng = np.random.default_rng(seed)
    triple = _pad_real_mode(random_admissible_triple(rng, order, m), real, rng)
    for tt in (0.3, -0.7, 1.5):
        assert _relative_gap(evolve_sigma0(triple, tt, "gramian"),
                             evolve_sigma0(triple, tt, "ode")) <= 1e-9


@pytest.mark.parametrize("tt", (0.1, 50.0))
def test_gramian_route_makes_three_expm_calls(real_mode_triple, expm_calls, tt):
    """E = e^{-tR} and one Van Loan block per Gramian, whatever t is."""
    evolve_sigma0(real_mode_triple, tt, "gramian")
    assert sum(expm_calls) == 3


@pytest.mark.parametrize("method", ("sylvester", "ode", "gramian"))
@pytest.mark.parametrize("tt", (float("nan"), float("inf"), -float("inf")))
def test_non_finite_time_is_an_error(ihm_triple, method, tt):
    with pytest.raises(SpinLatticeError):
        evolve_sigma0(ihm_triple, tt, method)


@pytest.mark.parametrize("rk_step", (0.0, -1e-3, float("nan"), float("inf")))
def test_bad_rk_step_is_an_error(ihm_triple, rk_step):
    with pytest.raises(SpinLatticeError):
        evolve_sigma0(ihm_triple, 0.1, "ode", rk_step=rk_step)


@pytest.mark.parametrize("evaluate", (
    lambda triple: triple_at(triple, 0.1),
    lambda triple: evolve_lambda0(triple, 0.1),
    lambda triple: evolution.TimeGrid(triple, [0.1], 3).check(),
), ids=("triple_at", "evolve_lambda0", "TimeGrid.check"))
def test_an_eigenvalue_at_i_stops_the_time_evolution(evaluate):
    triple = ParameterTriple(alpha=np.diag([1j, 2j]), theta1=[[1.0], [1.0]],
                             theta2=[[1.0], [1.0]])
    with pytest.raises(SpectrumError,
                       match=re.escape("requires +/-i not in the spectrum")):
        evaluate(triple)


@pytest.mark.parametrize("evaluate, t", ((triple_at, float("nan")),
                                         (evolve_lambda0, float("inf"))))
def test_a_non_finite_time_is_an_input_error(evaluate, t):
    with pytest.raises(InputError, match="time t must be finite"):
        evaluate(example_triple(2), t)


def test_spin_closed_form_in_time():
    t = example_triple(2.0)
    for tt in (0.0, 0.6):
        for n in (0, 1):
            s, vec = spin_evolution(t, n, tt)
            want = spin_closed_form(n, tt, 2.0, t.theta1[0, 0], t.theta2[0, 0])
            assert np.linalg.norm(s - want) <= 1e-11
            assert vec.norm == pytest.approx(1.0, abs=1e-9)


def test_spin_vector_shape_guard():
    with pytest.raises(DimensionError):
        spin_vector(np.eye(4))


def test_spin_vector_degeneracy_guard():
    with pytest.raises(DegeneracyError):
        spin_vector(np.eye(2))


def test_lax_equality_and_traces(ihm_triple):
    for tt in (0.0, 0.25):
        pair = lax_pair(ihm_triple, 1, tt, 2.0 + 0.5j)
        assert pair.equality_plus <= 1e-8
        assert pair.equality_minus <= 1e-8
        assert abs(pair.trace_v_plus - 2.0) <= 1e-9
        assert abs(pair.trace_v_minus - 2.0) <= 1e-9


def test_zero_curvature_with_convergence_order(ihm_triple):
    lam = 2.0 + 0.5j
    assert zero_curvature_residual(ihm_triple, 1, 0.2, lam, h_t=1e-4) <= 1e-6
    coarse = zero_curvature_residual(ihm_triple, 1, 0.2, lam, h_t=1e-2)
    fine = zero_curvature_residual(ihm_triple, 1, 0.2, lam, h_t=5e-3)
    assert np.log2(coarse / fine) >= 1.9


def test_ihm_equation_with_convergence_order(ihm_triple):
    assert ihm_residual(ihm_triple, 1, 0.2, h_t=1e-4) <= 1e-6
    coarse = ihm_residual(ihm_triple, 1, 0.2, h_t=1e-2)
    fine = ihm_residual(ihm_triple, 1, 0.2, h_t=5e-3)
    assert np.log2(coarse / fine) >= 1.9


def test_monodromy(ihm_triple):
    grid = evolution.TimeGrid(ihm_triple, [0.3], 3)
    for n in (0, 1, 2):
        for lam in (2.0 + 0.5j, -1.0 + 2j):
            assert grid.monodromy(0, n, lam) <= 1e-9


def _what_monodromy(transfer, t, n, lam):
    """(||What_{n+1} - G_n What_n||_F, ||What_{n+1}||_F + ||G_n What_n||_F)
    from the normalized family itself, What_n = lam^{-n} W(n, t, lam)
    diag((lam - i)^n e^{2t/(lam - i)} I_m, (lam + i)^n e^{2t/(lam + i)} I_m),
    as the monodromy residual was formed before it read the gap of the
    transfer identity."""
    m = transfer.m

    def what(k):
        d = np.zeros((2 * m, 2 * m), dtype=complex)
        d[:m, :m] = (lam - 1j) ** k * np.exp(2 * t / (lam - 1j)) * np.eye(m)
        d[m:, m:] = (lam + 1j) ** k * np.exp(2 * t / (lam + 1j)) * np.eye(m)
        return lam ** (-k) * transfer.w(k, lam) @ d

    g = np.eye(2 * m) - (1j / lam) * transfer.state.spins[n]
    step, moved = what(n + 1), g @ what(n)
    return (linalg.frob(step - moved),
            linalg.frob(step) + linalg.frob(moved))


@pytest.mark.parametrize("name", ("ihm", "real_mode", "near_defective"))
def test_monodromy_is_the_normalized_family_residual(ihm_triple,
                                                     real_mode_triple,
                                                     near_defective_triple,
                                                     name):
    """TimeGrid.monodromy, the gap of the transfer identity times
    (I - (i/lam)J)^n E(t, lam), is the residual of the normalized family
    What_n within 100 eps of the size of its two terms, at t = 0.2 and
    0.3, sites 0..2 and two points lambda, on the pole residues of W (the
    ihm triple) and its LU route (the real mode and the near-defective
    alpha at delta = 1e-2)."""
    triple = {"ihm": ihm_triple, "real_mode": real_mode_triple,
              "near_defective": near_defective_triple(1e-2)}[name]
    grid = evolution.TimeGrid(triple, [0.2, 0.3], 3)
    for k, t in enumerate((0.2, 0.3)):
        for n in (0, 1, 2):
            for lam in (2.0 + 0.5j, -1.0 + 2j):
                want, size = _what_monodromy(grid._transfer(k), t, n, lam)
                got = grid.monodromy(k, n, lam)
                assert abs(got - want) <= 100 * np.finfo(float).eps * size


@pytest.mark.parametrize("lam", (1j + 1e-12, -1j + 1e-12, 1e-12))
def test_lax_parameter_near_a_pole_is_a_spectrum_error(ihm_triple, lam):
    """G_n has a pole at 0 and F_n at +/-i: lambda within degeneracy_tol of
    one is rejected, not evaluated to NaN or a huge residual."""
    with pytest.raises(SpectrumError):
        zero_curvature_residual(ihm_triple, 1, 0.2, lam)
    with pytest.raises(SpectrumError):
        evolution.TimeGrid(ihm_triple, [0.2], 2).monodromy(0, 1, lam)
    with pytest.raises(SpectrumError):
        lax_pair(ihm_triple, 1, 0.2, lam)


def test_weyl_evolution_formula(ihm_triple):
    for tt in (0.15, -0.25):
        phi_t = weyl_evolution(ihm_triple, tt)
        phi_direct = weyl(triple_at(ihm_triple, tt))
        for lam in (2.0 - 3j, 4.0 + 1j):
            assert np.linalg.norm(phi_t(lam) - phi_direct(lam)) <= 1e-10


def test_weyl_evolution_scalar_family():
    t = example_triple(2.0)
    t1 = t.theta1[0, 0]
    t2 = t.theta2[0, 0]
    for tt in (0.0, 0.8):
        phi_t = weyl_evolution(t, tt)
        for lam in (2.0 + 1.5j, -1.0 - 2j):
            want = phi_closed_form(tt, lam, 2.0, t1, t2)
            assert abs(phi_t(lam)[0, 0] - want) <= 1e-12


def test_positivity_interval(ihm_triple):
    lo, hi = positivity_interval(ihm_triple, t_max=0.5, step=0.1)
    assert lo <= 0.0 <= hi


def test_positivity_interval_marches_from_the_previous_point(
        real_mode_triple, expm_calls, calls):
    """On the flow route each point evolves the last one by one step:
    5 exponentiated matrices per point (2 for Lambda_0, 3 for the Gramian
    solution of the flow), and every call covers one ``step`` of the
    march."""
    evolved = calls(evolution, "_sigma_flow",
                    lambda triple, times: np.abs(times).tolist())
    for t_max, points in ((0.5, 20), (1.0, 40)):
        expm_calls.clear()
        evolved.clear()
        assert positivity_interval(real_mode_triple, t_max=t_max) == (
            -t_max, t_max)
        assert sum(expm_calls) == 5 * points
        assert sum(evolved, []) == [0.05] * points


def _restarted_interval(triple, t_max, step):
    """positivity_interval with every point evolved from t = 0."""
    edges = []
    for sign in (-1.0, 1.0):
        good = 0.0
        for k in range(1, int(np.floor(t_max / step)) + 1):
            try:
                eigs = np.linalg.eigvalsh(triple_at(triple, sign * k * step).sigma0)
            except (SpinLatticeError, np.linalg.LinAlgError):
                break
            if eigs[0] < 1e-10 * max(1.0, eigs[-1]):
                break
            good = sign * k * step
        edges.append(good)
    return tuple(edges)


@pytest.mark.parametrize("seed, edges", (
    (14, (-8.0, 1.2)), (23, (-2.2, 7.6)), (25, (-8.0, 4.2)), (34, (-3.8, 8.0))))
def test_positivity_interval_does_not_depend_on_the_march(seed, edges):
    """The stop is relative to the size of Sigma_0(t), so marching from the
    previous point and restarting from t = 0 find the same edges where
    cond(Sigma_0(t)) nears 1e16."""
    triple = random_admissible_triple(np.random.default_rng(seed),
                                      1 + seed % 4, 1)
    marched = positivity_interval(triple, t_max=8, step=0.2)
    assert marched == _restarted_interval(triple, 8, 0.2)
    assert marched == pytest.approx(edges)


def test_real_spectrum_takes_the_flow_route(real_mode_triple):
    r2 = np.sqrt(2.0)
    for tt in (0.3, -0.5, 1.0):
        for n in (0, 1, 2):
            s, _ = spin_evolution(real_mode_triple, n, tt)
            assert np.linalg.norm(s - spin_closed_form(n, tt, 2.0, r2, r2)) <= 1e-12
    with pytest.raises(SpectrumError):
        evolve_sigma0(real_mode_triple, 0.3, "sylvester")


@pytest.mark.parametrize("tt, rk_step", ((1.0, 1e-310), (101.0, 1e-3)))
def test_rk4_step_count_is_bounded(tt, rk_step):
    with pytest.raises(NumericError):
        evolve_sigma0(example_triple(2.0), tt, "ode", rk_step=rk_step)


def test_flow_route_of_triple_at_is_bounded(real_mode_triple, expm_calls):
    """Far times cost the same fixed expm count as near ones, and the
    result is finite and satisfies the identity."""
    far = triple_at(real_mode_triple, 1e6)
    assert sum(expm_calls) == 5
    assert all(np.isfinite(x).all()
               for x in (far.theta1, far.theta2, far.sigma0))
    assert far.identity_residual() <= 1e-9 * max(1.0, far.identity_scale())


@settings(max_examples=50, derandomize=True, deadline=None)
@given(order=st.integers(1, 5), m=st.integers(1, 2),
       real=st.floats(0.3, 5.0), negative=st.booleans(),
       tt=st.floats(-0.5, 0.5), seed=st.integers(0, 2**32 - 1))
def test_real_mode_padding_keeps_the_spins(order, m, real, negative, tt, seed):
    """An uncontrollable real eigenvalue, mixed in by a unitary, leaves the
    spins unchanged; the padded triple goes through the flow route."""
    rng = np.random.default_rng(seed)
    triple = random_admissible_triple(rng, order, m)
    padded = _pad_real_mode(triple, -real if negative else real, rng)
    got, want = (generate(triple_at(x, tt), 4).spins
                 for x in (padded, triple))
    assert max(np.linalg.norm(a - b) for a, b in zip(got, want)) <= 1e-9


def _same(a, b):
    return all((x == y).all() for x, y in zip(a, b, strict=True))


def _herm(x):
    return (x + x.conj().T) / 2


def _cond(sigma):
    """cond(Sigma) of a Hermitian Sigma from its eigenvalues, as the guards
    form it."""
    w = abs(np.linalg.eigvalsh(sigma))
    return float(w.max() / w.min())


def _per_time_closed_form(triple, t, n_max):
    """The per-time arithmetic of the closed-form grid, on 2-D arrays, one
    site at a time: in the eigenbasis of alpha = V diag(d) V^{-1}, refined
    by ``linalg._refined``, Lam'_0(t) from elementwise exponentials of
    -2t/(d -/+ i) (V^{-1} Lambda_0 at t = 0), Lam'_n from the powers
    (1 +/- i/d)^n, Sig'_n from the Cauchy formula, at t = 0 Sigma_0 itself
    and, at n >= 1, the term M^n o (V^{-1} Sigma_0 V^{-*} - Sig'_0) with
    M_jk = 1 + 1/(d_j conj d_k) added to Sig'_n, S_n from Xi_n, and
    dS_n/dt from the flow at each site on the primed arrays
    (``_per_site_flow``).
    Returns ``_per_time_lattice``'s tuple with dS_n/dt appended, or None
    where the spectrum leaves the open upper half plane or cond(V) exceeds
    EIGENBASIS_COND."""
    a = triple.alpha
    if np.linalg.eigvals(a).imag.min() <= DEFAULT.spec_tol:
        return None
    d, v = np.linalg.eig(a)
    if np.linalg.cond(v) > linalg.EIGENBASIS_COND:
        return None
    d, v = linalg._refined(a, d, v)
    v_inv = np.linalg.solve(v, np.eye(a.shape[0], dtype=complex))
    minus, plus = 1.0 / (d - 1j), 1.0 / (d + 1j)
    r = np.stack([minus, plus], axis=-1)
    lam = np.exp((-2.0 * t) * r) * (v_inv @ triple.lambda0)
    if t == 0:
        lam = v_inv @ triple.lambda0
    gaps = d[:, None] - d.conj()[None, :]
    growth = 1.0 + 1.0 / (d[:, None] * d.conj()[None, :])
    powers = (np.stack([1.0 + 1j / d, 1.0 - 1j / d], axis=-1)
              ** np.arange(n_max + 1)[:, None, None])
    sigma0 = v_inv @ triple.sigma0 @ v_inv.conj().T
    lambdas, sigmas, solved, xi, primed = [], [], [], [], []
    for n in range(n_max + 1):
        lam_n = powers[n] * lam
        sigma = 1j * lam_n @ lam_n.conj().T / gaps
        if t == 0:
            if n == 0:
                gap = sigma0 - sigma
            sigma = sigma + growth ** n * gap
        lambdas.append(v @ lam_n)
        sigmas.append(_herm(v @ sigma @ v.conj().T))
        if n == 0 and t == 0:
            lambdas[0], sigmas[0] = triple.lambda0, triple.sigma0
            sigma = sigma0
        x = np.linalg.solve(sigma, lam_n)
        solved.append(v_inv.conj().T @ x)
        xi.append(lam_n.conj().T @ x)
        primed.append((lam_n, x))
    j = signature_matrix(1)
    spins = [_herm(j + xi[n] - xi[n + 1]) for n in range(n_max)]
    return (lambdas, sigmas, solved,
            [_cond(s) for s in sigmas], spins,
            [float(np.linalg.norm(s @ s - np.eye(2), "fro")) for s in spins],
            [np.array([s[1, 0].real, s[1, 0].imag, s[0, 0].real])
             for s in spins],
            _per_site_flow(minus, plus, d, *zip(*primed)))


def _per_time_schur_triple(triple, t):
    """The time-t triple by the per-time arithmetic that TimeGrid batches
    where the eigenbasis of alpha is not admitted: a 2-D expm per
    propagator, then scipy.linalg.solve_sylvester on the open upper half
    plane, else the Van Loan solution of the Sigma_0 flow with a 2-D expm
    per block."""
    if t == 0:
        return triple
    a = triple.alpha
    i_n = np.eye(a.shape[0], dtype=complex)
    minus, plus = np.linalg.solve(a - 1j * i_n, i_n), np.linalg.solve(
        a + 1j * i_n, i_n)
    lam = np.hstack([scipy.linalg.expm(-2.0 * t * minus) @ triple.theta1,
                     scipy.linalg.expm(-2.0 * t * plus) @ triple.theta2])
    if np.linalg.eigvals(a).imag.min() > DEFAULT.spec_tol:
        sigma = _herm(scipy.linalg.solve_sylvester(
            a, -a.conj().T, 1j * lam @ lam.conj().T))
    else:
        def gramian(g, b):
            n = g.shape[0]
            block = np.zeros((2 * n, 2 * n), dtype=complex)
            block[:n, :n], block[n:, n:] = -g, g.conj().T
            block[:n, n:] = b @ b.conj().T
            f = scipy.linalg.expm(t * block)
            return f[n:, n:].conj().T @ f[:n, n:]

        q = minus @ plus
        e = scipy.linalg.expm(-t * (minus + plus))
        w = (gramian(plus - minus, triple.theta1)
             - gramian(minus - plus, triple.theta2))
        term = q @ a @ _herm(w) @ q.conj().T
        sigma = _herm(e @ (triple.sigma0 - 2.0 * (term + term.conj().T))
                      @ e.conj().T)
    return ParameterTriple(alpha=a, theta1=lam[:, :1], theta2=lam[:, 1:],
                           sigma0=sigma)


def _per_site_flow(minus, plus, alpha, lambdas, solved):
    """dS_n/dt, n < N, from the flow at each site, one site and one product
    at a time: dXi_n = 2 (A + A*), A = (X* Q alpha Lambda_n) J
    (X* Q Lambda_n)* - i X* Q Lambda_n J, X = Sigma_n^{-1} Lambda_n and
    Q = (alpha - iI)^{-1} (alpha + iI)^{-1}, with the resolvents ``minus``,
    ``plus`` and alpha as matrices, or as 1-D diagonals in the eigenbasis
    of alpha."""
    def times(a, b):
        return a[:, None] * b if a.ndim == 1 else a @ b

    j = signature_matrix(1)
    dxi = []
    for lam, x in zip(lambdas, solved, strict=True):
        q_lam = times(minus, times(plus, lam))
        y = x.conj().T @ q_lam
        a = ((x.conj().T @ times(alpha, q_lam)) @ j @ y.conj().T
             - (1j * y) @ j)
        dxi.append(a + a.conj().T)
    return [2.0 * (dxi[n] - dxi[n + 1]) for n in range(len(dxi) - 1)]


def _per_time_lattice(triple, n_max):
    """(Lambda_n, Sigma_n, Sigma_n^{-1} Lambda_n, cond(Sigma_n), S_n,
    ||S_n^2 - I||, spin vectors) by the 2-D recursion, one step and one
    solve at a time."""
    a_inv = np.linalg.solve(triple.alpha, np.eye(triple.order, dtype=complex))
    j = signature_matrix(1)
    lambdas, sigmas = [triple.lambda0], [triple.sigma0]
    for _ in range(n_max):
        lam, sigma = lambdas[-1], sigmas[-1]
        core = sigma + lam @ j @ lam.conj().T
        lambdas.append(lam + 1j * a_inv @ lam @ j)
        sigmas.append(_herm(sigma + a_inv @ core @ a_inv.conj().T))
    solved = [np.linalg.solve(sigma, lam) for lam, sigma in zip(lambdas, sigmas)]
    xi = [lam.conj().T @ x for lam, x in zip(lambdas, solved)]
    spins = [_herm(j + xi[n] - xi[n + 1]) for n in range(n_max)]
    vectors = [np.array([s[1, 0].real, s[1, 0].imag, s[0, 0].real])
               for s in spins]
    return (lambdas, sigmas, solved,
            [_cond(s) for s in sigmas], spins,
            [float(np.linalg.norm(s @ s - np.eye(2), "fro")) for s in spins],
            vectors)


def _per_time_states(triple, t, n_max):
    """``_per_time_lattice``'s tuple at time t, with dS_n/dt appended, by
    the route of the grid: the closed form where the eigenbasis of alpha
    is admitted (``_per_time_closed_form``); else the time-t triple of
    ``_per_time_schur_triple``, the recursion and the flow at each site
    (``_per_site_flow``) with the resolvents of alpha."""
    closed = _per_time_closed_form(triple, t, n_max)
    if closed is not None:
        return closed
    moved = _per_time_schur_triple(triple, t)
    lattice = _per_time_lattice(moved, n_max)
    a = triple.alpha
    i_n = np.eye(a.shape[0], dtype=complex)
    minus = np.linalg.solve(a - 1j * i_n, i_n)
    plus = np.linalg.solve(a + 1j * i_n, i_n)
    return (*lattice, _per_site_flow(minus, plus, a, lattice[0], lattice[2]))


def _per_time_residuals(triple, t, n_max, lam):
    """(dS_n/dt, n < N) and the zero-curvature and IHM residuals at sites
    1..N - 2, each site on its own 2-D matrices and 3-vectors."""
    *_, spins, _, vectors, dspins = _per_time_states(triple, t, n_max)
    i2 = np.eye(2, dtype=complex)

    def g(s):
        return i2 - (1j / lam) * s

    def f(n):
        d = 1.0 + float(np.dot(vectors[n - 1], vectors[n]))
        return ((i2 + spins[n]) @ (i2 + spins[n - 1]) / d / (lam - 1j)
                + (i2 - spins[n]) @ (i2 - spins[n - 1]) / d / (lam + 1j))

    zc, ihm = [], []
    for n in range(1, n_max - 1):
        dg = (-1j / lam) * dspins[n]
        g_mid = g(spins[n])
        zc.append(float(np.linalg.norm(dg - (f(n + 1) @ g_mid - g_mid @ f(n)),
                                       "fro")))
        d_prev, d_next = (1.0 + float(np.dot(vectors[k - 1], vectors[k]))
                          for k in (n, n + 1))
        rhs = 2.0 * np.cross(vectors[n], vectors[n + 1] / d_next
                             + vectors[n - 1] / d_prev)
        ds = dspins[n]
        dvec = np.array([ds[1, 0].real, ds[1, 0].imag, ds[0, 0].real])
        ihm.append(float(np.linalg.norm(dvec - rhs)))
    return dspins, zc, ihm


@settings(max_examples=30, derandomize=True, deadline=None)
@given(order=st.integers(1, 8),
       kind=st.sampled_from(("upper", "general", "real")),
       times=st.lists(st.one_of(st.just(0.0), st.floats(-0.6, 0.6)),
                      min_size=1, max_size=7),
       n_max=st.integers(3, 5), seed=st.integers(0, 2**32 - 1))
def test_time_grid_is_the_per_time_lattice_bit_for_bit(order, kind, times,
                                                       n_max, seed):
    """Both routes of the grid: the closed form in the eigenbasis of
    alpha, for a spectrum in the open upper half plane (class FG, or a
    general sigma0), and the time-t triples and the recursion, for a real
    eigenvalue (the flow).  The stacked states, their time derivatives
    dS_n/dt, the spin vectors and the residual arrays equal those of the
    per-time arithmetic of the route with 2-D matrices throughout, and
    those of the scalar functions; off the closed form the states are
    those of ``generate`` of the time-t triple.  A grid that fails raises
    what the first failing time raises."""
    rng = np.random.default_rng(seed)
    if kind == "general":
        triple = random_general_sigma_triple(rng, order, 1)
    else:
        triple = random_admissible_triple(rng, order, 1)
        if kind == "real":
            triple = _pad_real_mode(triple, 1.5, rng)
    lam = 2.0 + 0.5j
    try:
        grid, zc, ihm = next(evolution.trajectory(triple, times, n_max, lam))
    except SpinLatticeError as exc:
        with pytest.raises(type(exc)):
            for t in times:
                lattice = evolution.TimeGrid(triple, [t], n_max)
                for n in range(1, n_max - 1):
                    lattice.zero_curvature_at(0, n, lam)
                    lattice.ihm_at(0, n)
        return
    closed = _per_time_closed_form(triple, 0.0, n_max) is not None
    for k, t in enumerate(times):
        (lambdas, sigmas, solved, conditioning, spins, spin_residuals,
         vectors, _) = _per_time_states(triple, t, n_max)
        got = grid.state(k)
        assert _same(got.lambdas, lambdas)
        assert _same(got.sigmas, sigmas)
        assert _same(got.sigma_inv_lambdas, solved)
        assert _same(got.spins, spins)
        assert got.conditioning == conditioning
        assert got.spin_residuals == spin_residuals
        if not closed:
            assert _same(got.spins,
                         generate(triple_at(triple, t), n_max).spins)
        assert _same(grid.vectors[k], vectors)
        want_dspins, want_zc, want_ihm = _per_time_residuals(triple, t, n_max,
                                                             lam)
        assert _same(grid.dspins[k], want_dspins)
        assert zc[k].tolist() == want_zc
        assert ihm[k].tolist() == want_ihm
        for n in range(1, n_max - 1):
            assert zc[k, n - 1] == zero_curvature_residual(triple, n, t, lam)
            assert ihm[k, n - 1] == ihm_residual(triple, n, t)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(kind=st.sampled_from(("fg", "general-sigma0", "real-mode")),
       order=st.integers(1, 3), real=st.floats(0.3, 5.0),
       negative=st.booleans(), tt=st.floats(-0.6, 0.6),
       n_max=st.integers(3, 6), seed=st.integers(0, 2**32 - 1))
def test_spin_derivatives_match_the_high_precision_oracle(
        kind, order, real, negative, tt, n_max, seed):
    """dS_n/dt of a TimeGrid, carried along the recursion, agrees with the
    30-digit oracle of tests/oracle.py (the recursion at 30 digits from
    the time-t triples at t +/- 1e-15, differenced) to
    1e-12 max(1, ||dS_n/dt||_F) for |t| <= 0.6 and order <= 4, on the
    Sylvester route and on the flow route (a real eigenvalue)."""
    pytest.importorskip("mpmath")
    import oracle

    rng = np.random.default_rng(seed)
    if kind == "general-sigma0":
        triple = random_general_sigma_triple(rng, order + 1, 1)
    else:
        triple = random_admissible_triple(rng, order + (kind == "fg"), 1)
    if kind == "real-mode":
        triple = _pad_real_mode(triple, -real if negative else real, rng)
    upper = kind != "real-mode"
    grid = evolution.TimeGrid(triple, [tt], n_max)
    grid.check()
    want = oracle.spin_derivatives(triple, tt, n_max, upper)
    for got, exact in zip(grid.dspins[0], want, strict=True):
        gap = np.linalg.norm(got - exact)
        assert gap <= 1e-12 * max(1.0, np.linalg.norm(got))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(kind=st.sampled_from(("fg", "general-sigma0")), order=st.integers(1, 5),
       tt=st.one_of(st.just(0.0), st.floats(-0.6, 0.6)),
       n_max=st.integers(3, 12), seed=st.integers(0, 2**32 - 1))
def test_closed_form_spins_match_the_high_precision_oracle(kind, order, tt,
                                                           n_max, seed):
    """On m = 1 triples whose eigenbasis of alpha is admitted, class FG and
    general sigma0 of order <= 5, the spins of a TimeGrid, formed in
    closed form, agree with those of the 30-digit oracle of tests/oracle.py
    (the recursion at 30 digits from the time-t triple) to
    1e-12 max(1, ||S_n||_F) for |t| <= 0.6 and n_max <= 12."""
    pytest.importorskip("mpmath")
    import oracle

    rng = np.random.default_rng(seed)
    triple = (random_general_sigma_triple if kind == "general-sigma0"
              else random_admissible_triple)(rng, order, 1)
    assert triple._eigenbasis(DEFAULT) is not None
    grid = evolution.TimeGrid(triple, [tt], n_max)
    grid.check()
    want = oracle.spins(triple, tt, n_max, True)
    for got, exact in zip(grid.spins[0], want, strict=True):
        gap = np.linalg.norm(got - exact)
        assert gap <= 1e-12 * max(1.0, np.linalg.norm(got))


@pytest.mark.parametrize("scale", (1.0 + 3e-9, 1.0 - 7e-9, 1.5))
def test_spin_vector_norm_is_that_of_the_three_vector(scale):
    """The norm in the error message is np.linalg.norm of (s1, s2, s3)."""
    s = np.array([[0.6, 0.8], [0.8, -0.6]], dtype=complex) * scale
    norm = np.linalg.norm(np.array([s[1, 0].real, s[1, 0].imag,
                                    s[0, 0].real]))
    with pytest.raises(NumericError,
                       match=re.escape(f"spin vector norm {norm} deviates")):
        spin_vector(s)


def test_lax_pair_builds_one_state(ihm_triple, stage_calls, calls):
    """A grid of one time read only by lax builds the state at t alone:
    one entry of one closed-form stack in the eigenbasis of alpha, with one
    eigendecomposition, no run of the recursion, no time-t triple, and no
    matrix exponential or Sylvester solve."""
    stacks = calls(lattice, "_closed_form_stack",
                   lambda basis, start, lam, resolvents, kept, n_max,
                   *args, **kwargs: (len(lam), n_max))
    recursions = calls(lattice, "_recur")
    batches = calls(evolution, "_sigma0_at")
    lax_pair(ihm_triple, 2, 0.3, 2.0 + 0.5j)
    assert stacks == [(1, 3)]
    assert recursions == batches == []
    assert stage_calls["expm"] == stage_calls["sylvester"] == []
    assert len(stage_calls["eig"]) == 1


@pytest.mark.parametrize("name, closed", (("ihm", 1), ("real_mode", 0),
                                          ("near_defective", 0)))
def test_a_time_grid_picks_its_route_once(ihm_triple, real_mode_triple,
                                          near_defective_triple, calls, name,
                                          closed):
    """One TimeGrid reads the spectrum gate and the eigenbasis of alpha in
    one ``_lambda0`` batch over its times, on each route: the closed form
    (the ihm triple), the Gramian flow (the real mode) and the Schur solve
    (the near-defective alpha at delta = 1e-2)."""
    triple = {"ihm": ihm_triple, "real_mode": real_mode_triple,
              "near_defective": near_defective_triple(1e-2)}[name]
    gates = calls(evolution, "_check_spectrum")
    batches = calls(evolution, "_lambda0",
                    lambda triple, times, tol: times.tolist())
    stacks = calls(lattice, "_closed_form_stack")
    evolution.TimeGrid(triple, [0.0, 0.2, 0.3], 3).check()
    assert len(gates) == 1
    assert batches == [[0.0, 0.2, 0.3]]
    assert len(stacks) == closed


@pytest.mark.parametrize("residual", (
    lambda t: zero_curvature_residual(t, 1, 0.2, 2.0 + 0.5j, h_t=1e-2),
    lambda t: ihm_residual(t, 1, 0.2, h_t=1e-2)),
    ids=("zero_curvature", "ihm"))
@pytest.mark.parametrize("name, stages, exponentials", (
    ("ihm", 0, 0), ("real_mode", 1, 3)))
def test_a_stepped_residual_builds_one_grid(ihm_triple, real_mode_triple,
                                            calls, residual, name, stages,
                                            exponentials):
    """A residual with a step h_t builds one TimeGrid over t, t + h_t and
    t - h_t, in that order: one spectrum gate and one ``_lambda0`` batch.
    In the eigenbasis (the ihm triple) that is all; off it (the real mode)
    one batch of time-t triples, and three ``_expm`` calls, that of
    Lambda_0(t) and the two of its Gramian flow."""
    triple = {"ihm": ihm_triple, "real_mode": real_mode_triple}[name]
    grids = calls(evolution, "TimeGrid",
                  lambda triple, times, *args, **kwargs: list(times))
    gates = calls(evolution, "_check_spectrum")
    batches = calls(evolution, "_lambda0")
    triples = calls(evolution, "_sigma0_at")
    expms = calls(evolution, "_expm")
    assert np.isfinite(residual(triple))
    assert grids == [[0.2, 0.2 + 1e-2, 0.2 - 1e-2]]
    assert (len(gates), len(batches)) == (1, 1)
    assert (len(triples), len(expms)) == (stages, exponentials)


@pytest.mark.parametrize("times, tol, error, message", (
    pytest.param([0.0, -1e6, 1e308], DEFAULT, NumericError, "at t = -1e+06",
                 id="times0--1000000.0"),
    pytest.param([0.5, 1e308, -1e6], DEFAULT, NumericError, "at t = 1e+308",
                 id="times1-1e+308"),
    # the state stage: cond(Sigma_3) = 7.576 at t = 0.5, at most 4.158 at 0
    pytest.param([0.0, 0.5, 1e308], DEFAULT.replace(cond_limit=5.0),
                 ConditioningError, "cond(Sigma_3) = 7.576e+00 exceeds",
                 id="state-conditioning"),
))
def test_time_grid_raises_the_error_of_the_first_failing_time(
        real_mode_triple, times, tol, error, message):
    grid = evolution.TimeGrid(real_mode_triple, times, 3, tol=tol)
    with pytest.raises(error, match=re.escape(message)):
        grid.check()
    # a good time reads as if alone
    assert grid.ihm_at(0, 1) == ihm_residual(real_mode_triple, 1, times[0],
                                             tol=tol)
    with pytest.raises(error, match=re.escape(message)):
        grid.ihm_at(1, 1)


def _grid_reads(grid, k, n_max, lam):
    """Every residual of time k of a TimeGrid, read site by site."""
    return [(grid.ihm_at(k, n), grid.zero_curvature_at(k, n, lam),
             grid.lax(k, n, lam).f.tolist()) for n in range(1, n_max - 1)]


def _outcome(read):
    """``read()``, or the type and message of the SpinLatticeError that it
    raises."""
    try:
        return read()
    except SpinLatticeError as exc:
        return type(exc), str(exc)


@settings(max_examples=40, derandomize=True, deadline=None)
# the limit is the largest cond(Sigma_n) at t = -1: the state at 0 fails it
@example(times=[-1.0, 0.0], n_max=3, pick=0.0)
@given(times=st.lists(st.one_of(st.just(0.0), st.floats(-0.6, 0.6),
                                st.sampled_from((1e6, -1e6, 1e308, -1e308))),
                      min_size=1, max_size=6),
       n_max=st.integers(3, 5),
       pick=st.one_of(st.none(), st.floats(0, 1)))
def test_time_grid_errors_are_those_of_lone_slices_in_grid_order(
        times, n_max, pick):
    """Grids of the real-mode triple that mix good times with hostile ones,
    some with ``cond_limit`` lowered to the largest cond(Sigma_n) of the
    state at one of the times: the states of the times with a larger one
    fail.  ``trajectory`` raises the error, type and message, of lone
    grids of one time read in grid order; each good time of the grid
    reads as a lone one bit for bit; no floating point warning is
    emitted.  A lone grid read site by site meets a bond before the
    tangent of a higher site; the real-mode spins have no vanishing bond,
    so that order and the stage order of the grid agree here."""
    r2 = np.sqrt(2.0)
    triple = ParameterTriple(alpha=np.diag([2j, 3.0]), theta1=[[r2], [0.0]],
                             theta2=[[r2], [0.0]])
    lam = 2.0 + 0.5j

    def lone(t):
        return _grid_reads(evolution.TimeGrid(triple, [t], n_max, tol=tol),
                           0, n_max, lam)

    def evolved():
        (_, zc, ihm), = evolution.trajectory(triple, times, n_max, lam, tol)
        return [list(zip(*rows)) for rows in zip(ihm.tolist(), zc.tolist())]

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tol = DEFAULT
        if pick is not None:
            grid = evolution.TimeGrid(triple, times, n_max)
            reached = grid.stack.conditioning.max(axis=1)
            reached = np.unique(reached[np.isfinite(reached)])
            if reached.size:
                tol = DEFAULT.replace(cond_limit=float(
                    reached[int(pick * (reached.size - 1))]))
        assert _outcome(evolved) == _outcome(
            lambda: [[read[:2] for read in lone(t)] for t in times])
        grid = evolution.TimeGrid(triple, times, n_max, tol=tol)
        for k, t in enumerate(times):
            alone = _outcome(lambda: lone(t))
            if not isinstance(alone, tuple):
                assert _grid_reads(grid, k, n_max, lam) == alone


@pytest.mark.parametrize("t", (1e308, -1e308))
def test_non_finite_exponent_names_t_without_warnings(ihm_triple, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="matrix exponential overflows"):
            triple_at(ihm_triple, t)
        with pytest.raises(NumericError, match="matrix exponential overflows"):
            evolve_sigma0(ihm_triple, t, "gramian")


@pytest.mark.parametrize("n", (0, 2))
def test_time_slice_sites_outside_the_differences_are_rejected(ihm_triple, n):
    lattice = evolution.TimeGrid(ihm_triple, [0.1], 3)
    with pytest.raises(ValueError, match="outside 1..1"):
        lattice.ihm_at(0, n)


PLUS_MINUS_I = re.escape("requires +/-i not in the spectrum of alpha")
GATE_SPECTRA = ((1j, 2j), (2j, 3.0), (0.0, 2j))


def _diagonal_triple(eigenvalues):
    ones = np.ones((len(eigenvalues), 1))
    return ParameterTriple(alpha=np.diag(eigenvalues), theta1=ones,
                           theta2=ones)


@pytest.mark.parametrize("method", ("sylvester", "gramian", "ode"))
@pytest.mark.parametrize("eigenvalues", GATE_SPECTRA)
def test_a_non_finite_time_is_refused_before_the_spectrum(eigenvalues,
                                                          method):
    with pytest.raises(InputError, match="time t must be finite"):
        evolve_sigma0(_diagonal_triple(eigenvalues), float("nan"), method)


def test_spectrum_gate_order():
    """+/-i is refused by every route and by lambda_n_at, which checks the
    spectrum before t and then refuses 0; only the Sylvester route needs
    the open upper half plane."""
    plus_i, real, zero = (_diagonal_triple(e) for e in GATE_SPECTRA)
    for method in ("sylvester", "gramian", "ode"):
        with pytest.raises(SpectrumError, match=PLUS_MINUS_I):
            evolve_sigma0(plus_i, 0.1, method)
    for t in (0.1, float("nan")):
        with pytest.raises(SpectrumError, match=PLUS_MINUS_I):
            lambda_n_at(plus_i, 1, t)
    with pytest.raises(SpectrumError, match="requires alpha invertible"):
        lambda_n_at(zero, 1, 0.1)
    for triple in (real, zero):
        with pytest.raises(SpectrumError, match="sylvester route needs"):
            evolve_sigma0(triple, 0.1, "sylvester")
        for method in ("gramian", "ode"):
            assert np.isfinite(evolve_sigma0(triple, 0.1, method)).all()


def test_time_grid_check_names_the_failing_time(real_mode_triple):
    grid = evolution.TimeGrid(real_mode_triple, [0.0, -5e5, -1e6], 3)
    with pytest.raises(NumericError) as info:
        grid.check()
    assert info.value.time == -5e5


@pytest.mark.parametrize("kind", ("identity", "general"))
def test_sylvester_route_at_t_zero_is_sigma0_itself(rng, kind):
    """evolve_sigma0 reads the time-t triple of triple_at, which at t = 0 is
    the triple: Sigma_0 bit for bit, not a Sylvester solve near it."""
    triple = (random_admissible_triple(rng, 3, 1) if kind == "identity"
              else random_general_sigma_triple(rng, 3, 2))
    sigma = evolve_sigma0(triple, 0.0, "sylvester")
    assert sigma.tobytes() == triple.sigma0.tobytes()
    assert sigma.tobytes() == triple_at(triple, 0.0).sigma0.tobytes()


def test_unknown_sigma_method_is_a_value_error(ihm_triple):
    with pytest.raises(ValueError, match="unknown method 'schur'"):
        evolve_sigma0(ihm_triple, 0.1, "schur")


@settings(max_examples=20, derandomize=True, deadline=None)
@given(kind=st.sampled_from(("fg", "general-sigma0", "real-mode")),
       order=st.integers(1, 3), m=st.integers(1, 2), real=st.floats(-5.0, 5.0),
       tt=st.floats(0.01, 3.0), negative=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_triple_at_matches_the_high_precision_oracle(kind, order, m, real, tt,
                                                     negative, seed):
    """Lambda_0(t) and Sigma_0(t) of triple_at agree with the 30-digit
    oracle of tests/oracle.py to a relative Frobenius error of 1e-12 for
    0.01 <= |t| <= 3 and order <= 4, on the Sylvester route (spectrum of
    alpha in the open upper half plane) and on the flow route (a real
    eigenvalue).  At t = 0 triple_at returns the triple itself."""
    pytest.importorskip("mpmath")
    import oracle

    tt = -tt if negative else tt
    rng = np.random.default_rng(seed)
    if kind == "general-sigma0":
        triple = random_general_sigma_triple(rng, order + 1, m)
    else:
        triple = random_admissible_triple(rng, order + (kind == "fg"), m)
    if kind == "real-mode":
        triple = _pad_real_mode(triple, real, rng)
    upper = triple.spectrum().min_imag_part > DEFAULT.spec_tol
    assert upper == (kind != "real-mode")
    got = triple_at(triple, tt)
    lam, sigma = oracle.triple_at(triple, tt, upper)
    assert _relative_gap(got.lambda0, lam) <= 1e-12
    assert _relative_gap(got.sigma0, sigma) <= 1e-12


def _assert_the_stage_matches_the_oracle(triple, tt):
    """Lambda_0(t), Sigma_0(t) of ``_triples_at`` and the time flow there,
    dLambda_0/dt = -2[(alpha - iI)^{-1} Lambda_0^(1), (alpha + iI)^{-1}
    Lambda_0^(2)] from the cached resolvents and dSigma_0/dt of ``_flow``,
    which ``lattice._dspins`` evaluates at each site, within 1e-12
    relative (Frobenius) of the 30-digit oracle: its time-t triple on the
    open upper half plane, and the central difference of that triple at
    t +/- 1e-15."""
    import oracle

    lam, sigma, faults = evolution._triples_at(triple, np.array([tt]),
                                               DEFAULT)
    assert faults == [None]
    m = triple.m
    minus, plus = triple._resolvents()
    dlam = -2.0 * np.concatenate([minus @ lam[..., :m], plus @ lam[..., m:]],
                                 axis=-1)
    dsigma = evolution._flow(triple)(sigma, lam)
    want = (*oracle.triple_at(triple, tt, True),
            *oracle.triple_derivatives(triple, tt, True))
    for got, exact in zip((lam[0], sigma[0], dlam[0], dsigma[0]), want,
                          strict=True):
        assert _relative_gap(got, exact) <= 1e-12


@settings(max_examples=15, derandomize=True, deadline=None)
@given(kind=st.sampled_from(("fg", "general-sigma0")), order=st.integers(1, 6),
       m=st.integers(1, 2), tt=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
       seed=st.integers(0, 2**32 - 1))
def test_the_eigenbasis_stage_matches_the_high_precision_oracle(
        kind, order, m, tt, seed):
    """On FG and general-sigma0 triples of order <= 6, which the eigenbasis
    of alpha admits, the time-t stage meets the oracle for |t| <= 1, t = 0
    included (``_assert_the_stage_matches_the_oracle``)."""
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(seed)
    triple = (random_general_sigma_triple if kind == "general-sigma0"
              else random_admissible_triple)(rng, order, m)
    assert triple._eigenbasis(DEFAULT) is not None
    _assert_the_stage_matches_the_oracle(triple, tt)


@pytest.mark.parametrize("delta", (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7,
                                   0.0))
def test_a_near_defective_alpha_takes_the_schur_route(delta, stage_calls,
                                                     near_defective_triple):
    """cond(V) grows like 2.1/delta: 21 at delta = 1e-1, 210 at 1e-2, and V
    is singular at 0.  The eigenbasis, whose error grows like cond(V)^2 eps,
    admits delta = 1e-1 alone; the others take the Schur route with its
    matrix exponentials.  Admitted or not, every delta meets the oracle
    bound of ``_assert_the_stage_matches_the_oracle``."""
    pytest.importorskip("mpmath")
    triple = near_defective_triple(delta)
    admitted = triple._eigenbasis(DEFAULT) is not None
    assert admitted == (delta == 1e-1)
    for tt in (0.0, 0.3, -0.7, 1.0):
        _assert_the_stage_matches_the_oracle(triple, tt)
    assert (stage_calls["expm"] == []) == admitted


@pytest.mark.parametrize("tt", (0.0, 0.3, -0.45))
@pytest.mark.parametrize("delta", (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 0.0))
def test_spin_derivatives_on_the_near_defective_family(delta, tt,
                                                       near_defective_triple):
    """Off the eigenbasis, on the Schur stage and the recursion, dS_n/dt of
    a TimeGrid to horizon 8 meets the 30-digit oracle of tests/oracle.py
    with the bound of the derivative property above, 1e-12 max(1,
    ||dS_n/dt||_F), as alpha nears a Jordan block."""
    pytest.importorskip("mpmath")
    import oracle

    triple = near_defective_triple(delta)
    assert triple._eigenbasis(DEFAULT) is None
    grid = evolution.TimeGrid(triple, [tt], 8)
    grid.check()
    want = oracle.spin_derivatives(triple, tt, 8, True)
    for got, exact in zip(grid.dspins[0], want, strict=True):
        gap = np.linalg.norm(got - exact)
        assert gap <= 1e-12 * max(1.0, np.linalg.norm(got))


def test_dspins_is_formed_once_per_time_grid(routes, real_mode_triple,
                                             near_defective_triple):
    """One ``lattice._dspins`` per TimeGrid, on the closed form (the scalar
    example) and on the recursion from the time-t triples (the real-mode
    triple, and the near-defective alpha at delta = 1e-3); the recursion
    carries no tangent arrays."""
    for triple, closed in ((example_triple(2.0), True),
                           (real_mode_triple, False),
                           (near_defective_triple(1e-3), False)):
        assert (triple._eigenbasis(DEFAULT) is not None) == closed
        evolution.TimeGrid(triple, [0.0, 0.3, -0.45], 4).check()
    assert len(routes["dspins"]) == 3
    assert len(routes["closed_form"]) == 1
    assert [len(args) for args in routes["recur"]] == [4, 4]


def test_only_the_time_grid_forms_dspins(routes, tmp_path):
    """``generate`` and the spins command form no dS_n/dt; one verify of an
    m = 1 triple forms it once, in its horizon-3 TimeGrid."""
    path = tmp_path / "example.json"
    path.write_text(serialize.dumps(serialize._triple_doc(example_triple())))
    generate(example_triple(), 8)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["spins", str(path), "--nmax", "8"]) == 0
        assert routes["dspins"] == []
        assert cli.main(["verify", str(path), "--nmax", "8"]) == 0
    assert len(routes["dspins"]) == 1


def _bits(a):
    return a.shape, a.dtype, a.tobytes()


@pytest.mark.parametrize("kind, tt, message", (
    ("real-mode", -1000.0, "sigma0 contains non-finite entries"),
    ("real-mode", 1e308, "matrix exponential overflows at t = 1e+308"),
    ("fg", 1e308, "matrix exponential overflows at t = 1e+308"),
    ("schur", 1e308, "matrix exponential overflows at t = 1e+308"),
))
def test_a_failing_time_keeps_the_triple_and_is_never_read(
        real_mode_triple, small_triple, near_defective_triple, kind, tt,
        message):
    """A time that fails returns Lambda_0 and Sigma_0 bit for bit on every
    route: the flow (the real-mode triple), the eigenbasis (an FG triple)
    and the Schur solve (the near-defective alpha at delta = 1e-2); the
    time beside it in the batch moves.  Its dS_n/dt is never read: in a
    TimeGrid every read of that time raises its error first."""
    triple = {"real-mode": real_mode_triple, "fg": small_triple,
              "schur": near_defective_triple(1e-2)}[kind]
    with np.errstate(all="ignore"):
        lam, sigma, faults = evolution._triples_at(
            triple, np.array([0.3, tt]), DEFAULT)
    assert faults[0] is None
    assert isinstance(faults[1], NumericError)
    assert str(faults[1]) == message
    assert _bits(lam[1]) == _bits(triple.lambda0)
    assert _bits(sigma[1]) == _bits(triple.sigma0)
    assert not np.array_equal(lam[0], triple.lambda0)
    grid = evolution.TimeGrid(triple, [0.3, tt], 3)
    for read in (grid.check, lambda: grid.ihm_at(1, 1),
                 lambda: grid.zero_curvature_at(1, 1, 2.0 + 0.5j)):
        with pytest.raises(NumericError, match=f"^{re.escape(message)}$"):
            read()


def test_time_zero_is_the_triple_on_every_reader():
    """alpha = [[1 + 1e308i]], theta1 = theta2 = [[1e308]]: the eigenbasis
    admits alpha, and C = i Lam0 Lam0* overflows.  The finite checks of
    the time-t stage apply at t != 0 alone, so t = 0 is the triple itself
    with no error, for ``_triples_at`` and ``evolve_sigma0``, and
    ``TimeGrid`` fails it where ``generate`` does; t = 0.5 still fails on
    C."""
    triple = ParameterTriple(alpha=[[1 + 1e308j]], theta1=[[1e308]],
                             theta2=[[1e308]])
    assert triple._eigenbasis(DEFAULT) is not None
    with np.errstate(all="ignore"):
        lam, sigma, faults = evolution._triples_at(
            triple, np.array([0.0, 0.5]), DEFAULT)
    assert faults[0] is None
    assert str(faults[1]) == "C contains non-finite entries"
    assert _bits(lam[0]) == _bits(triple.lambda0)
    assert _bits(sigma[0]) == _bits(triple.sigma0)
    assert _bits(evolve_sigma0(triple, 0.0)) == _bits(triple.sigma0)
    with pytest.raises(NumericError, match="C contains non-finite entries"):
        evolve_sigma0(triple, 0.5)
    with pytest.raises(ConditioningError) as want:
        generate(triple, 3)
    with pytest.raises(ConditioningError) as got:
        evolution.TimeGrid(triple, [0.0], 3).check()
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("tt", (0.0, 0.3, -0.7))
def test_evolve_lambda0_is_the_lambda0_of_triple_at(real_mode_triple,
                                                    small_triple,
                                                    near_defective_triple, tt):
    """Bit for bit on every route, t = 0 included: the eigenbasis (an FG
    triple), the flow (the real-mode triple) and the Schur solve (the
    near-defective alpha at delta = 1e-2)."""
    for triple in (small_triple, real_mode_triple,
                   near_defective_triple(1e-2)):
        assert (_bits(evolve_lambda0(triple, tt))
                == _bits(triple_at(triple, tt).lambda0))


def test_evolve_lambda0_reads_lambda0_alone(real_mode_triple):
    """At t = -1000 Sigma_0(t) of the real-mode triple overflows, so
    ``triple_at`` raises; Lambda_0(t), which does not, is returned."""
    assert np.isfinite(evolve_lambda0(real_mode_triple, -1000.0)).all()
    with pytest.raises(NumericError, match=re.escape(
            "sigma0 contains non-finite entries")):
        triple_at(real_mode_triple, -1000.0)


@pytest.mark.parametrize("tt", (0.0, 0.3, -0.7))
def test_spin_evolution_is_the_spin_of_the_time_grid(real_mode_triple,
                                                     small_triple, tt):
    """One definition of S_n(t): ``spin_evolution`` reads the state of the
    TimeGrid of time t alone, bit for bit, on the closed form in the
    eigenbasis of alpha (an FG triple) and on the recursion from the
    time-t triple (the real-mode triple)."""
    for triple in (small_triple, real_mode_triple):
        grid = evolution.TimeGrid(triple, [tt], 5)
        for n in range(5):
            assert (_bits(spin_evolution(triple, n, tt)[0])
                    == _bits(grid.spins[0, n]))


def test_triple_at_forms_no_derivative(real_mode_triple, calls,
                                       near_defective_triple):
    """The time-t triple is the stage alone: no right-hand side of the flow
    on the flow route (the real-mode triple) or the Schur route (the
    near-defective alpha at delta = 1e-2)."""
    flows = calls(evolution, "_flow")
    for triple in (real_mode_triple, near_defective_triple(1e-2)):
        assert triple._eigenbasis(DEFAULT) is None
        triple_at(triple, 0.3)
    assert flows == []


def test_an_eigenbasis_stage_batch_makes_one_cauchy_quotient(small_triple,
                                                             calls):
    """Sigma'_0(t) alone: one Cauchy quotient per batch of times, and no
    second one for a t-derivative."""
    quotients = calls(lattice, "_cauchy")
    assert small_triple._eigenbasis(DEFAULT) is not None
    *_, faults = evolution._triples_at(small_triple,
                                       np.array([0.0, 0.3, -0.7]), DEFAULT)
    assert faults == [None] * 3
    assert len(quotients) == 1


@pytest.mark.parametrize("gap, mixed", ((0.0, False), (0.0, True),
                                        (1e-9, True)))
def test_close_eigenvalues_keep_their_eigenvectors(gap, mixed):
    """A normal alpha with the eigenvalues 2i and 2i + gap, diagonal or
    mixed in by a unitary: cond(V) = 1, so the eigenbasis admits it, and
    the refinement of ``linalg._refined`` leaves the vectors of a pair
    whose Newton correction, a quotient by the gap, exceeds 1e-3 (0 / 0
    for the diagonal alpha).  The stage meets the oracle bound of
    ``_assert_the_stage_matches_the_oracle``, with no warning."""
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3))
                        + 1j * rng.standard_normal((3, 3)))
    if not mixed:
        u = np.eye(3)
    alpha = u @ np.diag([2j, 2j + gap, 1 + 1.5j]) @ u.conj().T
    theta1, theta2 = rng.standard_normal((2, 3, 2))
    lam = np.hstack([theta1, theta2])
    sigma0 = linalg.herm(linalg.solve_sylvester(
        alpha, alpha.conj().T, 1j * lam @ lam.conj().T))
    triple = ParameterTriple(alpha=alpha, theta1=theta1, theta2=theta2,
                             sigma0=sigma0)
    assert triple._eigenbasis(DEFAULT) is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tt in (0.0, 0.3, -0.7):
            _assert_the_stage_matches_the_oracle(triple, tt)


def test_the_tangent_is_a_stage_after_the_spin_vectors(monkeypatch):
    """+/-i in the spectrum of alpha, where the resolvents that dS_n/dt
    reads do not exist, fails the state at t = 0 as at every other time,
    and no dS_n/dt is formed.  A non-finite dS_n/dt fails its time after
    the state and spin vectors and before the bonds, named by the lowest
    site n; a read of the Lax pair alone does not meet it."""
    r2 = np.sqrt(2.0)
    triple = ParameterTriple(alpha=np.diag([2j, 1j]), theta1=[[r2], [1.0]],
                             theta2=[[r2], [-1.0]])
    grid = evolution.TimeGrid(triple, [0.0], 3)
    for read in (grid.check, lambda: grid.state(0)):
        with pytest.raises(SpectrumError, match=PLUS_MINUS_I):
            read()
    assert np.isnan(grid.dspins).all()

    dspins = lattice._dspins

    def overflowing(*args):
        return np.full_like(dspins(*args), np.inf)

    monkeypatch.setattr(lattice, "_dspins", overflowing)
    grid = evolution.TimeGrid(example_triple(2), [0.0, 0.3], 4)
    with pytest.raises(NumericError, match=re.escape(
            "dS_1/dt contains non-finite entries")) as info:
        grid.check()
    assert info.value.time == 0.0
    assert np.isfinite(grid.lax(1, 2, 2.0 + 0.5j).f).all()


def test_a_vanishing_bond_is_the_stage_after_the_tangent(monkeypatch):
    """With s_2 = -s_1 at t = 0.3, the bond 1 + s_1.s_2 vanishes: it fails
    that time, named by its sites, and ``check`` sets the time; a Lax read
    at site 1, which reads the bond 1 alone, does not meet it.  When dS/dt
    at t = 0.3 is not finite either, a read at site 2 raises dS_2/dt
    first."""
    spin_vectors = evolution._spin_vectors

    def antiparallel(spins, tol):
        vectors, bad, error = spin_vectors(spins, tol)
        vectors = vectors.copy()
        vectors[1, 2] = -vectors[1, 1]
        return vectors, bad, error

    monkeypatch.setattr(evolution, "_spin_vectors", antiparallel)
    grid = evolution.TimeGrid(example_triple(2), [0.0, 0.3], 4)
    bond = grid.bonds[1, 1]
    assert abs(bond) < DEFAULT.degeneracy_tol
    message = f"^{re.escape(f'1 + s_1.s_2 = {bond:.3e} vanishes')}$"
    with pytest.raises(DegeneracyError, match=message) as info:
        grid.check()
    assert info.value.time == 0.3
    assert np.isfinite(grid.lax(1, 1, 2.0 + 0.5j).f).all()
    for read in (lambda: grid.lax(1, 2, 2.0 + 0.5j),
                 lambda: grid.ihm_at(1, 1)):
        with pytest.raises(DegeneracyError, match=message):
            read()

    dspins = lattice._dspins

    def overflowing(*args):
        derivatives = dspins(*args)
        derivatives[1] = np.inf
        return derivatives

    monkeypatch.setattr(lattice, "_dspins", overflowing)
    grid = evolution.TimeGrid(example_triple(2), [0.0, 0.3], 4)
    with pytest.raises(NumericError, match=re.escape(
            "dS_2/dt contains non-finite entries")):
        grid.ihm_at(1, 2)
