import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlattice import evolution
from spinlattice import (
    ParameterTriple,
    evolve_lambda0,
    evolve_sigma0,
    weyl,
    ihm_residual,
    lambda_n_at,
    lax_pair,
    monodromy_residual,
    positivity_interval,
    random_admissible_triple,
    spin_evolution,
    spin_vector,
    state_at,
    triple_at,
    weyl_evolution,
    zero_curvature_residual,
)
from spinlattice.errors import (DegeneracyError, DimensionError, NumericError,
                                SpectrumError, SpinLatticeError)
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
def expm_calls(monkeypatch):
    """Counts the scipy.linalg.expm calls made through evolution."""
    calls = []
    expm = evolution.scipy.linalg.expm

    def counted(a):
        calls.append(a.shape)
        return expm(a)

    monkeypatch.setattr(evolution.scipy.linalg, "expm", counted)
    return calls


@pytest.mark.parametrize("tt", (0.1, 0.35))
def test_ode_route_makes_two_expm_calls(ihm_triple, expm_calls, tt):
    """The half-step propagators are the only matrix exponentials of the
    RK4 route, whatever its step count."""
    evolve_sigma0(ihm_triple, tt, "ode")
    assert len(expm_calls) == 2


def test_triple_at_makes_two_expm_calls(ihm_triple, expm_calls):
    """Lambda_0(t) is computed once and reused by the Sylvester route."""
    triple_at(ihm_triple, 0.2)
    assert len(expm_calls) == 2


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
    assert len(expm_calls) == 3


@pytest.mark.parametrize("method", ("sylvester", "ode", "gramian"))
@pytest.mark.parametrize("tt", (float("nan"), float("inf"), -float("inf")))
def test_non_finite_time_is_an_error(ihm_triple, method, tt):
    with pytest.raises(SpinLatticeError):
        evolve_sigma0(ihm_triple, tt, method)


@pytest.mark.parametrize("rk_step", (0.0, -1e-3, float("nan"), float("inf")))
def test_bad_rk_step_is_an_error(ihm_triple, rk_step):
    with pytest.raises(SpinLatticeError):
        evolve_sigma0(ihm_triple, 0.1, "ode", rk_step=rk_step)


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
    for n in (0, 1, 2):
        for lam in (2.0 + 0.5j, -1.0 + 2j):
            assert monodromy_residual(ihm_triple, n, 0.3, lam) <= 1e-9


@pytest.mark.parametrize("lam", (1j + 1e-12, -1j + 1e-12, 1e-12))
def test_lax_parameter_near_a_pole_is_a_spectrum_error(ihm_triple, lam):
    """G_n has a pole at 0 and F_n at +/-i: lambda within degeneracy_tol of
    one is rejected, not evaluated to NaN or a huge residual."""
    with pytest.raises(SpectrumError):
        zero_curvature_residual(ihm_triple, 1, 0.2, lam)
    with pytest.raises(SpectrumError):
        monodromy_residual(ihm_triple, 1, 0.2, lam)
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
        real_mode_triple, expm_calls, monkeypatch):
    """On the flow route each point evolves the last one by one step:
    5 expm calls per point (2 for Lambda_0, 3 for the Gramian solution of
    the flow), and every call covers one ``step`` of the march."""
    evolved = []
    sigma_flow = evolution._sigma_flow

    def recorded(triple, t):
        evolved.append(abs(t))
        return sigma_flow(triple, t)

    monkeypatch.setattr(evolution, "_sigma_flow", recorded)
    for t_max, points in ((0.5, 20), (1.0, 40)):
        expm_calls.clear()
        evolved.clear()
        assert positivity_interval(real_mode_triple, t_max=t_max) == (
            -t_max, t_max)
        assert len(expm_calls) == 5 * points
        assert evolved == [0.05] * points


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
    assert len(expm_calls) == 5
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
    got, want = (state_at(x, tt, 4).spins for x in (padded, triple))
    assert max(np.linalg.norm(a - b) for a, b in zip(got, want)) <= 1e-9
