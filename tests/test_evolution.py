import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlattice import evolution
from spinlattice import (
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
    triple_at,
    weyl_evolution,
    zero_curvature_residual,
)
from spinlattice.errors import (DegeneracyError, DimensionError,
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


@pytest.mark.parametrize("method", ("sylvester", "ode"))
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
