import pathlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinlattice import (evolution, ihm_residual, lax_pair, lattice, linalg,
                         random_admissible_triple,
                         random_general_sigma_triple, serialize,
                         summability_diagnostic, triples, weyl,
                         zero_curvature_residual)
from spinlattice.errors import PoleError, SpinLatticeError
from spinlattice.verify import run_checks

LAM = 2.0 + 0.5j


def _public(fn):
    """(value, detail) of one public call, as run_checks reports a raise."""
    try:
        return fn(), ""
    except SpinLatticeError as exc:
        return np.inf, f"{type(exc).__name__}: {exc}"


def _worst(*outcomes):
    """The residual and detail run_checks gives for a check that takes the
    max of these outcomes: the first raise ends the check."""
    worst = 0.0
    for value, detail in outcomes:
        if detail:
            return value, detail
        worst = max(worst, value)
    return worst, ""


def _lax(triple, t):
    pair = lax_pair(triple, 1, t, LAM)
    return max(pair.equality_plus, pair.equality_minus,
               abs(pair.trace_v_plus - 2.0), abs(pair.trace_v_minus - 2.0))


def _summability(triple):
    lam = -2j   # the summability point of run_checks when 2i is no pole
    phi = weyl(triple)(lam)
    report = summability_diagnostic(triple, lam, n_terms=30)
    perturbed = summability_diagnostic(triple, lam, n_terms=30,
                                       phi=phi + 0.1 * np.eye(1))
    return 0.0 if report.is_cauchy and not perturbed.is_cauchy else 1.0


@settings(max_examples=30, derandomize=True, deadline=None)
@given(order=st.integers(1, 6), general=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_shared_context_changes_no_residual(order, general, seed):
    """The checks read one TimeGrid at site 1 of each time, one Weyl
    realization and one horizon-30 Transfer; each residual equals the max
    of the public functions called one by one."""
    rng = np.random.default_rng(seed)
    make = random_general_sigma_triple if general else random_admissible_triple
    triple = make(rng, order, 1)
    try:
        linalg.check_pole(2j, linalg.spectrum(triple.alpha))
    except PoleError:
        assume(False)
    results = {r.name: r for r in run_checks(triple, n_max=15)}
    times = (0.0, 0.2)
    expected = {
        "zero-curvature": _worst(*(_public(
            lambda t=t: zero_curvature_residual(triple, 1, t, LAM))
            for t in times)),
        "ihm-vector-equation": _worst(*(_public(
            lambda t=t: ihm_residual(triple, 1, t)) for t in times)),
        "lax-equality": _worst(*(_public(lambda t=t: _lax(triple, t))
                                 for t in times)),
        "monodromy": _worst(*(_public(
            lambda n=n: evolution.TimeGrid(triple, [0.2], n + 1).monodromy(
                0, n, LAM))
            for n in (0, 1, 2))),
        "summability-dichotomy": _public(lambda: _summability(triple)),
    }
    for name, (residual, detail) in expected.items():
        assert results[name].residual == residual, name
        if detail:
            assert results[name].detail == detail, name


@pytest.mark.parametrize("n_max, states", ((15, 4), (30, 3)))
def test_verify_builds_each_shared_quantity_once(calls, stage_calls, n_max,
                                                 states):
    """States: the one to n_max, one per time of the grid at t = 0 and 0.2,
    and the horizon-30 one unless n_max >= 30, counted as the entries of
    every stacked run of the recursion and of every closed-form stack.
    The time-t triples at t = 0.1 and 0.35 and the grid at t = 0 and 0.2
    come from one eigendecomposition of alpha, with no matrix
    exponential and no Sylvester solve; exponentiated matrices: 3 per
    Gramian flow at t = 0.1 and 0.35, counted as the matrices of every
    stacked expm call."""
    entries = calls(lattice, "generate_stack",
                    lambda alpha, lambda0, sigma0, n_max, *args,
                    **kwargs: len(lambda0))
    closed = calls(lattice, "_closed_form_stack",
                   lambda basis, start, lam, resolvents, kept, n_max,
                   *args, **kwargs: len(lam))
    triple = random_admissible_triple(np.random.default_rng(5), 3, 1)
    results = run_checks(triple, n_max=n_max)
    assert all(np.isfinite(r.residual) for r in results)     # none raised
    assert sum(entries) + sum(closed) == states
    assert sum(stage_calls["expm"]) == 3 * 2
    assert stage_calls["sylvester"] == []
    assert len(stage_calls["eig"]) == 1


def test_verify_solves_each_spectrum_once(spectrum_calls, stage_calls):
    """Eigenvalue solves and 2-norms: the validate report of alpha, which
    the checks, the time-t triples and their Transfers share, and the
    report of gamma of the Weyl realization.  Two more 2-norms, one per
    Krylov staircase of validate.  One eigendecomposition of alpha, which
    the time-t triples share, and no Sylvester solve."""
    triple = random_admissible_triple(np.random.default_rng(5), 3, 1)
    for record in spectrum_calls.values():      # not those of the draw
        record.clear()
    results = run_checks(triple, n_max=15)
    assert all(np.isfinite(r.residual) for r in results)     # none raised
    assert len(spectrum_calls["eigvals"]) == 2
    assert spectrum_calls["norm"].count(2) == 4
    assert len(stage_calls["eig"]) == 1
    assert stage_calls["sylvester"] == []


@pytest.mark.parametrize("n_max", [0, -3])
def test_run_checks_rejects_a_horizon_below_one(small_triple, n_max):
    with pytest.raises(ValueError, match="n_max >= 1"):
        run_checks(small_triple, n_max=n_max)


VERIFY_DATA = pathlib.Path(__file__).parent / "data" / "verify"


@pytest.mark.parametrize("name", ("fg4", "general", "cond30"))
def test_verify_reads_its_summability_lattice_from_generate(name):
    """Below n_max = 30, the summability-dichotomy detail is that of
    ``summability_diagnostic`` at 30 terms, which builds its lattice with
    ``generate``: the column identity residual on fg4 and general, and the
    guard that refuses cond30 at n = 29."""
    triple = serialize.triple_from_obj(serialize.load_json(
        VERIFY_DATA / f"{name}.json"))
    lam = -2j   # the summability point of run_checks when 2i is no pole
    try:
        report = summability_diagnostic(triple, lam, n_terms=30)
        perturbed = summability_diagnostic(
            triple, lam, n_terms=30,
            phi=weyl(triple)(lam) + 0.1 * np.eye(triple.m))
        want = (f"cauchy={report.is_cauchy}, "
                f"perturbed_cauchy={perturbed.is_cauchy}, "
                f"column_identity_residual="
                f"{report.column_identity_residual:.3e}")
    except SpinLatticeError as exc:
        want = f"{type(exc).__name__}: {exc}"
    results = {r.name: r for r in run_checks(triple, n_max=15)}
    assert results["summability-dichotomy"].detail == want


@pytest.mark.parametrize("n_max, state_horizons", ((15, [15, 30]),
                                                   (30, [30])))
def test_verify_batches_its_shared_work(calls, n_max, state_horizons):
    """One verify of an m = 1 triple with its spectrum in the open upper
    half plane: one validate; one batch of time-t triples, for t = 0.1,
    0.35; one recursion of one entry for the state to n_max; one
    closed-form stack of two entries for the horizon-3 time grid at t = 0,
    0.2, with dS_n/dt; and below n_max = 30, one closed-form stack of one
    entry for the horizon-30 state of ``generate``.  Stacks are recorded as
    (entries, horizon).  A general sigma0 adds nothing: the closed form
    reads the state's Lambda_n, and the normalized Weyl realization is
    built without a second validate."""

    def size(triple, times, *args, **kwargs):
        return times.size

    batches = {
        "_triples_at": calls(evolution, "_triples_at", size),
        "_sigma_flow": calls(evolution, "_sigma_flow", size),
        "generate_stack": calls(
            lattice, "generate_stack",
            lambda alpha, lambda0, sigma0, n_max, *args, **kwargs: (
                len(lambda0), n_max)),
        "_closed_form_stack": calls(
            lattice, "_closed_form_stack",
            lambda basis, start, lam, resolvents, kept, n_max, *args,
            **kwargs: (len(lam), n_max)),
        "validate": calls(triples, "validate",
                          lambda triple, *args, **kwargs: triple.order)}
    for triple in (random_admissible_triple(np.random.default_rng(5), 3, 1),
                   random_general_sigma_triple(np.random.default_rng(7), 3,
                                               1)):
        for record in batches.values():
            record.clear()
        results = run_checks(triple, n_max=n_max)
        assert all(np.isfinite(r.residual) for r in results)  # none raised
        assert batches == {"_triples_at": [2], "_sigma_flow": [2],
                           "generate_stack": [(1, state_horizons[0])],
                           "_closed_form_stack": [(2, 3)] + [
                               (1, h) for h in state_horizons[1:]],
                           "validate": [3]}


def test_verify_of_a_real_mode_triple_batches_its_two_stages(
        real_mode_triple, calls):
    """Off the eigenbasis the time grid and the two evolution-* checks read
    one batch of time-t triples each: the grid times, whose t-derivatives
    the recursion reads, and the times of the evolution-* checks, with no
    derivative."""
    batches = calls(evolution, "_sigma0_at",
                    lambda triple, times, *args: times.tolist())
    results = run_checks(real_mode_triple, n_max=8)
    assert all(np.isfinite(r.residual) for r in results)     # none raised
    assert sorted(batches) == [[0.0, 0.2], [0.1, 0.35]]


@pytest.mark.parametrize("order, m, count", ((3, 1, 23), (4, 2, 17)))
def test_check_names_are_the_names_run_checks_reports(order, m, count):
    triple = random_admissible_triple(np.random.default_rng(order), order, m)
    names = [r.name for r in run_checks(triple, n_max=4)]
    assert len(names) == count
    assert names == sorted(set(names))


def test_an_eigenvalue_near_i_keeps_the_time_derivative_checks():
    """random_admissible_triple(default_rng(48), 1, 1) has the eigenvalue
    0.229 + 0.983i near i.  Central differences in t of step 1e-4 put its
    zero-curvature and IHM residuals at 1.3e-6 and 1.9e-6, beyond their
    threshold 1e-6; the exact derivatives put them at round-off.  Every
    other check passes too, save summability-dichotomy, whose fixed
    30-term horizon crosses the overflow guard at ||Sigma_25||."""
    triple = random_admissible_triple(np.random.default_rng(48), 1, 1)
    results = {r.name: r for r in run_checks(triple)}
    assert len(results) == 23
    for name in ("zero-curvature", "ihm-vector-equation"):
        assert results[name].residual <= 1e-12, name
    assert all(r.passed for name, r in results.items()
               if name != "summability-dichotomy")
