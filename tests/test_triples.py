import numpy as np
import pytest

from spinlattice import (
    ParameterTriple,
    Realization,
    TripleClass,
    generate,
    normalize_sigma0,
    pad_triple,
    random_admissible_triple,
    random_general_sigma_triple,
    reduce_triple,
    signature_matrix,
    validate,
)
from spinlattice.config import DEFAULT
from spinlattice.errors import DimensionError


def test_signature_matrix():
    j = signature_matrix(2)
    assert np.allclose(j @ j, np.eye(4))
    assert np.trace(j) == 0


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        ParameterTriple(
            alpha=np.eye(2, dtype=complex),
            theta1=np.ones((3, 1), dtype=complex),
            theta2=np.ones((2, 1), dtype=complex),
        )


@pytest.mark.parametrize("build, kwargs", (
    (ParameterTriple, dict(alpha=[[2j]], theta1=np.zeros((1, 0)),
                           theta2=np.zeros((1, 0)))),
    (ParameterTriple, dict(alpha=np.zeros((0, 0)), theta1=np.zeros((0, 1)),
                           theta2=np.zeros((0, 1)))),
    (Realization, dict(gamma=[[2j]], vartheta1=np.zeros((1, 0)),
                       vartheta2=np.zeros((1, 0)))),
    (Realization, dict(gamma=np.zeros((0, 0)), vartheta1=np.zeros((0, 1)),
                       vartheta2=np.zeros((0, 1)))),
), ids=("triple-m0", "triple-n0", "realization-m0", "realization-n0"))
def test_empty_triples_and_realizations_are_refused(build, kwargs):
    """N >= 1 and m >= 1 when built, before an empty block can reach a
    lattice or Transfer, which cannot reshape it."""
    with pytest.raises(DimensionError, match="N >= 1 and m >= 1"):
        build(**kwargs)


def test_spectrum_report_is_kept_per_tolerances():
    """alpha = i(1 + 1e-6) lies within spec_tol of i for the loose table
    only.  One triple validated under both tables, in either order, reports
    what a fresh triple reports under each."""
    h = 1.0 + 1e-6

    def scalar():
        return ParameterTriple(alpha=[[1j * h]], theta1=[[np.sqrt(h)]],
                               theta2=[[np.sqrt(h)]])

    def fields(report):
        spec = report.spectrum
        return (report.triple_class, spec.eigenvalues.tolist(),
                spec.min_imag_part, spec.contains_plus_i,
                spec.contains_minus_i, spec.contains_zero, spec.norm,
                spec.scale)

    tight, loose = DEFAULT, DEFAULT.replace(spec_tol=1e-4)
    assert scalar().spectrum(loose).contains_plus_i
    assert not scalar().spectrum(tight).contains_plus_i
    for order in ((tight, loose), (loose, tight)):
        triple = scalar()
        for tol in order:
            assert fields(validate(triple, tol)) == fields(
                validate(scalar(), tol))


def test_random_triple_is_fg(rng):
    for _ in range(5):
        t = random_admissible_triple(rng, 4, 2)
        rep = validate(t)
        assert rep.triple_class is TripleClass.FG
        assert rep.identity_ok
        assert rep.spectrum.min_imag_part > 0


def test_identity_violation_is_invalid():
    t = ParameterTriple(
        alpha=np.array([[1.0 + 0.0j]]),
        theta1=np.array([[1.0]], dtype=complex),
        theta2=np.array([[1.0]], dtype=complex),
    )
    assert validate(t).triple_class is TripleClass.INVALID


def test_alpha_i_theta1_zero_not_fg():
    # scalar alpha = i with theta1 = 0 satisfies the identity with
    # |theta2|^2 = 2 but is not full range in the first factor
    t = ParameterTriple(
        alpha=np.array([[1j]]),
        theta1=np.array([[0.0]], dtype=complex),
        theta2=np.array([[np.sqrt(2)]], dtype=complex),
    )
    rep = validate(t)
    assert rep.identity_ok
    assert rep.triple_class is not TripleClass.FG
    assert not rep.theta1_full_range


def test_normalize_sigma0_preserves_spins(rng):
    t = random_general_sigma_triple(rng, 3, 1)
    assert not t.sigma0_is_identity()
    tn = normalize_sigma0(t)
    assert tn.sigma0_is_identity()
    s_raw = generate(t, 8).spins
    s_norm = generate(tn, 8).spins
    worst = max(np.linalg.norm(a - b) for a, b in zip(s_raw, s_norm))
    assert worst <= 1e-9


def test_normalize_sigma0_takes_both_roots_from_one_eigh(rng, eigh_calls):
    t = random_general_sigma_triple(rng, 3, 2)
    eigh_calls.clear()
    normalize_sigma0(t)
    assert eigh_calls == [(3, 3)]


@pytest.mark.parametrize("which", ["theta1", "theta2"])
def test_pad_then_reduce_roundtrip(rng, which):
    base = random_admissible_triple(rng, 3, 1)
    padded = pad_triple(base, rng, 2, which=which)
    rep = validate(padded)
    assert rep.identity_ok
    assert not (rep.theta1_full_range and rep.theta2_full_range)
    reduced = reduce_triple(padded, which=which)
    assert reduced.order == base.order
    s_padded = generate(padded, 11).spins
    s_reduced = generate(reduced, 11).spins
    worst = max(np.linalg.norm(a - b) for a, b in zip(s_padded, s_reduced))
    assert worst <= 1e-10


def test_reduce_full_range_is_identity(rng):
    t = random_admissible_triple(rng, 3, 1)
    assert reduce_triple(t, "theta2") is t
