import numpy as np
import pytest

from spinlattice import (
    ParameterTriple,
    Transfer,
    block_decomposition,
    generate,
    lambda_grid,
    normalize_sigma0,
    random_admissible_triple,
    random_general_sigma_triple,
    summability_diagnostic,
    weyl,
)
from spinlattice.errors import AdmissibilityError, PoleError


def test_scalar_closed_form():
    t = ParameterTriple(
        alpha=np.array([[2j]]),
        theta1=np.array([[np.sqrt(2)]], dtype=complex),
        theta2=np.array([[np.sqrt(2)]], dtype=complex),
    )
    phi = weyl(t)
    for lam in (3.0, 2.0 - 1j, -1.0 + 4j):
        assert phi(lam)[0, 0] == pytest.approx(2j / lam)


def test_matches_block_ratio(small_triple):
    phi = weyl(small_triple)
    transfer = Transfer(generate(small_triple, 0))
    m = small_triple.m
    for lam in lambda_grid(small_triple.alpha, count=10):
        blocks = block_decomposition(small_triple, lam)
        ratio = blocks.b @ np.linalg.inv(blocks.d)
        assert np.linalg.norm(phi(lam) - ratio) <= 1e-10
        w0 = transfer.w(0, lam)
        assert np.allclose(w0[:m, m:], blocks.b)


def test_general_sigma_agrees_with_normalized(rng):
    t = random_general_sigma_triple(rng, 3, 2)
    phi = weyl(t)
    phi_norm = weyl(normalize_sigma0(t))
    for lam in lambda_grid(t.alpha, count=6):
        assert np.linalg.norm(phi(lam) - phi_norm(lam)) <= 1e-10


def test_rejects_invalid_triple():
    t = ParameterTriple(
        alpha=np.array([[1.0 + 0j]]),
        theta1=np.array([[1.0]], dtype=complex),
        theta2=np.array([[1.0]], dtype=complex),
    )
    with pytest.raises(AdmissibilityError):
        weyl(t)


def test_pole_detection(small_triple):
    phi = weyl(small_triple)
    pole = np.linalg.eigvals(phi.gamma)[0]
    with pytest.raises(PoleError):
        phi(pole)


def test_summability_dichotomy(rng):
    for _ in range(3):
        t = random_admissible_triple(rng, 3, 1)
        report = summability_diagnostic(t, -2j, n_terms=30)
        assert report.is_cauchy
        assert report.column_identity_residual <= 1e-9
        perturbed = summability_diagnostic(
            t, -2j, n_terms=30,
            phi=weyl(t)(-2j) + 0.1 * np.eye(t.m),
        )
        assert not perturbed.is_cauchy


def test_summability_needs_lower_half_plane(small_triple):
    with pytest.raises(PoleError):
        summability_diagnostic(small_triple, 2.0 + 1j)


def test_lambda_grid_avoids_spectrum(small_triple):
    eigs = np.linalg.eigvals(small_triple.alpha)
    for lam in lambda_grid(small_triple.alpha, count=16):
        assert np.min(np.abs(eigs - lam)) > 1e-8
