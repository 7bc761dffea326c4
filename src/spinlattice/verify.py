"""Named invariant checks over a single triple.

Every structural identity of the library is exposed here as a named check
returning a residual and a pass flag, so external tooling can consume one
stable list.  Check names are stable API; output is sorted by name.
"""

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import evolution, lattice, linalg
from .config import DEFAULT, Tolerances
from .errors import AdmissibilityError, PoleError, SpinLatticeError
from .transfer import Transfer, _h
from .triples import (ParameterTriple, TripleClass, _identity_residuals,
                      normalize_sigma0, validate)
from .weyl import _lambda_grid, _realization, _summability

__all__ = ["CheckResult", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    threshold: float
    detail: str = ""


_LAMBDA_COUNT = 8
# not --nmax: at 15 terms the true phi's series fails the Cauchy test on
# each of 120 random triples of orders 1-6, m = 1, 2; at 30 terms 105 pass
# and the lattice guards refuse the other 15
_SUMMABILITY_TERMS = 30
_GRID_TIMES = (0.0, 0.2)    # times of the Lax, zero-curvature, IHM checks
_TRIPLE_TIMES = (0.1, 0.35)  # times of the two evolution-* checks


def _worst(values):
    """The largest of ``values`` and 0, NaN skipped: the max of a loop
    ``worst = max(worst, value)`` from worst = 0."""
    return float(np.fmax.reduce(values, axis=None, initial=0.0))


class _Context:
    """What the checks read, each built once.  One recursion runs to
    horizon n_max, the reference state; the per-n checks read its rows at
    once.  On first use: the Weyl realization, the Transfer of horizon 30
    (of ``generate`` when n_max is below it), one horizon-3 TimeGrid over
    _GRID_TIMES, read at site 1 of each time (as the grid of one that the
    public residual functions build), and the time-t triples at
    _TRIPLE_TIMES as one batch of the time-t stage, (Lambda_0(t),
    Sigma_0(t), faults) (``evolution._triples_at``).
    ``spectrum`` is the report of alpha that validate made."""

    def __init__(self, triple, n_max, tol):
        self.triple = triple
        self.tol = tol
        self.n_max = n_max
        self.spectrum = triple.spectrum(tol)
        self.stack = lattice.generate_stack(triple.alpha, triple.lambda0[None],
                                            triple.sigma0[None], n_max, tol)
        self.state = self.stack.state(0, triple)    # raises what generate does
        self.transfer = Transfer(self.state, tol)
        self.grid = _lambda_grid(self.spectrum, count=_LAMBDA_COUNT, tol=tol)
        scale = 1.0 + self.spectrum.norm
        # lower half plane sample points for the contractivity check
        self.lower_grid = [
            scale * np.exp(-1j * np.pi * (k + 0.5) / _LAMBDA_COUNT)
            for k in range(_LAMBDA_COUNT)
        ]
        self.sites = range(min(n_max - 1, 10) + 1)

    @cached_property
    def time_grid(self):
        return evolution.TimeGrid(self.triple, _GRID_TIMES, 3, tol=self.tol)

    @cached_property
    def stage(self):
        return evolution._triples_at(self.triple, np.array(_TRIPLE_TIMES),
                                     self.tol)

    @cached_property
    def weyl(self):
        # run_checks has validated the triple: weyl() without its validate
        return _realization(self.triple)

    @cached_property
    def phi_grid(self):
        return self.weyl.grid(self.grid, self.tol)

    @cached_property
    def summability_transfer(self):
        if self.n_max >= _SUMMABILITY_TERMS:
            return self.transfer
        return Transfer(lattice.generate(self.triple, _SUMMABILITY_TERMS,
                                         self.tol), self.tol)


def _identity_propagation(ctx):
    a, sig = ctx.triple.alpha, ctx.state.sigmas
    scale = np.fmax(1.0, linalg.frob_norms(sig) * linalg.frob(a))
    return _worst(_identity_residuals(a, sig, ctx.state.lambdas) / scale), 1e-9


def _sigma_positivity(ctx):
    min_eig = float(np.linalg.eigvalsh(ctx.state.sigmas)[:, 0].min())
    return max(0.0, -min_eig), 0.0, f"min eigenvalue {min_eig:.3e}"


def _spin_involution(ctx):
    # the ratio that generate_stack refuses above the same threshold
    return (_worst(ctx.stack.involution_residuals[0]),
            lattice._involution_limit(ctx.tol))


def _spin_hermitian(ctx):
    spins = ctx.state.spins
    return _worst(linalg.frob_norms(spins - _h(spins))), 1e-10


def _closed_form(ctx):
    lambdas = ctx.state.lambdas
    closed = lattice._lattice_powers(ctx.triple.alpha, ctx.triple.lambda0,
                                     range(ctx.n_max + 1))
    return _worst(linalg.frob_norms(closed - lambdas)
                  / np.fmax(1.0, linalg.frob_norms(lambdas))), 1e-11 * 100


def _transfer_identity(ctx):
    return ctx.transfer.identity_residuals(ctx.sites, ctx.grid).max(), 1e-9


def _k_residual(ctx):
    n = np.array(ctx.sites)
    state = ctx.state
    y = state.sigma_inv_lambdas
    k = lattice._k(ctx.triple.alpha, _h(y[n]), _h(y[n + 1]), state.spins[n])
    scale = np.fmax(1.0, linalg.frob_norms(state.lambdas[n])
                    * ctx.stack.conditioning[0, n])
    return _worst(linalg.frob_norms(k) / scale), 1e-9


def _inverse_product(ctx):
    return ctx.transfer.unitarity_residuals(ctx.sites, ctx.grid).max(), 1e-9


def _two_point(ctx):
    return ctx.transfer.gram_identity_residuals(ctx.sites, ctx.grid).max(), 1e-9


def _contractivity(ctx):
    gram = ctx.transfer.contractivity_gram(ctx.sites, ctx.lower_grid)
    return max(0.0, np.linalg.eigvalsh(gram)[..., -1].max()), 1e-9


def _fundamental_recursion(ctx):
    return ctx.transfer.recursion_residuals(ctx.sites, ctx.grid).max(), 1e-9


def _rank_structure(ctx):
    m = ctx.triple.m
    signs = np.array([1.0, -1.0])[:, None, None, None]
    sv = np.linalg.svd(np.eye(2 * m) + signs * ctx.state.spins,
                       compute_uv=False)
    return _worst(sv[..., m]), 1e-8


def _factorizations(ctx):
    res = ctx.transfer.factorization_residual_arrays(ctx.sites)
    return max(r.max() for r in res.values()), 1e-9


def _monotone(ctx):
    # residuals scaled by ||R_{n+1}|| (resp. Q): the sequences grow
    # geometrically and absolute eigenvalue noise grows with them
    diag = lattice.monotone_diagnostics(ctx.state, ctx.tol)
    ratios = []
    if diag.r_sequence is not None:
        scale = np.fmax(1.0, diag.r_scales)
        ratios += [-np.array(diag.r_increments_min_eig) / scale,
                   np.array(diag.r_cross_residuals) / scale]
    if diag.q_sequence is not None:
        scale = np.fmax(1.0, diag.q_scales)
        ratios += [np.array(diag.q_increments_max_eig) / scale,
                   np.array(diag.q_cross_residuals) / scale]
    return _worst(np.concatenate(ratios)), 1e-10


def _weyl_ratio(ctx):
    m = ctx.triple.m
    w0 = ctx.transfer.w_grid(ctx.grid)[0]
    phi = ctx.phi_grid
    identity = np.broadcast_to(np.eye(m, dtype=complex), phi.shape)
    d_inv = linalg.solve(w0[:, m:, m:], identity)
    return linalg.frob_norms(phi - w0[:, :m, m:] @ d_inv).max(), 1e-10


def _weyl_normalized(ctx):
    # normalizing keeps the class that run_checks validated; sigma0 = I
    # leaves the same realization, evaluated once
    normalized = normalize_sigma0(ctx.triple, ctx.tol)
    phi = ctx.phi_grid
    other = (phi if normalized is ctx.triple
             else _realization(normalized).grid(ctx.grid, ctx.tol))
    return linalg.frob_norms(phi - other).max(), 1e-10


def _summability_point(ctx):
    """-2i, unless its conjugate is a pole: W_n(lam) inverts W(0, conj(lam)),
    which is singular on conj(spec alpha).  Then the first of 1 - 2i, -1 - 2i
    that clears it."""
    for lam in (-2j, 1 - 2j):
        try:
            linalg.check_pole(np.conj(lam), ctx.spectrum, ctx.tol, "alpha")
            return lam
        except PoleError:
            pass
    return -1 - 2j


def _summability_dichotomy(ctx):
    lam = _summability_point(ctx)
    transfer = ctx.summability_transfer
    phi = ctx.weyl(lam, ctx.tol)
    report = _summability(transfer, lam, _SUMMABILITY_TERMS, phi, True)
    perturbed = _summability(transfer, lam, _SUMMABILITY_TERMS,
                             phi + 0.1 * np.eye(ctx.triple.m), False)
    ok = report.is_cauchy and not perturbed.is_cauchy
    return (0.0 if ok else 1.0), 0.5, (
        f"cauchy={report.is_cauchy}, perturbed_cauchy={perturbed.is_cauchy}, "
        f"column_identity_residual={report.column_identity_residual:.3e}"
    )


def _raise_first(*faults):
    """Raise the first error of the times in order, of the lists in order."""
    for error in (e for errors in zip(*faults) for e in errors):
        if error is not None:
            raise error


def _evolution_identity(ctx):
    lam, sigma, faults = ctx.stage
    _raise_first(faults)
    alpha = ctx.triple.alpha
    scale = (linalg.frob(alpha) * linalg.frob_norms(sigma)
             + linalg.frob_norms(lam) ** 2)
    return _worst(_identity_residuals(alpha, sigma, lam)
                  / np.fmax(1.0, scale)), 1e-9


def _evolution_methods(ctx):
    """Sigma_0(t) of the time-t triple against the route that it did not
    take (``evolution._sigma_cross``), both times in one call."""
    cross, cross_faults = evolution._sigma_cross(
        ctx.triple, np.array(_TRIPLE_TIMES), ctx.tol)
    _, sigma, faults = ctx.stage
    _raise_first(faults, cross_faults)
    return _worst(linalg.frob_norms(sigma - cross)), 1e-7


def _lax_equality(ctx):
    worst = 0.0
    trace_dev = 0.0
    for k in range(len(_GRID_TIMES)):
        pair = ctx.time_grid.lax(k, 1, 2.0 + 0.5j)
        worst = max(worst, pair.equality_plus, pair.equality_minus)
        trace_dev = max(trace_dev, abs(pair.trace_v_plus - 2.0),
                        abs(pair.trace_v_minus - 2.0))
    return max(worst, trace_dev), 1e-8


def _zero_curvature(ctx):
    worst = max(ctx.time_grid.zero_curvature_at(k, 1, 2.0 + 0.5j)
                for k in range(len(_GRID_TIMES)))
    return worst, 1e-6


def _ihm_vector(ctx):
    worst = max(ctx.time_grid.ihm_at(k, 1) for k in range(len(_GRID_TIMES)))
    return worst, 1e-6


def _monodromy(ctx):
    k = _GRID_TIMES.index(0.2)
    worst = max(ctx.time_grid.monodromy(k, n, 2.0 + 0.5j) for n in (0, 1, 2))
    return worst, 1e-9


_GENERAL_CHECKS = {
    "closed-form-lambda": _closed_form,
    "contractivity": _contractivity,
    "factorization-rank-m": _factorizations,
    "fundamental-recursion": _fundamental_recursion,
    "identity-propagation": _identity_propagation,
    "inverse-product": _inverse_product,
    "k-residual": _k_residual,
    "monotone-sequences": _monotone,
    "rank-structure": _rank_structure,
    "sigma-positivity": _sigma_positivity,
    "spin-hermitian": _spin_hermitian,
    "spin-involution": _spin_involution,
    "summability-dichotomy": _summability_dichotomy,
    "transfer-identity": _transfer_identity,
    "two-point-identity": _two_point,
    "weyl-block-ratio": _weyl_ratio,
    "weyl-normalized-agreement": _weyl_normalized,
}

_EVOLUTION_CHECKS = {
    "evolution-identity": _evolution_identity,
    "evolution-method-agreement": _evolution_methods,
    "ihm-vector-equation": _ihm_vector,
    "lax-equality": _lax_equality,
    "monodromy": _monodromy,
    "zero-curvature": _zero_curvature,
}


def run_checks(triple: ParameterTriple, n_max=15, tol: Tolerances = DEFAULT):
    """Run the named invariant checks and return results sorted by name.

    Requires a class FG triple (the identities under test assume it) and
    n_max >= 1.  The evolution checks run only for 2x2 spin matrices (m = 1).
    """
    if operator.index(n_max) < 1:     # 2.5 is a TypeError, as in generate
        raise ValueError(f"run_checks needs n_max >= 1, got {n_max}")
    report = validate(triple, tol)
    if report.triple_class not in (TripleClass.FG, TripleClass.FG_TILDE):
        raise AdmissibilityError(
            f"invariant suite needs a class FG triple, got "
            f"{report.triple_class.value}"
        )
    registry = dict(_GENERAL_CHECKS)
    if triple.m == 1:
        registry.update(_EVOLUTION_CHECKS)
    ctx = _Context(triple, n_max, tol)
    results = []
    for name in sorted(registry):
        try:
            with np.errstate(all="ignore"):     # an overflow fails the check
                out = registry[name](ctx)
        except SpinLatticeError as exc:
            results.append(CheckResult(
                name=name, passed=False, residual=np.inf, threshold=0.0,
                detail=f"{type(exc).__name__}: {exc}",
            ))
            continue
        residual, threshold = out[0], out[1]
        detail = out[2] if len(out) > 2 else ""
        results.append(CheckResult(
            name=name,
            passed=bool(residual <= threshold),
            residual=float(residual),
            threshold=float(threshold),
            detail=detail,
        ))
    return results
