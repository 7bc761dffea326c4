"""Named invariant checks over a single triple.

Every structural identity of the library is exposed here as a named check
returning a residual and a pass flag, so external tooling can consume one
stable list.  Check names are stable API; output is sorted by name.
"""

from dataclasses import dataclass

import numpy as np

from . import evolution, linalg
from .config import DEFAULT, Tolerances
from .errors import AdmissibilityError, PoleError, SpinLatticeError
from .lattice import generate, k_residual, lambda_closed_form, monotone_diagnostics
from .transfer import Transfer
from .triples import ParameterTriple, TripleClass, normalize_sigma0, validate
from .weyl import lambda_grid, summability_diagnostic, weyl

__all__ = ["CheckResult", "check_names", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    threshold: float
    detail: str = ""


class _Context:
    def __init__(self, triple, n_max, lambda_count, tol):
        self.triple = triple
        self.tol = tol
        self.n_max = n_max
        self.state = generate(triple, n_max=n_max, tol=tol)
        self.transfer = Transfer(self.state, tol)
        self.grid = lambda_grid(triple.alpha, count=lambda_count, tol=tol)
        scale = 1.0 + float(np.linalg.norm(triple.alpha, 2))
        # lower half plane sample points for the contractivity check
        self.lower_grid = [
            scale * np.exp(-1j * np.pi * (k + 0.5) / lambda_count)
            for k in range(lambda_count)
        ]
        self.sites = range(min(n_max - 1, 10) + 1)


def _identity_propagation(ctx):
    worst = 0.0
    for lam, sig in zip(ctx.state.lambdas, ctx.state.sigmas):
        res = linalg.frob(
            ctx.triple.alpha @ sig - sig @ ctx.triple.alpha.conj().T
            - 1j * lam @ lam.conj().T
        )
        scale = max(1.0, linalg.frob(sig) * linalg.frob(ctx.triple.alpha))
        worst = max(worst, res / scale)
    return worst, 1e-9


def _sigma_positivity(ctx):
    min_eig = min(float(np.linalg.eigvalsh(s)[0]) for s in ctx.state.sigmas)
    return max(0.0, -min_eig), 0.0, f"min eigenvalue {min_eig:.3e}"


def _spin_involution(ctx):
    worst = 0.0
    for n, res in enumerate(ctx.state.spin_residuals):
        scale = max(1.0, ctx.state.conditioning[n] * ctx.state.conditioning[n + 1])
        worst = max(worst, res / scale)
    return worst, ctx.tol.spin_tol * 100


def _spin_hermitian(ctx):
    worst = max(
        (linalg.frob(s - s.conj().T) for s in ctx.state.spins), default=0.0
    )
    return worst, 1e-10


def _closed_form(ctx):
    if not ctx.triple.sigma0_is_identity(ctx.tol):
        triple = normalize_sigma0(ctx.triple, ctx.tol)
        state = generate(triple, n_max=ctx.n_max, tol=ctx.tol)
    else:
        triple, state = ctx.triple, ctx.state
    worst = 0.0
    for n, lam in enumerate(state.lambdas):
        closed = lambda_closed_form(triple, n, ctx.tol)
        worst = max(worst, linalg.frob(closed - lam) / max(1.0, linalg.frob(lam)))
    return worst, 1e-11 * 100


def _transfer_identity(ctx):
    worst = max(
        ctx.transfer.identity_residual(n, lam)
        for n in ctx.sites for lam in ctx.grid
    )
    return worst, 1e-9


def _k_residual(ctx):
    worst = 0.0
    for n in ctx.sites:
        scale = max(1.0, linalg.frob(ctx.state.lambdas[n])
                    * ctx.state.conditioning[n])
        worst = max(worst, k_residual(ctx.state, n) / scale)
    return worst, 1e-9


def _inverse_product(ctx):
    worst = max(
        ctx.transfer.unitarity_residual(n, lam)
        for n in ctx.sites for lam in ctx.grid
    )
    return worst, 1e-9


def _two_point(ctx):
    worst = max(
        ctx.transfer.gram_identity_residual(n, lam)
        for n in ctx.sites for lam in ctx.grid
    )
    return worst, 1e-9


def _contractivity(ctx):
    worst = -np.inf
    for n in ctx.sites:
        for lam in ctx.lower_grid:
            w = ctx.transfer.w(n, lam)
            gram = w.conj().T @ w - np.eye(w.shape[0])
            worst = max(worst, float(np.linalg.eigvalsh(gram)[-1]))
    return max(0.0, worst), 1e-9


def _fundamental_recursion(ctx):
    worst = max(
        ctx.transfer.recursion_residual(n, lam)
        for n in ctx.sites for lam in ctx.grid
    )
    return worst, 1e-9


def _rank_structure(ctx):
    m = ctx.triple.m
    i2m = np.eye(2 * m)
    worst = 0.0
    for s in ctx.state.spins:
        for sign in (1.0, -1.0):
            sv = np.linalg.svd(i2m + sign * s, compute_uv=False)
            if sv.size > m:
                worst = max(worst, float(sv[m]))
    return worst, 1e-8


def _factorizations(ctx):
    worst = 0.0
    for n in ctx.sites:
        res = ctx.transfer.factorization_residuals(n)
        worst = max(worst, max(res.values()))
    return worst, 1e-9


def _monotone(ctx):
    # residuals scaled by ||R_{n+1}|| (resp. Q): the sequences grow
    # geometrically and absolute eigenvalue noise grows with them
    diag = monotone_diagnostics(ctx.state, ctx.tol)
    worst = 0.0
    if diag.r_sequence is not None:
        for e, c, s in zip(diag.r_increments_min_eig,
                           diag.r_cross_residuals, diag.r_scales):
            scale = max(1.0, s)
            worst = max(worst, -e / scale, c / scale)
    if diag.q_sequence is not None:
        for e, c, s in zip(diag.q_increments_max_eig,
                           diag.q_cross_residuals, diag.q_scales):
            scale = max(1.0, s)
            worst = max(worst, e / scale, c / scale)
    return max(0.0, worst), 1e-10


def _weyl_ratio(ctx):
    phi = weyl(ctx.triple, ctx.tol)
    worst = 0.0
    for lam in ctx.grid:
        w0 = ctx.transfer.w(0, lam)
        m = ctx.triple.m
        b, d = w0[:m, m:], w0[m:, m:]
        worst = max(worst, linalg.frob(phi(lam, ctx.tol) - b @ linalg.inv(d)))
    return worst, 1e-10


def _weyl_normalized(ctx):
    phi = weyl(ctx.triple, ctx.tol)
    phi_norm = weyl(normalize_sigma0(ctx.triple, ctx.tol), ctx.tol)
    worst = max(
        linalg.frob(phi(lam, ctx.tol) - phi_norm(lam, ctx.tol))
        for lam in ctx.grid
    )
    return worst, 1e-10


def _summability_point(ctx):
    """-2i, unless its conjugate is a pole: W_n(lam) inverts W(0, conj(lam)),
    which is singular on conj(spec alpha).  Then the first of 1 - 2i, -1 - 2i
    that clears it."""
    for lam in (-2j, 1 - 2j):
        try:
            linalg.check_pole(np.conj(lam), *ctx.transfer.poles, ctx.tol, "alpha")
            return lam
        except PoleError:
            pass
    return -1 - 2j


def _summability(ctx):
    # the Cauchy heuristic needs a longer horizon than the other checks
    lam = _summability_point(ctx)
    report = summability_diagnostic(ctx.triple, lam, n_terms=30, tol=ctx.tol)
    perturbed = summability_diagnostic(
        ctx.triple, lam, n_terms=30, tol=ctx.tol,
        phi=weyl(ctx.triple, ctx.tol)(lam, ctx.tol)
        + 0.1 * np.eye(ctx.triple.m),
    )
    ok = report.is_cauchy and not perturbed.is_cauchy
    return (0.0 if ok else 1.0), 0.5, (
        f"cauchy={report.is_cauchy}, perturbed_cauchy={perturbed.is_cauchy}, "
        f"column_identity_residual={report.column_identity_residual:.3e}"
    )


def _evolution_identity(ctx):
    worst = 0.0
    for t in (0.1, 0.35):
        triple_t = evolution.triple_at(ctx.triple, t, tol=ctx.tol)
        worst = max(worst, triple_t.identity_residual()
                    / max(1.0, triple_t.identity_scale()))
    return worst, 1e-9


def _evolution_methods(ctx):
    worst = 0.0
    for t in (0.1, 0.35):
        a = evolution.evolve_sigma0(ctx.triple, t, "sylvester", tol=ctx.tol)
        b = evolution.evolve_sigma0(ctx.triple, t, "ode", tol=ctx.tol)
        worst = max(worst, linalg.frob(a - b))
    return worst, 1e-7


def _lax_equality(ctx):
    worst = 0.0
    trace_dev = 0.0
    for t in (0.0, 0.2):
        pair = evolution.lax_pair(ctx.triple, 1, t, 2.0 + 0.5j, tol=ctx.tol)
        worst = max(worst, pair.equality_plus, pair.equality_minus)
        trace_dev = max(trace_dev, abs(pair.trace_v_plus - 2.0),
                        abs(pair.trace_v_minus - 2.0))
    return max(worst, trace_dev), 1e-8


def _zero_curvature(ctx):
    worst = max(
        evolution.zero_curvature_residual(ctx.triple, 1, t, 2.0 + 0.5j,
                                          tol=ctx.tol)
        for t in (0.0, 0.2)
    )
    return worst, 1e-6


def _ihm_vector(ctx):
    worst = max(
        evolution.ihm_residual(ctx.triple, 1, t, tol=ctx.tol)
        for t in (0.0, 0.2)
    )
    return worst, 1e-6


def _monodromy(ctx):
    worst = max(
        evolution.monodromy_residual(ctx.triple, n, 0.2, 2.0 + 0.5j,
                                     tol=ctx.tol)
        for n in (0, 1, 2)
    )
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
    "summability-dichotomy": _summability,
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


def check_names(m=1):
    names = list(_GENERAL_CHECKS)
    if m == 1:
        names += list(_EVOLUTION_CHECKS)
    return sorted(names)


def run_checks(triple: ParameterTriple, n_max=15, lambda_count=8,
               tol: Tolerances = DEFAULT, names=None):
    """Run the named invariant checks and return results sorted by name.

    Requires a class FG triple (the identities under test assume it).  The
    evolution checks run only for 2x2 spin matrices (m = 1).
    """
    report = validate(triple, tol)
    if report.triple_class not in (TripleClass.FG, TripleClass.FG_TILDE):
        raise AdmissibilityError(
            f"invariant suite needs a class FG triple, got "
            f"{report.triple_class.value}"
        )
    registry = dict(_GENERAL_CHECKS)
    if triple.m == 1:
        registry.update(_EVOLUTION_CHECKS)
    if names is not None:
        unknown = sorted(set(names) - set(registry))
        if unknown:
            raise KeyError(f"unknown checks: {', '.join(unknown)}")
        registry = {k: v for k, v in registry.items() if k in names}
    ctx = _Context(triple, n_max, lambda_count, tol)
    results = []
    for name in sorted(registry):
        try:
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
