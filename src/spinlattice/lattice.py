"""The lattice: the sequences Lambda_n, Sigma_n, S_n and their structural
diagnostics (identity propagation, involution, monotone R/Q sequences, the
K residual).

Two routes build the sequences under one set of guards (``_guarded``):
the recursion (``generate_stack``), and its closed form in the eigenbasis
of alpha (``_closed_form_stack``), which ``generate`` and
``evolution.TimeGrid`` call wherever that basis admits alpha, the grid on
the basis of its one ``_lambda0`` batch.  ``verify`` keeps the recursion
to its one horizon, the reference the closed form is checked against.
Either route forms dS_n/dt from the time flow at each site (``_dspins``).
"""

import operator
from dataclasses import dataclass

import numpy as np

from . import linalg
from .config import DEFAULT, Tolerances
from .errors import (ConditioningError, InputError, NumericError,
                     SingularMatrixError, SpectrumError)
from .triples import ParameterTriple, signature_matrix

__all__ = [
    "lambda_closed_form",
    "LatticeState",
    "LatticeStack",
    "generate",
    "generate_stack",
    "MonotoneDiagnostics",
    "monotone_diagnostics",
    "k_residual",
]


def _h(a):
    """Conjugate transpose over the last two axes."""
    return a.conj().swapaxes(-1, -2)


def _matrix_powers(base, ns):
    """np.linalg.matrix_power(base, n) for each n of ``ns``, bit for bit:
    its product (base @ base) @ base for n = 3, and for the other n its
    binary ladder, the squarings of base multiplied in from the lowest set
    bit of n up.  The squarings and the partial products are shared by all
    the n."""
    squares = [base]
    partial = {}

    def ladder(n):
        # the product over the set bits of n, lowest first
        if n not in partial:
            top = n.bit_length() - 1
            while len(squares) <= top:
                squares.append(squares[-1] @ squares[-1])
            rest = n - (1 << top)
            partial[n] = ladder(rest) @ squares[top] if rest else squares[top]
        return partial[n]

    def power(n):
        n = operator.index(n)
        if n == 0:
            return np.eye(base.shape[0], dtype=base.dtype)
        # the ladder of 3 is base @ (base @ base)
        return ladder(2) @ base if n == 3 else ladder(n)

    return np.array([power(n) for n in ns])


def _check_site(name, n, first=0):
    """Refuse a site n < first where it enters, before a power is taken or
    a grid is sized from it."""
    if operator.index(n) < first:
        raise ValueError(f"{name} needs a site n >= {first}, got {n}")


def _horizon(n_max):
    """The one horizon of a stack as an int, read before any work: one that
    is not a whole number (2.5, 2.0) is the TypeError of ``operator.index``,
    as a site is (``_check_site``), and a negative one a ValueError."""
    n_max = operator.index(n_max)
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    return n_max


def _lattice_powers(alpha, lam0, ns):
    """[(I + i a^{-1})^n lam0_1, (I - i a^{-1})^n lam0_2] for the column
    blocks lam0 = [lam0_1, lam0_2], stacked over the n of ``ns``: alpha is
    inverted once, and the powers of each base share one squaring ladder.
    A power that leaves the floating point range is a NumericError naming
    its first site, with no numpy warning."""
    a_inv = linalg.inv(alpha, "alpha")
    i_n = np.eye(alpha.shape[0], dtype=complex)
    m = lam0.shape[1] // 2
    with np.errstate(all="ignore"):
        plus, minus = (_matrix_powers(base, ns)
                       for base in (i_n + 1j * a_inv, i_n - 1j * a_inv))
        lams = np.concatenate([plus @ lam0[:, :m], minus @ lam0[:, m:]],
                              axis=-1)
    for n in np.asarray(ns)[~_finite(lams)][:1].tolist():
        raise NumericError(f"Lambda_{n} is not finite: the lattice powers "
                           f"leave the floating point range")
    return lams


def lambda_closed_form(triple: ParameterTriple, n):
    """Lambda_n = [(I + i a^{-1})^n theta1, (I - i a^{-1})^n theta2].

    Valid for every sigma0: the step Lambda_{n+1} = Lambda_n
    + i a^{-1} Lambda_n J never reads Sigma_n, and J acts on the two column
    blocks as the scalars +1 and -1.
    """
    _check_site("lambda_closed_form", n)
    return _lattice_powers(triple.alpha, triple.lambda0, [n])[0]


@dataclass(frozen=True)
class LatticeState:
    """Sequences Lambda_0..Lambda_{n_max}, Sigma_0..Sigma_{n_max} and the
    spins S_0..S_{n_max-1} of one triple, the rows of a LatticeStack entry."""

    triple: ParameterTriple
    n_max: int
    lambdas: np.ndarray
    sigmas: np.ndarray
    spins: np.ndarray
    conditioning: list          # cond(Sigma_n), n = 0..n_max
    spin_residuals: list        # ||S_n^2 - I||_F, n = 0..n_max-1
    sigma_inv_lambdas: np.ndarray   # Sigma_n^{-1} Lambda_n, n = 0..n_max

    @property
    def m(self):
        return self.triple.m

    def xi(self, n):
        """Lambda_n* Sigma_n^{-1} Lambda_n (solved, never inverted)."""
        return self.lambdas[n].conj().T @ self.sigma_inv_lambdas[n]


def _record(faults, where, error):
    """Record ``error``, an exception or a function of the entry index that
    makes one, at the entries ``where`` (a mask or an index array) of the
    per-entry error list ``faults`` that have none yet.  A stacked
    computation records the first error of an entry and goes on with the
    others."""
    where = np.asarray(where)
    if where.dtype == bool:
        where = np.flatnonzero(where)
    for k in where.tolist():
        if faults[k] is None:
            faults[k] = error(k) if callable(error) else error


def _live(faults):
    """Indices of the entries of ``faults`` without an error."""
    return np.array([k for k, e in enumerate(faults) if e is None], dtype=int)


@dataclass(frozen=True)
class LatticeStack:
    """The recursion run over a stack of initial (Lambda_0, Sigma_0) with one
    alpha, to one horizon n_max.  Entry k holds Lambda_n, Sigma_n for
    n = 0..n_max and S_n for n < n_max in its rows [k], and ``faults[k]``,
    the error that ``generate`` raises on it, or None; and dS_n/dt in
    ``dspins`` (unguarded) if the run was given resolvents."""

    n_max: int
    lambdas: np.ndarray             # [k, n]
    sigmas: np.ndarray
    spins: np.ndarray
    conditioning: np.ndarray
    spin_residuals: np.ndarray
    involution_residuals: np.ndarray    # ||S_n^2 - I|| / max(1, cond cond)
    sigma_inv_lambdas: np.ndarray
    faults: list
    dspins: np.ndarray = None

    def check(self, k):
        """Raise the error of entry k, if it has one."""
        if self.faults[k] is not None:
            raise self.faults[k]

    def state(self, k, triple: ParameterTriple):
        """Entry k, the run of ``triple``, as a LatticeState of its rows;
        raises its error."""
        self.check(k)
        return LatticeState(
            triple=triple,
            n_max=self.n_max,
            lambdas=self.lambdas[k],
            sigmas=self.sigmas[k],
            spins=self.spins[k],
            conditioning=self.conditioning[k].tolist(),
            spin_residuals=self.spin_residuals[k].tolist(),
            sigma_inv_lambdas=self.sigma_inv_lambdas[k],
        )


# Bytes that one generate_stack may hold: per site and entry, Lambda_n and
# Sigma_n, the arrays after the loop (Sigma_n^{-1} Lambda_n, Xi_n, S_n,
# S_n^2 - I and their temporaries, and where dS_n/dt is formed the three
# Lambda_n-shaped and five Xi_n-shaped arrays of _dspins), and 8 floats;
# per entry, the temporaries of one step; alpha^{-1}.  _closed_form_stack
# counts its own arrays against the same budget.  Beyond it, an InputError
# before any allocation.  Neither count holds the fixed cost of a call (its
# Python objects and small per-call arrays, about 5-8 kB in tracemalloc).
STACK_BUDGET = 2 ** 30


def _solve_each(a, b):
    """np.linalg.solve over a stack, and the mask of its singular matrices,
    whose solutions are NaN."""
    singular = np.zeros(a.shape[:-2], dtype=bool)
    try:
        return np.linalg.solve(a, b), singular
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan, dtype=complex)
        for index in np.ndindex(a.shape[:-2]):
            try:
                x[index] = np.linalg.solve(a[index], b[index])
            except np.linalg.LinAlgError:
                singular[index] = True
        return x, singular


def _recur(alpha_inv, m, lambdas, sigmas):
    """Fill the rows n = 1..n_max of the [k, n] arrays ``lambdas`` and
    ``sigmas`` from their rows n = 0, by the steps

    Lambda_{n+1} = Lambda_n + i alpha^{-1} Lambda_n J;
    Sigma_{n+1}  = herm(Sigma_n + alpha^{-1} (Sigma_n + Lambda_n J Lambda_n*)
                   alpha^{-*}).

    Lambda_n does not depend on Sigma_n: its rows come first, then the
    forcing terms Lambda_n J Lambda_n* of every n in one product, written
    to the rows of Sigma_{n+1} that they help to make.  Only the Sigma_n
    steps stay sequential."""
    j = signature_matrix(m)
    i_alpha_inv = 1j * alpha_inv
    alpha_inv_adj = alpha_inv.conj().T
    n_max = lambdas.shape[1] - 1
    for n in range(n_max):
        lambdas[:, n + 1] = lambdas[:, n] + i_alpha_inv @ lambdas[:, n] @ j
    np.matmul(lambdas[:, :-1] @ j, _h(lambdas[:, :-1]), out=sigmas[:, 1:])
    for n in range(n_max):
        sigma, force = sigmas[:, n], sigmas[:, n + 1]
        sigmas[:, n + 1] = linalg.herm(
            sigma + alpha_inv @ (sigma + force) @ alpha_inv_adj)


def _involution_limit(tol: Tolerances):
    """The bound on ||S_n^2 - I|| / max(1, cond(Sigma_n) cond(Sigma_{n+1}))
    beyond which S_n is not an involution."""
    return 100 * tol.spin_tol


def _first(mask):
    """(entry, first n) of each row of ``mask`` that has a True entry."""
    return [(k, int(np.argmax(mask[k])))
            for k in np.flatnonzero(mask.any(axis=1)).tolist()]


def _check_budget(n_max, need):
    """Refuse ``need`` bytes of lattice arrays beyond STACK_BUDGET, before
    any is made."""
    if need > STACK_BUDGET:
        raise InputError(
            f"horizon {n_max} needs {need / 2 ** 20:.3g} MiB of lattice "
            f"arrays, beyond the budget of {STACK_BUDGET >> 20} MiB")


def generate_stack(alpha, lambda0, sigma0, n_max, tol: Tolerances = DEFAULT,
                   faults=None, resolvents=None):
    """Run the recursion from each (lambda0[k], sigma0[k]) of the stacks
    ``lambda0`` and ``sigma0`` up to the one horizon ``n_max``, all over one
    stack axis, with the guards of ``generate`` applied to each entry.  An
    entry that fails a guard records the error in the list ``faults`` (one
    is made if none is given) and the others go on; floating point warnings
    of failed entries are silenced.  Arrays beyond STACK_BUDGET bytes are
    an InputError.

    With ``resolvents``, the pair (alpha -/+ iI)^{-1}, the stack carries
    dS_n/dt (``_dspins``).  The guards (``_guarded``), in order:
    ||Sigma_n|| > tol.sigma_overflow, cond(Sigma_n) > tol.cond_limit,
    Sigma_n singular, ||S_n^2 - I|| not finite, then above 100
    tol.spin_tol max(1, cond_n cond_{n+1}).
    """
    n_max = _horizon(n_max)
    rows, order, width = lambda0.shape
    lam, sigma, xi = order * width, order * order, width * width
    copies = 1 + (resolvents is not None)   # _dspins holds as many again
    per_site = 16 * (3 * copies * lam + sigma + 5 * copies * xi) + 64
    step = 16 * (4 * sigma + 3 * lam)
    _check_budget(n_max, rows * ((n_max + 1) * per_site + step)
                  + 16 * (6 * sigma + xi))
    faults = [None] * rows if faults is None else faults
    try:
        alpha_inv = linalg.inv(alpha, "alpha")
    except SingularMatrixError as exc:
        _record(faults, np.arange(rows), exc)
        alpha_inv = np.zeros(alpha.shape, dtype=complex)

    lambdas = np.empty((rows, n_max + 1, order, width), dtype=complex)
    sigmas = np.empty((rows, n_max + 1, order, order), dtype=complex)
    lambdas[:, 0], sigmas[:, 0] = lambda0, sigma0
    with np.errstate(all="ignore"):
        _recur(alpha_inv, width // 2, lambdas, sigmas)
        solved, singular = _solve_each(sigmas, lambdas)
        xi = _h(lambdas) @ solved
        dspins = (None if resolvents is None
                  else _dspins(*resolvents, alpha, lambdas, solved))
    return _guarded(n_max, faults, tol, lambdas, sigmas, solved, singular, xi,
                    dspins)


def _dspins(minus, plus, alpha, lambdas, solved):
    """dS_n/dt = dXi_n - dXi_{n+1}, n < n_max, from the [k, n] arrays
    Lambda_n and X = Sigma_n^{-1} Lambda_n (``solved``) of one basis, with
    (alpha -/+ iI)^{-1} (``minus``, ``plus``) and alpha as matrices there,
    or as 1-D diagonals in the eigenbasis.  (alpha, Lambda_n(t),
    Sigma_n(t)) is a time-t triple, so dLambda_n/dt = -2[minus
    Lambda_n^(1), plus Lambda_n^(2)] and dSigma_n/dt is the Sigma_0 flow
    (``evolution._flow``) at (Sigma_n, Lambda_n).  Read through X alone
    (Sigma_n X = Lambda_n), with Q = minus plus:

        dXi_n = dLambda_n* X + X* dLambda_n - X* dSigma_n X = 2 (A + A*),
        A = (X* Q alpha Lambda_n) J (X* Q Lambda_n)* - i X* Q Lambda_n J."""
    def times(a, b):        # a b, for a matrix a or the diagonal of one
        return a[:, None] * b if a.ndim == 1 else a @ b

    j = signature_matrix(lambdas.shape[-1] // 2)
    x_adj = _h(solved)
    q_lam = times(minus, times(plus, lambdas))
    y = x_adj @ q_lam
    a = (x_adj @ times(alpha, q_lam)) @ j @ _h(y) - 1j * y @ j
    dxi = a + _h(a)
    return 2.0 * (dxi[:, :-1] - dxi[:, 1:])


def _cauchy(d, lam):
    """(C, C_jk / (d_j - conj d_k)) with C = i Lam' Lam'*, over the last
    two axes: the second is the solution Sig' of diag(d) Sig' -
    Sig' diag(d)* = i Lam' Lam'*, a Cauchy-like matrix (Gohberg, Kailath &
    Olshevsky, Math. Comp. 64, 1995), wherever d_j != conj d_k."""
    c = 1j * lam @ _h(lam)
    return c, c / (d[:, None] - d.conj()[None, :])


def _finite(a):
    """Whether each matrix of a stack has finite entries only."""
    return np.isfinite(a).all(axis=(-2, -1))


def _record_non_finite(faults, where, named):
    """Record, at the entries ``where``, the first of the ``(name, stack)``
    pairs whose matrix there is not finite, a stack of None skipped: the
    finite checks of a start (Lambda_0, C = i Lambda_0 Lambda_0*,
    Sigma_0)."""
    for name, a in named:
        if a is not None:
            _record(faults, where & ~_finite(a),
                    NumericError(f"{name} contains non-finite entries"))


def _closed_form_stack(basis, start, lam, resolvents, kept, n_max, tol,
                       faults):
    """The LatticeStack of ``generate_stack``, in closed form in the
    eigenbasis (d, V, V^{-1}) of alpha, all the [k, n] rows in one batch
    with no loop over n.  Entry k starts from the primed Lam'_0 =
    ``lam[k]`` (Lambda_0 = V Lam'_0); an entry of the mask ``kept`` starts
    from ``start``, (Lambda_0, Sigma_0) in the original basis, itself.
    With ``resolvents``, the diagonals 1/(d -/+ i) of (alpha -/+ iI)^{-1},
    the stack carries dS_n/dt (``_dspins`` on the primed arrays).

    Lam'_n = diag(1 + i/d)^n Lam'^(1)_0 and diag(1 - i/d)^n Lam'^(2)_0
    (``lambda_closed_form``).  In the eigenbasis the step of Sig'_n =
    V^{-1} Sigma_n V^{-*} multiplies each entry by M_jk = 1 + 1/(d_j
    conj d_k) and adds the forcing term of Lam'_n.  The Cauchy quotient
    C(Lam'_n) (``_cauchy``), the solution of the identity alpha Sig -
    Sig alpha* = i Lambda_n Lambda_n*, is one solution of that step, so

        Sig'_n = C(Lam'_n) + M^n o (V^{-1} Sigma_0 V^{-*} - C(Lam'_0)),

    entrywise, for every Hermitian Sigma_0.  The second term vanishes on
    a start that meets the identity, as a time-t start does by its
    construction; it is formed for the entries of ``kept`` alone, whose
    row n = 0 is Sigma_0 itself.  X' = Sig'^{-1} Lam' is one batched
    solve, and Xi_n = Lam'* X' is that of the original basis, so S_n and
    dS_n/dt are read here.  Sigma_n = V Sig'_n V* is rotated back for the
    guards, and Lambda_n = V Lam'_n and Sigma_n^{-1} Lambda_n = V^{-*} X'
    for the stack.

    Before the guards, an entry not ``kept`` fails on its row n = 0, on
    the first of: Lambda_0, C = i Lam'_0 Lam'_0*, Sigma_0 not finite
    (``_record_non_finite``).  Then the guards of ``generate_stack``
    (``_guarded``)."""
    n_max = _horizon(n_max)
    d, v, v_inv = basis
    rows, order, width = lam.shape
    derivative = resolvents is not None
    # per site and entry: arrays shaped as Lambda_n (Lam', Lambda_n, X',
    # V^{-*} X', three of _dspins), as Sigma_n (C, Sig', Sigma_n, two
    # temporaries, the M^n term of a kept entry and its product), as Xi_n
    # (Xi, S_n and its temporaries, five of _dspins), and 8 floats
    _check_budget(n_max, rows * (n_max + 1) * (
        16 * ((4 + 3 * derivative) * order * width + 7 * order * order
              + (5 + 5 * derivative) * width * width) + 64))
    faults = [None] * rows if faults is None else faults
    m = width // 2
    with np.errstate(all="ignore"):
        sites = np.arange(n_max + 1)[:, None, None]
        lams = np.repeat(np.stack([1.0 + 1j / d, 1.0 - 1j / d], axis=-1),
                         m, axis=-1) ** sites * lam[:, None]
        c, sigmas_p = _cauchy(d, lams)
        c = c[:, 0].copy()                  # its check reads n = 0 alone
        lambdas = v @ lams
        if kept.any():
            lambda0, sigma0 = start
            sigma0_p = v_inv @ sigma0 @ _h(v_inv)
            growth = (1.0 + 1.0 / (d[:, None] * d.conj()[None, :])) ** sites
            for k in np.flatnonzero(kept).tolist():
                sigmas_p[k] += growth * (sigma0_p - sigmas_p[k, 0])
                sigmas_p[k, 0] = sigma0_p
        sigmas = linalg.herm(v @ sigmas_p @ _h(v))
        _record_non_finite(faults, ~kept, (("lambda", lambdas[:, 0]),
                                           ("C", c), ("sigma0", sigmas[:, 0])))
        if kept.any():
            lambdas[kept, 0] = lambda0
            sigmas[kept, 0] = sigma0
        solved, singular = _solve_each(sigmas_p, lams)
        xi = _h(lams) @ solved
        dspins = (None if resolvents is None
                  else _dspins(*resolvents, d, lams, solved))
    return _guarded(n_max, faults, tol, lambdas, sigmas, _h(v_inv) @ solved,
                    singular, xi, dspins)


def _guarded(n_max, faults, tol, lambdas, sigmas, solved, singular, xi,
             dspins=None):
    """The LatticeStack of the [k, n] arrays Lambda_n, Sigma_n, Sigma_n^{-1}
    Lambda_n (``solved``, singular where ``singular``), Xi_n = Lambda_n*
    Sigma_n^{-1} Lambda_n and dS_n/dt (``dspins``, or None) to the horizon
    n_max: S_n = J + Xi_n - Xi_{n+1}, and the guards of ``generate_stack``
    on each entry, in order, each recording the first error of an entry in
    ``faults``."""
    m = xi.shape[-1] // 2
    with np.errstate(all="ignore"):
        limit = tol.sigma_overflow
        norms = linalg.frob_norms(sigmas)
        for k, n in _first(norms[:, 1:] > limit):
            _record(faults, [k], NumericError(
                f"||Sigma_{n + 1}|| = {norms[k, n + 1]:.3e} exceeds the "
                f"overflow guard {limit:.1e}; triple growth is too fast "
                f"for this horizon (reached n = {n + 1} of {n_max})"))
        conditioning = linalg._hermitian_conds(sigmas)
        for k, n in _first(conditioning > tol.cond_limit):
            _record(faults, [k], ConditioningError(
                f"cond(Sigma_{n}) = {conditioning[k, n]:.3e} exceeds the "
                f"limit {tol.cond_limit:.1e}"))
        _record(faults, singular.any(axis=1),
                SingularMatrixError("Sigma is singular"))
        spins = linalg.herm(signature_matrix(m) + xi[:, :-1] - xi[:, 1:])
        spin_residuals = linalg.frob_norms(
            spins @ spins - np.eye(2 * m, dtype=complex))
        involutions = spin_residuals / np.fmax(
            1.0, conditioning[:, :-1] * conditioning[:, 1:])
        spin_limit = _involution_limit(tol)
        not_involutions = involutions > spin_limit
    for k, n in _first(~np.isfinite(spin_residuals)):
        _record(faults, [k], NumericError(
            f"||S_{n}^2 - I|| is not finite: the recursion leaves the "
            f"floating point range (reached n = {n} of {n_max})"))
    for k, n in _first(not_involutions):
        _record(faults, [k], NumericError(
            f"||S_{n}^2 - I|| / max(1, cond(Sigma_{n}) cond(Sigma_{n + 1})) "
            f"= {involutions[k, n]:.3e} exceeds {spin_limit:.1e}: S_{n} is "
            f"not an involution"))
    return LatticeStack(
        n_max=n_max,
        lambdas=lambdas,
        sigmas=sigmas,
        spins=spins,
        conditioning=conditioning,
        spin_residuals=spin_residuals,
        involution_residuals=involutions,
        sigma_inv_lambdas=solved,
        faults=faults,
        dspins=dspins,
    )


def generate(triple: ParameterTriple, n_max=50, tol: Tolerances = DEFAULT):
    """The lattice of ``triple`` up to horizon ``n_max``, as a LatticeState:
    the stack of one entry of ``_closed_form_stack``, from the triple
    itself, where the eigenbasis of alpha admits it (``triple._eigenbasis``),
    else of ``generate_stack``, the recursion.  Either raises the guards of
    ``generate_stack`` (cond(Sigma_n) is tracked per n: Sigma_n inversion
    is the dominant error source)."""
    n_max = _horizon(n_max)
    basis = triple._eigenbasis(tol)
    if basis is None:
        stack = generate_stack(triple.alpha, triple.lambda0[None],
                               triple.sigma0[None], n_max, tol)
    else:
        stack = _closed_form_stack(
            basis, (triple.lambda0, triple.sigma0),
            (basis[2] @ triple.lambda0)[None], None, np.ones(1, dtype=bool),
            n_max, tol, None)
    return stack.state(0, triple)


def _sites(state: LatticeState, sites, top):
    """``sites`` as an index array, each checked to lie in 0..top of
    ``state``."""
    sites = np.array([operator.index(n) for n in sites], dtype=int)
    bad = sites[(sites < 0) | (sites > top)]
    if bad.size:
        raise ValueError(
            f"site {bad[0]} outside 0..{top} (horizon {state.n_max})")
    return sites


def k_residual(state: LatticeState, n):
    """Frobenius norm of the K matrix whose vanishing drives the transfer
    identity, at a site n in 0..n_max - 1:

    K_n = Lam_{n+1}* Sig_{n+1}^{-1}(a^2 + I) - Lam_n* Sig_n^{-1} a^2
          + i S_n Lam_n* Sig_n^{-1} a.
    """
    n = _sites(state, [n], state.n_max - 1)[0]
    y = state.sigma_inv_lambdas
    return linalg.frob(_k(state.triple.alpha, y[n].conj().T,
                          y[n + 1].conj().T, state.spins[n]))


def _k(alpha, y, y_next, spin):
    """K_n of ``k_residual`` from y = Lam_n* Sig_n^{-1}, y_next (the same at
    n + 1) and S_n, for one n or each of a stack."""
    i_n = np.eye(alpha.shape[0], dtype=complex)
    return (y_next @ (alpha @ alpha + i_n)
            - y @ alpha @ alpha
            + 1j * spin @ y @ alpha)


@dataclass(frozen=True)
class MonotoneDiagnostics:
    """R_n (non-decreasing) and Q_n (non-increasing) sequences.

    Either side is None when the spectral precondition (i, resp. -i, not an
    eigenvalue of alpha) fails.  Cross-check residuals compare the direct
    difference R_{n+1}-R_n against its closed Gram form.
    """

    r_sequence: list
    q_sequence: list
    r_increments_min_eig: list
    q_increments_max_eig: list
    r_cross_residuals: list
    q_cross_residuals: list
    r_scales: list              # ||R_{n+1}||_F per increment
    q_scales: list


def monotone_diagnostics(state: LatticeState, tol: Tolerances = DEFAULT):
    triple = state.triple
    spec = triple.spectrum(tol)
    a_inv = linalg.inv(triple.alpha, "alpha")
    i_n = np.eye(triple.order, dtype=complex)
    m = state.m
    sigmas, lambdas = state.sigmas, state.lambdas[:-1]

    def build(factor, column, sign):
        # factor = I -/+ i a^{-1}; column selects the theta block feeding
        # the Gram increment; sign +1 for R (non-decreasing), -1 for Q.
        # factor^{-(n+1)} for n < n_max, each solved from the one before.
        powers = np.empty((state.n_max,) + i_n.shape, dtype=complex)
        power_inv = i_n
        for n in range(state.n_max):
            power_inv = powers[n] = linalg.solve(factor, power_inv)
        # R_{n+1}, and its increment over R_n
        rn1 = linalg.herm(powers @ sigmas[1:] @ powers.conj().swapaxes(-1, -2))
        first = linalg.herm(sigmas[:1])
        diff = linalg.herm(rn1 - np.concatenate([first, rn1[:-1]]))
        z = powers @ a_inv @ lambdas[..., column * m:(column + 1) * m]
        gram = sign * 2.0 * z @ z.conj().swapaxes(-1, -2)
        w = np.linalg.eigvalsh(diff)
        return ([first[0], *rn1], (w[:, 0] if sign > 0 else w[:, -1]).tolist(),
                linalg.frob_norms(diff - gram).tolist(),
                linalg.frob_norms(rn1).tolist())

    r_seq = q_seq = None
    r_min, q_max, r_cross, q_cross = [], [], [], []
    r_scales, q_scales = [], []
    if not spec.contains_plus_i:
        r_seq, r_min, r_cross, r_scales = build(i_n - 1j * a_inv, 0, +1)
    if not spec.contains_minus_i:
        q_seq, q_max, q_cross, q_scales = build(i_n + 1j * a_inv, 1, -1)
    if r_seq is None and q_seq is None:
        raise SpectrumError(
            "both i and -i are eigenvalues of alpha; no monotone sequence "
            "is defined")
    return MonotoneDiagnostics(
        r_sequence=r_seq,
        q_sequence=q_seq,
        r_increments_min_eig=r_min,
        q_increments_max_eig=q_max,
        r_cross_residuals=r_cross,
        q_cross_residuals=q_cross,
        r_scales=r_scales,
        q_scales=q_scales,
    )
