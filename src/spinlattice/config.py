"""Numeric tolerances used throughout the package.

All tolerances live in one dataclass so the CLI can override any of them by
name (``--tol name=value``).  The defaults are deliberate: the underlying
algebraic identities are exact, the slack only absorbs floating point error.
"""

from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Tolerances:
    # matrix classification
    hermitian_tol: float = 1e-12   # relative Hermitian-deviation bound
    spec_tol: float = 1e-10        # eigenvalue comparisons against 0, +/-i
    posdef_tol: float = 1e-12      # minimal eigenvalue for positive definite
    rank_tol: float = 1e-10        # relative singular value cutoff for rank
    # structural identities
    id_tol: float = 1e-10          # alpha Sigma - Sigma alpha* = i Lam Lam*
    spin_tol: float = 1e-11        # involution residual, conditioning-scaled
    # evaluation guards
    pole_tol: float = 1e-10        # relative distance to spectrum for resolvents
    cond_limit: float = 1e12       # refuse Sigma_n solves beyond this
    sigma_overflow: float = 1e14   # abort the lattice recursion beyond this
    degeneracy_tol: float = 1e-8   # 1 + s_{n-1}.s_n lower bound

    def replace(self, **kwargs):
        return replace(self, **kwargs)

    @classmethod
    def names(cls):
        return [f.name for f in fields(cls)]


DEFAULT = Tolerances()
