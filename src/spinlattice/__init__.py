"""Discrete skew-selfadjoint canonical systems on the integer lattice:
spin sequences from parameter triples, transfer matrix functions, direct
and inverse Weyl problems, and explicit solutions of the isotropic
Heisenberg magnet lattice.
"""

from .config import DEFAULT, Tolerances
from .errors import (
    AdmissibilityError,
    ConditioningError,
    DegeneracyError,
    DimensionError,
    InputError,
    NotPositiveDefiniteError,
    NumericError,
    PoleError,
    SingularEquationError,
    SingularMatrixError,
    SpectrumError,
    SpinLatticeError,
)
from .evolution import (
    LaxPair,
    SpinVector,
    evolve_lambda0,
    evolve_sigma0,
    ihm_residual,
    lambda_n_at,
    lax_pair,
    positivity_interval,
    spin_evolution,
    spin_vector,
    triple_at,
    weyl_evolution,
    zero_curvature_residual,
)
from .inverse import (
    RiccatiSolution,
    check_minimal,
    invert,
    random_minimal_realization,
    reduce_to_minimal,
    solve_riccati,
)
from .lattice import (
    LatticeState,
    MonotoneDiagnostics,
    generate,
    k_residual,
    lambda_closed_form,
    monotone_diagnostics,
)
from .transfer import Transfer
from .triples import (
    AdmissibilityReport,
    ParameterTriple,
    TripleClass,
    normalize_sigma0,
    pad_triple,
    projectors,
    random_admissible_triple,
    random_general_sigma_triple,
    reduce_triple,
    signature_matrix,
    validate,
)
from .verify import CheckResult, run_checks
from .weyl import (
    Realization,
    SummabilityReport,
    lambda_grid,
    summability_diagnostic,
    weyl,
)
from .worked_example import (
    example_triple,
    phi_closed_form,
    run_diffs,
    spin_closed_form,
)

__version__ = "0.1.0"
