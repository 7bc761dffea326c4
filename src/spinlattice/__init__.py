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
    monodromy_residual,
    positivity_interval,
    spin_evolution,
    spin_vector,
    state_at,
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
    advance,
    generate,
    k_residual,
    lambda_closed_form,
    monotone_diagnostics,
    sigma_quadrature,
    spin_matrix,
)
from .transfer import Transfer, j_power_factor
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
from .verify import CheckResult, check_names, run_checks
from .weyl import (
    BlockDecomposition,
    Realization,
    SummabilityReport,
    block_decomposition,
    lambda_grid,
    summability_diagnostic,
    weyl,
)
from .worked_example import (
    example_triple,
    phi_closed_form,
    run_diffs,
    sigma_closed_form,
    spin_closed_form,
)

__version__ = "0.1.0"
