"""The import surface of the package: each module's ``__all__``, the names
that ``spinlattice/__init__.py`` re-exports, and the names each module
imports; and the range checks of the site, term and step arguments where
they enter the public functions."""

import ast
import importlib
import pathlib
import pkgutil
import warnings

import numpy as np
import pytest

import spinlattice
from spinlattice import (Transfer, generate, ihm_residual, k_residual,
                         lambda_closed_form, lambda_grid, lambda_n_at,
                         lax_pair, pad_triple, positivity_interval,
                         random_admissible_triple,
                         random_general_sigma_triple, run_checks,
                         spin_evolution, summability_diagnostic, weyl,
                         zero_curvature_residual)
from spinlattice.errors import InputError, NumericError
from spinlattice.worked_example import example_triple

PACKAGE = pathlib.Path(spinlattice.__file__).parent
MODULES = sorted(info.name for info in pkgutil.iter_modules([str(PACKAGE)]))


def _tree(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text())


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"spinlattice.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []


def test_the_package_reexports_only_names_in_all():
    """A module without ``__all__`` exports its names that do not start
    with an underscore, as ``from module import *`` does."""
    outside = []
    for node in ast.walk(_tree("__init__")):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"spinlattice.{node.module}")
            public = getattr(module, "__all__", None)
            if public is None:
                public = [attr for attr in vars(module)
                          if not attr.startswith("_")]
            outside += [f"{node.module}.{alias.name}" for alias in node.names
                        if alias.name not in public]
    assert outside == []


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_a_name_it_never_reads(name):
    tree = _tree(name)
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(imported - read) == []


def test_every_private_function_is_read_somewhere():
    """Each module-level private function and each private method of the
    package is named somewhere in the package other than its definition:
    a helper that a refactor leaves behind fails here.  Dunders are
    excluded."""
    defined, read = set(), set()
    for name in MODULES:
        tree = _tree(name)
        scopes = [tree.body] + [node.body for node in ast.walk(tree)
                                if isinstance(node, ast.ClassDef)]
        defined |= {f"{name}.py {node.name}" for body in scopes
                    for node in body
                    if isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_")
                    and not node.name.endswith("__")}
        read |= {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Name, ast.Attribute))}
    assert sorted(d for d in defined if d.split()[1] not in read) == []


def test_the_cache_of_work_on_alpha_is_named_only_by_its_owner():
    """``ParameterTriple._spectra``, the cache of the spectrum reports,
    resolvents and eigenbasis of alpha, is named (as an attribute, a
    variable or a string) in ``triples.py`` alone: other modules read it
    through the methods of the triple and keep no second cache."""
    names = [f"{name}.py:{node.lineno}" for name in MODULES
             if name != "triples" for node in ast.walk(_tree(name))
             if "_spectra" in (getattr(node, "attr", None),
                               getattr(node, "id", None),
                               getattr(node, "value", None))]
    assert names == []


def test_no_module_reads_a_tolerance_off_the_default_table():
    """A tolerance is read off the table a function was given, so that
    ``--tol`` reaches it: ``DEFAULT`` appears only as a parameter default
    and as the base of ``DEFAULT.replace``."""
    fields = set(spinlattice.Tolerances.names())
    reads = [f"{name}.py:{node.lineno} DEFAULT.{node.attr}"
             for name in MODULES for node in ast.walk(_tree(name))
             if isinstance(node, ast.Attribute) and node.attr in fields
             and isinstance(node.value, ast.Name)
             and node.value.id == "DEFAULT"]
    assert reads == []


def _doors():
    """``spinlattice.<name>`` for each name that ``__init__`` re-exports and
    ``<module>.<name>`` for each name of a module's ``__all__``, sorted."""
    doors = [f"spinlattice.{alias.name}"
             for node in ast.walk(_tree("__init__"))
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    for name in MODULES:
        module = importlib.import_module(f"spinlattice.{name}")
        doors += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())]
    return sorted(doors)


# The public surface, one door per line: adding or deleting a name is a
# one-line diff here.
SURFACE = """
evolution.LaxPair
evolution.SpinVector
evolution.TimeGrid
evolution.evolve_lambda0
evolution.evolve_sigma0
evolution.ihm_residual
evolution.lambda_n_at
evolution.lax_pair
evolution.positivity_interval
evolution.spin_evolution
evolution.spin_vector
evolution.trajectory
evolution.triple_at
evolution.weyl_evolution
evolution.zero_curvature_residual
inverse.RiccatiSolution
inverse.check_minimal
inverse.invert
inverse.random_minimal_realization
inverse.reduce_to_minimal
inverse.solve_riccati
lattice.LatticeStack
lattice.LatticeState
lattice.MonotoneDiagnostics
lattice.generate
lattice.generate_stack
lattice.k_residual
lattice.lambda_closed_form
lattice.monotone_diagnostics
linalg.SpectrumReport
linalg.as_matrix
linalg.check_pole
linalg.cond
linalg.frob
linalg.frob_norms
linalg.herm
linalg.hermitian_powers
linalg.inv
linalg.is_full_range
linalg.krylov_basis
linalg.require_hermitian
linalg.solve
linalg.solve_sylvester
linalg.spectrum
serialize.complex_from_obj
serialize.complex_to_obj
serialize.dumps
serialize.load_json
serialize.matrix_from_obj
serialize.matrix_to_obj
serialize.realization_from_obj
serialize.realization_to_obj
serialize.stack_csv_rows
serialize.state_to_obj
serialize.triple_from_obj
serialize.triple_to_obj
serialize.write_csv
spinlattice.AdmissibilityError
spinlattice.AdmissibilityReport
spinlattice.CheckResult
spinlattice.ConditioningError
spinlattice.DEFAULT
spinlattice.DegeneracyError
spinlattice.DimensionError
spinlattice.InputError
spinlattice.LatticeState
spinlattice.LaxPair
spinlattice.MonotoneDiagnostics
spinlattice.NotPositiveDefiniteError
spinlattice.NumericError
spinlattice.ParameterTriple
spinlattice.PoleError
spinlattice.Realization
spinlattice.RiccatiSolution
spinlattice.SingularEquationError
spinlattice.SingularMatrixError
spinlattice.SpectrumError
spinlattice.SpinLatticeError
spinlattice.SpinVector
spinlattice.SummabilityReport
spinlattice.Tolerances
spinlattice.Transfer
spinlattice.TripleClass
spinlattice.check_minimal
spinlattice.evolve_lambda0
spinlattice.evolve_sigma0
spinlattice.example_triple
spinlattice.generate
spinlattice.ihm_residual
spinlattice.invert
spinlattice.k_residual
spinlattice.lambda_closed_form
spinlattice.lambda_grid
spinlattice.lambda_n_at
spinlattice.lax_pair
spinlattice.monotone_diagnostics
spinlattice.normalize_sigma0
spinlattice.pad_triple
spinlattice.phi_closed_form
spinlattice.positivity_interval
spinlattice.projectors
spinlattice.random_admissible_triple
spinlattice.random_general_sigma_triple
spinlattice.random_minimal_realization
spinlattice.reduce_to_minimal
spinlattice.reduce_triple
spinlattice.run_checks
spinlattice.run_diffs
spinlattice.signature_matrix
spinlattice.solve_riccati
spinlattice.spin_closed_form
spinlattice.spin_evolution
spinlattice.spin_vector
spinlattice.summability_diagnostic
spinlattice.triple_at
spinlattice.validate
spinlattice.weyl
spinlattice.weyl_evolution
spinlattice.zero_curvature_residual
transfer.Transfer
triples.AdmissibilityReport
triples.ParameterTriple
triples.TripleClass
triples.normalize_sigma0
triples.pad_triple
triples.projectors
triples.random_admissible_triple
triples.random_general_sigma_triple
triples.reduce_triple
triples.signature_matrix
triples.validate
verify.CheckResult
verify.run_checks
weyl.Realization
weyl.SummabilityReport
weyl.lambda_grid
weyl.summability_diagnostic
weyl.weyl
worked_example.example_triple
worked_example.lambda_closed_form_t
worked_example.phi_closed_form
worked_example.run_diffs
worked_example.spin_closed_form
""".split()


def test_the_public_surface_is_pinned():
    assert _doors() == SURFACE


# the TypeError of operator.index on a float where a whole number is read
_NOT_WHOLE = r"^'float' object cannot be interpreted as an integer$"


def _refused(call, match, id, error=ValueError):
    """A case of the hostile-input parametrize below: ``call`` raises
    ``error`` with a message that matches ``match``."""
    return pytest.param(call, error, match, id=id)


@pytest.mark.parametrize("call, error, match", [
    _refused(lambda t, s: k_residual(s, -1), r"site -1 outside 0\.\.2 ",
             id="k_residual-negative-site"),
    _refused(lambda t, s: k_residual(s, 3), r"site 3 outside 0\.\.2 ",
             id="k_residual-site-past-horizon"),
    _refused(lambda t, s: spin_evolution(t, -1, 0.1),
             r"site n >= 0, got -1", id="spin_evolution-negative-site"),
    _refused(lambda t, s: lambda_closed_form(t, -1),
             r"^lambda_closed_form needs a site n >= 0, got -1$",
             id="lambda_closed_form-negative-site"),
    _refused(lambda t, s: lambda_closed_form(example_triple(2.0), 2000),
             r"^Lambda_2000 is not finite: the lattice powers leave ",
             id="lambda_closed_form-overflowing-site", error=NumericError),
    _refused(lambda t, s: lambda_n_at(example_triple(2.0), 10 ** 6, 0.3),
             r"^Lambda_1000000 is not finite: the lattice powers leave ",
             id="lambda_n_at-overflowing-site", error=NumericError),
    _refused(lambda t, s: lambda_n_at(t, -1, 0.1),
             r"^lambda_n_at needs a site n >= 0, got -1$",
             id="lambda_n_at-negative-site"),
    _refused(lambda t, s: zero_curvature_residual(t, 0, 0.1, 2.0),
             r"^zero_curvature_residual needs a site n >= 1, got 0$",
             id="zero_curvature_residual-site-zero"),
    _refused(lambda t, s: ihm_residual(t, -1, 0.1),
             r"^ihm_residual needs a site n >= 1, got -1$",
             id="ihm_residual-negative-site"),
    _refused(lambda t, s: lax_pair(t, 0, 0.1, 2.0),
             r"^lax_pair needs a site n >= 1, got 0$",
             id="lax_pair-site-zero"),
    _refused(lambda t, s: lax_pair(t, -2, 0.1, 2.0),
             r"^lax_pair needs a site n >= 1, got -2$",
             id="lax_pair-negative-site"),
    _refused(lambda t, s: generate(t, -1), r"n_max must be non-negative",
             id="generate-negative-horizon"),
    _refused(lambda t, s: summability_diagnostic(t, -2j, n_terms=0),
             r"n_terms >= 1, got 0", id="summability-no-terms"),
    _refused(lambda t, s: positivity_interval(t, step=0),
             r"step > 0 .*, got step = 0", id="positivity-zero-step"),
    _refused(lambda t, s: positivity_interval(t, step=-0.1),
             r"step > 0 .*, got step = -0\.1",
             id="positivity-negative-step"),
    _refused(lambda t, s: positivity_interval(t, t_max=np.inf),
             r"t_max >= 0, got inf", id="positivity-infinite-t_max"),
    _refused(lambda t, s: positivity_interval(t, t_max=-1.0),
             r"t_max >= 0, got -1\.0", id="positivity-negative-t_max"),
    _refused(lambda t, s: positivity_interval(t, t_max=1e300, step=1e-300),
             r"finite t_max / step, got step = 1e-300",
             id="positivity-overflowing-step-count"),
    _refused(lambda t, s: positivity_interval(example_triple(2.0), t_max=1.0,
                                              step=1e-300),
             r"^positivity_interval would march 1e\+300 points per side, "
             r"beyond the limit of 100000$", id="positivity-march-past-cap"),
    _refused(lambda t, s: lambda_grid(t.alpha, count=-1),
             r"^lambda_grid needs a count >= 0, got -1$",
             id="lambda_grid-negative-count"),
    _refused(lambda t, s: zero_curvature_residual(t, 1, 0.1, 2.0, h_t=0.0),
             r"^h_t must be finite and nonzero, got 0\.0$",
             id="zero_curvature_residual-zero-step"),
    _refused(lambda t, s: ihm_residual(t, 1, 0.1, h_t=0.0),
             r"^h_t must be finite and nonzero, got 0\.0$",
             id="ihm_residual-zero-step"),
    _refused(lambda t, s: zero_curvature_residual(t, 1, 0.1, 2.0,
                                                  h_t=np.nan),
             r"^h_t must be finite and nonzero, got nan$",
             id="zero_curvature_residual-nan-step"),
    _refused(lambda t, s: ihm_residual(t, 1, 0.1, h_t=np.inf),
             r"^h_t must be finite and nonzero, got inf$",
             id="ihm_residual-infinite-step"),
    _refused(lambda t, s: Transfer(s).w(1, np.nan),
             r"^lambda must be finite, got \(nan\+0j\)$", id="w-nan-lambda",
             error=InputError),
    _refused(lambda t, s: Transfer(s).w(1, np.inf),
             r"^lambda must be finite, got \(inf\+0j\)$", id="w-inf-lambda",
             error=InputError),
    _refused(lambda t, s: Transfer(s).fundamental(1, np.nan),
             r"^lambda must be finite, got \(nan\+0j\)$",
             id="fundamental-nan-lambda", error=InputError),
    _refused(lambda t, s: Transfer(s).identity_residual(1, np.nan),
             r"^lambda must be finite, got \(nan\+0j\)$",
             id="identity_residual-nan-lambda", error=InputError),
    _refused(lambda t, s: weyl(t)(np.nan),
             r"^lambda must be finite, got \(nan\+0j\)$",
             id="weyl-nan-lambda", error=InputError),
    _refused(lambda t, s: weyl(t)(np.inf),
             r"^lambda must be finite, got \(inf\+0j\)$",
             id="weyl-inf-lambda", error=InputError),
    _refused(lambda t, s: summability_diagnostic(t, complex(0, -np.inf)),
             r"^lambda must be finite, got -infj$",
             id="summability-infinite-lambda", error=InputError),
    _refused(lambda t, s: lax_pair(t, 1, 0.1, np.nan),
             r"^lambda must be finite, got \(nan\+0j\)$",
             id="lax_pair-nan-lambda", error=InputError),
    _refused(lambda t, s: zero_curvature_residual(t, 1, 0.1, np.nan),
             r"^lambda must be finite, got \(nan\+0j\)$",
             id="zero_curvature_residual-nan-lambda", error=InputError),
    _refused(lambda t, s: generate(t, 2.5), _NOT_WHOLE,
             id="generate-fractional-horizon", error=TypeError),
    _refused(lambda t, s: run_checks(t, 2.5), _NOT_WHOLE,
             id="run_checks-fractional-horizon", error=TypeError),
    _refused(lambda t, s: lambda_closed_form(t, 2.5), _NOT_WHOLE,
             id="lambda_closed_form-fractional-site", error=TypeError),
    _refused(lambda t, s: random_admissible_triple(
        np.random.default_rng(0), 0, 1), r"^order must be >= 1, got 0$",
             id="random_admissible_triple-order-zero"),
    _refused(lambda t, s: random_admissible_triple(
        np.random.default_rng(0), 2, 0), r"^m must be >= 1, got 0$",
             id="random_admissible_triple-m-zero"),
    _refused(lambda t, s: random_general_sigma_triple(
        np.random.default_rng(0), 2, 0), r"^m must be >= 1, got 0$",
             id="random_general_sigma_triple-m-zero"),
    _refused(lambda t, s: pad_triple(t, np.random.default_rng(0), -1),
             r"^pad must be >= 0, got -1$", id="pad_triple-negative-pad"),
])
def test_site_term_and_step_arguments_are_checked_where_they_enter(
        call, error, match):
    """A ValueError naming the argument and its range, not an IndexError,
    ZeroDivisionError or OverflowError further in, nor a value read from
    the wrong site or an empty march; a NumericError naming the site
    where Lambda_n leaves the floating point range, not NaN; an InputError
    naming a NaN or infinite lambda, not a KeyError or NaN; and the
    TypeError of ``operator.index`` on a fractional horizon, before any
    work.  No numpy warning is emitted."""
    triple = random_admissible_triple(np.random.default_rng(1), 2, 1)
    state = generate(triple, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            call(triple, state)


@pytest.mark.parametrize("call, shape", [
    pytest.param(lambda t, s: weyl(t).grid([]), (0, 1, 1), id="weyl-grid"),
    pytest.param(lambda t, s: Transfer(s).w_grid([]), (4, 0, 2, 2),
                 id="w_grid"),
    pytest.param(lambda t, s: Transfer(s).fundamental_grid([]), (4, 0, 2, 2),
                 id="fundamental_grid"),
])
def test_an_empty_batch_is_an_empty_stack(call, shape):
    """A batch of no lambdas, beside the refusals above: a stack of no
    matrices, shaped as a batch of some, not a SingularMatrixError or
    numpy's ValueError of an empty np.stack.  No numpy warning is
    emitted."""
    triple = random_admissible_triple(np.random.default_rng(1), 2, 1)
    state = generate(triple, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert call(triple, state).shape == shape
