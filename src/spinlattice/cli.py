"""Command line surface.

Subcommands: validate, spins, fundamental, weyl, invert, evolve, verify,
example.  Exit codes: 0 success, 1 check failure, 2 input error, 3 numeric
failure.
"""

import argparse
import contextlib
import logging
import os
import sys

import numpy as np

from . import serialize
from .config import DEFAULT, Tolerances
from .errors import (
    AdmissibilityError,
    DimensionError,
    InputError,
    SpinLatticeError,
)
from .evolution import TimeSlice
from .inverse import invert
from .lattice import generate
from .transfer import Transfer
from .triples import validate as validate_triple
from .verify import run_checks
from .weyl import weyl
from .worked_example import run_diffs

log = logging.getLogger("spinlattice")


def _parse_tolerances(pairs):
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise InputError(f"--tol expects name=value, got {pair!r}")
        name, _, value = pair.partition("=")
        name = name.strip()
        if name not in Tolerances.names():
            raise InputError(
                f"unknown tolerance {name!r}; known: "
                f"{', '.join(Tolerances.names())}"
            )
        try:
            value = float(value)
        except ValueError as exc:
            raise InputError(f"--tol {name}: non-numeric value {value!r}") from exc
        if value <= 0:
            raise InputError(f"--tol {name}: value must be positive")
        overrides[name] = value
    return DEFAULT.replace(**overrides)


def _parse_lambda_grid(text):
    parts = (text or "0,-2,3,8").split(",")
    if len(parts) != 4:
        raise InputError("--lambda-grid expects c_re,c_im,r,k")
    try:
        c_re, c_im, radius = (float(p) for p in parts[:3])
        count = int(parts[3])
    except ValueError as exc:
        raise InputError(f"bad --lambda-grid value: {exc}") from exc
    if count < 1 or radius <= 0:
        raise InputError("--lambda-grid needs k >= 1 and r > 0")
    center = complex(c_re, c_im)
    return [center + radius * np.exp(2j * np.pi * k / count)
            for k in range(count)]


def _parse_time_grid(text):
    parts = (text or "0,1,11").split(",")
    if len(parts) != 3:
        raise InputError("--time-grid expects a,b,k")
    try:
        a, b = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise InputError(f"bad --time-grid value: {exc}") from exc
    if count < 1:
        raise InputError("--time-grid needs k >= 1")
    if not (np.isfinite(a) and np.isfinite(b)):
        raise InputError("--time-grid needs finite endpoints a and b")
    return list(np.linspace(a, b, count))


def _check_nmax(args):
    low = 1 if args.command == "verify" else 0
    if getattr(args, "nmax", low) < low:
        raise InputError(f"--nmax must be >= {low}, got {args.nmax}")


@contextlib.contextmanager
def _output(args):
    """The --output file, closed on exit, or stdout when none is given."""
    if getattr(args, "output", None):
        with open(args.output, "w") as stream:
            yield stream
    else:
        yield sys.stdout


def _load_triple(path):
    return serialize.triple_from_obj(serialize.load_json(path), path)


def _cmd_validate(args, tol):
    triple = _load_triple(args.triple)
    report = validate_triple(triple, tol)
    obj = {
        "class": report.triple_class.value,
        "identity_ok": report.identity_ok,
        "identity_residual": report.identity_residual,
        "theta1_full_range": report.theta1_full_range,
        "theta2_full_range": report.theta2_full_range,
        "spectrum": [serialize.complex_to_obj(z)
                     for z in report.spectrum.eigenvalues],
        "min_imag_part": report.spectrum.min_imag_part,
    }
    with _output(args) as out:
        out.write(serialize.dumps(obj))
    return 0


def _cmd_spins(args, tol):
    triple = _load_triple(args.triple)
    state = generate(triple, n_max=args.nmax, tol=tol)
    with _output(args) as out:
        if args.format == "csv":
            serialize.write_csv(out, ["n", "i", "j", "re", "im"],
                                serialize.spin_csv_rows(state))
        else:
            out.write(serialize.dumps(serialize.state_to_obj(state)))
    return 0


def _cmd_fundamental(args, tol):
    triple = _load_triple(args.triple)
    try:
        lam = complex(args.lam.replace("i", "j"))
    except ValueError as exc:
        raise InputError(f"bad --lambda value {args.lam!r}") from exc
    state = generate(triple, n_max=args.nmax, tol=tol)
    transfer = Transfer(state, tol)
    if args.format == "csv":
        rows = []
        for n in range(args.nmax + 1):
            w = transfer.fundamental(n, lam)
            for i in range(w.shape[0]):
                for j in range(w.shape[1]):
                    rows.append((n, i, j, float(w[i, j].real),
                                 float(w[i, j].imag)))
        with _output(args) as out:
            serialize.write_csv(out, ["n", "i", "j", "re", "im"], rows)
    else:
        obj = [{"n": n,
                "w": serialize.matrix_to_obj(transfer.fundamental(n, lam))}
               for n in range(args.nmax + 1)]
        with _output(args) as out:
            out.write(serialize.dumps(
                {"lambda": serialize.complex_to_obj(lam), "table": obj}
            ))
    return 0


def _cmd_weyl(args, tol):
    triple = _load_triple(args.triple)
    phi = weyl(triple, tol)
    grid = _parse_lambda_grid(args.lambda_grid)
    samples = [
        {"lambda": serialize.complex_to_obj(lam),
         "phi": serialize.matrix_to_obj(phi(lam, tol))}
        for lam in grid
    ]
    with _output(args) as out:
        out.write(serialize.dumps(samples))
    return 0


def _cmd_invert(args, tol):
    realization = serialize.realization_from_obj(
        serialize.load_json(args.realization), args.realization
    )
    triple = invert(realization, tol)
    with _output(args) as out:
        out.write(serialize.dumps(serialize.triple_to_obj(triple)))
    return 0


def _cmd_evolve(args, tol):
    triple = _load_triple(args.triple)
    times = _parse_time_grid(args.time_grid)
    n_max = max(args.nmax, 3)
    lam_probe = 2.0 + 0.5j
    columns = ["t", "n", "s1", "s2", "s3", "zc_residual", "ihm_residual"]
    rows = []
    for t in times:
        lattice = TimeSlice(triple, t, n_max, method=args.method, tol=tol)
        state = lattice.state
        for n in range(1, n_max - 1):
            vec = lattice.vectors[n]
            rows.append(dict(zip(columns, (
                float(t), n, vec.s1, vec.s2, vec.s3,
                lattice.zero_curvature(n, lam_probe), lattice.ihm(n)))))
            if args.format == "json":
                rows[-1]["spin"] = serialize.matrix_to_obj(state.spins[n])
                rows[-1]["sigma0"] = serialize.matrix_to_obj(state.sigmas[0])
    with _output(args) as out:
        if args.format == "json":
            out.write(serialize.dumps(rows))
        else:
            serialize.write_csv(out, columns,
                                ([row[c] for c in columns] for row in rows))
    return 0


def _cmd_verify(args, tol):
    triple = _load_triple(args.triple)
    results = run_checks(triple, n_max=args.nmax, tol=tol)
    lines = []
    all_passed = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = (f"{r.name}: {status} residual={r.residual:.3e} "
                f"threshold={r.threshold:.3e}")
        if r.detail:
            line += f" ({r.detail})"
        lines.append(line)
        all_passed &= r.passed
    lines.append("all checks passed" if all_passed else "some checks FAILED")
    with _output(args) as out:
        out.write("\n".join(lines) + "\n")
    return 0 if all_passed else 1


def _cmd_example(args, tol):
    rows = run_diffs(h=args.h, tol=tol)
    lines = []
    worst = 0.0
    for name, got, want, diff in rows:
        worst = max(worst, diff)
        lines.append(f"{name}: computed={got:.15g} expected={want:.15g} "
                     f"diff={diff:.3e}")
    passed = worst <= 1e-12
    lines.append(f"max diff {worst:.3e} "
                 + ("<= 1e-12: PASS" if passed else "> 1e-12: FAIL"))
    with _output(args) as out:
        out.write("\n".join(lines) + "\n")
    return 0 if passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spinlattice",
        description="Discrete canonical systems: spin sequences, transfer "
                    "matrices, Weyl functions and explicit Heisenberg "
                    "lattice solutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, triple=True, nmax=10):
        if triple:
            p.add_argument("triple", help="path to a triple JSON file")
        p.add_argument("--tol", action="append", metavar="name=value",
                       help="tolerance override (repeatable)")
        p.add_argument("--nmax", type=int, default=nmax,
                       help="lattice horizon")
        p.add_argument("--output", "-o", help="output path (default stdout)")

    p = sub.add_parser("validate", help="classify a triple")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("spins", help="export the generated lattice state")
    common(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_spins)

    p = sub.add_parser("fundamental",
                       help="table of the fundamental solution at one lambda")
    common(p)
    p.add_argument("--lambda", dest="lam", required=True,
                   help="evaluation point, e.g. '2+0.5i'")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_fundamental)

    p = sub.add_parser("weyl", help="sample the Weyl function on a grid")
    common(p)
    p.add_argument("--lambda-grid", metavar="c_re,c_im,r,k",
                   help="circle grid: center, radius, count "
                        "(default 0,-2,3,8)")
    p.set_defaults(func=_cmd_weyl)

    p = sub.add_parser("invert",
                       help="recover the triple from a realization")
    p.add_argument("realization", help="path to a realization JSON file")
    p.add_argument("--tol", action="append", metavar="name=value")
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("evolve", help="time evolution trajectory")
    common(p, nmax=4)
    p.add_argument("--time-grid", metavar="a,b,k",
                   help="linspace spec (default 0,1,11)")
    p.add_argument("--method", choices=("sylvester", "ode"),
                   default="sylvester")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("verify", help="run the named invariant suite")
    common(p, nmax=15)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("example",
                       help="diff the scalar family against closed forms")
    p.add_argument("--h", type=float, default=2.0)
    p.add_argument("--tol", action="append", metavar="name=value")
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_example)
    return parser


def main(argv=None):
    level = os.environ.get("SPINLATTICE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = _parse_tolerances(args.tol)
        _check_nmax(args)
        return args.func(args, tol)
    except (InputError, DimensionError, AdmissibilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpinLatticeError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
