"""Command line surface.

Subcommands: validate, spins, fundamental, weyl, invert, evolve, verify,
example.  Each returns its output text; ``main`` writes it once, to stdout
or to --output, and turns every error into one stderr line and an exit
code: 0 success, 1 check failure, 2 input error, 3 numeric failure.
"""

import argparse
import contextlib
import functools
import io
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
from .evolution import trajectory
from .inverse import invert
from .lattice import generate
from .transfer import Transfer
from .triples import validate as validate_triple
from .verify import run_checks
from .weyl import weyl
from .worked_example import run_diffs

# Largest modulus of an evaluation point lambda: |lambda|^2, which complex
# products and quotients form, is finite up to it.
_LAMBDA_MAX = float(np.sqrt(np.finfo(float).max))

# Most points of --lambda-grid and of --time-grid: a larger count is an
# input error before any point is made.
GRID_MAX = 100_000


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
        if not np.isfinite(value):
            raise InputError(f"--tol {name}: value must be finite, got {value}")
        overrides[name] = value
    return DEFAULT.replace(**overrides)


def _check_count(flag, count):
    if count > GRID_MAX:
        raise InputError(f"{flag} needs k <= {GRID_MAX}, got {count}")


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
    _check_count("--lambda-grid", count)
    center = complex(c_re, c_im)
    with np.errstate(all="ignore"):
        grid = [center + radius * np.exp(2j * np.pi * k / count)
                for k in range(count)]
    if not (np.abs(grid) <= _LAMBDA_MAX).all():
        raise InputError(f"--lambda-grid needs finite points of modulus at "
                         f"most {_LAMBDA_MAX:.3g}")
    return grid


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
    _check_count("--time-grid", count)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise InputError("--time-grid needs finite endpoints a and b")
    with np.errstate(all="ignore"):
        times = np.linspace(a, b, count)
    if not np.isfinite(times).all():
        raise InputError(f"--time-grid {text} has non-finite points: b - a "
                         f"overflows")
    return list(times)


def _parse_lambda(text):
    try:
        lam = complex(text.replace("i", "j"))
    except ValueError as exc:
        raise InputError(f"bad --lambda value {text!r}") from exc
    if not abs(lam) <= _LAMBDA_MAX:
        raise InputError(f"--lambda must be finite, of modulus at most "
                         f"{_LAMBDA_MAX:.3g}, got {text!r}")
    return lam


def _csv(header, rows):
    stream = io.StringIO()
    serialize.write_csv(stream, header, rows)
    return stream.getvalue()


def _load_triple(path, tol):
    return serialize.triple_from_obj(serialize.load_json(path), path, tol)


def _cmd_validate(args, tol):
    report = validate_triple(_load_triple(args.triple, tol), tol)
    return serialize.dumps({
        "class": report.triple_class.value,
        "identity_ok": report.identity_ok,
        "identity_residual": report.identity_residual,
        "theta1_full_range": report.theta1_full_range,
        "theta2_full_range": report.theta2_full_range,
        "spectrum": list(report.spectrum.eigenvalues),
        "min_imag_part": report.spectrum.min_imag_part,
    })


def _cmd_spins(args, tol):
    state = generate(_load_triple(args.triple, tol), n_max=args.nmax, tol=tol)
    if args.format == "csv":
        return _csv(["n", "i", "j", "re", "im"],
                    serialize.stack_csv_rows(state.spins))
    return serialize.dumps(serialize._state_doc(state))


def _cmd_fundamental(args, tol):
    triple = _load_triple(args.triple, tol)
    lam = _parse_lambda(args.lam)
    state = generate(triple, n_max=args.nmax, tol=tol)
    table = Transfer(state, tol).fundamental_grid([lam])[:, 0]
    if args.format == "csv":
        return _csv(["n", "i", "j", "re", "im"],
                    serialize.stack_csv_rows(table))
    return serialize.dumps({"lambda": lam, "table": [
        {"n": n, "w": w} for n, w in enumerate(table)]})


def _cmd_weyl(args, tol):
    phi = weyl(_load_triple(args.triple, tol), tol)
    grid = _parse_lambda_grid(args.lambda_grid)
    return serialize.dumps([{"lambda": lam, "phi": value}
                            for lam, value in zip(grid, phi.grid(grid, tol))])


def _cmd_invert(args, tol):
    realization = serialize.realization_from_obj(
        serialize.load_json(args.realization), args.realization
    )
    return serialize.dumps(serialize._triple_doc(invert(realization, tol)))


def _cmd_evolve(args, tol):
    triple = _load_triple(args.triple, tol)
    times = _parse_time_grid(args.time_grid)
    lam_probe = 2.0 + 0.5j
    columns = ["t", "n", "s1", "s2", "s3", "zc_residual", "ihm_residual"]
    sites = range(1, args.nmax - 1)
    as_json = args.format == "json"
    rows = []
    for grid, zc, ihm in trajectory(triple, times, args.nmax, lam_probe,
                                    tol=tol):
        vectors = grid.vectors[:, 1:-1].tolist()
        zc, ihm = zc.tolist(), ihm.tolist()
        sigma0 = grid.sigma0.copy() if as_json else None
        for k, t in enumerate(grid.times.tolist()):
            cells = [(t, n, *vectors[k][i], zc[k][i], ihm[k][i])
                     for i, n in enumerate(sites)]
            if as_json:
                # one object per time: Sigma_0(t) once, then its sites
                cells = [{"t": t, "sigma0": sigma0[k], "sites": [
                    dict(zip(columns[1:], cell[1:])) for cell in cells]}]
            rows += cells
    return serialize.dumps(rows) if as_json else _csv(columns, rows)


def _cmd_verify(args, tol):
    results = run_checks(_load_triple(args.triple, tol), n_max=args.nmax,
                         tol=tol)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = (f"{r.name}: {status} residual={r.residual:.3e} "
                f"threshold={r.threshold:.3e}")
        if r.detail:
            line += f" ({r.detail})"
        lines.append(line)
    all_passed = all(r.passed for r in results)
    lines.append("all checks passed" if all_passed else "some checks FAILED")
    return "\n".join(lines) + "\n", 0 if all_passed else 1


def _cmd_example(args, tol):
    lines = []
    worst = 0.0
    for name, got, want, diff in run_diffs(h=args.h, tol=tol):
        # Sigma_n grows like ((h + 1) / h)^(2n): diffs are relative to it
        worst = max(worst, diff / max(1.0, abs(want)))
        lines.append(f"{name}: computed={got:.15g} expected={want:.15g} "
                     f"diff={diff:.3e}")
    passed = worst <= 1e-12
    lines.append(f"max relative diff {worst:.3e} "
                 + ("<= 1e-12: PASS" if passed else "> 1e-12: FAIL"))
    return "\n".join(lines) + "\n", 0 if passed else 1


@functools.cache
def _parser():
    """The parser, built once per process: parse_args leaves it unchanged
    and returns a fresh Namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="spinlattice",
        description="Discrete canonical systems: spin sequences, transfer "
                    "matrices, Weyl functions and explicit Heisenberg "
                    "lattice solutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, source="triple", nmax=10):
        if source:
            p.add_argument(source, help=f"path to a {source} JSON file")
        p.add_argument("--tol", action="append", metavar="name=value",
                       help="tolerance override (repeatable)")
        if nmax is not None:
            p.add_argument("--nmax", type=int, default=nmax,
                           help="lattice horizon")
        p.add_argument("--output", "-o", help="output path (default stdout)")

    p = sub.add_parser("validate", help="classify a triple")
    common(p, nmax=None)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("spins", help="export the generated lattice state")
    common(p)
    p.set_defaults(func=_cmd_spins, nmax_floor=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("fundamental",
                       help="table of the fundamental solution at one lambda")
    common(p)
    p.set_defaults(func=_cmd_fundamental, nmax_floor=0)
    p.add_argument("--lambda", dest="lam", required=True,
                   help="evaluation point, e.g. '2+0.5i'")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("weyl", help="sample the Weyl function on a grid")
    common(p, nmax=None)
    p.set_defaults(func=_cmd_weyl)
    p.add_argument("--lambda-grid", metavar="c_re,c_im,r,k",
                   help="circle grid: center, radius, count "
                        "(default 0,-2,3,8)")

    p = sub.add_parser("invert",
                       help="recover the triple from a realization")
    common(p, "realization", nmax=None)
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("evolve", help="time evolution trajectory")
    common(p, nmax=4)
    p.set_defaults(func=_cmd_evolve, nmax_floor=3)
    p.add_argument("--time-grid", metavar="a,b,k",
                   help="linspace spec (default 0,1,11)")
    p.add_argument("--format", choices=("json", "csv"), default="csv")

    p = sub.add_parser("verify", help="run the named invariant suite")
    common(p, nmax=15)
    p.set_defaults(func=_cmd_verify, nmax_floor=1)

    p = sub.add_parser("example",
                       help="diff the scalar family against closed forms")
    p.add_argument("--h", type=float, default=2.0)
    common(p, None, nmax=None)
    p.set_defaults(func=_cmd_example)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        tol = _parse_tolerances(args.tol)
        if getattr(args, "nmax", 0) < getattr(args, "nmax_floor", 0):
            raise InputError(f"--nmax must be >= {args.nmax_floor}, "
                             f"got {args.nmax}")
        result = args.func(args, tol)
        text, code = result if isinstance(result, tuple) else (result, 0)
        try:
            if args.output:
                with open(args.output, "w") as stream:
                    stream.write(text)
            else:   # a closed pipe or a full device fails here
                sys.stdout.write(text)
                sys.stdout.flush()
        except OSError as exc:
            if not args.output:   # else its buffered bytes fail again at exit
                with contextlib.suppress(OSError):   # an in-memory stdout
                    fd = sys.stdout.fileno()
                    devnull = os.open(os.devnull, os.O_WRONLY)
                    os.dup2(devnull, fd)
                    os.close(devnull)
            raise InputError(f"cannot write {args.output or 'stdout'}: "
                             f"{exc.strerror}") from exc
        return code
    except (InputError, DimensionError, AdmissibilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpinLatticeError as exc:
        # an evolve error names the failing time, unless its message does
        message = str(exc)
        if (hasattr(exc, "time") and "t = " not in message
                and not message.startswith("time t ")):
            message += f" (at t = {exc.time:g})"
        print(f"numeric failure: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
