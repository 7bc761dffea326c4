"""File formats: complex matrices as row-major nests of {"re", "im"}
objects, triple and realization JSON, lattice-state JSON, and the CSV
exports used by the command line tools.

JSON emission is deterministic: keys sorted, floats through Python's
shortest round-trip repr, so identical inputs give identical bytes.
"""

import json

import numpy as np

from .errors import InputError
from .triples import ParameterTriple
from .weyl import Realization

__all__ = [
    "complex_to_obj",
    "complex_from_obj",
    "matrix_to_obj",
    "matrix_from_obj",
    "triple_to_obj",
    "triple_from_obj",
    "realization_to_obj",
    "realization_from_obj",
    "state_to_obj",
    "dumps",
    "load_json",
    "spin_csv_rows",
    "write_csv",
]


def complex_to_obj(z):
    z = complex(z)
    return {"re": float(z.real), "im": float(z.imag)}


def complex_from_obj(obj, where="value"):
    if not isinstance(obj, dict) or "re" not in obj or "im" not in obj:
        raise InputError(f"{where}: expected an object with 're' and 'im' keys")
    try:
        z = complex(float(obj["re"]), float(obj["im"]))
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: non-numeric re/im entry") from exc
    if not np.isfinite(z):
        raise InputError(f"{where}: non-finite re/im entry")
    return z


def matrix_to_obj(matrix):
    matrix = np.atleast_2d(np.asarray(matrix, dtype=complex))
    return [[complex_to_obj(z) for z in row] for row in matrix]


def matrix_from_obj(obj, where="matrix"):
    if not isinstance(obj, list) or not obj or not all(
        isinstance(row, list) for row in obj
    ):
        raise InputError(f"{where}: expected a non-empty list of rows")
    width = len(obj[0])
    rows = []
    for i, row in enumerate(obj):
        if len(row) != width:
            raise InputError(f"{where}: ragged row {i}")
        rows.append([complex_from_obj(z, f"{where}[{i}][{j}]")
                     for j, z in enumerate(row)])
    return np.array(rows, dtype=complex)


def triple_to_obj(triple: ParameterTriple):
    obj = {
        "N": triple.order,
        "m": triple.m,
        "alpha": matrix_to_obj(triple.alpha),
        "theta1": matrix_to_obj(triple.theta1),
        "theta2": matrix_to_obj(triple.theta2),
    }
    if not triple.sigma0_is_identity():
        obj["sigma0"] = matrix_to_obj(triple.sigma0)
    return obj


def triple_from_obj(obj, where="triple"):
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected a JSON object")
    for key in ("alpha", "theta1", "theta2"):
        if key not in obj:
            raise InputError(f"{where}: missing field {key!r}")
    sigma0 = None
    if obj.get("sigma0") is not None:
        sigma0 = matrix_from_obj(obj["sigma0"], f"{where}.sigma0")
    triple = ParameterTriple(
        alpha=matrix_from_obj(obj["alpha"], f"{where}.alpha"),
        theta1=matrix_from_obj(obj["theta1"], f"{where}.theta1"),
        theta2=matrix_from_obj(obj["theta2"], f"{where}.theta2"),
        sigma0=sigma0,
    )
    try:
        order, m = int(obj.get("N", triple.order)), int(obj.get("m", triple.m))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{where}: N and m must be integers") from exc
    if order != triple.order:
        raise InputError(
            f"{where}: declared N = {obj['N']} but alpha is {triple.order} x "
            f"{triple.order}"
        )
    if m != triple.m:
        raise InputError(
            f"{where}: declared m = {obj['m']} but theta blocks have "
            f"{triple.m} columns"
        )
    return triple


def realization_to_obj(r: Realization):
    return {
        "N": r.order,
        "m": r.m,
        "gamma": matrix_to_obj(r.gamma),
        "vartheta1": matrix_to_obj(r.vartheta1),
        "vartheta2": matrix_to_obj(r.vartheta2),
    }


def realization_from_obj(obj, where="realization"):
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected a JSON object")
    for key in ("gamma", "vartheta1", "vartheta2"):
        if key not in obj:
            raise InputError(f"{where}: missing field {key!r}")
    return Realization(
        gamma=matrix_from_obj(obj["gamma"], f"{where}.gamma"),
        vartheta1=matrix_from_obj(obj["vartheta1"], f"{where}.vartheta1"),
        vartheta2=matrix_from_obj(obj["vartheta2"], f"{where}.vartheta2"),
    )


def state_to_obj(state):
    return {
        "triple": triple_to_obj(state.triple),
        "n_max": state.n_max,
        "lambdas": [matrix_to_obj(x) for x in state.lambdas],
        "sigmas": [matrix_to_obj(x) for x in state.sigmas],
        "spins": [matrix_to_obj(x) for x in state.spins],
        "conditioning": [float(c) for c in state.conditioning],
        "spin_residuals": [float(r) for r in state.spin_residuals],
    }


def dumps(obj):
    """Deterministic JSON text (sorted keys, trailing newline)."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def load_json(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}") from exc


def spin_csv_rows(state):
    """Rows (n, i, j, re, im) over every entry of every S_n."""
    rows = []
    for n, s in enumerate(state.spins):
        for i in range(s.shape[0]):
            for j in range(s.shape[1]):
                rows.append((n, i, j, float(s[i, j].real), float(s[i, j].imag)))
    return rows


def write_csv(stream, header, rows):
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(
            repr(x) if isinstance(x, float) else str(x) for x in row
        ) + "\n")
