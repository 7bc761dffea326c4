"""File formats: complex matrices as row-major nests of {"re", "im"}
objects, triple and realization JSON, lattice-state JSON, and the CSV
exports used by the command line tools.

``dumps`` writes a document: a nest of dicts with str keys, lists and JSON
scalars whose leaves may also be complex numbers and complex matrices
(``ndarray``).  Its bytes are those of ``json.dumps(obj, sort_keys=True,
indent=2)`` for the plain object in which each complex leaf is a
``complex_to_obj`` dict and each matrix a ``matrix_to_obj`` nest, but no
per-entry dicts are built.  It writes in two steps.  One walk of the
document builds its text as one %-template (a cached template per matrix
shape, cached string literals and complex templates, % doubled in keys
and strings) and collects its floats, matrices straight from their
arrays.  Then one orjson call writes the text of every float in C, and
one % fills the template.  orjson's shortest round-trip text is Python's
repr for zero and for every magnitude in [1e-4, 1e16); the few other
floats, and NaN and the infinities, are written by repr as json writes
them.  Keys are sorted, so identical inputs give identical bytes.
"""

import cmath
import functools
import json
import math

import numpy as np
import orjson

from . import linalg
from .config import DEFAULT, Tolerances
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
    "stack_csv_rows",
    "write_csv",
]


def complex_to_obj(z):
    z = complex(z)
    return {"re": float(z.real), "im": float(z.imag)}


def complex_from_obj(obj, where="value"):
    if not isinstance(obj, dict) or "re" not in obj or "im" not in obj:
        raise InputError(f"{where}: expected an object with 're' and 'im' keys")
    re, im = obj["re"], obj["im"]
    if (not isinstance(re, (int, float)) or not isinstance(im, (int, float))
            or isinstance(re, bool) or isinstance(im, bool)):
        raise InputError(f"{where}: non-numeric re/im entry")
    try:
        z = complex(float(re), float(im))
    except OverflowError as exc:    # an integer beyond the float range
        raise InputError(f"{where}: re/im entry beyond the float "
                         f"range") from exc
    if not cmath.isfinite(z):
        raise InputError(f"{where}: non-finite re/im entry")
    return z


def matrix_to_obj(matrix):
    matrix = np.atleast_2d(np.asarray(matrix, dtype=complex))
    return [[complex_to_obj(z) for z in row] for row in matrix]


def matrix_from_obj(obj, where="matrix"):
    if not isinstance(obj, list) or not obj or not all(
        isinstance(row, list) and row for row in obj
    ):
        raise InputError(f"{where}: expected a non-empty list of non-empty "
                         f"rows")
    width = len(obj[0])
    rows = []
    for i, row in enumerate(obj):
        if len(row) != width:
            raise InputError(f"{where}: ragged row {i}")
        rows.append([complex_from_obj(z, f"{where}[{i}][{j}]")
                     for j, z in enumerate(row)])
    return np.array(rows, dtype=complex)


def _plain(doc):
    """The plain JSON object of a document: complex leaves become
    ``complex_to_obj`` dicts and arrays ``matrix_to_obj`` nests."""
    if isinstance(doc, dict):
        return {key: _plain(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_plain(value) for value in doc]
    if isinstance(doc, complex):
        return complex_to_obj(doc)
    if isinstance(doc, np.ndarray):
        return matrix_to_obj(doc)
    return doc


def _triple_doc(triple: ParameterTriple):
    doc = {
        "N": triple.order,
        "m": triple.m,
        "alpha": triple.alpha,
        "theta1": triple.theta1,
        "theta2": triple.theta2,
    }
    if not triple.sigma0_is_identity():
        doc["sigma0"] = triple.sigma0
    return doc


def triple_to_obj(triple: ParameterTriple):
    return _plain(_triple_doc(triple))


def _fields(obj, where, keys):
    """The matrices of the required ``keys`` of the JSON object ``obj``."""
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected a JSON object")
    for key in keys:
        if key not in obj:
            raise InputError(f"{where}: missing field {key!r}")
    return {key: matrix_from_obj(obj[key], f"{where}.{key}") for key in keys}


def _check_declared(obj, where, order, m, square, blocks):
    """Refuse a declared N or m that is no integer or that disagrees with
    the order of the matrix ``square`` or the width of the ``blocks``."""
    for key, size, found in (("N", order, f"{square} is {order} x {order}"),
                             ("m", m, f"{blocks} blocks have {m} columns")):
        declared = obj.get(key, size)
        if isinstance(declared, bool) or not isinstance(declared, int):
            raise InputError(f"{where}: N and m must be integers")
        if declared != size:
            raise InputError(f"{where}: declared {key} = {declared} but "
                             f"{found}")


def triple_from_obj(obj, where="triple", tol: Tolerances = DEFAULT):
    fields = _fields(obj, where, ("alpha", "theta1", "theta2"))
    if obj.get("sigma0") is not None:
        sigma0 = fields["sigma0"] = matrix_from_obj(obj["sigma0"],
                                                    f"{where}.sigma0")
        # a finite deviation beyond tol.hermitian_tol is a malformed file;
        # one that overflows, and a sigma0 that is not square, are left to
        # ParameterTriple
        if sigma0.shape[0] == sigma0.shape[1]:
            dev = linalg._hermitian_deviation(sigma0)
            if math.isfinite(dev):
                if dev > tol.hermitian_tol:
                    raise InputError(f"{where}.sigma0: not Hermitian "
                                     f"(relative deviation {dev:.3e})")
                # ParameterTriple gates with the default table: it gets the
                # Hermitian part, which it keeps bit for bit, unless that
                # overflows
                with np.errstate(all="ignore"):
                    part = linalg.herm(sigma0)
                if np.isfinite(part).all():
                    fields["sigma0"] = part
    triple = ParameterTriple(**fields)
    _check_declared(obj, where, triple.order, triple.m, "alpha", "theta")
    return triple


def _realization_doc(r: Realization):
    return {
        "N": r.order,
        "m": r.m,
        "gamma": r.gamma,
        "vartheta1": r.vartheta1,
        "vartheta2": r.vartheta2,
    }


def realization_to_obj(r: Realization):
    return _plain(_realization_doc(r))


def realization_from_obj(obj, where="realization"):
    realization = Realization(
        **_fields(obj, where, ("gamma", "vartheta1", "vartheta2")))
    _check_declared(obj, where, realization.order, realization.m, "gamma",
                    "vartheta")
    return realization


def _state_doc(state):
    """The ``spins`` document of a lattice state: its triple, horizon,
    spins and health.  Lambda_n and Sigma_n are left out: ``generate`` of
    the triple at ``n_max`` rebuilds them bit for bit, and Lambda_n has a
    closed form in the triple."""
    return {
        "triple": _triple_doc(state.triple),
        "n_max": state.n_max,
        "spins": list(state.spins),
        "conditioning": [float(c) for c in state.conditioning],
        "spin_residuals": [float(r) for r in state.spin_residuals],
    }


def state_to_obj(state):
    """The plain JSON object of ``_state_doc``: keys ``triple``, ``n_max``,
    ``spins``, ``conditioning`` and ``spin_residuals``."""
    return _plain(_state_doc(state))


@functools.lru_cache(maxsize=1024)
def _string(text):
    """JSON string literal of ``text`` as %-template text (% doubled), by
    the C escaper of json.dumps (ensure_ascii)."""
    return json.encoder.encode_basestring_ascii(text).replace("%", "%%")


def _float(x):
    """JSON text of a float as json writes it, NaN and infinities too."""
    if x != x:
        return "NaN"
    if math.isinf(x):
        return "-Infinity" if x < 0 else "Infinity"
    return float.__repr__(x)


def _texts(floats, other):
    """The texts of the floats of a 1-D float array, in one orjson call:
    its text is ``float.__repr__``'s for zeros and magnitudes in [1e-4,
    1e16), and ``other`` writes the rest (exponents, NaN, infinities)."""
    if not floats.size:
        return []
    text = orjson.dumps(floats, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    texts = text[1:-1].split(",")
    magnitudes = np.abs(floats)
    outside = np.flatnonzero(~((magnitudes >= 1e-4) & (magnitudes < 1e16)
                               | (floats == 0)))
    for i, x in zip(outside.tolist(), floats[outside].tolist()):
        texts[i] = other(x)
    return texts


def _fill(values):
    """The JSON texts of the floats of ``values``, a list of sequences of
    (re, im) pairs, in (im, re) order (``_texts``, with ``_float`` for the
    rest)."""
    floats = np.concatenate(values or [()]).reshape(-1, 2)[:, ::-1].ravel()
    return tuple(_texts(floats, _float))


def _newline(depth):
    return "\n" + "  " * depth


def _block(opening, items, closing, depth):
    """``items`` one per line at ``depth + 1`` between the brackets, or the
    bare brackets when there are none."""
    if not items:
        return opening + closing
    inner = _newline(depth + 1)
    return (opening + inner + ("," + inner).join(items) + _newline(depth)
            + closing)


@functools.lru_cache(maxsize=None)
def _complex_template(depth):
    return _block("{", ['"im": %s', '"re": %s'], "}", depth)


@functools.lru_cache(maxsize=256)
def _matrix_template(rows, cols, depth):
    """%-format text of a rows x cols matrix at ``depth``, one %s per float
    in (im, re) order, entry by entry, row by row."""
    row = _block("[", [_complex_template(depth + 2)] * cols, "]", depth + 1)
    return _block("[", [row] * rows, "]", depth)


def _matrix(matrix, depth, values):
    matrix = np.atleast_2d(np.asarray(matrix, dtype=complex, order="C"))
    if matrix.ndim != 2:
        raise TypeError(f"cannot write a {matrix.ndim}-D array as a matrix")
    values.append(matrix.view(np.float64).ravel())
    return _matrix_template(*matrix.shape, depth)


def _template(value, depth, values):
    """%-format text of ``value`` at nesting ``depth``, with every literal
    % doubled; its floats are appended to ``values`` as (re, im) pairs, one
    pair per complex entry and per float, in the order of their %s."""
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        # the pair of x*1j, whose (im, re) order puts x first; "%.0s"
        # prints nothing for its zero real part
        values.append((0.0, value))
        return "%s%.0s"
    if isinstance(value, complex):
        values.append((value.real, value.imag))
        return _complex_template(depth)
    if isinstance(value, np.ndarray):
        return _matrix(value, depth, values)
    if isinstance(value, dict):
        return _block("{", [
            f"{_string(key)}: {_template(item, depth + 1, values)}"
            for key, item in sorted(value.items())], "}", depth)
    if isinstance(value, (list, tuple)):
        return _block("[", [_template(item, depth + 1, values)
                            for item in value], "]", depth)
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable")


def dumps(doc):
    """Deterministic JSON text of a document (sorted keys, two-space indent,
    trailing newline): ``json.dumps(_plain(doc), sort_keys=True, indent=2)``
    plus a newline, byte for byte.  One walk builds the text as a
    %-template and collects the floats; one % fills it."""
    values = []
    template = _template(doc, 0, values)
    return template % _fill(values) + "\n"


def load_json(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply") from exc


def stack_csv_rows(stack):
    """Rows (n, i, j, re, im) over every entry of every matrix stack[n],
    row by row."""
    stack = np.asarray(stack, dtype=complex)
    n, i, j = np.indices(stack.shape).reshape(3, -1).tolist()
    flat = stack.ravel()
    return list(zip(n, i, j, flat.real.tolist(), flat.imag.tolist()))


def write_csv(stream, header, rows):
    """Write the header and the rows as CSV lines: each float cell as its
    repr, all in one orjson call (``_texts``, with repr for the rest, so
    NaN and the infinities are ``nan`` and ``inf``), any other cell as its
    str."""
    lines = [tuple(header), *map(tuple, rows)]
    texts = iter(_texts(np.array([x for line in lines for x in line
                                  if isinstance(x, float)], dtype=float),
                        repr))
    stream.write("".join([
        ",".join([next(texts) if isinstance(x, float) else str(x)
                  for x in line]) + "\n"
        for line in lines]))
