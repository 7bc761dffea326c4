import io
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spinlattice import generate, random_admissible_triple, random_minimal_realization
from spinlattice import serialize
from spinlattice.errors import InputError


def test_complex_round_trip():
    z = 1.2345678901234567 - 9.87654321e-7j
    assert serialize.complex_from_obj(serialize.complex_to_obj(z)) == z


def test_matrix_round_trip(rng):
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    out = serialize.matrix_from_obj(serialize.matrix_to_obj(m))
    assert np.array_equal(out, m)


def test_triple_round_trip(rng):
    t = random_admissible_triple(rng, 3, 2)
    obj = serialize.triple_to_obj(t)
    assert obj["N"] == 3 and obj["m"] == 2
    back = serialize.triple_from_obj(obj)
    assert np.array_equal(back.alpha, t.alpha)
    assert np.array_equal(back.theta1, t.theta1)
    assert np.array_equal(back.theta2, t.theta2)


def test_realization_round_trip(rng):
    r = random_minimal_realization(rng, 3, 1)
    back = serialize.realization_from_obj(serialize.realization_to_obj(r))
    assert np.array_equal(back.gamma, r.gamma)


def test_deterministic_bytes(rng):
    t = random_admissible_triple(rng, 2, 1)
    a = serialize.dumps(serialize.triple_to_obj(t))
    b = serialize.dumps(serialize.triple_to_obj(t))
    assert a == b


def test_dimension_mismatch_rejected(rng):
    t = random_admissible_triple(rng, 2, 1)
    obj = serialize.triple_to_obj(t)
    obj["N"] = 5
    with pytest.raises(InputError):
        serialize.triple_from_obj(obj)


def test_ragged_matrix_rejected():
    with pytest.raises(InputError):
        serialize.matrix_from_obj([
            [{"re": 1.0, "im": 0.0}],
            [{"re": 1.0, "im": 0.0}, {"re": 2.0, "im": 0.0}],
        ])


def test_missing_field_rejected():
    with pytest.raises(InputError):
        serialize.triple_from_obj({"alpha": [[{"re": 1.0, "im": 0.0}]]})


def test_spin_csv_rows(rng):
    t = random_admissible_triple(rng, 2, 1)
    state = generate(t, 3)
    rows = serialize.stack_csv_rows(state.spins)
    assert len(rows) == 3 * 4
    n, i, j, re, im = rows[0]
    assert (n, i, j) == (0, 0, 0)
    assert re == pytest.approx(float(state.spins[0][0, 0].real))


def test_csv_writer_round_trips_floats():
    buf = io.StringIO()
    serialize.write_csv(buf, ["a", "b"], [(1, 0.1 + 0.2)])
    lines = buf.getvalue().splitlines()
    assert lines[0] == "a,b"
    assert float(lines[1].split(",")[1]) == 0.1 + 0.2


def _plain(doc):
    """Reference plain object: complex leaves as {"re", "im"} dicts and
    arrays as row-major nests of them."""
    if isinstance(doc, dict):
        return {key: _plain(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_plain(value) for value in doc]
    if isinstance(doc, np.ndarray):
        return [[_plain(z) for z in row] for row in np.atleast_2d(doc)]
    if isinstance(doc, complex):
        return {"re": float(doc.real), "im": float(doc.imag)}
    return doc


def _reference(doc):
    return json.dumps(_plain(doc), sort_keys=True, indent=2) + "\n"


_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16,
                     1e-5]),
)
_complexes = st.builds(complex, _floats, _floats)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(rows=st.lists(st.lists(st.one_of(_floats, st.integers(), st.text()),
                              max_size=8), max_size=8))
def test_csv_writer_writes_the_repr_of_each_float(rows):
    """One orjson call formats the floats: the bytes are those of repr per
    float cell (nan, inf, -0.0, exponents and the subnormals included)
    and of str per other cell."""
    buf = io.StringIO()
    serialize.write_csv(buf, ["a", "b"], rows)
    assert buf.getvalue() == "a,b\n" + "".join(
        ",".join(repr(x) if isinstance(x, float) else str(x) for x in row)
        + "\n" for row in rows)
_matrices = st.tuples(st.integers(1, 8), st.integers(1, 6)).flatmap(
    lambda shape: hnp.arrays(complex, shape, elements=_complexes))
_strings = st.one_of(
    st.text(),
    st.sampled_from(["", "\x00\x1f\x7f", 'quote " and \\ backslash',
                     "\b\f\n\r\t", "café   \ud800 \U0001f600"]),
)
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(-10**40, 10**40), _floats, _strings, _complexes, _matrices,
)
_docs = st.recursive(
    _leaves,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(_strings, children, max_size=4)),
    max_leaves=12,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(doc=_docs)
def test_dumps_matches_the_stdlib_encoder(doc):
    assert serialize.dumps(doc) == _reference(doc)


@pytest.mark.parametrize("doc", [{}, [], {"a": [], "b": {}}, [[], [{}]],
                                 np.zeros((0, 3), complex),
                                 np.zeros((2, 0), complex), (1, ("x",))])
def test_dumps_empty_and_tuple_nests(doc):
    assert serialize.dumps(doc) == _reference(doc)


def test_dumps_rejects_what_it_cannot_write():
    for doc in ([object()], {"a": {1, 2}}, np.zeros((2, 2, 2))):
        with pytest.raises(TypeError):
            serialize.dumps(doc)


def _hermitian_with_signed_zeros():
    """An exactly Hermitian matrix whose mirrored entries differ only in the
    sign of a zero imaginary part, and whose other mirrored entries share
    magnitudes."""
    h = np.array([[2.0, 0.5 + 0.25j, -3.0],
                  [0.0, -1.0, 1e-300 - 7.5j],
                  [0.0, 0.0, 0.125]], dtype=complex)
    h = h + np.triu(h, 1).conj().T
    h[2, 0] = complex(-3.0, 0.0)
    h[0, 2] = complex(-3.0, -0.0)
    assert np.array_equal(h, h.conj().T)
    return h


_NEG_NAN = float(np.copysign(math.nan, -1))
_SUBNORMALS = [5e-324, -5e-324, 2.2250738585072014e-308 / 3,
               -2.2250738585072014e-308 / 7, 1e-310]


_RANGE_ENDS = [float(np.nextafter(1e-4, 0)), 1e-4, 9.999e-5, 1e-5,
               float(np.nextafter(1e16, 0)), 1e16, 9999999999999998.0, -0.0,
               5e-324, 1.7976931348623157e308]
_SIGNED_ENDS = _RANGE_ENDS + [-x for x in _RANGE_ENDS]
_ENDS_AS_PARTS = [complex(x, y) for x, y in zip(_SIGNED_ENDS,
                                                _SIGNED_ENDS[::-1])]


@pytest.mark.parametrize("doc", [
    _hermitian_with_signed_zeros(),
    {"s": [_hermitian_with_signed_zeros(), -_hermitian_with_signed_zeros()]},
    [_NEG_NAN, math.nan, math.inf, -math.inf, complex(_NEG_NAN, -math.inf),
     np.array([[complex(_NEG_NAN, math.nan), complex(-math.inf, math.inf)],
               [complex(-0.0, 0.0), complex(math.nan, _NEG_NAN)]])],
    {"sub": _SUBNORMALS, "m": np.array([_SUBNORMALS], dtype=complex) * 1j},
    {"%s": "100%", "a%%b": ["%d", "%(x)s", "%s %s", 1.5], "%": -1.5,
     "%%s": {"%": complex(1.5, -1.5)}},
    {"x": _SIGNED_ENDS, "z": _ENDS_AS_PARTS, "m": np.array([_ENDS_AS_PARTS])},
])
def test_dumps_matches_the_stdlib_encoder_at_the_edges(doc):
    """Signed zeros of mirrored entries, NaN with the sign bit set, infinities,
    subnormals, % in keys and string values, and both signs of the values at
    either end of [1e-4, 1e16), as scalars, complex parts and matrix
    entries."""
    assert serialize.dumps(doc) == _reference(doc)


def _json_floats(obj):
    if isinstance(obj, dict):
        return [x for value in obj.values() for x in _json_floats(value)]
    if isinstance(obj, list):
        return [x for value in obj for x in _json_floats(value)]
    return [obj] if isinstance(obj, float) else []


def test_dumps_writes_every_float_in_one_orjson_call(calls):
    """The spins document of the m = 3 triple at horizon 60 writes its 4,551
    floats (360 exact zeros) with one orjson call, and repr writes just the
    76 whose magnitude lies outside [1e-4, 1e16), where orjson's text is
    not repr's.  The call also writes the zero that each of the 121 float
    leaves carries and "%.0s" drops."""
    path = pathlib.Path(__file__).parent / "data" / "verify" / "m3.json"
    triple = serialize.triple_from_obj(serialize.load_json(path))
    doc = serialize._state_doc(generate(triple, 60))
    sizes = calls(serialize.orjson, "dumps", lambda obj, **kwargs: obj.size)
    repr_floats = calls(serialize, "_float", lambda x: x)
    text = serialize.dumps(doc)
    floats = np.array(_json_floats(json.loads(text)))
    outside = floats[(floats != 0) & ((np.abs(floats) < 1e-4)
                                      | (np.abs(floats) >= 1e16))]
    assert floats.size == 4551 and np.count_nonzero(floats == 0) == 360
    assert sizes == [4551 + 121]
    assert repr_floats == outside.tolist() and len(repr_floats) == 76


def test_csv_writer_formats_every_float_in_one_orjson_call(calls):
    """The 8 float cells of two rows go to one orjson call; the int cells
    are their str, and nan, inf and 1e-15 are repr's."""
    sizes = calls(serialize.orjson, "dumps", lambda obj, **kwargs: obj.size)
    buf = io.StringIO()
    serialize.write_csv(buf, ["t", "n", "a", "b", "c"],
                        [(0.5, 1, 0.25, math.nan, 1e-15),
                         (1.0, 2, -0.0, 3.0, math.inf)])
    assert sizes == [8]
    assert buf.getvalue() == ("t,n,a,b,c\n0.5,1,0.25,nan,1e-15\n"
                              "1.0,2,-0.0,3.0,inf\n")


# a decade drawn uniformly, then a point in it: log-uniform over [1e-6, 1e18]
_LOG_FLOATS = st.builds(
    lambda decade, point, sign: sign * 10.0 ** (decade + point),
    st.integers(-6, 17), st.floats(0, 1), st.sampled_from([1.0, -1.0]))


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(x=_LOG_FLOATS)
def test_dumps_writes_floats_across_both_range_ends_as_json_does(x):
    """x log-uniform over [1e-6, 1e18] of both signs crosses 1e-4 and 1e16,
    where orjson's text and repr's part."""
    assert serialize.dumps([x]) == json.dumps([x], indent=2) + "\n"


def test_the_installed_orjson_writes_floats_as_json_does():
    """200,000 floats log-uniform over [1e-6, 1e18] of both signs, then
    both signs of the values at either end of [1e-4, 1e16): the orjson
    installed here writes the bytes of json.dumps."""
    rng = np.random.default_rng(0)
    n = 200_000
    xs = 10.0 ** rng.uniform(-6, 18, n) * rng.choice([-1.0, 1.0], n)
    xs = np.concatenate([xs, _SIGNED_ENDS]).tolist()
    assert serialize.dumps(xs) == json.dumps(xs, indent=2) + "\n", (
        serialize.orjson.__version__)


DATA = pathlib.Path(__file__).parent / "data"


@pytest.mark.parametrize("name", ("m2", "m3", "real_mode"))
def test_spins_document_is_a_fixed_point_of_its_triple(name):
    """A spins document carries no Lambda_n or Sigma_n: generate rebuilds
    them from its triple, and the rebuilt state writes the same bytes."""
    text = (DATA / "json" / f"{name}.spins.json").read_text()
    doc = json.loads(text)
    assert set(doc) == {"triple", "n_max", "spins", "conditioning",
                        "spin_residuals"}
    state = generate(serialize.triple_from_obj(doc["triple"]), doc["n_max"])
    assert serialize.dumps(serialize._state_doc(state)) == text


def test_spins_document_of_m3_at_horizon_60_holds_one_copy_of_each_fact():
    """The m = 3 triple at horizon 60: 4,551 floats in 215,347 bytes (the
    closed-form lattice writes other last digits than the recursion, which
    wrote 215,326).  dumps collects them as 4,672 values, since each float
    leaf (the 121 of conditioning and spin_residuals) enters as a (0.0, x)
    pair."""
    triple = serialize.triple_from_obj(
        serialize.load_json(DATA / "verify" / "m3.json"))
    doc = serialize._state_doc(generate(triple, 60))
    values = []
    serialize._template(doc, 0, values)
    assert sum(np.size(pair) for pair in values) == 4672
    text = serialize.dumps(doc)
    assert len(_json_floats(json.loads(text))) == 4551
    assert len(text.encode()) == 215347
