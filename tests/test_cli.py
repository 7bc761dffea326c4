import json
import pathlib

import numpy as np
import pytest

from spinlattice import random_admissible_triple, random_minimal_realization
from spinlattice import serialize
from spinlattice.cli import main
from spinlattice.worked_example import example_triple


@pytest.fixture
def triple_file(tmp_path, rng):
    t = random_admissible_triple(rng, 3, 1)
    path = tmp_path / "triple.json"
    path.write_text(serialize.dumps(serialize.triple_to_obj(t)))
    return str(path)


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(serialize.dumps(serialize.triple_to_obj(example_triple(2))))
    return str(path)


def test_validate(triple_file, capsys):
    assert main(["validate", triple_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["class"] == "FG"
    assert out["identity_ok"]


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/triple.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_validate_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    assert main(["validate", str(path)]) == 2


def test_spins_csv(triple_file, capsys):
    assert main(["spins", triple_file, "--nmax", "3", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,i,j,re,im"
    assert len(lines) == 1 + 3 * 4


def test_spins_json_deterministic(triple_file, capsys):
    assert main(["spins", triple_file, "--nmax", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["spins", triple_file, "--nmax", "2"]) == 0
    assert capsys.readouterr().out == first


def test_fundamental_table(triple_file, capsys):
    assert main(["fundamental", triple_file, "--lambda", "2+0.5i",
                 "--nmax", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["table"]) == 3
    w0 = serialize.matrix_from_obj(out["table"][0]["w"])
    assert np.allclose(w0, np.eye(2))


def test_weyl_grid(triple_file, capsys):
    assert main(["weyl", triple_file, "--lambda-grid", "0,-3,2,4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out) == 4
    assert set(out[0]) == {"lambda", "phi"}


def test_invert_round_trip(tmp_path, rng, capsys):
    r = random_minimal_realization(rng, 3, 1)
    path = tmp_path / "real.json"
    path.write_text(serialize.dumps(serialize.realization_to_obj(r)))
    out_path = tmp_path / "triple.json"
    assert main(["invert", str(path), "-o", str(out_path)]) == 0
    assert main(["validate", str(out_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["class"] == "FG"


def test_evolve_csv(example_file, capsys):
    assert main(["evolve", example_file, "--time-grid", "0,0.4,3",
                 "--nmax", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,n,s1,s2,s3,zc_residual,ihm_residual"
    assert len(lines) == 1 + 3
    first = lines[1].split(",")
    norm = sum(float(x) ** 2 for x in first[2:5])
    assert norm == pytest.approx(1.0, abs=1e-9)
    assert float(first[5]) <= 1e-6 and float(first[6]) <= 1e-6


@pytest.mark.parametrize("method", ("sylvester", "ode"))
@pytest.mark.parametrize("grid", ("0,nan,3", "0,inf,2", "-inf,1,2"))
def test_non_finite_time_grid_is_input_error(example_file, capsys, method,
                                              grid):
    assert main(["evolve", example_file, "--method", method,
                 f"--time-grid={grid}", "--nmax", "3"]) == 2
    assert "finite" in capsys.readouterr().err


def test_verify_passes(triple_file, capsys):
    assert main(["verify", triple_file, "--nmax", "12"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_example_fixture(capsys):
    assert main(["example", "--h", "2"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_bad_tolerance_flag(triple_file):
    assert main(["validate", triple_file, "--tol", "nonsense=1"]) == 2
    assert main(["validate", triple_file, "--tol", "id_tol=-1"]) == 2


def test_bad_lambda_grid(triple_file):
    assert main(["weyl", triple_file, "--lambda-grid", "1,2,3"]) == 2


def test_verify_example_passes(example_file, capsys):
    assert main(["verify", example_file]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_spins_negative_nmax(triple_file, capsys):
    assert main(["spins", triple_file, "--nmax", "-1"]) == 2
    assert "--nmax" in capsys.readouterr().err


def test_verify_zero_nmax(triple_file, capsys):
    assert main(["verify", triple_file, "--nmax", "0"]) == 2
    assert "--nmax" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_json_is_input_error(triple_file, tmp_path, token, capsys):
    obj = json.loads(pathlib.Path(triple_file).read_text())
    obj["alpha"][0][0]["re"] = float(token)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", str(path)]) == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), "three"])
def test_non_integer_declared_size_is_input_error(triple_file, tmp_path, value):
    obj = json.loads(pathlib.Path(triple_file).read_text())
    obj["N"] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", str(path)]) == 2


@pytest.mark.parametrize("n_max, grid, built_states", (
    (12, [], 33),                                   # default grid: 11 times
    (8, ["--time-grid", "0,1,6"], 18),
))
def test_evolve_builds_three_states_per_time(triple_file, monkeypatch, n_max,
                                             grid, built_states):
    """One TimeSlice per time: the state at t to horizon N and the two at
    t +/- h_t to horizon N - 1."""
    import spinlattice.evolution as evolution

    generate = evolution.generate
    horizons = []

    def counting_generate(*args, **kwargs):
        horizons.append(kwargs["n_max"])
        return generate(*args, **kwargs)

    monkeypatch.setattr(evolution, "generate", counting_generate)
    assert main(["evolve", triple_file, "--nmax", str(n_max), *grid]) == 0
    assert len(horizons) == built_states
    assert horizons[:3] == [n_max, n_max - 1, n_max - 1]


def test_evolve_rows_match_the_residual_functions(triple_file, capsys):
    from spinlattice.evolution import ihm_residual, zero_curvature_residual

    assert main(["evolve", triple_file, "--nmax", "5", "--time-grid",
                 "0,0.4,3", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [(r["t"], r["n"]) for r in rows] == [
        (t, n) for t in (0.0, 0.2, 0.4) for n in (1, 2, 3)]
    triple = serialize.triple_from_obj(serialize.load_json(triple_file))
    for r in rows:
        assert r["zc_residual"] == zero_curvature_residual(
            triple, r["n"], r["t"], 2.0 + 0.5j)
        assert r["ihm_residual"] == ihm_residual(triple, r["n"], r["t"])


def test_evolve_needs_m_equal_one(tmp_path, capsys):
    t = random_admissible_triple(np.random.default_rng(3), 4, 2)
    path = tmp_path / "wide.json"
    path.write_text(serialize.dumps(serialize.triple_to_obj(t)))
    assert main(["evolve", str(path), "--nmax", "4"]) == 2
    assert "(m = 1), got m = 2" in capsys.readouterr().err
