import contextlib
import csv
import errno
import functools
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spinlattice
from spinlattice import (Transfer, generate, invert,
                         random_admissible_triple,
                         random_general_sigma_triple,
                         random_minimal_realization, validate, weyl)
from spinlattice import cli, serialize
from spinlattice.cli import main
from spinlattice.evolution import TimeGrid
from spinlattice.worked_example import example_triple, spin_closed_form


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


@pytest.fixture
def real_mode_file(tmp_path, real_mode_triple):
    path = tmp_path / "real_mode.json"
    path.write_text(serialize.dumps(serialize.triple_to_obj(real_mode_triple)))
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
    for text in ("not json",
                 '{"alpha": [[{"re": "zero", "im": 2}]], '
                 '"theta1": [[{"re": 1.4142135623730951, "im": 0}]], '
                 '"theta2": [[{"re": 1.4142135623730951, "im": 0}]]}'):
        path.write_text(text)
        assert main(["validate", str(path)]) == 2


@pytest.mark.parametrize("case", ("directory input", "binary input",
                                  "deeply nested input",
                                  "output into a missing directory",
                                  "output onto a directory"))
def test_unreadable_input_and_unwritable_output_are_one_error_line(
        tmp_path, example_file, capsys, case):
    folder = tmp_path / "folder"
    folder.mkdir()
    source, output = example_file, tmp_path / "out.txt"
    if case == "directory input":
        source = str(folder)
    elif case == "binary input":
        source = tmp_path / "binary.json"
        source.write_bytes(b"\xff\xfe\x00")
    elif case == "deeply nested input":
        source = tmp_path / "nested.json"
        source.write_text("[" * 100_000)
    elif case == "output into a missing directory":
        output = tmp_path / "missing" / "out.txt"
    else:
        output = folder
    assert main(["validate", str(source), "-o", str(output)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(
        ["folder", "example.json", *([source.name] if case in (
            "binary input", "deeply nested input") else [])])


class _FailingStdout(io.StringIO):
    """A stdout whose ``write`` or ``flush`` raises ``error``."""

    def __init__(self, method, error):
        super().__init__()
        self.method, self.error = method, error

    def write(self, text):
        if self.method == "write":
            raise self.error
        return super().write(text)

    def flush(self):
        if self.method == "flush":
            raise self.error


@pytest.mark.parametrize("method, error", (
    ("write", BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))),
    ("flush", OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))))
def test_an_unwritable_stdout_is_one_error_line(
        example_file, capsys, monkeypatch, method, error):
    monkeypatch.setattr(sys, "stdout", _FailingStdout(method, error))
    assert main(["validate", example_file]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot write stdout: {error.strerror}"]


def _closed_pipe():
    read, write = os.pipe()
    os.close(read)
    return write


@pytest.mark.parametrize("open_stdout, errnum", (
    (_closed_pipe, errno.EPIPE),
    pytest.param(lambda: os.open("/dev/full", os.O_WRONLY), errno.ENOSPC,
                 marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                          reason="no /dev/full"))),
    ids=("closed pipe", "full device"))
def test_an_unwritable_stdout_exits_2_without_a_traceback(
        example_file, open_stdout, errnum):
    """A subprocess with a buffered stdout: the failed flush leaves its
    bytes in the buffer, and the flush at interpreter exit must not write
    them, or fail, again."""
    src = pathlib.Path(spinlattice.__file__).parents[1]
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONUNBUFFERED", "PYTHONDEVMODE")}
    env["PYTHONPATH"] = str(src)
    stdout = open_stdout()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "spinlattice.cli", "validate", example_file],
            env=env, stdout=stdout, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(stdout)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        f"error: cannot write stdout: {os.strerror(errnum)}"]


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


@pytest.mark.parametrize("triple", ("example_file", "real_mode_file"))
@pytest.mark.parametrize("grid", ("0,nan,3", "0,inf,2", "-inf,1,2"))
def test_non_finite_time_grid_is_input_error(request, capsys, triple, grid):
    """On the Sylvester route (the scalar example) and the RK4 route."""
    assert main(["evolve", request.getfixturevalue(triple),
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


@pytest.mark.parametrize("h", ("0.5", "0.9"))
def test_example_diffs_are_relative_to_the_closed_form(capsys, h):
    # sigma_5 = 29525 at h = 0.5: one ulp of it is 3.6e-12
    assert main(["example", "--h", h]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("max relative diff ")
    assert last.endswith("<= 1e-12: PASS")


def test_example_fails_on_a_relative_diff_beyond_1e_12(monkeypatch, capsys):
    run_diffs = cli.run_diffs

    def off(h, tol):
        rows = run_diffs(h=h, tol=tol)
        name, _, want, _ = max(rows, key=lambda row: abs(row[2]))
        got = want * (1 + 2e-12)
        return rows + [(name, got, want, abs(got - want))]

    monkeypatch.setattr(cli, "run_diffs", off)
    assert main(["example", "--h", "0.5"]) == 1
    assert capsys.readouterr().out.splitlines()[-1].endswith("> 1e-12: FAIL")


def test_bad_tolerance_flag(triple_file, example_file):
    assert main(["validate", triple_file, "--tol", "nonsense=1"]) == 2
    assert main(["validate", triple_file, "--tol", "id_tol=-1"]) == 2
    # a NaN or infinite tolerance would switch a guard off: the pole guard
    # at lambda = 1e-320 and the overflow guard at n = 66 (both exit 3)
    pole = ["weyl", example_file, "--lambda-grid", "0,0,1e-320,1"]
    assert main(pole) == 3
    assert main(pole + ["--tol", "pole_tol=nan"]) == 2
    grows = ["spins", triple_file, "--nmax", "80"]
    assert main(grows) == 3
    assert main(grows + ["--tol", "cond_limit=nan",
                         "--tol", "sigma_overflow=inf"]) == 2


def test_the_hermitian_tolerance_gates_the_sigma0_of_a_triple_file(
        tmp_path, capsys):
    """sigma0 = [[1 + i]] deviates from Hermitian by sqrt(2): refused under
    the default table, and read as its Hermitian part [[1]], the sigma0 of
    the FG triple alpha = 2i, theta1 = theta2 = sqrt(2), under
    hermitian_tol = 10."""
    r2 = np.sqrt(2.0)
    path = tmp_path / "skew.json"
    path.write_text(json.dumps({
        name: serialize.matrix_to_obj(np.array([[value]])) for name, value in
        (("alpha", 2j), ("theta1", r2), ("theta2", r2), ("sigma0", 1 + 1j))}))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == (f"error: {path}.sigma0: not Hermitian "
                                       f"(relative deviation 1.414e+00)\n")
    assert main(["validate", str(path), "--tol", "hermitian_tol=10"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["class"] == "FG" and out["identity_ok"]


def test_bad_lambda_grid(triple_file, example_file, capsys):
    assert main(["weyl", triple_file, "--lambda-grid", "1,2,3"]) == 2
    # non-finite points are input errors, not NaN in the output
    for argv in (["weyl", "--lambda-grid", "0,0,nan,2"],
                 ["weyl", "--lambda-grid", "inf,0,1,2"],
                 ["fundamental", "--lambda", "nan"]):
        assert main([argv[0], example_file, *argv[1:]]) == 2
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, code", (
    (["fundamental", "--lambda", "1e-200"], 3),
    (["fundamental", "--lambda", "1e308+1e308i"], 2),
    (["weyl", "--lambda-grid", "1.7e308,0,1e308,4"], 2),
    (["verify", "--tol", "pole_tol=1"], 3),
    (["verify", "--tol", "pole_tol=1e300"], 3),
    (["fundamental", "--lambda", "0"], 3),
))
def test_finite_arguments_that_overflow_are_one_error_line(
        example_file, capsys, argv, code):
    """Finite arguments whose arithmetic overflows, whose pole guard empties
    the sample circle of verify, or that sit on the pole lambda = 0 of the
    fundamental solution: one error line, no output and no RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([argv[0], example_file, *argv[1:]]) == code
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1, err


@pytest.mark.parametrize("command", (["spins"], ["fundamental", "--lambda", "2"],
                                     ["verify"], ["evolve"]))
def test_a_horizon_beyond_the_stack_budget_is_one_error_line(
        example_file, capsys, command):
    argv = [command[0], example_file, *command[1:], "--nmax", str(10 ** 15)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1, err
    assert err.startswith("error: horizon 1000000000000000 needs ")
    assert "budget of 1024 MiB" in err


@pytest.mark.parametrize("command", ("validate", "weyl"))
def test_nmax_is_no_option_of_validate_and_weyl(example_file, capsys, command):
    """Neither builds a lattice, so --nmax is an unknown argument."""
    with pytest.raises(SystemExit) as stop:
        main([command, example_file, "--nmax", "3"])
    assert stop.value.code == 2
    assert "unrecognized arguments: --nmax 3" in capsys.readouterr().err


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
    (12, [], 11),                                   # default grid: 11 times
    (8, ["--time-grid", "0,1,6"], 6),
))
def test_evolve_builds_one_state_per_time(triple_file, calls, stage_calls,
                                          n_max, grid, built_states):
    """Per time, the state at t to horizon N, counted as the entries of one
    closed-form stack in the eigenbasis of alpha, with dS_n/dt in the same
    batch: the grid times reach the lattice with no batch of time-t
    triples and no run of the recursion.  One eigendecomposition, and no
    matrix exponential or Sylvester solve."""
    import spinlattice.evolution as evolution
    import spinlattice.lattice as lattice

    stacks = calls(lattice, "_closed_form_stack",
                   lambda basis, start, lam, resolvents, kept, n_max,
                   *args, **kwargs: (len(lam), n_max))
    batches = calls(evolution, "_sigma0_at")
    recursions = calls(lattice, "_recur")
    assert main(["evolve", triple_file, "--nmax", str(n_max), *grid]) == 0
    assert stacks == [(built_states, n_max)]
    assert batches == recursions == []
    assert stage_calls["expm"] == stage_calls["sylvester"] == []
    assert len(stage_calls["eig"]) == 1


def test_a_real_mode_evolve_runs_the_recursion_once_per_block(capsys, calls):
    """The real-mode triple (alpha = diag(2i, 3)) is off the open upper half
    plane: its grid takes the time-t triples and the recursion, one batch
    and one run per block of TIME_BLOCK times, and no closed form."""
    import spinlattice.evolution as evolution
    import spinlattice.lattice as lattice

    closed = calls(lattice, "_closed_form_stack")
    batches = calls(evolution, "_sigma0_at",
                    lambda triple, times, batch, tol: times.size)
    recursions = calls(lattice, "_recur")
    assert main(["evolve", str(EVOLVE_DATA / "real_mode.json"), "--nmax", "4",
                 "--time-grid", f"0,1,{evolution.TIME_BLOCK + 8}"]) == 0
    assert closed == []
    assert batches == [evolution.TIME_BLOCK, 8]
    assert len(recursions) == 2


def test_a_long_evolve_makes_no_expm_call(example_file, capsys, stage_calls):
    """5,000 times in blocks of TIME_BLOCK share one eigendecomposition of
    alpha and exponentiate no matrix."""
    assert main(["evolve", example_file, "--time-grid", "0,1,5000"]) == 0
    assert len(capsys.readouterr().out.splitlines()) > 5000
    assert stage_calls["expm"] == stage_calls["sylvester"] == []
    assert len(stage_calls["eig"]) == 1


def test_a_long_evolve_keeps_unit_spin_vectors(tmp_path):
    """tests/data/evolve/norm_drift.json is the order-3 triple drawn 57th by
    the ihm-trajectory benchmark at seed 4242 (cond(V) = 1.45).  Run by the
    recursion from the time-t triples, its spin vectors drift from unit
    norm by 1.5e-9 at t = 0.914983, beyond SPIN_NORM_BOUND, and evolve
    exits 3; in closed form every | ||s|| - 1 | over 5,000 times is at
    round-off."""
    out = tmp_path / "traj.csv"
    assert main(["evolve", str(EVOLVE_DATA / "norm_drift.json"), "--nmax", "8",
                 "--time-grid", "0,1,5000", "-o", str(out)]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 5000 * 6
    vectors = np.array([[float(row[k]) for k in ("s1", "s2", "s3")]
                        for row in rows])
    assert abs(np.linalg.norm(vectors, axis=1) - 1.0).max() <= 1e-12


def test_evolve_solves_the_spectrum_once(capsys, spectrum_calls):
    """One report of alpha, which every time-t triple shares."""
    assert main(["evolve", str(EVOLVE_DATA / "fg4.json"), "--nmax", "6",
                 "--time-grid=-0.6,0,4"]) == 0
    assert len(spectrum_calls["eigvals"]) == 1


def test_evolve_rows_match_the_residual_functions(triple_file, capsys):
    from spinlattice.evolution import ihm_residual, zero_curvature_residual

    assert main(["evolve", triple_file, "--nmax", "5", "--time-grid",
                 "0,0.4,3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [(d["t"], [r["n"] for r in d["sites"]]) for d in doc] == [
        (t, [1, 2, 3]) for t in (0.0, 0.2, 0.4)]
    triple = serialize.triple_from_obj(serialize.load_json(triple_file))
    for d in doc:
        for r in d["sites"]:
            assert r["zc_residual"] == zero_curvature_residual(
                triple, r["n"], d["t"], 2.0 + 0.5j)
            assert r["ihm_residual"] == ihm_residual(triple, r["n"], d["t"])


def test_evolve_needs_m_equal_one(tmp_path, capsys):
    t = random_admissible_triple(np.random.default_rng(3), 4, 2)
    path = tmp_path / "wide.json"
    path.write_text(serialize.dumps(serialize.triple_to_obj(t)))
    assert main(["evolve", str(path), "--nmax", "4"]) == 2
    assert "(m = 1), got m = 2" in capsys.readouterr().err


def test_evolve_takes_the_flow_route_on_a_real_spectrum(real_mode_file, capsys):
    assert main(["evolve", real_mode_file, "--time-grid=-0.5,1,4",
                 "--nmax", "5", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [len(d["sites"]) for d in doc] == [3] * 4
    r2 = np.sqrt(2.0)
    for d in doc:
        for row in d["sites"]:
            want = spin_closed_form(row["n"], d["t"], 2.0, r2, r2)
            s1, s2, s3 = row["s1"], row["s2"], row["s3"]
            got = np.array([[s3, s1 - 1j * s2], [s1 + 1j * s2, -s3]])
            assert np.linalg.norm(got - want) <= 1e-12
            assert row["zc_residual"] <= 1e-6 and row["ihm_residual"] <= 1e-6


def test_verify_passes_every_check_on_a_real_spectrum(real_mode_file, capsys):
    """evolution-method-agreement compares the flow of the time-t triple
    with RK4 where the Sylvester solve does not apply."""
    assert main(["verify", real_mode_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "all checks passed"
    assert len(lines) == 24 and all(": PASS " in line for line in lines[:-1])
    assert any(line.startswith("evolution-method-agreement: PASS")
               for line in lines)


def test_evolve_far_time_on_the_flow_route_fails_at_once(real_mode_file, capsys):
    """The real mode of Sigma_0(t) decays like e^{-1.2 t}: at t = 1e6 the
    lattice guard refuses the singular Sigma_0(t)."""
    assert main(["evolve", real_mode_file, "--time-grid", "0,1e6,2",
                 "--nmax", "3"]) == 3
    assert "cond(Sigma_0)" in capsys.readouterr().err


@pytest.mark.parametrize("grid, message", (
    pytest.param("0,1e6,2", "cond(Sigma_0) = inf exceeds the limit 1.0e+12 "
                 "(at t = 1e+06)", id="first-block"),
    # t = 22 is time 44, in the second block of TIME_BLOCK times
    pytest.param("0,40,81", "cond(Sigma_3) = 1.214e+12 exceeds the limit "
                 "1.0e+12 (at t = 22)", id="second-block"),
    # the matrix exponential overflows at both t = -500000 and t = -1e6
    pytest.param("0,-1e6,3", "matrix exponential overflows at t = -500000",
                 id="two-failing-times"),
))
def test_evolve_error_names_the_failing_time(real_mode_file, capsys, grid,
                                             message):
    """An error whose message has no time gets the time that raised it; of
    two failing times, the first is named; the exit code is that of the
    error."""
    assert main(["evolve", real_mode_file, f"--time-grid={grid}",
                 "--nmax", "3"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"numeric failure: {message}"]


def test_evolve_overflow_on_the_flow_route_is_one_error_line(real_mode_file,
                                                             capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", real_mode_file, "--time-grid=0,-1e6,2",
                     "--nmax", "3"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["numeric failure: matrix exponential overflows at "
                   "t = -1e+06"]


@pytest.mark.parametrize("triple", ("example_file", "real_mode_file"))
def test_evolve_overflowing_exponent_is_one_error_line(request, capsys,
                                                        triple):
    """t (alpha -/+ iI)^{-1} itself overflows at t = 1e308: a NumericError
    naming t, with no numpy warning before it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", request.getfixturevalue(triple),
                     "--time-grid", "0,1e308,2", "--nmax", "3"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["numeric failure: matrix exponential overflows at "
                   "t = 1e+308"]


@pytest.mark.parametrize("n_max", ("0", "1", "2"))
def test_evolve_rejects_a_horizon_below_three(example_file, capsys, n_max):
    """Sites 1..N-2 carry the residuals, so N >= 3."""
    assert main(["evolve", example_file, "--nmax", n_max]) == 2
    assert capsys.readouterr().err == (
        f"error: --nmax must be >= 3, got {n_max}\n")
    assert main(["evolve", example_file, "--nmax", "3"]) == 0


EVOLVE_DATA = pathlib.Path(__file__).parent / "data" / "evolve"


@pytest.mark.parametrize("name, n_max, grid, outputs", (
    ("example", 5, "-1,1,5", ("csv", "json")),          # scalar example
    ("real_mode", 4, "-0.5,1,4", ("csv", "json")),      # flow route
    ("general", 5, "-0.4,0.4,3", ("csv", "json")),      # general sigma0
    ("fg4", 6, "-0.6,0,4", ("csv",)),                   # negative times
))
def test_evolve_output_is_that_of_the_per_time_lattice(capsys, name, n_max,
                                                       grid, outputs):
    """tests/data/evolve/<name>.out.csv and <name>.out.json were written by
    the per-time implementation of evolve (commit 7c080c7), one lattice and
    one residual per time and site; the stacked grid writes the same
    bytes.  The JSON files have since been regrouped to one object per
    time, with each value unchanged, and have lost each site's 2 x 2
    ``spin``, which its (s1, s2, s3) already give.  The general and fg4
    files were rewritten when the time-t stage moved to the eigenbasis of
    alpha, by a script that asserted every time, site, key and t = 0 spin
    unchanged, every residual below 1e-12, and every new spin and
    Sigma_0(t) within 1e-12 of the oracle of tests/oracle.py.  The
    example, general and fg4 files were rewritten again when the grid
    moved to the closed form, by a script that asserted every header,
    time, site, key and Sigma_0(t) unchanged, every residual below 1e-12
    and every spin, t = 0 included, within 1e-12 of the oracle.  They were
    rewritten once more when the t = 0 row took the exact M^n term of the
    closed form and W moved to its pole residues, by a script that
    asserted the same, with every spin within 1e-12 of the oracle.  All
    seven were rewritten when dS_n/dt moved to the time flow at each site,
    by a script that asserted every byte unchanged but the zc_residual
    and ihm_residual values, each below 1e-12."""
    for fmt in outputs:
        assert main(["evolve", str(EVOLVE_DATA / f"{name}.json"), "--nmax",
                     str(n_max), f"--time-grid={grid}", "--format",
                     fmt]) == 0
        want = (EVOLVE_DATA / f"{name}.out.{fmt}").read_text()
        assert capsys.readouterr().out == want


VERIFY_DATA = pathlib.Path(__file__).parent / "data" / "verify"


@pytest.mark.parametrize("name, n_max, code", (
    ("example", 15, 0),         # scalar example
    ("real_mode", 15, 0),       # flow route, RK4 as the other route
    ("fg4", 15, 0),             # order 4, sigma0 = I
    ("general", 15, 0),         # general sigma0: the normalize_sigma0 path
    ("cond30", 15, 1),          # cond(Sigma_29) > 1e12 in the horizon-30 run
    ("m2", 30, 0),
    ("m3", 30, 0),
))
def test_verify_output_is_that_of_the_per_check_evaluation(capsys, name,
                                                           n_max, code):
    """tests/data/verify/<name>.out.txt were written by verify before its
    shared work was batched (commit 773e052), each check building what it
    read; the batched context writes the same bytes.  The fg4, general and
    cond30 files were rewritten when the time-t stage moved to the
    eigenbasis of alpha, by a script that asserted every line unchanged
    but the residuals of the six checks that read the time-t triples, each
    still a PASS under the same threshold.  The example, fg4, general and
    cond30 files were rewritten again when the time grid moved to the
    closed form: every line unchanged but the residuals of the four checks
    that read the grid (lax-equality, zero-curvature, ihm-vector-equation,
    monodromy), each still a PASS under the same threshold.  All but
    real_mode were rewritten again when W moved to its pole residues and
    the time grid's t = 0 row to the exact M^n term: every line unchanged
    but the residuals of the checks that read W, cond(Sigma_n) or that
    row, each keeping its PASS or FAIL and its threshold, and every exit
    code unchanged.  The example, real_mode, fg4, general and cond30 files
    were rewritten again when dS_n/dt moved to the time flow at each site:
    every line unchanged but the zero-curvature and ihm-vector-equation
    residuals, each still a PASS under the same threshold.  All seven were
    rewritten again when the two-point right side moved to one solve, the
    monodromy to the gap of the transfer identity and (alpha^2 + I)^{-1} to
    the product of the resolvents at +/-i: every line unchanged but the
    two-point-identity, monodromy and factorization-rank-m residuals (12
    lines), each keeping its PASS or FAIL and its threshold, and every exit
    code unchanged.  The fg4, general and cond30 files were rewritten again
    when verify's 30-term summability lattice moved from a second entry of
    its recursion to ``generate`` (the closed form on these triples): every
    line unchanged but the summability-dichotomy detail (3 lines), each
    keeping its PASS or FAIL, and every exit code unchanged."""
    assert main(["verify", str(VERIFY_DATA / f"{name}.json"), "--nmax",
                 str(n_max)]) == code
    want = (VERIFY_DATA / f"{name}.out.txt").read_text()
    assert capsys.readouterr().out == want


JSON_DATA = pathlib.Path(__file__).parent / "data" / "json"


@pytest.mark.parametrize("name, argv", (
    (f"{name}.{out}", [command, str(source), *extra])
    for name in ("m2", "m3")
    for out, command, source, extra in (
        ("invert.json", "invert", JSON_DATA / f"{name}.realization.json", ()),
        ("weyl.json", "weyl", VERIFY_DATA / f"{name}.json", ()),
        ("fundamental.json", "fundamental", VERIFY_DATA / f"{name}.json",
         ("--nmax", "4", "--lambda", "2+0.5i")),
        ("fundamental.csv", "fundamental", VERIFY_DATA / f"{name}.json",
         ("--nmax", "4", "--lambda", "2+0.5i", "--format", "csv")),
        ("spins.json", "spins", VERIFY_DATA / f"{name}.json", ("--nmax", "4")),
        ("spins.csv", "spins", VERIFY_DATA / f"{name}.json",
         ("--nmax", "4", "--format", "csv")),
    )
))
def test_json_and_csv_outputs_are_those_of_the_per_matrix_writer(capsys, name,
                                                                  argv):
    """tests/data/json/<name> were written by the writer that formatted
    every float of every matrix (commit dea30bd); the m2 and m3 triples are
    random_admissible_triple(default_rng(seed), order, m, h_scale=8.0,
    inv_norm_max=0.3) with (seed, order, m) = (1, 4, 2) and (2, 5, 3), and
    <name>.realization.json their Weyl realizations.  The
    spins.json files have since lost their lambdas and sigmas keys, with
    every other value unchanged.  The invert, fundamental and spins files
    were rewritten when the lattice moved to the closed form, W to its
    pole residues and the Riccati solve to the Hamiltonian eigenvectors,
    by a script that asserted every key and shape unchanged, the spins and
    W_n within 1e-13 of the oracle of tests/oracle.py, cond(Sigma_n)
    within 1e-12 of the oracle's, and the inverted triple within 1e-12 of
    the old one; the weyl files are unchanged."""
    assert main(argv) == 0
    assert capsys.readouterr().out == (JSON_DATA / name).read_text()


def test_spins_json_of_the_real_mode_triple_is_pinned(capsys):
    assert main(["spins", str(EVOLVE_DATA / "real_mode.json"), "--nmax",
                 "4"]) == 0
    want = (JSON_DATA / "real_mode.spins.json").read_text()
    assert capsys.readouterr().out == want


def test_evolve_has_no_method_flag(capsys):
    with pytest.raises(SystemExit):
        main(["evolve", "--help"])
    assert "--method" not in capsys.readouterr().out


def _random_triple_obj(order, m, scale, kind, sigma0, seed):
    """Triple JSON with entries of magnitude about ``scale``: a plain
    Gaussian draw, or a class FG draw scaled so that the identity still
    holds (alpha -> c alpha, theta -> sqrt(c) theta)."""
    rng = np.random.default_rng(seed)
    cg = lambda *shape: (rng.standard_normal(shape)
                         + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    if kind == "gaussian":
        alpha, theta1, theta2 = (scale * cg(order, order),
                                 scale * cg(order, m), scale * cg(order, m))
        sig = cg(order, order) if sigma0 else None
        sig = None if sig is None else sig @ sig.conj().T + np.eye(order)
    else:
        draw = (random_general_sigma_triple if sigma0
                else random_admissible_triple)
        t = draw(rng, order, m)
        alpha, theta1, theta2 = (scale * t.alpha, np.sqrt(scale) * t.theta1,
                                 np.sqrt(scale) * t.theta2)
        sig = t.sigma0 if sigma0 else None
    obj = {"N": order, "m": m, "alpha": serialize.matrix_to_obj(alpha),
           "theta1": serialize.matrix_to_obj(theta1),
           "theta2": serialize.matrix_to_obj(theta2)}
    if sig is not None:
        obj["sigma0"] = serialize.matrix_to_obj(sig)
    return obj


@settings(max_examples=100, derandomize=True, deadline=None)
@given(order=st.integers(1, 3), m=st.integers(1, 2),
       log_scale=st.floats(-8.0, 8.0),
       kind=st.sampled_from(("gaussian", "admissible")),
       sigma0=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_cli_exit_codes_on_random_triples(order, m, log_scale, kind, sigma0,
                                          seed):
    """Every subcommand answers a code in {0, 1, 2, 3}, never a traceback."""
    obj = _random_triple_obj(order, m, 10.0 ** log_scale, kind, sigma0, seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(pathlib.Path(tmp) / "triple.json")
        pathlib.Path(path).write_text(json.dumps(obj))
        for argv in (["validate", path],
                     ["spins", path, "--nmax", "2"],
                     ["fundamental", path, "--lambda", "2+0.5i", "--nmax", "2"],
                     ["weyl", path],
                     ["evolve", path, "--nmax", "3", "--time-grid", "0,0.5,2"],
                     ["verify", path, "--nmax", "2"]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2, 3), argv


def _stdlib_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _fixture_triples(real_mode_triple):
    """Triples with m = 1, 2, 3, identity and general sigma0, and both
    routes of Sigma_0(t)."""
    rng = np.random.default_rng(606)
    return [example_triple(2), real_mode_triple,
            random_admissible_triple(rng, 3, 1),
            random_general_sigma_triple(rng, 4, 2),
            random_admissible_triple(rng, 5, 3)]


def test_json_commands_write_the_stdlib_bytes_of_the_plain_objects(
        tmp_path, capsys, real_mode_triple):
    """validate, spins, fundamental, weyl and evolve --format json write
    exactly json.dumps(sort_keys=True, indent=2) of the *_to_obj objects."""
    lam = 2 + 0.5j
    grid = cli._parse_lambda_grid(None)
    for index, triple in enumerate(_fixture_triples(real_mode_triple)):
        path = str(tmp_path / f"triple{index}.json")
        pathlib.Path(path).write_text(
            _stdlib_json(serialize.triple_to_obj(triple)))
        state = generate(triple, n_max=6)
        transfer = Transfer(state)
        report = validate(triple)
        phi = weyl(triple)
        expected = {
            ("validate", path): {
                "class": report.triple_class.value,
                "identity_ok": report.identity_ok,
                "identity_residual": report.identity_residual,
                "theta1_full_range": report.theta1_full_range,
                "theta2_full_range": report.theta2_full_range,
                "spectrum": [serialize.complex_to_obj(z)
                             for z in report.spectrum.eigenvalues],
                "min_imag_part": report.spectrum.min_imag_part,
            },
            ("spins", path, "--nmax", "6"): serialize.state_to_obj(state),
            ("fundamental", path, "--nmax", "6", "--lambda", "2+0.5i"): {
                "lambda": serialize.complex_to_obj(lam),
                "table": [{"n": n, "w": serialize.matrix_to_obj(
                    transfer.fundamental(n, lam))} for n in range(7)],
            },
            ("weyl", path): [{"lambda": serialize.complex_to_obj(z),
                              "phi": serialize.matrix_to_obj(phi(z))}
                             for z in grid],
        }
        if triple.m == 1:
            times = []
            for t in (-0.2, 0.1):
                lattice = TimeGrid(triple, [t], 4)
                state = lattice.state(0)
                sites = []
                for n in (1, 2):
                    s1, s2, s3 = lattice.vectors[0, n].tolist()
                    sites.append({
                        "n": n, "s1": s1, "s2": s2, "s3": s3,
                        "zc_residual": lattice.zero_curvature_at(0, n, lam),
                        "ihm_residual": lattice.ihm_at(0, n),
                    })
                times.append({
                    "t": t, "sites": sites,
                    "sigma0": serialize.matrix_to_obj(state.sigmas[0]),
                })
            expected[("evolve", path, "--nmax", "4", "--time-grid=-0.2,0.1,2",
                      "--format", "json")] = times
        for argv, obj in expected.items():
            assert main(list(argv)) == 0, argv
            assert capsys.readouterr().out == _stdlib_json(obj), argv


@pytest.mark.parametrize("order, m", ((2, 1), (3, 2), (4, 3)))
def test_invert_writes_the_stdlib_bytes_of_triple_to_obj(tmp_path, capsys,
                                                         order, m):
    r = random_minimal_realization(np.random.default_rng(order), order, m)
    path = tmp_path / "realization.json"
    path.write_text(_stdlib_json(serialize.realization_to_obj(r)))
    assert main(["invert", str(path)]) == 0
    assert capsys.readouterr().out == _stdlib_json(
        serialize.triple_to_obj(invert(r)))


def test_main_reuses_its_parser_across_subcommands(triple_file, capsys):
    """Commands run in one process answer as each does on a fresh parser:
    no option value or default carries over from one call to the next."""
    commands = (["spins", triple_file, "--nmax", "2", "--format", "csv"],
                ["fundamental", triple_file, "--lambda", "2+0.5i",
                 "--nmax", "2"],
                ["verify", triple_file])

    def run(argv):
        code = main(argv)
        return code, capsys.readouterr()

    cli._parser.cache_clear()
    together = [run(argv) for argv in commands]
    assert cli._parser.cache_info().misses == 1
    separate = []
    for argv in commands:
        cli._parser.cache_clear()
        separate.append(run(argv))
    assert together == separate


def test_importing_the_cli_leaves_the_integrator_unloaded():
    """Nothing in the package imports scipy.integrate (which pulls in
    scipy.optimize)."""
    code = ("import sys, spinlattice.cli; print(sorted(name for name in "
            "('scipy.integrate', 'scipy.optimize') if name in sys.modules))")
    src = pathlib.Path(spinlattice.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def _hostile_tol_files(directory):
    """(path, m, is_realization) of the scalar example, the real-mode triple,
    an m = 2 triple and the realizations of the scalar and m = 2 ones."""
    r2 = np.sqrt(2.0)
    triples = {"scalar": example_triple(2.0),
               "real_mode": spinlattice.ParameterTriple(
                   alpha=np.diag([2j, 3.0]), theta1=[[r2], [0.0]],
                   theta2=[[r2], [0.0]]),
               "m2": random_admissible_triple(np.random.default_rng(1), 4, 2)}
    files = []
    for name, triple in triples.items():
        path = pathlib.Path(directory) / f"{name}.json"
        path.write_text(serialize.dumps(serialize.triple_to_obj(triple)))
        files.append((str(path), triple.m, False))
        if name != "real_mode":
            path = pathlib.Path(directory) / f"{name}.realization.json"
            path.write_text(serialize.dumps(
                serialize.realization_to_obj(weyl(triple))))
            files.append((str(path), triple.m, True))
    return files


@settings(max_examples=12, derandomize=True, deadline=None)
@given(name=st.sampled_from(spinlattice.Tolerances.names()),
       exponent=st.floats(-300.0, 300.0))
def test_hostile_tolerances_keep_the_exit_code_contract(name, exponent):
    """Any Tolerances field at 10^u, |u| <= 300, through every subcommand:
    an exit code in {0, 1, 2, 3}, no escaping exception, no RuntimeWarning
    and no NaN or Infinity in the JSON output."""
    tol = ["--tol", f"{name}={10.0 ** exponent!r}"]
    with tempfile.TemporaryDirectory() as tmp:
        runs = [(["example", "--h", "2"], False)]
        for path, m, is_realization in _hostile_tol_files(tmp):
            if is_realization:
                runs.append((["invert", path], True))
                continue
            runs += [(["validate", path], True),
                     (["spins", path, "--nmax", "4"], True),
                     (["fundamental", path, "--lambda", "2+0.5i",
                       "--nmax", "4"], True),
                     (["weyl", path], True),
                     (["verify", path, "--nmax", "4"], False)]
            if m == 1:
                runs.append((["evolve", path, "--nmax", "4", "--time-grid",
                              "0,0.5,2", "--format", "json"], True))
        for argv, is_json in runs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv + tol)
            assert code in (0, 1, 2, 3), argv
            assert not [w for w in caught
                        if issubclass(w.category, RuntimeWarning)], argv
            if is_json:
                assert not re.search(r"\bNaN\b|Infinity", out.getvalue()), argv


@pytest.mark.parametrize("h", ("nan", "inf", "-inf"))
def test_example_with_a_non_finite_h_is_one_error_line(capsys, h):
    assert main(["example", f"--h={h}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: h must be finite")
    assert err.count("\n") == 1


@pytest.mark.parametrize("h", (4130.830748512281, 1e5))
def test_example_triple_builds_at_large_h(h):
    """theta1 = theta2 = sqrt(h) is the triple, with no check of
    |theta1|^2 + |theta2|^2 = 2h that rounding can fail."""
    triple = example_triple(h)
    assert triple.alpha[0, 0] == 1j * h
    assert triple.theta1[0, 0] == triple.theta2[0, 0] == np.sqrt(h)
    assert validate(triple).identity_ok


def _keeps_the_contract(argv, document=True):
    """Run main(argv) in-process and assert the exit-code contract: a code
    in {0, 1, 2, 3}, no escaping exception, one stderr line with codes 2
    and 3, no RuntimeWarning and, in a JSON or CSV document, no NaN or
    infinite value."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert err.getvalue().count("\n") == (code in (2, 3)), (argv, err.getvalue())
    assert not [w for w in caught
                if issubclass(w.category, RuntimeWarning)], argv
    if document:
        assert not re.search(r"\b(NaN|Infinity|nan|inf)\b", out.getvalue()), argv


@pytest.fixture(scope="module")
def hostile_files(tmp_path_factory):
    """(path, m, is_realization) of the files of ``_hostile_tol_files``."""
    return _hostile_tol_files(tmp_path_factory.mktemp("hostile"))


def _power(sign, exponent):
    """sign * 10^exponent, or 0 for sign 0."""
    return sign * 10.0 ** exponent if sign else 0.0


_SIGNS = st.sampled_from((-1.0, 0.0, 1.0))
_EXPONENTS = st.floats(-320.0, 308.25)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(file=st.integers(0, 2), anchor=st.integers(0, 3), exponent=_EXPONENTS,
       phase=st.floats(0.0, 2 * np.pi), fmt=st.sampled_from(("json", "csv")))
def test_hostile_lambda_keeps_the_exit_code_contract(
        hostile_files, file, anchor, exponent, phase, fmt):
    """fundamental at lambda = 10^u e^{i phase} away from 0, i, -i or an
    eigenvalue of alpha, |u| up to the float limits."""
    path = [p for p, _, realization in hostile_files if not realization][file]
    eigs = np.linalg.eigvals(serialize.triple_from_obj(
        serialize.load_json(path)).alpha)
    lam = ((0.0, 1j, -1j, eigs[0])[anchor]
           + 10.0 ** exponent * complex(np.cos(phase), np.sin(phase)))
    text = f"{lam.real!r}{'-' if lam.imag < 0 else '+'}{abs(lam.imag)!r}i"
    _keeps_the_contract(["fundamental", path, f"--lambda={text}", "--nmax",
                         "4", "--format", fmt])


@settings(max_examples=30, derandomize=True, deadline=None)
@given(file=st.integers(0, 2), signs=st.tuples(_SIGNS, _SIGNS),
       exponents=st.tuples(_EXPONENTS, _EXPONENTS, _EXPONENTS),
       count=st.integers(1, 16))
def test_hostile_lambda_grid_keeps_the_exit_code_contract(
        hostile_files, file, signs, exponents, count):
    """weyl on a circle whose center parts and radius are 10^u, |u| up to
    the float limits."""
    path = [p for p, _, realization in hostile_files if not realization][file]
    grid = (_power(signs[0], exponents[0]), _power(signs[1], exponents[1]),
            10.0 ** exponents[2], count)
    _keeps_the_contract(["weyl", path,
                         f"--lambda-grid={','.join(map(repr, grid))}"])


@settings(max_examples=30, derandomize=True, deadline=None)
@given(file=st.integers(0, 1), signs=st.tuples(_SIGNS, _SIGNS),
       exponents=st.tuples(_EXPONENTS, _EXPONENTS), count=st.integers(1, 4),
       fmt=st.sampled_from(("json", "csv")))
def test_hostile_time_grid_keeps_the_exit_code_contract(
        hostile_files, file, signs, exponents, count, fmt):
    """evolve on the m = 1 triples between endpoints +/-10^u, |u| up to the
    float limits."""
    path = [p for p, m, realization in hostile_files
            if m == 1 and not realization][file]
    a, b = (_power(s, u) for s, u in zip(signs, exponents))
    _keeps_the_contract(["evolve", path, f"--time-grid={a!r},{b!r},{count}",
                         "--nmax", "3", "--format", fmt])


@settings(max_examples=30, derandomize=True, deadline=None)
@given(file=st.integers(0, 2), n_max=st.integers(0, 300),
       command=st.sampled_from(("spins", "fundamental", "verify", "evolve")))
def test_hostile_nmax_keeps_the_exit_code_contract(hostile_files, file, n_max,
                                                   command):
    path, m, _ = [f for f in hostile_files if not f[2]][file]
    assume(command != "evolve" or m == 1)
    argv = [command, path, "--nmax", str(n_max)]
    if command == "fundamental":
        argv += ["--lambda", "2+0.5i"]
    if command == "evolve":
        argv += ["--time-grid", "0,0.5,3", "--format", "json"]
    _keeps_the_contract(argv, document=command != "verify")


@settings(max_examples=25, derandomize=True, deadline=None)
@given(order=st.integers(1, 3), m=st.integers(1, 2),
       exponent=st.floats(-320.0, 308.0),
       kind=st.sampled_from(("gaussian", "admissible")),
       sigma0=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_triples_at_extreme_scale_keep_the_exit_code_contract(
        order, m, exponent, kind, sigma0, seed):
    """Triples and realizations with entries of magnitude 10^u, |u| up to
    the float limits, through every subcommand."""
    obj = _random_triple_obj(order, m, 10.0 ** exponent, kind, sigma0, seed)
    rng = np.random.default_rng(seed)
    realization = {
        name: serialize.matrix_to_obj(10.0 ** exponent * (
            rng.standard_normal((order, cols))
            + 1j * rng.standard_normal((order, cols))))
        for name, cols in (("gamma", order), ("vartheta1", m),
                           ("vartheta2", m))}
    with tempfile.TemporaryDirectory() as tmp:
        path = str(pathlib.Path(tmp) / "triple.json")
        pathlib.Path(path).write_text(json.dumps(obj))
        source = str(pathlib.Path(tmp) / "realization.json")
        pathlib.Path(source).write_text(json.dumps(realization))
        for argv, document in (
                (["validate", path], True),
                (["spins", path, "--nmax", "4"], True),
                (["fundamental", path, "--lambda", "2+0.5i", "--nmax", "4"],
                 True),
                (["weyl", path], True),
                (["verify", path, "--nmax", "4"], False),
                (["evolve", path, "--nmax", "3", "--time-grid", "0,0.5,2"],
                 True),
                (["invert", source], True)):
            _keeps_the_contract(argv, document)


def _hostile_inputs(directory):
    """Triple and realization files at the edge of the float range, keyed
    by name."""
    e1 = [[1.0], [0.0], [0.0]]
    near_max = 1e308 * np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0],
                                 [0.0, 1.0, 1.0]])
    objects = {
        "large_scalar": dict(alpha=[[-1.038e150 - 1.291e150j]],
                             theta1=[[1.019e149]], theta2=[[-7.361e149]]),
        "tiny_sigma0": dict(alpha=2j * np.eye(2) + 1e-3 * np.eye(2)[::-1],
                            theta1=[[1.0], [0.5]], theta2=[[0.3], [1.0]],
                            sigma0=1e-300 * np.eye(2)),
        "subnormal": dict(alpha=[[2j]], theta1=[[1e-320]], theta2=[[1e-320]],
                          sigma0=[[1e-320]]),
        "huge_identity": dict(alpha=[[1 + 1e308j]], theta1=[[1e308]],
                              theta2=[[1e308]]),
        "huge_sigma0": dict(alpha=[[2j]], theta1=[[np.sqrt(2)]],
                            theta2=[[np.sqrt(2)]], sigma0=[[1e308]]),
        "near_max": dict(alpha=near_max, theta1=e1, theta2=e1),
        "near_max.realization": dict(gamma=near_max, vartheta1=e1,
                                     vartheta2=e1),
        "large.realization": dict(
            gamma=1e150 * np.array([[1j, 2.0], [0.5, -1j]]),
            vartheta1=1e150 * np.array([[1.0], [0.3]]),
            vartheta2=1e150 * np.array([[0.2], [1.0]])),
        "norm_overflow.realization": dict(
            gamma=1.5e308 * (np.ones((3, 3)) - np.eye(3)), vartheta1=e1,
            vartheta2=e1),
    }
    paths = {}
    for name, obj in objects.items():
        paths[name] = pathlib.Path(directory) / f"{name}.json"
        paths[name].write_text(serialize.dumps(
            {key: serialize.matrix_to_obj(value)
             for key, value in obj.items()}))
    paths["scaled_1e68"] = pathlib.Path(directory) / "scaled_1e68.json"
    paths["scaled_1e68"].write_text(json.dumps(
        _random_triple_obj(1, 1, 1e68, "admissible", False, 0)))
    return paths


@pytest.mark.parametrize("command, name, options, code", (
    ("spins", "large_scalar", (), 3),       # S_n ~ 1e299: S_n^2 overflows
    ("spins", "tiny_sigma0", (), 3),
    ("verify", "subnormal", (), 3),         # once an SVD of NaN spins
    ("validate", "huge_identity", (), 3),   # once identity_residual NaN
    ("validate", "huge_sigma0", (), 3),     # (M + M*) / 2 overflows
    ("validate", "near_max", (), 3),        # an eigenvalue overflows
    ("weyl", "near_max", (), 3),
    ("verify", "near_max", (), 3),
    ("invert", "near_max.realization", (), 3),
    ("invert", "large.realization", (), 3),  # once warnings in solve_riccati
    ("evolve", "example", ("--time-grid=-1e308,1e308,3", "--nmax", "3"),
     2),                                    # b - a overflows in linspace
    ("fundamental", "example", ("--lambda=5.4e-156+8.4e-156i",),
     3),                                    # (1 - i/lambda)^2 is NaN
    # ||gamma||_2 overflows: once an order-1 triple from an infinite
    # Krylov cutoff, exit 0
    ("invert", "norm_overflow.realization", (), 3),
    # S_n = J + Xi_n - Xi_{n+1} cancels terms of 1e68: once spins that are
    # no involutions, exit 0
    ("spins", "scaled_1e68", (), 3),
))
def test_finite_inputs_at_extreme_scale_are_one_error_line(
        tmp_path, example_file, capsys, command, name, options, code):
    path = (example_file if name == "example"
            else str(_hostile_inputs(tmp_path)[name]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([command, path, *options]) == code
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1, err


def _oversized_integer_file(directory, realization):
    """A triple, or a realization, whose first matrix entry has the JSON
    integer 10**400 as its imaginary part."""
    names = (("gamma", "vartheta1", "vartheta2") if realization
             else ("alpha", "theta1", "theta2"))
    entry = '{"re": 0, "im": 1' + "0" * 400 + "}"
    one = '{"re": 1, "im": 0}'
    text = "{" + ", ".join(
        f'"{name}": [[{entry if k == 0 else one}]]'
        for k, name in enumerate(names)) + "}"
    path = directory / ("oversized.realization.json" if realization
                        else "oversized.json")
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("command", ("validate", "spins", "verify", "weyl",
                                     "invert"))
def test_an_integer_beyond_the_float_range_is_one_error_line(
        tmp_path, capsys, command):
    path = _oversized_integer_file(tmp_path, command == "invert")
    assert main([command, path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1, err
    assert err.startswith("error: ") and "beyond the float range" in err, err


@pytest.mark.parametrize("argv", (
    ["evolve", "--time-grid", f"0,1,{10 ** 12}"],
    ["weyl", "--lambda-grid", f"0,-2,3,{10 ** 12}"],
))
def test_a_grid_count_beyond_the_bound_is_one_error_line(example_file, capsys,
                                                         argv):
    """Refused before the first point is made: 10**12 points would be a
    memory error, or a Python loop of 10**12 turns."""
    assert main([argv[0], example_file, *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1, err
    assert err == (f"error: {argv[1]} needs k <= {cli.GRID_MAX}, "
                   f"got {10 ** 12}\n")


@pytest.mark.parametrize("flag, spec", (("--time-grid", "0,1,{}"),
                                        ("--lambda-grid", "0,-2,3,{}")))
def test_a_grid_of_the_largest_count_is_accepted(flag, spec):
    parse = (cli._parse_time_grid if flag == "--time-grid"
             else cli._parse_lambda_grid)
    assert len(parse(spec.format(cli.GRID_MAX))) == cli.GRID_MAX
    with pytest.raises(spinlattice.errors.InputError, match=flag):
        parse(spec.format(cli.GRID_MAX + 1))


def _refused(argv, directory):
    """main(argv) with an --output in ``directory`` exits 2 with one stderr
    line, raises nothing and writes no file."""
    output = pathlib.Path(directory) / "out"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--output", str(output)])
    assert code == 2, (argv, err.getvalue())
    assert out.getvalue() == "" and err.getvalue().count("\n") == 1, argv
    assert err.getvalue().startswith("error: "), argv
    assert not output.exists(), argv


# the commands that read a triple file, and the one that reads a realization
_TRIPLE_COMMANDS = (["validate"], ["spins"], ["fundamental", "--lambda", "2"],
                    ["weyl"], ["evolve"], ["verify"])
_REALIZATION_COMMANDS = (["invert"],)
_ENTRY = {"re": 1.0, "im": 0.0}
_BAD_ENTRIES = ([1.0, 0.0], 1.0, "1", None, {"re": 1.0}, {"im": 1.0},
                {"re": "1", "im": 0.0}, {"re": None, "im": 0.0},
                {"re": True, "im": 0.0}, {"re": 0.0, "im": [1]})
_BAD_SIZES = (3.5, "1", True, None, [1], -1)


@functools.cache
def _malformed_documents():
    """(object, commands) of the valid documents that the malformed ones
    are made from: the scalar example and an m = 2 triple, and their
    realizations."""
    docs = []
    for triple in (example_triple(2.0),
                   random_admissible_triple(np.random.default_rng(1), 4, 2)):
        docs.append((serialize.triple_to_obj(triple), _TRIPLE_COMMANDS))
        docs.append((serialize.realization_to_obj(weyl(triple)),
                     _REALIZATION_COMMANDS))
    return docs


@st.composite
def _malformed(draw, kind):
    """A document made malformed in the way ``kind``, and the commands that
    read it."""
    obj, commands = draw(st.sampled_from(
        [doc for doc in _malformed_documents()
         if kind not in ("sigma0", "hermitian") or "alpha" in doc[0]]))
    square, block, other = (("gamma", "vartheta1", "vartheta2")
                            if "gamma" in obj
                            else ("alpha", "theta1", "theta2"))
    obj = json.loads(json.dumps(obj))
    order, m = obj["N"], obj["m"]
    key = draw(st.sampled_from((square, block, other)))
    rows = obj[key]
    if kind == "top":
        obj = draw(st.sampled_from(([], [obj], 1, "triple", None, True)))
    elif kind == "missing":
        del obj[key]
    elif kind == "ragged":
        rows.insert(draw(st.integers(0, len(rows))), rows[0] + [_ENTRY])
    elif kind == "empty":
        obj[key] = draw(st.sampled_from(([], [[]] * len(rows))))
    elif kind == "entry":
        i = draw(st.integers(0, len(rows) - 1))
        rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(
            st.sampled_from(_BAD_ENTRIES))
    elif kind == "square":
        obj[square] = ([row[:-1] for row in obj[square]] if order > 1
                       else [row + [_ENTRY] for row in obj[square]])
    elif kind == "width":
        obj[block] = [row + [_ENTRY] for row in obj[block]]
    elif kind == "height":
        obj[block] = (obj[block][:-1] if order > 1
                      else obj[block] + obj[block])
    elif kind == "sigma0":
        obj["sigma0"] = serialize.matrix_to_obj(np.eye(order + 1))
    elif kind == "hermitian":
        obj["sigma0"] = serialize.matrix_to_obj((1 + 1j) * np.eye(order))
    else:
        size = draw(st.sampled_from(("N", "m")))
        wrong = draw(st.one_of(st.sampled_from(_BAD_SIZES),
                               st.integers(-3, 40)))
        assume(wrong != (order if size == "N" else m))
        obj[size] = wrong
    return json.dumps(obj), commands


@pytest.mark.parametrize("kind", (
    "top",          # a top level that is no object
    "missing",      # a missing key
    "ragged",       # a row longer than the first
    "empty",        # no rows, or empty rows
    "entry",        # an entry without re/im, or with a non-numeric part
    "square",       # a non-square alpha or gamma
    "width",        # theta or vartheta blocks of unequal width
    "height",       # a theta or vartheta block of the wrong height
    "sigma0",       # a sigma0 of the wrong order
    "hermitian",    # a sigma0 that is not Hermitian
    "declared",     # a declared N or m that is no integer or disagrees
))
@settings(max_examples=8, derandomize=True, deadline=None)
@given(data=st.data())
def test_malformed_documents_are_one_error_line(kind, data):
    """A malformed triple or realization file, through every subcommand that
    reads it: exit 2, one stderr line, no traceback and no file written."""
    text, commands = data.draw(_malformed(kind))
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "doc.json"
        path.write_text(text)
        for command in commands:
            _refused([command[0], str(path), *command[1:]], tmp)


_FLOAT_TEXT = st.floats(-10.0, 10.0).map(repr)
_WORD = st.sampled_from(("", "x", "1e", "--1", "1,5", "0x10", "i"))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(tol=st.one_of(
           _WORD,                                           # no name=value
           st.tuples(st.sampled_from(spinlattice.Tolerances.names()),
                     st.one_of(_WORD, st.sampled_from(
                         ("0", "-1e-3", "nan", "inf", "-inf")))
                     ).map("=".join),
           st.sampled_from(("bogus=1", "=1", "tol=1e-8"))),
       lambda_grid=st.one_of(
           st.lists(_FLOAT_TEXT, min_size=1, max_size=6).filter(
               lambda parts: len(parts) != 4).map(",".join),
           st.tuples(_FLOAT_TEXT, _FLOAT_TEXT, _FLOAT_TEXT,
                     st.sampled_from(("x", "2.5", "1e3", ""))).map(",".join),
           st.tuples(_FLOAT_TEXT, _FLOAT_TEXT,
                     st.floats(-10.0, 0.0).map(repr),
                     st.integers(-5, 8).map(str)).map(",".join),
           st.tuples(_FLOAT_TEXT, _FLOAT_TEXT, st.floats(0.1, 10.0).map(repr),
                     st.integers(-5, 0).map(str)).map(",".join)),
       time_grid=st.one_of(
           st.lists(_FLOAT_TEXT, min_size=1, max_size=5).filter(
               lambda parts: len(parts) != 3).map(",".join),
           st.tuples(st.one_of(_FLOAT_TEXT, _WORD.filter(bool)), _FLOAT_TEXT,
                     st.sampled_from(("x", "2.5", "1e3", ""))).map(",".join),
           st.tuples(_FLOAT_TEXT, _FLOAT_TEXT,
                     st.integers(-5, 0).map(str)).map(",".join)))
def test_malformed_flag_strings_are_one_error_line(hostile_files, tol,
                                                   lambda_grid, time_grid):
    """A malformed --tol through every subcommand, a malformed --lambda-grid
    through weyl and a malformed --time-grid through evolve: exit 2, one
    stderr line, no traceback and no file written."""
    triple, realization = (next(path for path, m, is_realization
                                in hostile_files
                                if m == 1 and is_realization == wanted)
                           for wanted in (False, True))
    with tempfile.TemporaryDirectory() as tmp:
        _refused(["example", f"--tol={tol}"], tmp)
        _refused(["invert", realization, f"--tol={tol}"], tmp)
        for command in _TRIPLE_COMMANDS:
            _refused([command[0], triple, *command[1:], f"--tol={tol}"], tmp)
        _refused(["weyl", triple, f"--lambda-grid={lambda_grid}"], tmp)
        _refused(["evolve", triple, f"--time-grid={time_grid}"], tmp)
