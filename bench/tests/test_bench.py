"""Tests of the benchmark itself: every declared metric is emitted, a seed
gives the same jobs and failures on every run, traced counts repeat exactly,
and the lattice-state count matches its formula.

Run with ``python3 -m pytest bench/tests`` from the repository root.
"""

import functools
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import BENCH_DIR, ROOT

NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = ("ihm-verify", "ihm-trajectory", "inverse-spectral")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@functools.lru_cache(maxsize=None)
def _run(workload, trace, attempt=0):
    """Result line of one run at seed 0; ``attempt`` asks for a fresh run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_the_workloads():
    assert [w["name"] for w in _spec()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    declared = _spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert NAME.fullmatch(metric["name"])
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))


def test_traced_counts_repeat_exactly():
    first = _run("inverse-spectral", 1)["metrics"]
    second = _run("inverse-spectral", 1, attempt=1)["metrics"]
    counts = [name for name, m in first.items() if m["unit"] == "count"]
    assert "inverse.newton_iterations" in counts
    assert first["inverse.invert.calls"]["value"] > 0
    for name in counts:
        assert first[name]["value"] == second[name]["value"], name


@pytest.mark.parametrize("trace", (0, 1))
def test_jobs_and_failures_repeat_for_a_seed(trace):
    """A run's jobs depend on the seed and ``--seconds`` only, so two runs
    attempt the same jobs and fail the same ones, however fast the host."""
    first = _run("ihm-verify", trace)
    second = _run("ihm-verify", trace, attempt=1)
    assert first["attempted"] == second["attempted"]
    assert first["failed"] == second["failed"]
    # the lead input, alpha = 2i, fails on every seed
    assert first["failed"] >= 1


@pytest.mark.parametrize("n_max, times", ((12, 11), (8, 6)))
def test_states_built_per_evolve(tmp_path, n_max, times):
    """One ``evolve --nmax N`` over k times builds k (1 + 6 (N - 2)) states:
    one per time, and three each for the zero-curvature and IHM residuals
    at every inner site."""
    import reference as ref
    import tracer as tr
    from spinlattice import cli

    alpha, theta1, theta2 = ref.random_triple(
        np.random.default_rng(7), 4, 1, h_scale=2.0, inv_norm_max=1.0)
    path = tmp_path / "triple.json"
    path.write_text(json.dumps({
        "alpha": ref.matrix_obj(alpha), "theta1": ref.matrix_obj(theta1),
        "theta2": ref.matrix_obj(theta2)}))
    tracer = tr.Tracer()
    tracer.install()
    try:
        code = cli.main(["evolve", str(path), "--nmax", str(n_max),
                         "--time-grid", f"0,1,{times}",
                         "-o", str(tmp_path / "out.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    spans, counts = tracer.take()
    assert counts["lattice.states_built"] == times * (1 + 6 * (n_max - 2))
    calls, _, _ = tr.summarize(spans)
    assert calls["lattice.generate"] == counts["lattice.states_built"]
    assert not hasattr(cli.main, "__wrapped__")


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ihm-verify",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
