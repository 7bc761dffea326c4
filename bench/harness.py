"""Closed-loop benchmark of the spinlattice command line, run in-process.

One client sends one job at a time: a job is one generated input taken
through its workload's fixed CLI pipeline (``spinlattice.cli.main``), and
the next job starts when the previous one has ended.  ``--seconds`` sets how
many jobs a run does, as many as take about that long on the development
host, so that a seed always gives the same jobs and the same failures.  An oracle outside the
program checks every job's outputs after the job's timing ends.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes over a fixed subset of the corpus and
reports per-layer metrics from the spans.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np
import scipy
import scipy.linalg

from spinlattice import cli

import reference as ref
import tracer as tr
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_SAMPLES = 5

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

CHECKS = (
    "closed-form-lambda", "contractivity", "evolution-identity",
    "evolution-method-agreement", "factorization-rank-m",
    "fundamental-recursion", "identity-propagation", "ihm-vector-equation",
    "inverse-product", "k-residual", "lax-equality", "monodromy",
    "monotone-sequences", "rank-structure", "sigma-positivity",
    "spin-hermitian", "spin-involution", "summability-dichotomy",
    "transfer-identity", "two-point-identity", "weyl-block-ratio",
    "weyl-normalized-agreement", "zero-curvature",
)

# name -> (unit, how the value is read from one traced pass)
PER_LAYER = {
    "evolution.evolve_sigma0_ode.calls": ("count", "calls"),
    "evolution.evolve_sigma0_ode.s": ("s", "total"),
    "evolution.expm.calls": ("count", "calls"),
    "evolution.evolve_lambda0.calls": ("count", "calls"),
    "evolution.state_at.calls": ("count", "calls"),
    "evolution.evolve_sigma0_sylvester.s": ("s", "total"),
    "evolution.residuals_s": ("s", None),
    "lattice.generate.calls": ("count", "calls"),
    "lattice.states_built": ("count", "counter"),
    "lattice.generate.self_s": ("s", "own"),
    "transfer.w.calls": ("count", "calls"),
    "transfer.w.distinct": ("count", "counter"),
    "transfer.w.reuse_ratio": ("ratio", None),
    "transfer.fundamental.calls": ("count", "calls"),
    "weyl.phi.calls": ("count", "calls"),
    "weyl.phi.s": ("s", "total"),
    "weyl.weyl.calls": ("count", "calls"),
    "weyl.summability.s": ("s", "total"),
    "inverse.invert.calls": ("count", "calls"),
    "inverse.invert.s": ("s", "total"),
    "inverse.solve_riccati.s": ("s", "total"),
    "inverse.newton_iterations": ("count", "counter"),
    "inverse.check_minimal.calls": ("count", "calls"),
    "serialize.dumps.s": ("s", "total"),
    "serialize.load.s": ("s", None),
    "serialize.out_bytes": ("bytes", "counter"),
    "cli.main.calls": ("count", "calls"),
    "cli.main.self_s": ("s", "own"),
    "triples.validate.calls": ("count", "calls"),
    "triples.validate.s": ("s", "total"),
    "linalg.inv.calls": ("count", "calls"),
    "linalg.solve.calls": ("count", "calls"),
    "linalg.solve_sylvester.calls": ("count", "calls"),
    "linalg.spectrum.calls": ("count", "calls"),
    "linalg.eigvals.calls": ("count", "calls"),
    "verify.run_checks.s": ("s", "total"),
    **{f"verify.check.{name}.s": ("s", "total") for name in CHECKS},
    **{f"{layer}.self_s": ("s", None) for layer in tr.LAYERS},
    "trace.overhead_frac": ("ratio", None),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Calibration:
    """A fixed piece of work, independent of the package, timed between
    jobs to follow the host's speed.

    The host is shared, and its speed drifts by up to a factor of two over
    seconds to minutes; wall time alone cannot resolve a 10 % change.  Each
    timed interval is scaled by ``NOMINAL_S`` over the mean of the kernel
    times measured just before and just after it, which gives seconds at
    the host's nominal speed.  The kernel mixes the kinds of work a job
    does (a Python loop over small matrix products and solves, eigenvalues,
    ``expm``, a Sylvester solve, JSON), so that contention slows it as much
    as it slows a job.  The package's own code never enters the kernel, so a
    change to the package moves the scaled times in full.
    """

    NOMINAL_S = 0.010      # kernel seconds on the development host at speed
    REPEAT = 6

    def __init__(self):
        rng = np.random.default_rng(20261017)
        self.triple = ref.random_triple(rng, 6, 2, h_scale=8.0,
                                        inv_norm_max=0.3)
        self.text = json.dumps(ref.matrix_obj(self.triple[0]))
        self.samples = []

    def measure(self):
        alpha = self.triple[0]
        start = time.perf_counter()
        for _ in range(self.REPEAT):
            ref.lattice_spins(*self.triple, 30, np.inf)
            json.dumps(json.loads(self.text), indent=2)
            for _ in range(4):
                np.linalg.eigvals(alpha)
                scipy.linalg.expm(-0.1 * alpha)
                scipy.linalg.solve_sylvester(alpha, -alpha.conj().T, alpha)
        self.samples.append(time.perf_counter() - start)
        return self.samples[-1]

    def scaled(self, seconds, before, after):
        return seconds * self.NOMINAL_S * 2 / (before + after)


def set_up(workload, seed, work):
    """Draw the corpus from the seed, write the inputs and run one untimed
    warm-up job.  Returns the corpus items and their job directories."""
    items = workload.corpus(np.random.default_rng(seed))
    dirs = []
    for index, item in enumerate(items):
        job_dir = os.path.join(work, f"{index:03d}-{item.label}")
        os.makedirs(job_dir)
        with open(os.path.join(job_dir, "input.json"), "w") as handle:
            json.dump(item.payload, handle)
        dirs.append(job_dir)
    run_job(workload, items[0], dirs[0])
    return items, dirs


def run_job(workload, item, job_dir):
    """Run one job's pipeline; returns (seconds, failure reason or None).

    Only the CLI calls are timed; the oracle runs after the clock stops, on
    outputs written by this job alone.
    """
    for name in os.listdir(job_dir):
        if name != "input.json":
            os.remove(os.path.join(job_dir, name))
    stderr = io.StringIO()
    reason = None
    start = time.perf_counter()
    with contextlib.redirect_stderr(stderr):
        for argv in workload.pipeline(job_dir):
            try:
                code = cli.main(argv)
            except Exception as exc:  # a traceback is a failed job
                reason = f"{argv[0]}: uncaught {type(exc).__name__}: {exc}"
                break
            if code != 0:
                reason = f"{argv[0]}: exit {code}"
                break
    seconds = time.perf_counter() - start
    message = stderr.getvalue().strip()
    if reason and message:
        return seconds, f"{reason}: {message.splitlines()[-1]}"
    try:
        detail = workload.check(item, job_dir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        detail = f"oracle: unreadable output: {type(exc).__name__}: {exc}"
    if reason:
        return seconds, f"{reason}: {detail}"
    return seconds, detail


def setup_samples(workload, seed, count, calibration):
    """Seconds from starting a fresh interpreter to the point where it could
    start its first timed job, measured ``count`` times: (raw, scaled)."""
    argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
            "--workload", workload.name, "--seed", str(seed), "--setup-probe"]
    raw, scaled = [], []
    for _ in range(count):
        before = calibration.measure()
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            raw.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code})")
        scaled.append(calibration.scaled(raw[-1], before, calibration.measure()))
    return raw, scaled


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _latency(durations, passed, setup):
    """Time metrics; ``jobs_per_s`` counts only the jobs that passed, over
    the time spent on them, since failures count in ``ok_frac``."""
    return {
        "jobs_per_s": len(passed) / sum(passed) if passed else 0.0,
        "job_s.p50": statistics.median(durations),
        "job_s.p90": quantile(durations, 90),
        "setup_s": statistics.median(setup),
    }


def end_to_end(workload, items, dirs, seconds, seed):
    calibration = Calibration()
    setup_raw, setup = setup_samples(workload, seed, SETUP_SAMPLES,
                                     calibration)
    raw, scaled, ok, failures = [], [], [], []
    before = calibration.measure()
    for job in range(workload.job_count(seconds)):
        index = job % len(items)
        elapsed, reason = run_job(workload, items[index], dirs[index])
        after = calibration.measure()
        raw.append(elapsed)
        scaled.append(calibration.scaled(elapsed, before, after))
        before = after
        if reason:
            failures.append(f"{index:03d}-{items[index].label}: {reason}")
        else:
            ok.append(len(raw) - 1)
    values = {
        **_latency(scaled, [scaled[i] for i in ok], setup),
        "ok_frac": len(ok) / len(raw),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    counts = {name: len(raw) for name in values}
    counts["jobs_per_s"] = len(ok)
    counts["setup_s"] = len(setup)
    counts["peak_rss_mb"] = 1
    extra = {
        "unscaled": _latency(raw, [raw[i] for i in ok], setup_raw),
        "calibration_s": statistics.median(calibration.samples),
    }
    return values, END_TO_END, counts, len(raw), failures, True, extra


def layer_values(spans, counters):
    calls, total, own = tr.summarize(spans)
    layer_self = dict.fromkeys(tr.LAYERS, 0.0)
    for name, seconds in own.items():
        layer_self[name.split(".")[0]] += seconds
    w_calls = calls["transfer.w"]
    derived = {
        "evolution.residuals_s": total["evolution.zero_curvature_residual"]
        + total["evolution.ihm_residual"],
        "transfer.w.reuse_ratio":
            (w_calls - counters["transfer.w.distinct"]) / w_calls
            if w_calls else 0.0,
        "serialize.load.s": total["serialize.load_json"]
        + total["serialize.triple_from_obj"]
        + total["serialize.realization_from_obj"],
        **{f"{layer}.self_s": layer_self[layer] for layer in tr.LAYERS},
    }
    values = {}
    for name, (_, source) in PER_LAYER.items():
        span = name.rsplit(".", 1)[0]
        if source == "calls":
            values[name] = calls[span]
        elif source == "total":
            values[name] = total[span]
        elif source == "own":
            values[name] = own[span]
        elif source == "counter":
            values[name] = counters[name]
        elif name in derived:
            values[name] = derived[name]
    return values


def run_pass(workload, jobs, tracer=None):
    seconds, failures = 0.0, []
    for job_id, (item, job_dir) in enumerate(jobs):
        if tracer:
            tracer.job = job_id
        elapsed, reason = run_job(workload, item, job_dir)
        seconds += elapsed
        if reason:
            failures.append(f"{job_id:03d}-{item.label}: {reason}")
    return seconds, failures


def traced(workload, items, dirs, seconds, seed):
    """Alternate untraced and traced passes over the first
    ``workload.trace_count()`` corpus items, as many pairs as take about
    ``seconds`` on the development host (at least one).

    Counts come from every traced pass and must agree between passes; times
    are medians over the traced passes.
    """
    jobs = list(zip(items, dirs))[:workload.trace_count()]
    pairs = max(1, round(seconds / (2 * len(jobs) * workload.job_s)))
    tracer = tr.Tracer()
    first, per_pass, overheads, failures = None, [], [], []
    for _ in range(pairs):
        plain, failed = run_pass(workload, jobs)
        failures += failed
        tracer.install()
        try:
            with_spans, failed = run_pass(workload, jobs, tracer)
        finally:
            tracer.uninstall()
        failures += failed
        spans, counters = tracer.take()
        first = first or spans
        per_pass.append(layer_values(spans, counters))
        overheads.append(with_spans / plain - 1.0)
    values = {}
    steady = True
    for name, (unit, _) in PER_LAYER.items():
        if name not in per_pass[0]:
            continue
        column = [p[name] for p in per_pass]
        if unit == "s":
            values[name] = statistics.median(column)
        else:
            steady &= len(set(column)) == 1
            values[name] = column[0]
    values["trace.overhead_frac"] = statistics.median(overheads)
    os.makedirs(OUT_DIR, exist_ok=True)
    tr.write(os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.csv"),
             first)
    if not steady:
        print("traced counts differ between passes", file=sys.stderr)
    units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    counts = {name: len(per_pass) for name in values}
    attempted = 2 * len(per_pass) * len(jobs)
    return values, units, counts, attempted, failures, steady, {
        "trace_jobs": len(jobs)}


def source_digest():
    """SHA-256 over the package sources, which names the code measured even
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = pathlib.Path(ROOT, "src")
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    git = pathlib.Path(ROOT, ".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
    except OSError:
        return None
    return head


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: v for k, v in sorted(os.environ.items())
                         if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{workload.name}-", dir=OUT_DIR)
    try:
        items, dirs = set_up(workload, args.seed, work)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        measure = traced if args.trace else end_to_end
        values, units, counts, attempted, failures, correct, extra = measure(
            workload, items, dirs, args.seconds, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, value in values.items():
        print(f"{workload.name} {name} = {value:.6g} {units[name]} "
              f"(n = {counts[name]})", file=sys.stderr)
    for failure in failures[:10]:
        print(f"failed: {failure}", file=sys.stderr)
    meta = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "fail_frac": len(failures) / attempted,
        "samples": counts,
        **extra,
        **environment(),
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0
