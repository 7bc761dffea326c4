"""The benchmark's workloads: the inputs each draws from a seed, the CLI
pipeline one job runs, and the oracle that checks a job's outputs.

The corpus is ``lead`` fixed inputs followed by rounds of one input per
stratum (order, m).  A run takes the corpus in order through a whole number
of rounds, so each stratum is seen equally often, and the jobs a run does
depend only on the seed and ``--seconds``, never on the host's speed.
"""

import csv
import json
from dataclasses import dataclass, field

import numpy as np

import reference as ref


@dataclass
class Item:
    """One input file of a workload, with what the oracle needs to check it."""

    label: str
    payload: dict
    expected: dict = field(default_factory=dict)


def _triple_obj(alpha, theta1, theta2):
    return {
        "N": alpha.shape[0],
        "m": theta1.shape[1],
        "alpha": ref.matrix_obj(alpha),
        "theta1": ref.matrix_obj(theta1),
        "theta2": ref.matrix_obj(theta2),
    }


def _m1_triples(rng, orders, rounds):
    """m = 1 triples drawn like ``random_admissible_triple`` with its
    defaults (H scale 2, ||alpha^{-1}|| <= 1), one per order each round."""
    return [Item(f"N{order}", _triple_obj(*ref.random_triple(
                rng, order, 1, h_scale=2.0, inv_norm_max=1.0)))
            for _ in range(rounds) for order in orders]


def _check_verify_text(path, expected_checks):
    with open(path) as handle:
        lines = handle.read().splitlines()
    checks = lines[:-1]
    for line in checks:
        if ": PASS " not in line:
            return f"verify: {line}"
    if len(checks) != expected_checks or lines[-1] != "all checks passed":
        return f"verify: {len(checks)} checks, last line {lines[-1]!r}"
    return None


class Workload:
    """How many jobs a run does; each workload adds its corpus, pipeline
    and oracle."""

    ms = (1,)
    lead = 0                # inputs before the first round
    job_s = None            # seconds per job, calibration included, on the
                            # development host under its usual load

    @property
    def strata(self):
        return len(self.orders) * len(self.ms)

    def trace_count(self):
        """Jobs in one traced pass: the lead inputs and the first round."""
        return self.lead + self.strata

    def job_count(self, seconds):
        """Jobs in a timed run: the lead inputs and as many whole rounds as
        take about ``seconds`` on the development host, at least one."""
        rounds = max(1, round(seconds / (self.strata * self.job_s)))
        return self.lead + self.strata * rounds


class IhmVerify(Workload):
    """``verify`` on m = 1 triples; the RK4 route of Sigma_0(t) dominates."""

    name = "ihm-verify"
    orders = range(2, 7)
    rounds = 12
    lead = 1
    job_s = 0.65
    checks = 23             # every named check runs for m = 1

    def corpus(self, rng):
        # the scalar example family alpha = 2i, theta1 = theta2 = sqrt(2)
        h = 2.0
        example = Item("example-h2", _triple_obj(
            np.array([[1j * h]]), np.array([[np.sqrt(h)]]),
            np.array([[np.sqrt(h)]])))
        return [example] + _m1_triples(rng, self.orders, self.rounds)

    def pipeline(self, d):
        return [["verify", f"{d}/input.json", "-o", f"{d}/verify.txt"]]

    def check(self, item, d):
        return _check_verify_text(f"{d}/verify.txt", self.checks)


class IhmTrajectory(Workload):
    """``evolve`` on m = 1 triples: many short-horizon lattice states."""

    name = "ihm-trajectory"
    orders = range(2, 7)
    rounds = 24
    job_s = 0.40
    nmax = 8
    times = 6
    residual_max = 1e-6
    norm_tol = 1e-9

    def corpus(self, rng):
        return _m1_triples(rng, self.orders, self.rounds)

    def pipeline(self, d):
        return [["evolve", f"{d}/input.json", "--nmax", str(self.nmax),
                 "--time-grid", f"0,0.5,{self.times}", "-o", f"{d}/traj.csv"]]

    def check(self, item, d):
        with open(f"{d}/traj.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        if len(rows) != self.times * (self.nmax - 2):
            return f"evolve: {len(rows)} rows"
        for row in rows:
            where = f"t={row['t']} n={row['n']}"
            for key in ("zc_residual", "ihm_residual"):
                if not float(row[key]) <= self.residual_max:
                    return f"evolve: {key}={row[key]} at {where}"
            norm = np.sqrt(sum(float(row[k]) ** 2 for k in ("s1", "s2", "s3")))
            if not abs(norm - 1.0) <= self.norm_tol:
                return f"evolve: |s| - 1 = {norm - 1.0:.3e} at {where}"
        return None


class InverseSpectral(Workload):
    """The inverse and direct problems at long horizons, m = 2 and 3."""

    name = "inverse-spectral"
    orders = range(3, 11)
    ms = (2, 3)
    rounds = 10
    job_s = 0.22
    grid = (0.0, -2.0, 3.0, 64)
    lam = "2+0.5i"
    nmax = 60
    verify_nmax = 30
    checks = 17             # the evolution checks run only for m = 1
    rel_tol = 1e-8
    # Source triples are redrawn until cond(Sigma_n) stays below this up to
    # n = nmax: spins of two equivalent triples agree only to about
    # cond(Sigma_n) * eps, so the 1e-8 oracle needs a well-conditioned lattice.
    cond_limit = 1e6

    def corpus(self, rng):
        points = ref.circle(*self.grid)
        items = []
        for _ in range(self.rounds):
            for order in self.orders:
                for m in self.ms:
                    while True:
                        alpha, theta1, theta2 = ref.random_triple(
                            rng, order, m, h_scale=8.0, inv_norm_max=0.3)
                        spins = ref.lattice_spins(alpha, theta1, theta2,
                                                  self.nmax, self.cond_limit)
                        if spins is not None:
                            break
                    gamma, v1, v2 = ref.similarity(
                        rng, *ref.weyl_realization(alpha, theta1, theta2))
                    payload = {
                        "N": order, "m": m,
                        "gamma": ref.matrix_obj(gamma),
                        "vartheta1": ref.matrix_obj(v1),
                        "vartheta2": ref.matrix_obj(v2),
                    }
                    phi = ref.phi(gamma, v1, v2, points)
                    items.append(Item(f"N{order}m{m}", payload,
                                      {"phi": phi, "spins": spins}))
        return items

    def pipeline(self, d):
        triple = f"{d}/triple.json"
        return [
            ["invert", f"{d}/input.json", "-o", triple],
            ["verify", triple, "--nmax", str(self.verify_nmax),
             "-o", f"{d}/verify.txt"],
            ["weyl", triple, "--lambda-grid", ",".join(map(str, self.grid)),
             "-o", f"{d}/weyl.json"],
            ["fundamental", triple, "--nmax", str(self.nmax),
             "--lambda", self.lam, "-o", f"{d}/fundamental.json"],
            ["spins", triple, "--nmax", str(self.nmax),
             "-o", f"{d}/spins.json"],
        ]

    def check(self, item, d):
        reason = _check_verify_text(f"{d}/verify.txt", self.checks)
        if reason:
            return reason
        with open(f"{d}/weyl.json") as handle:
            samples = json.load(handle)
        if len(samples) != len(item.expected["phi"]):
            return f"weyl: {len(samples)} samples"
        for sample, want in zip(samples, item.expected["phi"]):
            err = ref.rel_err(ref.matrix_from_obj(sample["phi"]), want)
            if not err <= self.rel_tol:
                return f"weyl: relative phi error {err:.3e}"
        with open(f"{d}/fundamental.json") as handle:
            table = json.load(handle)["table"]
        if len(table) != self.nmax + 1:
            return f"fundamental: {len(table)} rows"
        w0 = ref.matrix_from_obj(table[0]["w"])
        err = ref.rel_err(w0, np.eye(w0.shape[0]))
        if not err <= self.rel_tol:
            return f"fundamental: W_0 differs from I by {err:.3e}"
        with open(f"{d}/spins.json") as handle:
            spins = json.load(handle)["spins"]
        if len(spins) != self.nmax:
            return f"spins: {len(spins)} spins"
        for n, (got, want) in enumerate(zip(spins, item.expected["spins"])):
            err = ref.rel_err(ref.matrix_from_obj(got), want)
            if not err <= self.rel_tol:
                return f"spins: relative error {err:.3e} at n = {n}"
        return None


WORKLOADS = {w.name: w for w in (IhmVerify(), IhmTrajectory(), InverseSpectral())}
