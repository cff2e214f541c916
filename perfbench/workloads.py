"""The four benchmark workloads.

Each workload generates its inputs from the workload seed, yields the
``tailsum`` commands of one cycle, and checks every output against values
the benchmark computes itself.  A check returns a list of problems; an
empty list means the output is correct.
"""

import csv
import hashlib
import io
import json
import math
import random
import statistics
from dataclasses import dataclass
from typing import Callable

import numpy as np

# the repository's fast-path-versus-oracle equivalence contract
EQUIV_RTOL = 1e-10
# the Simpson oracle against the closed-form binomial
ORACLE_ATOL = 1e-3
# largest |z| accepted for a Monte Carlo moment against its limit value
Z_LIMIT = 6.0


@dataclass(frozen=True)
class Op:
    """One command sent to ``tailsum.cli.main``."""

    label: str
    argv: list
    check: Callable  # output text -> list of problems
    reps: int = 1  # Monte Carlo replications the command completes


def _rel_close(got, want, rtol):
    return abs(got - want) <= rtol * max(abs(got), abs(want))


def _weibull_factor(r, rho, gamma):
    """prod_{j<=r} (g+j)/(g+rho+j) for r <= rho; 1 outside the weibull domain."""
    r, rho = min(r, rho), max(r, rho)
    if gamma is None:
        return 1.0
    out = 1.0
    for j in range(1, r + 1):
        out *= (gamma + j) / (gamma + rho + j)
    return out


def _limit_matrix(pmax, gamma, reduced):
    """Limit covariance binom(r+rho, r) times the weibull factor, shifted
    by the deterministic-centering coefficients when ``reduced``."""
    e = [1.0 if gamma is None else (gamma + p) / gamma for p in range(1, pmax + 1)]
    out = []
    for r in range(1, pmax + 1):
        row = []
        for rho in range(1, pmax + 1):
            value = math.comb(r + rho, r) * _weibull_factor(r, rho, gamma)
            if reduced:
                value += -e[r - 1] - e[rho - 1] + e[r - 1] * e[rho - 1]
            row.append(value)
        out.append(row)
    return out, e


def _matrix_problems(name, got, want):
    problems = []
    if len(got) != len(want) or any(len(g) != len(w) for g, w in zip(got, want)):
        return [f"{name}: shape differs from {len(want)}x{len(want)}"]
    for r, (grow, wrow) in enumerate(zip(got, want), start=1):
        for rho, (g, w) in enumerate(zip(grow, wrow), start=1):
            if not _rel_close(g, w, EQUIV_RTOL):
                problems.append(f"{name}[{r},{rho}] = {g!r}, expected {w!r}")
    return problems


class EstimateFile:
    """Repeated ``estimate`` on one generated Pareto(gamma=2) data file."""

    name = "estimate-file"
    N, K, L, PMAX = 200_000, 2000, 20, 6

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        values = (1.0 - rng.random(self.N)) ** -0.5
        self.path = workdir / "pareto.txt"
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write("value\n")
            fh.writelines(f"{v!r}\n" for v in values.tolist())
        # T_p = (l e_l^p + sum_{j=l..k-1} e_j^p) / (k p!), e_j = Y_{n-j,n} - Y_{n-k,n}
        y = np.sort(np.log(values))
        n, k, l = self.N, self.K, self.L
        e = y[n - 1 - np.arange(k)] - y[n - 1 - k]
        self.statistic = [
            float(l * e[l] ** p + math.fsum(e[l:] ** p)) / (k * math.factorial(p))
            for p in range(1, self.PMAX + 1)
        ]
        # frechet reduced variance is binom(2p, p) - 1
        spread = math.sqrt(2.0 * math.log(math.log(n)) / k)
        self.envelope = [
            math.sqrt(math.comb(2 * p, p) - 1) * spread for p in range(1, self.PMAX + 1)
        ]

    def ops(self, cycle):
        argv = [
            "estimate", "--input", str(self.path), "--k", str(self.K), "--l", str(self.L),
            "--pmax", str(self.PMAX), "--domain", "frechet",
        ]
        return [Op("estimate", argv, self.check)]

    def check(self, text):
        payload = json.loads(text)
        problems = []
        if payload["n"] != self.N:
            problems.append(f"n = {payload['n']}, expected {self.N}")
        results = payload["results"]
        if [entry["p"] for entry in results] != list(range(1, self.PMAX + 1)):
            return problems + ["results do not list orders 1..pmax"]
        for entry, want, envelope in zip(results, self.statistic, self.envelope):
            p, t = entry["p"], entry["statistic"]
            if not _rel_close(t, want, EQUIV_RTOL):
                problems.append(f"order {p}: statistic {t!r}, expected {want!r}")
            index = entry["index_estimate"]
            if index is None or not _rel_close(index, t ** (-1.0 / p), 1e-12):
                problems.append(f"order {p}: index_estimate {index!r} is not statistic^(-1/{p})")
            got = entry["lil_envelope"]
            if got is None or not _rel_close(got, envelope, EQUIV_RTOL):
                problems.append(f"order {p}: lil_envelope {got!r}, expected {envelope!r}")
        return problems

    def findings(self):
        return []


@dataclass(frozen=True)
class McDist:
    label: str
    flags: list
    weibull_gamma: float | None
    gated: bool  # False: deviations are reported as a finding, not a failure


def _op_seed(seed, cycle, position):
    digest = hashlib.sha256(f"{seed}:{cycle}:{position}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class MonteCarlo:
    """Repeated ``mc`` at the acceptance sizes with a tenth of the replications."""

    N, K, PMAX, REPS = 100_000, 1000, 3, 200

    def __init__(self, name, seed, dists, workers):
        self.name = name
        self.seed = seed
        self.dists = dists
        self.workers = workers
        self.max_abs_z = 0.0
        self.ungated = {}  # (dist, comparison) -> list of (relative error, z)

    def ops(self, cycle):
        out = []
        for position, dist in enumerate(self.dists):
            argv = ["mc", *dist.flags, "--n", str(self.N), "--k", str(self.K),
                    "--pmax", str(self.PMAX), "--reps", str(self.REPS),
                    "--seed", str(_op_seed(self.seed, cycle, position)),
                    "--workers", str(self.workers)]
            out.append(Op(dist.label, argv, lambda text, d=dist: self.check(text, d), self.REPS))
        return out

    def check(self, text, dist):
        report = json.loads(text)["report"]
        problems = []
        for key, want in (("n", self.N), ("k", self.K), ("pmax", self.PMAX), ("reps", self.REPS)):
            if report[key] != want:
                problems.append(f"{key} = {report[key]}, expected {want}")
        if report["centering"] != "random":
            problems.append(f"centering {report['centering']!r}, expected 'random'")
        want, _ = _limit_matrix(self.PMAX, dist.weibull_gamma, reduced=False)
        problems += _matrix_problems("predicted_covariance", report["predicted_covariance"], want)
        for name, rel, z in _deviations(report):
            if dist.gated:
                if not abs(z) <= Z_LIMIT:
                    problems.append(f"{name}: z = {z:.2f} beyond {Z_LIMIT}")
                elif abs(z) > self.max_abs_z:
                    self.max_abs_z = abs(z)
            else:
                self.ungated.setdefault((dist.label, name), []).append((rel, z))
        return problems

    def findings(self):
        lines = []
        if any(d.gated for d in self.dists):
            gated = ", ".join(d.label for d in self.dists if d.gated)
            lines.append(f"largest |z| over passing {gated} comparisons: {self.max_abs_z:.2f}")
        for dist in self.dists:
            rows = [(name, values) for (label, name), values in self.ungated.items() if label == dist.label]
            if not rows:
                continue
            parts = []
            for name, values in rows:
                rels = sorted(v[0] for v in values)
                parts.append(f"{name} {statistics.median(rels):.3f}/{rels[-1]:.3f}")
            largest_z = max(abs(v[1]) for _, values in rows for v in values)
            lines.append(
                f"{dist.label} deviates from its limit model, not gated: over {len(rows[0][1])} ops,"
                f" relative error (absolute for means) median/max {', '.join(parts)};"
                f" largest |z| {largest_z:.2f}"
            )
        return lines


def _deviations(report):
    """(name, relative error, z) of every moment against its limit value.
    Means have limit 0, so their 'relative' error is absolute."""
    cov = report["empirical_covariance"]
    pred = report["predicted_covariance"]
    var_se = report["variance_standard_errors"]
    cov_se = report["covariance_standard_errors"]
    pmax = len(cov)
    out = []
    for p in range(1, pmax + 1):
        diff = cov[p - 1][p - 1] - pred[p - 1][p - 1]
        out.append((f"var({p})", abs(diff) / pred[p - 1][p - 1], diff / var_se[p - 1]))
    for r in range(1, pmax + 1):
        for rho in range(r + 1, pmax + 1):
            diff = cov[r - 1][rho - 1] - pred[r - 1][rho - 1]
            se = cov_se[f"{r},{rho}"]
            out.append((f"cov({r},{rho})", abs(diff) / pred[r - 1][rho - 1], diff / se))
    for p, (mean, se) in enumerate(zip(report["means"], report["mean_standard_errors"]), start=1):
        out.append((f"mean({p})", abs(mean), mean / se))
    return out


def _type_i(v, r):
    """Type I numbers are ballot numbers; columns 1 and 2 are ones."""
    if r == 1:
        return 1
    return (v + 1) * math.comb(2 * r + v - 4, r - 2) // (r + v - 1)


def _type_iii_columns(tau, vmax, dmax):
    """Type III columns 1..dmax over rows 0..vmax: closed forms for columns
    1 and 2, then column d sums rows 1..v+1 of column d-1."""
    rows = vmax + dmax
    cols = {
        1: [math.comb(v + tau - 1, v) for v in range(rows + 1)],
        2: [math.comb(v + 1 + tau, tau) - 1 for v in range(rows + 1)],
    }
    for d in range(3, dmax + 1):
        prev, acc, col = cols[d - 1], 0, []
        for v in range(len(prev) - 1):
            acc += prev[v + 1]
            col.append(acc)
        cols[d] = col
    return [[cols[d][v] for d in range(1, dmax + 1)] for v in range(vmax + 1)]


class Model:
    """One-off model computations: the Simpson oracle, ``CovarianceModel``
    at pmax = 8, and the exact integer tables."""

    name = "model"
    PMAX, GRID, VMAX, DMAX = 8, 1024, 30, 30
    DOMAINS = (("frechet", None), ("weibull", 1.5), ("gumbel", None))
    TABLES = (("type1", None), ("type3", 2), ("type3", 4), ("type3", 8))

    def __init__(self, seed):
        ops = []
        for r in range(1, self.PMAX + 1):
            for rho in range(r, self.PMAX + 1):
                argv = ["oracle", str(r), str(rho), "--grid", str(self.GRID)]
                ops.append(Op("oracle", argv, lambda text, r=r, rho=rho: self.check_oracle(text, r, rho)))
        for domain, gamma in self.DOMAINS:
            for reduced in (False, True):
                argv = ["covariance", "--domain", domain, "--pmax", str(self.PMAX)]
                argv += ["--gamma", str(gamma)] if gamma is not None else []
                argv += ["--reduced"] if reduced else []
                check = lambda text, g=gamma, red=reduced: self.check_covariance(text, g, red)
                ops.append(Op("covariance", argv, check))
        for family, tau in self.TABLES:
            argv = ["tables", "--family", family, "--vmax", str(self.VMAX), "--dmax", str(self.DMAX)]
            if tau is None:
                want = [[_type_i(v, r) for r in range(1, self.DMAX + 1)] for v in range(self.VMAX + 1)]
            else:
                argv += ["--tau", str(tau)]
                want = _type_iii_columns(tau, self.VMAX, self.DMAX)
            # twice per cycle: tables are then more than a tenth of the
            # operations, so op_p90_s falls among them
            ops += [Op("tables", argv, lambda text, w=want: self.check_table(text, w))] * 2
        # the order of a cycle comes from the seed; every cycle runs the same list
        random.Random(seed).shuffle(ops)
        self._cycle = ops

    def ops(self, cycle):
        return self._cycle

    def check_oracle(self, text, r, rho):
        value = json.loads(text)["value"]
        want = math.comb(r + rho, r)
        if not abs(value - want) <= ORACLE_ATOL:
            return [f"oracle({r},{rho}) = {value!r}, expected {want} within {ORACLE_ATOL}"]
        return []

    def check_covariance(self, text, gamma, reduced):
        payload = json.loads(text)
        want, shifts = _limit_matrix(self.PMAX, gamma, reduced)
        problems = _matrix_problems("matrix", payload["matrix"], want)
        if not all(_rel_close(g, w, EQUIV_RTOL) for g, w in zip(payload["shift_factors"], shifts)):
            problems.append(f"shift_factors {payload['shift_factors']!r}, expected {shifts!r}")
        return problems

    def check_table(self, text, want):
        rows = list(csv.reader(io.StringIO(text)))
        body = [row for row in rows if row and not row[0].startswith("#")]
        if body[0][1:] != [str(c) for c in range(1, self.DMAX + 1)]:
            return ["table header does not list columns 1..dmax"]
        got = [[int(x) for x in row[1:]] for row in body[1:]]
        if [row[0] for row in body[1:]] != [str(v) for v in range(self.VMAX + 1)] or got != want:
            bad = sum(g != w for grow, wrow in zip(got, want) for g, w in zip(grow, wrow))
            return [f"table differs from the reference in {bad} cells or in shape"]
        return []

    def findings(self):
        return []


def make(name, seed, workdir):
    """The workload called ``name``, with its inputs generated from ``seed``."""
    if name == "estimate-file":
        return EstimateFile(seed, workdir)
    if name == "mc-pareto":
        dists = [McDist("pareto", ["--dist", "pareto", "--gamma", "1"], None, True)]
        return MonteCarlo(name, seed, dists, workers=2)
    if name == "mc-lighttail":
        dists = [
            McDist("stretched", ["--dist", "stretched"], None, False),
            McDist("power", ["--dist", "power", "--gamma", "1.5", "--x0", "2"], 1.5, True),
        ]
        return MonteCarlo(name, seed, dists, workers=1)
    if name == "model":
        return Model(seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("estimate-file", "mc-pareto", "mc-lighttail", "model")
