"""Empirical verification harness.

``run_experiment`` replays the limit theorems at finite sample sizes:
it draws the top order statistics of replicated samples, normalizes the
statistic ladder under either the random-threshold or the
deterministic-threshold centering, and compares empirical moments against
the covariance model at fixed tolerances: 0.10 relative for the variances
of orders 1 and 2, 0.15 for higher orders and for covariances, and 0.10
absolute for the means.  ``limit_covariance_quadrature`` is a deterministic
2-D Simpson oracle for the unit limit covariance, used by
``adjudicate_covariance`` to cross-examine the recursion, the closed form,
and a previously tabulated matrix whose off-diagonal entries are in doubt.
"""

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import sample_top, tau_p, tau_p_at
from .errors import DomainError
from .estimators import TailWindow, _check_ladder_range, _ladder_values
from .limits import CovarianceModel, DomainKind, covariance, covariance_closed

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "run_experiment",
    "replication_block",
    "QuadratureConfig",
    "limit_covariance_quadrature",
    "adjudicate_covariance",
    "REFERENCE_COVARIANCE",
]


# acceptance tolerances of the model comparisons
_VAR_RTOL_LOW = 0.10  # orders 1 and 2
_VAR_RTOL_HIGH = 0.15  # orders >= 3
_COV_RTOL = 0.15
_MEAN_ATOL = 0.10


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo experiment.

    ``centering`` selects the limit being exercised: "random" centers each
    replication at the centering value evaluated at the sample's own window
    threshold, "fixed" centers at the deterministic threshold and targets
    the reduced covariance model.
    """

    dist: object
    n: int
    k: int
    l: int
    pmax: int
    reps: int
    seed: int
    centering: str = "random"

    def __post_init__(self):
        TailWindow(self.n, self.k, self.l)  # validates the window
        if self.pmax < 1:
            raise DomainError(f"pmax must be >= 1, got {self.pmax}")
        _check_ladder_range(self.k, self.pmax)
        if self.reps < 2:
            raise DomainError(f"need reps >= 2, got {self.reps}")
        if self.centering not in ("random", "fixed"):
            raise DomainError(f"centering must be 'random' or 'fixed', got {self.centering!r}")


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregated Monte Carlo moments next to their model predictions."""

    config: ExperimentConfig
    means: np.ndarray
    mean_se: np.ndarray
    covariance: np.ndarray
    variance_se: np.ndarray
    covariance_se: np.ndarray
    predicted: np.ndarray
    comparisons: list
    passed: bool

    def variance(self, p):
        return float(self.covariance[p - 1, p - 1])

    def to_dict(self):
        cfg = self.config
        dist = cfg.dist
        pairs = [
            (r, rho) for r in range(1, cfg.pmax + 1) for rho in range(r + 1, cfg.pmax + 1)
        ]
        return {
            "distribution": {
                "name": dist.name,
                "gamma": getattr(dist, "gamma", None),
                "x0": getattr(dist, "x0", None),
            },
            "n": cfg.n,
            "k": cfg.k,
            "l": cfg.l,
            "pmax": cfg.pmax,
            "reps": cfg.reps,
            "seed": cfg.seed,
            "centering": cfg.centering,
            "means": list(self.means),
            "mean_standard_errors": list(self.mean_se),
            "empirical_covariance": [list(row) for row in self.covariance],
            "variance_standard_errors": list(self.variance_se),
            "covariance_standard_errors": {
                f"{r},{rho}": float(self.covariance_se[r - 1, rho - 1]) for r, rho in pairs
            },
            "predicted_covariance": [list(row) for row in self.predicted],
            "comparisons": self.comparisons,
            "passed": self.passed,
        }


# replications per block; blocks are fixed by replication index, never by
# the worker count
BLOCK = 32


def _rep_seed(seed, rep):
    digest = hashlib.sha256(f"{seed}:{rep}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def replication_block(config, tau_fixed, lo, hi):
    """
    Normalized statistic ladders of replications lo .. hi-1, as an
    (hi-lo) x pmax array.

    Row i is sqrt(k) (T_p - center_p) / tau_p at the deterministic
    threshold, where T_p comes from the top k+1 order statistics of the
    sample keyed by replication lo+i, and the center is ``tau_fixed`` under
    fixed centering or the centering value at that sample's own threshold
    Y_{n-k,n} under random centering.  Each row depends on its replication
    index only.
    """
    if not (0 <= lo < hi):
        raise DomainError(f"need 0 <= lo < hi, got lo={lo}, hi={hi}")
    n, k, pmax = config.n, config.k, config.pmax
    window = TailWindow(n, k, config.l)
    top = np.stack(
        [sample_top(config.dist, _rep_seed(config.seed, rep), n, k) for rep in range(lo, hi)]
    )
    ladder = _ladder_values(top, config.l, pmax)
    tau = np.asarray(tau_fixed)
    if config.centering == "fixed":
        center = tau
    else:
        center = np.array(
            [
                [tau_p_at(config.dist, p, window, float(threshold)) for p in range(1, pmax + 1)]
                for threshold in top[:, 0]
            ]
        )
    return math.sqrt(k) * (ladder - center) / tau


def run_experiment(config, workers=1):
    """
    Run the replicated experiment and aggregate moments.

    Replications run in blocks of ``BLOCK`` consecutive indices, which
    ``workers`` threads share; each block writes its own rows and the rows
    are reduced in index order, so the report is bit-identical for any
    ``workers`` count.
    """
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    window = TailWindow(config.n, config.k, config.l)
    tau_fixed = [tau_p(config.dist, p, window) for p in range(1, config.pmax + 1)]

    stats = np.empty((config.reps, config.pmax))
    blocks = range(0, config.reps, BLOCK)

    def fill(lo):
        hi = min(lo + BLOCK, config.reps)
        stats[lo:hi] = replication_block(config, tau_fixed, lo, hi)

    pool_size = min(workers, len(blocks))
    if pool_size == 1:
        for lo in blocks:
            fill(lo)
    else:
        with ThreadPoolExecutor(max_workers=pool_size) as pool:
            list(pool.map(fill, blocks))

    reps = config.reps
    means = stats.mean(axis=0)
    centered = stats - means
    cov = centered.T @ centered / (reps - 1)
    var = np.diag(cov)
    mean_se = np.sqrt(var / reps)
    m4 = (centered**4).mean(axis=0)
    variance_se = np.sqrt(np.maximum(m4 - var**2, 0.0) / reps)
    sq = centered**2
    m22 = sq.T @ sq / reps
    covariance_se = np.sqrt(np.maximum(m22 - cov**2, 0.0) / reps)

    model = CovarianceModel.build(config.dist.domain(), config.pmax)
    predicted = model.reduced_matrix() if config.centering == "fixed" else model.sigma

    orders = range(1, config.pmax + 1)
    pairs = [(p, p) for p in orders] + [(r, rho) for r in orders for rho in orders if r < rho]
    comparisons = []
    for r, rho in pairs:
        target = float(predicted[r - 1, rho - 1])
        observed = float(cov[r - 1, rho - 1])
        rel = abs(observed - target) / abs(target)
        if r != rho:
            tolerance = _COV_RTOL
        else:
            tolerance = _VAR_RTOL_LOW if r <= 2 else _VAR_RTOL_HIGH
        comparisons.append(
            {
                "quantity": "variance" if r == rho else "covariance",
                "orders": [r, rho],
                "observed": observed,
                "predicted": target,
                "relative_error": rel,
                "tolerance": tolerance,
                "pass": bool(rel <= tolerance),
            }
        )
    for p in orders:
        observed = float(means[p - 1])
        comparisons.append(
            {
                "quantity": "mean",
                "orders": [p],
                "observed": observed,
                "predicted": 0.0,
                "absolute_error": abs(observed),
                "tolerance": _MEAN_ATOL,
                "pass": bool(abs(observed) <= _MEAN_ATOL),
            }
        )

    return ExperimentReport(
        config=config,
        means=means,
        mean_se=mean_se,
        covariance=cov,
        variance_se=variance_se,
        covariance_se=covariance_se,
        predicted=predicted,
        comparisons=comparisons,
        passed=all(c["pass"] for c in comparisons),
    )


@dataclass(frozen=True)
class QuadratureConfig:
    """Panel count and truncation for the limit covariance quadrature."""

    grid: int = 1024
    truncation: float = 60.0

    def __post_init__(self):
        if self.grid < 64 or self.grid % 2 != 0:
            raise DomainError(f"grid must be even and >= 64, got {self.grid}")
        if not (math.isfinite(self.truncation) and self.truncation >= 40.0):
            raise DomainError(f"truncation must be finite and >= 40, got {self.truncation}")


def _simpson_weights(panels):
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def limit_covariance_quadrature(r, rho, config=None):
    """
    Unit limit covariance at orders (r, rho) as the double integral of
    exp(-max(s,t)) s^(r-1) t^(rho-1) / ((r-1)! (rho-1)!) over [0, S]^2,
    by composite Simpson with ``config.grid`` panels per axis.

    The integrand's derivative jumps across the diagonal, so the inner
    integral is split there and each smooth piece gets its own composite
    rule; the result is then accurate to far better than 1e-4 at the
    default grid.
    """
    if not (1 <= r <= 8 and 1 <= rho <= 8):
        raise DomainError(f"orders must lie in [1, 8], got ({r}, {rho})")
    config = config or QuadratureConfig()
    g, S = config.grid, config.truncation

    s = np.linspace(0.0, S, g + 1)
    frac = np.linspace(0.0, 1.0, g + 1)
    w_unit = _simpson_weights(g) / g  # weights on [0, 1]
    outer_w = _simpson_weights(g) * (S / g)
    outer_f = outer_w * s ** (r - 1) / math.factorial(r - 1)
    norm_rho = math.factorial(rho - 1)

    inner = np.empty(g + 1)
    chunk = 128
    for lo in range(0, g + 1, chunk):
        hi = min(lo + chunk, g + 1)
        sc = s[lo:hi, None]
        t_lo = sc * frac[None, :]
        t_hi = sc + (S - sc) * frac[None, :]
        f_lo = np.exp(-sc) * t_lo ** (rho - 1) / norm_rho
        f_hi = np.exp(-t_hi) * t_hi ** (rho - 1) / norm_rho
        inner[lo:hi] = (sc[:, 0]) * (f_lo @ w_unit) + (S - sc[:, 0]) * (f_hi @ w_unit)
    return float(outer_f @ inner)


# previously tabulated limit covariance values under audit; the printed
# off-diagonals at orders (2,3), (2,4) and (3,4) disagree with every
# independent route computed here
REFERENCE_COVARIANCE = {
    (1, 1): 2,
    (1, 2): 3,
    (2, 2): 6,
    (1, 3): 4,
    (2, 3): 9,
    (3, 3): 20,
    (1, 4): 5,
    (2, 4): 11,
    (3, 4): 29,
    (4, 4): 70,
}

_ADJUDICATION_RTOL = 1e-3


def adjudicate_covariance(pmax, config=None):
    """
    For every pair 1 <= r <= rho <= pmax, compare the recursion value, the
    closed-form binomial, the quadrature oracle, and (where available) the
    previously tabulated value.  The verdict is "consistent" when all
    computed routes agree within 1e-3 relative and the tabulated value
    (if any) matches; a tabulated value contradicted by agreeing routes is
    flagged "reference-discrepancy".
    """
    if not (1 <= pmax <= 8):
        raise DomainError(f"pmax must lie in [1, 8], got {pmax}")
    frechet = DomainKind.frechet()
    rows = []
    for r in range(1, pmax + 1):
        for rho in range(r, pmax + 1):
            recursion = covariance(r, rho, frechet)
            closed = covariance_closed(r, rho)
            quad = limit_covariance_quadrature(r, rho, config)
            routes_agree = (
                abs(recursion - closed) <= _ADJUDICATION_RTOL * closed
                and abs(quad - closed) <= _ADJUDICATION_RTOL * closed
            )
            reference = REFERENCE_COVARIANCE.get((r, rho))
            if not routes_agree:
                verdict = "oracle-mismatch"
            elif reference is not None and reference != round(recursion):
                verdict = "reference-discrepancy"
            else:
                verdict = "consistent"
            rows.append(
                {
                    "orders": [r, rho],
                    "recursion": int(round(recursion)),
                    "closed_form": int(closed),
                    "quadrature": quad,
                    "reference": reference,
                    "verdict": verdict,
                }
            )
    return rows
