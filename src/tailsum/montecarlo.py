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
import numbers
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .combinatorics import covariance_number
from .distributions import Pareto, _allocate, sample_top, sample_top_renyi, tau_p, tau_p_at
from .errors import DomainError
from .estimators import TailWindow, _check_ladder_range, _ladder_values
from .limits import CovarianceModel, covariance_closed

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


# replications per block; blocks are fixed by replication index, never by thread count
BLOCK = 32


def _rep_seed(seed, rep):
    digest = hashlib.sha256(f"{seed}:{rep}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _block_sampler(dist):
    """The sampler of a block: the O(k) ``sample_top_renyi`` for the light tails, so n
    can be 1e9 or more, and Pareto's O(n) ``sample_top`` until its gate uses exact
    standard errors (ROADMAP item 2).  Both map ``(dist, seeds, n, k)`` to a
    (len(seeds), k+1) array whose row i is keyed by seeds[i] alone."""
    return sample_top if isinstance(dist, Pareto) else sample_top_renyi


# the largest pool measured: 2 threads made Pareto mc 1.27-1.85x as fast as 1 on a shared
# 2-CPU host, the ratio moving with the host's load (n = 1e5, k = 1e3, 200 reps)
MAX_THREADS = 2


def _pool_size(n, blocks):
    """Threads for Pareto's blocks (inline below 2): no more than ``MAX_THREADS``, the blocks,
    this process's CPUs, or the samples whose 8n bytes of raw words fit in free memory."""
    try:
        cpus = len(os.sched_getaffinity(0))
        free = os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return 1
    return min(MAX_THREADS, blocks, cpus, free // (8 * n))


def _sample_ladders(config, lo, hi):
    """
    The statistic ladders of replications lo .. hi-1 as an (hi-lo) x pmax
    array, and their window thresholds Y_{n-k,n}.  One sampler call draws
    the top order statistics of the samples keyed by replications lo .. hi-1
    (see ``_block_sampler``), so each row depends on its replication index
    only.
    """
    seeds = [_rep_seed(config.seed, rep) for rep in range(lo, hi)]
    top = _block_sampler(config.dist)(config.dist, seeds, config.n, config.k)
    return _ladder_values(top, config.l, config.pmax), top[:, 0]


def _normalized(config, tau_fixed, ladders, thresholds):
    """
    Rows sqrt(k) (T_p - center_p) / tau_p of the ladders, where tau_p is at
    the deterministic threshold and the center is ``tau_fixed`` under fixed
    centering or, under random centering, the centering values at each
    row's own threshold, every row and order from one ``tau_p_at`` call.
    Each family's route works element by element, so one call over many
    thresholds gives the bits of one call per slice of them.
    """
    tau = np.asarray(tau_fixed)
    if config.centering == "fixed":
        center = tau
    else:
        window = TailWindow(config.n, config.k, config.l)
        center = tau_p_at(config.dist, config.pmax, window, thresholds)
    # a centering value of 0 at an order >= 2 (below the float range) gives
    # non-finite rows, which the report check stops; numpy need not warn
    with np.errstate(divide="ignore", invalid="ignore"):
        return math.sqrt(config.k) * (ladders - center) / tau


def replication_block(config, tau_fixed, lo, hi):
    """
    Normalized statistic ladders of replications lo .. hi-1, as an
    (hi-lo) x pmax array.

    Row i is sqrt(k) (T_p - center_p) / tau_p at the deterministic
    threshold, where T_p comes from the top k+1 order statistics of the
    sample keyed by replication lo+i, and the center is ``tau_fixed`` under
    fixed centering or the centering values at that sample's own threshold
    Y_{n-k,n} under random centering.  These are ``run_experiment``'s two
    steps on one range: ``_sample_ladders``, then ``_normalized`` with one
    ``tau_p_at`` call for the range.  Each row depends on its replication
    index only, and equals that row of ``run_experiment``'s whole run.
    """
    if not (0 <= lo < hi):
        raise DomainError(f"need 0 <= lo < hi, got lo={lo}, hi={hi}")
    return _normalized(config, tau_fixed, *_sample_ladders(config, lo, hi))


def run_experiment(config):
    """
    Run the replicated experiment and aggregate moments.

    Blocks of ``BLOCK`` consecutive replications are sampled and reduced to
    their ladders, sharing ``_pool_size`` threads under Pareto's O(n)
    sampler and inline otherwise, as threads only slow O(k) blocks.  Each
    block writes its own rows of the run's ladders and thresholds, and the
    whole run is then centered and normalized at once: one ``tau_p_at`` call
    under random centering.  The rows are reduced in index order, so the
    report is bit-identical for any pool.
    """
    window = TailWindow(config.n, config.k, config.l)
    tau_fixed = tau_p(config.dist, config.pmax, window)
    # a zero at order 1 leaves nothing to normalize by; a zero at a higher
    # order alone is a value below the float range, whose statistics come
    # out non-finite and are stopped by the report check
    for p, tau in enumerate(tau_fixed, start=1):
        if not math.isfinite(tau) or (p == 1 and tau == 0.0):
            raise DomainError(
                f"centering tau_{p} of {config.dist} at n={config.n}, k={config.k} "
                f"is {tau}, not a positive finite float"
            )

    ladders = _allocate((config.reps, config.pmax), f"ladders for reps = {config.reps}")
    thresholds = _allocate((config.reps,), f"thresholds for reps = {config.reps}")
    blocks = range(0, config.reps, BLOCK)

    def fill(lo):
        hi = min(lo + BLOCK, config.reps)
        ladders[lo:hi], thresholds[lo:hi] = _sample_ladders(config, lo, hi)

    threads = _pool_size(config.n, len(blocks))
    if _block_sampler(config.dist) is not sample_top or threads < 2:
        for lo in blocks:
            fill(lo)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, blocks))
    stats = _normalized(config, tau_fixed, ladders, thresholds)

    reps = config.reps
    # rows made non-finite by a centering below the float range give
    # non-finite moments, which the report check stops; numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
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
        # a float grid would pass the range test and fail later as a stray
        # TypeError; integer types such as np.int64 pass
        try:
            operator.index(self.grid)
        except TypeError:
            raise DomainError(f"grid must be an integer, got {self.grid!r}") from None
        # time grows as grid^2 and memory as grid: `oracle --grid 8192` takes
        # about 0.5 s and 43 MB peak, most of both the imports, while a grid
        # of 1e8 would ask for about 95 GiB for its two buffers of rows
        if not (64 <= self.grid <= 8192) or self.grid % 2 != 0:
            raise DomainError(f"grid must be even and lie in [64, 8192], got {self.grid}")
        # a string or None would fail the range test as a stray TypeError;
        # real types such as np.float64 pass
        if not isinstance(self.truncation, numbers.Real):
            raise DomainError(f"truncation must be a real number, got {self.truncation!r}")
        # beyond 700, e^-S is below about 1e-304: a longer range adds nothing
        # but wider Simpson panels
        if not (40.0 <= self.truncation <= 700.0):
            raise DomainError(f"truncation must lie in [40, 700], got {self.truncation}")


# rows of the upper piece per block, so a block stays in cache: at grid 1024
# and orders (4, 4) the oracle took 0.0035 s with 32 or 64 rows, 0.0045 s
# with 128, 0.0064 s with 256 and 0.024 s with the whole triangle in one block
_ORACLE_CHUNK = 64


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
    rule on [0, 1]; the result is then accurate to far better than 1e-4 at
    the default grid.

    Below the diagonal, t = s*u and the integrand e^-s s^(rho-1) u^(rho-1)
    factors, so the rule over u is one dot product shared by every row s
    and the piece costs O(grid).  Above it, t = s + (S-s)*u, and at the
    nodes s_a = a*S/g, u_i = i/g that is

        t_ai = S - (S/g^2) (g-a) (g-i) = (S/g^2) (g^2 - (g-a) (g-i)),

    symmetric in (a, i).  So is F = e^-t t^(rho-1), and the piece's whole
    contribution, the bilinear form sum_ai v_a w_i F_ai with the unit
    weights w_i and v_a = W_a s_a^(r-1) (S-s_a) from the outer weights W,
    needs F only on and above the diagonal: half the exponentials and
    powers of the full square.  It is built in chunks of rows [lo, hi)
    over the columns i >= lo, the square block on the diagonal weighted
    once, by v_a w_i, and the columns i >= hi by v_a w_i + w_a v_i, so
    each chunk is one (rows x columns) @ (columns x 2) product.  t is the
    exact integer g^2 - (g-a)(g-i) times S/g^2, which keeps it accurate
    to a few ulps near the origin where the integrand is largest, and
    t^(rho-1) is taken by repeated multiplication.  Both factorials and
    the (S-s) length of the upper piece come out of the sums, so every
    node and weight is the plain composite Simpson one.
    """
    if not (1 <= r <= 8 and 1 <= rho <= 8):
        raise DomainError(f"orders must lie in [1, 8], got ({r}, {rho})")
    config = config or QuadratureConfig()
    g, S = config.grid, config.truncation

    s = np.linspace(0.0, S, g + 1)
    frac = np.linspace(0.0, 1.0, g + 1)
    w_unit = _simpson_weights(g) / g  # weights on [0, 1]
    outer_w = _simpson_weights(g) * (S / g) * s ** (r - 1)  # with s^(r-1)

    # lower piece: s * e^-s s^(rho-1) * sum_j w_j u_j^(rho-1)
    total = outer_w @ (s * np.exp(-s) * s ** (rho - 1)) * (frac ** (rho - 1) @ w_unit)

    # upper piece over the triangle i >= a; column 1 of `weights` is zeroed
    # on each chunk's diagonal block so that block is counted once.  Both
    # buffers are flat so that each chunk's prefix is contiguous.
    v = outer_w * (S - s)
    steps = np.arange(g, -1, -1, dtype=float)  # g - a
    weights = np.empty((g + 1, 2))
    t_buf = np.empty(_ORACLE_CHUNK * (g + 1))
    f_buf = np.empty(_ORACLE_CHUNK * (g + 1))
    for lo in range(0, g + 1, _ORACLE_CHUNK):
        hi = min(lo + _ORACLE_CHUNK, g + 1)
        shape = (hi - lo, g + 1 - lo)
        t = t_buf[: shape[0] * shape[1]].reshape(shape)
        f = f_buf[: shape[0] * shape[1]].reshape(shape)
        np.multiply.outer(steps[lo:hi], steps[lo:], out=t)
        np.subtract(g * g, t, out=t)  # the integer g^2 - (g-a)(g-i), exact
        t *= S / (g * g)
        np.negative(t, out=f)
        np.exp(f, out=f)
        for _ in range(rho - 1):
            f *= t
        w = weights[: shape[1]]
        w[:, 0] = w_unit[lo:]
        w[: hi - lo, 1] = 0.0
        w[hi - lo :, 1] = v[hi:]
        rows = f @ w
        total += v[lo:hi] @ rows[:, 0] + w_unit[lo:hi] @ rows[:, 1]
    return float(total) / (math.factorial(r - 1) * math.factorial(rho - 1))


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
    For every pair 1 <= r <= rho <= pmax, compare three independent
    routes - the recursion value of the number families
    (``covariance_number``), the closed-form binomial the model is built
    from, and the quadrature oracle - and (where available) the previously
    tabulated value.  The verdict is "consistent" when all computed routes
    agree within 1e-3 relative and the tabulated value (if any) matches; a
    tabulated value contradicted by agreeing routes is flagged
    "reference-discrepancy".
    """
    if not (1 <= pmax <= 8):
        raise DomainError(f"pmax must lie in [1, 8], got {pmax}")
    rows = []
    for r in range(1, pmax + 1):
        for rho in range(r, pmax + 1):
            recursion = covariance_number(r, rho)
            closed = covariance_closed(r, rho)
            quad = limit_covariance_quadrature(r, rho, config)
            routes_agree = (
                abs(recursion - closed) <= _ADJUDICATION_RTOL * closed
                and abs(quad - closed) <= _ADJUDICATION_RTOL * closed
            )
            reference = REFERENCE_COVARIANCE.get((r, rho))
            if not routes_agree:
                verdict = "oracle-mismatch"
            elif reference is not None and reference != recursion:
                verdict = "reference-discrepancy"
            else:
                verdict = "consistent"
            rows.append(
                {
                    "orders": [r, rho],
                    "recursion": recursion,
                    "closed_form": int(closed),
                    "quadrature": quad,
                    "reference": reference,
                    "verdict": verdict,
                }
            )
    return rows
