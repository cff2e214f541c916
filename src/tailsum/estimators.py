"""Sum-product statistics of the upper order statistics.

The order-p statistic averages, over all ordered compositions of p and all
strictly decreasing index chains inside a tail window, weighted products of
powers of the log-spacings.  One closed form over the top order statistics
(``sum_product_ladder``) computes every order up to pmax in one pass; a
brute-force enumeration over chains (``sum_product_enum``) is the
independent oracle it is checked against.  Hill's statistic (p = 1), the
moment form of Dekkers, Einmahl and de Haan (l = 0) and the index estimate
T_p^(-1/p) (``index_estimate``) are margins of this one ladder, not separate
formulas.
"""

import math
import sys
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .combinatorics import compositions
from .errors import DomainError, EnumerationBudgetError, UndefinedEstimateError

__all__ = [
    "SortedSample",
    "TailWindow",
    "log_transform",
    "spacings",
    "sum_product_enum",
    "sum_product_ladder",
    "index_estimate",
]

# chain budget for the brute-force enumeration
_ENUM_LIMIT = 20_000_000


@dataclass(frozen=True)
class SortedSample:
    """Ascending log-scale observations.

    ``below_support`` flags data whose raw values dipped below 1 (negative
    logs); such samples are processed normally but the flag is carried so
    callers can surface it.
    """

    values: np.ndarray
    below_support: bool = False

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size < 2:
            raise DomainError("a sample needs at least two observations")
        if not np.all(np.isfinite(vals)):
            raise DomainError("sample values must be finite")
        # a boolean temporary, where np.diff would make a float copy
        if np.any(vals[1:] < vals[:-1]):
            raise DomainError("sample values must be sorted ascending")

    @property
    def n(self):
        return int(self.values.size)


@dataclass(frozen=True)
class TailWindow:
    """Index triple (n, k, l) selecting the upper order statistics used."""

    n: int
    k: int
    l: int = 0

    def __post_init__(self):
        if not (0 <= self.l < self.k < self.n):
            raise DomainError(
                f"window must satisfy 0 <= l < k < n, got n={self.n}, k={self.k}, l={self.l}"
            )

    def check(self, sample):
        if sample.n != self.n:
            raise DomainError(f"window n={self.n} does not match sample size {sample.n}")


def log_transform(raw):
    """
    Natural logs of positive raw observations, sorted ascending.

    Raises DomainError on input that is not one-dimensional and on
    non-positive values.  Values below 1 are legal but set the
    ``below_support`` flag on the returned sample.
    """
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 1:
        raise DomainError(f"a sample must be one-dimensional, got shape {arr.shape}")
    if arr.size and (np.any(~np.isfinite(arr)) or np.any(arr <= 0.0)):
        raise DomainError("observations must be positive and finite for the log transform")
    y = np.log(arr)
    y.sort()  # in place: np.sort would add a second full-size copy
    return SortedSample(y, below_support=bool(np.any(arr < 1.0)))


def spacings(sample, window):
    """Spacings D_i = Y_{n-i+1,n} - Y_{n-i,n} for i = l+1 .. k, as a float
    array holding D_i at index i - l - 1."""
    window.check(sample)
    n, k, l = window.n, window.k, window.l
    return np.diff(sample.values[n - k - 1 : n - l])[::-1]


def _check_ladder_range(k, pmax):
    """The ladder divides by k p! for p up to pmax; reject a divisor beyond
    the float range before any statistic is computed."""
    if k * math.factorial(pmax) > sys.float_info.max:
        raise DomainError(f"k * pmax! must be a finite float, got k={k}, pmax={pmax}")


def _ladder_values(top, l, pmax):
    """Closed-form statistics of order 1..pmax from the top order statistics.

    ``top`` holds Y_{n-k,n} <= ... <= Y_{n,n} along its trailing axis.  With
    e_j = Y_{n-j,n} - Y_{n-k,n}, summation by parts of the iterated integral
    of the tail step function gives

        T_p = (l e_l^p + sum_{j=l..k-1} e_j^p) / (k p!),

    a sum of non-negative terms at cost O(pk).  Leading axes are kept, so a
    reps x (k+1) block yields a reps x pmax array of statistics.
    """
    if pmax < 1:
        raise DomainError(f"order must be >= 1, got {pmax}")
    top = np.asarray(top, dtype=float)
    k = top.shape[-1] - 1
    _check_ladder_range(k, pmax)
    # excess[..., i] = e_{k-1-i}; the window keeps e_l .. e_{k-1}
    excess = top[..., 1 : k - l + 1] - top[..., :1]
    power = np.ones_like(excess)
    out = np.empty(top.shape[:-1] + (pmax,))
    for p in range(1, pmax + 1):
        power *= excess
        out[..., p - 1] = (l * power[..., -1] + power.sum(axis=-1)) / (k * math.factorial(p))
    return out


def sum_product_ladder(sample, window, pmax):
    """
    Sum-product statistics of order 1..pmax from one closed-form pass over
    the top order statistics (see ``_ladder_values``), as a list of floats.

    Entry p-1 is the order-p statistic whatever pmax.  Entry 0 is Hill's
    statistic (1/k) sum_{j=l+1..k} j D_j, and at l = 0 entry p-1 is the
    moment form (1/k) sum_{i=1..k} (Y_{n-i+1,n} - Y_{n-k,n})^p / p!.  Each
    value is non-negative, and zero when every spacing in the window is zero
    (also, by underflow, when all are subnormal).
    """
    window.check(sample)
    top = sample.values[window.n - window.k - 1 :]
    return [float(t) for t in _ladder_values(top, window.l, pmax)]


def _enum_chain_count(m, p):
    return sum(math.comb(p - 1, h - 1) * math.comb(m, h) for h in range(1, min(p, m) + 1))


def sum_product_enum(sample, window, p):
    """
    Order-p statistic by brute-force enumeration over ordered compositions
    and strictly decreasing index chains.  Exponential-cost oracle intended
    for small windows; raises EnumerationBudgetError when the chain count
    is too large (use ``sum_product_ladder`` instead).
    """
    if p < 1:
        raise DomainError(f"order must be >= 1, got {p}")
    d = spacings(sample, window)
    k, l = window.k, window.l
    chains = _enum_chain_count(k - l, p)
    if chains > _ENUM_LIMIT:
        raise EnumerationBudgetError(
            f"enumeration over {chains} chains exceeds the budget; "
            "use sum_product_ladder for large windows"
        )
    # pw[s][i-(l+1)] = D_i^s / s!
    pw = [None] + [d**s / math.factorial(s) for s in range(1, p + 1)]

    def terms():
        for h in range(1, p + 1):
            for comp in compositions(p, h):
                for chain in combinations(range(k, l, -1), h):
                    prod = float(chain[-1])
                    for mth in range(h):
                        prod *= pw[comp[mth]][chain[mth] - (l + 1)]
                    yield prod

    return math.fsum(terms()) / k


def index_estimate(t, p):
    """
    Index estimate t^(-1/p) from an order-p statistic value, such as entry
    p-1 of ``sum_product_ladder``.  Raises UndefinedEstimateError when the
    statistic vanishes (fully tied window) or is so small that the estimate
    overflows a float.
    """
    t = float(t)
    if t <= 0.0:
        raise UndefinedEstimateError(
            f"order-{p} statistic is {t}; the index estimate is undefined"
        )
    try:
        return t ** (-1.0 / p)
    except OverflowError:
        raise UndefinedEstimateError(
            f"order-{p} statistic is {t}; the index estimate overflows"
        ) from None

