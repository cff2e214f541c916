"""Test distributions, one per domain of attraction, with exact quantiles,
a deterministic counter-based sampler (of the full sample, or of only its
top order statistics), and the iterated tail integrals needed to center
the statistics.

All three families satisfy F(1) = 0, so log-scale observations are
non-negative.  ``m_p`` is the p-fold iterated integral of the log-scale
survival function from a threshold up to the support end; the centering
sequence is tau_p = (n/k) m_p evaluated at the window threshold.  Each
family has one route to m_p: Pareto a closed form, PowerEndpoint a
Gauss-Jacobi rule checked against the rule with half its nodes, and
StretchedTail adaptive quadrature (``m_p_quadrature``), which is also
PowerEndpoint's fallback when the check fails and the oracle for both other
routes.
"""

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import roots_jacobi

from .errors import DomainError
from .estimators import SortedSample
from .limits import DomainKind

__all__ = [
    "Pareto",
    "PowerEndpoint",
    "StretchedTail",
    "quantile",
    "sample_iid",
    "sample_top",
    "m_p_value",
    "m_p_quadrature",
    "tau_p",
    "tau_p_at",
]

def _check_order(p):
    if p < 1:
        raise DomainError(f"order must be >= 1, got {p}")


@dataclass(frozen=True)
class Pareto:
    """Power-law tail F(x) = 1 - x^(-gamma) on x >= 1 (heavy-tailed domain).

    Log-scale observations are exponential with rate gamma.
    """

    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise DomainError("gamma must be finite and positive")

    name = "pareto"

    @property
    def y_end(self):
        return math.inf

    def domain(self):
        return DomainKind.frechet(self.gamma)

    def _y_quantile(self, u):
        return -np.log1p(-u) / self.gamma

    def tail(self, y):
        y = np.asarray(y, dtype=float)
        return np.exp(-self.gamma * np.clip(y, 0.0, None))

    def m_p(self, p, x):
        _check_order(p)
        if x < 0:
            raise DomainError(f"threshold must be >= 0, got {x}")
        try:
            scale = self.gamma ** (-p)
        except OverflowError:
            raise DomainError(f"m_{p} exceeds the float range at gamma = {self.gamma}") from None
        return scale * math.exp(-self.gamma * x)


@dataclass(frozen=True)
class PowerEndpoint:
    """Finite endpoint x0 with F(x) = 1 - ((x0-x)/(x0-1))^gamma on [1, x0]
    (short-tailed domain).  gamma = 1, x0 = 2 is the uniform distribution
    on [1, 2].
    """

    gamma: float
    x0: float = 2.0

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise DomainError("gamma must be finite and positive")
        if not (math.isfinite(self.x0) and self.x0 > 1):
            raise DomainError("the endpoint x0 must exceed 1")

    name = "power"

    @property
    def y_end(self):
        return math.log(self.x0)

    def domain(self):
        return DomainKind.weibull(self.gamma)

    def _y_quantile(self, u):
        return np.log(self.x0 - (self.x0 - 1.0) * (1.0 - u) ** (1.0 / self.gamma))

    def tail(self, y):
        y = np.asarray(y, dtype=float)
        inside = np.clip((self.x0 - np.exp(np.clip(y, 0.0, self.y_end))) / (self.x0 - 1.0), 0.0, 1.0)
        return inside**self.gamma

    def m_p(self, p, x):
        _check_order(p)
        if not (0.0 <= x < self.y_end):
            raise DomainError(f"threshold must lie in [0, {self.y_end}), got {x}")
        # t = x + h(1+u) puts the tail at s = h(1-u) from the endpoint, where
        # it is (x0 (1-e^-s)/(x0-1))^gamma: (1-u)^gamma times a factor
        # analytic on [-1, 1], so Gauss-Jacobi with weight (1-u)^gamma fits
        h = 0.5 * (self.y_end - x)
        lead = h**p / math.factorial(p - 1)
        values = []
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for nodes in (64, 128):
                u, w = _jacobi_rule(self.gamma, nodes)
                factor = self.x0 * -np.expm1(-h * (1.0 - u)) / ((self.x0 - 1.0) * (1.0 - u))
                values.append(lead * float(w @ ((1.0 + u) ** (p - 1) * factor**self.gamma)))
        coarse, fine = values
        # the check fails where no fixed rule fits (extreme gamma * ln(x0))
        # and where the weights overflow (gamma beyond about 1000)
        if math.isfinite(fine) and fine > 0.0 and abs(fine - coarse) <= 1e-12 * fine:
            return fine
        return m_p_quadrature(self, p, x)


@functools.lru_cache(maxsize=32)
def _jacobi_rule(gamma, nodes):
    """Gauss-Jacobi nodes and weights for the weight (1-u)^gamma on [-1, 1];
    the weights overflow (to inf) for gamma beyond about 1000."""
    with np.errstate(over="ignore", invalid="ignore"):
        return roots_jacobi(nodes, gamma, 0.0)


@dataclass(frozen=True)
class StretchedTail:
    """Gaussian-type log-scale tail 1 - G(y) = exp(-y^2) on y >= 0
    (light-tailed domain with infinite endpoint)."""

    name = "stretched"

    @property
    def y_end(self):
        return math.inf

    def domain(self):
        return DomainKind.gumbel()

    def _y_quantile(self, u):
        return np.sqrt(-np.log1p(-u))

    def tail(self, y):
        y = np.asarray(y, dtype=float)
        return np.exp(-np.clip(y, 0.0, None) ** 2)

    def m_p(self, p, x):
        _check_order(p)
        if x < 0:
            raise DomainError(f"threshold must be >= 0, got {x}")
        return m_p_quadrature(self, p, x)


def quantile(dist, u):
    """Exact inverse of the distribution function on the raw (x) scale."""
    arr = np.asarray(u, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("quantile needs 0 < u < 1")
    out = np.exp(dist._y_quantile(arr))
    return float(out) if np.isscalar(u) or arr.ndim == 0 else out


def _philox(label, seed):
    digest = hashlib.sha256(f"{label}:{seed}".encode()).digest()
    # little-endian on every host, so the stream does not depend on byte order
    key = np.frombuffer(digest[:16], dtype="<u8")
    return np.random.Generator(np.random.Philox(key=key))


def sample_iid(dist, seed, n):
    """
    Draw n observations by inverse transform from a counter-based uniform
    stream keyed by ``seed`` and return them log-transformed and sorted.
    The output is bit-identical for identical (dist, seed, n) regardless
    of platform or thread count.
    """
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    u = _philox("sample", seed).random(n)
    y = np.sort(dist._y_quantile(u))
    return SortedSample(y, below_support=bool(y[0] < 0.0))


def sample_top(dist, seed, n, k):
    """
    The top k+1 log-scale order statistics Y_{n-k,n} <= ... <= Y_{n,n} of
    the sample ``sample_iid(dist, seed, n)``, ascending.

    The same n uniforms are drawn, but only the k+1 largest are selected
    and transformed; the quantile is non-decreasing, so the result equals
    ``sample_iid(dist, seed, n).values[n-k-1:]`` bit for bit.
    """
    if not (0 < k < n):
        raise DomainError(f"need 0 < k < n, got n={n}, k={k}")
    u = _philox("sample", seed).random(n)
    u.partition(n - k - 1)
    return np.sort(dist._y_quantile(u[n - k - 1 :]))


def m_p_quadrature(dist, p, x, rtol=1e-10):
    """
    Iterated tail integral via adaptive quadrature of the collapsed kernel
    (t-x)^(p-1)/(p-1)! * tail(t) from x to the support end, at relative
    tolerance ``rtol`` however small the value.  StretchedTail's route,
    PowerEndpoint's fallback, and the cross-check of both other routes.
    """
    _check_order(p)
    y0 = dist.y_end
    if x >= y0:
        raise DomainError(f"threshold {x} is beyond the support end {y0}")
    norm = math.factorial(p - 1)

    def kernel(t):
        return (t - x) ** (p - 1) / norm * float(dist.tail(t))

    value, _ = integrate.quad(kernel, x, y0, epsabs=0.0, epsrel=rtol, limit=200)
    return value


def m_p_value(dist, p, x):
    """Iterated tail integral m_p(x) by the family's route: Pareto's closed
    form, PowerEndpoint's checked Gauss-Jacobi rule (adaptive quadrature
    where the check fails), StretchedTail's adaptive quadrature."""
    return dist.m_p(p, x)


def tau_p(dist, p, window):
    """Centering value (n/k) m_p at the deterministic threshold
    x_n = G^(-1)(1 - k/n)."""
    x_n = float(dist._y_quantile(1.0 - window.k / window.n))
    return tau_p_at(dist, p, window, x_n)


def tau_p_at(dist, p, window, threshold):
    """Centering value (n/k) m_p at an arbitrary (typically random)
    threshold."""
    return (window.n / window.k) * m_p_value(dist, p, threshold)
