"""Test distributions, one per domain of attraction, with exact quantiles,
a deterministic counter-based sampler (of the full sample, or of only its
top order statistics), and the iterated tail integrals needed to center
the statistics.

All three families satisfy F(1) = 0, so log-scale observations are
non-negative.  ``m_p`` is the p-fold iterated integral of the log-scale
survival function from a threshold up to the support end; the centering
sequence is tau_p = (n/k) m_p evaluated at the window threshold.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

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

# series/closed-form switch for the endpoint family's exponential
# integrals: the alternating series loses roughly e^z ulp of relative
# accuracy while the closed form loses it for z small, so the switch sits
# where both are comfortably below 1e-9
_SERIES_CUTOFF = 8.0


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
        return self.gamma ** (-p) * math.exp(-self.gamma * x)


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
        g = self.gamma
        if g != int(g):
            return m_p_quadrature(self, p, x)
        return self._m_p_integer_shape(p, x, int(g))

    def _m_p_integer_shape(self, p, x, g):
        # substituting t = y_end - w turns the tail into
        # (x0 (1 - e^-w)/(x0-1))^g; expand binomially so each term reduces
        # to I(p, m, W) = int_0^W (W-w)^(p-1) e^(-m w) dw / (p-1)!
        W = self.y_end - x
        scale = (self.x0 / (self.x0 - 1.0)) ** g
        terms = [
            math.comb(g, m) * (-1.0) ** m * _poly_exp_integral(p, m, W)
            for m in range(g + 1)
        ]
        total = math.fsum(terms)
        # the expansion cancels like W^-g near the endpoint; once more than
        # ~7 digits are lost the alternating sum is no longer trustworthy
        if total <= 0.0 or max(abs(t) for t in terms) > 1e7 * total:
            return m_p_quadrature(self, p, x)
        return scale * total


def _poly_exp_integral(p, m, W):
    """I(p, m, W) = int_0^W (W-w)^(p-1)/(p-1)! e^(-m w) dw, exactly."""
    if m == 0:
        return W**p / math.factorial(p)
    z = m * W
    if z <= _SERIES_CUTOFF:
        # alternating series sum_q (-1)^q m^q W^(p+q)/(p+q)!; no cancellation
        # blow-up for moderate z
        term = W**p / math.factorial(p)
        total = term
        q = 0
        while True:
            q += 1
            term *= -m * W / (p + q)
            total += term
            if abs(term) <= 1e-18 * abs(total) + 1e-300:
                return total
    head = (-1.0) ** p * math.exp(-z)
    for j in range(p):
        head += (-1.0) ** j * z ** (p - 1 - j) / math.factorial(p - 1 - j)
    return head / m**p


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
    (t-x)^(p-1)/(p-1)! * tail(t) from x to the support end.  Serves as the
    numeric fallback and as an independent cross-check of the closed forms.
    """
    _check_order(p)
    y0 = dist.y_end
    if x >= y0:
        raise DomainError(f"threshold {x} is beyond the support end {y0}")
    norm = math.factorial(p - 1)

    def kernel(t):
        return (t - x) ** (p - 1) / norm * float(dist.tail(t))

    value, _ = integrate.quad(kernel, x, y0, epsabs=1e-14, epsrel=rtol, limit=200)
    return value


def m_p_value(dist, p, x):
    """Iterated tail integral m_p(x): closed form where one exists, else
    adaptive quadrature at relative tolerance well below 1e-8."""
    return dist.m_p(p, x)


def tau_p(dist, p, window):
    """Centering value (n/k) m_p at the deterministic threshold
    x_n = G^(-1)(1 - k/n)."""
    x_n = float(dist._y_quantile(1.0 - window.k / window.n))
    return (window.n / window.k) * m_p_value(dist, p, x_n)


def tau_p_at(dist, p, window, threshold):
    """Centering value (n/k) m_p at an arbitrary (typically random)
    threshold."""
    return (window.n / window.k) * m_p_value(dist, p, threshold)
