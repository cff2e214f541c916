"""Test distributions, one per domain of attraction, with exact quantiles,
deterministic counter-based samplers (of the full sample, or of only its
top order statistics), and the iterated tail integrals needed to center
the statistics.

``sample_iid`` draws its n uniforms with ``Generator.random`` and is the
reference.  Both top samplers take a sequence of seeds and return one row
per seed, each row keyed by its own seed alone.  ``sample_top`` reads the
same n raw Philox words per seed, selects the k+1 largest and converts only
those with numpy's own (w >> 11) * 2^-53, so each row is the top of
``sample_iid``'s bit for bit, in O(n) per sample; ``mc`` uses it for
Pareto.  ``sample_top_renyi`` draws the survival values of the top k+1
order statistics directly, by Renyi's representation, from k+1
exponentials and one Gamma(n-k) variate on a stream of its own, and maps
them through each family's tail quantile: O(k) per sample whatever n, with
the law of ``sample_top`` but not its values.  ``mc`` uses it for
PowerEndpoint and StretchedTail, and ``sample_top`` is its reference.

All three families satisfy F(1) = 0, so log-scale observations are
non-negative.  m_p is the p-fold iterated integral of the log-scale
survival function from a threshold up to the support end; the centering
sequence is tau_p = (n/k) m_p evaluated at the window threshold.  Each
family has one route, which yields m_1 .. m_pmax at an array of thresholds
in one call: Pareto a closed form; PowerEndpoint a Gauss-Jacobi rule in
logs, checked against the rule with half its nodes; and StretchedTail, where
m_p = (sqrt(pi)/2) i^(p-1) erfc(x) (Abramowitz & Stegun 7.2), the stdlib's
erfc times the ratios i^n erfc / i^(n-1) erfc from one pass of Miller's
backward recurrence, checked against the same pass started twice as deep
(Gautschi, SIAM Rev. 1967).
(Threshold, order) elements whose check fails take adaptive quadrature
(``m_p_quadrature``), the oracle of every route.  ``tau_p_at`` and
``tau_p`` center at every order in one call, ``m_p_value`` at one order.
"""

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

# scipy is imported only inside m_p_quadrature, which PowerEndpoint and
# StretchedTail reach only on a fallback: loading it takes most of the
# package's startup time and memory, and no other route calls it

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
    "sample_top_renyi",
    "m_p_value",
    "m_p_quadrature",
    "tau_p",
    "tau_p_at",
]

def _check_order(p):
    if p < 1:
        raise DomainError(f"order must be >= 1, got {p}")


def _check_endpoint(x0):
    if not (math.isfinite(x0) and x0 > 1):
        raise DomainError(f"the endpoint x0 must be finite and exceed 1, got {x0}")


def _thresholds(dist, x):
    """The thresholds as a float array, each checked to lie in [0, y_end)
    of ``dist``."""
    xs = np.asarray(x, dtype=float)
    inside = (xs >= 0.0) & (xs < dist.y_end)
    if not inside.all():
        bad = xs[~inside].flat[0]
        raise DomainError(f"threshold of {dist} must lie in [0, {dist.y_end}), got {bad}")
    return xs


def _passes(coarse, fine):
    """The check of a route's two passes: where ``fine`` is finite, positive
    and within 1e-12 relative of ``coarse``."""
    return np.isfinite(fine) & (fine > 0.0) & (np.abs(fine - coarse) <= 1e-12 * fine)


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

    def _y_tail_quantile(self, q):
        return -np.log(q) / self.gamma

    def tail(self, y):
        y = np.asarray(y, dtype=float)
        return np.exp(-self.gamma * np.clip(y, 0.0, None))

    def _m_route(self, pmax, xs):
        scales = []
        for p in range(1, pmax + 1):
            try:
                scales.append(self.gamma ** (-p))
            except OverflowError:
                raise DomainError(f"m_{p} exceeds the float range at gamma = {self.gamma}") from None
        # math.exp per threshold: np.exp differs from it in the last bit on
        # some arguments, and Pareto reports stay bit for bit what they were
        tails = np.array([math.exp(-self.gamma * t) for t in xs.flat]).reshape(xs.shape + (1,))
        return tails * scales, np.full(xs.shape + (pmax,), True)


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
        _check_endpoint(self.x0)

    name = "power"

    @property
    def y_end(self):
        return math.log(self.x0)

    def domain(self):
        return DomainKind.weibull(self.gamma)

    def _y_quantile(self, u):
        return np.log(self.x0 - (self.x0 - 1.0) * (1.0 - u) ** (1.0 / self.gamma))

    def _y_tail_quantile(self, q):
        return np.log(self.x0 - (self.x0 - 1.0) * q ** (1.0 / self.gamma))

    def tail(self, y):
        y = np.asarray(y, dtype=float)
        inside = np.clip((self.x0 - np.exp(np.clip(y, 0.0, self.y_end))) / (self.x0 - 1.0), 0.0, 1.0)
        return inside**self.gamma

    def _m_route(self, pmax, xs):
        # the rule's temporaries hold thresholds x 128 floats, so a long array
        # of thresholds (a whole mc run's) takes them a slice at a time; the
        # route works element by element, so the slices keep every bit
        if xs.size > _RULE_SLICE:
            flat = xs.reshape(-1)
            parts = [self._m_route(pmax, flat[lo : lo + _RULE_SLICE])
                     for lo in range(0, flat.size, _RULE_SLICE)]
            return tuple(np.concatenate(part).reshape(xs.shape + (pmax,)) for part in zip(*parts))
        # t = x + h(1+u) puts the tail at s = h(1-u) from the endpoint, where
        # it is (x0 (1-e^-s)/(x0-1))^gamma: ((1-u)/2)^gamma times a factor
        # analytic on [-1, 1], so Gauss-Jacobi with that weight fits; one row
        # of nodes per threshold, shared by every order.  Weight and factor
        # form one log term, scaled by its row's largest, and h^p / (p-1)!
        # joins in logs, so a value is finite wherever m_p is; the halved
        # (1-u) leaves no 2^gamma for the two to cancel at a loss of digits
        h = 0.5 * (self.y_end - xs)
        values = []
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            log_h = np.log(h)
            for nodes in (64, 128):
                u, log_w = _jacobi_rule(self.gamma, nodes)
                s = h[..., None] * (1.0 - u)
                factor = self.x0 * -np.expm1(-s) / ((self.x0 - 1.0) * 0.5 * (1.0 - u))
                terms = log_w + self.gamma * np.log(factor)
                top = terms.max(axis=-1, keepdims=True)
                scaled = np.exp(terms - top)
                logs = [p * log_h - math.lgamma(p) + np.log((scaled * (1.0 + u) ** (p - 1)).sum(axis=-1))
                        for p in range(1, pmax + 1)]
                values.append(np.exp(top + np.stack(logs, axis=-1)))
        coarse, fine = values
        # the check fails where no fixed rule fits (extreme gamma * ln(x0))
        return fine, _passes(coarse, fine)


# thresholds per pass of PowerEndpoint's rule: each (thresholds x 128)
# temporary stays at 1 MiB
_RULE_SLICE = 1024


@functools.lru_cache(maxsize=32)
def _jacobi_rule(gamma, nodes):
    """Gauss-Jacobi nodes and log weights for the weight ((1-u)/2)^gamma on
    [-1, 1] (Golub & Welsch, Math. Comp. 1969): the eigenvalues of the Jacobi
    matrix, its entries formed to stay finite at any gamma, and the weights
    mu0 / sum_m q_m(u)^2, mu0 = 2/(gamma+1), over the orthonormal q_m of the
    three-term recurrence, its scale taken out in powers of two.  At
    gamma = 1e300 the off-diagonal rounds to 0 and the weights are NaN."""
    s = 2.0 * np.arange(nodes) + gamma
    diag = -(gamma / s) * (gamma / (s + 2.0))
    j, s = np.arange(1, nodes), s[1:]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        off = 2.0 * (j / s) * (j + gamma) / np.sqrt(s * s - 1.0)
        u = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        prev, q, total, exponent = np.zeros(nodes), np.ones(nodes), np.ones(nodes), 0
        for m in range(nodes - 1):
            prev, q = q, ((u - diag[m]) * q - (off[m - 1] * prev if m else 0.0)) / off[m]
            _, e = np.frexp(np.maximum(np.abs(q), np.abs(prev)))
            prev, q = np.ldexp(prev, -e), np.ldexp(q, -e)
            total, exponent = np.ldexp(total, -2 * e) + q * q, exponent + e
        return u, math.log(2.0) - math.log1p(gamma) - np.log(total) - (2.0 * math.log(2.0)) * exponent


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

    def _y_tail_quantile(self, q):
        return np.sqrt(-np.log(q))

    def tail(self, y):
        y = np.asarray(y, dtype=float)
        return np.exp(-np.clip(y, 0.0, None) ** 2)

    def _m_route(self, pmax, xs):
        products, ok = _erfc_ratio_products(pmax, xs)
        # math.erfc per threshold, as Pareto takes math.exp; it multiplies
        # last, so a value below the normal range is rounded only once
        tails = np.array([math.erfc(t) for t in xs.flat]).reshape(xs.shape + (1,))
        return tails * ((0.5 * math.sqrt(math.pi)) * products), ok


# start depth of the Miller recurrence beyond the order wanted; the check
# starts a second recurrence twice as deep
_MILLER_DEPTH = 60


def _erfc_ratio_products(pmax, x):
    """
    The products r_1 ... r_n, n < pmax, on a trailing axis at thresholds x,
    of the ratios r_m = i^m erfc(x) / i^(m-1) erfc(x), by one pass of
    Miller's backward recurrence, and the check's pass mask; i^n erfc(x) is
    erfc(x) times the n-th product.

    The ratios satisfy r_m = 1 / (2x + 2(m+1) r_(m+1)) (from
    2(m+1) i^(m+1) erfc = i^(m-1) erfc - 2x i^m erfc); started at depth N
    from the asymptotic ratio 1 / (x + sqrt(x^2 + 2(N+1))) of the minimal
    solution, they run down to r_1.  The recurrence runs from
    N = pmax - 1 + 60 and from 2N; an element passes when the two products
    are finite, positive and within 1e-12 relative.  Below x of about 1.2
    (n = 1), 1.4 (n = 7) or 1.8 (n = 29) it mostly fails: there the two
    solutions of the recurrence barely separate, and at x = 0 the even and
    odd orders decouple.
    """
    shallow = pmax - 1 + _MILLER_DEPTH
    deep = 2 * shallow
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        two_x = 2.0 * x
        start = [1.0 / (x + np.sqrt(x * x + 2.0 * (depth + 1))) for depth in (shallow, deep)]
        ratio = start[1]
        for m in range(deep, shallow, -1):
            ratio = 1.0 / (two_x + 2.0 * (m + 1) * ratio)
        ratio = np.stack([start[0], ratio])
        ratios = []
        for m in range(shallow, 0, -1):
            ratio = 1.0 / (two_x + 2.0 * (m + 1) * ratio)
            if m < pmax:
                ratios.append(ratio)
        coarse, fine = np.cumprod(np.stack([np.ones_like(ratio), *ratios[::-1]], axis=-1), axis=-1)
        return fine, _passes(coarse, fine)


def quantile(dist, u):
    """Exact inverse of the distribution function on the raw (x) scale."""
    arr = np.asarray(u, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("quantile needs 0 < u < 1")
    out = np.exp(dist._y_quantile(arr))
    return float(out) if np.isscalar(u) or arr.ndim == 0 else out


def _philox_key(label, seed):
    digest = hashlib.sha256(f"{label}:{seed}".encode()).digest()
    # little-endian on every host, so the stream does not depend on byte order
    return np.frombuffer(digest[:16], dtype="<u8")


def _philox(label, seed):
    return np.random.Generator(np.random.Philox(key=_philox_key(label, seed)))


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


def _allocate(shape, what):
    """``np.empty(shape)``; a size that cannot be allocated, or that exceeds
    numpy's largest array, raises ``DomainError`` naming ``what``."""
    try:
        return np.empty(shape)
    except (MemoryError, ValueError):
        raise DomainError(f"cannot allocate the {8 * math.prod(shape)} bytes of {what}") from None


def _top_block(seeds, n, k):
    """The empty (len(seeds), k+1) block of a top sampler, after the window check."""
    if not (0 < k < n):
        raise DomainError(f"need 0 < k < n, got n={n}, k={k}")
    return _allocate((len(seeds), k + 1), f"{len(seeds)} rows of top order statistics at k = {k}")


def sample_top(dist, seeds, n, k):
    """
    The top k+1 log-scale order statistics Y_{n-k,n} <= ... <= Y_{n,n} of
    the sample ``sample_iid(dist, seed, n)`` of each seed, as a C-contiguous
    (len(seeds), k+1) array whose ascending row i belongs to seeds[i]: the
    ``mc`` sampler of Pareto, and the reference ``sample_top_renyi`` is
    tested against.

    Each row draws the same n raw 64-bit Philox words that
    ``Generator.random(n)`` reads, but selects and converts only the k+1
    largest, by numpy's own double map (w >> 11) * 2^-53.  That map and the
    quantile are non-decreasing, so row i equals
    ``sample_iid(dist, seeds[i], n).values[n-k-1:]`` bit for bit.  The words
    take 8n bytes, one sample's at a time; sizes that cannot be allocated
    raise ``DomainError``.
    """
    rows = _top_block(seeds, n, k)
    for row, seed in zip(rows, seeds):
        try:
            words = _philox("sample", seed).bit_generator.random_raw(n)
        except (MemoryError, ValueError):
            raise DomainError(
                f"cannot allocate the {8 * n} bytes of raw words for a sample of n = {n}"
            ) from None
        words.partition(n - k - 1)
        row[:] = np.sort(dist._y_quantile((words[n - k - 1 :] >> 11) * 2.0**-53))
        del words  # frees these 8n bytes before the next sample draws its own
    return rows


def sample_top_renyi(dist, seeds, n, k):
    """
    The top k+1 log-scale order statistics Y_{n-k,n} <= ... <= Y_{n,n} of
    an iid sample of size n for each seed, in O(k) time and memory per seed
    whatever n, as a C-contiguous (len(seeds), k+1) array whose ascending
    row i is keyed by seeds[i] alone.

    By Renyi's representation the survival values of the top order
    statistics, largest first, are q_j = S_j / S_(n+1), j = 1 .. k+1, where
    S_j are the partial sums of n+1 iid standard exponentials; the n-k
    exponentials past the (k+1)-th sum to G ~ Gamma(n-k), so
    q_j = S_j / (S_(k+1) + G).  A Philox stream keyed by the seed under its
    own label, never shared with ``sample_iid``, draws the k+1 exponentials
    and then G; the family's tail quantile y = G-bar^(-1)(q) maps the q_j,
    which descend in y, and reversing them sorts the row.  A row has the
    law of the same seed's ``sample_top`` row, not its values.

    One Philox bit generator serves the whole call; before each row its
    state is reset to the row's key with counter 0 and an empty buffer, the
    state of a generator built afresh from that key, at a fraction of the
    cost.  The exponentials go straight into the row and G aside; the
    partial sums, division, tail quantile and reversal then run once on the
    whole array, elementwise or along rows, so a row's bits depend on its
    own seed only.  The generator is local to the call, so calls on several
    threads share no state.
    """
    rows = _top_block(seeds, n, k)
    gammas = np.empty(len(seeds))
    bits = np.random.Philox(0)
    rng = np.random.Generator(bits)
    zeros = np.zeros(4, dtype=np.uint64)
    for i, seed in enumerate(seeds):
        bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros, "key": _philox_key("top", seed)},
            "buffer": zeros,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        rng.standard_exponential(out=rows[i])
        gammas[i] = rng.standard_gamma(n - k)
    np.cumsum(rows, axis=1, out=rows)
    rows /= (rows[:, -1] + gammas)[:, None]
    # the ascending values go back into the survival values' array, which
    # keeps the result C-contiguous at no new allocation
    rows[...] = dist._y_tail_quantile(rows)[:, ::-1]
    return rows


_QUAD_RTOL = 1e-10


def m_p_quadrature(dist, p, x):
    """
    Iterated tail integral via adaptive quadrature of the collapsed kernel
    (t-x)^(p-1)/(p-1)! * tail(t) from x to the support end, at relative
    tolerance ``_QUAD_RTOL`` however small the value.  The kernel is taken in
    logs, so it is finite wherever the integral is.  The fallback of the
    PowerEndpoint and StretchedTail routes, and the oracle of all three.
    """
    from scipy import integrate

    _check_order(p)
    y0 = dist.y_end
    if x >= y0:
        raise DomainError(f"threshold {x} is beyond the support end {y0}")
    log_norm = math.lgamma(p)

    def kernel(t):
        tail = float(dist.tail(t))
        if p == 1 or tail == 0.0:
            return tail
        if t <= x:
            return 0.0
        return math.exp((p - 1) * math.log(t - x) - log_norm + math.log(tail))

    value, _ = integrate.quad(kernel, x, y0, epsabs=0.0, epsrel=_QUAD_RTOL, limit=200)
    return value


def _m_orders(dist, x, first, last):
    """m_first .. m_last along a trailing axis at the thresholds x, by the
    family's route; each (threshold, order) element whose check failed
    takes ``m_p_quadrature``."""
    xs = _thresholds(dist, x)
    values, ok = dist._m_route(last, xs)
    values, ok = values[..., first - 1 :], ok[..., first - 1 :]
    for index in zip(*np.nonzero(~ok)):
        values[index] = m_p_quadrature(dist, first + int(index[-1]), float(xs[index[:-1]]))
    return values


def m_p_value(dist, p, x):
    """Iterated tail integral m_p(x) of one order by the family's route, at
    a float (float out) or an array of thresholds."""
    _check_order(p)
    values = _m_orders(dist, x, p, p)[..., 0]
    return float(values) if np.ndim(x) == 0 else values


def tau_p(dist, pmax, window):
    """Centering values (n/k) m_p, p = 1 .. pmax, at the deterministic
    threshold x_n = G^(-1)(1 - k/n), taken as the tail quantile at k/n."""
    x_n = float(dist._y_tail_quantile(window.k / window.n))
    return tau_p_at(dist, pmax, window, x_n)


def tau_p_at(dist, pmax, window, threshold):
    """Centering values (n/k) m_p, p = 1 .. pmax, along a trailing axis at
    an arbitrary (typically random) threshold or an array of thresholds."""
    _check_order(pmax)
    return (window.n / window.k) * _m_orders(dist, threshold, 1, pmax)
