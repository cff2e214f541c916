"""Covariance model of the limiting Gaussian process.

The normalized sum-product statistics converge to a centered Gaussian
ladder whose covariance at orders (r, rho) is a domain factor times the
unit covariance binomial(r+rho, r).  Replacing the random centering by a
deterministic one shifts the process by an index-dependent multiple of a
common standard Gaussian, which the reduced matrix absorbs.
``CovarianceModel`` is the only code that turns the unit covariances into
floats: ``build`` takes each from the binomial ``covariance_closed``, the
production formula, and each order's weibull factors from one running
product.  The paper's route through the number families
(``combinatorics.covariance_number``) gives the same integers and is kept
as the oracle the binomial is checked against.  The scalar covariances and
``lil_envelope`` read a cell or an envelope of a model.
"""

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

import numpy as np

from .errors import DomainError

__all__ = [
    "DomainKind",
    "covariance_factor",
    "shift_factor",
    "covariance",
    "covariance_closed",
    "reduced_covariance",
    "lil_envelope",
    "CovarianceModel",
]


@dataclass(frozen=True)
class DomainKind:
    """Domain of attraction of the underlying distribution.

    ``weibull`` (finite right endpoint) keeps a finite shape parameter;
    ``frechet`` and ``gumbel`` use the infinite-shape convention under
    which every domain factor collapses to 1.
    """

    kind: str
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in ("frechet", "weibull", "gumbel"):
            raise DomainError(f"unknown domain kind {self.kind!r}")
        if self.kind == "weibull":
            if self.gamma is None or not math.isfinite(self.gamma) or self.gamma <= 0:
                raise DomainError("the weibull domain needs a finite gamma > 0")
        elif self.gamma is not None and (not math.isfinite(self.gamma) or self.gamma <= 0):
            raise DomainError("gamma must be finite and positive when given")

    @classmethod
    def frechet(cls, gamma=None):
        return cls("frechet", gamma)

    @classmethod
    def weibull(cls, gamma):
        return cls("weibull", gamma)

    @classmethod
    def gumbel(cls):
        return cls("gumbel", None)

    @property
    def uses_shape(self):
        return self.kind == "weibull"


def _factor_column(rho, domain):
    """``covariance_factor(r, rho, domain)`` for r = 1..rho: the weibull
    factors are the running products of (g+j)/(g+rho+j)."""
    if not domain.uses_shape:
        return [1.0] * rho
    g = domain.gamma
    return list(accumulate(((g + j) / (g + rho + j) for j in range(1, rho + 1)), mul))


def covariance_factor(r, rho, domain):
    """Covariance correction: prod_{j=1..r} (g+j)/(g+rho+j) for r <= rho in
    the weibull domain, 1 elsewhere; rho = r gives the variance correction."""
    if not (1 <= r <= rho):
        raise DomainError(f"orders must satisfy 1 <= r <= rho, got ({r}, {rho})")
    return _factor_column(rho, domain)[r - 1]


def shift_factor(p, domain):
    """Deterministic-centering shift coefficient: (g+p)/g in the weibull
    domain, 1 elsewhere."""
    if p < 1:
        raise DomainError(f"order must be >= 1, got {p}")
    if not domain.uses_shape:
        return 1.0
    return (domain.gamma + p) / domain.gamma


def covariance(r, rho, domain):
    """Limit covariance at orders (r, rho) under random centering;
    symmetric, and the variance at order r when rho = r."""
    if r < 1 or rho < 1:
        raise DomainError(f"orders must be >= 1, got ({r}, {rho})")
    return float(CovarianceModel.build(domain, max(r, rho)).sigma[r - 1, rho - 1])


def covariance_closed(r, rho):
    """Unit covariance in closed form: binomial(r+rho, r).

    This is the production formula of every model; the number route
    ``combinatorics.covariance_number`` is its oracle.

    With unit-exponential spacing limits the order-p statistic is a sample
    mean of E^p/p!, so the unit covariance is 1 + Cov(E^r/r!, E^rho/rho!)
    = (r+rho)!/(r! rho!).
    """
    if r < 1 or rho < 1:
        raise DomainError(f"orders must be >= 1, got ({r}, {rho})")
    return math.comb(r + rho, r)


def reduced_covariance(r, rho, domain):
    """Limit covariance at orders (r, rho) under deterministic centering;
    the variance at order r when rho = r."""
    if r < 1 or rho < 1:
        raise DomainError(f"orders must be >= 1, got ({r}, {rho})")
    return float(CovarianceModel.build(domain, max(r, rho)).reduced_matrix()[r - 1, rho - 1])


def lil_envelope(p, domain, k, n):
    """
    Iterated-logarithm fluctuation envelope for the relative error of the
    order-p statistic: sqrt(reduced_covariance(p, p)) * sqrt(2 loglog(n) / k).
    """
    return CovarianceModel.build(domain, p).lil_envelopes(k, n)[-1]


# the largest order whose central binomial C(2p, p), the largest unit
# covariance of a model, converts to a float; a larger order is refused
# before any work, since C(2p, p) itself grows without bound in p
_FLOAT_PMAX = 514


@dataclass(frozen=True)
class CovarianceModel:
    """Evaluated limit model up to a maximal order.

    ``sigma`` holds the full symmetric covariance matrix under random
    centering; ``sigma2`` its diagonal; ``e`` the shift coefficients.
    """

    domain: DomainKind
    pmax: int
    sigma2: tuple
    sigma: np.ndarray
    e: tuple

    @classmethod
    def build(cls, domain, pmax):
        if pmax < 1:
            raise DomainError(f"pmax must be >= 1, got {pmax}")
        if pmax > _FLOAT_PMAX:
            raise DomainError(
                f"pmax must be at most {_FLOAT_PMAX}, where C(2 pmax, pmax) still fits a "
                f"float, got {pmax}"
            )
        sig = np.empty((pmax, pmax))
        for rho in range(1, pmax + 1):
            factors = _factor_column(rho, domain)
            column = [f * covariance_closed(r, rho) for r, f in enumerate(factors, start=1)]
            sig[rho - 1, :rho] = sig[:rho, rho - 1] = column
        e = tuple(shift_factor(p, domain) for p in range(1, pmax + 1))
        model = cls(domain, pmax, tuple(np.diag(sig)), sig, e)
        model._validate()
        return model

    def _validate(self):
        if not np.all(np.isfinite(self.sigma)) or np.any(self.sigma <= 0):
            raise DomainError("covariance entries must be finite and positive")
        negative = np.flatnonzero(np.diag(self.reduced_matrix()) < 0)
        if negative.size:
            raise DomainError(f"reduced variance negative at order {negative[0] + 1}")

    def reduced_matrix(self):
        """Covariance matrix under deterministic centering."""
        e = np.asarray(self.e)
        # an overflow gives inf or nan entries; the caller's finiteness
        # check, not numpy, reports them
        with np.errstate(over="ignore", invalid="ignore"):
            return self.sigma - (e[:, None] + e) + e[:, None] * e

    def lil_envelopes(self, k, n):
        """The ``lil_envelope`` of every order 1..pmax."""
        if not (3 <= k < n):
            raise DomainError(f"need 3 <= k < n, got k={k}, n={n}")
        loglog = math.log(math.log(n))
        if loglog <= 0.0:
            raise DomainError(f"loglog(n) must be positive, got n={n}")
        scale = math.sqrt(2.0 * loglog / k)
        return [math.sqrt(v) * scale for v in np.diag(self.reduced_matrix()).tolist()]
