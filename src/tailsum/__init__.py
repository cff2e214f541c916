"""Sum-product tail statistics and their limiting Gaussian model.

The package provides the order-p generalization of Hill's tail-index
statistic, the exact-integer number families that parameterize the limit
covariance, test distributions for each extreme-value domain, and a
verification harness combining Monte Carlo with deterministic quadrature.
Every public name is listed once, in its module's ``__all__``; the package
re-exports them all.
"""

__version__ = "0.1.0"

from . import combinatorics, distributions, errors, estimators, limits, montecarlo
from .combinatorics import *
from .distributions import *
from .errors import *
from .estimators import *
from .limits import *
from .montecarlo import *

__all__ = [
    "__version__",
    *combinatorics.__all__,
    *distributions.__all__,
    *errors.__all__,
    *estimators.__all__,
    *limits.__all__,
    *montecarlo.__all__,
]
