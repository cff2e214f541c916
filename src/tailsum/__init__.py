"""Sum-product tail statistics and their limiting Gaussian model.

The package provides the order-p generalization of Hill's tail-index
statistic, the exact-integer number families that parameterize the limit
covariance, test distributions for each extreme-value domain, and a
verification harness combining Monte Carlo with deterministic quadrature.
"""

__version__ = "0.1.0"

from .combinatorics import (
    Composition,
    NumberTable,
    compositions,
    covariance_number,
    lattice_path_count,
    type_i,
    type_ii,
    type_iii,
    variance_number,
)
from .distributions import (
    Pareto,
    PowerEndpoint,
    StretchedTail,
    m_p_quadrature,
    m_p_value,
    quantile,
    sample_iid,
    sample_top,
    tau_p,
    tau_p_at,
)
from .errors import DomainError, EnumerationBudgetError, ParseError, UndefinedEstimateError
from .estimators import (
    SortedSample,
    SpacingSet,
    TailWindow,
    hill,
    index_estimate,
    log_transform,
    spacings,
    sum_product,
    sum_product_enum,
    sum_product_ladder,
    tail_index,
    tail_moment,
)
from .limits import (
    CovarianceModel,
    DomainKind,
    covariance,
    covariance_closed,
    covariance_factor,
    lil_envelope,
    reduced_covariance,
    shift_factor,
)
from .montecarlo import (
    ExperimentConfig,
    ExperimentReport,
    QuadratureConfig,
    Tolerances,
    adjudicate_covariance,
    limit_covariance_quadrature,
    replication_block,
    run_experiment,
)

__all__ = [
    "__version__",
    "Composition",
    "NumberTable",
    "compositions",
    "covariance_number",
    "lattice_path_count",
    "type_i",
    "type_ii",
    "type_iii",
    "variance_number",
    "Pareto",
    "PowerEndpoint",
    "StretchedTail",
    "m_p_quadrature",
    "m_p_value",
    "quantile",
    "sample_iid",
    "sample_top",
    "tau_p",
    "tau_p_at",
    "DomainError",
    "EnumerationBudgetError",
    "ParseError",
    "UndefinedEstimateError",
    "SortedSample",
    "SpacingSet",
    "TailWindow",
    "hill",
    "index_estimate",
    "log_transform",
    "spacings",
    "sum_product",
    "sum_product_enum",
    "sum_product_ladder",
    "tail_index",
    "tail_moment",
    "CovarianceModel",
    "DomainKind",
    "covariance",
    "covariance_closed",
    "covariance_factor",
    "lil_envelope",
    "reduced_covariance",
    "shift_factor",
    "ExperimentConfig",
    "ExperimentReport",
    "QuadratureConfig",
    "Tolerances",
    "adjudicate_covariance",
    "limit_covariance_quadrature",
    "replication_block",
    "run_experiment",
]
