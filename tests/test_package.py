import tailsum
from tailsum import combinatorics, distributions, errors, estimators, limits, montecarlo

MODULES = (combinatorics, distributions, errors, estimators, limits, montecarlo)

# the package exports as they were listed by hand in the package itself,
# less ``Tolerances``, which became module constants
HAND_LISTED = [
    "__version__",
    "Composition", "NumberTable", "compositions", "covariance_number",
    "lattice_path_count", "type_i", "type_ii", "type_iii", "variance_number",
    "Pareto", "PowerEndpoint", "StretchedTail", "m_p_quadrature", "m_p_value",
    "quantile", "sample_iid", "sample_top", "tau_p", "tau_p_at",
    "DomainError", "EnumerationBudgetError", "NonFiniteReportError", "ParseError",
    "UndefinedEstimateError",
    "SortedSample", "SpacingSet", "TailWindow", "hill", "index_estimate",
    "log_transform", "spacings", "sum_product", "sum_product_enum",
    "sum_product_ladder", "tail_index", "tail_moment",
    "CovarianceModel", "DomainKind", "covariance", "covariance_closed",
    "covariance_factor", "lil_envelope", "reduced_covariance", "shift_factor",
    "ExperimentConfig", "ExperimentReport", "QuadratureConfig",
    "adjudicate_covariance", "limit_covariance_quadrature", "replication_block",
    "run_experiment",
]


def test_exports_are_the_module_lists():
    expected = ["__version__"] + [name for module in MODULES for name in module.__all__]
    assert tailsum.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_each_export_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(tailsum, name) is obj, name
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name


def test_hand_listed_names_still_exported():
    assert set(HAND_LISTED) <= set(tailsum.__all__)
    assert not hasattr(tailsum, "Tolerances")
    namespace = {}
    exec("from tailsum import *", namespace)
    assert set(HAND_LISTED) <= set(namespace)
