import ast
import dataclasses
import re
from pathlib import Path

import tailsum
from tailsum import cli, combinatorics, distributions, errors, estimators, limits, montecarlo

MODULES = (combinatorics, distributions, errors, estimators, limits, montecarlo)
README = Path(__file__).resolve().parent.parent / "README.md"

# the package exports as they were listed by hand in the package itself, less
# - ``Tolerances``, which became module constants;
# - ``hill``, ``tail_moment`` and ``SpacingSet``, whose values the ladder and
#   the plain spacing array give;
# - the scalar limit accessors, whose values are cells and envelopes of
#   ``CovarianceModel``;
# - ``sum_product`` and ``tail_index``, whose values are ladder entries and
#   their ``index_estimate``, and ``Composition``, now a plain tuple;
# the last two groups are listed in ``REMOVED``.
HAND_LISTED = [
    "__version__",
    "NumberTable", "compositions", "covariance_number",
    "lattice_path_count", "type_i", "type_ii", "type_iii", "variance_number",
    "Pareto", "PowerEndpoint", "StretchedTail", "m_p_quadrature", "m_p_value",
    "quantile", "sample_iid", "sample_top", "tau_p", "tau_p_at",
    "DomainError", "EnumerationBudgetError", "NonFiniteReportError", "ParseError",
    "UndefinedEstimateError",
    "SortedSample", "TailWindow", "index_estimate", "log_transform",
    "spacings", "sum_product_enum", "sum_product_ladder",
    "CovarianceModel", "DomainKind", "covariance_closed", "shift_factor",
    "ExperimentConfig", "ExperimentReport", "QuadratureConfig",
    "adjudicate_covariance", "limit_covariance_quadrature", "replication_block",
    "run_experiment",
]
REMOVED = [
    "covariance", "covariance_factor", "lil_envelope", "reduced_covariance",
    "sum_product", "tail_index", "Composition",
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
    for name in ["Tolerances", *REMOVED]:
        assert not hasattr(tailsum, name), name
    namespace = {}
    exec("from tailsum import *", namespace)
    assert set(HAND_LISTED) <= set(namespace)


def test_no_unused_imports():
    # every name a module-level import binds in the package's modules is
    # read somewhere in its module; a star import binds no name of its own,
    # and a name listed in ``__all__`` counts as read
    unused = []
    for path in sorted(Path(tailsum.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name != "*" and name not in read:
                        unused.append(f"{path.name}:{node.lineno}: {name}")
    assert not unused, unused


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert abs(namespace["gamma"] - 2.0) <= 0.05


# backticked words of the module overview that name no code: the command
# and the package
NOT_CODE = {"mc", "tailsum"}
# what a dataclass field without a class default resolves to
FIELD = object()


def _resolve(identifier, owners):
    """Every object a dotted name reads as an attribute or dataclass field
    of one of ``owners``."""
    head, _, rest = identifier.partition(".")
    found = []
    for owner in owners:
        if hasattr(owner, head):
            obj = getattr(owner, head)
            found += _resolve(rest, [obj]) if rest else [obj]
        elif not rest and dataclasses.is_dataclass(owner):
            if head in {field.name for field in dataclasses.fields(owner)}:
                found.append(FIELD)
    return found


def test_readme_overview_names_only_existing_code():
    # every Python identifier the overview quotes is an attribute of the
    # package, the cli or a layer module, or an attribute or dataclass field
    # of one of their public classes; one quoted with a call's arguments
    # must be callable
    overview = README.read_text(encoding="utf-8").split("## Install", 1)[0]
    identifier = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(\(.*\))?")
    modules = (tailsum, cli, *MODULES)
    classes = {
        obj
        for module in modules
        for name, obj in vars(module).items()
        if isinstance(obj, type) and not name.startswith("_")
        and obj.__module__.startswith("tailsum")
    }
    quoted, stale = set(), []
    for text in re.findall(r"`([^`]+)`", overview):
        match = identifier.fullmatch(text)
        if match is None or match[1] in NOT_CODE:
            continue
        quoted.add(match[1])
        found = _resolve(match[1], [*modules, *classes])
        if not (any(map(callable, found)) if match[2] else found):
            stale.append(text)
    assert {"CovarianceModel", "sigma", "reduced_matrix", "lil_envelopes"} <= quoted
    assert not stale, f"README's overview names code that does not exist: {stale}"
