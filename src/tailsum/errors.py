"""Exception types shared across the library."""

__all__ = [
    "DomainError",
    "EnumerationBudgetError",
    "UndefinedEstimateError",
    "ParseError",
    "NonFiniteReportError",
]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class EnumerationBudgetError(RuntimeError):
    """A brute-force enumeration would exceed the configured work budget."""


class UndefinedEstimateError(ValueError):
    """The requested estimate is undefined for the given data."""


class ParseError(ValueError):
    """An input file contains a row that cannot be interpreted."""


class NonFiniteReportError(ValueError):
    """A report holds a NaN or an infinity, which strict JSON cannot encode."""
