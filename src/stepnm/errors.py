"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(ToolkitError, ValueError):
    """Shapes or group sizes are inconsistent."""


class DomainError(ToolkitError, ValueError):
    """A value lies outside the mathematical domain of an operation."""


class ConfigError(ToolkitError, ValueError):
    """An experiment configuration or hyperparameter is invalid."""


class NumericalError(ToolkitError, ArithmeticError):
    """A computation produced non-finite values."""


class RangeError(ToolkitError, ValueError):
    """An index or window falls outside the available data."""
