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


def check_kind(what: str, kind, reads: dict, given=()) -> None:
    """ConfigError unless the string ``kind`` is in ``reads`` and reads every key ``given``."""
    if not isinstance(kind, str) or kind not in reads:
        raise ConfigError(f"unknown {what} kind {kind!r}")
    unread = set(given) - set(reads[kind])
    if unread:
        raise ConfigError(f"{what} kind {kind!r} does not read {sorted(unread, key=str)}")
