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


def check_kind(what: str, kind, reads, given=()) -> None:
    """ConfigError unless the string ``kind`` is in ``reads`` and reads every key ``given``.

    ``reads`` maps each kind to the keys it reads; it is indexed only when
    keys are ``given``, so without them a plain tuple of the kinds serves.
    """
    if not isinstance(kind, str) or kind not in reads:
        raise ConfigError(f"unknown {what} kind {shown(kind)}")
    unread = set(given) - set(reads[kind]) if given else ()
    if unread:
        raise ConfigError(f"{what} kind {kind!r} does not read {listed(unread)}")


def listed(keys) -> str:
    """``str(sorted(keys, key=str))``, each key ``shown``: an int too long to print is named by its size."""
    keys = sorted(keys, key=lambda key: shown(key) if isinstance(key, int) else str(key))
    return f"[{', '.join(map(shown, keys))}]"


def shown(value) -> str:
    """``repr(value)``, but an int of over 4000 digits (Python prints none over 4300) by its size."""
    big = isinstance(value, int) and value.bit_length() > 13300
    return f"an integer of {value.bit_length()} bits" if big else repr(value)
