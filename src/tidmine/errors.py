"""Exception types shared across the package, and the plain-number and id rules."""

import numbers
import operator


class TidmineError(Exception):
    """Base class for every error this package raises on purpose."""


class ConfigurationError(TidmineError, ValueError):
    """A parameter violates its documented constraints."""


class IngestionError(TidmineError, RuntimeError):
    """Reading a transaction source failed."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message)
        self.line_number = line_number


class UnknownItemError(TidmineError, KeyError):
    """An item id or token is not present in the intern table."""


class ContractViolationError(TidmineError, ValueError):
    """An operation was called with arguments that break its preconditions."""


class ArithmeticDomainError(TidmineError, ValueError):
    """A numeric operation was applied outside its domain."""


class ResourceLimitError(TidmineError, RuntimeError):
    """A run would exceed a fixed time or memory budget, so it stops early."""


def plain_int(value, name: str, error: type[TidmineError] = ConfigurationError) -> int:
    """Any integral number but a bool, numpy's included, as a plain int; else raise `error`."""
    # A plain int, the common case, skips the slower ABC check.
    if type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool)):
        return int(value)
    raise error(f"{name} must be an integer, got {value!r}")


def plain_float(value, name: str, error: type[TidmineError] = ConfigurationError) -> float:
    """Any real number but a bool, numpy's included, as a plain float; else raise `error`."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise error(f"{name} is past float range, got {value!r}") from None
    raise error(f"{name} must be a real number, got {value!r}")


def plain_ids(values, name: str, end=None, error=ConfigurationError) -> tuple[int, ...]:
    """`values` as strictly increasing `operator.index` ids in [0, end), else raise
    `error`. A bool reads as its int; a tuple of plain ints comes back uncopied."""
    ids = values
    if type(ids) is not tuple or not {int}.issuperset(map(type, ids)):
        try:
            ids = tuple(map(operator.index, values))
        except TypeError:
            raise error(f"{name} is not a sequence of integers") from None
    ordered = not ids or ids[0] >= 0 and all(map(operator.lt, ids, ids[1:]))
    if not ordered or ids and end is not None and ids[-1] >= end:
        bound = "from 0" if end is None else f"within [0, {end})"
        raise error(f"{name} does not strictly increase {bound}")
    return ids
