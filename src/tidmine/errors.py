"""Exception types shared across the package, the plain-number and id rules,
and the exact decimal a float prints as."""

import itertools
import math
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


def decimal_ratio(value: float) -> tuple[int, int]:
    """`repr(value)` of a finite float as an exact, reduced (numerator,
    denominator) pair of ints: 0.1 is (1, 10), not the binary value 0.1 holds.
    A non-finite value raises ArithmeticError."""
    if not math.isfinite(value):
        raise ArithmeticError(f"{value!r} has no exact decimal value")
    mantissa, _, exponent = repr(value).partition("e")
    whole, _, digits = mantissa.partition(".")
    num, shift = int(whole + digits), int(exponent or 0) - len(digits)
    num, den = num * 10 ** max(shift, 0), 10 ** max(-shift, 0)
    common = math.gcd(num, den)
    return num // common, den // common


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


def plain_id_rows(rows, name: str):
    """The collection `rows` of id tuples, each under `plain_ids`: checked in whole
    passes, and returned itself, when its rows are tuples of plain ints of one size,
    else put through `plain_ids` row by row into a new list, raising
    ContractViolationError for a refused row."""
    if {tuple}.issuperset(map(type, rows)) and len(sizes := set(map(len, rows))) <= 1:
        at = [operator.itemgetter(i) for i in range(max(sizes, default=0))]
        if (
            {int}.issuperset(map(type, itertools.chain.from_iterable(rows)))
            and all(all(map(operator.lt, map(a, rows), map(b, rows))) for a, b in zip(at, at[1:]))
            and (not at or min(map(at[0], rows)) >= 0)
        ):
            return rows
    return [plain_ids(row, name, error=ContractViolationError) for row in rows]
