"""Exception types shared across the package."""


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
