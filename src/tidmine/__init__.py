"""Frequent-itemset and association-rule mining with TID-indexed counting."""

from .dataset import (
    GeneratorConfig,
    TransactionDb,
    generate_synthetic,
    load_transactions,
)
from .errors import (
    ArithmeticDomainError,
    ConfigurationError,
    ContractViolationError,
    IngestionError,
    ResourceLimitError,
    TidmineError,
    UnknownItemError,
)
from .metrics import (
    ComparisonReport,
    VariantRun,
    mean_rate,
    median_seconds,
    reduction_rate,
    render_report,
    round_percent,
)
from .mining import (
    Itemset,
    L1Index,
    MiningResult,
    ScanLedger,
    generate_candidates_combinations,
    generate_candidates_join,
    resolve_min_support,
    run_apriori,
)
from .rules import AssociationRule, RuleTable, generate_rules

__version__ = "0.1.0"

__all__ = [
    "ArithmeticDomainError",
    "AssociationRule",
    "ComparisonReport",
    "ConfigurationError",
    "ContractViolationError",
    "GeneratorConfig",
    "IngestionError",
    "Itemset",
    "L1Index",
    "MiningResult",
    "ResourceLimitError",
    "RuleTable",
    "ScanLedger",
    "TidmineError",
    "TransactionDb",
    "UnknownItemError",
    "VariantRun",
    "generate_candidates_combinations",
    "generate_candidates_join",
    "generate_rules",
    "generate_synthetic",
    "load_transactions",
    "mean_rate",
    "median_seconds",
    "reduction_rate",
    "render_report",
    "resolve_min_support",
    "round_percent",
    "run_apriori",
]
