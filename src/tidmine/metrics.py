"""Scan accounting, run timing, reduction-rate arithmetic, and report writing.

The scan ledger counts transaction examinations: for every candidate itemset,
each transaction inspected while counting that candidate adds one examination
to the candidate's level. Level 1 is a full pass, so it always records
`num_transactions * num_distinct_items` regardless of the counting variant.
"""

import json
import statistics
import time
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import ArithmeticDomainError, ConfigurationError, ContractViolationError

REPORT_SCHEMA_VERSION = 2

T = TypeVar("T")


class ScanLedger:
    """Per-level tally of transaction examinations during a mining run.

    Entries only increase; totals are the sum over levels.
    """

    __slots__ = ("_per_level",)

    def __init__(self, per_level: Mapping[int, int] | None = None):
        self._per_level: dict[int, int] = {}
        if per_level:
            for level, scanned in per_level.items():
                self.add(level, scanned)

    def add(self, level: int, scanned: int) -> None:
        if level < 1:
            raise ConfigurationError(f"ledger level must be >= 1, got {level}")
        if scanned < 0:
            raise ConfigurationError("ledger entries only increase")
        self._per_level[level] = self._per_level.get(level, 0) + scanned

    def level(self, k: int) -> int:
        return self._per_level.get(k, 0)

    @property
    def per_level(self) -> dict[int, int]:
        return dict(sorted(self._per_level.items()))

    @property
    def total(self) -> int:
        return sum(self._per_level.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScanLedger):
            return NotImplemented
        return self._per_level == other._per_level

    def __repr__(self) -> str:
        return f"ScanLedger({self.per_level}, total={self.total})"


def reduction_rate(original: float, improved: float) -> float:
    """Percent reduction (original - improved) / original * 100, full precision.

    `original` must be positive; `improved` may exceed it, in which case the
    rate is negative. Applies to any positive magnitude (seconds, scan counts).
    """
    if original <= 0:
        raise ArithmeticDomainError(f"original must be positive, got {original}")
    if improved < 0:
        raise ArithmeticDomainError(f"improved must be non-negative, got {improved}")
    return (original - improved) / original * 100.0


def mean_rate(rates: Sequence[float]) -> float:
    """Arithmetic mean of a non-empty sequence of percentages, full precision."""
    if not rates:
        raise ArithmeticDomainError("mean_rate needs at least one rate")
    return statistics.fmean(rates)


def round_percent(value: float) -> float:
    """Display rounding: two decimals, ties away from zero."""
    return float(Decimal(repr(float(value))).quantize(Decimal("0.01"), ROUND_HALF_UP))


def median_seconds(fn: Callable[[], T], repetitions: int = 5) -> tuple[T, float | None]:
    """Run `fn` `repetitions` times; return (first result, median wall seconds).

    With repetitions=0 the callable runs once untimed and the median is None.
    """
    if repetitions < 0:
        raise ConfigurationError("repetitions must be non-negative")
    if repetitions == 0:
        return fn(), None
    result = None
    laps = []
    for i in range(repetitions):
        start = time.perf_counter()
        out = fn()
        laps.append(time.perf_counter() - start)
        if i == 0:
            result = out
    return result, statistics.median(laps)


@dataclass(frozen=True)
class VariantRun:
    """Scan ledger and median wall seconds (None when untimed) of one variant."""

    variant: str
    ledger: ScanLedger
    wall_seconds: float | None

    def __post_init__(self):
        if self.wall_seconds is not None and self.wall_seconds < 0:
            raise ConfigurationError("wall_seconds must be non-negative")


@dataclass(frozen=True)
class ComparisonReport:
    """Runs of several counting variants on one database and min_support.

    All runs used the same candidate strategy. The paper's two rates compare
    the run named `classic` with the run named `improved`.
    """

    dataset: str
    min_support: int | float
    min_support_count: int
    candidate_strategy: str
    runs: tuple[VariantRun, ...]

    def run(self, variant: str) -> VariantRun:
        """The first run of `variant`."""
        for run in self.runs:
            if run.variant == variant:
                return run
        raise ContractViolationError(f"the report has no {variant!r} run")

    @property
    def reduction_rate_percent(self) -> float | None:
        """Time-based reduction rate; None when either run is untimed."""
        original = self.run("classic").wall_seconds
        improved = self.run("improved").wall_seconds
        if original is None or improved is None or original == 0:
            return None
        return reduction_rate(original, improved)

    @property
    def scan_reduction_percent(self) -> float | None:
        """Ledger-based reduction rate; deterministic for a given input."""
        original = self.run("classic").ledger.total
        if original == 0:
            return None
        return reduction_rate(original, self.run("improved").ledger.total)

    def levels(self) -> list[int]:
        return sorted({k for run in self.runs for k in run.ledger.per_level})


def format_threshold(value: int | float) -> str:
    """Display form of a threshold: floats by repr, counts as integers."""
    return repr(value) if isinstance(value, float) else str(value)


def format_percent(value: float | None) -> str:
    """Display form of a rate: two decimals and a percent sign, or n/a."""
    return "n/a" if value is None else f"{round_percent(value):.2f}%"


def render_report(report: ComparisonReport, format: str = "human") -> str:
    """Serialize a ComparisonReport; ends with a newline in both formats.

    Human format mirrors the per-level scan table with a sum row plus timing
    lines. Machine format is versioned JSON (see README for the schema) and is
    byte-stable for identical reports.
    """
    if format == "machine":
        return "".join(json_report("compare", report_payload(report)))
    if format != "human":
        raise ConfigurationError(f"unknown report format: {format!r}")
    return _render_human(report)


def _render_human(report: ComparisonReport) -> str:
    lines = [
        f"comparison: {report.dataset}",
        (
            f"min_support: {format_threshold(report.min_support)} "
            f"(count {report.min_support_count})  candidates: {report.candidate_strategy}"
        ),
        "",
        f"{'level':<14}" + "".join(f"{run.variant:>12}" for run in report.runs),
    ]
    for k in report.levels():
        lines.append(
            f"{f'{k}-itemset':<14}"
            + "".join(f"{run.ledger.level(k):>12}" for run in report.runs)
        )
    lines.append(f"{'sum':<14}" + "".join(f"{run.ledger.total:>12}" for run in report.runs))
    lines.append("")
    lines.append(f"scan reduction rate: {format_percent(report.scan_reduction_percent)}")
    if any(run.wall_seconds is None for run in report.runs):
        lines.append("wall seconds: not measured")
    else:
        walls = ", ".join(f"{run.variant} {run.wall_seconds:.6f}" for run in report.runs)
        lines.append(f"wall seconds: {walls}")
        lines.append(
            f"time reduction rate: {format_percent(report.reduction_rate_percent)}"
        )
    return "".join(line + "\n" for line in lines)


def report_payload(report: ComparisonReport) -> dict:
    """The machine form of one report: a `compare` payload, and a `bench` row."""
    return {
        "dataset": report.dataset,
        "min_support": report.min_support,
        "min_support_count": report.min_support_count,
        "candidate_strategy": report.candidate_strategy,
        "variants": [
            {
                "variant": run.variant,
                **ledger_payload(run.ledger),
                "wall_seconds": run.wall_seconds,
            }
            for run in report.runs
        ],
        "reduction_rate_percent": report.reduction_rate_percent,
        "scan_reduction_percent": report.scan_reduction_percent,
    }


def ledger_payload(ledger: ScanLedger) -> dict:
    """The machine form of a ledger: `per_level_scans` and `total_scans`."""
    return {
        "per_level_scans": {str(k): v for k, v in ledger.per_level.items()},
        "total_scans": ledger.total,
    }


def json_report(command: str, fields: dict, **lists: Iterable[str]) -> Iterator[str]:
    """Chunks of one machine report: a key-sorted, indent-2 JSON object plus a newline.

    The report holds `schema_version`, the `command` tag, the members in
    `fields`, encoded by `json`, and one top-level list member per keyword in
    `lists`, each yielding that list's rendered text. The text equals
    `json.dumps(payload, indent=2, sort_keys=True) + "\\n"` for the payload
    holding them all, which `json` itself would encode in pure Python only, as
    its C encoder never runs when `indent` is set.
    """
    fields = {"schema_version": REPORT_SCHEMA_VERSION, "command": command, **fields}
    opening = "{\n"
    for key in sorted([*fields, *lists]):
        yield f"{opening}  {json.dumps(key)}: "
        if key in lists:
            yield from lists[key]
        else:
            # JSON strings hold no raw newline, so this re-indents the value
            # by one level exactly as a nested encoding would.
            yield json.dumps(fields[key], indent=2, sort_keys=True).replace("\n", "\n  ")
        opening = ",\n"
    yield "\n}\n"
