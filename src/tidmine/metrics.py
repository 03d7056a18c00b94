"""Run timing, reduction-rate arithmetic, and the layout of every report.

Each report kind has one entry, which takes a `format` from FORMATS. The
`mine`, `rules` and `bench` entries return iterators of text chunks, which
check the format when first iterated; `render_report` returns one string.
"""

import collections
import functools
import itertools
import json
import math
import time
from collections.abc import Sequence
from decimal import ROUND_HALF_UP, Decimal
from typing import Callable, Iterable, Iterator, TypeVar

from .dataset import TransactionDb
from .errors import ArithmeticDomainError, ConfigurationError, ContractViolationError
from .errors import plain_float, plain_int
from .mining import MiningResult, ScanLedger
from .rules import RuleTable

REPORT_SCHEMA_VERSION = 2

T = TypeVar("T")

FORMATS = ("human", "machine")

# Item separators inside the `items` lists of `levels[].itemsets[]` entries
# and the `antecedent`/`consequent` lists of `rules[]` entries.
_ITEMSET_ITEM_SEP = ",\n            "
_RULE_ITEM_SEP = ",\n        "


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
    return math.fsum(rates) / len(rates)


def round_percent(value: float) -> float:
    """Display rounding: two decimals, ties away from zero; a rate that rounds
    to zero is 0.0, never -0.0."""
    return float(Decimal(repr(float(value))).quantize(Decimal("0.01"), ROUND_HALF_UP)) or 0.0


def median_seconds(fn: Callable[[], T], repetitions: int = 5) -> tuple[T, float | None]:
    """Run `fn` `repetitions` times; return (first result, median wall seconds).

    With repetitions=0 the callable runs once untimed and the median is None.
    """
    repetitions = plain_int(repetitions, "repetitions")
    if repetitions < 0:
        raise ConfigurationError("repetitions must be non-negative")
    if repetitions == 0:
        return fn(), None
    # Imported here so that jobs that time nothing never load `statistics`:
    # about 100 KB less heap at import.
    import statistics

    result = None
    laps = []
    for i in range(repetitions):
        start = time.perf_counter()
        out = fn()
        laps.append(time.perf_counter() - start)
        if i == 0:
            result = out
    return result, statistics.median(laps)


class VariantRun:
    """Scan ledger and median wall seconds (None when untimed) of one variant."""

    __slots__ = ("variant", "ledger", "wall_seconds")

    def __init__(self, variant: str, ledger: ScanLedger, wall_seconds: float | None):
        wall = None if wall_seconds is None else plain_float(wall_seconds, "wall_seconds")
        if wall is not None and not 0 <= wall < math.inf:
            raise ConfigurationError(f"wall_seconds must be finite and >= 0, got {wall!r}")
        self.variant, self.ledger, self.wall_seconds = variant, ledger, wall


class ComparisonReport:
    """Runs of several counting variants on one database, built from each one's
    `(MiningResult, wall_seconds)` pair, as `median_seconds` returns it; any
    other entry raises ContractViolationError.

    The runs name each variant at most once, `classic` and `improved` always:
    the paper's two rates compare those two. Runs that differ in min_support
    (by repr: the count 1 is not the fraction 1.0), min_support_count,
    candidate strategy or itemsets raise ContractViolationError. The report
    takes those settings from the first run and keeps one VariantRun per run.
    """

    __slots__ = ("dataset", "min_support", "min_support_count", "candidate_strategy", "runs")

    def __init__(self, dataset: str, runs: Iterable[tuple[MiningResult, float | None]]):
        runs = tuple(runs)
        for position, run in enumerate(runs):
            if type(run) is not tuple or len(run) != 2 or not isinstance(run[0], MiningResult):
                got = [type(x).__name__ for x in run] if type(run) is tuple else type(run).__name__
                raise ContractViolationError(
                    f"run {position} must be a (MiningResult, wall_seconds) pair, got {got}"
                )
        variants = [result.variant for result, _ in runs]
        if len(set(variants)) < len(variants) or not {"classic", "improved"} <= set(variants):
            raise ConfigurationError(
                "a report holds one run per variant, classic and improved among them; "
                f"got {variants}"
            )
        settings = {
            (repr(result.min_support), result.min_support_count, result.candidate_strategy)
            for result, _ in runs
        }
        if len(settings) > 1:
            raise ContractViolationError(
                f"the runs on {dataset} differ in min_support, support floor or candidate strategy"
            )
        first = runs[0][0]
        for result, _ in runs[1:]:
            if result.levels != first.levels:
                raise ContractViolationError(
                    f"variant {result.variant!r} found other itemsets than {first.variant!r} "
                    f"on {dataset}"
                )
        self.dataset, self.candidate_strategy = dataset, first.candidate_strategy
        self.min_support, self.min_support_count = first.min_support, first.min_support_count
        self.runs = tuple(VariantRun(result.variant, result.ledger, wall) for result, wall in runs)

    def run(self, variant: str) -> VariantRun:
        """The run of `variant`."""
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


def format_percent(value: float | None) -> str:
    """Display form of a rate: two decimals and a percent sign, or n/a."""
    return "n/a" if value is None else f"{round_percent(value):.2f}%"


def _is_machine(format: str) -> bool:
    if format not in FORMATS:
        raise ConfigurationError(f"unknown report format: {format!r}")
    return format == "machine"


def _min_support_line(source: MiningResult | ComparisonReport, settings: str) -> str:
    """The `min_support:` line of a `mine`, `rules` or `compare` report; `settings` ends it."""
    return (
        f"min_support: {source.min_support!r} "
        f"(count {source.min_support_count})  {settings}"
    )


def render_report(report: ComparisonReport, format: str = "human") -> str:
    """Serialize a ComparisonReport; ends with a newline in both formats.

    Human format mirrors the per-level scan table with a sum row plus timing
    lines. Machine format is versioned JSON (see README for the schema) and is
    byte-stable for identical reports.
    """
    if _is_machine(format):
        return "".join(json_report("compare", report_payload(report)))
    lines = [
        f"comparison: {report.dataset}",
        _min_support_line(report, f"candidates: {report.candidate_strategy}"),
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


def _flat(parts: Callable[..., Iterator[Iterable[str]]]) -> Callable[..., Iterator[str]]:
    """`parts`, a generator of chunk iterables, as a function returning their
    chunks in order. `itertools.chain` resumes each iterable from C, so a
    chunk passes through one generator frame however deep the report nests;
    `parts` starts when the first chunk is asked for, and its checks with it."""

    @functools.wraps(parts)
    def chunks(*args, **kwargs) -> Iterator[str]:
        return itertools.chain.from_iterable(parts(*args, **kwargs))

    return chunks


@_flat
def mine_report(
    db: TransactionDb, label: str, result: MiningResult, format: str = "human"
) -> Iterator[Iterable[str]]:
    """Chunks of the `mine` report of `result`, mined from `db` named `label`."""
    machine = _is_machine(format)
    _check_item_ids(db, result)
    if machine:
        json_tokens = tuple(map(json.dumps, db.tokens))
        yield json_report(
            "mine", _mining_fields(db, label, result), levels=_levels_json(result, json_tokens)
        )
        return
    settings = f"variant: {result.variant}  candidates: {result.candidate_strategy}"
    yield (_header(db, label, result, settings), "\n")
    token = db.tokens.__getitem__
    for k in sorted(result.levels):
        level = result.levels[k]
        yield (f"L{k}: {len(level)} itemsets\n",)
        yield (
            f"  {', '.join(map(token, itemset))}  (support {support})\n"
            for itemset, support in level.items()
        )
    if result.levels:
        yield ("\n",)
    scans = "".join(f"{k}-itemset {v}, " for k, v in result.ledger.per_level.items())
    yield (
        f"{result.total_frequent} frequent itemsets\n",
        f"transactions scanned: {scans}total {result.ledger.total}\n",
    )


@_flat
def rules_report(
    db: TransactionDb, label: str, table: RuleTable, format: str = "human"
) -> Iterator[Iterable[str]]:
    """Chunks of the `rules` report of `table`: its rules, under the header of
    the result they were split from and the min_confidence they were kept at.

    `table` is the RuleTable of `generate_rules`, that type exactly: anything
    else, a list of records or a table's copy among them, raises
    ContractViolationError. Rules are rendered from the table's columns: each
    itemset's text once, each support's text once per run of its rules, and
    each (support, antecedent support) pair's confidence once.
    """
    if type(table) is not RuleTable:
        raise ContractViolationError("rules to report must be the RuleTable of generate_rules")
    result, min_confidence = table.result, table.min_confidence
    machine = _is_machine(format)
    _check_item_ids(db, result)
    if machine:
        json_tokens = tuple(map(json.dumps, db.tokens))
        yield json_report(
            "rules",
            {**_mining_fields(db, label, result), "min_confidence": min_confidence},
            levels=_levels_json(result, json_tokens),
            rules=_rules_json(table, json_tokens),
        )
        return
    settings = f"min_confidence: {min_confidence!r}"
    yield (_header(db, label, result, settings), f"{len(table)} rules\n")
    yield _rule_lines(table, db.tokens)


def _rule_lines(table: RuleTable, tokens: Sequence[str]) -> Iterator[str]:
    """The human report's line of each rule of `table`."""
    side, supports, rows, confidences = _rule_texts(table, tokens, ", ")
    whole_before = None
    for whole, antecedent, consequent in zip(rows, rows, rows):
        if whole != whole_before:
            whole_before, support = whole, supports[whole]
            texts, tail = confidences[support], f" (support {support}, confidence "
        below = supports[antecedent]
        confidence = texts.get(below)
        if confidence is None:
            confidence = texts[below] = f"{support / below:.2f}"
        yield f"{side[antecedent]} => {side[consequent]}{tail}{confidence})\n"


def bench_report(
    reports: Sequence[ComparisonReport], repetitions: int, format: str = "human"
) -> Iterator[str]:
    """Chunks of the `bench` report: one row per `compare` report, and the means.

    The reports, at least one, share one min_support, candidate strategy and
    variant order, and every run is timed, over `repetitions`, a plain integer
    of at least 1, else ConfigurationError. A rate is None when its classic run
    took no measurable time or did no scans; each mean covers the rates that
    exist, and is None when none does.
    """
    repetitions = plain_int(repetitions, "repetitions")
    if repetitions < 1:
        raise ConfigurationError(f"repetitions must be at least 1, got {repetitions}")
    if not reports:
        raise ConfigurationError("a bench report needs at least one comparison")
    if any(run.wall_seconds is None for report in reports for run in report.runs):
        raise ConfigurationError("every run of a bench report must be timed")
    # The header and column titles come from the first report alone; repr
    # tells the count 1 from the fraction 1.0.
    settings = {
        (repr(r.min_support), r.candidate_strategy, tuple(run.variant for run in r.runs))
        for r in reports
    }
    if len(settings) > 1:
        raise ConfigurationError(
            "the reports of a bench report must share min_support, candidate "
            "strategy and variant order"
        )
    first = reports[0]
    mean_time = _mean_or_none([r.reduction_rate_percent for r in reports])
    mean_scan = _mean_or_none([r.scan_reduction_percent for r in reports])
    if _is_machine(format):
        yield from json_report(
            "bench",
            {
                "min_support": first.min_support,
                "candidate_strategy": first.candidate_strategy,
                "repetitions": repetitions,
                "datasets": [report_payload(report) for report in reports],
                "mean_reduction_rate_percent": mean_time,
                "mean_scan_reduction_percent": mean_scan,
            },
        )
        return
    width = max(len("dataset"), max(len(r.dataset) for r in reports)) + 2
    yield (
        f"min_support: {first.min_support!r}  "
        f"candidates: {first.candidate_strategy}  reps: {repetitions}\n\n"
    )
    yield (
        f"{'dataset':<{width}}"
        + "".join(f"{run.variant + ' (s)':>14}" for run in first.runs)
        + f"{'reduction (%)':>15}\n"
    )
    for report in reports:
        rate = format_percent(report.reduction_rate_percent).removesuffix("%")
        yield (
            f"{report.dataset:<{width}}"
            + "".join(f"{run.wall_seconds:>14.6f}" for run in report.runs)
            + f"{rate:>15}\n"
        )
    yield f"\nmean reduction rate: {format_percent(mean_time)}\n"
    if mean_scan is not None:
        yield f"mean scan reduction rate: {format_percent(mean_scan)}\n"


def _mean_or_none(rates: list[float | None]) -> float | None:
    present = [rate for rate in rates if rate is not None]
    return mean_rate(present) if present else None


def _header(db: TransactionDb, label: str, result: MiningResult, settings: str) -> str:
    """The `dataset:` and `min_support:` lines of a human `mine` or `rules` report."""
    return (
        f"dataset: {label} ({len(db)} transactions, {db.num_items} items)\n"
        f"{_min_support_line(result, settings)}\n"
    )


def _check_item_ids(db: TransactionDb, result: MiningResult) -> None:
    """Refuse an itemset of `result`, rule sides included, naming an item outside
    `db`; a MiningResult's itemsets strictly increase, so the last id is the largest."""
    top = max((itemset[-1] for level in result.levels.values() for itemset in level), default=-1)
    if top >= db.num_items:
        raise ContractViolationError(
            f"item id {top} is outside the database's {db.num_items} items"
        )


def _mining_fields(db: TransactionDb, label: str, result: MiningResult) -> dict:
    """The members a machine `mine` or `rules` report holds besides its lists."""
    return {
        "dataset": label,
        "num_transactions": len(db),
        "num_items": db.num_items,
        "min_support": result.min_support,
        "min_support_count": result.min_support_count,
        "variant": result.variant,
        "candidate_strategy": result.candidate_strategy,
        **ledger_payload(result.ledger),
        "total_frequent_itemsets": result.total_frequent,
    }


def _levels_json(result: MiningResult, json_tokens: Sequence[str]) -> Iterator[str]:
    """The `levels` member: one entry per level, holding `itemsets[]`."""
    if not result.levels:
        yield "[]"
        return
    token = json_tokens.__getitem__
    opening = "[\n"
    for k in sorted(result.levels):
        yield f'{opening}    {{\n      "itemsets": [\n'
        separator = ""
        for itemset, support in result.levels[k].items():
            yield (
                f'{separator}        {{\n          "items": [\n            '
                f"{_ITEMSET_ITEM_SEP.join(map(token, itemset))}\n          ],\n"
                f'          "support": {support!r}\n        }}'
            )
            separator = ",\n"
        yield f'\n      ],\n      "k": {k!r}\n    }}'
        opening = ",\n"
    yield "\n  ]"


def _rules_json(table: RuleTable, json_tokens: Sequence[str]) -> Iterator[str]:
    """The `rules` member: antecedent, confidence, consequent, support."""
    if not table:
        yield "[]"
        return
    side, supports, rows, confidences = _rule_texts(table, json_tokens, _RULE_ITEM_SEP)
    opening, whole_before = "[\n", None
    for whole, antecedent, consequent in zip(rows, rows, rows):
        if whole != whole_before:
            whole_before, support = whole, supports[whole]
            texts, tail = confidences[support], f'      "support": {support!r}\n    }}'
        below = supports[antecedent]
        confidence = texts.get(below)
        if confidence is None:
            confidence = texts[below] = repr(support / below)
        yield (
            f'{opening}    {{\n      "antecedent": [\n        {side[antecedent]}\n      ],\n'
            f'      "confidence": {confidence},\n'
            f'      "consequent": [\n        {side[consequent]}\n      ],\n{tail}'
        )
        opening = ",\n"
    yield "\n  ]"


def _rule_texts(table: RuleTable, tokens: Sequence[str], sep: str) -> tuple:
    """The columns of `table` as its rules print: each itemset's `tokens` joined
    by `sep`, in a list indexed by row; the supports; an iterator over the rows;
    and, for each support, a dict to hold its confidence texts, keyed by the
    antecedent's support. Rules of one itemset come in one run, so a renderer
    makes each support's text once per run."""
    itemsets, supports, rows = table.columns
    side = [sep.join(map(tokens.__getitem__, itemset)) for itemset in itemsets]
    return side, supports, iter(rows), collections.defaultdict(dict)


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


@_flat
def json_report(command: str, fields: dict, **lists: Iterable[str]) -> Iterator[Iterable[str]]:
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
        if key in lists:
            yield (f"{opening}  {json.dumps(key)}: ",)
            yield lists[key]
        else:
            # JSON strings hold no raw newline, so this re-indents the value
            # by one level exactly as a nested encoding would.
            value = json.dumps(fields[key], indent=2, sort_keys=True).replace("\n", "\n  ")
            yield (f"{opening}  {json.dumps(key)}: {value}",)
        opening = ",\n"
    yield ("\n}\n",)
