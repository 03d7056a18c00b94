"""Command-line front end: mine, rules, compare, and bench subcommands.

Exit codes: 0 success, 1 runtime or I/O failure (including a run stopped by a
resource budget), 2 usage error. Reports go to standard output, diagnostics to
standard error. Machine-format output is byte-identical for identical flags,
input, and seed.
"""

import argparse
import functools
import itertools
import json
import sys
from typing import Iterable, Iterator, Sequence

from . import metrics, rules
from .dataset import GeneratorConfig, TransactionDb, generate_synthetic, load_transactions
from .errors import ConfigurationError, IngestionError, ResourceLimitError
from .metrics import ComparisonReport, VariantRun, format_percent, format_threshold, json_report
from .mining import CANDIDATE_STRATEGIES, VARIANTS, MiningResult, run_apriori

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

# Chunks joined per write, for every report: large enough that writes stay
# few, small enough that a big report is never held as one string. A chunk is
# one human-format line, one machine-format itemset or rule entry (about 200
# bytes), one top-level member of a `bench` report, or a whole `compare` report.
JSON_BATCH_CHUNKS = 4_096

# Item separators inside the `items` lists of `levels[].itemsets[]` entries
# and the `antecedent`/`consequent` lists of `rules[]` entries.
_ITEMSET_ITEM_SEP = ",\n            "
_RULE_ITEM_SEP = ",\n        "


def main(argv: Sequence[str] | None = None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        # Each handler does all its work before returning the report's chunks,
        # so a failed run writes nothing to standard output.
        _write(args.handler(args))
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IngestionError, ResourceLimitError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _write(chunks: Iterable[str]) -> None:
    """Write `chunks` to standard output, joined in batches of JSON_BATCH_CHUNKS."""
    chunks = iter(chunks)
    while batch := "".join(itertools.islice(chunks, JSON_BATCH_CHUNKS)):
        sys.stdout.write(batch)


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tidmine",
        description="Frequent-itemset and association-rule mining with "
        "TID-indexed candidate counting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="mine frequent itemsets from one dataset")
    _add_common(mine)
    _add_variant(mine)
    mine.set_defaults(handler=_cmd_mine)

    rules_p = sub.add_parser("rules", help="mine itemsets and emit association rules")
    _add_common(rules_p)
    _add_variant(rules_p)
    rules_p.add_argument(
        "--min-confidence",
        required=True,
        type=float,
        metavar="Y",
        help="confidence threshold in (0, 1]",
    )
    rules_p.set_defaults(handler=_cmd_rules)

    compare = sub.add_parser(
        "compare", help="run every counting variant on one dataset and compare"
    )
    _add_common(compare)
    compare.add_argument(
        "--reps",
        type=int,
        default=5,
        metavar="R",
        help="timing repetitions per variant (median reported); 0 skips timing "
        "and makes the output fully deterministic (default: 5)",
    )
    compare.set_defaults(handler=_cmd_compare)

    bench = sub.add_parser(
        "bench",
        help="time every counting variant across several datasets",
        description="Time every counting variant on each dataset: repeat --input "
        "or --generate, one kind only.",
    )
    _add_common(bench)
    bench.add_argument(
        "--reps",
        type=int,
        default=5,
        metavar="R",
        help="timing repetitions per variant per dataset (default: 5)",
    )
    bench.set_defaults(handler=_cmd_bench)
    return parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("input (exactly one source kind)")
    group.add_argument(
        "--input",
        action="append",
        metavar="PATH",
        help="transaction file, one transaction per line",
    )
    group.add_argument(
        "--generate",
        action="append",
        metavar="N,ITEMS,AVGLEN",
        help="synthetic dataset: transactions, universe size, mean length",
    )
    parser.add_argument(
        "--min-support",
        required=True,
        metavar="X",
        help="absolute count, or fraction of the database when X contains a decimal point",
    )
    parser.add_argument(
        "--candidates",
        choices=[strategy.replace("_", "-") for strategy in CANDIDATE_STRATEGIES],
        default="join",
        help="candidate generation strategy (default: join)",
    )
    parser.add_argument(
        "--format", choices=["human", "machine"], default="human",
        help="report format (default: human)",
    )
    parser.add_argument(
        "--delimiter", choices=["whitespace", "comma"], default="whitespace",
        help="token delimiter for --input files (default: whitespace)",
    )
    parser.add_argument("--seed", type=int, default=0, help="generator seed (default: 0)")


def _add_variant(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--variant", choices=VARIANTS, default="improved",
        help="counting variant (default: improved)",
    )


def _parse_min_support(text: str) -> int | float:
    try:
        return float(text) if "." in text else int(text)
    except ValueError:
        raise ConfigurationError(f"cannot parse min_support {text!r}") from None


def _strategy(flag_value: str) -> str:
    return flag_value.replace("-", "_")


def _parse_generate(value: str, seed: int) -> GeneratorConfig:
    parts = value.split(",")
    if len(parts) != 3:
        raise ConfigurationError(
            f"--generate expects N,ITEMS,AVGLEN, got {value!r}"
        )
    try:
        n, items, avg_len = int(parts[0]), int(parts[1]), float(parts[2])
    except ValueError:
        raise ConfigurationError(f"cannot parse --generate value {value!r}") from None
    return GeneratorConfig(
        num_transactions=n, num_items=items, avg_transaction_len=avg_len, seed=seed
    )


def _generate_label(config: GeneratorConfig) -> str:
    return (
        f"generated(n={config.num_transactions},items={config.num_items},"
        f"avg_len={config.avg_transaction_len:g},seed={config.seed})"
    )


def _load(args: argparse.Namespace, several: bool = False) -> list[tuple[TransactionDb, str]]:
    """Every `--input` file or `--generate` config, with its label: exactly one
    source, or with `several` any number of one kind."""
    if several:
        if (args.input is None) == (args.generate is None):
            raise ConfigurationError(
                "exactly one source kind is required: --input files or --generate configs"
            )
    elif len(args.input or ()) + len(args.generate or ()) != 1:
        raise ConfigurationError("exactly one of --input or --generate is required")
    if args.input is not None:
        return [(load_transactions(path, args.delimiter), path) for path in args.input]
    configs = [_parse_generate(value, args.seed) for value in args.generate]
    return [(generate_synthetic(config), _generate_label(config)) for config in configs]


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


def _rules_json(
    found: list[rules.AssociationRule], json_tokens: Sequence[str]
) -> Iterator[str]:
    """The `rules` member: antecedent, confidence, consequent, support."""
    if not found:
        yield "[]"
        return
    token = json_tokens.__getitem__
    opening = "[\n"
    for rule in found:
        yield (
            f'{opening}    {{\n      "antecedent": [\n        '
            f"{_RULE_ITEM_SEP.join(map(token, rule.antecedent))}\n      ],\n"
            f'      "confidence": {rule.confidence!r},\n      "consequent": [\n        '
            f"{_RULE_ITEM_SEP.join(map(token, rule.consequent))}\n      ],\n"
            f'      "support": {rule.support!r}\n    }}'
        )
        opening = ",\n"
    yield "\n  ]"


def _machine_report(
    result: MiningResult,
    db: TransactionDb,
    label: str,
    found: list[rules.AssociationRule] | None = None,
    min_confidence: float | None = None,
) -> Iterator[str]:
    """The `mine` machine report, or the `rules` one when `found` is given."""
    json_tokens = [json.dumps(token) for token in db.tokens]
    fields = {
        "dataset": label,
        "num_transactions": len(db),
        "num_items": db.num_items,
        "min_support": result.min_support,
        "min_support_count": result.min_support_count,
        "variant": result.variant,
        "candidate_strategy": result.candidate_strategy,
        **metrics.ledger_payload(result.ledger),
        "total_frequent_itemsets": result.total_frequent,
    }
    levels = _levels_json(result, json_tokens)
    if found is None:
        return json_report("mine", fields, levels=levels)
    fields["min_confidence"] = min_confidence
    return json_report("rules", fields, levels=levels, rules=_rules_json(found, json_tokens))


def _header(result: MiningResult, db: TransactionDb, label: str, settings: str) -> str:
    """The `dataset:` and `min_support:` lines of a human report; `settings` ends the second."""
    return (
        f"dataset: {label} ({len(db)} transactions, {db.num_items} items)\n"
        f"min_support: {format_threshold(result.min_support)} "
        f"(count {result.min_support_count})  {settings}\n"
    )


def _mine_text(result: MiningResult, db: TransactionDb, label: str) -> Iterator[str]:
    yield _header(
        result, db, label, f"variant: {result.variant}  candidates: {result.candidate_strategy}"
    )
    yield "\n"
    token = db.tokens.__getitem__
    for k in sorted(result.levels):
        level = result.levels[k]
        yield f"L{k}: {len(level)} itemsets\n"
        for itemset, support in level.items():
            yield f"  {', '.join(map(token, itemset))}  (support {support})\n"
    if result.levels:
        yield "\n"
    yield f"{result.total_frequent} frequent itemsets\n"
    scans = "".join(f"{k}-itemset {v}, " for k, v in result.ledger.per_level.items())
    yield f"transactions scanned: {scans}total {result.ledger.total}\n"


def _rules_text(
    result: MiningResult,
    found: list[rules.AssociationRule],
    min_confidence: float,
    db: TransactionDb,
    label: str,
) -> Iterator[str]:
    yield _header(result, db, label, f"min_confidence: {format_threshold(min_confidence)}")
    yield f"{len(found)} rules\n"
    token = db.tokens.__getitem__
    for rule in found:
        left = ", ".join(map(token, rule.antecedent))
        right = ", ".join(map(token, rule.consequent))
        yield f"{left} => {right} (support {rule.support}, confidence {rule.confidence:.2f})\n"


def _mine(args: argparse.Namespace) -> tuple[TransactionDb, str, MiningResult]:
    [(db, label)] = _load(args)
    result = run_apriori(
        db,
        _parse_min_support(args.min_support),
        variant=args.variant,
        candidate_strategy=_strategy(args.candidates),
    )
    return db, label, result


def _cmd_mine(args: argparse.Namespace) -> Iterable[str]:
    db, label, result = _mine(args)
    if args.format == "machine":
        return _machine_report(result, db, label)
    return _mine_text(result, db, label)


def _cmd_rules(args: argparse.Namespace) -> Iterable[str]:
    db, label, result = _mine(args)
    found = rules.generate_rules(result, args.min_confidence)
    if args.format == "machine":
        return _machine_report(result, db, label, found, args.min_confidence)
    return _rules_text(result, found, args.min_confidence, db, label)


def _compare_on(
    db: TransactionDb, label: str, min_support: int | float, strategy: str, reps: int
) -> ComparisonReport:
    runs = []
    for variant in VARIANTS:
        result, wall = metrics.median_seconds(
            functools.partial(
                run_apriori, db, min_support, variant=variant, candidate_strategy=strategy
            ),
            reps,
        )
        runs.append(VariantRun(variant, result.ledger, wall))
    return ComparisonReport(
        dataset=label,
        min_support=min_support,
        min_support_count=result.min_support_count,
        candidate_strategy=strategy,
        runs=tuple(runs),
    )


def _cmd_compare(args: argparse.Namespace) -> Iterable[str]:
    if args.reps < 0:
        raise ConfigurationError("--reps must be non-negative")
    [(db, label)] = _load(args)
    report = _compare_on(
        db,
        label,
        _parse_min_support(args.min_support),
        _strategy(args.candidates),
        args.reps,
    )
    return [metrics.render_report(report, args.format)]


def _cmd_bench(args: argparse.Namespace) -> Iterable[str]:
    if args.reps < 1:
        raise ConfigurationError("--reps must be at least 1 for bench")
    sources = _load(args, several=True)
    min_support = _parse_min_support(args.min_support)
    strategy = _strategy(args.candidates)
    reports = [
        _compare_on(db, label, min_support, strategy, args.reps)
        for db, label in sources
    ]
    # A rate is None when its classic run took no measurable time or did no
    # scans; the means cover the rates that exist.
    time_rates = [
        r.reduction_rate_percent for r in reports if r.reduction_rate_percent is not None
    ]
    scan_rates = [r.scan_reduction_percent for r in reports if r.scan_reduction_percent is not None]
    mean_time = metrics.mean_rate(time_rates) if time_rates else None
    mean_scan = metrics.mean_rate(scan_rates) if scan_rates else None
    if args.format == "machine":
        return json_report(
            "bench",
            {
                "min_support": min_support,
                "candidate_strategy": strategy,
                "repetitions": args.reps,
                "datasets": [metrics.report_payload(report) for report in reports],
                "mean_reduction_rate_percent": mean_time,
                "mean_scan_reduction_percent": mean_scan,
            },
        )
    width = max(len("dataset"), max(len(r.dataset) for r in reports)) + 2
    lines = [
        (
            f"min_support: {format_threshold(min_support)}  candidates: {strategy}  "
            f"reps: {args.reps}"
        ),
        "",
        f"{'dataset':<{width}}"
        + "".join(f"{run.variant + ' (s)':>14}" for run in reports[0].runs)
        + f"{'reduction (%)':>15}",
    ]
    for report in reports:
        rate = format_percent(report.reduction_rate_percent).removesuffix("%")
        lines.append(
            f"{report.dataset:<{width}}"
            + "".join(f"{run.wall_seconds:>14.6f}" for run in report.runs)
            + f"{rate:>15}"
        )
    lines.append("")
    lines.append(f"mean reduction rate: {format_percent(mean_time)}")
    if mean_scan is not None:
        lines.append(f"mean scan reduction rate: {format_percent(mean_scan)}")
    return (line + "\n" for line in lines)


if __name__ == "__main__":
    sys.exit(main())
