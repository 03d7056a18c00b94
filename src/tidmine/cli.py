"""Command-line front end: mine, rules, compare, and bench subcommands.

Exit codes: 0 success, 1 runtime or I/O failure (including a run stopped by a
resource budget), 2 usage error. Reports go to standard output, diagnostics to
standard error. Machine-format output is byte-identical for identical flags,
input, and seed.
"""

import argparse
import functools
import itertools
import sys
from typing import Callable, Iterable, Sequence

from . import dataset, metrics, rules
from .dataset import GeneratorConfig, TransactionDb, generate_synthetic, load_transactions
from .errors import ConfigurationError, IngestionError, ResourceLimitError
from .metrics import ComparisonReport
from .mining import CANDIDATE_STRATEGIES, VARIANTS, MiningResult, check_threshold, run_apriori

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

# Chunks joined per write, for every report: large enough that writes stay
# few, small enough that a big report is never held as one string. A chunk is
# one human-format line (about 55 bytes for a rule), one machine-format itemset
# or rule entry (about 210 bytes), one top-level member of a `bench` report, or
# a whole `compare` report. A batch of machine rule entries is about 110 KB.
JSON_BATCH_CHUNKS = 512


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
        type=_min_confidence,
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
        type=_reps(0),
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
        type=_reps(1),
        default=5,
        metavar="R",
        help="timing repetitions per variant per dataset (default: 5)",
    )
    bench.set_defaults(handler=_cmd_bench)
    return parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    inputs = parser.add_argument_group("input (exactly one source kind)")
    group = inputs.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--input",
        action="append",
        metavar="PATH",
        help="transaction file, one transaction per line",
    )
    group.add_argument(
        "--generate",
        action="append",
        type=_generate,
        metavar="N,ITEMS,AVGLEN",
        help="synthetic dataset: transactions, universe size, mean length",
    )
    parser.add_argument(
        "--min-support",
        required=True,
        type=_min_support,
        metavar="X",
        help="absolute count, or fraction of the database when X contains a decimal point",
    )
    parser.add_argument(
        "--candidates",
        choices=CANDIDATE_STRATEGIES,
        default="join",
        help="candidate generation strategy (default: join)",
    )
    parser.add_argument(
        "--format", choices=metrics.FORMATS, default="human",
        help="report format (default: human)",
    )
    parser.add_argument(
        "--delimiter", choices=dataset.DELIMITER_POLICIES, default="whitespace",
        help="token delimiter for --input files (default: whitespace)",
    )
    parser.add_argument("--seed", type=int, default=0, help="generator seed (default: 0)")


def _add_variant(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--variant", choices=VARIANTS, default="improved",
        help="counting variant (default: improved)",
    )


# Flag value converters. Each raises ArgumentTypeError, so argparse rejects a
# bad value with exit 2 before any input is read or generated.


def _min_support(text: str) -> int | float:
    try:
        return check_threshold(float(text) if "." in text else int(text))
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse min_support {text!r}") from None


def _min_confidence(text: str) -> float:
    try:
        return check_threshold(float(text), confidence=True)
    except ValueError as exc:  # ConfigurationError is a ValueError
        raise argparse.ArgumentTypeError(str(exc)) from None


def _generate(text: str) -> tuple[int, int, float]:
    try:
        n, items, avg_len = text.split(",")
        return int(n), int(items), float(avg_len)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects N,ITEMS,AVGLEN, got {text!r}") from None


def _reps(minimum: int) -> Callable[[str], int]:
    def reps(text: str) -> int:
        if int(text) < minimum:  # argparse reports a ValueError as an invalid value
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {text}")
        return int(text)

    return reps


def _generate_label(config: GeneratorConfig) -> str:
    return (
        f"generated(n={config.num_transactions},items={config.num_items},"
        f"avg_len={config.avg_transaction_len:g},seed={config.seed})"
    )


def _load(args: argparse.Namespace, several: bool = False) -> list[tuple[TransactionDb, str]]:
    """Every `--input` file or `--generate` config, with its label: exactly one
    source, or with `several` any number. The parser allows one kind only."""
    if not several and len(args.input or args.generate) != 1:
        raise ConfigurationError("exactly one of --input or --generate is required")
    if args.input is not None:
        return [(load_transactions(path, args.delimiter), path) for path in args.input]
    configs = [GeneratorConfig(*spec, seed=args.seed) for spec in args.generate]
    return [(generate_synthetic(config), _generate_label(config)) for config in configs]


def _mine(args: argparse.Namespace) -> tuple[TransactionDb, str, MiningResult]:
    [(db, label)] = _load(args)
    result = run_apriori(
        db, args.min_support, variant=args.variant, candidate_strategy=args.candidates
    )
    return db, label, result


def _cmd_mine(args: argparse.Namespace) -> Iterable[str]:
    db, label, result = _mine(args)
    return metrics.mine_report(db, label, result, args.format)


def _cmd_rules(args: argparse.Namespace) -> Iterable[str]:
    db, label, result = _mine(args)
    table = rules.generate_rules(result, args.min_confidence)
    return metrics.rules_report(db, label, table, args.format)


def _compare_on(db: TransactionDb, label: str, args: argparse.Namespace) -> ComparisonReport:
    """Run every variant on `db`, timed over `args.reps` repetitions, and build
    the report from their results; it refuses, with ContractViolationError, a
    variant whose itemsets or supports differ from the first's."""
    return ComparisonReport(
        label,
        [
            metrics.median_seconds(
                functools.partial(
                    run_apriori, db, args.min_support, variant=variant,
                    candidate_strategy=args.candidates,
                ),
                args.reps,
            )
            for variant in VARIANTS
        ],
    )


def _cmd_compare(args: argparse.Namespace) -> Iterable[str]:
    [(db, label)] = _load(args)
    return [metrics.render_report(_compare_on(db, label, args), args.format)]


def _cmd_bench(args: argparse.Namespace) -> Iterable[str]:
    reports = [_compare_on(db, label, args) for db, label in _load(args, several=True)]
    return metrics.bench_report(reports, args.reps, args.format)
