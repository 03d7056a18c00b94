import json
import random
from fractions import Fraction

import numpy as np
import pytest

from tidmine.dataset import TransactionDb
from tidmine.errors import ArithmeticDomainError, ConfigurationError, ContractViolationError
from tidmine.metrics import (
    FORMATS,
    ComparisonReport,
    ScanLedger,
    VariantRun,
    bench_report,
    format_percent,
    mean_rate,
    median_seconds,
    mine_report,
    reduction_rate,
    render_report,
    round_percent,
    rules_report,
)
from tidmine.mining import VARIANTS, MiningResult, run_apriori
from tidmine.rules import generate_rules

# Frozen reference timings and their reduction rates: one sweep over
# transaction counts, one over support thresholds.
COUNT_SWEEP = [
    (1.776, 0.677, 61.88),
    (8.221, 4.002, 51.32),
    (6.871, 2.304, 66.47),
    (11.940, 2.458, 79.41),
    (82.558, 18.331, 77.80),
]
SUPPORT_SWEEP = [
    (6.638, 1.056, 84.09),
    (1.855, 0.422, 77.25),
    (1.158, 0.330, 71.50),
    (0.424, 0.199, 53.07),
    (0.382, 0.168, 56.02),
]


@pytest.mark.parametrize("original,improved,expected", COUNT_SWEEP + SUPPORT_SWEEP)
def test_reduction_rate_reference_values(original, improved, expected):
    assert round_percent(reduction_rate(original, improved)) == pytest.approx(
        expected, abs=0.01
    )


def test_reduction_rate_identity_is_zero():
    assert reduction_rate(3.14, 3.14) == 0.0
    assert round_percent(reduction_rate(3.14, 3.14)) == 0.0


def test_reduction_rate_negative_allowed():
    assert reduction_rate(1.0, 2.0) == -100.0


def test_reduction_rate_domain():
    with pytest.raises(ArithmeticDomainError):
        reduction_rate(0.0, 1.0)
    with pytest.raises(ArithmeticDomainError):
        reduction_rate(-1.0, 0.5)
    with pytest.raises(ArithmeticDomainError):
        reduction_rate(1.0, -0.5)


def test_reduction_rate_scale_invariant():
    rng = random.Random(6)
    for _ in range(50):
        a = rng.uniform(0.01, 100)
        b = rng.uniform(0.0, 100)
        c = rng.uniform(0.01, 50)
        assert reduction_rate(c * a, c * b) == pytest.approx(reduction_rate(a, b))


def test_mean_rate_count_sweep():
    rates = [row[2] for row in COUNT_SWEEP]
    assert round_percent(mean_rate(rates)) == pytest.approx(67.38, abs=0.01)


def test_mean_rate_support_sweep():
    rates = [row[2] for row in SUPPORT_SWEEP]
    assert round_percent(mean_rate(rates)) == pytest.approx(68.39, abs=0.01)


def test_mean_rate_single_element():
    assert mean_rate([42.5]) == 42.5


def test_mean_rate_empty():
    with pytest.raises(ArithmeticDomainError):
        mean_rate([])


def test_round_percent_half_away_from_zero():
    assert round_percent(67.376) == 67.38
    assert round_percent(0.005) == 0.01
    assert round_percent(-0.005) == -0.01
    assert round_percent(61.884999) == 61.88


def test_a_rate_that_rounds_to_zero_prints_without_a_sign():
    assert format_percent(-0.004) == "0.00%"
    assert format_percent(-0.005) == "-0.01%"


# --- ScanLedger ---------------------------------------------------------------


def test_ledger_totals_and_levels():
    ledger = ScanLedger({2: 25, 1: 45})
    assert list(ledger.per_level.items()) == [(1, 45), (2, 25)]
    assert ledger.level(2) == 25
    assert ledger.level(9) == 0
    assert ledger.total == 70


def test_ledger_entries_only_increase():
    with pytest.raises(ConfigurationError, match="entry"):
        ScanLedger({1: -1})
    with pytest.raises(ConfigurationError, match="level"):
        ScanLedger({0: 5})


def test_ledger_equality():
    assert ScanLedger({1: 3}) == ScanLedger({1: 3})
    assert ScanLedger({1: 3}) != ScanLedger({1: 4})


def test_ledger_holds_plain_ints_from_numpy_integers():
    ledger = ScanLedger({1: np.int64(3)})
    assert [type(n) for n in (*ledger.per_level, ledger.total)] == [int, int]
    report = _report([_run("classic", ledger), _run("improved", ledger)])
    variants = json.loads(render_report(report, "machine"))["variants"]
    assert variants[0]["per_level_scans"] == {"1": 3}


@pytest.mark.parametrize(
    "per_level", [{True: 3}, {1: 2.5}, {1: True}], ids=["bool-level", "float-entry", "bool-entry"]
)
def test_ledger_refuses_what_is_not_an_integer(per_level):
    with pytest.raises(ConfigurationError):
        ScanLedger(per_level)


# --- timing -------------------------------------------------------------------


def test_median_seconds_returns_result_and_time():
    calls = []
    result, wall = median_seconds(lambda: calls.append(1) or 7, repetitions=3)
    assert result == 7
    assert len(calls) == 3
    assert wall >= 0


def test_median_seconds_zero_reps_untimed():
    result, wall = median_seconds(lambda: "x", repetitions=0)
    assert result == "x"
    assert wall is None


def test_median_seconds_refuses_negative_repetitions():
    calls = []
    with pytest.raises(ConfigurationError):
        median_seconds(lambda: calls.append(1), repetitions=-1)
    assert calls == []


@pytest.mark.parametrize("repetitions", [True, 2.5, "3", None])
def test_median_seconds_refuses_repetitions_that_are_not_an_integer(repetitions):
    # True timed one run; 2.5 and "3" raised a bare TypeError from `range`
    # or `<`.
    calls = []
    with pytest.raises(ConfigurationError, match="repetitions"):
        median_seconds(lambda: calls.append(1), repetitions)
    assert calls == []
    assert median_seconds(lambda: calls.append(1), np.int64(2))[1] >= 0
    assert len(calls) == 2


def test_run_timing_validation():
    # A time that is not finite would render as NaN or Infinity, not JSON; a
    # bool would render as true.
    for wall in (-0.1, float("nan"), float("inf"), float("-inf"), True, "1", 10**400):
        with pytest.raises(ConfigurationError):
            VariantRun("classic", ScanLedger(), wall)
        with pytest.raises(ConfigurationError, match="wall_seconds"):
            _report([_run("classic", wall=wall), _run("improved")])


def test_run_timing_is_held_as_a_plain_float():
    run = VariantRun("classic", ScanLedger(GOLDEN_CLASSIC), np.float32(0.5))
    assert type(run.wall_seconds) is float
    report = _report([_run("classic", wall=np.float32(0.5)), _run("improved", wall=0.25)])
    assert type(report.run("classic").wall_seconds) is float
    assert json.loads(render_report(report, "machine"))["variants"][0]["wall_seconds"] == 0.5


# --- ComparisonReport and rendering --------------------------------------------

GOLDEN_CLASSIC = {1: 45, 2: 54, 3: 36}
GOLDEN_IMPROVED = {1: 45, 2: 25, 3: 14}
GOLDEN_LEDGERS = {"classic": GOLDEN_CLASSIC, "improved": GOLDEN_IMPROVED}


def _run(variant, ledger=None, wall=None, min_support=3, count=3, strategy="combinations"):
    """A `(MiningResult, wall_seconds)` pair of `variant`, as `median_seconds`
    returns it: a hand-built result with no itemsets and, unless `ledger` is
    given, the golden ledger of its variant."""
    ledger = ScanLedger(GOLDEN_LEDGERS[variant]) if ledger is None else ledger
    return MiningResult({}, ledger, min_support, count, variant, strategy), wall


def _report(runs):
    return ComparisonReport("golden.txt", runs)


def _golden_report(classic_wall=None, improved_wall=None):
    return _report([_run("classic", wall=classic_wall), _run("improved", wall=improved_wall)])


def test_human_report_has_sum_row():
    text = render_report(_golden_report(), "human")
    lines = text.splitlines()
    (sum_line,) = [ln for ln in lines if ln.startswith("sum")]
    assert "135" in sum_line and "84" in sum_line
    assert any("1-itemset" in ln and "45" in ln for ln in lines)
    assert "scan reduction rate: 37.78%" in text


def test_identical_runs_reduce_zero():
    report = _report(
        [_run("classic", wall=1.5), _run("improved", ScanLedger(GOLDEN_CLASSIC), 1.5)]
    )
    assert report.reduction_rate_percent == 0.0
    assert report.scan_reduction_percent == 0.0
    assert "time reduction rate: 0.00%" in render_report(report, "human")


def test_render_deterministic():
    for fmt in ("human", "machine"):
        assert render_report(_golden_report(), fmt) == render_report(
            _golden_report(), fmt
        )


def test_machine_report_round_trips_numbers():
    report = _golden_report(classic_wall=0.123456789, improved_wall=0.0456789)
    payload = json.loads(render_report(report, "machine"))
    assert payload["schema_version"] == 2
    assert payload["command"] == "compare"
    assert payload["dataset"] == "golden.txt"
    assert payload["min_support"] == 3
    assert payload["candidate_strategy"] == "combinations"
    classic, improved = payload["variants"]
    assert classic["variant"] == "classic"
    assert classic["per_level_scans"] == {"1": 45, "2": 54, "3": 36}
    assert classic["total_scans"] == 135
    assert classic["wall_seconds"] == 0.123456789  # exact float round-trip
    assert improved["total_scans"] == 84
    assert payload["reduction_rate_percent"] == report.reduction_rate_percent
    assert payload["scan_reduction_percent"] == report.scan_reduction_percent


def test_machine_report_untimed_is_null():
    payload = json.loads(render_report(_golden_report(), "machine"))
    assert payload["variants"][0]["wall_seconds"] is None
    assert payload["reduction_rate_percent"] is None
    assert payload["scan_reduction_percent"] == pytest.approx(
        reduction_rate(135, 84)
    )


@pytest.mark.parametrize("format", FORMATS)
@pytest.mark.parametrize("plain,scalar", [(3, np.int64(3)), (0.3, np.float64(0.3))])
def test_numpy_scalar_thresholds_give_the_same_reports(golden_db, format, plain, scalar):
    want, got = run_apriori(golden_db, plain), run_apriori(golden_db, scalar)
    assert got == want and type(got.min_support) is type(plain)
    assert "".join(mine_report(golden_db, "golden", got, format)) == "".join(
        mine_report(golden_db, "golden", want, format)
    )
    found = generate_rules(got, np.float64(0.6))
    assert found == generate_rules(want, 0.6) and type(found.min_confidence) is float
    assert "".join(rules_report(golden_db, "golden", found, format)) == "".join(
        rules_report(golden_db, "golden", generate_rules(want, 0.6), format)
    )


def test_hand_built_report_with_a_numpy_count_renders_plain():
    report = _report([_run(v, min_support=np.int64(3)) for v in VARIANTS])
    assert type(report.min_support) is int
    assert json.loads(render_report(report, "machine"))["min_support"] == 3
    for format in FORMATS:
        assert render_report(report, format) == render_report(_golden_report(), format)


@pytest.mark.parametrize("format", FORMATS)
def test_hand_built_report_holds_a_plain_support_count(format):
    report = _report([_run(v, count=np.int64(3)) for v in VARIANTS])
    assert type(report.min_support_count) is int
    assert render_report(report, format) == render_report(_golden_report(), format)


@pytest.mark.parametrize("format", FORMATS)
def test_hand_built_mining_result_with_numpy_numbers_renders_plain(golden_db, format):
    want = run_apriori(golden_db, 3)
    levels = {k: {s: np.int64(n) for s, n in level.items()} for k, level in want.levels.items()}
    got = MiningResult(levels, want.ledger, 3, np.int64(3), "improved", "join")
    assert got == want
    assert {type(got.min_support_count)} | {type(n) for _, n in got.frequent()} == {int}
    assert "".join(mine_report(golden_db, "golden", got, format)) == "".join(
        mine_report(golden_db, "golden", want, format)
    )
    # The supports a rule reads come from the result, kept plain.
    assert "".join(rules_report(golden_db, "golden", generate_rules(got, 0.6), format)) == "".join(
        rules_report(golden_db, "golden", generate_rules(want, 0.6), format)
    )


@pytest.mark.parametrize("count", [True, 2.5, 0, "3", None])
def test_records_refuse_a_support_count_that_is_not_a_plain_count(golden_db, count):
    result = run_apriori(golden_db, 3)
    with pytest.raises(ConfigurationError, match="min_support_count"):
        MiningResult(result.levels, result.ledger, 3, count, "improved", "join")


@pytest.mark.parametrize("bad", [np.float32(0.6), True, Fraction(1, 3), "0.5", 0, 1.5])
@pytest.mark.parametrize("format", FORMATS)
def test_rules_report_refuses_a_confidence_that_is_not_a_plain_fraction(golden_db, format, bad):
    # A report reads its min_confidence from its table, whose constructor is
    # where the threshold is checked, so no report can be made with it.
    result = run_apriori(golden_db, 3)
    with pytest.raises(ConfigurationError, match="min_confidence"):
        "".join(rules_report(golden_db, "golden", generate_rules(result, bad), format))


@pytest.mark.parametrize("one", [1, np.int64(1)])
@pytest.mark.parametrize("format", FORMATS)
def test_an_integral_confidence_of_one_reports_as_a_float(golden_db, format, one):
    # As `--min-confidence 1` does: the header or member reads 1.0, not 1.
    result = run_apriori(golden_db, 3)
    found = generate_rules(result, one)
    assert found == generate_rules(result, 1.0) and found.min_confidence == 1.0
    assert "".join(rules_report(golden_db, "golden", found, format)) == "".join(
        rules_report(golden_db, "golden", generate_rules(result, 1.0), format)
    )


@pytest.mark.parametrize("format", FORMATS)
def test_reports_refuse_item_ids_outside_the_database(format):
    # Indexing the token table raised a bare IndexError for 7. A negative id,
    # which printed the last token, is refused by MiningResult itself. Each
    # report refuses at its first chunk: every kind wrote part of itself
    # first, and human `rules` printed an id that no rule names.
    db = TransactionDb([(0,), (0, 1), (1,)], ["A", "B"])
    for item in (7, 2):
        result = MiningResult({1: {(item,): 2}}, ScanLedger(), 2, 2, "improved", "join")
        outside = f"item id {item} is outside the database's 2 items"
        with pytest.raises(ContractViolationError, match=outside):
            next(mine_report(db, "x", result, format))
        # The table has no rules, so no rule names the id.
        table = generate_rules(result, 0.5)
        assert len(table) == 0
        with pytest.raises(ContractViolationError, match=f"item id {item} "):
            next(rules_report(db, "x", table, format))
    levels = {1: {(0,): 2, (2,): 2}, 2: {(0, 2): 1}}
    result = MiningResult(levels, ScanLedger(), 1, 1, "improved", "join")
    with pytest.raises(ContractViolationError, match="item id 2 "):
        next(rules_report(db, "x", generate_rules(result, 0.5), format))


@pytest.mark.parametrize("output", ["human", "machine", "text"])
def test_a_database_refuses_a_token_that_is_not_a_string(output):
    # Machine `mine` printed `"items": [1]` and `null` where the schema has
    # strings; human `mine` and `to_text` raised a bare TypeError.
    for tokens, index in (([1, None], 0), (["A", None], 1)):
        with pytest.raises(ConfigurationError, match=f"token {index} is not a string"):
            db = TransactionDb([(0, 1), (0,)], tokens)
            if output == "text":
                db.to_text()
            else:
                "".join(mine_report(db, "x", run_apriori(db, 1), output))


@pytest.mark.parametrize("format", FORMATS)
def test_rules_report_refuses_entries_that_are_not_rule_records(golden_db, format):
    # A plain tuple skips the record's checks: its numpy numbers printed as
    # `np.int64(4)`, which is not JSON. A list of records, a table's copy
    # among them, has no result or threshold to head the report with.
    table = generate_rules(run_apriori(golden_db, 3), 0.6)
    for found in ([*table, ((0,), (1,), np.int64(4), np.float64(0.5))], list(table)):
        with pytest.raises(ContractViolationError, match="RuleTable"):
            next(rules_report(golden_db, "golden", found, format))


@pytest.mark.parametrize("one_shot", [iter, lambda found: (rule for rule in found), set])
@pytest.mark.parametrize("format", FORMATS)
def test_rules_report_refuses_rules_that_are_not_a_sequence(golden_db, format, one_shot):
    # A record check once used up an iterator: machine `rules` then wrote
    # `"rules": \n  ]`, which is not JSON, and human `rules` raised a bare
    # TypeError from `len`. A set has no order to report in.
    found = one_shot(generate_rules(run_apriori(golden_db, 3), 0.6))
    with pytest.raises(ContractViolationError, match="RuleTable"):
        next(rules_report(golden_db, "golden", found, format))
    # A table without rules still reports its header and levels.
    empty = generate_rules(run_apriori(golden_db, 6), 0.6)
    assert len(empty) == 0 and "".join(rules_report(golden_db, "golden", empty, format))


def test_render_rejects_unknown_format(golden_db):
    with pytest.raises(ConfigurationError):
        render_report(_golden_report(), "yaml")
    result = run_apriori(golden_db, 3)
    for chunks in (
        mine_report(golden_db, "golden", result, "yaml"),
        rules_report(golden_db, "golden", generate_rules(result, 0.5), "yaml"),
        bench_report([_golden_report(1.0, 0.5)], 1, "yaml"),
    ):
        with pytest.raises(ConfigurationError):
            next(chunks)


@pytest.mark.parametrize("format", ["human", "machine"])
@pytest.mark.parametrize(
    "reports",
    [
        [],
        [_golden_report()],
        [_golden_report(1.0, 0.5), _golden_report(1.0, None)],
    ],
    ids=["none", "untimed", "one-untimed"],
)
def test_bench_report_refuses_no_reports_or_an_untimed_run(reports, format):
    chunks = bench_report(reports, 1, format)
    with pytest.raises(ConfigurationError):
        next(chunks)


@pytest.mark.parametrize("format", FORMATS)
@pytest.mark.parametrize("repetitions", [True, 2.5, "3", 0, -1, None])
def test_bench_report_refuses_repetitions_that_are_not_a_count(repetitions, format):
    # Each was printed as given: `reps: True`, `"repetitions": true`.
    chunks = bench_report([_golden_report(1.0, 0.5)], repetitions, format)
    with pytest.raises(ConfigurationError, match="repetitions must be"):
        next(chunks)


def test_bench_report_prints_a_numpy_repetition_count_plain():
    text = "".join(bench_report([_golden_report(1.0, 0.5)], np.int64(2), "machine"))
    assert type(json.loads(text)["repetitions"]) is int
    assert "reps: 2\n" in "".join(bench_report([_golden_report(1.0, 0.5)], np.int64(2)))


def _timed_report(min_support=3, strategy="combinations", variants=VARIANTS):
    return _report([_run(v, None, 1.0, min_support, strategy=strategy) for v in variants])


@pytest.mark.parametrize("format", FORMATS)
@pytest.mark.parametrize(
    "first, second",
    [
        ({}, {"min_support": 7}),
        ({"min_support": 1}, {"min_support": 1.0}),
        ({}, {"strategy": "join"}),
        ({}, {"variants": ("improved", "classic")}),
    ],
    ids=["min_support", "count-or-fraction", "strategy", "variant-order"],
)
def test_bench_report_refuses_reports_unlike_the_first(first, second, format):
    # The header and the column titles come from the first report only.
    chunks = bench_report([_timed_report(**first), _timed_report(**second)], 1, format)
    with pytest.raises(ConfigurationError):
        next(chunks)


def test_report_renders_every_run_and_rates_by_name():
    # A third variant gets its own column and wall time; the rates still
    # compare `classic` with `improved`, wherever those runs sit in the list.
    report = _report(
        [
            _run("improved", wall=1.0),
            _run("bitset", ScanLedger({1: 45}), 0.5),
            _run("classic", wall=4.0),
        ]
    )
    assert report.run("classic").wall_seconds == 4.0
    assert report.reduction_rate_percent == 75.0
    assert report.scan_reduction_percent == reduction_rate(135, 84)
    assert report.levels() == [1, 2, 3]
    lines = render_report(report, "human").splitlines()
    assert lines[3].split() == ["level", "improved", "bitset", "classic"]
    assert lines[5].split() == ["2-itemset", "25", "0", "54"]
    assert "wall seconds: improved 1.000000, bitset 0.500000, classic 4.000000" in lines
    payload = json.loads(render_report(report, "machine"))
    assert [v["variant"] for v in payload["variants"]] == ["improved", "bitset", "classic"]


def test_report_needs_both_paper_variants_for_rates():
    with pytest.raises(ConfigurationError):
        _report([_run("classic")])
    with pytest.raises(ContractViolationError):
        _golden_report().run("bitset")


@pytest.mark.parametrize(
    "variants",
    [("improved",), ("classic", "improved", "classic"), ("classic", "bitset"), ()],
    ids=["no-classic", "classic-twice", "no-improved", "none"],
)
def test_report_refuses_runs_without_one_of_each_paper_variant(variants):
    runs = [_run(v, ScanLedger(GOLDEN_CLASSIC)) for v in variants]
    with pytest.raises(ConfigurationError):
        _report(runs)


@pytest.mark.parametrize(
    "first, other",
    [({"min_support": 1}, {"min_support": 1.0}), ({}, {"count": 4}), ({}, {"strategy": "join"})],
    ids=["count-or-fraction", "support-floor", "strategy"],
)
def test_report_refuses_runs_at_other_settings_than_the_first(first, other):
    # The report's header comes from the first run; repr tells the count 1
    # from the fraction 1.0.
    with pytest.raises(ContractViolationError, match="differ in min_support"):
        _report([_run("classic", **first), _run("improved", **other)])


def test_report_refuses_runs_that_find_other_itemsets():
    # The report keeps only ledgers and times, so a kernel that miscounts
    # must stop the report rather than pass unseen.
    runs = [
        (MiningResult({1: {(0,): n}}, ScanLedger(), 3, 3, variant, "join"), None)
        for variant, n in (("classic", 3), ("improved", 4))
    ]
    with pytest.raises(ContractViolationError, match="'improved' found other itemsets than"):
        _report(runs)


def test_report_refuses_runs_that_are_not_result_pairs():
    # Old run records raised a bare AttributeError, and a bare result a
    # bare TypeError when unpacked.
    old = [(VariantRun(v, ScanLedger(GOLDEN_LEDGERS[v]), 1.0), 1.0) for v in VARIANTS]
    with pytest.raises(ContractViolationError, match=r"run 0 .* got \['VariantRun', 'float'\]"):
        _report(old)
    with pytest.raises(ContractViolationError, match="run 1 .* got MiningResult"):
        _report([_run("classic"), _run("improved")[0]])


def test_report_takes_any_iterable_of_runs():
    # An iterator of pairs raised a bare TypeError from `runs[0]`.
    runs = [_run("classic", wall=2.0), _run("improved", wall=1.0)]
    for format in FORMATS:
        assert render_report(_report(iter(runs)), format) == render_report(_report(runs), format)


def test_report_keeps_the_runs_ledgers_and_times_not_their_results():
    report = _timed_report()
    assert [type(run) for run in report.runs] == [VariantRun, VariantRun]
    assert (report.min_support, report.min_support_count, report.candidate_strategy) == (
        3, 3, "combinations"
    )
    assert report.run("improved").ledger == ScanLedger(GOLDEN_IMPROVED)
