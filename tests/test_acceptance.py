"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion (add -s to also see the explicit PASS prints).
"""

import json
import random
import time
from dataclasses import dataclass

import pytest

from oracle import bruteforce_frequent, bruteforce_support, iset, random_db, tids
from tidmine.cli import main as cli_main
from tidmine.dataset import GeneratorConfig, generate_synthetic
from tidmine.metrics import mean_rate, reduction_rate, round_percent
from tidmine.mining import (
    CANDIDATE_STRATEGIES,
    VARIANTS,
    compute_l1,
    count_support_full,
    count_support_restricted,
    generate_candidates_combinations,
    generate_candidates_join,
    run_apriori,
)
from tidmine.rules import generate_rules

CORPUS_SIZE = 500


@dataclass(frozen=True)
class CorpusEntry:
    db: object
    min_support: int
    oracle: dict
    runs: dict  # (variant, strategy) -> MiningResult


@pytest.fixture(scope="module")
def corpus():
    started = time.perf_counter()
    rng = random.Random(0xA11CE)
    entries = []
    for _ in range(CORPUS_SIZE):
        db = random_db(rng, max_items=12, max_transactions=30)
        min_support = rng.randint(1, max(1, len(db) // 2))
        entries.append(
            CorpusEntry(
                db=db,
                min_support=min_support,
                oracle=bruteforce_frequent(db, min_support),
                runs={
                    (variant, strategy): run_apriori(
                        db, min_support, variant=variant, candidate_strategy=strategy
                    )
                    for variant in VARIANTS
                    for strategy in CANDIDATE_STRATEGIES
                },
            )
        )
    return entries, time.perf_counter() - started


def test_criterion_golden_itemsets(golden_db):
    started = time.perf_counter()
    improved = run_apriori(
        golden_db, 3, variant="improved", candidate_strategy="combinations"
    )
    classic = run_apriori(
        golden_db, 3, variant="classic", candidate_strategy="combinations"
    )
    elapsed = time.perf_counter() - started

    def by_tokens(result, k):
        return {golden_db.tokens_of(s): c for s, c in result.levels.get(k, {}).items()}

    expected_l1 = {("I1",): 6, ("I2",): 7, ("I3",): 5, ("I4",): 3}
    assert by_tokens(improved, 1) == expected_l1  # I5 excluded
    expected_l2 = {
        ("I1", "I2"): 4,
        ("I1", "I3"): 4,
        ("I2", "I3"): 3,
        ("I2", "I4"): 3,
    }
    got_l2 = {tuple(sorted(k)): v for k, v in by_tokens(improved, 2).items()}
    assert got_l2 == expected_l2
    assert improved.max_level == 2  # L3 entirely below threshold
    assert classic.levels == improved.levels

    # All candidate supports behind the frequent sets, via both counters.
    l1 = compute_l1(golden_db, 3)
    expected_c2 = {
        "I1 I2": 4, "I1 I3": 4, "I1 I4": 1, "I2 I3": 3, "I2 I4": 3, "I3 I4": 0,
    }
    expected_c3 = {"I1 I2 I3": 2, "I1 I2 I4": 1, "I1 I3 I4": 0, "I2 I3 I4": 0}
    for k, expected in ((2, expected_c2), (3, expected_c3)):
        candidates = generate_candidates_combinations(l1, k)
        full = count_support_full(candidates, l1)
        assert full == {iset(golden_db, key): v for key, v in expected.items()}
        for cand in candidates:
            assert count_support_restricted(cand, l1) == full[cand]
    assert all(v < 3 for v in expected_c3.values())

    assert elapsed < 1.0
    print("ACCEPTANCE golden_itemsets: PASS")


def test_criterion_golden_scan_ledger(golden_db):
    classic = run_apriori(
        golden_db, 3, variant="classic", candidate_strategy="combinations"
    )
    improved = run_apriori(
        golden_db, 3, variant="improved", candidate_strategy="combinations"
    )
    assert classic.ledger.per_level == {1: 45, 2: 54, 3: 36}
    assert classic.ledger.total == 135
    assert improved.ledger.per_level == {1: 45, 2: 25, 3: 14}
    assert improved.ledger.total == 84
    print("ACCEPTANCE golden_scan_ledger: PASS")


def test_criterion_min_item_and_tid_columns(golden_db):
    l1 = compute_l1(golden_db, 3)
    rows = {
        "I1 I2": ("I1", tids(1, 4, 5, 7, 8, 9)),
        "I1 I3": ("I3", tids(5, 6, 7, 8, 9)),
        "I1 I4": ("I4", tids(2, 3, 4)),
        "I2 I3": ("I3", tids(5, 6, 7, 8, 9)),
        "I2 I4": ("I4", tids(2, 3, 4)),
        "I3 I4": ("I4", tids(2, 3, 4)),
        "I1 I2 I3": ("I3", tids(5, 6, 7, 8, 9)),
        "I1 I2 I4": ("I4", tids(2, 3, 4)),
        "I1 I3 I4": ("I4", tids(2, 3, 4)),
        "I2 I3 I4": ("I4", tids(2, 3, 4)),
    }
    for itemset_tokens, (min_token, found_in) in rows.items():
        item = l1.min_support_item(iset(golden_db, itemset_tokens))
        assert golden_db.lookup_token(item) == min_token
        assert l1.tids(item) == found_in
    print("ACCEPTANCE min_item_and_tid_columns: PASS")


def test_criterion_evaluation_arithmetic():
    count_sweep = [
        (1.776, 0.677, 61.88),
        (8.221, 4.002, 51.32),
        (6.871, 2.304, 66.47),
        (11.940, 2.458, 79.41),
        (82.558, 18.331, 77.80),
    ]
    support_sweep = [
        (6.638, 1.056, 84.09),
        (1.855, 0.422, 77.25),
        (1.158, 0.330, 71.50),
        (0.424, 0.199, 53.07),
        (0.382, 0.168, 56.02),
    ]
    for original, improved, expected in count_sweep + support_sweep:
        got = round_percent(reduction_rate(original, improved))
        assert got == pytest.approx(expected, abs=0.01)
    assert round_percent(mean_rate([r for *_, r in count_sweep])) == pytest.approx(
        67.38, abs=0.01
    )
    assert round_percent(mean_rate([r for *_, r in support_sweep])) == pytest.approx(
        68.39, abs=0.01
    )
    print("ACCEPTANCE evaluation_arithmetic: PASS")


def test_criterion_oracle_equivalence(corpus):
    entries, build_seconds = corpus
    started = time.perf_counter()
    assert len(entries) >= 500
    for entry in entries:
        for result in entry.runs.values():
            assert dict(result.frequent()) == entry.oracle
    elapsed = build_seconds + (time.perf_counter() - started)
    assert elapsed < 60.0, f"corpus + checks took {elapsed:.1f}s"
    print(f"ACCEPTANCE oracle_equivalence: PASS ({elapsed:.1f}s)")


def test_criterion_scan_dominance(corpus):
    entries, _ = corpus
    for entry in entries:
        db, floor = entry.db, entry.min_support
        l1 = compute_l1(db, floor)
        for strategy in CANDIDATE_STRATEGIES:
            classic = entry.runs[("classic", strategy)].ledger
            improved = entry.runs[("improved", strategy)].ledger
            assert set(classic.per_level) == set(improved.per_level)
            levels = entry.runs[("classic", strategy)].levels
            for k in classic.per_level:
                if k < 2:
                    assert improved.level(k) == classic.level(k)
                    continue
                assert improved.level(k) <= classic.level(k)
                if strategy == "combinations":
                    candidates = generate_candidates_combinations(l1, k)
                else:
                    candidates = generate_candidates_join(levels[k - 1])
                some_restricted = any(
                    l1.support(l1.min_support_item(cand)) < len(db)
                    for cand in candidates
                )
                if some_restricted:
                    assert improved.level(k) < classic.level(k)
                else:
                    assert improved.level(k) == classic.level(k)
    print("ACCEPTANCE scan_dominance: PASS")


def test_criterion_rule_correctness(golden_db):
    epsilon = 1e-12
    rng = random.Random(0xBEEF)
    dbs = [golden_db] + [random_db(rng, max_items=8, max_transactions=20) for _ in range(40)]
    for db in dbs:
        floor = rng.randint(1, max(1, len(db) // 3))
        result = run_apriori(db, floor)
        rules = generate_rules(result, epsilon)
        per_itemset: dict = {}
        for rule in rules:
            per_itemset.setdefault(rule.itemset, []).append(rule)
            recount_full = bruteforce_support(db, rule.itemset)
            recount_antecedent = bruteforce_support(db, rule.antecedent)
            assert rule.support == recount_full
            assert rule.confidence == recount_full / recount_antecedent
        for itemset, _support in result.frequent():
            if len(itemset) >= 2:
                assert len(per_itemset[itemset]) == 2 ** len(itemset) - 2
    print("ACCEPTANCE rule_correctness: PASS")


def test_criterion_scan_proxy_on_skewed_data():
    db = generate_synthetic(GeneratorConfig(1000, 40, 6, seed=42))
    assert len(db) >= 1000
    classic = run_apriori(db, 0.05, variant="classic", candidate_strategy="join")
    improved = run_apriori(db, 0.05, variant="improved", candidate_strategy="join")
    assert classic.levels == improved.levels
    ratio = improved.ledger.total / classic.ledger.total
    assert ratio <= 0.60, f"improved/classic scan ratio {ratio:.3f} exceeds 0.60"
    print(f"ACCEPTANCE scan_proxy_on_skewed_data: PASS (ratio {ratio:.3f})")


def test_criterion_machine_output_determinism(golden_path, capsys):
    def run(*argv):
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        assert code == 0
        return out

    mine_args = (
        "mine",
        "--input", str(golden_path),
        "--min-support", "3",
        "--candidates", "combinations",
        "--format", "machine",
    )
    outputs = [run(*mine_args) for _ in range(3)]
    assert len(set(outputs)) == 1

    compare_args = (
        "compare",
        "--input", str(golden_path),
        "--min-support", "3",
        "--candidates", "combinations",
        "--format", "machine",
        "--reps", "0",
    )
    outputs = [run(*compare_args) for _ in range(3)]
    assert len(set(outputs)) == 1

    generated = (
        "mine",
        "--generate", "300,25,5",
        "--seed", "9",
        "--min-support", "0.1",
        "--format", "machine",
    )
    outputs = [run(*generated) for _ in range(3)]
    assert len(set(outputs)) == 1
    payload = json.loads(outputs[0])
    assert payload["num_transactions"] == 300
    print("ACCEPTANCE machine_output_determinism: PASS")
