import copy
import gc
import io
import pickle
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oracle import bruteforce_support, iset, random_db
from tidmine import rules as rules_module
from tidmine.dataset import GeneratorConfig, generate_synthetic, load_transactions
from tidmine.errors import ConfigurationError, ContractViolationError, ResourceLimitError
from tidmine.metrics import ScanLedger
from tidmine.mining import MiningResult, run_apriori
from tidmine.rules import AssociationRule, generate_rules

EPSILON = 1e-12


def test_three_itemset_yields_six_candidates():
    # One transaction repeated: {A,B,C} frequent with all subsets equal support.
    db = load_transactions(io.StringIO("A B C\nA B C\n"))
    result = run_apriori(db, 2)
    rules = generate_rules(result, EPSILON)
    three = [r for r in rules if len(r.itemset) == 3]
    assert len(three) == 6  # 2**3 - 2 non-trivial splits
    assert {(r.antecedent, r.consequent) for r in three} == {
        ((0,), (1, 2)),
        ((1,), (0, 2)),
        ((2,), (0, 1)),
        ((0, 1), (2,)),
        ((0, 2), (1,)),
        ((1, 2), (0,)),
    }


def test_epsilon_emits_all_candidates_randomized():
    rng = random.Random(44)
    for _ in range(15):
        db = random_db(rng, max_items=7, max_transactions=15)
        result = run_apriori(db, max(1, len(db) // 3))
        rules = generate_rules(result, EPSILON)
        expected = sum(
            2 ** len(itemset) - 2 for itemset, _ in result.frequent() if len(itemset) >= 2
        )
        assert len(rules) == expected


def test_confidence_exact_ratio(golden_db):
    result = run_apriori(golden_db, 3, candidate_strategy="combinations")
    rules = generate_rules(result, EPSILON)
    for rule in rules:
        support_a = bruteforce_support(golden_db, rule.antecedent)
        support_f = bruteforce_support(golden_db, rule.itemset)
        assert rule.support == support_f
        # Integer relation before any division.
        assert Fraction(rule.support, support_a) == Fraction(support_f, support_a)
        assert rule.confidence == support_f / support_a
        assert 0 < rule.confidence <= 1


def test_golden_rule_boundary(golden_db):
    # {I1,I2} has support 4, {I1} support 6: confidence 4/6.
    result = run_apriori(golden_db, 3, candidate_strategy="combinations")
    pair = iset(golden_db, "I1 I2")
    antecedent = iset(golden_db, "I1")

    def emitted(threshold):
        return any(
            r.antecedent == antecedent and r.itemset == pair
            for r in generate_rules(result, threshold)
        )

    assert emitted(0.66)
    assert not emitted(0.67)
    assert emitted(2 / 3)  # exact ratio comparison, no float misclassification


def test_exact_three_fifths_boundary(golden_db):
    # {I2,I3} support 3 over {I3} support 5 is exactly 0.6.
    result = run_apriori(golden_db, 3, candidate_strategy="combinations")
    rules = generate_rules(result, 0.6)
    assert any(
        golden_db.tokens_of(r.antecedent) == ("I3",)
        and golden_db.tokens_of(r.consequent) == ("I2",)
        for r in rules
    )


@pytest.mark.parametrize("tenths", [1, 3, 7])
def test_decimal_threshold_keeps_exact_boundary(tenths):
    # A => B holds in `tenths` of ten transactions: confidence exactly tenths/10.
    lines = ["A B"] * tenths + ["A"] * (10 - tenths)
    db = load_transactions(io.StringIO("\n".join(lines) + "\n"))
    result = run_apriori(db, 1)
    a_to_b = (iset(db, "A"), iset(db, "B"))

    def emitted(threshold):
        rules = generate_rules(result, threshold)
        return a_to_b in {(r.antecedent, r.consequent) for r in rules}

    assert emitted(tenths / 10)
    assert not emitted(tenths / 10 + 0.01)


def test_full_confidence_needs_equal_supports(golden_db):
    result = run_apriori(golden_db, 3, candidate_strategy="combinations")
    rules = generate_rules(result, 1.0)
    assert len(rules) == 1
    (rule,) = rules
    assert golden_db.tokens_of(rule.antecedent) == ("I4",)
    assert golden_db.tokens_of(rule.consequent) == ("I2",)
    assert rule.confidence == 1.0
    assert bruteforce_support(golden_db, rule.antecedent) == rule.support


def test_randomized_full_confidence_boundary():
    rng = random.Random(77)
    for _ in range(10):
        db = random_db(rng, max_items=6, max_transactions=12)
        result = run_apriori(db, max(1, len(db) // 3))
        for rule in generate_rules(result, 1.0):
            assert bruteforce_support(db, rule.antecedent) == rule.support


def test_rules_sorted_canonically(golden_db):
    result = run_apriori(golden_db, 3, candidate_strategy="combinations")
    rules = generate_rules(result, EPSILON)
    keys = [(len(r.itemset), r.itemset, r.antecedent) for r in rules]
    assert keys == sorted(keys)


def test_sides_disjoint_and_nonempty():
    rng = random.Random(3)
    for _ in range(10):
        db = random_db(rng, max_items=6, max_transactions=12)
        result = run_apriori(db, max(1, len(db) // 3))
        for rule in generate_rules(result, EPSILON):
            assert rule.antecedent and rule.consequent
            assert not set(rule.antecedent) & set(rule.consequent)


def test_min_confidence_validation(golden_db):
    result = run_apriori(golden_db, 3)
    for bad in (0.0, -0.1, 1.0001):
        with pytest.raises(ConfigurationError):
            generate_rules(result, bad)


@pytest.mark.parametrize("bad", [np.float32(0.6), True, Fraction(1, 3), "0.5"])
def test_min_confidence_must_be_a_plain_float(golden_db, bad):
    # float32 and Fraction are numbers, but not the decimal a float prints as.
    result = run_apriori(golden_db, 3)
    with pytest.raises(ConfigurationError, match="min_confidence"):
        generate_rules(result, bad)
    assert generate_rules(result, np.float64(0.6)) == generate_rules(result, 0.6)


def test_rule_invariants_enforced():
    with pytest.raises(ContractViolationError):
        AssociationRule((0,), (), 3, 1.0)
    with pytest.raises(ContractViolationError):
        AssociationRule((0,), (0, 1), 3, 1.0)
    with pytest.raises(ContractViolationError):
        AssociationRule((0,), (1,), 3, 1.5)
    with pytest.raises(ContractViolationError):
        AssociationRule((0.5,), (1,), 3, 1.0)  # float id
    with pytest.raises(ContractViolationError):
        AssociationRule((0,), "B", 3, 1.0)  # a token, not an id
    with pytest.raises(ContractViolationError):
        AssociationRule((1, 0), (2,), 3, 1.0)  # unordered side
    with pytest.raises(ContractViolationError):
        AssociationRule((-1,), (0,), 3, 1.0)  # negative id


@pytest.mark.parametrize(
    "support, confidence",
    [(np.int64(2), 0.5), (2, np.float64(0.5)), (np.int32(2), np.float32(0.5)), (2, Fraction(1, 2))],
)
def test_rule_holds_a_plain_support_and_confidence(support, confidence):
    rule = AssociationRule((0,), (1,), support, confidence)
    assert rule == ((0,), (1,), 2, 0.5)
    assert (type(rule.support), type(rule.confidence)) == (int, float)


@pytest.mark.parametrize(
    "support, confidence",
    [(True, 0.5), (2, True), (2.5, 0.5), (-3, 0.5), ("2", 0.5), (2, "0.5")],
    ids=["bool", "bool-confidence", "float", "negative", "str", "str-confidence"],
)
def test_rule_refuses_a_support_or_confidence_that_is_not_a_plain_number(support, confidence):
    with pytest.raises(ContractViolationError):
        AssociationRule((0,), (1,), support, confidence)


def test_missing_antecedent_violates_contract():
    # {0, 1} is frequent but its subset {1} is not: downward closure is broken.
    result = MiningResult(
        levels={1: {(0,): 3}, 2: {(0, 1): 2}},
        ledger=ScanLedger(),
        min_support=2,
        min_support_count=2,
        variant="improved",
        candidate_strategy="join",
    )
    with pytest.raises(ContractViolationError, match=r"antecedent \(1,\) missing"):
        generate_rules(result, EPSILON)


@pytest.mark.parametrize(
    "levels",
    [
        # Above both its items' supports: its rules read confidence 2.5.
        {1: {(0,): 2, (1,): 2}, 2: {(0, 1): 5}},
        # A support of 0: reading its rules divided by zero.
        {1: {(0,): 0, (1,): 0}, 2: {(0, 1): 0}},
        # Above one (k-1)-subset's only: (0, 2) -> (1,) read confidence 1.5.
        {1: {(0,): 4, (1,): 4, (2,): 4}, 2: {(0, 1): 3, (0, 2): 2, (1, 2): 3}, 3: {(0, 1, 2): 3}},
    ],
)
def test_support_outside_its_subsets_bound_violates_contract(levels):
    result = MiningResult(levels, ScanLedger(), 2, 2, "improved", "join")
    with pytest.raises(ContractViolationError, match="under 1 or over a subset's"):
        generate_rules(result, EPSILON)


@pytest.fixture(scope="module")
def many_rules_result():
    """The mining result of the `many-rules` benchmark input at 5% support."""
    return run_apriori(generate_synthetic(GeneratorConfig(500, 50, 8, seed=1)), 0.05)


def test_rule_confidence_is_support_over_antecedent_support(many_rules_result):
    # 87,240 rules over 2,144 distinct (support, antecedent support) pairs.
    found = generate_rules(many_rules_result, 0.5)
    supports = {itemset: support for itemset, support in many_rules_result.frequent()}
    pairs = {(r.support, supports[r.antecedent]) for r in found}
    assert (len(found), len(pairs)) == (87_240, 2_144)
    assert all(r.confidence == r.support / supports[r.antecedent] for r in found)


def test_a_rule_table_holds_about_twelve_bytes_a_rule(many_rules_result):
    # Three 4-byte indices a rule, about 14.6 bytes with the itemset and
    # support lists and the array's spare room; a list of records held 91.
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        found = generate_rules(many_rules_result, 0.5)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 20 * len(found)


def test_a_rule_table_is_an_immutable_sequence_of_records(golden_db):
    result = run_apriori(golden_db, 2)
    table = generate_rules(result, EPSILON)
    records = list(table)
    # The table keeps what its report's header reads.
    assert table.result is result and table.min_confidence == EPSILON
    assert len(table) == len(records) > 2
    assert list(table) == records and all(type(r) is AssociationRule for r in table)
    assert [table[i] for i in range(len(table))] == records
    assert [table[-i] for i in range(1, len(table) + 1)] == records[::-1]
    # Any integer index works, a bool or numpy's included.
    assert table[True] == records[1] and table[np.int64(-1)] == records[-1]
    for outside in (len(table), -len(table) - 1):
        with pytest.raises(IndexError):
            table[outside]
    for not_an_index in (1.0, "1", slice(1, 2)):
        with pytest.raises(TypeError):
            table[not_an_index]
    assert table == records and records == table and not table != records
    assert table == generate_rules(result, EPSILON) and table != records[:-1]
    assert table != generate_rules(result, 0.9) and generate_rules(result, 0.9) != table
    assert table != tuple(records) and tuple(records) != table
    with pytest.raises(TypeError):
        hash(table)
    with pytest.raises(AttributeError):
        table.rows = None


def test_rule_table_copies_are_lists_of_checked_records(golden_db):
    table = generate_rules(run_apriori(golden_db, 2), EPSILON)
    copies = [copy.copy(table), copy.deepcopy(table)]
    copies += [pickle.loads(pickle.dumps(table, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert type(twin) is list and twin == table
        assert all(type(rule) is AssociationRule for rule in twin)
    # Each record of the list unpickles through the record's constructor.
    tampered = pickle.dumps(table, 0).replace(b"F1.0\n", b"F1.5\n", 1)
    assert tampered != pickle.dumps(table, 0)
    with pytest.raises(ContractViolationError, match="confidence must lie in"):
        pickle.loads(tampered)


def test_rule_budget_keeps_exactly_the_budget(golden_db, monkeypatch):
    result = run_apriori(golden_db, 2)
    found = generate_rules(result, EPSILON)
    monkeypatch.setattr(rules_module, "MAX_RULES", len(found))
    assert generate_rules(result, EPSILON) == found
    monkeypatch.setattr(rules_module, "MAX_RULES", len(found) - 1)
    with pytest.raises(
        ResourceLimitError,
        match=f"budget of {len(found) - 1} rules; use a higher min_confidence or min_support",
    ):
        generate_rules(result, EPSILON)


def test_rule_budget_stops_after_the_itemset_that_passed_it(monkeypatch):
    # (0, 1) yields two rules and passes a budget of one; the next itemset of
    # the same level, (0, 3), breaks downward closure. Stopping right after
    # (0, 1) never reaches it, so the table never holds a whole level.
    result = MiningResult(
        levels={1: {(0,): 3, (1,): 3}, 2: {(0, 1): 2, (0, 3): 2}},
        ledger=ScanLedger(),
        min_support=2,
        min_support_count=2,
        variant="improved",
        candidate_strategy="join",
    )
    monkeypatch.setattr(rules_module, "MAX_RULES", 1)
    with pytest.raises(ResourceLimitError, match="budget of 1 rules"):
        generate_rules(result, EPSILON)


def test_rule_is_a_tuple_record():
    rule = AssociationRule((0,), (1, 2), 3, 0.75)
    antecedent, consequent, support, confidence = rule
    assert (antecedent, consequent, support, confidence) == ((0,), (1, 2), 3, 0.75)
    assert rule == ((0,), (1, 2), 3, 0.75) and hash(rule) == hash(((0,), (1, 2), 3, 0.75))
    assert (rule.antecedent, rule.consequent, rule.support, rule.confidence) == tuple(rule)
    assert rule.itemset == (0, 1, 2)
    match rule:
        case AssociationRule((0,), (1, 2), 3, 0.75):
            matched = True
        case _:
            matched = False
    assert matched
    assert repr(rule) == (
        "AssociationRule(antecedent=(0,), consequent=(1, 2), support=3, confidence=0.75)"
    )
    with pytest.raises(AttributeError):
        rule.support = 4


def test_rule_copies_go_through_the_checks():
    rule = AssociationRule((0,), (1, 2), 3, 0.75)
    # No method builds a changed record without the constructor.
    assert not any(hasattr(rule, name) for name in ("_make", "_replace", "__replace__"))
    copies = [copy.copy(rule), copy.deepcopy(rule)]
    copies += [pickle.loads(pickle.dumps(rule, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert type(twin) is AssociationRule and twin == rule
    # Every copy and unpickling path rebuilds through the checked constructor,
    # so a record altered on the way still raises.
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        rebuild, args = rule.__reduce_ex__(protocol)[:2]
        assert rebuild is AssociationRule and args == tuple(rule)
    tampered = pickle.dumps(rule, 0).replace(b"F0.75\n", b"F1.5\n")
    with pytest.raises(ContractViolationError, match="confidence must lie in"):
        pickle.loads(tampered)
