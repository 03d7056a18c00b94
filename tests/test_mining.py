import io
import random
from itertools import combinations

import pytest

from oracle import bruteforce_frequent, bruteforce_support, iset, random_db, tids
from tidmine import mining
from tidmine.dataset import TransactionDb, load_transactions
from tidmine.errors import ConfigurationError, ContractViolationError, ResourceLimitError
from tidmine.lanes import LanePages
from tidmine.metrics import ScanLedger
from tidmine.mining import (
    CandidateSet,
    L1Index,
    compute_l1,
    count_support_full,
    count_support_restricted,
    generate_candidates_combinations,
    generate_candidates_join,
    min_support_item,
    resolve_min_support,
    run_apriori,
)

# --- compute_l1 -------------------------------------------------------------


def test_l1_supports_and_tid_lists_golden(golden_db):
    l1 = compute_l1(golden_db, 3)
    expected = {
        "I1": (6, tids(1, 4, 5, 7, 8, 9)),
        "I2": (7, tids(1, 2, 3, 4, 6, 8, 9)),
        "I3": (5, tids(5, 6, 7, 8, 9)),
        "I4": (3, tids(2, 3, 4)),
    }
    assert len(l1) == 4
    for token, (support, tid_list) in expected.items():
        item = golden_db.item_id(token)
        assert l1.support(item) == support
        assert l1.tids(item) == tid_list
    assert golden_db.item_id("I5") not in l1


def test_l1_ledger_accounting(golden_db):
    ledger = ScanLedger()
    compute_l1(golden_db, 3, ledger)
    assert ledger.per_level == {1: 45}  # 9 transactions x 5 distinct items


def test_l1_empty_db():
    db = load_transactions(io.StringIO(""))
    assert len(compute_l1(db, 1)) == 0


def test_l1_threshold_at_db_size(golden_db):
    l1 = compute_l1(golden_db, len(golden_db))
    assert len(l1) == 0  # no item appears in all 9 transactions


def test_l1_min_support_one_keeps_everything(golden_db):
    l1 = compute_l1(golden_db, 1)
    assert len(l1) == golden_db.num_items


def test_l1_rejects_min_support_below_one(golden_db):
    with pytest.raises(ConfigurationError):
        compute_l1(golden_db, 0)


def test_l1_tid_fidelity_random():
    rng = random.Random(5)
    for _ in range(20):
        db = random_db(rng)
        l1 = compute_l1(db, 1)
        for item in l1.items:
            expected = tuple(t for t, txn in enumerate(db.transactions) if item in txn)
            assert l1.tids(item) == expected
            assert l1.support(item) == len(expected)


# --- candidate generation ---------------------------------------------------


def _l2_for_join():
    # Token space A<B<C<D: {(A,B),(A,C),(B,C),(B,D)}
    return [(0, 1), (0, 2), (1, 2), (1, 3)]


def test_join_pruned():
    got = generate_candidates_join(_l2_for_join(), prune=True)
    # Brute-force check: a 3-set survives iff all its 2-subsets are in L2.
    prev = set(_l2_for_join())
    joined = {(0, 1, 2), (1, 2, 3)}
    surviving = {
        c for c in joined if all(s in prev for s in combinations(c, 2))
    }
    assert surviving == {(0, 1, 2)}  # (2,3) is missing, killing (1,2,3)
    assert got.candidates == ((0, 1, 2),)
    assert got.level == 3


def test_join_unpruned():
    got = generate_candidates_join(_l2_for_join(), prune=False)
    assert got.candidates == ((0, 1, 2), (1, 2, 3))


def test_join_empty_prev():
    assert generate_candidates_join([]).candidates == ()


def test_join_from_singletons_gives_all_pairs():
    got = generate_candidates_join([(0,), (1,), (2,)])
    assert got.candidates == ((0, 1), (0, 2), (1, 2))
    assert got.level == 2


def test_join_rejects_mixed_sizes():
    for prev in ([(0, 1), (2,)], [()]):
        with pytest.raises(ContractViolationError):
            generate_candidates_join(prev)


def test_combinations_level3_golden(golden_db):
    l1 = compute_l1(golden_db, 3)
    got = generate_candidates_combinations(l1, 3)
    expected = {
        iset(golden_db, "I1 I2 I3"),
        iset(golden_db, "I1 I2 I4"),
        iset(golden_db, "I1 I3 I4"),
        iset(golden_db, "I2 I3 I4"),
    }
    assert set(got.candidates) == expected
    assert len(got) == 4


def test_combinations_level2_golden(golden_db):
    l1 = compute_l1(golden_db, 3)
    got = generate_candidates_combinations(l1, 2)
    assert len(got) == 6
    assert set(got.candidates) == {
        iset(golden_db, pair)
        for pair in ("I1 I2", "I1 I3", "I1 I4", "I2 I3", "I2 I4", "I3 I4")
    }


def test_combinations_not_enough_items():
    l1 = L1Index({7: (0, 1)})
    assert generate_candidates_combinations(l1, 2).candidates == ()


def test_combinations_rejects_level_below_two(golden_db):
    with pytest.raises(ContractViolationError):
        generate_candidates_combinations(compute_l1(golden_db, 3), 1)


def test_combinations_budget(golden_db, monkeypatch):
    # C(200, 5) is about 2.5e9 tuples: building them would not finish.
    wide = L1Index({item: (item,) for item in range(200)})
    with pytest.raises(ResourceLimitError, match=r"C\(200, 5\) = 2535650040"):
        generate_candidates_combinations(wide, 5)
    l1 = compute_l1(golden_db, 3)  # 4 items: C(4, 2) = 6
    monkeypatch.setattr(mining, "MAX_CANDIDATES", 6)
    assert len(generate_candidates_combinations(l1, 2)) == 6
    monkeypatch.setattr(mining, "MAX_CANDIDATES", 5)
    with pytest.raises(ResourceLimitError):
        generate_candidates_combinations(l1, 2)


def test_candidate_set_validates():
    with pytest.raises(ContractViolationError):
        CandidateSet(2, ((0, 1), (0,)))  # size mismatch
    with pytest.raises(ContractViolationError):
        CandidateSet(2, ((0, 1), (0, 1)))  # duplicate
    with pytest.raises(ContractViolationError):
        CandidateSet(2, ((1, 0),))  # not canonical


# --- min-support item and target TIDs ---------------------------------------


def test_min_item_level2_rows_golden(golden_db):
    l1 = compute_l1(golden_db, 3)
    rows = {
        "I1 I2": "I1",
        "I1 I3": "I3",
        "I1 I4": "I4",
        "I2 I3": "I3",
        "I2 I4": "I4",
        "I3 I4": "I4",
    }
    for pair, min_token in rows.items():
        got = min_support_item(iset(golden_db, pair), l1)
        assert golden_db.lookup_token(got) == min_token


def test_min_item_level3_rows_golden(golden_db):
    l1 = compute_l1(golden_db, 3)
    rows = {
        "I1 I2 I3": "I3",
        "I1 I2 I4": "I4",
        "I1 I3 I4": "I4",
        "I2 I3 I4": "I4",
    }
    for triple, min_token in rows.items():
        got = min_support_item(iset(golden_db, triple), l1)
        assert golden_db.lookup_token(got) == min_token


def test_min_item_tie_breaks_to_smaller_id():
    l1 = L1Index({3: (0, 1), 5: (2, 4)})  # equal supports
    assert min_support_item((3, 5), l1) == 3
    assert min_support_item((5, 3), l1) == 3


def test_l1_index_rejects_negative_tids():
    with pytest.raises(ContractViolationError):
        L1Index({0: (-1, 0), 1: (-1, 0, 1, 2)})


def test_projection_rejects_tids_past_the_database():
    db = TransactionDb([(0,), (0, 1), (1,)], ["A", "B"])
    l1 = L1Index({0: (0, 1), 1: (1, 2, 3)})
    with pytest.raises(ContractViolationError):
        l1.projection(1, db.lane_pages)
    assert count_support_restricted((0, 1), db, l1) == 1  # item 0's list fits
    with pytest.raises(ContractViolationError):
        count_support_restricted((1,), db, l1)


def test_min_item_missing_from_l1(golden_db):
    l1 = compute_l1(golden_db, 3)
    with pytest.raises(ContractViolationError):
        min_support_item((golden_db.item_id("I5"),), l1)


def test_l1_tids_missing_item(golden_db):
    l1 = compute_l1(golden_db, 3)
    with pytest.raises(ContractViolationError):
        l1.tids(golden_db.item_id("I5"))


# --- support counting -------------------------------------------------------

LEVEL2_SUPPORTS = {
    "I1 I2": 4,
    "I1 I3": 4,
    "I1 I4": 1,
    "I2 I3": 3,
    "I2 I4": 3,
    "I3 I4": 0,
}

LEVEL3_SUPPORTS = {
    "I1 I2 I3": 2,
    "I1 I2 I4": 1,
    "I1 I3 I4": 0,
    "I2 I3 I4": 0,
}


def test_full_count_level2_golden(golden_db):
    l1 = compute_l1(golden_db, 3)
    ledger = ScanLedger()
    counts = count_support_full(generate_candidates_combinations(l1, 2), golden_db, ledger)
    assert counts == {iset(golden_db, k): v for k, v in LEVEL2_SUPPORTS.items()}
    assert ledger.per_level == {2: 54}  # 6 candidates x 9 transactions


def test_full_count_level3_golden(golden_db):
    l1 = compute_l1(golden_db, 3)
    ledger = ScanLedger()
    counts = count_support_full(generate_candidates_combinations(l1, 3), golden_db, ledger)
    assert counts == {iset(golden_db, k): v for k, v in LEVEL3_SUPPORTS.items()}
    assert ledger.per_level == {3: 36}  # 4 candidates x 9 transactions


def test_full_count_empty_candidates(golden_db):
    ledger = ScanLedger()
    assert count_support_full([], golden_db, ledger) == {}
    assert ledger.total == 0


def test_restricted_count_scans_min_item_tids(golden_db):
    l1 = compute_l1(golden_db, 3)
    ledger = ScanLedger()
    support = count_support_restricted(iset(golden_db, "I1 I2"), golden_db, l1, ledger)
    assert support == 4
    assert ledger.per_level == {2: 6}  # I1's six transactions only


def test_restricted_count_zero_support_row(golden_db):
    l1 = compute_l1(golden_db, 3)
    ledger = ScanLedger()
    support = count_support_restricted(iset(golden_db, "I3 I4"), golden_db, l1, ledger)
    assert support == 0
    assert ledger.per_level == {2: 3}  # I4's three transactions only


def test_restricted_equals_full_randomized():
    rng = random.Random(31)
    for _ in range(30):
        db = random_db(rng)
        l1 = compute_l1(db, 1)
        for _ in range(10):
            size = rng.randint(1, min(3, db.num_items))
            cand = tuple(sorted(rng.sample(range(db.num_items), size)))
            full = count_support_full([cand], db)[cand]
            assert count_support_restricted(cand, db, l1) == full
            assert full == bruteforce_support(db, cand)


def test_lane_caches_stay_with_their_database():
    # Each database and index keeps its own lanes: counting alternates
    # between two live databases, then runs on fresh ones built after the
    # old ones are dropped, which may reuse their id() values.
    rng = random.Random(11)

    def check(db, l1):
        for _ in range(10):
            cand = tuple(sorted(rng.sample(l1.items, rng.randint(1, min(3, len(l1))))))
            want = bruteforce_support(db, cand)
            assert count_support_full([cand], db) == {cand: want}
            assert count_support_restricted(cand, db, l1) == want

    live = [random_db(rng) for _ in range(2)]
    indexes = [compute_l1(db, 1) for db in live]
    for db, l1 in [*zip(live, indexes), *zip(live, indexes)]:
        check(db, l1)
    del live, indexes, db, l1
    for _ in range(5):
        db = random_db(rng)
        l1 = compute_l1(db, 1)
        check(db, l1)
        del db, l1

    # One index shared by two databases gathers each one's own lanes.
    shared = L1Index({0: (0, 1, 2), 1: (0, 1, 2)})
    for rows, want in (([(0, 1), (0,), (0, 1)], 2), ([(0,), (0, 1), (0,)], 1)):
        db = TransactionDb(rows, ["A", "B"])
        assert count_support_restricted((0, 1), db, shared) == want


def test_counting_builds_only_the_pages_of_frequent_items(monkeypatch):
    # 70 common items and 330 that each occur once: every candidate holds
    # frequent items only, so only those are laid out, by descending support.
    rng = random.Random(3)
    rare = iter(range(70, 400))
    rows = [rng.sample(range(70), 6) for _ in range(330)]
    for row in rows:
        row.append(next(rare))
    db = TransactionDb([sorted(row) for row in rows], [f"R{i}" for i in range(400)])
    built = []
    build = LanePages._build

    def counting_build(self, items):
        built.append(list(items))
        build(self, items)

    monkeypatch.setattr(LanePages, "_build", counting_build)

    assert count_support_full([], db) == {}
    assert built == []
    for variant in mining.VARIANTS:
        result = mining.run_apriori(db, 10, variant=variant)
        assert 63 < len(result.levels[1]) <= 70 and result.ledger.per_level[2]
    slot = db.lane_pages._slot
    support = {item: n for (item,), n in result.levels[1].items()}
    assert set(slot) == set(support)
    assert [support[item] for item in slot] == sorted(support.values(), reverse=True)
    assert [page for page, _ in slot.values()] == [0] * 63 + [1] * (len(slot) - 63)
    assert len(db.lane_pages._words) == 2
    assert built == [list(slot)]  # in one pass, then reused


def test_restricted_over_any_member_matches_full(golden_db):
    # Counting an itemset only inside any member's TID list is exact.
    l1 = compute_l1(golden_db, 1)
    for cand in [iset(golden_db, "I1 I2 I3"), iset(golden_db, "I2 I5")]:
        full = bruteforce_support(golden_db, cand)
        for member in cand:
            restricted = sum(
                1
                for tid in l1.tids(member)
                if set(cand).issubset(golden_db.transactions[tid])
            )
            assert restricted == full


# --- min_support resolution -------------------------------------------------


@pytest.mark.parametrize(
    "fraction,n,expected",
    [
        (0.1, 30, 3),  # exact decimal: never rounds up to 4
        (0.02, 555, 12),  # ceil(11.1)
        (0.5, 9, 5),  # ceil(4.5)
        (1.0, 9, 9),
        (0.05, 1000, 50),
        (0.3, 10, 3),
    ],
)
def test_resolve_fraction(fraction, n, expected):
    assert resolve_min_support(fraction, n) == expected


def test_resolve_absolute_passthrough():
    assert resolve_min_support(3, 9) == 3
    assert resolve_min_support(1, 0) == 1


@pytest.mark.parametrize("bad", [0, -2, 0.0, -0.5, 1.5, True, "3"])
def test_resolve_rejects_bad_values(bad):
    with pytest.raises(ConfigurationError):
        resolve_min_support(bad, 10)


# --- run_apriori ------------------------------------------------------------

GOLDEN_L2 = {"I1 I2": 4, "I1 I3": 4, "I2 I3": 3, "I2 I4": 3}


def _level_tokens(db, result, k):
    return {" ".join(db.tokens_of(s)): c for s, c in result.levels.get(k, {}).items()}


def test_run_improved_combinations_golden(golden_db):
    result = run_apriori(
        golden_db, 3, variant="improved", candidate_strategy="combinations"
    )
    assert _level_tokens(golden_db, result, 1) == {"I1": 6, "I2": 7, "I3": 5, "I4": 3}
    assert _level_tokens(golden_db, result, 2) == GOLDEN_L2
    assert result.max_level == 2  # every 3-itemset is below threshold
    assert result.ledger.per_level == {1: 45, 2: 25, 3: 14}
    assert result.ledger.total == 84


def test_run_classic_combinations_golden(golden_db):
    result = run_apriori(
        golden_db, 3, variant="classic", candidate_strategy="combinations"
    )
    assert _level_tokens(golden_db, result, 2) == GOLDEN_L2
    assert result.ledger.per_level == {1: 45, 2: 54, 3: 36}
    assert result.ledger.total == 135


def test_run_join_same_itemsets_on_golden(golden_db):
    for variant in ("classic", "improved"):
        result = run_apriori(golden_db, 3, variant=variant, candidate_strategy="join")
        assert _level_tokens(golden_db, result, 2) == GOLDEN_L2
        assert result.max_level == 2


def test_single_transaction_min_support_one():
    db = load_transactions(io.StringIO("A B\n"))
    for variant in ("classic", "improved"):
        result = run_apriori(db, 1, variant=variant)
        assert _level_tokens(db, result, 1) == {"A": 1, "B": 1}
        assert _level_tokens(db, result, 2) == {"A B": 1}
        assert result.total_frequent == 3


def test_empty_db_mines_nothing():
    db = load_transactions(io.StringIO(""))
    result = run_apriori(db, 1)
    assert result.levels == {}
    assert result.total_frequent == 0
    assert result.ledger.total == 0


def test_fractional_min_support_run(golden_db):
    # 0.34 of 9 transactions ceils to 4, dropping the support-3 pairs.
    result = run_apriori(golden_db, 0.34, candidate_strategy="combinations")
    assert result.min_support_count == 4
    assert _level_tokens(golden_db, result, 2) == {"I1 I2": 4, "I1 I3": 4}


def test_run_rejects_bad_config(golden_db):
    with pytest.raises(ConfigurationError):
        run_apriori(golden_db, 3, variant="bogus")
    with pytest.raises(ConfigurationError):
        run_apriori(golden_db, 3, candidate_strategy="bogus")
    with pytest.raises(ConfigurationError):
        run_apriori(golden_db, 0)


def test_variants_and_strategies_agree_randomized():
    rng = random.Random(99)
    for _ in range(40):
        db = random_db(rng, max_items=8, max_transactions=20)
        min_support = rng.randint(1, max(1, len(db) // 2))
        results = [
            run_apriori(db, min_support, variant=v, candidate_strategy=s)
            for v in ("classic", "improved")
            for s in ("join", "join_unpruned", "combinations")
        ]
        baseline = results[0].levels
        assert all(r.levels == baseline for r in results[1:])


def test_oracle_agreement_small():
    rng = random.Random(123)
    for _ in range(25):
        db = random_db(rng, max_items=8, max_transactions=20)
        min_support = rng.randint(1, max(1, len(db) // 2))
        expected = bruteforce_frequent(db, min_support)
        mined = dict(run_apriori(db, min_support).frequent())
        assert mined == expected


def test_anti_monotonicity_of_results():
    rng = random.Random(17)
    for _ in range(15):
        db = random_db(rng, max_items=8, max_transactions=20)
        min_support = rng.randint(1, max(1, len(db) // 3))
        result = run_apriori(db, min_support)
        for itemset, support in result.frequent():
            for size in range(1, len(itemset)):
                for sub in combinations(itemset, size):
                    assert bruteforce_support(db, sub) >= support


def test_downward_closure_within_levels():
    rng = random.Random(71)
    for _ in range(15):
        db = random_db(rng, max_items=8, max_transactions=20)
        result = run_apriori(db, max(1, len(db) // 4))
        for k in result.levels:
            if k == 1:
                continue
            for itemset in result.levels[k]:
                for sub in combinations(itemset, k - 1):
                    assert sub in result.levels[k - 1]


def test_levels_contiguous():
    rng = random.Random(57)
    for _ in range(15):
        db = random_db(rng)
        result = run_apriori(db, rng.randint(1, max(1, len(db) // 2)))
        assert sorted(result.levels) == list(range(1, result.max_level + 1))


def test_scan_dominance_randomized():
    rng = random.Random(202)
    for _ in range(25):
        db = random_db(rng)
        min_support = rng.randint(1, max(1, len(db) // 2))
        classic = run_apriori(db, min_support, variant="classic")
        improved = run_apriori(db, min_support, variant="improved")
        assert classic.ledger.level(1) == improved.ledger.level(1)
        for k in classic.ledger.per_level:
            if k >= 2:
                assert improved.ledger.level(k) <= classic.ledger.level(k)


def test_result_support_lookup(golden_db):
    result = run_apriori(golden_db, 3, candidate_strategy="combinations")
    assert result.support_of(iset(golden_db, "I1 I2")) == 4
    assert result.support_of(iset(golden_db, "I3 I4")) is None
