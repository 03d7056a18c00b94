import gc
import io
import random
from itertools import combinations, islice

import numpy as np
import pytest

from oracle import bruteforce_frequent, bruteforce_support, iset, random_db, tids
from tidmine import mining
from tidmine.dataset import GeneratorConfig, TransactionDb, generate_synthetic, load_transactions
from tidmine.errors import ConfigurationError, ContractViolationError, ResourceLimitError, plain_ids
from tidmine.lanes import LANE_ITEMS
from tidmine.mining import (
    L1Index,
    MiningResult,
    ScanLedger,
    compute_l1,
    count_support_full,
    count_support_restricted,
    generate_candidates_combinations,
    generate_candidates_join,
    resolve_min_support,
    run_apriori,
)
from tidmine.rules import AssociationRule

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
    # Level 1 is the one full pass, whatever the variant and strategy.
    for variant in mining.VARIANTS:
        for strategy in mining.CANDIDATE_STRATEGIES:
            ledger = run_apriori(golden_db, 3, variant, strategy).ledger
            assert ledger.level(1) == 45  # 9 transactions x 5 distinct items
    empty = load_transactions(io.StringIO(""))
    assert run_apriori(empty, 1).ledger.per_level == {1: 0}


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


@pytest.mark.parametrize("floor", [2.5, True, "3", None])
def test_l1_refuses_a_floor_that_is_not_a_count(golden_db, floor):
    # 2.5 filtered at 3 and True at 1; "3" and None raised a bare TypeError.
    with pytest.raises(ConfigurationError, match="min_support"):
        compute_l1(golden_db, floor)


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
    got = generate_candidates_join(_l2_for_join())
    # Brute-force check: a 3-set survives iff all its 2-subsets are in L2.
    prev = set(_l2_for_join())
    joined = {(0, 1, 2), (1, 2, 3)}
    surviving = {
        c for c in joined if all(s in prev for s in combinations(c, 2))
    }
    assert surviving == {(0, 1, 2)}  # (2,3) is missing, killing (1,2,3)
    assert got.candidates == ((0, 1, 2),)
    assert got.level == 3


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


@pytest.mark.parametrize(
    "prev",
    [
        [(1, 0), (2, 0), (2, 1)],  # unordered ids, which joined to nothing
        [(0.5,), (1.5,)],  # float ids
        [(-1,), (0,)],  # a negative id
        [("a",), ("b",)],  # strings
    ],
)
def test_join_refuses_itemsets_that_are_not_plain_ids(prev):
    # The one id rule, plain_ids, refuses each before the join runs.
    with pytest.raises(ContractViolationError, match="itemset to join"):
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
    l1 = L1Index(TransactionDb([(7,), (7,)], "ABCDEFGH"), 1)
    assert l1.items == (7,)
    assert generate_candidates_combinations(l1, 2).candidates == ()


def test_combinations_rejects_level_below_two(golden_db):
    l1 = compute_l1(golden_db, 3)
    # A float or string level raised a bare TypeError.
    for k in (1, 2.0, "3", True):
        with pytest.raises(ContractViolationError):
            generate_candidates_combinations(l1, k)


def test_combinations_budget(golden_db, monkeypatch):
    # C(200, 5) is about 2.5e9 tuples: building them would not finish.
    wide = L1Index(TransactionDb([(item,) for item in range(200)], map(str, range(200))), 1)
    with pytest.raises(ResourceLimitError, match=r"C\(200, 5\) = 2535650040"):
        generate_candidates_combinations(wide, 5)
    l1 = compute_l1(golden_db, 3)  # 4 items: C(4, 2) = 6
    monkeypatch.setattr(mining, "MAX_CANDIDATES", 6)
    assert len(generate_candidates_combinations(l1, 2)) == 6
    monkeypatch.setattr(mining, "MAX_CANDIDATES", 5)
    with pytest.raises(ResourceLimitError):
        generate_candidates_combinations(l1, 2)


def test_join_budget(golden_db, monkeypatch):
    # Level 3 of the golden pairs is joined in prefix groups (0,) and (1,),
    # of 3 and 1 candidates; a level that passes the budget stops the join.
    pairs = list(combinations(range(4), 2))
    monkeypatch.setattr(mining, "MAX_CANDIDATES", 4)
    assert len(generate_candidates_join(pairs)) == 4
    monkeypatch.setattr(mining, "MAX_CANDIDATES", 3)
    with pytest.raises(ResourceLimitError, match="join strategy .* level-3 .* min_support"):
        generate_candidates_join(pairs)
    l1 = compute_l1(golden_db, 3)
    with pytest.raises(ResourceLimitError, match="level-2"):  # 4 items: 6 pairs
        generate_candidates_join((item,) for item in l1.items)


def test_id_tuples_of_plain_ints_are_kept_not_copied():
    ids = (0, 2, 5)
    assert plain_ids(ids, "ids") is ids
    assert TransactionDb([ids], "ABCDEF").transactions[0] is ids
    l1 = L1Index(TransactionDb([ids, ids[1:]], "ABCDEF"), 1)
    assert l1.tids(2) == (0, 1) and l1.tids(2) is l1.tids(2)  # built once, read uncopied
    assert AssociationRule(ids, (6,), 1, 1.0).antecedent is ids
    # Anything else comes back as a new tuple of plain ints.
    for given in ([0, 2, 5], (np.int64(0), 2, 5), np.array([0, 2, 5]), iter([0, 2, 5])):
        got = plain_ids(given, "ids")
        assert got == ids and type(got) is tuple and {type(i) for i in got} == {int}
    got = plain_ids((False, True), "ids")
    assert got == (0, 1) and {type(i) for i in got} == {int}


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
        got = l1.min_support_item(iset(golden_db, pair))
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
        got = l1.min_support_item(iset(golden_db, triple))
        assert golden_db.lookup_token(got) == min_token


def test_min_item_tie_breaks_to_smaller_id():
    l1 = L1Index(TransactionDb([(3,), (3,), (5,), (0,), (5,)], "ABCDEF"), 2)  # equal supports
    assert l1.items == (3, 5)
    assert l1.min_support_item((3, 5)) == 3
    assert l1.min_support_item((5, 3)) == 3


@pytest.mark.parametrize(
    "given", [{0: (0, 1)}, [(0, 1), (1,)], None], ids=["mapping", "rows", "none"]
)
def test_l1_index_is_built_from_a_database_only(given):
    # The index makes its own TID lists, so no list from outside reaches it.
    with pytest.raises(ContractViolationError, match="TransactionDb"):
        L1Index(given, 1)


def test_l1_index_tids_are_tuples_of_plain_ints():
    db = TransactionDb([(0, 1), (1,), (0, 1)], "AB")
    l1 = L1Index(db, 1)
    assert (l1.tids(0), l1.tids(1), l1.num_transactions) == ((0, 2), (0, 1, 2), 3)
    for item in l1.items:
        assert type(l1.tids(item)) is tuple and {type(t) for t in l1.tids(item)} == {int}


def test_lane_pages_hold_no_reference_cycle():
    # A run's index, with its lanes and packed ints, is freed when the run
    # drops it, not at the next cyclic collection, so its TID lists never
    # outlive the run.
    db = generate_synthetic(GeneratorConfig(200, 20, 5, seed=2))
    gc.collect()
    gc.disable()
    try:
        l1 = compute_l1(db, 10)
        for cand in generate_candidates_combinations(l1, 2):
            assert count_support_full([cand], l1)[cand] == count_support_restricted(cand, l1)
        del l1
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_kernels_reject_items_without_a_lane_slot():
    # Item 2 is in one transaction, below the floor of 2, so it is not laid out.
    l1 = L1Index(TransactionDb([(0, 1), (1, 2), (0, 1)], "ABC"), 2)
    assert l1.items == (0, 1)
    with pytest.raises(ContractViolationError):
        count_support_full([(1, 2)], l1)
    with pytest.raises(ContractViolationError):
        count_support_restricted((1, 2), l1)  # item 2 has no TID list


def test_kernels_refuse_an_empty_or_mixed_size_candidate(golden_db):
    l1 = compute_l1(golden_db, 3)
    with pytest.raises(ContractViolationError):
        l1.min_support_item(())
    with pytest.raises(ContractViolationError):
        count_support_full([(0, 1), (0, 1, 2)], l1)


def test_min_item_missing_from_l1(golden_db):
    l1 = compute_l1(golden_db, 3)
    with pytest.raises(ContractViolationError):
        l1.min_support_item((golden_db.item_id("I5"),))


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
    counts = count_support_full(generate_candidates_combinations(l1, 2), l1)
    assert counts == {iset(golden_db, k): v for k, v in LEVEL2_SUPPORTS.items()}
    assert l1.examined == {2: 54}  # 6 candidates x 9 transactions


def test_full_count_level3_golden(golden_db):
    l1 = compute_l1(golden_db, 3)
    counts = count_support_full(generate_candidates_combinations(l1, 3), l1)
    assert counts == {iset(golden_db, k): v for k, v in LEVEL3_SUPPORTS.items()}
    assert l1.examined == {3: 36}  # 4 candidates x 9 transactions


def test_full_count_empty_candidates(golden_db):
    l1 = L1Index(golden_db, len(golden_db) + 1)
    assert len(l1) == 0
    assert count_support_full([], l1) == {}
    assert l1.examined == {}


def test_restricted_count_scans_min_item_tids(golden_db):
    l1 = compute_l1(golden_db, 3)
    support = count_support_restricted(iset(golden_db, "I1 I2"), l1)
    assert support == 4
    assert l1.examined == {2: 6}  # I1's six transactions only


def test_restricted_count_zero_support_row(golden_db):
    l1 = compute_l1(golden_db, 3)
    support = count_support_restricted(iset(golden_db, "I3 I4"), l1)
    assert support == 0
    assert l1.examined == {2: 3}  # I4's three transactions only


def test_examined_tally_is_exact_per_size_and_per_run(golden_db):
    l1 = compute_l1(golden_db, 3)
    assert l1.examined == {}
    item = golden_db.item_id("I4")
    pair = iset(golden_db, "I1 I2")
    assert l1.count_all([pair]) == {pair: 4}
    assert l1.count(iset(golden_db, "I1 I2 I4")) == 1
    assert l1.examined == {2: len(golden_db), 3: len(l1.tids(item))}
    # Each run builds its own index, so its ledger holds that run's tests only.
    for variant in mining.VARIANTS:
        for strategy in mining.CANDIDATE_STRATEGIES:
            first, second = (run_apriori(golden_db, 2, variant, strategy) for _ in range(2))
            assert first.ledger == second.ledger


def test_restricted_equals_full_randomized():
    rng = random.Random(31)
    for _ in range(30):
        db = random_db(rng)
        l1 = compute_l1(db, 1)
        for _ in range(10):
            size = rng.randint(1, min(3, db.num_items))
            cand = tuple(sorted(rng.sample(range(db.num_items), size)))
            full = count_support_full([cand], l1)[cand]
            assert count_support_restricted(cand, l1) == full
            assert full == bruteforce_support(db, cand)


def test_lane_caches_stay_with_their_database():
    # Each database's index keeps its own lanes and packed ints: counting
    # alternates between two live databases, then runs on fresh ones built
    # after the old ones are dropped, which may reuse their id() values.
    rng = random.Random(11)

    def check(db, l1):
        for _ in range(10):
            items = l1.items
            cand = tuple(sorted(rng.sample(items, rng.randint(1, min(3, len(items))))))
            want = bruteforce_support(db, cand)
            assert count_support_full([cand], l1) == {cand: want}
            assert count_support_restricted(cand, l1) == want

    live = [random_db(rng) for _ in range(2)]
    indexes = [compute_l1(db, 1) for db in live]
    for db, l1 in [*zip(live, indexes)] * 2:
        check(db, l1)
    del live, indexes, db, l1
    for _ in range(5):
        db = random_db(rng)
        check(db, compute_l1(db, 1))
        del db

    # Indexes that give item 0 different TID lists count apart, each on its
    # own lanes, however the calls alternate.
    rows = (((0, 1), (1,), (0, 1)), 2), (((1,), (0, 1), (1,)), 1)
    cases = [(L1Index(TransactionDb(txns, "AB"), 1), want) for txns, want in rows]
    for l1, want in cases * 2:
        before = l1.examined.get(2, 0)
        assert count_support_restricted((0, 1), l1) == want
        assert l1.examined == {2: before + len(l1.tids(0))}


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

    def counting_index(*args):
        built.append(L1Index(*args))
        return built[-1]

    monkeypatch.setattr(mining, "L1Index", counting_index)
    for variant in mining.VARIANTS:
        result = mining.run_apriori(db, 10, variant=variant)
        assert LANE_ITEMS < len(result.levels[1]) <= 70 and result.ledger.per_level[2]
    support = {item: n for (item,), n in result.levels[1].items()}
    assert len(built) == len(mining.VARIANTS)  # one per run
    for l1 in built:
        laid_out = list(l1._slot)
        assert set(laid_out) == set(support)
        assert [support[item] for item in laid_out] == sorted(support.values(), reverse=True)
        pages = [i // LANE_ITEMS for i in range(len(support))]
        assert [page for page, _ in l1._slot.values()] == pages
        assert len(l1._words) == pages[-1] + 1 >= 2


def test_a_run_builds_one_index_of_any_size(monkeypatch):
    # One L1Index, which lays out its own lanes, per run, whatever the
    # variant, the strategy and |L1|; with |L1| < 2 no candidate is counted.
    db = TransactionDb([(0, 1), (0, 2), (0, 1), (2,)], ["A", "B", "C"])
    built = []

    def counting_index(*args):
        built.append(L1Index(*args))
        return built[-1]

    monkeypatch.setattr(mining, "L1Index", counting_index)
    for variant in mining.VARIANTS:
        for strategy in mining.CANDIDATE_STRATEGIES:
            for support, size in ((5, 0), (3, 1)):  # L1 = {}, then {A}
                result = run_apriori(db, support, variant, strategy)
                assert result.max_level == size and list(result.ledger.per_level) == [1]
                assert len(built) == 1 and len(built[0]) == size
                built.clear()
            result = run_apriori(db, 2, variant, strategy)  # L1 = {A, B, C}
            assert result.levels[2] == {(0, 1): 2} and len(built) == 1
            built.clear()


@pytest.mark.parametrize("strategy", mining.CANDIDATE_STRATEGIES)
@pytest.mark.parametrize("variant", mining.VARIANTS)
def test_a_run_reads_the_transactions_once(variant, strategy):
    # The L1 pass is the only pass: the index lays out its lanes from its TID
    # lists.
    db = generate_synthetic(GeneratorConfig(300, 12, 5, seed=4))
    passes = []

    class Rows(tuple):
        def __iter__(self):
            passes.append(None)
            return super().__iter__()

    db.transactions = Rows(db.transactions)
    result = run_apriori(db, 0.05, variant, strategy)
    assert len(result.levels[1]) >= 2 and result.max_level >= 3
    assert len(passes) == 1


@pytest.mark.parametrize("variant", mining.VARIANTS)
def test_a_run_started_during_the_lane_pass_leaves_both_results_exact(variant):
    # The rows' only full pass is the outer run's L1 pass, which its lanes
    # are laid out from; halfway through it, a run at a lower support, with
    # more frequent items, mines the same database. Neither run may see the
    # other's index or lanes half built.
    db = generate_synthetic(GeneratorConfig(400, 100, 6, seed=1))
    alone = TransactionDb(db.transactions, db.tokens)
    want = {n: run_apriori(alone, n, variant).levels for n in (20, 8)}
    passes, inner = [], []

    class Rows(tuple):
        def __iter__(self):
            passes.append(None)
            rows = super().__iter__()
            if len(passes) == 1:
                yield from islice(rows, len(self) // 2)
                inner.append(run_apriori(db, 8, variant))
            yield from rows

    db.transactions = Rows(db.transactions)
    outer = run_apriori(db, 20, variant)
    assert len(inner) == 1 and len(passes) == 2
    assert len(outer.levels[1]) < len(inner[0].levels[1])
    assert outer.levels == want[20]
    assert inner[0].levels == want[8]


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


def test_resolve_takes_numpy_scalars():
    count = resolve_min_support(np.int64(3), 9)
    assert count == 3 and type(count) is int
    assert resolve_min_support(np.float64(0.3), 10) == 3
    for bad in (np.int64(0), np.float64(1.5), np.True_):
        with pytest.raises(ConfigurationError):
            resolve_min_support(bad, 10)


@pytest.mark.parametrize("bad", [0, -2, 0.0, -0.5, 1.5, True, "3"])
def test_resolve_rejects_bad_values(bad):
    with pytest.raises(ConfigurationError):
        resolve_min_support(bad, 10)


@pytest.mark.parametrize("given,plain", [(np.float64(0.3), 0.3), (np.int64(3), 3)])
def test_hand_built_mining_result_holds_a_plain_threshold(given, plain):
    result = MiningResult({1: {(0,): 3}}, ScanLedger(), given, 3, "improved", "join")
    assert result.min_support == plain and type(result.min_support) is type(plain)
    with pytest.raises(ConfigurationError):
        MiningResult({1: {(0,): 3}}, ScanLedger(), True, 3, "improved", "join")


@pytest.mark.parametrize(
    "levels",
    [{1: {(0,): 3}, 3: {(0, 1, 2): 3}}, {1: {(0,): 3}, 2: {}}],
    ids=["gap", "empty-level"],
)
def test_mining_result_refuses_levels_that_are_not_contiguous_or_empty(levels):
    with pytest.raises(ContractViolationError):
        MiningResult(levels, ScanLedger(), 3, 3, "improved", "join")


def test_mining_result_holds_plain_int_supports():
    plain, numpy_level = {(0,): 3, (1,): 4}, {(0, 1): np.int64(3)}
    result = MiningResult({1: plain, 2: numpy_level}, ScanLedger(), 3, 3, "improved", "join")
    assert result.levels[1] is plain  # a level of plain ints is kept, not copied
    assert result.levels[2] == {(0, 1): 3} and type(result.levels[2][(0, 1)]) is int


def test_mining_result_keeps_a_level_as_built_and_checks_its_keys():
    # A run's Level is kept uncopied; the level rules still hold for it.
    level = mining.Level({(0,): 3, (1,): 4})
    result = MiningResult({1: level}, ScanLedger(), 3, 3, "improved", "join")
    assert result.levels[1] is level
    for levels in ({1: level, 3: mining.Level({(0, 1, 2): 3})}, {1: level, 2: mining.Level()}):
        with pytest.raises(ContractViolationError, match="levels must"):
            MiningResult(levels, ScanLedger(), 3, 3, "improved", "join")


@pytest.mark.parametrize("strategy", mining.CANDIDATE_STRATEGIES)
@pytest.mark.parametrize("variant", mining.VARIANTS)
def test_a_result_holds_the_very_levels_its_run_built(variant, strategy, monkeypatch):
    # Every non-empty Level the run builds is its result's level, the same
    # object: neither the join nor MiningResult copies it.
    built = []

    class SpyLevel(mining.Level):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(mining, "Level", SpyLevel)
    db = generate_synthetic(GeneratorConfig(300, 12, 5, seed=4))
    result = run_apriori(db, 0.05, variant, strategy)
    kept = [level for level in built if level]
    assert result.max_level >= 3 and len(kept) == result.max_level == len(built) - 1
    assert all(result.levels[k] is level for k, level in enumerate(kept, start=1))


@pytest.mark.parametrize("itemset", [(1.0,), (-1,), (1, 0), (0, 0), ("a",), (None,)])
def test_mining_result_refuses_itemsets_that_are_not_id_tuples(itemset):
    # `mine_report` printed token B for (1.0,), and the last token for (-1,).
    with pytest.raises(ContractViolationError, match="itemset"):
        MiningResult({1: {(0,): 2}, 2: {itemset: 2}}, ScanLedger(), 2, 2, "improved", "join")


@pytest.mark.parametrize(
    "levels", [{1: {(0, 1): 2}}, {1: {(0,): 2, (1,): 2}, 2: {(0, 1): 2, (1,): 2}}]
)
def test_mining_result_refuses_an_itemset_of_another_size(levels):
    # `mine_report` printed the pair as the one entry of "L1: 1 itemsets".
    with pytest.raises(ContractViolationError, match="level .* another size"):
        MiningResult(levels, ScanLedger(), 2, 2, "improved", "join")


def test_mining_result_holds_plain_int_itemsets():
    level = {(np.int64(0),): 3, (True,): 3}
    result = MiningResult({np.int64(1): level}, ScanLedger(), 3, 3, "improved", "join")
    assert result.levels == {1: {(0,): 3, (1,): 3}} and {type(k) for k in result.levels} == {int}
    assert {type(item) for itemset in result.levels[1] for item in itemset} == {int}


@pytest.mark.parametrize("support", [True, np.True_, 3.0, "3", None])
def test_mining_result_refuses_a_support_that_is_not_an_integer(support):
    with pytest.raises(ConfigurationError, match=r"support of \(0,\)"):
        MiningResult({1: {(0,): support}}, ScanLedger(), 3, 3, "improved", "join")


@pytest.mark.parametrize(
    "levels",
    [{key: {(0,): 2}} for key in (True, np.True_, 1.0, np.float64(1.0))]
    + [{1: {(0,): 2}, "2": {(0, 1): 2}}],
)
def test_mining_result_refuses_a_level_key_that_is_not_an_integer(levels):
    # Machine `mine` printed `"k": True` for a `True` key, which is not JSON,
    # and the human form `LTrue: 1 itemsets`; a 1.0 key printed `L1.0`, and
    # a string key beside an int one raised a bare TypeError from `sorted`.
    with pytest.raises(ContractViolationError, match="level"):
        MiningResult(levels, ScanLedger({1: 4}), 2, 2, "improved", "join")


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
        run_apriori(golden_db, 3, candidate_strategy="join_unpruned")
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
            for s in ("join", "combinations")
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


def test_results_compare_by_field(golden_db):
    result = run_apriori(golden_db, 3)
    fields = (result.levels, result.ledger, 3, 3, "improved", "join")
    assert MiningResult(*fields) == result
    others = ({1: {(0,): 3}}, ScanLedger(), 0.5, 4, "classic", "combinations")
    for i, other in enumerate(others):
        assert MiningResult(*fields[:i], other, *fields[i + 1 :]) != result
    assert result != fields
