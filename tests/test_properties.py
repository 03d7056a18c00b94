"""Property tests: every variant and strategy against the brute-force oracle.

Hypothesis drives the `random.Random` that `oracle.random_db` draws from, so
a failing corpus shrinks toward a small one.
"""

import contextlib
import io
import json
import math
import random
from decimal import ROUND_HALF_UP, Context, Decimal
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import bruteforce_frequent, bruteforce_support, random_db, reference_synthetic
from tidmine import cli, metrics, mining
from tidmine.dataset import GeneratorConfig, TransactionDb, generate_synthetic, load_transactions
from tidmine.errors import ContractViolationError, decimal_ratio
from tidmine.lanes import LANE_ITEMS
from tidmine.mining import (
    CANDIDATE_STRATEGIES,
    VARIANTS,
    L1Index,
    compute_l1,
    count_support_full,
    count_support_restricted,
    generate_candidates_join,
    resolve_min_support,
    run_apriori,
)
from tidmine.rules import AssociationRule, generate_rules

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None)


def _bruteforce_rules(frequent, min_confidence):
    """Every rule A => F minus A over the oracle's itemsets, as plain tuples."""
    threshold = Fraction(str(min_confidence))
    keyed = []
    for itemset, support in frequent.items():
        for size in range(1, len(itemset)):
            for antecedent in combinations(itemset, size):
                a_support = frequent[antecedent]
                if Fraction(support, a_support) >= threshold:
                    consequent = tuple(i for i in itemset if i not in antecedent)
                    rule = (antecedent, consequent, support, support / a_support)
                    keyed.append(((len(itemset), itemset, antecedent), rule))
    return [rule for _, rule in sorted(keyed)]


def _expected_candidates(strategy, frequent, k):
    """Level-k candidates from the oracle's frequent itemsets, by definition."""
    prev = sorted(s for s in frequent if len(s) == k - 1)
    if strategy == "combinations":
        items = sorted(s[0] for s in frequent if len(s) == 1)
        return list(combinations(items, k))
    joined = [
        left + (right[-1],)
        for i, left in enumerate(prev)
        for right in prev[i + 1 :]
        if left[:-1] == right[:-1]
    ]
    prev_set = set(prev)
    return [c for c in joined if all(s in prev_set for s in combinations(c, k - 1))]


@PROPERTY_SETTINGS
@given(
    rng=st.randoms(use_true_random=False),
    variant=st.sampled_from(VARIANTS),
    strategy=st.sampled_from(CANDIDATE_STRATEGIES),
    data=st.data(),
)
def test_run_matches_oracle_and_ledger(rng, variant, strategy, data):
    db = random_db(rng)
    min_support = data.draw(st.integers(1, max(1, len(db))), label="min_support")
    result = run_apriori(db, min_support, variant=variant, candidate_strategy=strategy)
    expected = bruteforce_frequent(db, min_support)
    assert dict(result.frequent()) == expected

    single = {item: bruteforce_support(db, (item,)) for item in range(db.num_items)}
    ledger = {1: len(db) * db.num_items}
    for k in range(2, result.max_level + 2):
        cands = _expected_candidates(strategy, expected, k)
        if not cands:
            continue
        if variant == "classic":
            ledger[k] = len(cands) * len(db)
        else:
            # The min-support member's TID list is as long as its support.
            ledger[k] = sum(min(single[item] for item in cand) for cand in cands)
    assert result.ledger.per_level == ledger


@PROPERTY_SETTINGS
@given(
    rng=st.randoms(use_true_random=False),
    variant=st.sampled_from(VARIANTS),
    strategy=st.sampled_from(CANDIDATE_STRATEGIES),
    data=st.data(),
)
def test_every_candidate_level_is_canonical_and_complete(rng, variant, strategy, data):
    # CandidateSet stores the generators' candidates unchecked, so the
    # generators are held here to its invariant on every level a run asks for.
    db = random_db(rng)
    min_support = data.draw(st.integers(1, max(1, len(db))), label="min_support")
    built = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("generate_candidates_join", "generate_candidates_combinations"):

            def spy(*args, generate=getattr(mining, name)):
                built.append(generate(*args))
                return built[-1]

            patch.setattr(mining, name, spy)
        result = run_apriori(db, min_support, variant=variant, candidate_strategy=strategy)
    expected = bruteforce_frequent(db, min_support)
    assert len(built) == result.max_level
    for k, got in enumerate(built, start=2):
        assert got.level == k
        cands = list(got)
        for cand in cands:
            assert type(cand) is tuple and len(cand) == k
            assert all(type(i) is int for i in cand) and 0 <= cand[0]
            assert all(a < b for a, b in zip(cand, cand[1:]))
        assert all(a < b for a, b in zip(cands, cands[1:]))
        assert cands == _expected_candidates(strategy, expected, k)


@PROPERTY_SETTINGS
@given(
    num_transactions=st.integers(1, 40),
    num_items=st.integers(1, 30),
    fill=st.floats(0.0, 1.0),
    seed=st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
)
@example(num_transactions=1, num_items=1, fill=0.0, seed=0)
@example(num_transactions=1, num_items=12, fill=1.0, seed=2**64 - 1)
@example(num_transactions=30, num_items=12, fill=1.0, seed=0)
def test_generator_matches_one_choice_call_per_row(num_transactions, num_items, fill, seed):
    # A mean length near num_items makes most rows repeat an item in their
    # first round, so the sampler draws again against re-weighted items.
    config = GeneratorConfig(num_transactions, num_items, 1.0 + fill * (num_items - 1), seed)
    db, want = generate_synthetic(config), reference_synthetic(config)
    assert db.to_text() == want.to_text()
    assert db.tokens == want.tokens


@pytest.mark.parametrize("config", [(40, 30, 5, 1), (30, 12, 12, 0), (1, 1, 1, 2**64 - 1)])
def test_generated_rows_pass_every_check(config):
    # generate_synthetic's Rows are taken as built; rebuilt as a plain list,
    # they go through every check of TransactionDb and come out equal.
    db = generate_synthetic(GeneratorConfig(*config))
    assert db == TransactionDb(list(db.transactions), db.tokens)


_TOKENS = st.sampled_from(["A", "B", "C", "I10", "é", "x.y"])


@PROPERTY_SETTINGS
@given(
    lines=st.lists(st.lists(_TOKENS, max_size=6), max_size=12),
    comma=st.booleans(),
    crlf=st.booleans(),
    bom=st.booleans(),
    data=st.data(),
)
def test_loaded_rows_pass_every_check(tmp_path_factory, lines, comma, crlf, bom, data):
    # The loader's Rows are taken as built; rebuilt as a plain list, they go
    # through every check of TransactionDb and come out equal. Lines may be
    # blank or repeat a token, and end in CRLF; the file may start with a BOM.
    seps = [",", ", ", " ,", ",,"] if comma else [" ", "\t", "  "]
    text = "".join(
        data.draw(st.sampled_from(seps)).join(parts) + ("\r\n" if crlf else "\n")
        for parts in lines
    )
    path = tmp_path_factory.getbasetemp() / "rows.txt"
    path.write_bytes(b"\xef\xbb\xbf" * bom + text.encode("utf-8"))
    db = load_transactions(path, "comma" if comma else "whitespace")
    assert db == TransactionDb(list(db.transactions), db.tokens)
    tokens = list(dict.fromkeys(token for parts in lines for token in parts))
    assert db.tokens == tuple(tokens)
    assert db.transactions == tuple(
        tuple(sorted({tokens.index(token) for token in parts})) for parts in lines if parts
    )


# The exact decimals below were computed with `fractions` and `decimal`; the
# package now does it in integers, and these hold it to the old results.


@PROPERTY_SETTINGS
@given(x=st.floats(allow_nan=False, allow_infinity=False))
@example(x=1e16)
@example(x=-1e16)
@example(x=5e-324)
@example(x=-2.2250738585072e-308)
@example(x=1.7976931348623157e308)
@example(x=-0.0)
@example(x=0.1)
def test_decimal_ratio_is_the_fraction_of_repr(x):
    want = Fraction(repr(x))
    assert decimal_ratio(x) == (want.numerator, want.denominator)


def _decimal_round_percent(x):
    """round_percent as `decimal` computed it. From about 1e26 on, the default
    28-digit context raised InvalidOperation, so there it takes enough digits
    for any float."""
    context = Context(prec=400) if abs(x) >= 1e25 else None
    return float(Decimal(repr(x)).quantize(Decimal("0.01"), ROUND_HALF_UP, context)) or 0.0


@PROPERTY_SETTINGS
@given(
    x=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-1e6, 1e6),
        # x.xx5 ties, each exactly the decimal it prints as
        st.integers(-(10**9), 10**9).map(lambda n: (10 * n + 5) / 1000),
    )
)
@example(x=0.005)
@example(x=-0.005)
@example(x=1.005)
@example(x=2.675)
@example(x=-2.675)
@example(x=67.375)
@example(x=-0.004)
@example(x=1e26)
def test_round_percent_matches_decimal_rounding(x):
    # repr tells -0.0 from 0.0: a rate that rounds to zero prints unsigned.
    assert repr(metrics.round_percent(x)) == repr(_decimal_round_percent(x))


@PROPERTY_SETTINGS
@given(
    fraction=st.one_of(
        st.floats(0.0, 1.0, exclude_min=True),
        st.integers(1, 10**6).map(lambda k: k / 10**6),
        st.integers(1, 100).map(lambda k: k / 100),
    ),
    n=st.integers(0, 10**9),
)
@example(fraction=0.07, n=100)
@example(fraction=0.1, n=30)
@example(fraction=5e-324, n=10**9)
@example(fraction=1.0, n=10**9)
def test_resolve_min_support_is_the_exact_decimal_ceiling(fraction, n):
    want = max(1, math.ceil(Fraction(repr(fraction)) * n))
    assert resolve_min_support(fraction, n) == want


@PROPERTY_SETTINGS
@given(size=st.integers(1, 7), data=st.data())
def test_join_matches_definition(size, data):
    # Arbitrary levels, not downward-closed, passed shuffled and twice over,
    # over 8 sparse ids: some past one 64-bit word, some past 10,000. The
    # same level as a run builds it, a canonical `Level`, joins to the same.
    ids = data.draw(
        st.lists(
            st.integers(0, 70) | st.integers(64, 200) | st.integers(10_000, 10_100),
            min_size=8,
            max_size=8,
            unique=True,
        ),
        label="ids",
    )
    pool = list(combinations(sorted(ids), size))
    prev = data.draw(st.lists(st.sampled_from(pool), min_size=1), label="prev")
    shuffled = data.draw(st.permutations(prev * 2), label="shuffled")
    want = tuple(_expected_candidates("join", {s: 1 for s in prev}, size + 1))
    for given in (shuffled, mining.Level((s, 1) for s in sorted(set(prev)))):
        got = generate_candidates_join(given)
        assert got.candidates == want
        assert got.level == size + 1


@PROPERTY_SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_counting_kernels_match_bruteforce(rng):
    db = random_db(rng)
    l1 = compute_l1(db, 1)
    for _ in range(10):
        cand = tuple(sorted(rng.sample(range(db.num_items), rng.randint(1, db.num_items))))
        want = bruteforce_support(db, cand)
        assert count_support_full([cand], l1) == {cand: want}
        assert count_support_restricted(cand, l1) == want


def _db_holding_every_item(rng, num_items, max_rows, density, unused=0):
    """Up to `max_rows` transactions, each item of `range(num_items)` in each
    with probability `density` and in at least one, interned with `unused`
    more ids that no transaction holds."""
    txns = [
        {item for item in range(num_items) if rng.random() < density} or {rng.randrange(num_items)}
        for _ in range(rng.randint(1, max_rows))
    ]
    for item in sorted(set(range(num_items)).difference(*txns)):
        rng.choice(txns).add(item)
    return TransactionDb(map(sorted, txns), [f"X{i}" for i in range(num_items + unused)])


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32),
    num_items=st.sampled_from([LANE_ITEMS * n for n in (1, 2, 3, 28)])
    | st.integers(LANE_ITEMS + 1, 200),
    unused=st.integers(0, 3),
)
def test_counting_kernels_across_lane_pages(seed, num_items, unused):
    # Up to 200 items on lane pages of LANE_ITEMS items, laid out by
    # descending support before anything is counted; every one of them is in
    # some transaction, so sizes that fill their last page exactly, drawn
    # often, fill it in the index too. `unused` interned ids are in no
    # transaction, so the index leaves them out and the kernels refuse them.
    # A seeded Random draws the thousands of values a corpus this wide needs
    # much faster than a Hypothesis-driven one.
    rng = random.Random(seed)
    db = _db_holding_every_item(rng, num_items, 40, rng.uniform(0.3, 0.95), unused)
    l1 = L1Index(db, 1)
    assert len(l1) == num_items
    order = l1.by_support
    pages = [order[start : start + LANE_ITEMS] for start in range(0, len(order), LANE_ITEMS)]
    cands = [tuple(sorted(order[LANE_ITEMS - 1 : LANE_ITEMS + 2]))]
    for _ in range(10):
        chosen = set()
        for page in rng.sample(pages, rng.randint(1, len(pages))):
            chosen.update(rng.sample(page, rng.randint(1, min(2, len(page)))))
        cands.append(tuple(sorted(chosen)))
    for cand in cands:
        want = bruteforce_support(db, cand)
        assert l1.count(cand) == want
        assert count_support_full([cand], l1) == {cand: want}
        tally = dict(l1.examined)
        assert count_support_restricted(cand, l1) == want
        tally[len(cand)] += l1.support(l1.min_support_item(cand))
        assert l1.examined == tally
    for item in range(num_items, db.num_items + 2):
        assert item not in l1
        with pytest.raises(ContractViolationError):
            count_support_full([(item,)], l1)
        with pytest.raises(ContractViolationError):
            count_support_restricted((item,), l1)


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32), num_items=st.integers(LANE_ITEMS + 2, 3 * LANE_ITEMS))
def test_kernels_count_shuffled_levels(seed, num_items):
    # The full kernel tests each head, every item but the last, once per run
    # of candidates next to each other that share it. Each level is shuffled,
    # and two candidates of one head stand at its two ends, with candidates of
    # other heads between them. Each level also holds a candidate whose items
    # share the first lane page and, at size 3, one whose head spans the
    # first two pages.
    rng = random.Random(seed)
    db = _db_holding_every_item(rng, num_items, 30, rng.uniform(0.3, 0.9))
    l1 = L1Index(db, 1)
    first, second = l1.by_support[:LANE_ITEMS], l1.by_support[LANE_ITEMS:]
    for size in (1, 2, 3):
        pool = list(combinations(range(num_items), size))
        cands = {*rng.sample(pool, min(40, len(pool))), tuple(sorted(first[:size]))}
        if size == 3:
            cands.add((*sorted((min(first), min(second))), num_items - 1))
        head = tuple(range(size - 1))
        ends = [(*head, size - 1), (*head, num_items - 1)]
        cands = sorted(cands - set(ends))
        rng.shuffle(cands)
        cands = [ends[0], *cands, ends[1]]
        want = {cand: bruteforce_support(db, cand) for cand in cands}
        before = dict(l1.examined)
        assert count_support_full(cands, l1) == want
        assert l1.examined == {**before, size: before.get(size, 0) + len(db) * len(cands)}
        before = dict(l1.examined)
        assert [count_support_restricted(cand, l1) for cand in cands] == list(want.values())
        restricted = sum(l1.support(l1.min_support_item(cand)) for cand in cands)
        assert l1.examined == {**before, size: before[size] + restricted}


@PROPERTY_SETTINGS
@given(
    rng=st.randoms(use_true_random=False),
    min_confidence=st.sampled_from([0.1, 0.3, 0.5, 0.7, 1.0]),
    data=st.data(),
)
def test_rules_match_oracle(rng, min_confidence, data):
    # An n-item transaction at support 1 yields about 3**n rules; 8 items
    # keep the worst corpus near six thousand.
    db = random_db(rng, max_items=8)
    min_support = data.draw(st.integers(1, max(1, len(db))), label="min_support")
    result = run_apriori(db, min_support)
    found = generate_rules(result, min_confidence)
    expected = _bruteforce_rules(bruteforce_frequent(db, min_support), min_confidence)
    got = [(r.antecedent, r.consequent, r.support, r.confidence) for r in found]
    assert got == expected
    # Records built without the constructor's checks would pass them, and
    # their sides are the tuples the mining result holds, not copies.
    held = {itemset: itemset for level in result.levels.values() for itemset in level}
    for rule in found:
        assert AssociationRule(*rule) == rule
        assert rule.antecedent is held[rule.antecedent]
        assert rule.consequent is held[rule.consequent]


def _reference_payload(result, db, label, command="mine"):
    """The `mine` report as a dict, the way it was built before the streaming
    writer; `json.dumps` of it is the reference for the writer's bytes."""
    return {
        "schema_version": metrics.REPORT_SCHEMA_VERSION,
        "command": command,
        "dataset": label,
        "num_transactions": len(db),
        "num_items": db.num_items,
        "min_support": result.min_support,
        "min_support_count": result.min_support_count,
        "variant": result.variant,
        "candidate_strategy": result.candidate_strategy,
        "levels": [
            {
                "k": k,
                "itemsets": [
                    {"items": list(db.tokens_of(itemset)), "support": support}
                    for itemset, support in result.levels[k].items()
                ],
            }
            for k in sorted(result.levels)
        ],
        "per_level_scans": {str(k): v for k, v in result.ledger.per_level.items()},
        "total_scans": result.ledger.total,
        "total_frequent_itemsets": result.total_frequent,
    }


def _reference_rules_payload(result, found, min_confidence, db, label):
    payload = _reference_payload(result, db, label, command="rules")
    payload["min_confidence"] = min_confidence
    payload["rules"] = [
        {
            "antecedent": list(db.tokens_of(rule.antecedent)),
            "consequent": list(db.tokens_of(rule.consequent)),
            "support": rule.support,
            "confidence": rule.confidence,
        }
        for rule in found
    ]
    return payload


def _reference_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _captured(chunks):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write(chunks)
    return out.getvalue()


# Tokens that JSON must escape: a quote, a backslash, non-ASCII and an emoji
# outside the Basic Multilingual Plane (written as a surrogate pair).
ESCAPED_TOKEN_FORMS = ('q"{}', "b\\{}", "\u00e9{}", "\U0001f600{}", "plain{}")


def _escaped_tokens(db):
    """`db` with every token replaced by one that needs JSON escaping."""
    tokens = [
        ESCAPED_TOKEN_FORMS[i % len(ESCAPED_TOKEN_FORMS)].format(i) for i in range(db.num_items)
    ]
    return TransactionDb(db.transactions, tokens)


def _machine_reports(db, min_support, min_confidence, variant, label="corpus \"1\""):
    """(writer, reference) text pairs of the `mine` and `rules` reports."""
    result = run_apriori(db, min_support, variant=variant)
    found = generate_rules(result, min_confidence)
    mine = (
        _captured(metrics.mine_report(db, label, result, "machine")),
        _reference_text(_reference_payload(result, db, label)),
    )
    rules = (
        _captured(metrics.rules_report(db, label, found, "machine")),
        _reference_text(_reference_rules_payload(result, found, min_confidence, db, label)),
    )
    # The report's header comes from the table, so every rule it lists was
    # kept at its min_confidence and split from one of its itemsets.
    payload = json.loads(rules[0])
    itemsets = {frozenset(s["items"]) for level in payload["levels"] for s in level["itemsets"]}
    for rule in payload["rules"]:
        assert rule["confidence"] >= payload["min_confidence"]
        assert frozenset(rule["antecedent"] + rule["consequent"]) in itemsets
    return mine, rules


@PROPERTY_SETTINGS
@given(
    rng=st.randoms(use_true_random=False),
    variant=st.sampled_from(VARIANTS),
    min_confidence=st.sampled_from([0.1, 0.5, 2 / 3, 1.0]),
    data=st.data(),
)
def test_machine_writer_matches_json_dumps(rng, variant, min_confidence, data):
    db = _escaped_tokens(random_db(rng, max_items=8))
    # One past the row count leaves no frequent itemset at all.
    min_support = data.draw(st.integers(1, len(db) + 1), label="min_support")
    for got, want in _machine_reports(db, min_support, min_confidence, variant):
        assert got == want


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize(
    "min_support, min_confidence, shows",
    [
        (10, 0.5, ['"levels": []', '"rules": []', '"per_level_scans": {\n    "1": 45\n  }']),
        (6, 0.5, ['"rules": []']),
        (3, 1.0, ['"confidence": 1.0,']),
        (2, 0.1, ['"\\ud83d\\ude00', '"\\u00e9', '"q\\"', '"b\\\\']),
    ],
)
def test_machine_writer_edge_cases(
    golden_db, monkeypatch, variant, min_support, min_confidence, shows
):
    # Two chunks per write, so every report takes several batches.
    monkeypatch.setattr(cli, "JSON_BATCH_CHUNKS", 2)
    db = _escaped_tokens(golden_db)
    mine, rules = _machine_reports(db, min_support, min_confidence, variant)
    assert mine[0] == mine[1]
    assert rules[0] == rules[1]
    for fragment in shows:
        assert fragment in rules[0]


def _reference_human_rules(db, label, result, records, min_confidence):
    """The human `rules` report, line by line from the records."""
    lines = [
        f"dataset: {label} ({len(db)} transactions, {db.num_items} items)\n",
        f"min_support: {result.min_support!r} (count {result.min_support_count})  "
        f"min_confidence: {min_confidence!r}\n",
        f"{len(records)} rules\n",
    ]
    for antecedent, consequent, support, confidence in records:
        lines.append(
            f"{', '.join(db.tokens_of(antecedent))} => {', '.join(db.tokens_of(consequent))} "
            f"(support {support}, confidence {confidence:.2f})\n"
        )
    return "".join(lines)


@PROPERTY_SETTINGS
@given(
    rng=st.randoms(use_true_random=False),
    min_confidence=st.one_of(
        st.sampled_from([0.1, 0.5, 2 / 3, 0.7, 1.0]), st.floats(0.001, 1.0)
    ),
    data=st.data(),
)
def test_both_rules_formats_match_a_reference_built_from_records(rng, min_confidence, data):
    # Both formats render from the table's columns; the references read only
    # its records, and the records are the oracle's rules at the threshold.
    db = _escaped_tokens(random_db(rng, max_items=8))
    min_support = data.draw(st.integers(1, len(db) + 1), label="min_support")
    label = "corpus \"1\""
    result = run_apriori(db, min_support)
    table = generate_rules(result, min_confidence)
    records = list(table)
    expected = _bruteforce_rules(bruteforce_frequent(db, result.min_support_count), min_confidence)
    assert [tuple(r) for r in records] == expected
    human = _captured(metrics.rules_report(db, label, table, "human"))
    assert human == _reference_human_rules(db, label, result, records, min_confidence)
    machine = _captured(metrics.rules_report(db, label, table, "machine"))
    reference = _reference_rules_payload(result, records, min_confidence, db, label)
    assert machine == _reference_text(reference)
