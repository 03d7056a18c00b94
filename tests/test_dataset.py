import hashlib
import io
import random

import numpy as np
import pytest

from oracle import random_db, reference_synthetic
from tidmine import dataset, mining
from tidmine.dataset import (
    GeneratorConfig,
    TransactionDb,
    generate_synthetic,
    load_transactions,
)
from tidmine.errors import (
    ConfigurationError,
    IngestionError,
    ResourceLimitError,
    UnknownItemError,
)
from tidmine.lanes import LANE_ITEMS
from tidmine.mining import VARIANTS, L1Index, run_apriori


def test_golden_file_loads_nine_transactions_five_items(golden_db):
    assert len(golden_db) == 9
    assert golden_db.num_items == 5


def test_intern_order_is_first_seen(golden_db):
    # Line 1 is "I1 I2 I5", line 2 introduces I4, line 5 introduces I3.
    assert golden_db.tokens == ("I1", "I2", "I5", "I4", "I3")
    assert golden_db.lookup_token(0) == "I1"


def test_transactions_in_line_order(golden_db):
    first = golden_db.tokens_of(golden_db.transactions[0])
    last = golden_db.tokens_of(golden_db.transactions[8])
    assert set(first) == {"I1", "I2", "I5"}
    assert set(last) == {"I1", "I2", "I3"}


def test_empty_stream_gives_empty_db():
    db = load_transactions(io.StringIO(""))
    assert len(db) == 0
    assert db.num_items == 0


def test_duplicate_tokens_collapse():
    db = load_transactions(io.StringIO("A A B\n"))
    assert len(db) == 1
    assert db.tokens_of(db.transactions[0]) == ("A", "B")


def test_blank_and_whitespace_lines_skipped():
    db = load_transactions(io.StringIO("A B\n\n   \nC\n"))
    assert len(db) == 2


def test_crlf_accepted():
    db = load_transactions(io.StringIO("A B\r\nB C\r\n"))
    assert len(db) == 2
    assert db.tokens == ("A", "B", "C")


def test_comma_delimiter():
    db = load_transactions(io.StringIO("I1, I2, I5\nI2,I4\n"), delimiter="comma")
    assert len(db) == 2
    assert db.tokens == ("I1", "I2", "I5", "I4")


def test_unknown_delimiter_policy_rejected():
    with pytest.raises(ConfigurationError):
        load_transactions(io.StringIO("A B\n"), delimiter="tab")


def test_load_from_path(golden_path):
    db = load_transactions(golden_path)
    assert len(db) == 9


def test_missing_file_raises_ingestion_error(tmp_path):
    with pytest.raises(IngestionError):
        load_transactions(tmp_path / "nope.txt")


def test_read_failure_names_line_number():
    class Boom:
        def __iter__(self):
            yield "A B\n"
            yield "C D\n"
            raise OSError("disk gone")

    with pytest.raises(IngestionError) as exc:
        load_transactions(Boom())
    assert exc.value.line_number == 3
    assert "line 3" in str(exc.value)


def test_lookup_token_round_trip(golden_db):
    for token in golden_db.tokens:
        assert golden_db.lookup_token(golden_db.item_id(token)) == token


def test_lookup_out_of_range(golden_db):
    with pytest.raises(UnknownItemError):
        golden_db.lookup_token(golden_db.num_items)
    with pytest.raises(UnknownItemError):
        golden_db.item_id("I99")


@pytest.mark.parametrize("item_id", [1.0, 1.5, "1", None, -1])
def test_lookup_refuses_an_id_that_is_not_an_item(golden_db, item_id):
    # Indexing the token table raised a bare TypeError for a float.
    with pytest.raises(UnknownItemError, match="unknown item id"):
        golden_db.lookup_token(item_id)
    with pytest.raises(UnknownItemError, match="unknown item id"):
        golden_db.tokens_of([0, item_id])


def test_lookup_reads_a_bool_or_numpy_id_as_its_int(golden_db):
    assert golden_db.lookup_token(True) == golden_db.tokens[1]
    assert golden_db.tokens_of([np.int64(0), False]) == (golden_db.tokens[0],) * 2


def test_items_strictly_increasing(golden_db):
    for txn in golden_db.transactions:
        assert all(a < b for a, b in zip(txn, txn[1:]))


def test_lane_pages_are_cached_and_decode_to_transactions(monkeypatch):
    # 140 interned items, the last five in no transaction. Each run builds
    # its own L1 index, which lays out its lanes, and both kernels of that
    # run test on it.
    rng = random.Random(5)
    txns = [tuple(sorted(rng.sample(range(135), rng.randint(1, 70)))) for _ in range(40)]
    db = TransactionDb(txns, [f"T{i}" for i in range(140)])
    built = []

    def counting_index(*args):
        built.append(L1Index(*args))
        return built[-1]

    monkeypatch.setattr(mining, "L1Index", counting_index)
    for variant in (*VARIANTS, *VARIANTS):
        run_apriori(db, 8, variant=variant)
    assert len(built) == 4  # one per run

    for l1 in built:
        laid_out = l1._slot
        assert list(laid_out) == list(built[0]._slot)
        assert len(l1._words) == -(-len(laid_out) // LANE_ITEMS) >= 2
        held = [set() for _ in txns]
        for item, (page, bit) in laid_out.items():
            for tid, lane in enumerate(l1._words[page]):
                if not lane & bit:
                    held[tid].add(item)
        assert held == [set(txn) & set(laid_out) for txn in txns]
        assert not any(lane >> LANE_ITEMS for words in l1._words for lane in words)  # guard


def test_byte_order_mark_is_skipped(tmp_path):
    text = "I1 I2\nI1 I3\nI1 I2\n"
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    db = load_transactions(marked)
    assert db == load_transactions(plain)
    assert db.tokens == ("I1", "I2", "I3")
    result = run_apriori(db, 2)
    assert result.levels == {1: {(0,): 3, (1,): 2}, 2: {(0, 1): 2}}


def test_constructor_rejects_bad_transactions():
    with pytest.raises(ConfigurationError):
        TransactionDb([(1, 0)], ["A", "B"])  # not increasing
    with pytest.raises(ConfigurationError):
        TransactionDb([()], ["A"])  # empty transaction
    with pytest.raises(ConfigurationError):
        TransactionDb([(0, 2)], ["A", "B"])  # id out of range
    with pytest.raises(ConfigurationError):
        TransactionDb([(0,)], ["A", "A"])  # duplicate token
    with pytest.raises(ConfigurationError):
        TransactionDb([(0.0, 1.5)], ["A", "B"])  # float ids
    with pytest.raises(ConfigurationError):
        TransactionDb([("A", "B")], ["A", "B"])  # tokens, not ids


def test_round_trip_serialization(golden_db):
    reloaded = load_transactions(io.StringIO(golden_db.to_text()))
    assert reloaded == golden_db


def test_round_trip_random_dbs():
    rng = random.Random(11)
    for _ in range(25):
        db = random_db(rng)
        assert load_transactions(io.StringIO(db.to_text())) == db


def test_round_trip_comma_format(golden_db):
    reloaded = load_transactions(io.StringIO(golden_db.to_text(",")), delimiter="comma")
    assert reloaded == golden_db


def test_generator_transaction_count():
    db = generate_synthetic(GeneratorConfig(555, 50, 8, seed=1))
    assert len(db) == 555


def test_generator_deterministic():
    config = GeneratorConfig(300, 30, 6, seed=9)
    assert generate_synthetic(config) == generate_synthetic(config)
    assert generate_synthetic(config).to_text() == generate_synthetic(config).to_text()
    # numpy's integers and floats name the same config.
    scalar = GeneratorConfig(np.int64(300), np.int32(30), np.float32(6), seed=np.uint64(9))
    assert generate_synthetic(scalar) == generate_synthetic(config)


@pytest.mark.parametrize(
    "sizes, digest",
    [
        # A wide universe: rows rarely repeat an item.
        ((2000, 20000, 8), "97791c9ad31b784bec6b204138fb27569963daeac67fd1de4a032d4e49047afc"),
        # A dense one: most rows need redraw rounds.
        ((300, 20, 20), "ce83664fbdc818f3fef1403a8b0ed02e50e9c13da95c12bd0ec6ff50bcc44017"),
    ],
)
def test_generator_output_is_pinned(sizes, digest):
    text = generate_synthetic(GeneratorConfig(*sizes, seed=1)).to_text()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("sizes", [(300, 20, 20), (200, 50, 8), (40, 2000, 30)])
def test_generator_blocks_do_not_change_the_stream(monkeypatch, block, sizes):
    # Blocks shorter than a row make first rounds and redraws cross block
    # ends and make a refill draw more than one block.
    monkeypatch.setattr(dataset, "SAMPLE_BLOCK", block)
    for seed in (1, 2**64 - 1):
        config = GeneratorConfig(*sizes, seed=seed)
        assert generate_synthetic(config).to_text() == reference_synthetic(config).to_text()


def test_generator_seeds_differ():
    a = generate_synthetic(GeneratorConfig(300, 30, 6, seed=9))
    b = generate_synthetic(GeneratorConfig(300, 30, 6, seed=10))
    assert a != b
    assert any(x != y for x, y in zip(a.transactions, b.transactions))


def test_generator_supports_are_skewed():
    db = generate_synthetic(GeneratorConfig(1000, 20, 5, seed=7))
    support = {}
    for txn in db.transactions:
        for item in txn:
            support[item] = support.get(item, 0) + 1
    assert max(support.values()) > min(support.values())


def test_generator_lengths_within_bounds():
    db = generate_synthetic(GeneratorConfig(500, 10, 4, seed=3))
    assert all(1 <= len(txn) <= 10 for txn in db.transactions)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(num_transactions=0, num_items=5, avg_transaction_len=2, seed=1),
        dict(num_transactions=10, num_items=0, avg_transaction_len=2, seed=1),
        dict(num_transactions=10, num_items=5, avg_transaction_len=9, seed=1),
        dict(num_transactions=10, num_items=5, avg_transaction_len=0.5, seed=1),
        dict(num_transactions=10, num_items=5, avg_transaction_len=2, seed=-1),
        # Fields of the wrong type, refused before numpy sees them.
        dict(num_transactions=10.5, num_items=5, avg_transaction_len=2, seed=0),
        dict(num_transactions="10", num_items=5, avg_transaction_len=2, seed=0),
        dict(num_transactions=True, num_items=5, avg_transaction_len=2, seed=0),
        dict(num_transactions=10, num_items=5.0, avg_transaction_len=2, seed=0),
        dict(num_transactions=10, num_items=5, avg_transaction_len="2", seed=0),
        dict(num_transactions=10, num_items=5, avg_transaction_len=True, seed=0),
        dict(num_transactions=10, num_items=5, avg_transaction_len=2, seed=True),
        dict(num_transactions=10, num_items=5, avg_transaction_len=2, seed=1.5),
        dict(num_transactions=10, num_items=5, avg_transaction_len=10**400, seed=0),
    ],
)
def test_generator_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        GeneratorConfig(**kwargs)


@pytest.mark.parametrize("sizes", [(10**20, 50), (10, 10**20), (2**60, 50)])
def test_generator_config_refuses_sizes_numpy_cannot_address(sizes):
    # 2**60 8-byte elements are past sys.maxsize bytes, numpy's index range.
    with pytest.raises(ResourceLimitError, match="exceeds the longest array numpy can address"):
        GeneratorConfig(*sizes, 8, seed=0)
