"""Transaction ingestion, token interning, and synthetic dataset generation.

A transaction database is an immutable, densely indexed view of a plain-text
transaction file: one transaction per non-blank line, tokens separated by
whitespace or commas. Tokens are interned to integer item ids in first-seen
order, and every stored transaction is a strictly increasing tuple of ids.
"""

import operator
import os
import sys
from typing import IO, Iterable, Iterator, Sequence

from .errors import ConfigurationError, IngestionError, ResourceLimitError, UnknownItemError
from .errors import plain_float, plain_ids, plain_int

DELIMITER_POLICIES = ("whitespace", "comma")

# Popularity decay for the synthetic generator: weight of the i-th item is
# proportional to 1 / i**ZIPF_EXPONENT, so item supports differ sharply.
ZIPF_EXPONENT = 1.1

# Uniform doubles the synthetic generator draws from the stream at a time.
SAMPLE_BLOCK = 4096


class Rows(list):
    """Transactions as the loader or the generator builds them: strictly
    increasing tuples of plain int ids, each below the number of tokens built
    with them, and none empty. Not exported; `TransactionDb` takes one as
    built."""

    __slots__ = ()


class _Ids(dict):
    """Token -> item id, interning a token not seen before as the next id."""

    __slots__ = ()

    def __missing__(self, token: str) -> int:
        self[token] = item_id = len(self)
        return item_id


class TransactionDb:
    """Interned, indexed collection of transactions.

    Immutable after construction; safe for concurrent readers. `transactions`
    holds tuples of item ids sorted strictly ascending, indexed by a dense
    0-based transaction id that equals input line order. `tokens[i]` is the
    original token interned as item id `i`. The `Rows` of the loader and the
    generator are taken as built; any other transactions are checked.
    """

    __slots__ = ("transactions", "tokens", "_id_of")

    def __init__(self, transactions: Iterable[Sequence[int]], tokens: Iterable[str]):
        self.tokens: tuple[str, ...] = tuple(tokens)
        self._id_of: dict[str, int] = {}
        for item_id, token in enumerate(self.tokens):
            if not isinstance(token, str):
                raise ConfigurationError(f"token {item_id} is not a string: {token!r}")
            if token in self._id_of:
                raise ConfigurationError(f"duplicate token in intern table: {token!r}")
            self._id_of[token] = item_id
        if type(transactions) is Rows:
            self.transactions: tuple[tuple[int, ...], ...] = tuple(transactions)
            return
        self.transactions = tuple(
            plain_ids(txn, f"transaction {tid}", len(self.tokens))
            for tid, txn in enumerate(transactions)
        )
        if () in self.transactions:
            raise ConfigurationError(f"transaction {self.transactions.index(())} is empty")

    def __len__(self) -> int:
        return len(self.transactions)

    @property
    def num_items(self) -> int:
        return len(self.tokens)

    def item_id(self, token: str) -> int:
        """Intern-table id of `token`."""
        try:
            return self._id_of[token]
        except KeyError:
            raise UnknownItemError(f"unknown token: {token!r}") from None

    def lookup_token(self, item_id: int) -> str:
        """Original token interned as `item_id`; a bool reads as its int."""
        try:
            index = operator.index(item_id)
        except TypeError:
            raise UnknownItemError(f"unknown item id: {item_id!r}") from None
        if not 0 <= index < len(self.tokens):
            raise UnknownItemError(f"unknown item id: {item_id!r}")
        return self.tokens[index]

    def tokens_of(self, itemset: Sequence[int]) -> tuple[str, ...]:
        """Tokens of an id sequence, in the order given."""
        return tuple(self.lookup_token(i) for i in itemset)

    def to_text(self, delimiter: str = " ") -> str:
        """Serialize back to text: one line per transaction, tokens in id order.

        Re-loading the result yields an identical database, provided no token
        contains the delimiter.
        """
        # The constructor has checked every id against the token table.
        tokens = self.tokens
        lines = (delimiter.join([tokens[i] for i in txn]) for txn in self.transactions)
        return "".join(line + "\n" for line in lines)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransactionDb):
            return NotImplemented
        return self.tokens == other.tokens and self.transactions == other.transactions

    def __repr__(self) -> str:
        return (
            f"TransactionDb({len(self.transactions)} transactions, "
            f"{len(self.tokens)} items)"
        )


class GeneratorConfig:
    """Parameters for a reproducible synthetic transaction database."""

    __slots__ = ("num_transactions", "num_items", "avg_transaction_len", "seed")

    def __init__(
        self, num_transactions: int, num_items: int, avg_transaction_len: float, seed: int
    ):
        # The fields keep the numbers given, so numpy sizes give the same database.
        plain_int(num_transactions, "num_transactions")
        plain_int(num_items, "num_items")
        plain_float(avg_transaction_len, "avg_transaction_len")
        plain_int(seed, "seed")
        # Each size is the length of an array of 8-byte elements. numpy refuses
        # one whose byte size passes its index type's maximum, sys.maxsize, so a
        # size that long stops here, before numpy is imported.
        longest = sys.maxsize // 8
        for name, size in (("num_transactions", num_transactions), ("num_items", num_items)):
            if size < 1:
                raise ConfigurationError(f"{name} must be positive")
            if size > longest:
                raise ResourceLimitError(
                    f"{name} {size} exceeds the longest array numpy can address "
                    f"({longest} 8-byte elements)"
                )
        if not 1.0 <= avg_transaction_len <= num_items:
            raise ConfigurationError(
                "avg_transaction_len must lie in [1, num_items]; got "
                f"{avg_transaction_len} with num_items={num_items}"
            )
        if not 0 <= seed < 2**64:
            raise ConfigurationError("seed must be an unsigned 64-bit integer")
        self.num_transactions, self.num_items = num_transactions, num_items
        self.avg_transaction_len, self.seed = avg_transaction_len, seed


def _split_line(line: str, delimiter: str) -> list[str]:
    if delimiter == "whitespace":
        return line.split()
    return [tok for tok in (piece.strip() for piece in line.split(",")) if tok]


def _iter_token_lines(stream: Iterable[str], delimiter: str) -> Iterator[list[str]]:
    line_number = 0
    try:
        for raw in stream:
            line_number += 1
            yield _split_line(raw, delimiter)
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(
            f"read failure at line {line_number + 1}: {exc}", line_number + 1
        ) from exc


def _db_from_token_lines(lines: Iterable[Sequence[str]]) -> TransactionDb:
    ids = _Ids()
    rows = Rows(tuple(sorted(set(map(ids.__getitem__, parts)))) for parts in lines if parts)
    return TransactionDb(rows, ids)


def load_transactions(
    source: IO[str] | str | os.PathLike, delimiter: str = "whitespace"
) -> TransactionDb:
    """Read a transaction database from a path or an open text stream.

    One transaction per non-blank line; within-line duplicate tokens collapse
    to a single occurrence; blank lines (after trimming) are skipped. LF and
    CRLF line endings are both accepted, and a path's UTF-8 byte-order mark
    is skipped.
    """
    if delimiter not in DELIMITER_POLICIES:
        raise ConfigurationError(
            f"delimiter policy must be one of {DELIMITER_POLICIES}, got {delimiter!r}"
        )
    if isinstance(source, (str, os.PathLike)):
        try:
            handle = open(source, encoding="utf-8-sig", newline=None)
        except OSError as exc:
            raise IngestionError(f"cannot open {source}: {exc}") from exc
        with handle:
            return _db_from_token_lines(_iter_token_lines(handle, delimiter))
    return _db_from_token_lines(_iter_token_lines(source, delimiter))


def generate_synthetic(config: GeneratorConfig) -> TransactionDb:
    """Generate a reproducible skewed transaction database.

    Transaction lengths follow a geometric distribution with mean
    `avg_transaction_len`, clamped to [1, num_items]. Items are drawn without
    replacement under a Zipf-like popularity weighting, so per-item supports
    differ widely. The same config always yields a byte-identical database.

    The stream of `numpy.random.default_rng(seed)` is read as follows: one
    `rng.geometric` call draws every length; then `rng.random` doubles are
    consumed row by row, round by round, as `Generator.choice(num_items,
    length, replace=False, p=weights)` consumes them. A row's first round
    takes `length` doubles through the cumulative weights; each later round,
    made only when earlier ones repeated an item, takes one double per item
    still missing, through the weights with the items found set to zero.
    Tokens are `I{index + 1}`, interned in first-seen order as the loader
    reads each row in ascending index order.
    """
    # Imported here so that jobs reading --input never pay numpy's import.
    import numpy as np

    rng = np.random.default_rng(config.seed)
    universe = np.arange(config.num_items)
    weights = 1.0 / (universe + 1.0) ** ZIPF_EXPONENT
    weights /= weights.sum()
    lengths = np.clip(
        rng.geometric(min(1.0, 1.0 / config.avg_transaction_len), size=config.num_transactions),
        1,
        config.num_items,
    ).tolist()
    # Built as Generator.choice builds it, so each double maps to the same item.
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    # doubles[pos:] are drawn and not yet used; firsts holds their items
    # under the full weights, for first rounds.
    doubles, firsts, pos = np.empty(0), [], 0

    def refill(need):
        nonlocal doubles, firsts, pos
        fresh = rng.random(max(SAMPLE_BLOCK, need))
        doubles = np.concatenate((doubles[pos:], fresh))
        firsts = firsts[pos:] + cdf.searchsorted(fresh, side="right").tolist()
        pos = 0

    id_of: dict[int, int] = {}
    transactions = Rows()
    for length in lengths:
        if pos + length > len(firsts):
            refill(length)
        chosen = set(firsts[pos : pos + length])
        pos += length
        while len(chosen) < length:
            need = length - len(chosen)
            if pos + need > len(firsts):
                refill(need)
            p = weights.copy()
            p[list(chosen)] = 0
            redraw = np.cumsum(p)
            redraw /= redraw[-1]
            chosen.update(redraw.searchsorted(doubles[pos : pos + need], side="right").tolist())
            pos += need
        # Intern as the loader would read the row "I{a+1} I{b+1} ..." for a < b < ...
        ids = [id_of.setdefault(idx, len(id_of)) for idx in sorted(chosen)]
        transactions.append(tuple(sorted(ids)))
    return TransactionDb(transactions, [f"I{idx + 1}" for idx in id_of])
