"""Transaction ingestion, token interning, and synthetic dataset generation.

A transaction database is an immutable, densely indexed view of a plain-text
transaction file: one transaction per non-blank line, tokens separated by
whitespace or commas. Tokens are interned to integer item ids in first-seen
order, and every stored transaction is a strictly increasing tuple of ids.
"""

from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

from .errors import ConfigurationError, IngestionError, UnknownItemError
from .lanes import LanePages

DELIMITER_POLICIES = ("whitespace", "comma")

# Popularity decay for the synthetic generator: weight of the i-th item is
# proportional to 1 / i**ZIPF_EXPONENT, so item supports differ sharply.
ZIPF_EXPONENT = 1.1


class TransactionDb:
    """Interned, indexed collection of transactions.

    Immutable after construction; safe for concurrent readers. `transactions`
    holds tuples of item ids sorted strictly ascending, indexed by a dense
    0-based transaction id that equals input line order. `tokens[i]` is the
    original token interned as item id `i`.
    """

    __slots__ = ("transactions", "tokens", "_id_of", "_lane_pages")

    def __init__(self, transactions: Iterable[Sequence[int]], tokens: Iterable[str]):
        self.tokens: tuple[str, ...] = tuple(tokens)
        self.transactions: tuple[tuple[int, ...], ...] = tuple(
            tuple(txn) for txn in transactions
        )
        self._id_of: dict[str, int] = {}
        self._lane_pages: LanePages | None = None
        for item_id, token in enumerate(self.tokens):
            if token in self._id_of:
                raise ConfigurationError(f"duplicate token in intern table: {token!r}")
            self._id_of[token] = item_id
        for tid, txn in enumerate(self.transactions):
            if not txn:
                raise ConfigurationError(f"transaction {tid} is empty")
            if any(b <= a for a, b in zip(txn, txn[1:])):
                raise ConfigurationError(
                    f"transaction {tid} is not strictly increasing: {txn}"
                )
            if txn[0] < 0 or txn[-1] >= len(self.tokens):
                raise ConfigurationError(
                    f"transaction {tid} references an item outside the intern table"
                )

    def __len__(self) -> int:
        return len(self.transactions)

    @property
    def num_items(self) -> int:
        return len(self.tokens)

    @property
    def lane_pages(self) -> LanePages:
        """Every transaction's subset-test lanes (see `tidmine.lanes`); built
        on first use and cached, since the database never changes."""
        if self._lane_pages is None:
            self._lane_pages = LanePages(self.transactions, self.num_items)
        return self._lane_pages

    def item_id(self, token: str) -> int:
        """Intern-table id of `token`."""
        try:
            return self._id_of[token]
        except KeyError:
            raise UnknownItemError(f"unknown token: {token!r}") from None

    def lookup_token(self, item_id: int) -> str:
        """Original token interned as `item_id`."""
        if not 0 <= item_id < len(self.tokens):
            raise UnknownItemError(f"unknown item id: {item_id}")
        return self.tokens[item_id]

    def tokens_of(self, itemset: Sequence[int]) -> tuple[str, ...]:
        """Tokens of an id sequence, in the order given."""
        return tuple(self.lookup_token(i) for i in itemset)

    def to_text(self, delimiter: str = " ") -> str:
        """Serialize back to text: one line per transaction, tokens in id order.

        Re-loading the result yields an identical database, provided no token
        contains the delimiter.
        """
        lines = (delimiter.join(self.tokens_of(txn)) for txn in self.transactions)
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


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters for a reproducible synthetic transaction database."""

    num_transactions: int
    num_items: int
    avg_transaction_len: float
    seed: int

    def __post_init__(self):
        if self.num_transactions < 1:
            raise ConfigurationError("num_transactions must be positive")
        if self.num_items < 1:
            raise ConfigurationError("num_items must be positive")
        if not 1.0 <= self.avg_transaction_len <= self.num_items:
            raise ConfigurationError(
                "avg_transaction_len must lie in [1, num_items]; got "
                f"{self.avg_transaction_len} with num_items={self.num_items}"
            )
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError("seed must be an unsigned 64-bit integer")


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
    id_of: dict[str, int] = {}
    tokens: list[str] = []
    transactions: list[tuple[int, ...]] = []
    for parts in lines:
        if not parts:
            continue
        ids = set()
        for tok in parts:
            item_id = id_of.get(tok)
            if item_id is None:
                item_id = len(tokens)
                id_of[tok] = item_id
                tokens.append(tok)
            ids.add(item_id)
        transactions.append(tuple(sorted(ids)))
    return TransactionDb(transactions, tokens)


def load_transactions(
    source: IO[str] | str | Path, delimiter: str = "whitespace"
) -> TransactionDb:
    """Read a transaction database from a path or an open text stream.

    One transaction per non-blank line; within-line duplicate tokens collapse
    to a single occurrence; blank lines (after trimming) are skipped. LF and
    CRLF line endings are both accepted.
    """
    if delimiter not in DELIMITER_POLICIES:
        raise ConfigurationError(
            f"delimiter policy must be one of {DELIMITER_POLICIES}, got {delimiter!r}"
        )
    if isinstance(source, (str, Path)):
        try:
            handle = open(source, encoding="utf-8", newline=None)
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
    )
    lines = []
    for length in lengths:
        chosen = rng.choice(config.num_items, size=int(length), replace=False, p=weights)
        chosen.sort()
        lines.append([f"I{idx + 1}" for idx in chosen])
    # Intern through the same path as file ingestion so ids are dense and
    # first-seen ordered, and serialization round-trips.
    return _db_from_token_lines(lines)
