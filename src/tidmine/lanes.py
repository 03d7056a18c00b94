"""Bit-parallel subset tests: one 64-bit lane per examined transaction.

Items are ranked by descending support over the whole database, ties broken
toward the smaller id, and cut into pages of LANE_ITEMS ranks, so the frequent
items at any support threshold fill the first pages. On a page, a
transaction's lane holds the complement of its items there: bit r % LANE_ITEMS
is set when the transaction lacks the item ranked r. Bit 63 of every lane, the
guard, is always clear.

A block packs the lanes of a sequence of transactions into one int per page,
lane i in bits 64*i to 64*i + 63. To test a candidate, its bits on a page are
copied into every lane (`bits * ones`) and ANDed with the lanes, which leaves
in each lane the candidate items that transaction lacks. Subtracting that
from the guard, 2**63, in every lane leaves the guard set exactly when nothing
is left, and never borrows from the next lane. AND-ing these differences over
the candidate's pages and keeping the guards marks every transaction that
passes the test, so each examined transaction gets one subset test, in its
own lane.
"""

import sys
from array import array
from typing import Iterable, Sequence

LANE_ITEMS = 63
LANE_LOW = (1 << LANE_ITEMS) - 1


class LanePages:
    """The lanes of every transaction of one database, one word array per page.

    `words(p)` is page p's lanes, one native-order word per transaction
    (`words(p)[tid]`), built from the transactions on first use and kept.
    The counting kernels `prepare` the pages of the items they are about to
    count, so the pages in use are built together, in one pass. Candidates
    hold frequent items, which rank first, so the pages of infrequent items
    are never built, and memory grows with the frequent items rather than
    with every distinct item of the database.
    """

    __slots__ = ("size", "full", "_transactions", "_order", "_slot", "_words")

    def __init__(self, transactions: Sequence[Sequence[int]], num_items: int):
        support = [0] * num_items
        for txn in transactions:
            for item in txn:
                support[item] += 1
        self._order = sorted(range(num_items), key=lambda item: (-support[item], item))
        bits = [1 << bit for bit in range(LANE_ITEMS)]
        self._slot: dict[int, tuple[int, int]] = {
            item: (rank // LANE_ITEMS, bits[rank % LANE_ITEMS])
            for rank, item in enumerate(self._order)
        }
        self._transactions = transactions
        self._words: list[array | None] = [None] * -(-num_items // LANE_ITEMS)
        self.size = len(transactions)
        self.full = LaneBlock(self, None)

    @property
    def pages(self) -> int:
        return len(self._words)

    def words(self, page: int) -> array:
        """Page `page`'s lanes, built on first use unless `prepare` built it."""
        if self._words[page] is None:
            self._build([page])
        return self._words[page]

    def prepare(self, items: Iterable[int]) -> None:
        """Build every page that holds one of `items` and is not built yet,
        all in one pass over the transactions."""
        slot = self._slot
        pages = {slot[item][0] for item in items if item in slot}
        missing = sorted(page for page in pages if self._words[page] is None)
        if missing:
            self._build(missing)

    def _build(self, pages: list[int]) -> None:
        # The pages side by side in one int per transaction, the i-th in bits
        # 64*i to 64*i + 63, written out as little-endian words.
        wide = [0] * len(self._order)
        for i, page in enumerate(pages):
            start = page * LANE_ITEMS
            for bit, item in enumerate(self._order[start : start + LANE_ITEMS]):
                wide[item] = 1 << (64 * i + bit)
        fill = sum(LANE_LOW << 64 * i for i in range(len(pages)))
        width = 8 * len(pages)
        rows = array("Q")
        append = rows.frombytes
        for txn in self._transactions:
            append((fill ^ sum(map(wide.__getitem__, txn))).to_bytes(width, "little"))
        if sys.byteorder == "big":
            rows.byteswap()
        for i, page in enumerate(pages):
            self._words[page] = rows[i :: len(pages)]


class LaneBlock:
    """The lanes of a fixed sequence of transactions: every transaction of the
    database, or the ones a TID list names. Each page's int is packed on
    first use and kept."""

    __slots__ = ("size", "_source", "_tids", "_pages", "_ones", "_guards")

    def __init__(self, source: LanePages, tids: Sequence[int] | None):
        self.size = source.size if tids is None else len(tids)
        self._source = source
        self._tids = tids
        self._pages: dict[int, int] = {}
        self._ones = int.from_bytes(b"\1\0\0\0\0\0\0\0" * self.size, "little")
        self._guards = self._ones << LANE_ITEMS

    def _page(self, page: int) -> int:
        words = self._source.words(page)
        if self._tids is not None:
            words = array("Q", map(words.__getitem__, self._tids))
        lanes = self._pages[page] = int.from_bytes(words, sys.byteorder)
        return lanes

    def count(self, itemset: Iterable[int]) -> int:
        """How many of the block's transactions hold every item of `itemset`;
        0 when an item is not an id of the database."""
        slot = self._source._slot
        masks: dict[int, int] = {}
        for item in itemset:
            where = slot.get(item)
            if where is None:
                return 0
            page, bit = where
            masks[page] = masks.get(page, 0) | bit
        passed = guards = self._guards
        ones, packed = self._ones, self._pages
        for page, bits in masks.items():
            try:
                lanes = packed[page]
            except KeyError:
                lanes = self._page(page)
            passed &= guards - ((bits * ones) & lanes)
        return passed.bit_count()
