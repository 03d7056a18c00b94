"""Bit-parallel subset tests: one 64-bit lane per examined transaction.

An item gets a lane slot when it is first counted: `LanePages.prepare` gives
each item it has not laid out yet the next slot, in the order asked, on new
pages of LANE_ITEMS items. `run_apriori` lays out its frequent items by
descending support before it counts, so the items a candidate holds share few
pages. On a page, a transaction's lane holds the complement of its items
there: bit b is set when the transaction lacks the item in slot b. Bit 63 of
every lane, the guard, is always clear.

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

    Page p's lanes are `_words[p]`, one native-order word per transaction.
    Only the items counted are laid out, so the slot table and lane memory
    follow the counted items rather than every distinct item of the database.
    """

    __slots__ = ("size", "full", "_transactions", "_num_items", "_slot", "_words")

    def __init__(self, transactions: Sequence[Sequence[int]], num_items: int):
        self._transactions = transactions
        self._num_items = num_items
        self._slot: dict[int, tuple[int, int]] = {}
        self._words: list[array] = []
        self.size = len(transactions)
        self.full = LaneBlock(self, None)

    def prepare(self, items: Iterable[int]) -> None:
        """Give each of `items` not laid out yet the next slot, in order, on
        new pages, and build those pages in one pass over the transactions.
        An id that no transaction holds (or outside the database) counts 0."""
        new = [item for item in items if item not in self._slot]
        if new:
            self._build(new)

    def _build(self, items: list[int]) -> None:
        # The new pages side by side in one int per transaction, the i-th in
        # bits 64*i to 64*i + 63, written out as little-endian words.
        first, count = len(self._words), -(-len(items) // LANE_ITEMS)
        wide = [0] * self._num_items
        for i, item in enumerate(items):
            page, bit = divmod(i, LANE_ITEMS)
            self._slot[item] = (first + page, 1 << bit)
            if 0 <= item < self._num_items:
                wide[item] = 1 << (64 * page + bit)
        fill = sum(LANE_LOW << 64 * i for i in range(count))
        width = 8 * count
        rows = array("Q")
        append = rows.frombytes
        for txn in self._transactions:
            append((fill ^ sum(map(wide.__getitem__, txn))).to_bytes(width, "little"))
        if sys.byteorder == "big":
            rows.byteswap()
        self._words.extend(rows[i::count] for i in range(count))


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
        words = self._source._words[page]
        if self._tids is not None:
            words = array("Q", map(words.__getitem__, self._tids))
        lanes = self._pages[page] = int.from_bytes(words, sys.byteorder)
        return lanes

    def count(self, itemset: Iterable[int]) -> int:
        """How many of the block's transactions hold every item of `itemset`;
        every item must be laid out (`LanePages.prepare`)."""
        slot = self._source._slot
        masks: dict[int, int] = {}
        for item in itemset:
            page, bit = slot[item]
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
