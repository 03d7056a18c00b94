"""Bit-parallel subset tests: one 64-bit lane per examined transaction.

`LanePages` lays out the items it is given, in that order, on pages of
LANE_ITEMS items, and its pages never change after it is built. `run_apriori`
builds one per run and passes it to its counting kernel at every level; it
lays out its frequent items by descending support, so the items a candidate
holds share few pages. On a page, a transaction's lane holds the complement of
its items there: bit b is set when the transaction lacks the item in slot b.
Bit 63 of every lane, the guard, is always clear.

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

from .dataset import TransactionDb
from .errors import ContractViolationError

LANE_ITEMS = 63
LANE_LOW = (1 << LANE_ITEMS) - 1


class LanePages:
    """The lanes of every transaction of `db`, one word array per page.

    Page p's lanes are `_words[p]`, one native-order word per transaction.
    Only the items given are laid out, so the slot table and lane memory
    follow the counted items rather than every distinct item of the database.
    An id that no transaction holds (or outside the database) counts 0.
    """

    __slots__ = ("size", "full", "_slot", "_words", "_projections")

    def __init__(self, db: TransactionDb, items: Iterable[int]):
        transactions, num_items = db.transactions, db.num_items
        # All pages side by side in one int per transaction, the i-th in bits
        # 64*i to 64*i + 63, built in one pass, written out as little-endian
        # words.
        self._slot: dict[int, tuple[int, int]] = {}
        wide = [0] * num_items
        for i, item in enumerate(dict.fromkeys(items)):
            page, bit = divmod(i, LANE_ITEMS)
            self._slot[item] = (page, 1 << bit)
            if 0 <= item < num_items:
                wide[item] = 1 << (64 * page + bit)
        count = -(-len(self._slot) // LANE_ITEMS)
        fill = sum(LANE_LOW << 64 * i for i in range(count))
        width = 8 * count
        rows = array("Q")
        append = rows.frombytes
        for txn in transactions:
            append((fill ^ sum(map(wide.__getitem__, txn))).to_bytes(width, "little"))
        if sys.byteorder == "big":
            rows.byteswap()
        self._words = [rows[i::count] for i in range(count)]
        self.size = len(transactions)
        self.full = LaneBlock(self, None)
        self._projections: dict[int, LaneBlock] = {}

    def projection(self, item: int, tids: Sequence[int]) -> "LaneBlock":
        """The lanes of the transactions `tids` names, ascending: `item`'s TID
        list. The block is gathered once per page and kept under `item` while
        it is asked for with the same list object."""
        block = self._projections.get(item)
        if block is None or block._tids is not tids:
            if tids and (tids[0] < 0 or tids[-1] >= self.size):
                raise ContractViolationError(
                    f"TID list of item {item} names a transaction outside the database"
                )
            block = self._projections[item] = LaneBlock(self, tids)
        return block


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
        every item must be laid out in the block's `LanePages`."""
        slot = self._source._slot
        masks: dict[int, int] = {}
        try:
            for item in itemset:
                page, bit = slot[item]
                masks[page] = masks.get(page, 0) | bit
        except KeyError:
            raise ContractViolationError(f"item {item} has no lane slot") from None
        passed = guards = self._guards
        ones, packed = self._ones, self._pages
        for page, bits in masks.items():
            try:
                lanes = packed[page]
            except KeyError:
                lanes = self._page(page)
            passed &= guards - ((bits * ones) & lanes)
        return passed.bit_count()
