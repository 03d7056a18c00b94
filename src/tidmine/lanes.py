"""Bit-parallel subset tests: one 64-bit lane per examined transaction.

`run_apriori` builds one `LanePages` per run from its L1 index alone, whose
TID lists are checked against the database size it holds, so the L1 pass is
the run's only pass over the transactions, and passes it to its counting
kernel at every level. The pages lay out the index's items by descending
support, LANE_ITEMS to a page, so a candidate's items share few pages, and
never change after the build. On a page, a transaction's lane holds the
complement of its items there: bit b is set when the transaction lacks the
item in slot b. Bit 63 of every lane, the guard, is always clear.

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
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import ContractViolationError

if TYPE_CHECKING:
    from .mining import L1Index

LANE_ITEMS = 63
LANE_LOW = (1 << LANE_ITEMS) - 1


class LanePages:
    """The lanes of `l1.num_transactions` transactions, one word array per
    page, laid out from the index's TID lists; the pages keep it as `l1`.

    Page p's lanes are `_words[p]`, one native-order word per transaction.
    Only the index's items are laid out, so the slot table and lane memory
    follow the counted items rather than every distinct item of the database.
    An item with an empty TID list counts 0.
    """

    __slots__ = ("l1", "size", "full", "_slot", "_words", "_projections")

    def __init__(self, l1: "L1Index"):
        self.l1, self.size = l1, l1.num_transactions
        self._slot: dict[int, tuple[int, int]] = {}
        # Every lane starts all ones, every item missing; each item's bit is
        # then cleared in the lanes of the transactions its TID list names.
        self._words: list[array] = []
        for i, item in enumerate(l1.by_support):
            page, bit = divmod(i, LANE_ITEMS)
            if page == len(self._words):
                self._words.append(array("Q", [LANE_LOW]) * self.size)
            lanes, mask = self._words[page], 1 << bit
            self._slot[item] = (page, mask)
            for tid in l1.tids(item):
                lanes[tid] ^= mask
        self.full = LaneBlock(self, None)
        self._projections: dict[int, LaneBlock] = {}

    def projection(self, item: int) -> "LaneBlock":
        """The lanes of the transactions in `item`'s TID list, ascending.
        The block is gathered once per page and kept under `item`."""
        block = self._projections.get(item)
        if block is None:
            block = self._projections[item] = LaneBlock(self, self.l1.tids(item))
        return block


class LaneBlock:
    """The lanes of a fixed sequence of transactions: every transaction of the
    database, or the ones a TID list names. Each page's int is packed on
    first use and kept. A block holds its source's slots and words, not the
    source, so no cycle keeps a run's pages and index alive after the run."""

    __slots__ = ("size", "_slot", "_words", "_tids", "_pages", "_ones", "_guards")

    def __init__(self, source: LanePages, tids: Sequence[int] | None):
        self.size = source.size if tids is None else len(tids)
        self._slot, self._words = source._slot, source._words
        self._tids = tids
        self._pages: dict[int, int] = {}
        self._ones = int.from_bytes(b"\1\0\0\0\0\0\0\0" * self.size, "little")
        self._guards = self._ones << LANE_ITEMS

    def _page(self, page: int) -> int:
        words = self._words[page]
        if self._tids is not None:
            words = array("Q", map(words.__getitem__, self._tids))
        lanes = self._pages[page] = int.from_bytes(words, sys.byteorder)
        return lanes

    def count(self, itemset: Iterable[int]) -> int:
        """How many of the block's transactions hold every item of `itemset`;
        every item must be laid out in the block's `LanePages`."""
        slot = self._slot
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
