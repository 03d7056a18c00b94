"""Bit-parallel subset tests: one 64-bit lane per examined transaction.

`run_apriori` builds one `LanePages` per run from its L1 index alone, whose
TID lists are checked against the database size it holds, so the L1 pass is
the run's only pass over the transactions, and passes it to its counting
kernel at every level. The pages lay out the index's items by descending
support, LANE_ITEMS to a page, so a candidate's items share few pages, and
never change after the build. On a page, a transaction's lane holds the
complement of its items there: bit b is set when the transaction lacks the
item in slot b. Bit 63 of every lane, the guard, is always clear.

`LanePages.count(itemset, item)` tests a candidate against a set of
transactions: all of them, or those in `item`'s TID list, the scan the
paper's improved variant makes. Each set packs its transactions' lanes into
one int per page, lane i in bits 64*i to 64*i + 63. To test a candidate, its
bits on a page are copied into every lane (`bits * ones`) and ANDed with the
lanes, which leaves in each lane the candidate items that transaction lacks.
Subtracting that from the guard, 2**63, in every lane leaves the guard set
exactly when nothing is left, and never borrows from the next lane. AND-ing
these differences over the candidate's pages and keeping the guards marks
every transaction that passes the test, so each examined transaction gets
one subset test, in its own lane.
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

    __slots__ = ("l1", "size", "_slot", "_words", "_sets")

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
        # Per transaction set, keyed by `item` (None for all of them): its TID
        # list, the ones and guard ints, and each page's int, packed on first use.
        self._sets: dict[int | None, tuple[Sequence[int], int, int, dict[int, int]]] = {}

    def count(self, itemset: Iterable[int], item: int | None = None) -> int:
        """How many transactions hold every item of `itemset`: all of them
        when `item` is None, otherwise those in `item`'s TID list in `l1`.
        Every item of `itemset` must be laid out."""
        slot = self._slot
        masks: dict[int, int] = {}
        try:
            for member in itemset:
                page, bit = slot[member]
                masks[page] = masks.get(page, 0) | bit
        except KeyError:
            raise ContractViolationError(f"item {member} has no lane slot") from None
        try:
            tids, ones, guards, packed = self._sets[item]
        except KeyError:
            tids = range(self.size) if item is None else self.l1.tids(item)
            ones = int.from_bytes(b"\1\0\0\0\0\0\0\0" * len(tids), "little")
            guards, packed = ones << LANE_ITEMS, {}
            self._sets[item] = (tids, ones, guards, packed)
        passed = guards
        for page, bits in masks.items():
            try:
                lanes = packed[page]
            except KeyError:
                words = array("Q", map(self._words[page].__getitem__, tids))
                lanes = packed[page] = int.from_bytes(words, sys.byteorder)
            passed &= guards - ((bits * ones) & lanes)
        return passed.bit_count()
