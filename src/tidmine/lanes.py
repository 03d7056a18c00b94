"""The L1 index and its bit-parallel subset tests: one byte lane per
examined transaction.

`compute_l1` builds one `L1Index` per run, from the run's only pass over the
transactions. The index checks its TID lists against the database size and
lays out its lanes from them, so both counting kernels test on it at every
level. The lanes hold the items by descending support, LANE_ITEMS to a page,
so a candidate's items share few pages, and never change after the build.
On a page, a transaction's lane holds the complement of its items there: bit
b is set when the transaction lacks the item in slot b. Bit 7 of every lane,
the guard, is always clear.

`L1Index.count(itemset, item)` tests a candidate against a set of
transactions: all of them, or those in `item`'s TID list, the scan the
paper's improved variant makes. Each set packs its transactions' lanes into
one int per page, lane i in bits 8*i to 8*i + 7. To test a candidate, its
bits on a page are copied into every lane (`bits * ones`) and ANDed with the
lanes, which leaves in each lane the candidate items that transaction lacks.
Subtracting that from the guard, 2**7, in every lane leaves the guard set
exactly when nothing is left, and never borrows from the next lane. AND-ing
these differences over the candidate's pages and keeping the guards marks
every transaction that passes the test, so each examined transaction gets
one subset test, in its own lane. Byte lanes keep each big-int pass at one
byte per examined transaction, and a k-candidate touches at most k pages
whatever their width.
"""

from typing import Mapping, Sequence

from .errors import ContractViolationError, plain_ids, plain_int

LANE_ITEMS = 7
LANE_LOW = (1 << LANE_ITEMS) - 1


class L1Index:
    """Support count plus strictly increasing transaction-id list for frequent
    single items; every item and TID is an id under `plain_ids`, kept as a
    plain int, and every TID lies in [0, num_transactions), the database's size.

    The index lays out its transactions' lanes, one byte array per page: page
    p's lanes are `_words[p]`, one byte per transaction. Only indexed items
    are laid out, so the slot table and lane memory follow the counted items
    rather than every distinct item of the database. An item with an empty
    TID list counts 0.

    `examined[k]` is the number of transactions `count` has tested k-itemsets
    against, one subset test each, since the index was built.
    """

    __slots__ = ("_tids", "by_support", "num_transactions", "examined", "_slot", "_words", "_sets")

    def __init__(self, tids_by_item: Mapping[int, Sequence[int]], num_transactions: int):
        num_transactions = plain_int(num_transactions, "num_transactions", ContractViolationError)
        self.num_transactions = num_transactions
        found: dict[int, tuple[int, ...]] = {}
        for key, tids in tids_by_item.items():
            [item] = plain_ids((key,), f"L1 item {key!r}", error=ContractViolationError)
            name = f"TID list for item {item}"
            found[item] = plain_ids(tids, name, num_transactions, ContractViolationError)
        self._tids = dict(sorted(found.items()))
        # The lane layout, in descending (support, id) order, so the item laid
        # out last among any itemset's members is its min-support item.
        self.by_support = tuple(
            sorted(self._tids, key=lambda item: (len(self._tids[item]), item), reverse=True)
        )
        self.examined: dict[int, int] = {}
        self._slot: dict[int, tuple[int, int]] = {}
        # Every lane starts all ones, every item missing; each item's bit is
        # then cleared in the lanes of the transactions its TID list names.
        self._words: list[bytearray] = []
        for i, item in enumerate(self.by_support):
            page, bit = divmod(i, LANE_ITEMS)
            if page == len(self._words):
                self._words.append(bytearray([LANE_LOW]) * num_transactions)
            lanes, mask = self._words[page], 1 << bit
            self._slot[item] = (page, mask)
            for tid in self._tids[item]:
                lanes[tid] ^= mask
        # Per transaction set, keyed by `item` (None for all of them): its TID
        # list, the ones and guard ints, and each page's int, packed on first use.
        self._sets: dict[int | None, tuple[Sequence[int], int, int, dict[int, int]]] = {}

    @property
    def items(self) -> tuple[int, ...]:
        """Indexed items, ascending."""
        return tuple(self._tids)

    def __contains__(self, item: int) -> bool:
        return item in self._tids

    def __len__(self) -> int:
        return len(self._tids)

    def support(self, item: int) -> int:
        return len(self.tids(item))

    def tids(self, item: int) -> tuple[int, ...]:
        try:
            return self._tids[item]
        except KeyError:
            raise ContractViolationError(f"item {item} is not in the L1 index") from None

    def min_support_item(self, itemset: Sequence[int]) -> int:
        """The member of `itemset` with the smallest support; ties break
        toward the smaller item id. Every member must be indexed."""
        if not itemset:
            raise ContractViolationError("candidate must be non-empty")
        try:
            return max(itemset, key=self._slot.__getitem__)
        except KeyError as exc:
            raise ContractViolationError(f"item {exc.args[0]} is not in the L1 index") from None

    def count(self, itemset: Sequence[int], item: int | None = None) -> int:
        """How many transactions hold every item of `itemset`: all of them
        when `item` is None, otherwise those in `item`'s TID list. Every item
        of `itemset` must be indexed. The transactions tested are added to
        `examined[len(itemset)]`."""
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
            tids = range(self.num_transactions) if item is None else self.tids(item)
            ones = int.from_bytes(b"\1" * len(tids), "little")
            guards, packed = ones << LANE_ITEMS, {}
            self._sets[item] = (tids, ones, guards, packed)
        passed = guards
        for page, bits in masks.items():
            try:
                lanes = packed[page]
            except KeyError:
                words = bytes(map(self._words[page].__getitem__, tids))
                lanes = packed[page] = int.from_bytes(words, "little")
            passed &= guards - ((bits * ones) & lanes)
        size = len(itemset)
        self.examined[size] = self.examined.get(size, 0) + len(tids)
        return passed.bit_count()

    def __repr__(self) -> str:
        return f"L1Index({len(self._tids)} items)"
