"""The L1 index and its bit-parallel subset tests: one byte lane per
examined transaction.

`compute_l1` builds one `L1Index` per run, and the index makes the run's only
pass over the transactions: it builds its TID lists from the database and
lays out its lanes from them, so both counting kernels test on it at every
level. The lanes hold the items by descending support, LANE_ITEMS to a page,
so a candidate's items share few pages, and never change after the build.
On a page, a transaction's lane holds the complement of its items there: bit
b is set when the transaction lacks the item in slot b. Bit 7 of every lane,
the guard, is always clear.

These are the two counting kernels. `L1Index.count_all(candidates)` tests a
level's candidates against every transaction, the scan the paper's original
Apriori makes, and `L1Index.count(itemset)` tests one candidate against the
transactions in its min-support member's TID list only: the scan of the
paper's improved variant. Each set of transactions packs its lanes into one
int per page, lane i in bits 8*i to 8*i + 7. To test a candidate, its
bits on a page are copied into every lane (`bits * ones`) and ANDed with the
lanes, which leaves in each lane the candidate items that transaction lacks.
Subtracting that from the guard, 2**7, in every lane leaves the guard set
exactly when nothing is left, and never borrows from the next lane. AND-ing
these differences over the candidate's pages and keeping the guards marks
every transaction that passes the test, so each examined transaction gets
one subset test, in its own lane. Byte lanes keep each big-int pass at one
byte per examined transaction, and a k-candidate touches at most k pages
whatever their width.

`count_all` tests a run of candidates that share a head, every item but
the last, against the head once. Each candidate's last item then costs one
shift and one AND: shifting a page left by 7 - b puts bit b of every lane on
that lane's guard, and no other bit on any guard, so the transactions that
pass the head but lack the last item are counted and taken from the head's.
"""

import itertools
import operator
from typing import Sequence

from .dataset import TransactionDb
from .errors import ConfigurationError, ContractViolationError, plain_int

LANE_ITEMS = 7
LANE_LOW = (1 << LANE_ITEMS) - 1


class L1Index:
    """Support count plus strictly increasing transaction-id list for each item
    of a `TransactionDb` with support >= min_support, built in one pass over
    its transactions: every item is one of the database's ids and every TID a
    position in [0, num_transactions), the database's size.

    The index lays out its transactions' lanes, one byte array per page: page
    p's lanes are `_words[p]`, one byte per transaction. Only indexed items
    are laid out, so the slot table and lane memory follow the counted items
    rather than every distinct item of the database.

    `examined[k]` is the number of transactions `count` has tested k-itemsets
    against, one subset test each, since the index was built.
    """

    __slots__ = ("_tids", "by_support", "num_transactions", "examined", "_slot", "_words", "_sets")

    def __init__(self, db: TransactionDb, min_support: int):
        if type(db) is not TransactionDb:
            raise ContractViolationError(f"L1Index takes a TransactionDb, got {type(db).__name__}")
        min_support = plain_int(min_support, "min_support")
        if min_support < 1:
            raise ConfigurationError(f"min_support must be at least 1, got {min_support}")
        num_transactions = self.num_transactions = len(db)
        found: list[list[int]] = [[] for _ in range(db.num_items)]
        for tid, txn in enumerate(db.transactions):
            for item in txn:
                found[item].append(tid)
        self._tids = {
            item: tuple(tids) for item, tids in enumerate(found) if len(tids) >= min_support
        }
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
        # Per min-support member that `count` tests in: its TID list, the ones
        # and guard ints, and each page's int, packed on first use.
        self._sets: dict[int, tuple[Sequence[int], int, int, dict[int, int]]] = {}

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

    def count(self, itemset: Sequence[int]) -> int:
        """How many transactions hold every item of `itemset`, tested only in
        the TID list of its min-support member, the paper's improved scan; the
        loop that reads the members' lane slots also picks that member. Every
        item of `itemset` must be indexed. The transactions tested are added to
        `examined[len(itemset)]`."""
        slot = self._slot
        masks: dict[int, int] = {}
        top = -1
        try:
            for member in itemset:
                page, bit = slot[member]
                masks[page] = masks.get(page, 0) | bit
                if page > top:
                    top = page
        except KeyError:
            raise ContractViolationError(f"item {member} has no lane slot") from None
        if not masks:
            raise ContractViolationError("candidate must be non-empty")
        # The layout runs in descending (support, id) order, so the
        # min-support member holds the highest bit of the last page.
        item = self.by_support[top * LANE_ITEMS + masks[top].bit_length() - 1]
        try:
            tids, ones, guards, packed = self._sets[item]
        except KeyError:
            tids = self._tids[item]
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

    def count_all(self, candidates: Sequence[Sequence[int]]) -> dict[tuple[int, ...], int]:
        """How many of all the transactions hold each candidate, the paper's
        original scan; candidates are non-empty, of one size, and hold indexed
        items only. Candidates that follow one another with the same head,
        every item but the last, share one test of the head. `examined[k]`
        gains the database's size for each k-candidate."""
        sizes = set(map(len, candidates))
        if len(sizes) > 1:
            raise ContractViolationError("candidates must all have the same size")
        if not sizes:
            return {}
        if 0 in sizes:
            raise ContractViolationError("candidate must be non-empty")
        ones = int.from_bytes(b"\1" * self.num_transactions, "little")
        guards = ones << LANE_ITEMS
        packed = [int.from_bytes(words, "little") for words in self._words]
        slot = self._slot
        # Each item's packed page, and the shift that puts its bit on the guards.
        last = {
            item: (packed[page], LANE_ITEMS + 1 - bit.bit_length())
            for item, (page, bit) in slot.items()
        }
        counts = {}
        try:
            for head, group in itertools.groupby(candidates, operator.itemgetter(slice(-1))):
                masks: dict[int, int] = {}
                for member in head:
                    page, bit = slot[member]
                    masks[page] = masks.get(page, 0) | bit
                passed = guards
                for page, bits in masks.items():
                    passed &= guards - ((bits * ones) & packed[page])
                held = passed.bit_count()
                for cand in group:
                    lanes, shift = last[cand[-1]]
                    counts[cand] = held - (passed & (lanes << shift)).bit_count()
        except KeyError as exc:
            raise ContractViolationError(f"item {exc.args[0]} has no lane slot") from None
        [size] = sizes
        self.examined[size] = self.examined.get(size, 0) + self.num_transactions * len(candidates)
        return counts

    def __repr__(self) -> str:
        return f"L1Index({len(self._tids)} items)"
