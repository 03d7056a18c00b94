"""Level-wise frequent-itemset mining with two interchangeable counting variants.

The `classic` variant counts every candidate against every transaction. The
`improved` variant exploits the level-1 index: each candidate is counted only
over the transaction-id list of its lowest-support member, which must contain
every transaction that could possibly hold the candidate, so both variants
return identical itemsets and supports while the scan ledger records how much
less work the restricted scan performed.

Itemsets are plain tuples of item ids, sorted strictly ascending; two itemsets
with the same members are the same tuple.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .dataset import TransactionDb
from .errors import ConfigurationError, ContractViolationError, ResourceLimitError
from .lanes import LaneBlock, LanePages
from .metrics import ScanLedger

Itemset = tuple[int, ...]

VARIANTS = ("classic", "improved")
CANDIDATE_STRATEGIES = ("join", "join_unpruned", "combinations")

# Largest level `generate_candidates_combinations` builds. C(|L1|, k) grows
# so fast that an unbounded level would exhaust time or memory, not fail.
MAX_CANDIDATES = 1_000_000


class L1Index:
    """Support count plus sorted transaction-id list for frequent single items."""

    __slots__ = ("_tids", "_rank", "_pages", "_projections")

    def __init__(self, tids_by_item: Mapping[int, Sequence[int]]):
        self._tids: dict[int, tuple[int, ...]] = {}
        for item in sorted(tids_by_item):
            tids = tuple(tids_by_item[item])
            if any(b <= a for a, b in zip(tids, tids[1:])):
                raise ContractViolationError(
                    f"TID list for item {item} is not strictly increasing"
                )
            if tids and tids[0] < 0:
                raise ContractViolationError(f"TID list for item {item} has a negative TID")
            self._tids[item] = tids
        # Rank by (support, id), so the smallest rank is the min-support item;
        # `lay_out` reads the ranking backwards.
        by_support = sorted(self._tids, key=lambda item: (len(self._tids[item]), item))
        self._rank = {item: rank for rank, item in enumerate(by_support)}
        self._pages: LanePages | None = None
        self._projections: dict[int, LaneBlock] = {}

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

    def lay_out(self, pages: LanePages) -> None:
        """Give the indexed items lane slots in `pages`, by descending support."""
        pages.prepare(reversed(self._rank))

    def projection(self, item: int, pages: LanePages) -> LaneBlock:
        """The lanes of `item`'s transactions, gathered from `pages` once per
        page and kept with this index. The first call with a `pages` (another
        one starts afresh) lays out every item of the index."""
        if pages is not self._pages:
            self._pages, self._projections = pages, {}
            self.lay_out(pages)
        block = self._projections.get(item)
        if block is None:
            tids = self.tids(item)
            if tids and tids[-1] >= pages.size:
                raise ContractViolationError(
                    f"TID {tids[-1]} of item {item} is past the last transaction"
                )
            block = self._projections[item] = LaneBlock(pages, tids)
        return block

    def __repr__(self) -> str:
        return f"L1Index({len(self._tids)} items)"


@dataclass(frozen=True)
class CandidateSet:
    """Same-size candidate itemsets for one level, canonical and duplicate-free."""

    level: int
    candidates: tuple[Itemset, ...]

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(map(tuple, self.candidates)))
        if self.level < 2:
            raise ContractViolationError("candidate level must be at least 2")
        for cand in self.candidates:
            if len(cand) != self.level:
                raise ContractViolationError(
                    f"candidate {cand} does not match level {self.level}"
                )
            if any(b <= a for a, b in zip(cand, cand[1:])):
                raise ContractViolationError(f"candidate {cand} is not canonical")
        if any(b <= a for a, b in zip(self.candidates, self.candidates[1:])):
            raise ContractViolationError("candidates must be unique and ordered")

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self) -> Iterator[Itemset]:
        return iter(self.candidates)


@dataclass(frozen=True)
class MiningResult:
    """Frequent itemsets per level plus the scan ledger and a config echo.

    `levels[k]` maps each frequent k-itemset to its support, in canonical
    order; levels run contiguously from 1 to the last non-empty level. Treat
    as immutable.
    """

    levels: dict[int, dict[Itemset, int]]
    ledger: ScanLedger
    min_support: int | float
    min_support_count: int
    variant: str
    candidate_strategy: str

    def __post_init__(self):
        if sorted(self.levels) != list(range(1, len(self.levels) + 1)):
            raise ContractViolationError("levels must be contiguous from 1")
        if any(not level for level in self.levels.values()):
            raise ContractViolationError("levels must not contain empty entries")

    def support_of(self, itemset: Sequence[int]) -> int | None:
        """Support of a frequent itemset, or None if it is not frequent."""
        key = tuple(itemset)
        return self.levels.get(len(key), {}).get(key)

    def frequent(self) -> Iterator[tuple[Itemset, int]]:
        """All (itemset, support) pairs, level by level, canonical order."""
        for k in sorted(self.levels):
            yield from self.levels[k].items()

    @property
    def max_level(self) -> int:
        return max(self.levels, default=0)

    @property
    def total_frequent(self) -> int:
        return sum(len(level) for level in self.levels.values())


def compute_l1(
    db: TransactionDb, min_support: int, ledger: ScanLedger | None = None
) -> L1Index:
    """One full pass over the database building the frequent-singleton index.

    Every item with support >= min_support keeps its exact support and the
    complete sorted list of transaction ids containing it. The ledger records
    the pass as len(db) * num_distinct_items level-1 examinations, the same
    for both counting variants.
    """
    if min_support < 1:
        raise ConfigurationError(f"min_support must be at least 1, got {min_support}")
    found: dict[int, list[int]] = {}
    for tid, txn in enumerate(db.transactions):
        for item in txn:
            found.setdefault(item, []).append(tid)
    if ledger is not None:
        ledger.add(1, len(db) * db.num_items)
    return L1Index(
        {item: tids for item, tids in found.items() if len(tids) >= min_support}
    )


def generate_candidates_join(
    prev: Iterable[Itemset], prune: bool = True
) -> CandidateSet:
    """Self-join of the previous level's frequent itemsets.

    Two (k-1)-itemsets sharing their first k-2 items merge into a k-itemset.
    With prune=True, candidates having any (k-1)-subset absent from `prev`
    are dropped (no such subset could be frequent, so neither can the
    candidate).
    """
    prev_set = set(map(tuple, prev))
    if not prev_set:
        return CandidateSet(2, ())
    size = len(next(iter(prev_set)))
    if any(len(p) != size for p in prev_set):
        raise ContractViolationError("itemsets to join must all have the same size")
    if size < 1:
        raise ContractViolationError("cannot join empty itemsets")
    out = []
    for _, group in itertools.groupby(sorted(prev_set), key=lambda p: p[:-1]):
        for left, right in itertools.combinations(group, 2):
            cand = left + right[-1:]
            # Dropping either of the last two items leaves a parent, in prev
            # by construction; only the other size-1 subsets need a lookup.
            if not prune or all(
                cand[:i] + cand[i + 1 :] in prev_set for i in range(size - 1)
            ):
                out.append(cand)
    return CandidateSet(size + 1, tuple(out))


def generate_candidates_combinations(l1: L1Index, k: int) -> CandidateSet:
    """Every k-combination of the frequent single items, canonical order.

    Asking for more items than the index holds yields an empty set, not an
    error. A level of more than MAX_CANDIDATES combinations raises
    ResourceLimitError before any candidate is built.
    """
    if k < 2:
        raise ContractViolationError(f"combination level must be at least 2, got {k}")
    size = math.comb(len(l1), k)
    if size > MAX_CANDIDATES:
        raise ResourceLimitError(
            f"the combinations strategy would build C({len(l1)}, {k}) = {size} "
            f"level-{k} candidates, over the budget of {MAX_CANDIDATES}; "
            "use the join strategy or a higher min_support"
        )
    return CandidateSet(k, tuple(itertools.combinations(l1.items, k)))


def min_support_item(candidate: Sequence[int], l1: L1Index) -> int:
    """The candidate member with the smallest L1 support; ties break toward
    the smaller item id."""
    cand = tuple(candidate)
    if not cand:
        raise ContractViolationError("candidate must be non-empty")
    try:
        return min(cand, key=l1._rank.__getitem__)
    except KeyError as exc:
        raise ContractViolationError(f"item {exc.args[0]} is not in the L1 index") from None


def count_support_full(
    candidates: CandidateSet | Iterable[Itemset],
    db: TransactionDb,
    ledger: ScanLedger | None = None,
) -> dict[Itemset, int]:
    """Support of every candidate by scanning the whole database.

    Every candidate examines every transaction with one subset test, in the
    transaction's lane, so the level gains len(candidates) * len(db) ledger
    examinations.
    """
    cands = tuple(map(tuple, candidates))
    if any(len(c) != len(cands[0]) for c in cands):
        raise ContractViolationError("candidates must all have the same size")
    pages = db.lane_pages
    pages.prepare({item for cand in cands for item in cand})
    count = pages.full.count
    counts = {cand: count(cand) for cand in cands}
    if ledger is not None and cands:
        ledger.add(len(cands[0]), len(cands) * len(db))
    return counts


def count_support_restricted(
    candidate: Sequence[int],
    db: TransactionDb,
    l1: L1Index,
    ledger: ScanLedger | None = None,
) -> int:
    """Support counted only over the TID list of the candidate's min-support member.

    A transaction containing the whole candidate necessarily contains that
    member, so it appears in the member's TID list and the restricted count
    equals the full-database support. Each TID in the restricted list gets
    one subset test, in its transaction's lane, and one ledger examination.
    """
    cand = tuple(candidate)
    block = l1.projection(min_support_item(cand, l1), db.lane_pages)
    if ledger is not None:
        ledger.add(len(cand), block.size)
    return block.count(cand)


def resolve_min_support(min_support: int | float, num_transactions: int) -> int:
    """Absolute support floor from either an int count or a float fraction.

    Ints pass through and must be >= 1. Floats must lie in (0, 1] and convert
    by an exact decimal ceiling of fraction * num_transactions (0.1 of 30
    transactions is exactly 3, never 4), clamped to at least 1.
    """
    if isinstance(min_support, bool) or not isinstance(min_support, (int, float)):
        raise ConfigurationError(
            f"min_support must be an int count or float fraction, got {min_support!r}"
        )
    if isinstance(min_support, int):
        if min_support < 1:
            raise ConfigurationError(
                f"absolute min_support must be at least 1, got {min_support}"
            )
        return min_support
    if not 0.0 < min_support <= 1.0:
        raise ConfigurationError(
            f"fractional min_support must lie in (0, 1], got {min_support}"
        )
    return max(1, math.ceil(Fraction(str(min_support)) * num_transactions))


def run_apriori(
    db: TransactionDb,
    min_support: int | float,
    variant: str = "improved",
    candidate_strategy: str = "join",
) -> MiningResult:
    """Level-wise mining: L1 from a full pass, then candidate generation and
    counting per level until no k-itemset reaches the support floor.

    `variant` picks the counting strategy (full scan vs TID-restricted);
    `candidate_strategy` picks how level-k candidates arise ("join" is the
    pruned self-join, "join_unpruned" skips the subset filter, "combinations"
    enumerates all k-combinations of frequent single items). All variants and
    strategies return identical itemsets and supports; only the ledger
    differs.
    """
    if variant not in VARIANTS:
        raise ConfigurationError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if candidate_strategy not in CANDIDATE_STRATEGIES:
        raise ConfigurationError(
            f"candidate_strategy must be one of {CANDIDATE_STRATEGIES}, "
            f"got {candidate_strategy!r}"
        )
    support_floor = resolve_min_support(min_support, len(db))
    ledger = ScanLedger()
    l1 = compute_l1(db, support_floor, ledger)
    levels: dict[int, dict[Itemset, int]] = {}
    if len(l1):
        levels[1] = {(item,): l1.support(item) for item in l1.items}
    if len(l1) > 1:  # only then is a level-2 candidate counted
        l1.lay_out(db.lane_pages)
    k = 2
    while levels.get(k - 1):
        if candidate_strategy == "combinations":
            candidates = generate_candidates_combinations(l1, k)
        else:
            candidates = generate_candidates_join(
                levels[k - 1], prune=candidate_strategy == "join"
            )
        if variant == "classic":
            counts = count_support_full(candidates, db, ledger)
        else:
            counts = {c: count_support_restricted(c, db, l1, ledger) for c in candidates}
        frequent = {c: n for c, n in counts.items() if n >= support_floor}
        if frequent:
            levels[k] = frequent
        k += 1
    return MiningResult(
        levels=levels,
        ledger=ledger,
        min_support=min_support,
        min_support_count=support_floor,
        variant=variant,
        candidate_strategy=candidate_strategy,
    )
