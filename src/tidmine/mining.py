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
import numbers
import operator
from typing import Iterable, Iterator, Mapping, Sequence

from .dataset import TransactionDb
from .errors import ConfigurationError, ContractViolationError, ResourceLimitError
from .errors import decimal_ratio, plain_id_rows, plain_int
from .lanes import L1Index

Itemset = tuple[int, ...]

VARIANTS = ("classic", "improved")
CANDIDATE_STRATEGIES = ("join", "combinations")

# Largest level either candidate strategy builds. Candidate levels can grow
# so fast that an unbounded level would exhaust time or memory, not fail.
MAX_CANDIDATES = 1_000_000


class ScanLedger:
    """Per-level tally of transaction examinations during a mining run.

    For every candidate itemset, each transaction inspected while counting
    that candidate adds one examination to the candidate's level: the run's
    `L1Index.examined`. Level 1 is a full pass, so it always records
    `num_transactions * num_distinct_items` regardless of the counting
    variant. Built once, immutable by contract: `per_level` holds the levels
    in ascending order and `total` their sum. Levels and entries are integers,
    never a bool, kept as plain ints.
    """

    __slots__ = ("per_level", "total")

    def __init__(self, per_level: Mapping[int, int] | None = None):
        checked: dict[int, int] = {}
        for level, scanned in (per_level or {}).items():
            level, scanned = plain_int(level, "ledger level"), plain_int(scanned, "ledger entry")
            if level < 1:
                raise ConfigurationError(f"ledger level must be >= 1, got {level}")
            if scanned < 0:
                raise ConfigurationError(f"ledger entry must be >= 0, got {scanned}")
            checked[level] = scanned
        self.per_level = dict(sorted(checked.items()))
        self.total = sum(checked.values())

    def level(self, k: int) -> int:
        return self.per_level.get(k, 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScanLedger):
            return NotImplemented
        return self.per_level == other.per_level

    def __repr__(self) -> str:
        return f"ScanLedger({self.per_level}, total={self.total})"


class CandidateSet:
    """Same-size candidate itemsets for one level, canonical and duplicate-free
    by construction: only the two generators build one, so it stores them as given.
    Not exported: it is a benchmark hook point, whose `level` the tracer reads."""

    __slots__ = ("level", "candidates")

    def __init__(self, level: int, candidates: tuple[Itemset, ...]):
        self.level, self.candidates = level, candidates

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self) -> Iterator[Itemset]:
        return iter(self.candidates)


class Level(dict):
    """One run's frequent k-itemsets and supports, canonical plain ints by
    construction: `run_apriori` is its only builder. Not exported; the join and
    `MiningResult` take one as built."""

    __slots__ = ()


class MiningResult:
    """Frequent itemsets per level plus the scan ledger and a config echo.

    `levels[k]`, for a plain int `k`, maps each frequent k-itemset, a strictly
    increasing tuple of k plain int ids, to its support, a plain int, in
    canonical order; levels run contiguously from 1 to the last non-empty
    level. `min_support_count`, the support floor, is a plain int of at least
    1. Immutable by contract; two results are equal when every field is. A
    `Level` is kept uncopied, checked only for contiguous keys and no empty
    level; any other level is checked in full and copied unless already plain.
    """

    __slots__ = (
        "levels", "ledger", "min_support", "min_support_count", "variant", "candidate_strategy"
    )

    def __init__(
        self, levels: dict[int, dict[Itemset, int]], ledger: ScanLedger, min_support: int | float,
        min_support_count: int, variant: str, candidate_strategy: str,
    ):
        min_support = check_threshold(min_support)
        min_support_count = plain_int(min_support_count, "min_support_count")
        if min_support_count < 1:
            raise ConfigurationError(
                f"min_support_count must be at least 1, got {min_support_count}"
            )
        keys = [plain_int(k, "level", ContractViolationError) for k in levels]
        if sorted(keys) != list(range(1, len(keys) + 1)):
            raise ContractViolationError("levels must be contiguous from 1")
        if any(not level for level in levels.values()):
            raise ContractViolationError("levels must not contain empty entries")
        checked = {}
        for k, level in zip(keys, levels.values()):
            if type(level) is not Level:
                itemsets = plain_id_rows(level, f"level-{k} itemset")
                if set(map(len, itemsets)) != {k}:
                    raise ContractViolationError(f"level {k} holds an itemset of another size")
                if itemsets is not level or not {int}.issuperset(map(type, level.values())):
                    level = {
                        ids: plain_int(n, f"support of {itemset}")
                        for ids, (itemset, n) in zip(itemsets, level.items())
                    }
            checked[k] = level
        self.levels, self.ledger, self.variant = checked, ledger, variant
        self.min_support, self.min_support_count = min_support, min_support_count
        self.candidate_strategy = candidate_strategy

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MiningResult):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

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


def compute_l1(db: TransactionDb, min_support: int) -> L1Index:
    """`L1Index(db, min_support)`: the run's one full pass, which keeps each
    item with support >= min_support, its support and its sorted TID list.

    Not exported: `run_apriori` calls it through this module's globals only
    as a hook point, where the benchmark's tracer wraps it.
    """
    return L1Index(db, min_support)


def generate_candidates_join(prev: Iterable[Itemset]) -> CandidateSet:
    """Self-join of the previous level's frequent itemsets, then the prune.

    Two (k-1)-itemsets sharing their first k-2 items merge into a k-itemset.
    Candidates having any (k-1)-subset absent from `prev` are dropped (no such
    subset could be frequent, so neither can the candidate). The join groups
    `prev` by prefix, as Eclat's prefix classes do: each prefix maps to a bit
    mask of its last items over the dense ranks of the level's last items, not
    their ids. For each left item `a` of a group but the last, the right items
    are the group's later items that also follow `prefix + (a,)` less any one
    prefix item in `prev`: one AND per prefix item, stopping at the first
    empty mask. A level that passes MAX_CANDIDATES raises ResourceLimitError
    after the prefix group that passed it, so the level never holds more than
    the budget and one group. A `Level` is joined as built; any other `prev`
    goes through `plain_id_rows`, which raises ContractViolationError for an
    itemset it refuses before the join runs, and is sorted unless canonical.
    """
    if type(prev) is not Level:
        prev = plain_id_rows(list(prev), "itemset to join")
        if not all(map(operator.lt, prev, itertools.islice(prev, 1, None))):
            prev = sorted(set(prev))
        if len(set(map(len, prev))) > 1:
            raise ContractViolationError("itemsets to join must all have the same size")
    if not prev:
        return CandidateSet(2, ())
    size = len(next(iter(prev)))
    if size < 1:
        raise ContractViolationError("cannot join empty itemsets")
    lasts = sorted({itemset[-1] for itemset in prev})
    rank = {item: r for r, item in enumerate(lasts)}
    masks: dict[Itemset, int] = {}
    for itemset in prev:
        prefix = itemset[:-1]
        masks[prefix] = masks.get(prefix, 0) | 1 << rank[itemset[-1]]
    get = masks.get
    out: list[Itemset] = []
    for prefix, mask in masks.items():
        # Dropping `a` or the right item leaves a parent, in `prev` by
        # construction; dropping each prefix item must leave one too, so the
        # right items lie in the class of each `drop + (a,)`.
        drops = [prefix[:i] + prefix[i + 1 :] for i in range(size - 1)]
        if not drops:  # level 1: one class, (), and no prefix item to drop
            out += itertools.combinations(lasts, 2)
        else:
            while mask & (mask - 1):  # while a left item has a later one
                low = mask & -mask
                mask ^= low
                a = lasts[low.bit_length() - 1]
                allowed = mask
                for drop in drops:
                    allowed &= get(drop + (a,), 0)
                    if not allowed:
                        break
                else:
                    head = prefix + (a,)
                    while allowed:
                        low = allowed & -allowed
                        out.append(head + (lasts[low.bit_length() - 1],))
                        allowed ^= low
        if len(out) > MAX_CANDIDATES:
            raise ResourceLimitError(
                f"the join strategy passed the budget of {MAX_CANDIDATES} "
                f"level-{size + 1} candidates; use a higher min_support"
            )
    return CandidateSet(size + 1, tuple(out))


def generate_candidates_combinations(l1: L1Index, k: int) -> CandidateSet:
    """Every k-combination of the frequent single items, canonical order.

    Asking for more items than the index holds yields an empty set, not an
    error. A level of more than MAX_CANDIDATES combinations raises
    ResourceLimitError before any candidate is built.
    """
    k = plain_int(k, "combination level", ContractViolationError)
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


def count_support_full(
    candidates: CandidateSet | Sequence[Itemset], l1: L1Index
) -> dict[Itemset, int]:
    """`l1.count_all(candidates)`: the classic kernel, called once per level.

    Not exported: `run_apriori` calls it through this module's globals only
    as a hook point, where the benchmark's tracer wraps it.
    """
    return l1.count_all(candidates)


def count_support_restricted(candidate: Itemset, l1: L1Index) -> int:
    """`l1.count(candidate)`: the improved kernel, called once per candidate.

    Not exported: `run_apriori` calls it through this module's globals only
    as a hook point, where the benchmark's tracer wraps it.
    """
    return l1.count(candidate)


def check_threshold(value: int | float, confidence: bool = False) -> int | float:
    """The one threshold rule: `value` as a plain int count of at least 1 (any
    integral number but a bool) or a plain float fraction in (0, 1], numpy's
    float64 included. A `min_confidence` (confidence=True) is a fraction only,
    so an integral 1 reads as 1.0. Anything else raises ConfigurationError.
    """
    name = "min_confidence" if confidence else "min_support"
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if integral and not confidence:
        if value < 1:
            raise ConfigurationError(f"absolute {name} must be at least 1, got {value}")
        return int(value)
    if not (integral or isinstance(value, float)):
        kind = "a float" if confidence else "an int count or float fraction"
        raise ConfigurationError(f"{name} must be {kind}, got {value!r}")
    if not 0.0 < value <= 1.0:
        raise ConfigurationError(f"fractional {name} must lie in (0, 1], got {value}")
    return float(value)


def resolve_min_support(min_support: int | float, num_transactions: int) -> int:
    """Absolute support floor from a `check_threshold` count or fraction.

    Counts pass through as ints. Fractions convert by an exact decimal ceiling
    of fraction * num_transactions, in integers (0.1 of 30 is exactly 3, never
    4), clamped to at least 1.
    """
    threshold = check_threshold(min_support)
    if isinstance(threshold, int):
        return threshold
    num, den = decimal_ratio(threshold)
    return max(1, -(-num * num_transactions // den))


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
    pruned self-join, "combinations" enumerates all k-combinations of frequent
    single items). All variants and strategies return identical itemsets and
    supports; only the ledger differs.
    """
    if variant not in VARIANTS:
        raise ConfigurationError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if candidate_strategy not in CANDIDATE_STRATEGIES:
        raise ConfigurationError(
            f"candidate_strategy must be one of {CANDIDATE_STRATEGIES}, "
            f"got {candidate_strategy!r}"
        )
    support_floor = resolve_min_support(min_support, len(db))
    l1 = compute_l1(db, support_floor)
    levels: dict[int, Level] = {}
    if len(l1):
        levels[1] = Level({(item,): l1.support(item) for item in l1.items})
    k = 2
    while levels.get(k - 1):
        if candidate_strategy == "combinations":
            candidates = generate_candidates_combinations(l1, k)
        else:
            candidates = generate_candidates_join(levels[k - 1])
        if variant == "classic":
            counts = count_support_full(candidates, l1)
        else:
            counts = {c: count_support_restricted(c, l1) for c in candidates}
        # Kept straight into the Level: copying a filtered dict raised the
        # job's peak RSS by about 0.1 MB.
        frequent = Level(
            itertools.compress(counts.items(), map(support_floor.__le__, counts.values()))
        )
        if frequent:
            levels[k] = frequent
        k += 1
    return MiningResult(
        levels=levels,
        # Level 1 is the one full pass, every item of every transaction; each
        # later level is what the index's counts tested.
        ledger=ScanLedger({1: len(db) * db.num_items, **l1.examined}),
        min_support=min_support,
        min_support_count=support_floor,
        variant=variant,
        candidate_strategy=candidate_strategy,
    )
