"""Association-rule generation from mined frequent itemsets."""

import itertools
import operator
from typing import Callable, Iterable, Iterator

from .errors import ContractViolationError, ResourceLimitError
from .errors import decimal_ratio, plain_float, plain_ids, plain_int
from .mining import Itemset, MiningResult, check_threshold

# Most rules one `generate_rules` call keeps. Each n-itemset splits into
# 2**n - 2 candidate rules, so rules can outgrow memory long after the
# itemsets fit; a run stops instead.
MAX_RULES = 1_000_000


class AssociationRule(tuple):
    """Rule antecedent -> consequent with the support of their union.

    A 4-field tuple record `(antecedent, consequent, support, confidence)`:
    it unpacks, indexes and compares like that plain tuple. The sides are
    disjoint `plain_ids` tuples, the support is a plain int of at least 0 and
    the confidence a plain float in [0, 1]: support(both sides) / support(antecedent).
    """

    __slots__ = ()
    __match_args__ = ("antecedent", "consequent", "support", "confidence")

    def __new__(cls, antecedent: Itemset, consequent: Itemset, support: int, confidence: float):
        antecedent = plain_ids(antecedent, "antecedent", error=ContractViolationError)
        consequent = plain_ids(consequent, "consequent", error=ContractViolationError)
        if not antecedent or not consequent:
            raise ContractViolationError("rule sides must be non-empty")
        if not set(antecedent).isdisjoint(consequent):
            raise ContractViolationError("rule sides must be disjoint")
        support = plain_int(support, "support", ContractViolationError)
        if support < 0:
            raise ContractViolationError(f"support must be at least 0, got {support}")
        confidence = plain_float(confidence, "confidence", ContractViolationError)
        if not 0.0 <= confidence <= 1.0:
            raise ContractViolationError(f"confidence must lie in [0, 1], got {confidence}")
        return tuple.__new__(cls, (antecedent, consequent, support, confidence))

    def __reduce__(self):
        # Copies and unpickling, under every pickle protocol, rebuild the
        # record through the checks above (tuple's own reduction would not).
        return type(self), tuple(self)

    antecedent = property(operator.itemgetter(0), doc="Items the rule starts from.")
    consequent = property(operator.itemgetter(1), doc="Items the rule implies.")
    support = property(operator.itemgetter(2), doc="Support of antecedent + consequent.")
    confidence = property(operator.itemgetter(3), doc="support / support(antecedent).")

    @property
    def itemset(self) -> Itemset:
        """The frequent itemset the rule was split from."""
        return tuple(sorted(self[0] + self[1]))

    def __repr__(self) -> str:
        return (
            f"AssociationRule(antecedent={self[0]!r}, consequent={self[1]!r}, "
            f"support={self[2]!r}, confidence={self[3]!r})"
        )


class RuleTable:
    """The rules kept from a mining result: an immutable sequence of AssociationRule.

    `RuleTable(result, min_confidence)`, also named `generate_rules`, keeps
    each rule A -> F\\A, over every frequent itemset F of `result` of size >= 2
    and non-empty proper subset A of F, whose confidence support(F) /
    support(A) is at least min_confidence. The threshold is read as the
    decimal it prints as (0.1 is exactly 1/10) and compared by integer
    cross-multiplication, so boundary confidences never misclassify from
    float rounding. Rules come in (itemset size, itemset, antecedent) order.
    A subset of F missing from `result`, or a support of F below 1 or above a
    subset's, raises ContractViolationError before any rule of F is kept.
    Once the rules kept pass MAX_RULES, ResourceLimitError is raised after the
    itemset that passed it.

    The table holds the result's itemsets once, the very tuples in
    `result.levels`, with their supports, and each rule as three indices into
    them in one `array("I")`: its itemset, antecedent and consequent, 12 bytes
    a rule; `columns` reads these out, immutable. Indexing and iteration
    build each record on the fly, its confidence the float support / support
    of the antecedent. It keeps `result` and `min_confidence` (a plain float
    under `check_threshold`) for its report. A table equals a list or table
    of equal records, and copies and pickles are lists of records, rebuilt
    through their checks.
    """

    __slots__ = ("result", "min_confidence", "_itemsets", "_supports", "_rows")

    def __init__(self, result: MiningResult, min_confidence: float):
        # Imported here so that jobs that make no rules never load this
        # extension module, about 50 KB of resident memory.
        from array import array

        self.result, self.min_confidence = result, check_threshold(min_confidence, confidence=True)
        num, den = decimal_ratio(self.min_confidence)
        levels = [result.levels[size] for size in sorted(result.levels)]
        self._itemsets = itemsets = tuple(itertools.chain.from_iterable(levels))
        self._supports = supports = tuple(
            itertools.chain.from_iterable(level.values() for level in levels)
        )
        index = {itemset: i for i, itemset in enumerate(itemsets)}
        self._rows = rows = array("I")
        budget = 3 * MAX_RULES
        # Levels run contiguously from size 1, whose itemsets split into no rule.
        for size, level in enumerate(levels[1:], 2):
            # Sizes, itemsets and antecedents are each visited in canonical
            # order, so rules come out in (size, itemset, antecedent) order
            # without a sort.
            antecedents_of, consequents_of = _splits(size)
            parts = range(1, size)
            for itemset, support in level.items():
                # Every consequent is the antecedent of another split, so
                # finding every subset first checks downward closure before
                # any rule of the itemset is kept.
                subsets = []
                try:
                    for part in parts:
                        subsets += map(index.__getitem__, itertools.combinations(itemset, part))
                except KeyError as missing:
                    raise ContractViolationError(
                        f"support of antecedent {missing.args[0]} missing from the "
                        "mining result; downward closure violated"
                    ) from None
                # Sizes run upward, so a support bounded by each (size-1)-subset's,
                # the last `size` subsets, is bounded by every subset's: each
                # confidence lies in (0, 1].
                if not 0 < support <= min(map(supports.__getitem__, subsets[-size:])):
                    raise ContractViolationError(f"{itemset}: support under 1 or over a subset's")
                # num * s <= den * support, for the integer support s of an antecedent.
                cap, whole = support * den // num, index[itemset]
                kept = []
                for antecedent, consequent in zip(antecedents_of(subsets), consequents_of(subsets)):
                    if supports[antecedent] <= cap:
                        kept += whole, antecedent, consequent
                rows.extend(kept)
                if len(rows) > budget:
                    raise ResourceLimitError(
                        f"rule generation passed the budget of {MAX_RULES} rules; "
                        "use a higher min_confidence or min_support"
                    )

    @property
    def columns(self) -> tuple[tuple[Itemset, ...], tuple[int, ...], memoryview]:
        """The table as it is held: the result's itemsets, level by level, their
        supports, and a read-only view of the flat `array("I")` of rules, an
        (itemset, antecedent, consequent) triple of indices into both per rule,
        in iteration order."""
        return self._itemsets, self._supports, memoryview(self._rows).toreadonly()

    def __len__(self) -> int:
        return len(self._rows) // 3

    def __iter__(self) -> Iterator[AssociationRule]:
        return self._records(self._rows)

    def __getitem__(self, position: int) -> AssociationRule:
        i = range(len(self))[operator.index(position)]
        (rule,) = self._records(self._rows[3 * i : 3 * i + 3])
        return rule

    def _records(self, rows: Iterable[int]) -> Iterator[AssociationRule]:
        """The records of `rows`, (itemset, antecedent, consequent) index triples."""
        itemsets, supports = self._itemsets, self._supports
        # Splits are non-empty and disjoint, and __init__ bounds each support
        # by 1 and its subsets', so the records skip AssociationRule's checks.
        new = tuple.__new__
        rows = iter(rows)
        for whole, antecedent, consequent in zip(rows, rows, rows):
            support = supports[whole]
            confidence = support / supports[antecedent]
            yield new(
                AssociationRule, (itemsets[antecedent], itemsets[consequent], support, confidence)
            )

    def __eq__(self, other):
        if isinstance(other, (RuleTable, list)):
            return list(self) == list(other)
        return NotImplemented

    def __reduce__(self):
        return list, (list(self),)


# The CLI calls the constructor under this name, through the module, so a
# wrapper set on `rules.generate_rules` sees every rules job.
generate_rules = RuleTable


def _splits(size: int) -> tuple[Callable[[list], tuple], Callable[[list], tuple]]:
    """Getters that take the subsets of a `size`-itemset, listed size by size
    in `itertools.combinations` order, to the antecedents of its splits into two
    non-empty parts in lexicographic order, and to each one's consequent. Within
    that listing, the complement of the subset at j is the one at -1 - j."""
    positions = [p for part in range(1, size) for p in itertools.combinations(range(size), part)]
    order = sorted(range(len(positions)), key=positions.__getitem__)
    return operator.itemgetter(*order), operator.itemgetter(*[-1 - j for j in order])
