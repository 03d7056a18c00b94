"""Association-rule generation from mined frequent itemsets."""

import itertools
import operator
from fractions import Fraction
from typing import Callable

from .errors import ContractViolationError, ResourceLimitError
from .errors import plain_float, plain_ids, plain_int
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


def generate_rules(
    result: MiningResult, min_confidence: float
) -> list[AssociationRule]:
    """All rules A -> F\\A over frequent itemsets F of size >= 2.

    Every non-empty proper subset A of F yields a candidate rule, so each
    n-itemset contributes 2**n - 2 candidates; a rule is kept when
    support(F) / support(A) >= min_confidence. The threshold is read as the
    decimal it prints as (0.1 is exactly 1/10) and compared by integer
    cross-multiplication, so boundary confidences never misclassify from
    float rounding. Output is sorted by (itemset size, itemset, antecedent),
    since `result.levels` holds each level in canonical order. Once the rules
    kept pass MAX_RULES, ResourceLimitError is raised after the itemset that
    passed it, so the list never holds more than the budget and one itemset's
    rules.
    """
    threshold = Fraction(str(check_threshold(min_confidence, confidence=True)))
    num, den = threshold.numerator, threshold.denominator
    # Each frequent itemset maps to (its tuple in `result.levels`, support):
    # one lookup gives a side's support, and rules hold those tuples instead
    # of fresh copies.
    sides = {
        itemset: (itemset, support)
        for level in result.levels.values()
        for itemset, support in level.items()
    }
    # Splits are non-empty, disjoint and kept only at confidence <= 1, so the
    # records skip the constructor's checks.
    new = tuple.__new__
    # Equal (support, antecedent support) pairs divide to equal floats, so
    # the rules of one pair share one confidence float, kept here by support
    # and then by antecedent support.
    shared: dict[int, dict[int, float]] = {}
    out = []
    append = out.append
    for size in sorted(result.levels):
        if size < 2:
            continue
        # Sizes, itemsets and antecedents are each visited in canonical
        # order, so rules come out in (size, itemset, antecedent) order
        # without a sort.
        splits = _splits(size)
        for itemset, support in result.levels[size].items():
            limit = support * den
            confidences = shared.setdefault(support, {})
            for antecedent_of, consequent_of in splits:
                key = antecedent_of(itemset)
                try:
                    antecedent, a_support = sides[key]
                except KeyError:
                    raise ContractViolationError(
                        f"support of antecedent {key} missing from the "
                        "mining result; downward closure violated"
                    ) from None
                if num * a_support <= limit:
                    key = consequent_of(itemset)
                    side = sides.get(key)
                    consequent = key if side is None else side[0]
                    confidence = confidences.get(a_support)
                    if confidence is None:
                        confidence = confidences[a_support] = support / a_support
                    append(new(AssociationRule, (antecedent, consequent, support, confidence)))
            if len(out) > MAX_RULES:
                raise ResourceLimitError(
                    f"rule generation passed the budget of {MAX_RULES} rules; "
                    "use a higher min_confidence or min_support"
                )
    return out


def _splits(size: int) -> list[tuple[Callable[[Itemset], Itemset], Callable[[Itemset], Itemset]]]:
    """(antecedent, consequent) getters of every split of a `size`-itemset into
    two non-empty parts, antecedents in lexicographic order of positions. Each
    getter takes an itemset to the tuple of its items at that part's positions."""
    every = range(size)
    antecedents = sorted(
        a_pos for a_size in range(1, size) for a_pos in itertools.combinations(every, a_size)
    )
    return [
        (_items_at(a_pos), _items_at(tuple(i for i in every if i not in a_pos)))
        for a_pos in antecedents
    ]


def _items_at(positions: tuple[int, ...]) -> Callable[[Itemset], Itemset]:
    """A getter of the items at `positions` (ascending) as a tuple: a slice when
    they are contiguous, since `itemgetter` of one position returns a bare item."""
    first, last = positions[0], positions[-1]
    if last - first + 1 == len(positions):
        return operator.itemgetter(slice(first, last + 1))
    return operator.itemgetter(*positions)
