"""Association-rule generation from mined frequent itemsets."""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigurationError, ContractViolationError
from .mining import Itemset, MiningResult


@dataclass(frozen=True, slots=True)
class AssociationRule:
    """Rule antecedent -> consequent with the support of their union.

    confidence = support(antecedent + consequent) / support(antecedent).
    """

    antecedent: Itemset
    consequent: Itemset
    support: int
    confidence: float

    def __post_init__(self):
        if not self.antecedent or not self.consequent:
            raise ContractViolationError("rule sides must be non-empty")
        if not set(self.antecedent).isdisjoint(self.consequent):
            raise ContractViolationError("rule sides must be disjoint")
        if not 0.0 <= self.confidence <= 1.0:
            raise ContractViolationError(
                f"confidence must lie in [0, 1], got {self.confidence}"
            )

    @property
    def itemset(self) -> Itemset:
        """The frequent itemset the rule was split from."""
        return tuple(sorted(self.antecedent + self.consequent))


def check_min_confidence(min_confidence: float) -> float:
    """`min_confidence` itself, once it is known to lie in (0, 1]."""
    if not 0.0 < min_confidence <= 1.0:
        raise ConfigurationError(f"min_confidence must lie in (0, 1], got {min_confidence}")
    return min_confidence


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
    since `result.levels` holds each level in canonical order.
    """
    threshold = Fraction(str(check_min_confidence(min_confidence)))
    num, den = threshold.numerator, threshold.denominator
    out = []
    for size in sorted(result.levels):
        if size < 2:
            continue
        # Sizes, itemsets and antecedent positions are each visited in
        # canonical order, so rules come out in (size, itemset, antecedent)
        # order without a sort.
        splits = [
            (a_pos, c_pos, result.levels[len(a_pos)])
            for a_pos, c_pos in _split_positions(size)
        ]
        for itemset, support in result.levels[size].items():
            at = itemset.__getitem__
            for a_pos, c_pos, a_level in splits:
                antecedent = tuple(map(at, a_pos))
                try:
                    a_support = a_level[antecedent]
                except KeyError:
                    raise ContractViolationError(
                        f"support of antecedent {antecedent} missing from the "
                        "mining result; downward closure violated"
                    ) from None
                if support * den >= num * a_support:
                    out.append(
                        AssociationRule(
                            antecedent, tuple(map(at, c_pos)), support, support / a_support
                        )
                    )
    return out


def _split_positions(size: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(antecedent, consequent) positions of every split of a `size`-itemset
    into two non-empty parts, antecedents in lexicographic order."""
    every = range(size)
    antecedents = sorted(
        a_pos for a_size in range(1, size) for a_pos in itertools.combinations(every, a_size)
    )
    return [(a_pos, tuple(i for i in every if i not in a_pos)) for a_pos in antecedents]
