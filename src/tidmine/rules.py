"""Association-rule generation from mined frequent itemsets."""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigurationError, ContractViolationError
from .mining import Itemset, MiningResult


@dataclass(frozen=True)
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
        if set(self.antecedent) & set(self.consequent):
            raise ContractViolationError("rule sides must be disjoint")
        if not 0.0 <= self.confidence <= 1.0:
            raise ContractViolationError(
                f"confidence must lie in [0, 1], got {self.confidence}"
            )

    @property
    def itemset(self) -> Itemset:
        """The frequent itemset the rule was split from."""
        return tuple(sorted(self.antecedent + self.consequent))


def generate_rules(
    result: MiningResult, min_confidence: float
) -> list[AssociationRule]:
    """All rules A -> F\\A over frequent itemsets F of size >= 2.

    Every non-empty proper subset A of F yields a candidate rule, so each
    n-itemset contributes 2**n - 2 candidates; a rule is kept when
    support(F) / support(A) >= min_confidence. The threshold is read as the
    decimal it prints as (0.1 is exactly 1/10) and compared by integer
    cross-multiplication, so boundary confidences never misclassify from
    float rounding. Output is sorted by (itemset size, itemset, antecedent).
    """
    if not 0.0 < min_confidence <= 1.0:
        raise ConfigurationError(
            f"min_confidence must lie in (0, 1], got {min_confidence}"
        )
    threshold = Fraction(str(min_confidence))
    num, den = threshold.numerator, threshold.denominator
    out = []
    for size in sorted(result.levels):
        if size < 2:
            continue
        for itemset, support in result.levels[size].items():
            for a_size in range(1, size):
                for antecedent in itertools.combinations(itemset, a_size):
                    a_support = result.support_of(antecedent)
                    if a_support is None:
                        raise ContractViolationError(
                            f"support of antecedent {antecedent} missing from the "
                            "mining result; downward closure violated"
                        )
                    if support * den >= num * a_support:
                        members = set(antecedent)
                        consequent = tuple(i for i in itemset if i not in members)
                        out.append(
                            AssociationRule(
                                antecedent, consequent, support, support / a_support
                            )
                        )
    out.sort(key=lambda rule: (len(rule.itemset), rule.itemset, rule.antecedent))
    return out
