"""Reference results for checking tidmine's output, independent of tidmine.

Supports come from Python ``int`` bitmasks over transaction indices: one mask
per item, and an itemset's support is the popcount of the AND of its members'
masks. Frequent itemsets come from a depth-first search over those masks, so
no code here is shared with ``tidmine.mining``; the brute-force oracle in the
test suite enumerates every subset of each transaction and cannot handle
transactions that hold all 50 items.
"""

import itertools
import math
from fractions import Fraction


class Reference:
    """Frequent itemsets, candidate sets, ledgers and rules of one input text.

    Item ids follow tidmine's documented interning: tokens get dense ids in
    first-seen order, reading lines top to bottom and tokens left to right.
    Itemsets are ascending id tuples.
    """

    def __init__(self, text: str, min_support: str):
        self.tokens: list[str] = []
        id_of: dict[str, int] = {}
        rows_of: list[list[int]] = []
        n = 0
        for line in text.splitlines():
            parts = line.split()
            if not parts:
                continue
            for tok in parts:
                item = id_of.get(tok)
                if item is None:
                    item = id_of[tok] = len(self.tokens)
                    self.tokens.append(tok)
                    rows_of.append([])
                rows_of[item].append(n)
            n += 1
        masks = [_bitmask(rows, n) for rows in rows_of]
        self.num_transactions = n
        self.min_support_count = resolve_min_support(min_support, n)
        self.item_support = [m.bit_count() for m in masks]
        frequent_items = [
            i for i, s in enumerate(self.item_support) if s >= self.min_support_count
        ]
        self.levels: dict[int, dict[tuple[int, ...], int]] = {}
        self._search((), 0, frequent_items, masks)
        self.levels = {k: dict(sorted(self.levels[k].items())) for k in sorted(self.levels)}

    def _search(self, prefix, mask, items, masks):
        """Extend ``prefix`` by each of ``items`` (ascending ids) in turn."""
        for pos, item in enumerate(items):
            joined = masks[item] if not prefix else mask & masks[item]
            support = joined.bit_count()
            if support < self.min_support_count:
                continue
            itemset = prefix + (item,)
            self.levels.setdefault(len(itemset), {})[itemset] = support
            self._search(itemset, joined, items[pos + 1 :], masks)

    def candidates(self, strategy: str) -> dict[int, list[tuple[int, ...]]]:
        """Level k -> the candidates counted at level k, for k >= 2.

        Mining goes on while level k-1 has frequent itemsets; a level whose
        candidate set is empty counts nothing and records no ledger entry.
        """
        out = {}
        l1 = [itemset[0] for itemset in self.levels.get(1, {})]
        k = 2
        while self.levels.get(k - 1):
            if strategy == "combinations":
                cands = list(itertools.combinations(l1, k))
            elif strategy == "join":
                cands = apriori_gen(list(self.levels[k - 1]))
            else:
                raise ValueError(f"no reference for candidate strategy {strategy!r}")
            if cands:
                out[k] = cands
            k += 1
        return out

    def ledgers(self, strategy: str) -> dict[str, dict[int, int]]:
        """Expected scan ledgers of both counting variants.

        Level 1 is one full pass: transactions times distinct items. Classic
        level k examines every transaction per candidate. Improved level k
        examines, per candidate, the TID list of its lowest-support member,
        ties going to the smaller id.
        """
        n = self.num_transactions
        classic = {1: n * len(self.tokens)}
        improved = dict(classic)
        for k, cands in self.candidates(strategy).items():
            classic[k] = len(cands) * n
            improved[k] = sum(
                min((self.item_support[i], i) for i in cand)[0] for cand in cands
            )
        return {"classic": classic, "improved": improved}

    def rules(self, min_confidence: str) -> list[tuple[tuple, tuple, int, int]]:
        """(antecedent, consequent, support, antecedent support) of every rule
        A -> F\\A with support(F) / support(A) >= min_confidence, compared
        exactly, ordered by (size of F, F, A)."""
        floor = Fraction(min_confidence)
        out = []
        for size in sorted(self.levels):
            if size < 2:
                continue
            for itemset, support in self.levels[size].items():
                for a_size in range(1, size):
                    for antecedent in itertools.combinations(itemset, a_size):
                        a_support = self.levels[a_size][antecedent]
                        if support * floor.denominator >= floor.numerator * a_support:
                            consequent = tuple(i for i in itemset if i not in antecedent)
                            out.append((antecedent, consequent, support, a_support))
        out.sort(key=lambda rule: (len(rule[0]) + len(rule[1]), tuple(sorted(rule[0] + rule[1])), rule[0]))
        return out

    def names(self, itemset) -> list[str]:
        return [self.tokens[i] for i in itemset]


def _bitmask(rows: list[int], n: int) -> int:
    """Bit t set for every transaction index t in ``rows``."""
    buf = bytearray((n + 7) // 8)
    for t in rows:
        buf[t >> 3] |= 1 << (t & 7)
    return int.from_bytes(buf, "little")


def resolve_min_support(text: str, num_transactions: int) -> int:
    """Absolute support floor: an integer count, or a decimal fraction of the
    database rounded up exactly."""
    if "." not in text:
        return int(text)
    return max(1, math.ceil(Fraction(text) * num_transactions))


def apriori_gen(prev: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Join (k-1)-itemsets that share their first k-2 items, then drop every
    candidate with a (k-1)-subset outside ``prev``."""
    prev = sorted(prev)
    known = set(prev)
    out = []
    for i, left in enumerate(prev):
        for right in prev[i + 1 :]:
            if left[:-1] != right[:-1]:
                break
            cand = left + (right[-1],)
            if all(sub in known for sub in itertools.combinations(cand, len(cand) - 1)):
                out.append(cand)
    return out
