"""Independent brute-force oracles and randomized-corpus helpers.

Nothing here shares code with the mining path: supports come from direct
set-containment over all transactions, and frequent itemsets from exhaustive
enumeration of every transaction's subsets. The reference generator draws
each row with its own `Generator.choice` call and interns through ingestion.
"""

import io
import random
from collections import Counter
from itertools import combinations

from tidmine.dataset import ZIPF_EXPONENT, GeneratorConfig, TransactionDb, load_transactions


def iset(db, spec: str) -> tuple[int, ...]:
    """Canonical id tuple for a token string like "I1 I2"."""
    return tuple(sorted(db.item_id(tok) for tok in spec.split()))


def tids(*one_based: int) -> tuple[int, ...]:
    """0-based transaction ids from 1-based labels (T1, T2, ...)."""
    return tuple(t - 1 for t in one_based)


def bruteforce_support(db, itemset) -> int:
    want = set(itemset)
    return sum(1 for txn in db.transactions if want.issubset(txn))


def bruteforce_frequent(db, min_support: int) -> dict[tuple[int, ...], int]:
    """Every frequent itemset with its support, by exhaustive enumeration."""
    counts: Counter = Counter()
    for txn in db.transactions:
        for size in range(1, len(txn) + 1):
            counts.update(combinations(txn, size))
    return {s: c for s, c in counts.items() if c >= min_support}


def random_db(rng: random.Random, max_items: int = 12, max_transactions: int = 30) -> TransactionDb:
    """A small random database within the given caps, built through ingestion
    so ids follow the first-seen intern order."""
    num_items = rng.randint(2, max_items)
    n = rng.randint(1, max_transactions)
    lines = []
    for _ in range(n):
        length = rng.randint(1, num_items)
        lines.append(" ".join(f"X{i}" for i in rng.sample(range(num_items), length)))
    return load_transactions(io.StringIO("\n".join(lines) + "\n"))


def reference_synthetic(config: GeneratorConfig) -> TransactionDb:
    """`generate_synthetic`'s database, one `rng.choice` call per row, each row
    written as "I{index + 1}" tokens in ascending index order and loaded."""
    import numpy as np

    rng = np.random.default_rng(config.seed)
    weights = 1.0 / (np.arange(config.num_items) + 1.0) ** ZIPF_EXPONENT
    weights /= weights.sum()
    lengths = np.clip(
        rng.geometric(min(1.0, 1.0 / config.avg_transaction_len), size=config.num_transactions),
        1,
        config.num_items,
    )
    lines = []
    for length in lengths:
        chosen = rng.choice(config.num_items, size=int(length), replace=False, p=weights)
        lines.append(" ".join(f"I{idx + 1}" for idx in sorted(chosen)))
    return load_transactions(io.StringIO("\n".join(lines) + "\n"))
