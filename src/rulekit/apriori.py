"""Level-wise Apriori mining of frequent itemsets.

Candidates of size k are built by joining frequent (k-1)-itemsets that share
a (k-2)-prefix, skipping joins that would put two categories of the same
variable into one itemset (their support is structurally zero), then pruning
any candidate with an infrequent (k-1)-subset. A candidate's support is the
popcount of the AND of its items' bitmaps in the item-major transaction
set. Output is independent of transaction order; the ``threads`` argument
is accepted and has no effect.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Iterator, Mapping

from .errors import ValidationError
from .io_utils import write_csv
from .parallel import run_ordered
from .transactions import TransactionSet, support_count

logger = logging.getLogger(__name__)

Itemset = tuple[int, ...]


@dataclass(frozen=True)
class SupportSpec:
    """Minimum support given either as a fraction of transactions or a count.

    Stated minimums below one transaction are legal; resolution floors the
    threshold at a count of 1 and the resolved count is logged so every run
    is auditable.
    """

    fraction: float | None = None
    count: int | None = None

    def __post_init__(self) -> None:
        if (self.fraction is None) == (self.count is None):
            raise ValidationError("SupportSpec needs exactly one of fraction or count")
        if self.fraction is not None and not 0.0 < self.fraction <= 1.0:
            raise ValidationError(f"support fraction {self.fraction} must be in (0, 1]")
        if self.count is not None and self.count < 1:
            raise ValidationError(f"support count {self.count} must be >= 1")

    @classmethod
    def of_fraction(cls, fraction: float) -> "SupportSpec":
        return cls(fraction=float(fraction))

    @classmethod
    def of_count(cls, count: int) -> "SupportSpec":
        return cls(count=int(count))

    @classmethod
    def parse(cls, value: object) -> "SupportSpec":
        """Config form: an int is an absolute count, a float is a fraction."""
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"cannot parse support spec from {value!r}")
        if isinstance(value, int):
            return cls.of_count(value)
        return cls.of_fraction(value)

    def resolve(self, n_transactions: int) -> int:
        """Minimum support count over n_transactions.

        A fraction resolves to the smallest count >= 1 that reaches it,
        taking the fraction as the decimal it prints as, in exact rational
        arithmetic: 0.07 of 100 resolves to 7 (the float product is
        7.000000000000001).
        """
        if self.count is not None:
            return self.count
        return max(1, math.ceil(Fraction(repr(self.fraction)) * n_transactions))

    def describe(self) -> str:
        if self.count is not None:
            return f"count>={self.count}"
        return f"fraction>={self.fraction}"


@dataclass(frozen=True)
class FrequentItemsets:
    """All itemsets of size <= max_len meeting the resolved support count.

    ``by_level[k]`` lists (itemset, support_count) pairs in lexicographic
    item-id order. Downward closure holds: every (k-1)-subset of a stored
    k-itemset is stored too.
    """

    by_level: Mapping[int, tuple[tuple[Itemset, int], ...]]
    min_support_count: int
    max_len: int
    n_transactions: int

    def __post_init__(self) -> None:
        counts = {}
        for level in self.by_level.values():
            for itemset, count in level:
                counts[itemset] = count
        object.__setattr__(self, "_counts", counts)

    def support(self, itemset: Itemset) -> int | None:
        """Stored support count of an itemset, or None if it is not frequent."""
        return self._counts.get(tuple(sorted(itemset)))  # type: ignore[attr-defined]

    def __iter__(self) -> Iterator[tuple[Itemset, int]]:
        for k in sorted(self.by_level):
            yield from self.by_level[k]

    def __len__(self) -> int:
        return sum(len(level) for level in self.by_level.values())


def _join_candidates(prev_level: list[Itemset], variable_of) -> list[Itemset]:
    """Classic join of lexicographically sorted (k-1)-itemsets.

    Two itemsets sharing their first k-2 items join into a k-candidate; the
    two new last items must come from different variables (the shared prefix
    is already same-variable-free).
    """
    candidates = []
    prev_set = set(prev_level)
    for i, a in enumerate(prev_level):
        for b in prev_level[i + 1 :]:
            if a[:-1] != b[:-1]:
                break
            if variable_of(a[-1]) == variable_of(b[-1]):
                continue
            candidate = a + (b[-1],)
            if all(
                subset in prev_set for subset in combinations(candidate, len(candidate) - 1)
            ):
                candidates.append(candidate)
    return candidates


def mine_frequent(
    ts: TransactionSet,
    min_support: SupportSpec,
    max_len: int,
    threads: int = 1,
) -> FrequentItemsets:
    """Mine all frequent itemsets of size <= max_len."""
    if max_len < 1:
        raise ValidationError(f"max_len must be >= 1, got {max_len}")
    n = ts.n_transactions
    threshold = min_support.resolve(n)
    logger.info(
        "min support %s resolved to count >= %d over %d transactions",
        min_support.describe(),
        threshold,
        n,
    )
    if threshold > n:
        logger.warning(
            "resolved support count %d exceeds the %d transactions; no itemset can qualify",
            threshold,
            n,
        )
        return FrequentItemsets(
            by_level={}, min_support_count=threshold, max_len=max_len, n_transactions=n
        )

    by_level: dict[int, tuple[tuple[Itemset, int], ...]] = {}
    singles = [
        ((item_id,), support_count(ts, (item_id,))) for item_id in range(len(ts.universe))
    ]
    level = [(iset, c) for iset, c in singles if c >= threshold]
    k = 1
    while level and k <= max_len:
        by_level[k] = tuple(level)
        if k == max_len:
            break
        candidates = _join_candidates([iset for iset, _ in level], ts.universe.variable_of)
        counts = run_ordered(lambda c: support_count(ts, c), candidates, threads)
        level = sorted(
            (iset, c) for iset, c in zip(candidates, counts) if c >= threshold
        )
        k += 1
    return FrequentItemsets(
        by_level=by_level, min_support_count=threshold, max_len=max_len, n_transactions=n
    )


def dump_itemsets(freq: FrequentItemsets, ts: TransactionSet, sink: str | Path) -> Path:
    """CSV dump with columns (level, items, support_count, support_fraction)."""
    rows = []
    for itemset, count in freq:
        tokens = " ".join(ts.universe.token(i) for i in itemset)
        rows.append([len(itemset), tokens, count, repr(count / freq.n_transactions)])
    return write_csv(sink, ["level", "items", "support_count", "support_fraction"], rows)
