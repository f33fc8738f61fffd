"""Level-wise Apriori mining of frequent itemsets.

Each level is one sorted ``(m, k)`` array of item ids, and every step works
on whole arrays. Candidates of size k + 1 join the pairs of rows that share
their first k - 1 items, skipping pairs whose two last items belong to the
same variable (their support is structurally zero). A candidate survives
the prune only if each of its k-subsets is a row of the level, found by
binary search over byte keys whose order is the rows' lexicographic order.
A candidate's support is the popcount of the AND of its items' bitmaps in
the item-major transaction set. A level is extended a chunk of rows at a
time (join, prune and count together), so the buffers stay bounded however
many candidates a level has. Output is independent of transaction order and
of the chunk size.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .errors import ValidationError
from .io_utils import write_csv
from .parallel import run_ordered
# support_count is not called here, but perfbench/tracer.py patches it (and
# run_ordered) by name in this module.
from .transactions import TransactionSet, support_count  # noqa: F401

logger = logging.getLogger(__name__)

Itemset = tuple[int, ...]

# 64-bit words of candidate bitmaps ANDed at once (1 MiB): a level is
# extended a chunk of about _CHUNK_WORDS / n_words joined pairs at a time, so
# the join, prune and count buffers stay bounded whatever the level size.
_CHUNK_WORDS = 1 << 17


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

    ``levels[k]`` is the miner's sorted ``(m, k)`` array of item ids with its
    ``(m,)`` array of support counts; the rule stage reads only these.
    ``by_level[k]`` lists the same (itemset, support_count) pairs as Python
    tuples, in lexicographic item-id order. A caller that passes only
    ``by_level`` gets ``levels`` built from it. The lookup behind ``entry``
    and ``support`` is built on first use. Downward closure holds: every
    (k-1)-subset of a stored k-itemset is stored too.
    """

    by_level: Mapping[int, tuple[tuple[Itemset, int], ...]]
    min_support_count: int
    max_len: int
    n_transactions: int
    levels: Mapping[int, tuple[np.ndarray, np.ndarray]] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.levels is None:
            levels = {
                k: (np.array([i for i, _ in level], dtype=np.int64).reshape(-1, k),
                    np.array([c for _, c in level], dtype=np.int64))
                for k, level in self.by_level.items()
            }
            object.__setattr__(self, "levels", levels)

    @cached_property
    def _entries(self) -> dict[Itemset, tuple[Itemset, int]]:
        return {entry[0]: entry for level in self.by_level.values() for entry in level}

    def entry(self, itemset: Itemset) -> tuple[Itemset, int] | None:
        """The stored (itemset, support_count) pair, or None if the itemset is
        not frequent. Its itemset is the sorted tuple that ``by_level`` holds,
        so callers can keep a reference instead of a copy."""
        return self._entries.get(tuple(sorted(itemset)))

    def support(self, itemset: Itemset) -> int | None:
        """Stored support count of an itemset, or None if it is not frequent."""
        entry = self.entry(itemset)
        return None if entry is None else entry[1]

    def __iter__(self) -> Iterator[tuple[Itemset, int]]:
        for k in sorted(self.by_level):
            yield from self.by_level[k]

    def __len__(self) -> int:
        return sum(len(level) for level in self.by_level.values())


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One key per row, ordered as the rows are lexicographically.

    Items are written big-endian, so comparing keys byte by byte compares
    the rows item by item; unlike a mixed-radix integer, a key cannot
    overflow at any universe size or itemset length. A row of at most 8
    bytes is read as one unsigned integer instead, which numpy compares
    much faster than a byte string.
    """
    big_endian = np.ascontiguousarray(rows, dtype=rows.dtype.newbyteorder(">"))
    width = big_endian.itemsize * big_endian.shape[1]
    if width > 8:
        return big_endian.view(np.dtype((np.void, width)))[:, 0]
    padded = np.zeros((len(rows), 8), np.uint8)
    padded[:, 8 - width :] = big_endian.view(np.uint8).reshape(len(rows), width)
    return padded.view(">u8")[:, 0].astype(np.uint64)


def _locate(keys: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each row would sit among sorted ``_row_keys``, and whether it
    is there."""
    if not len(keys):
        return np.zeros(len(rows), np.intp), np.zeros(len(rows), bool)
    row_keys = _row_keys(rows)
    at = np.minimum(np.searchsorted(keys, row_keys), len(keys) - 1)
    return at, keys[at] == row_keys


def _candidates(
    level: np.ndarray, keys: np.ndarray, partners: np.ndarray, variable: np.ndarray, rows: range
) -> np.ndarray:
    """The (k + 1)-candidates that the given rows of a sorted level of
    frequent k-itemsets head.

    Row i joins each later row j of its prefix group (the ``partners[i]``
    rows after it that share its first k - 1 items) into level[i] plus
    level[j]'s last item, which must belong to another variable (the shared
    prefix is already same-variable-free). Pairs come out ordered by (i, j),
    which is the candidates' lexicographic order. A candidate is kept only
    if every k-subset is a row of the level; the two subsets that drop one
    of the last two items are level[j] and level[i] themselves.
    """
    k = level.shape[1]
    counts = partners[rows.start : rows.stop]
    left = np.repeat(np.arange(rows.start, rows.stop), counts)
    right = left + 1 + np.arange(len(left)) - np.repeat(np.cumsum(counts) - counts, counts)
    differ = variable[level[left, -1]] != variable[level[right, -1]]
    left, right = left[differ], right[differ]
    candidates = np.concatenate((level[left], level[right, -1:]), axis=1)
    keep = np.ones(len(candidates), dtype=bool)
    for drop in range(k - 1):
        keep &= _locate(keys, np.delete(candidates, drop, axis=1))[1]
    return candidates[keep]


def _extend(
    level: np.ndarray,
    keys: np.ndarray,
    partners: np.ndarray,
    variable: np.ndarray,
    bitmaps: np.ndarray,
    threshold: int,
    rows: range,
) -> tuple[np.ndarray, np.ndarray]:
    """The frequent candidates the rows head, with their support counts: the
    popcount of the AND of the candidate's item bitmaps."""
    candidates = _candidates(level, keys, partners, variable, rows)
    hits = bitmaps[candidates[:, 0]]
    for column in candidates.T[1:]:
        hits &= bitmaps[column]
    support = np.bitwise_count(hits).sum(axis=1, dtype=np.int64)
    frequent = support >= threshold
    return candidates[frequent], support[frequent]


def _next_level(
    ts: TransactionSet, level: np.ndarray, variable: np.ndarray, threshold: int
) -> tuple[np.ndarray, np.ndarray]:
    """The frequent (k + 1)-itemsets and their counts, from a sorted level of
    frequent k-itemsets, extended one chunk of rows at a time."""
    m = len(level)
    starts = np.flatnonzero(
        np.concatenate(([True], (level[1:, :-1] != level[:-1, :-1]).any(axis=1)))
    )
    group_end = np.repeat(np.append(starts[1:], m), np.diff(np.append(starts, m)))
    partners = group_end - np.arange(m) - 1
    pairs_before = np.cumsum(partners) - partners
    chunk_pairs = max(1, _CHUNK_WORDS // ts.bitmaps.shape[1])
    cuts = np.arange(chunk_pairs, pairs_before[-1] + 1, chunk_pairs)
    bounds = [0, *np.unique(np.searchsorted(pairs_before, cuts)).tolist(), m]
    extend = partial(_extend, level, _row_keys(level), partners, variable, ts.bitmaps, threshold)
    parts = run_ordered(extend, [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])])
    return (
        np.concatenate([rows for rows, _ in parts]),
        np.concatenate([counts for _, counts in parts]),
    )


def mine_frequent(ts: TransactionSet, min_support: SupportSpec, max_len: int) -> FrequentItemsets:
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

    n_items = len(ts.universe)
    _, variable = np.unique(
        [ts.universe.variable_of(i) for i in range(n_items)], return_inverse=True
    )
    counts = np.bitwise_count(ts.bitmaps).sum(axis=1, dtype=np.int64)
    frequent = counts >= threshold
    level = np.flatnonzero(frequent).astype(np.min_scalar_type(max(n_items - 1, 0)))[:, None]
    counts = counts[frequent]
    by_level: dict[int, tuple[tuple[Itemset, int], ...]] = {}
    levels: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    k = 1
    while len(level) and k <= max_len:
        levels[k] = level, counts
        by_level[k] = tuple(zip(zip(*level.T.tolist()), counts.tolist()))
        if k == max_len:
            break
        level, counts = _next_level(ts, level, variable, threshold)
        k += 1
    return FrequentItemsets(
        by_level=by_level,
        min_support_count=threshold,
        max_len=max_len,
        n_transactions=n,
        levels=levels,
    )


def dump_itemsets(freq: FrequentItemsets, ts: TransactionSet, sink: str | Path) -> Path:
    """CSV dump with columns (level, items, support_count, support_fraction)."""
    rows = []
    for itemset, count in freq:
        tokens = " ".join(ts.universe.token(i) for i in itemset)
        rows.append([len(itemset), tokens, count, repr(count / freq.n_transactions)])
    return write_csv(sink, ["level", "items", "support_count", "support_fraction"], rows)
