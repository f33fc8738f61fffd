"""Association rules: scoring, consequent-constrained generation, pruning, ranking.

A rule X -> Y pairs an antecedent itemset X with a single consequent item Y,
disjoint from X. Metrics come straight from integer counts:

    support     S = count(X and Y) / n
    confidence  C = count(X and Y) / count(X)
    lift        L = C / (count(Y) / n)

A rule is worth keeping only when it clears the per-case thresholds; lift
above 1 marks a positive association. Redundant rules (dominated by a
simpler rule with a subset antecedent, the same consequent and at least the
same confidence) are pruned before ranking by descending lift.

Generation reads the miner's level arrays into a ``RuleTable`` of columns,
which the prune and the ranking sort and search whole; only the top k
become ``Rule`` objects. Metrics are float64 divisions of int64 counts: the
doubles ``score()`` gives for n <= 94,906,265 transactions, and a larger n
is refused.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .apriori import FrequentItemsets, SupportSpec, _locate, _row_keys, mine_frequent
from .errors import ValidationError
from .io_utils import write_csv, write_json
from .transactions import Item, ItemUniverse, TransactionSet, item_token

logger = logging.getLogger(__name__)


def score(n: int, count_x: int, count_y: int, count_xy: int) -> tuple[float, float, float]:
    """Support, confidence, and lift from raw co-occurrence counts.

    Each value is a single correctly-rounded double of the exact rational
    (the lift numerator and denominator are formed in exact integer
    arithmetic before the one division).
    """
    if count_x <= 0 or count_y <= 0:
        raise ValidationError("confidence and lift are undefined when count_x or count_y is 0")
    if count_x > n or count_y > n:
        raise ValidationError("item counts cannot exceed the transaction total")
    if not 0 <= count_xy <= min(count_x, count_y):
        raise ValidationError(
            f"joint count {count_xy} must lie in [0, min({count_x}, {count_y})]"
        )
    support = count_xy / n
    confidence = count_xy / count_x
    lift = (count_xy * n) / (count_x * count_y)
    return support, confidence, lift


@dataclass(frozen=True)
class Rule:
    """One mined rule with its metrics; id is assigned after ranking."""

    id: str | None
    antecedent: tuple[int, ...]
    consequent: int
    joint_count: int
    support: float
    confidence: float
    lift: float

    def __post_init__(self) -> None:
        if self.consequent in self.antecedent:
            raise ValidationError("antecedent and consequent must be disjoint")

    def antecedent_tokens(self, universe: ItemUniverse) -> tuple[str, ...]:
        return tuple(universe.token(i) for i in self.antecedent)

    def antecedent_label(self, universe: ItemUniverse) -> str:
        return "{" + ", ".join(self.antecedent_tokens(universe)) + "}"


@dataclass(frozen=True)
class MiningCase:
    """Thresholds and the fixed consequent for one mining run.

    ``consequent`` is a single (variable, category) item; None runs the
    unconstrained variant in which every item is tried as the consequent
    (useful for support/confidence/lift overview plots).
    """

    name: str
    consequent: Item | None
    min_support: SupportSpec
    min_confidence: float
    min_lift: float = 1.1
    max_rule_items: int = 4
    top_k: int = 20

    def __post_init__(self) -> None:
        if not 0.0 < self.min_confidence <= 1.0:
            raise ValidationError(f"min_confidence {self.min_confidence} must be in (0, 1]")
        if self.min_lift < 0.0:
            raise ValidationError(f"min_lift {self.min_lift} must be >= 0")
        if self.max_rule_items < 2:
            raise ValidationError("max_rule_items must be >= 2 (antecedent plus consequent)")
        if self.top_k < 0:
            raise ValidationError("top_k must be >= 0")

    def describe(self) -> dict:
        return {
            "name": self.name,
            "consequent": item_token(self.consequent) if self.consequent else None,
            "min_support": self.min_support.describe(),
            "min_confidence": self.min_confidence,
            "min_lift": self.min_lift,
            "max_rule_items": self.max_rule_items,
            "top_k": self.top_k,
        }


@dataclass(frozen=True, eq=False)
class RuleTable(Sequence):
    """Rules as columns, one row per rule; a ``Rule`` is built only when a row
    is read. ``antecedent`` is ``(R, w)``: a row's item ids, then -1s. The
    table equals any sequence of equal rules in the same order."""

    antecedent: np.ndarray
    consequent: np.ndarray
    joint_count: np.ndarray
    support: np.ndarray
    confidence: np.ndarray
    lift: np.ndarray

    @classmethod
    def from_rules(cls, rules: Sequence[Rule]) -> RuleTable:
        """The rules as a table; a table is returned as it is."""
        if isinstance(rules, RuleTable):
            return rules
        w = max((len(r.antecedent) for r in rules), default=0)
        ints = [(*r.antecedent, *[-1] * (w - len(r.antecedent)), r.consequent, r.joint_count)
                for r in rules]
        ints = np.array(ints, np.int64).reshape(len(rules), w + 2)
        metrics = np.array([(r.support, r.confidence, r.lift) for r in rules], np.float64)
        return cls(ints[:, :w], *ints[:, w:].T, *metrics.reshape(len(rules), 3).T)

    def take(self, index: np.ndarray) -> RuleTable:
        return RuleTable(*(column[index] for column in vars(self).values()))

    def rules(self, index: np.ndarray | slice, ids: Sequence[str | None]) -> list[Rule]:
        """The ``Rule``s of the given rows, holding Python ints and floats."""
        columns = (column[index].tolist() for column in vars(self).values())
        return [
            Rule(id, tuple(i for i in items if i >= 0), *rest)
            for id, items, *rest in zip(ids, *columns)
        ]

    def __len__(self) -> int:
        return len(self.consequent)

    def __getitem__(self, i: int) -> Rule:
        return self.rules([i], [None])[0]

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules(slice(None), [None] * len(self)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


# The largest n with n * n <= 2**53: every count product is then an exact
# double, and one float64 division rounds as score()'s exact one does.
MAX_EXACT_TRANSACTIONS = 94_906_265


def _scores(
    n: int, count_x: np.ndarray, count_y: np.ndarray, count_xy: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """score() over int64 count arrays, bit for bit while n <= 94,906,265."""
    lift = (count_xy * n).astype(np.float64) / (count_x * count_y).astype(np.float64)
    return count_xy / np.float64(n), count_xy / count_x.astype(np.float64), lift


def generate_rules(freq: FrequentItemsets, ts: TransactionSet, case: MiningCase) -> RuleTable:
    """Emit every rule (Z without Y) -> Y from frequent itemsets Z of two or
    more items containing Y.

    A rule survives when its joint count meets the case's resolved support
    threshold and confidence and lift clear their minimums (both inclusive).
    Rules are ordered by (consequent, level, itemset).
    """
    n = ts.n_transactions
    if n > MAX_EXACT_TRANSACTIONS:
        raise ValidationError(f"rule metrics are exact up to {MAX_EXACT_TRANSACTIONS} records")
    threshold = case.min_support.resolve(n)
    count_y = np.zeros(len(ts.universe), dtype=np.int64)
    if 1 in freq.levels:
        count_y[freq.levels[1][0][:, 0]] = freq.levels[1][1]
    if case.consequent is not None:
        y = ts.universe.item_id(*case.consequent)
        if not count_y[y]:
            logger.warning(
                "consequent %s is not frequent at resolved support count %d; no rules",
                ts.universe.token(y),
                threshold,
            )
        count_y[np.arange(len(count_y)) != y] = 0

    # Column j of a level's rows is the consequent and the other columns the
    # antecedent, found in the level below. A rule's position is its
    # itemset's rank in the lattice.
    levels = [k for k in sorted(freq.levels) if 2 <= k <= case.max_rule_items]
    width = max(levels, default=1) - 1
    parts = [(np.empty((0, width), np.int64),) + (np.empty(0, np.int64),) * 4]
    offset = 0
    for k in levels:
        items, counts = freq.levels[k]
        rows = np.flatnonzero(counts >= threshold)
        below, below_counts = freq.levels[k - 1]
        below_keys = _row_keys(below)
        for j in range(k):
            with_y = rows[count_y[items[rows, j]] > 0]
            antecedent = np.delete(items[with_y], j, axis=1)
            at, found = _locate(below_keys, antecedent)
            if not found.all():
                raise ValidationError(
                    "frequent itemsets are missing an antecedent subset; "
                    "they were mined at a different threshold"
                )
            count_x = below_counts[at]
            padded = np.full((len(with_y), width), -1, np.int64)
            padded[:, : k - 1] = antecedent
            parts.append((padded, items[with_y, j], count_x, counts[with_y], offset + with_y))
        offset += len(items)
    antecedent, consequent, count_x, count_xy, position = map(np.concatenate, zip(*parts))
    support, confidence, lift = _scores(n, count_x, count_y[consequent], count_xy)
    index = np.flatnonzero((confidence >= case.min_confidence) & (lift >= case.min_lift))
    index = index[np.lexsort((position[index], consequent[index]))]
    table = RuleTable(antecedent, consequent, count_xy, support, confidence, lift)
    return table.take(index)


def prune_redundant(rules: Sequence[Rule]) -> Sequence[Rule]:
    """Drop rules dominated by a simpler rule with the same consequent.

    X -> Y is removed iff some X' -> Y in the input has X' a strict subset
    of X and confidence at least as high. Each rule looks up the best
    confidence of its proper-subset (consequent, antecedent) keys, one
    search per antecedent length and subset pattern. A table comes back as
    a table, a sequence as a list of its kept rules, in input order.
    """
    table = RuleTable.from_rules(rules)
    # key: consequent, then the antecedent ids + 1 in descending order, 0-padded
    keys = np.column_stack((table.consequent, -np.sort(-1 - table.antecedent, axis=1)))
    keys = keys.astype(np.min_scalar_type(int(keys.max(initial=0))))
    row_keys = _row_keys(keys)
    order = np.argsort(row_keys, kind="stable")
    new = row_keys[order[1:]] != row_keys[order[:-1]]
    starts = np.flatnonzero(np.concatenate(([len(keys) > 0], new)))
    unique_keys = row_keys[order[starts]]
    best = np.maximum.reduceat(table.confidence[order], starts)
    lengths = (keys[:, 1:] > 0).sum(axis=1)
    dominated = np.zeros(len(keys), dtype=bool)
    for length in np.unique(lengths).tolist():
        rows = np.flatnonzero(lengths == length)
        own, confidence = keys[rows], table.confidence[rows]
        hit = np.zeros(len(rows), dtype=bool)
        for size in range(length):
            for pattern in combinations(range(1, length + 1), size):
                subsets = np.zeros_like(own)
                subsets[:, : size + 1] = own[:, (0, *pattern)]
                at, found = _locate(unique_keys, subsets)
                hit |= found & (best[at] >= confidence)
        dominated[rows] = hit
    kept = np.flatnonzero(~dominated)
    return table.take(kept) if table is rules else [rules[i] for i in kept]


def rank_rules(rules: Sequence[Rule], top_k: int) -> list[Rule]:
    """Rank by lift desc, then confidence, support, and antecedent item ids.

    The order is total, so ranking is invariant to the input permutation;
    antecedents padded with -1 sort as tuples do, a prefix first. Ids
    "R1".."Rk" are assigned in final order; only the top_k become ``Rule``s.
    """
    if top_k < 0:
        raise ValidationError("top_k must be >= 0")
    t = RuleTable.from_rules(rules)
    keys = (t.consequent, *t.antecedent.T[::-1], -t.support, -t.confidence, -t.lift)
    top = np.lexsort(keys)[:top_k]
    return t.rules(top, [f"R{i + 1}" for i in range(len(top))])


@dataclass(frozen=True)
class CaseResult:
    """Ranked rules plus run metadata for one mining case."""

    case: MiningCase
    rules: tuple[Rule, ...]
    universe: ItemUniverse
    n_transactions: int
    resolved_min_support_count: int
    rules_generated: int
    rules_after_pruning: int

    def metadata(self) -> dict:
        return {
            "case": self.case.describe(),
            "resolved_min_support_count": self.resolved_min_support_count,
            "rules_generated": self.rules_generated,
            "rules_after_pruning": self.rules_after_pruning,
            "top_k": self.case.top_k,
        }


def run_case(ts: TransactionSet, case: MiningCase) -> CaseResult:
    """Full pipeline for one case: mine, generate, prune, rank."""
    n = ts.n_transactions
    resolved = case.min_support.resolve(n)
    logger.info("case %r: resolved min support count = %d of %d", case.name, resolved, n)
    freq = mine_frequent(ts, case.min_support, case.max_rule_items)
    generated = generate_rules(freq, ts, case)
    pruned = prune_redundant(generated)
    ranked = rank_rules(pruned, case.top_k)
    if not ranked:
        logger.warning("case %r produced no rules", case.name)
    return CaseResult(
        case=case,
        rules=tuple(ranked),
        universe=ts.universe,
        n_transactions=n,
        resolved_min_support_count=resolved,
        rules_generated=len(generated),
        rules_after_pruning=len(pruned),
    )


def export_case_csv(result: CaseResult, sink: str | Path) -> Path:
    """Machine-oriented rule export; percentages at 3 decimals, lift at 2."""
    rows = []
    for rule in result.rules:
        rows.append(
            [
                rule.id,
                rule.antecedent_label(result.universe),
                result.universe.token(rule.consequent),
                rule.joint_count,
                f"{100.0 * rule.support:.3f}",
                f"{100.0 * rule.confidence:.3f}",
                f"{rule.lift:.2f}",
            ]
        )
    header = [
        "id",
        "antecedent_items",
        "consequent",
        "joint_count",
        "support_pct",
        "confidence_pct",
        "lift",
    ]
    return write_csv(sink, header, rows)


def export_case_metadata(result: CaseResult, sink: str | Path) -> Path:
    return write_json(sink, result.metadata())
