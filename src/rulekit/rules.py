"""Association rules: scoring, consequent-constrained generation, pruning, ranking.

A rule X -> Y pairs an antecedent itemset X with a single consequent item Y,
disjoint from X. Metrics come straight from integer counts:

    support     S = count(X and Y) / n
    confidence  C = count(X and Y) / count(X)
    lift        L = C / (count(Y) / n)

A rule is worth keeping only when it clears the per-case thresholds; lift
above 1 marks a positive association. Redundant rules (dominated by a
simpler rule with a subset antecedent and at least the same confidence) are
pruned before ranking by descending lift.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from itertools import combinations
from pathlib import Path
from typing import Mapping, Sequence

from .apriori import FrequentItemsets, SupportSpec, mine_frequent
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


def generate_rules(
    freq: FrequentItemsets,
    ts: TransactionSet,
    case: MiningCase,
    allow_empty_antecedent: bool = False,
) -> list[Rule]:
    """Emit every rule (Z without Y) -> Y from frequent itemsets Z containing Y.

    A rule survives when its joint count meets the case's resolved support
    threshold and confidence and lift clear their minimums (both inclusive).
    """
    n = ts.n_transactions
    threshold = case.min_support.resolve(n)
    if case.consequent is not None:
        consequents = [ts.universe.item_id(*case.consequent)]
    else:
        consequents = list(range(len(ts.universe)))

    # One pass over the lattice: each itemset emits one rule per frequent
    # consequent it holds. Groups are created in consequent-id order, so the
    # result is ordered by (consequent, level, itemset).
    count_y: dict[int, int] = {}
    for y in consequents:
        count = freq.support((y,))
        if count is not None:
            count_y[y] = count
        elif case.consequent is not None:
            logger.warning(
                "consequent %s is not frequent at resolved support count %d; no rules",
                ts.universe.token(y),
                threshold,
            )
    by_consequent: dict[int, list[Rule]] = {y: [] for y in count_y}
    for k in sorted(freq.by_level):
        if k > case.max_rule_items or (k == 1 and not allow_empty_antecedent):
            continue
        for itemset, count_xy in freq.by_level[k]:
            if count_xy < threshold:
                continue
            for y in itemset:
                if y not in count_y:
                    continue
                antecedent = tuple(i for i in itemset if i != y)
                if antecedent:
                    entry = freq.entry(antecedent)
                    if entry is None:
                        raise ValidationError(
                            "frequent itemsets are missing an antecedent subset; "
                            "they were mined at a different threshold"
                        )
                    # the rule keeps the stored tuple, not a copy of it
                    antecedent, count_x = entry
                else:
                    count_x = n
                s, c, lift = score(n, count_x, count_y[y], count_xy)
                if c >= case.min_confidence and lift >= case.min_lift:
                    by_consequent[y].append(
                        Rule(
                            id=None,
                            antecedent=antecedent,
                            consequent=y,
                            joint_count=count_xy,
                            support=s,
                            confidence=c,
                            lift=lift,
                        )
                    )
    return [rule for group in by_consequent.values() for rule in group]


def prune_redundant(rules: Sequence[Rule]) -> list[Rule]:
    """Drop rules dominated by a simpler rule with the same consequent.

    X -> Y is removed iff some X' -> Y in the input has X' a strict subset
    of X and confidence at least as high. Dominance is transitive along
    subset chains, so keeping exactly the undominated rules is a fixed
    point. Each rule looks up its proper-subset antecedents in a map from
    antecedent to the best confidence among rules with that antecedent.
    """
    if len({r.consequent for r in rules}) > 1:
        raise ValidationError("prune_redundant requires all rules to share one consequent")
    keys = [tuple(sorted(set(r.antecedent))) for r in rules]
    best: dict[tuple[int, ...], float] = {}
    for key, rule in zip(keys, rules):
        if key not in best or rule.confidence > best[key]:
            best[key] = rule.confidence
    retained = []
    for key, rule in zip(keys, rules):
        dominated = any(
            best.get(subset, -math.inf) >= rule.confidence
            for size in range(len(key))
            for subset in combinations(key, size)
        )
        if not dominated:
            retained.append(rule)
    return retained


def rank_rules(rules: Sequence[Rule], top_k: int) -> list[Rule]:
    """Rank by lift desc, then confidence, support, and antecedent item ids.

    The order is total, so ranking is invariant to the input permutation.
    Ids "R1".."Rk" are assigned in final order; the first top_k are returned.
    """
    if top_k < 0:
        raise ValidationError("top_k must be >= 0")
    ordered = sorted(
        rules, key=lambda r: (-r.lift, -r.confidence, -r.support, r.antecedent, r.consequent)
    )
    return [replace(rule, id=f"R{i + 1}") for i, rule in enumerate(ordered[:top_k])]


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


def run_case(
    ts: TransactionSet,
    case: MiningCase,
    threads: int = 1,
    allow_empty_antecedent: bool = False,
) -> CaseResult:
    """Full pipeline for one case: mine, generate, prune, rank."""
    n = ts.n_transactions
    resolved = case.min_support.resolve(n)
    logger.info("case %r: resolved min support count = %d of %d", case.name, resolved, n)
    freq = mine_frequent(ts, case.min_support, case.max_rule_items, threads=threads)
    generated = generate_rules(freq, ts, case, allow_empty_antecedent=allow_empty_antecedent)

    # Pruning compares rules per consequent; constrained cases have a single
    # group, the unconstrained variant one group per consequent item.
    groups: dict[int, list[Rule]] = {}
    for rule in generated:
        groups.setdefault(rule.consequent, []).append(rule)
    pruned = [rule for y in sorted(groups) for rule in prune_redundant(groups[y])]

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
