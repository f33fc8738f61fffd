"""Fixture builders and brute-force oracles shared by the test suite.

The oracles recompute what the library computes, but naively: explicit set
arithmetic over materialized transactions and exhaustive enumeration of
candidate itemsets, antecedents, and split partitions. Library results are
compared against oracle output, never the other way around. Counting here
is pure Python on frozensets; only the final support/confidence/lift
divisions reuse float arithmetic, since the contract under test is "the
correctly rounded double of the exact ratio".
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Mapping, Sequence

from rulekit.apriori import FrequentItemsets
from rulekit.rules import MiningCase, Rule, score
from rulekit.schema import DataDictionary, Record, RecordSet, VariableSchema
from rulekit.transactions import TransactionSet

Item = tuple[str, str]


# ---------------------------------------------------------------------------
# Record-set builders


def make_dictionary(spec: Mapping[str, Sequence[str]]) -> DataDictionary:
    return DataDictionary(
        variables=tuple(
            VariableSchema(name=name, categories=tuple(cats))
            for name, cats in spec.items()
        )
    )


def make_records(
    dictionary: DataDictionary, assignments: Iterable[Mapping[str, str]]
) -> RecordSet:
    records = tuple(
        Record(record_id=f"r{i}", values=dict(values))
        for i, values in enumerate(assignments)
    )
    return RecordSet(dictionary=dictionary, records=records)


def random_record_set(rng: random.Random, max_items: int = 12, max_transactions: int = 64) -> RecordSet:
    """Random categorical records; the occurring-item universe stays small.

    Between 2 and 4 variables with 2 to 4 categories each, capped so the
    total number of declared categories never exceeds max_items.
    """
    n_vars = rng.randint(2, 4)
    spec: dict[str, list[str]] = {}
    budget = max_items
    for v in range(n_vars):
        remaining_vars = n_vars - v - 1
        max_here = min(4, budget - 2 * remaining_vars)
        n_cats = rng.randint(2, max(2, max_here))
        spec[f"v{v}"] = [f"c{v}_{c}" for c in range(n_cats)]
        budget -= n_cats
    dictionary = make_dictionary(spec)
    n = rng.randint(4, max_transactions)
    assignments = [
        {var: rng.choice(cats) for var, cats in spec.items()} for _ in range(n)
    ]
    return make_records(dictionary, assignments)


def two_item_records(
    n: int,
    count_x: int,
    count_y: int,
    count_xy: int,
    var_x: tuple[str, str, str] = ("driver_age", ">64", "25-64"),
    var_y: tuple[str, str, str] = ("lighting", "daylight", "dark"),
) -> RecordSet:
    """Records over two binary variables with the given joint counts.

    var_x/var_y are (variable, the counted category, the other category).
    Exactly count_xy records carry both counted categories, count_x carry
    the first, count_y the second, out of n records total.
    """
    assert 0 <= count_xy <= min(count_x, count_y)
    assert count_x + count_y - count_xy <= n
    vx, cx, cx_other = var_x
    vy, cy, cy_other = var_y
    dictionary = make_dictionary({vx: (cx, cx_other), vy: (cy, cy_other)})
    blocks = [
        ({vx: cx, vy: cy}, count_xy),
        ({vx: cx, vy: cy_other}, count_x - count_xy),
        ({vx: cx_other, vy: cy}, count_y - count_xy),
        ({vx: cx_other, vy: cy_other}, n - count_x - count_y + count_xy),
    ]
    assignments = []
    for values, size in blocks:
        assignments.extend([values] * size)
    return make_records(dictionary, assignments)


def planted_rule_records() -> tuple[RecordSet, Item, Item, tuple[float, float, float]]:
    """A record set where {weather=rain} -> road=wet has S=.10 C=.90 L=2.

    Counts: n=1800, rain=200, wet=810, both=180, so S = 180/1800, C =
    180/200, L = 180*1800/(200*810), all exact in binary floats or not;
    the returned metrics are the count-derived doubles.
    """
    rs = two_item_records(
        1800, 200, 810, 180,
        var_x=("weather", "rain", "clear"),
        var_y=("road", "wet", "dry"),
    )
    metrics = (180 / 1800, 180 / 200, (180 * 1800) / (200 * 810))
    return rs, ("weather", "rain"), ("road", "wet"), metrics


def independence_records() -> tuple[RecordSet, Item, Item]:
    """n=100 with count_x=20, count_y=50, count_xy=10: exact independence."""
    rs = two_item_records(
        100, 20, 50, 10,
        var_x=("surface", "icy", "dry"),
        var_y=("severity", "fatal", "other"),
    )
    return rs, ("surface", "icy"), ("severity", "fatal")


def planted_mda_records(
    n: int = 500, n_noise: int = 5, seed: int = 20260815
) -> tuple[RecordSet, str, list[str]]:
    """Response is a deterministic function of one predictor; rest is noise.

    The predictor has four categories mapped onto three response classes;
    each noise feature is an independent uniform three-category draw.
    """
    rng = random.Random(seed)
    noise_names = [f"noise{i}" for i in range(n_noise)]
    spec: dict[str, Sequence[str]] = {
        "pred": ("a0", "a1", "a2", "a3"),
        **{name: ("x", "y", "z") for name in noise_names},
        "resp": ("r0", "r1", "r2"),
    }
    dictionary = make_dictionary(spec)
    mapping = {"a0": "r0", "a1": "r1", "a2": "r2", "a3": "r0"}
    assignments = []
    for _ in range(n):
        values = {"pred": rng.choice(("a0", "a1", "a2", "a3"))}
        values["resp"] = mapping[values["pred"]]
        for name in noise_names:
            values[name] = rng.choice(("x", "y", "z"))
        assignments.append(values)
    return make_records(dictionary, assignments), "pred", noise_names


# ---------------------------------------------------------------------------
# Brute-force oracles


def record_itemsets(rs: RecordSet, variables: Sequence[str]) -> list[frozenset[Item]]:
    return [
        frozenset((v, rec.values[v]) for v in variables) for rec in rs.records
    ]


def occurring_items(transactions: Sequence[frozenset[Item]]) -> list[Item]:
    items: set[Item] = set()
    for t in transactions:
        items.update(t)
    return sorted(items)


def oracle_support(transactions: Sequence[frozenset[Item]], itemset: Iterable[Item]) -> int:
    wanted = frozenset(itemset)
    return sum(1 for t in transactions if wanted <= t)


def oracle_frequent_itemsets(
    transactions: Sequence[frozenset[Item]], min_count: int, max_len: int
) -> dict[frozenset[Item], int]:
    """Every itemset of size <= max_len with support >= min_count, by force."""
    universe = occurring_items(transactions)
    out: dict[frozenset[Item], int] = {}
    for size in range(1, max_len + 1):
        for combo in itertools.combinations(universe, size):
            count = oracle_support(transactions, combo)
            if count >= min_count:
                out[frozenset(combo)] = count
    return out


def oracle_rules(
    transactions: Sequence[frozenset[Item]],
    consequent: Item | None,
    min_count: int,
    min_confidence: float,
    min_lift: float,
    max_rule_items: int,
    allow_empty_antecedent: bool = False,
) -> dict[tuple[frozenset[Item], Item], tuple[int, float, float, float]]:
    """All rules meeting the thresholds, keyed by (antecedent, consequent).

    Values are (joint count, support, confidence, lift), with the metrics
    computed as single divisions of exact integer counts, same rounding
    contract as the library.
    """
    n = len(transactions)
    universe = occurring_items(transactions)
    consequents = [consequent] if consequent is not None else universe
    out: dict[tuple[frozenset[Item], Item], tuple[int, float, float, float]] = {}
    for y in consequents:
        count_y = oracle_support(transactions, (y,))
        if count_y == 0:
            continue
        others = [item for item in universe if item != y]
        min_size = 0 if allow_empty_antecedent else 1
        for size in range(min_size, max_rule_items):
            for combo in itertools.combinations(others, size):
                count_xy = oracle_support(transactions, (*combo, y))
                if count_xy < min_count:
                    continue
                count_x = oracle_support(transactions, combo) if combo else n
                support = count_xy / n
                confidence = count_xy / count_x
                lift = (count_xy * n) / (count_x * count_y)
                if confidence >= min_confidence and lift >= min_lift:
                    out[(frozenset(combo), y)] = (count_xy, support, confidence, lift)
    return out


def reference_generate_rules(
    freq: FrequentItemsets,
    ts: TransactionSet,
    case: MiningCase,
    allow_empty_antecedent: bool = False,
) -> list[Rule]:
    """Rule generation by its per-consequent definition.

    For each consequent in item-id order, rescan the whole lattice level by
    level and emit (Z without Y) -> Y for every frequent Z holding Y.
    """
    n = ts.n_transactions
    threshold = case.min_support.resolve(n)
    if case.consequent is not None:
        consequents = [ts.universe.item_id(*case.consequent)]
    else:
        consequents = list(range(len(ts.universe)))
    rules = []
    for y in consequents:
        count_y = freq.support((y,))
        if count_y is None:
            continue
        for k in sorted(freq.by_level):
            if k > case.max_rule_items:
                continue
            for itemset, count_xy in freq.by_level[k]:
                if y not in itemset:
                    continue
                antecedent = tuple(i for i in itemset if i != y)
                if (not antecedent and not allow_empty_antecedent) or count_xy < threshold:
                    continue
                count_x = freq.support(antecedent) if antecedent else n
                s, c, lift = score(n, count_x, count_y, count_xy)
                if c >= case.min_confidence and lift >= case.min_lift:
                    rules.append(Rule(None, antecedent, y, count_xy, s, c, lift))
    return rules


def reference_prune_redundant(rules: Sequence[Rule]) -> list[Rule]:
    """Redundancy pruning by its pairwise definition, O(R^2).

    A rule is dropped iff another rule of the list has a strict-subset
    antecedent and confidence at least as high.
    """
    antecedents = [frozenset(r.antecedent) for r in rules]
    return [
        rule
        for i, rule in enumerate(rules)
        if not any(
            antecedents[j] < antecedents[i] and other.confidence >= rule.confidence
            for j, other in enumerate(rules)
        )
    ]


def oracle_best_partition(
    counts: Sequence[Sequence[int]], min_node_size: int = 1
) -> tuple[float, frozenset[int]] | None:
    """Exhaustive Gini search over every binary partition of present rows."""
    present = [i for i, row in enumerate(counts) if sum(row) > 0]
    if len(present) < 2:
        return None
    n_classes = len(counts[0])
    totals = [sum(counts[i][k] for i in present) for k in range(n_classes)]
    n_t = sum(totals)
    parent = 1.0 - sum(t * t for t in totals) / (n_t * n_t)
    best: tuple[float, frozenset[int]] | None = None
    # all nonempty strict subsets; keep the variant that excludes the last
    # present category so each unordered partition appears once
    for mask in range(1, 1 << (len(present) - 1)):
        left_idx = [present[i] for i in range(len(present) - 1) if mask >> i & 1]
        left = [sum(counts[i][k] for i in left_idx) for k in range(n_classes)]
        nl = sum(left)
        nr = n_t - nl
        if nl < min_node_size or nr < min_node_size:
            continue
        right = [t - l for t, l in zip(totals, left)]
        child = (
            nl - sum(v * v for v in left) / nl + nr - sum(v * v for v in right) / nr
        ) / n_t
        dec = parent - child
        if dec > 0.0 and (best is None or dec > best[0]):
            best = (dec, frozenset(left_idx))
    return best
