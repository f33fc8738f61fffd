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
import math
import random
from typing import Iterable, Mapping, Sequence

import numpy as np

from rulekit.apriori import FrequentItemsets, SupportSpec
from rulekit.forest import (
    Forest,
    ForestConfig,
    ImportanceEntry,
    ImportanceReport,
    OobPrediction,
    TreeNode,
    best_partition,
)
from rulekit.rules import MiningCase, Rule, score
from rulekit.schema import CrossTab, DataDictionary, Record, RecordSet, VariableSchema
from rulekit.transactions import TransactionSet, support_count

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
    """Random categorical records; the occurring-item universe stays small."""
    return make_records(*random_rows(rng, max_items, max_transactions))


def random_rows(
    rng: random.Random, max_items: int = 12, max_transactions: int = 64
) -> tuple[DataDictionary, list[dict[str, str]]]:
    """A random dictionary and the rows ``random_record_set`` builds from it.

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
    return dictionary, assignments


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
        for size in range(1, max_rule_items):
            for combo in itertools.combinations(others, size):
                count_xy = oracle_support(transactions, (*combo, y))
                if count_xy < min_count:
                    continue
                count_x = oracle_support(transactions, combo)
                support = count_xy / n
                confidence = count_xy / count_x
                lift = (count_xy * n) / (count_x * count_y)
                if confidence >= min_confidence and lift >= min_lift:
                    out[(frozenset(combo), y)] = (count_xy, support, confidence, lift)
    return out


def reference_join_candidates(
    prev_level: list[tuple[int, ...]], variable_of
) -> list[tuple[int, ...]]:
    """Classic join of lexicographically sorted (k-1)-itemsets.

    Two itemsets sharing their first k-2 items join into a k-candidate; the
    two new last items must come from different variables (the shared prefix
    is already same-variable-free), and every (k-1)-subset of the candidate
    must be in prev_level.
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
                subset in prev_set
                for subset in itertools.combinations(candidate, len(candidate) - 1)
            ):
                candidates.append(candidate)
    return candidates


def reference_mine_frequent(
    ts: TransactionSet, min_support: SupportSpec, max_len: int
) -> FrequentItemsets:
    """Level-wise Apriori one candidate at a time: the tuple join above and
    one ``support_count`` call per candidate."""
    n = ts.n_transactions
    threshold = min_support.resolve(n)
    by_level: dict[int, tuple[tuple[tuple[int, ...], int], ...]] = {}
    level = [
        ((i,), c)
        for i in range(len(ts.universe))
        if (c := support_count(ts, (i,))) >= threshold
    ]
    k = 1
    while level and k <= max_len:
        by_level[k] = tuple(level)
        if k == max_len:
            break
        candidates = reference_join_candidates(
            [iset for iset, _ in level], ts.universe.variable_of
        )
        counts = [support_count(ts, c) for c in candidates]
        level = sorted((c, n_c) for c, n_c in zip(candidates, counts) if n_c >= threshold)
        k += 1
    return FrequentItemsets(
        by_level=by_level, min_support_count=threshold, max_len=max_len, n_transactions=n
    )


def reference_generate_rules(
    freq: FrequentItemsets,
    ts: TransactionSet,
    case: MiningCase,
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
                if not antecedent or count_xy < threshold:
                    continue
                count_x = freq.support(antecedent)
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


# ---------------------------------------------------------------------------
# Per-node forest references: tree growth, prediction and MDA one node, one
# tree and one permutation at a time. The library grows trees in lockstep
# over flat arrays; these are the definitions it must reproduce bit for bit.
# They score a node's tables with the library's best_partition, which
# tests/test_forest.py checks against oracle_best_partition above.


def reference_encode(
    dictionary: DataDictionary, rows: Sequence[Mapping[str, str]], variables: Sequence[str]
) -> np.ndarray:
    """(n_rows, n_variables) int64 category-index matrix of the given rows."""
    cols = []
    for name in variables:
        index = {c: i for i, c in enumerate(dictionary.variable(name).categories)}
        cols.append([index[row[name]] for row in rows])
    return np.array(cols, dtype=np.int64).transpose().copy()


def reference_cross_tabulate(rs: RecordSet, row_var: str, col_var: str) -> CrossTab:
    """Cross-tabulation by one pass over the record dicts."""
    row_cats = rs.dictionary.variable(row_var).categories
    col_cats = rs.dictionary.variable(col_var).categories
    row_idx = {c: i for i, c in enumerate(row_cats)}
    col_idx = {c: i for i, c in enumerate(col_cats)}
    cells = [[0] * len(col_cats) for _ in row_cats]
    for rec in rs.records:
        cells[row_idx[rec.values[row_var]]][col_idx[rec.values[col_var]]] += 1
    return CrossTab(
        row_variable=row_var,
        col_variable=col_var,
        row_categories=row_cats,
        col_categories=col_cats,
        cells=tuple(tuple(row) for row in cells),
        column_totals=tuple(sum(row[j] for row in cells) for j in range(len(col_cats))),
    )


def reference_grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    n_cats: np.ndarray,
    n_classes: int,
    mtry: int,
    cfg: ForestConfig,
    rng: np.random.Generator,
) -> tuple[tuple[TreeNode, ...], np.ndarray]:
    """One tree grown depth first, left child first; returns (nodes, bootstrap)."""
    n = len(y)
    n_features = X.shape[1]
    boot = rng.integers(0, n, size=n)
    nodes: list[TreeNode | None] = [None]
    stack: list[tuple[int, np.ndarray, int]] = [(0, boot, 0)]
    while stack:
        nid, rows, depth = stack.pop()
        counts = np.bincount(y[rows], minlength=n_classes)
        class_index = int(np.argmax(counts))
        pure = int((counts > 0).sum()) <= 1
        capped = cfg.max_depth is not None and depth >= cfg.max_depth
        too_small = len(rows) < 2 * cfg.min_node_size
        split: tuple[float, int, frozenset[int]] | None = None
        if not (pure or capped or too_small):
            feats = np.sort(rng.choice(n_features, size=mtry, replace=False))
            for f in feats:
                f = int(f)
                cont = np.bincount(
                    X[rows, f] * n_classes + y[rows], minlength=n_cats[f] * n_classes
                ).reshape(n_cats[f], n_classes)
                found = best_partition(cont, cfg.min_node_size)
                if found is not None and (split is None or found[0] > split[0]):
                    split = (found[0], f, found[1])
        if split is None:
            nodes[nid] = TreeNode(
                feature=-1,
                left_categories=frozenset(),
                left=-1,
                right=-1,
                class_index=class_index,
                class_counts=tuple(int(c) for c in counts),
            )
            continue
        _, f, left_cats = split
        lut = np.zeros(n_cats[f], dtype=bool)
        lut[list(left_cats)] = True
        mask = lut[X[rows, f]]
        left_id = len(nodes)
        nodes.append(None)
        right_id = len(nodes)
        nodes.append(None)
        nodes[nid] = TreeNode(
            feature=f,
            left_categories=left_cats,
            left=left_id,
            right=right_id,
            class_index=class_index,
            class_counts=tuple(int(c) for c in counts),
        )
        stack.append((right_id, rows[~mask], depth + 1))
        stack.append((left_id, rows[mask], depth + 1))
    assert all(node is not None for node in nodes)
    return tuple(nodes), boot


def reference_train(
    rs: RecordSet, response: str, features: Sequence[str], cfg: ForestConfig
) -> list[tuple[tuple[TreeNode, ...], np.ndarray]]:
    """(nodes, in_bag) per tree, each tree on its own (seed, 0, index) stream."""
    rows = [rec.values for rec in rs.records]
    X = reference_encode(rs.dictionary, rows, features)
    y = reference_encode(rs.dictionary, rows, (response,))[:, 0]
    n_cats = np.array(
        [len(rs.dictionary.variable(v).categories) for v in features], dtype=np.int64
    )
    n_classes = len(rs.dictionary.variable(response).categories)
    mtry = cfg.mtry if cfg.mtry is not None else math.isqrt(len(features))
    out = []
    for i in range(cfg.n_trees):
        rng = np.random.default_rng([cfg.seed % 2**64, 0, i])
        nodes, boot = reference_grow_tree(X, y, n_cats, n_classes, mtry, cfg, rng)
        out.append((nodes, np.bincount(boot, minlength=len(y))))
    return out


def reference_tree_predict(
    nodes: Sequence[TreeNode], Xm: np.ndarray, n_cats: np.ndarray
) -> np.ndarray:
    """Class index per row of Xm, routing each node's rows in a Python loop."""
    out = np.zeros(len(Xm), dtype=np.int64)
    if len(Xm) == 0:
        return out
    stack: list[tuple[int, np.ndarray]] = [(0, np.arange(len(Xm)))]
    while stack:
        nid, rows = stack.pop()
        node = nodes[nid]
        if node.is_leaf:
            out[rows] = node.class_index
            continue
        lut = np.zeros(n_cats[node.feature], dtype=bool)
        lut[list(node.left_categories)] = True
        mask = lut[Xm[rows, node.feature]]
        left_rows = rows[mask]
        right_rows = rows[~mask]
        if len(left_rows):
            stack.append((node.left, left_rows))
        if len(right_rows):
            stack.append((node.right, right_rows))
    return out


def _forest_arrays(forest: Forest, rs: RecordSet):
    rows = [rec.values for rec in rs.records]
    X = reference_encode(rs.dictionary, rows, forest.features)
    y = reference_encode(rs.dictionary, rows, (forest.response_variable,))[:, 0]
    n_cats = np.array(
        [len(forest.dictionary.variable(v).categories) for v in forest.features],
        dtype=np.int64,
    )
    return X, y, n_cats


def reference_oob_predict(forest: Forest, rs: RecordSet) -> OobPrediction:
    """Majority vote over the trees where each record was out-of-bag."""
    X, y, n_cats = _forest_arrays(forest, rs)
    votes = np.zeros((len(y), len(forest.class_labels)), dtype=np.int64)
    for tree in forest.trees:
        oob = tree.oob_indices
        if len(oob) == 0:
            continue
        preds = reference_tree_predict(tree.nodes, X[oob], n_cats)
        np.add.at(votes, (oob, preds), 1)
    covered = votes.sum(axis=1) > 0
    winner = np.argmax(votes, axis=1)
    accuracy = float(np.mean(winner[covered] == y[covered])) if covered.any() else float("nan")
    predictions = tuple(
        forest.class_labels[int(w)] if c else None for w, c in zip(winner, covered)
    )
    return OobPrediction(predictions=predictions, accuracy=accuracy)


def reference_mda(forest: Forest, rs: RecordSet, seed: int) -> ImportanceReport:
    """Mean Decrease Accuracy, one tree and one permuted feature at a time."""
    X, y, n_cats = _forest_arrays(forest, rs)
    n_features = len(forest.features)
    included = []
    for t, tree in enumerate(forest.trees):
        oob = tree.oob_indices
        if len(oob) == 0:
            continue
        rng = np.random.default_rng([seed % 2**64, 1, t])
        Xo = X[oob]
        yo = y[oob]
        base = float(np.mean(reference_tree_predict(tree.nodes, Xo, n_cats) == yo))
        drops = np.zeros(n_features, dtype=np.float64)
        Xp = Xo.copy()
        for f in range(n_features):
            perm = rng.permutation(len(oob))
            Xp[:, f] = Xo[perm, f]
            permuted = float(np.mean(reference_tree_predict(tree.nodes, Xp, n_cats) == yo))
            Xp[:, f] = Xo[:, f]
            drops[f] = base - permuted
        included.append(drops)
    matrix = np.vstack(included)
    mda = matrix.mean(axis=0)
    sd = matrix.std(axis=0)
    order = sorted(
        range(n_features),
        key=lambda f: (-mda[f], forest.dictionary.variable_index(forest.features[f])),
    )
    entries = tuple(
        ImportanceEntry(variable=forest.features[f], mda=float(mda[f]), sd=float(sd[f]))
        for f in order
    )
    return ImportanceReport(
        entries=entries, oob_accuracy=reference_oob_predict(forest, rs).accuracy
    )
