"""Acceptance gate: one test per published criterion, labeled on the console.

Each test prints an ACCEPTANCE PASS/FAIL line through the conftest hook so a
plain pytest run doubles as the acceptance report.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from generators import (
    independence_records,
    planted_mda_records,
    planted_rule_records,
    random_record_set,
    record_itemsets,
    two_item_records,
)
from rulekit.apriori import SupportSpec, mine_frequent
from rulekit.cli import main
from rulekit.forest import ForestConfig, mda_importance, train
from rulekit.rules import (
    MiningCase,
    generate_rules,
    prune_redundant,
    run_case,
    score,
)
from rulekit.transactions import encode, item_frequencies, support_count


def criterion(label):
    def mark(fn):
        fn._criterion = label
        return fn

    return mark


@criterion("pair metrics print as 3.73 / 73.24 / 1.44")
def test_two_item_metrics_at_printed_precision():
    started = time.perf_counter()
    rs = two_item_records(7568, 385, 3851, 282)
    ts = encode(rs, ["driver_age", "lighting"])
    x = ts.universe.item_id("driver_age", ">64")
    y = ts.universe.item_id("lighting", "daylight")
    assert ts.n_transactions == 7568
    assert support_count(ts, (x,)) == 385
    assert support_count(ts, (y,)) == 3851
    assert support_count(ts, (x, y)) == 282

    s, c, lift = score(7568, 385, 3851, 282)
    # the doubles are the correctly rounded images of the exact ratios
    assert s == float(Fraction(282, 7568))
    assert c == float(Fraction(282, 385))
    assert lift == float(Fraction(282 * 7568, 385 * 3851))
    # printed values: support and lift round to them; the printed confidence
    # 73.24 is a truncation of 73.2467, so agreement is one unit in the last
    # printed decimal
    assert round(100.0 * s, 2) == 3.73
    assert abs(100.0 * c - 73.24) <= 0.01
    assert round(lift, 2) == 1.44
    assert time.perf_counter() - started < 1.0


@criterion("item frequency 6992 of 7568 rounds to 0.92")
def test_item_frequency_two_decimal_anchor():
    rs = two_item_records(7568, 6992, 3851, 3600)
    ts = encode(rs, ["driver_age", "lighting"])
    freqs = {(f.variable, f.category): f for f in item_frequencies(ts)}
    anchor = freqs[("driver_age", ">64")]
    assert anchor.count == 6992
    assert round(anchor.relative_frequency, 2) == 0.92


def _random_fixture(rng):
    rs = random_record_set(rng, max_items=12, max_transactions=64)
    names = list(rs.dictionary.names)
    ts = encode(rs, names)
    transactions = record_itemsets(rs, names)
    n = ts.n_transactions
    min_count = rng.randint(1, max(1, n // 3))
    max_rule_items = rng.randint(2, 4)
    if rng.random() < 0.5:
        consequent = None
    else:
        consequent = rng.choice(sorted(ts.universe.items))
    case = MiningCase(
        name="fixture",
        consequent=consequent,
        min_support=SupportSpec.of_count(min_count),
        min_confidence=rng.uniform(0.05, 0.9),
        min_lift=rng.choice((0.0, 0.5, 1.0, 1.1)),
        max_rule_items=max_rule_items,
    )
    return ts, transactions, case


@criterion("mining is set-identical to exhaustive enumeration on 100 fixtures")
def test_mining_matches_oracle_on_random_fixtures():
    from generators import oracle_frequent_itemsets, oracle_rules

    started = time.perf_counter()
    rng = random.Random(20260815)
    for _ in range(100):
        ts, transactions, case = _random_fixture(rng)
        threshold = case.min_support.resolve(ts.n_transactions)
        freq = mine_frequent(ts, case.min_support, case.max_rule_items)
        mined = {
            frozenset(ts.universe.items[i] for i in itemset): count
            for itemset, count in freq
        }
        assert mined == oracle_frequent_itemsets(
            transactions, threshold, case.max_rule_items
        )

        rules = generate_rules(freq, ts, case)
        got = {
            (
                frozenset(ts.universe.items[i] for i in rule.antecedent),
                ts.universe.items[rule.consequent],
            ): (rule.joint_count, rule.support, rule.confidence, rule.lift)
            for rule in rules
        }
        want = oracle_rules(
            transactions,
            case.consequent,
            threshold,
            case.min_confidence,
            case.min_lift,
            case.max_rule_items,
        )
        assert got == want
    assert time.perf_counter() - started < 30.0


@criterion("pruning keeps exactly the undominated rules")
def test_pruning_soundness_on_random_fixtures():
    def dominates(a, b):
        return (
            a.consequent == b.consequent
            and set(a.antecedent) < set(b.antecedent)
            and a.confidence >= b.confidence
        )

    rng = random.Random(20260815)
    for _ in range(100):
        ts, _, case = _random_fixture(rng)
        freq = mine_frequent(ts, case.min_support, case.max_rule_items)
        generated = generate_rules(freq, ts, case)
        kept = []
        for consequent in sorted({r.consequent for r in generated}):
            kept.extend(prune_redundant([r for r in generated if r.consequent == consequent]))
        kept_keys = {(r.antecedent, r.consequent) for r in kept}
        removed = [r for r in generated if (r.antecedent, r.consequent) not in kept_keys]
        for r in kept:
            assert not any(dominates(o, r) for o in generated)
        for r in removed:
            assert any(dominates(o, r) for o in kept)


@criterion("independence scores lift 1.0 and the 1.1 floor excludes it")
def test_lift_semantics_on_independent_items():
    rs, x_item, y_item = independence_records()
    s, c, lift = score(100, 20, 50, 10)
    assert abs(lift - 1.0) <= 1e-12
    ts = encode(rs, [x_item[0], y_item[0]])
    case = MiningCase(
        name="independent",
        consequent=y_item,
        min_support=SupportSpec.of_count(1),
        min_confidence=0.05,
        min_lift=1.1,
    )
    result = run_case(ts, case)
    assert result.rules == ()


@criterion("planted predictor tops importance; noise stays within 0.05")
def test_mda_ranks_planted_predictor_first():
    started = time.perf_counter()
    rs, predictor, noise = planted_mda_records(n=500, n_noise=5, seed=20260815)
    forest = train(
        rs, "resp", [predictor] + noise, ForestConfig(n_trees=300, seed=20260815)
    )
    report = mda_importance(forest)
    assert report.entries[0].variable == predictor
    assert report.entries[0].mda >= 0.3
    for entry in report.entries[1:]:
        assert entry.variable in noise
        assert abs(entry.mda) <= 0.05

    stump = train(
        rs, "resp", [predictor] + noise,
        ForestConfig(n_trees=1, max_depth=1, mtry=6, seed=1),
    )
    stump_report = mda_importance(stump)
    by_var = {e.variable: e for e in stump_report.entries}
    assert stump.trees[0].nodes[0].feature == 0
    for name in noise:
        assert by_var[name].mda == 0.0
    assert time.perf_counter() - started < 60.0


@criterion("pipeline artifacts are byte-identical at 1 and 8 threads")
def test_pipeline_determinism_across_threads(tmp_path):
    config = Path(__file__).resolve().parent.parent / "sample" / "config.json"
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["pipeline", "--config", str(config), "--out", str(out_a),
                 "--threads", "1"]) == 0
    assert main(["pipeline", "--config", str(config), "--out", str(out_b),
                 "--threads", "8"]) == 0
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    assert names_a == names_b
    for name in names_a:
        if name == "manifest.json":
            a = json.loads((out_a / name).read_text())
            b = json.loads((out_b / name).read_text())
            a.pop("created_at")
            b.pop("created_at")
            assert a == b
        else:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


@criterion("planted rule is recovered at top rank within 1e-9")
def test_planted_rule_recovery():
    rs, x_item, y_item, (s, c, lift) = planted_rule_records()
    ts = encode(rs, [x_item[0], y_item[0]])
    case = MiningCase(
        name="planted",
        consequent=y_item,
        min_support=SupportSpec.of_fraction(0.05),
        min_confidence=0.5,
        min_lift=1.1,
    )
    result = run_case(ts, case)
    assert result.rules, "planted rule was not mined"
    top = result.rules[0]
    assert top.id == "R1"
    assert top.antecedent == (ts.universe.item_id(*x_item),)
    assert abs(top.support - s) <= 1e-9
    assert abs(top.confidence - c) <= 1e-9
    assert abs(top.lift - lift) <= 1e-9
    assert abs(top.support - 0.10) <= 1e-9
    assert abs(top.confidence - 0.90) <= 1e-9
    assert abs(top.lift - 2.0) <= 1e-9
