"""Rule scoring, generation, pruning, and ranking."""

import json
import logging
import random
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from generators import (
    independence_records,
    make_dictionary,
    make_records,
    oracle_rules,
    planted_rule_records,
    random_record_set,
    record_itemsets,
    reference_generate_rules,
    reference_mine_frequent,
    reference_prune_redundant,
    two_item_records,
)
from rulekit.apriori import FrequentItemsets, SupportSpec, mine_frequent
from rulekit.errors import ValidationError
from rulekit.rules import (
    MAX_EXACT_TRANSACTIONS,
    MiningCase,
    Rule,
    RuleTable,
    _scores,
    export_case_csv,
    export_case_metadata,
    generate_rules,
    prune_redundant,
    rank_rules,
    run_case,
    score,
)
from rulekit.transactions import encode


class TestScore:
    def test_exact_rationals(self):
        s, c, lift = score(7568, 385, 3851, 282)
        assert s == float(Fraction(282, 7568))
        assert c == float(Fraction(282, 385))
        assert lift == float(Fraction(282 * 7568, 385 * 3851))

    def test_lift_of_sure_rule_is_inverse_marginal(self):
        # confidence 100% makes lift exactly n / count_y
        _, c, lift = score(7568, 2, 3851, 2)
        assert c == 1.0
        assert lift == float(Fraction(7568, 3851))

    @pytest.mark.parametrize(
        "args",
        [
            (10, 0, 5, 0),  # count_x zero
            (10, 5, 0, 0),  # count_y zero
            (10, 11, 5, 3),  # count_x > n
            (10, 5, 4, 5),  # count_xy > min
            (10, 5, 4, -1),
        ],
    )
    def test_precondition_violations(self, args):
        with pytest.raises(ValidationError):
            score(*args)


def test_rule_antecedent_consequent_disjoint():
    with pytest.raises(ValidationError):
        Rule(id=None, antecedent=(1, 2), consequent=2, joint_count=1,
             support=0.1, confidence=0.5, lift=1.2)


class TestMiningCase:
    def test_bounds(self):
        ok = dict(name="x", consequent=("a", "b"),
                  min_support=SupportSpec.of_count(1), min_confidence=0.5)
        MiningCase(**ok)
        with pytest.raises(ValidationError):
            MiningCase(**{**ok, "min_confidence": 0.0})
        with pytest.raises(ValidationError):
            MiningCase(**{**ok, "min_confidence": 1.2})
        with pytest.raises(ValidationError):
            MiningCase(**{**ok, "min_lift": -0.1})
        with pytest.raises(ValidationError):
            MiningCase(**{**ok, "max_rule_items": 1})
        with pytest.raises(ValidationError):
            MiningCase(**{**ok, "top_k": -1})

    @pytest.mark.parametrize("min_lift", [float("nan"), float("inf"), float("-inf")])
    def test_min_lift_must_be_finite(self, min_lift):
        with pytest.raises(ValidationError, match=r"case 'x': min_lift"):
            MiningCase(name="x", consequent=("a", "b"), min_support=SupportSpec.of_count(1),
                       min_confidence=0.5, min_lift=min_lift)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"top_k": 2.5},
            {"top_k": True},
            {"top_k": 3.0},
            {"top_k": "20"},
            {"max_rule_items": 3.0},
            {"max_rule_items": True},
            {"max_rule_items": None},
        ],
    )
    def test_counts_must_be_integers(self, kwargs):
        with pytest.raises(ValidationError, match=rf"case 'x': '{next(iter(kwargs))}'"):
            MiningCase(name="x", consequent=("a", "b"), min_support=SupportSpec.of_count(1),
                       min_confidence=0.5, **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_confidence": True},
            {"min_confidence": "0.5"},
            {"min_confidence": None},
            {"min_lift": False},
            {"min_lift": "1.1"},
            {"min_lift": None},
        ],
    )
    def test_thresholds_must_be_numbers(self, kwargs):
        args = {"min_confidence": 0.5, **kwargs}
        with pytest.raises(ValidationError, match=rf"case 'x': '{next(iter(kwargs))}'"):
            MiningCase(name="x", consequent=("a", "b"), min_support=SupportSpec.of_count(1),
                       **args)

    @pytest.mark.parametrize("name", [5, None, ("a",)])
    def test_name_must_be_a_string(self, name):
        with pytest.raises(ValidationError, match="case name must be a string"):
            MiningCase(name=name, consequent=None, min_support=SupportSpec.of_count(1),
                       min_confidence=0.5)

    def test_thresholds_are_stored_as_floats(self):
        def case(confidence, lift):
            return MiningCase(name="x", consequent=None, min_support=SupportSpec.of_count(1),
                              min_confidence=confidence, min_lift=lift)

        ints, floats = case(1, 2), case(1.0, 2.0)
        assert type(ints.min_confidence) is float and type(ints.min_lift) is float
        assert ints == floats
        assert json.dumps(ints.describe()) == json.dumps(floats.describe())

    def test_describe_round_trips_thresholds(self):
        case = MiningCase(name="night", consequent=("sev", "fatal"),
                          min_support=SupportSpec.of_fraction(0.004),
                          min_confidence=0.55)
        d = case.describe()
        assert d["consequent"] == "sev=fatal"
        assert d["min_support"] == "fraction>=0.004"
        assert d["min_lift"] == 1.1


def _mine_case(rs, case, max_len=None):
    ts = encode(rs, list(rs.dictionary.names))
    freq = mine_frequent(ts, case.min_support, max_len or case.max_rule_items)
    return ts, freq


class TestGenerateRules:
    def test_planted_rule_recovered_exactly(self):
        rs, antecedent, consequent, metrics = planted_rule_records()
        case = MiningCase(name="wet", consequent=consequent,
                          min_support=SupportSpec.of_fraction(0.05),
                          min_confidence=0.6, min_lift=1.1)
        ts, freq = _mine_case(rs, case)
        rules = generate_rules(freq, ts, case)
        assert len(rules) == 1
        rule = rules[0]
        assert rule.antecedent == (ts.universe.item_id(*antecedent),)
        assert (rule.support, rule.confidence, rule.lift) == metrics

    def test_consequent_not_frequent_warns_and_returns_empty(self, caplog):
        rs, _, consequent, _ = planted_rule_records()
        case = MiningCase(name="rare", consequent=("road", "dry"),
                          min_support=SupportSpec.of_count(1100),
                          min_confidence=0.1, min_lift=0.0)
        ts, freq = _mine_case(rs, case)
        assert generate_rules(freq, ts, case) == []
        with caplog.at_level(logging.WARNING, logger="rulekit.rules"):
            assert run_case(ts, case).rules == ()
        assert any("not frequent" in r.message for r in caplog.records)

    def test_consequent_outside_the_universe_warns_and_returns_empty(self, caplog):
        # a declared category that no record holds is not in an occurring-only universe
        d = make_dictionary({"weather": ("rain", "clear"), "road": ("wet", "dry", "icy")})
        rows = [{"weather": w, "road": r} for w in ("rain", "clear") for r in ("wet", "dry")]
        case = MiningCase(name="absent", consequent=("road", "icy"),
                          min_support=SupportSpec.of_count(1),
                          min_confidence=0.1, min_lift=0.0)
        ts, freq = _mine_case(make_records(d, rows * 3), case)
        assert ("road", "icy") not in ts.universe.items
        assert generate_rules(freq, ts, case) == []
        with caplog.at_level(logging.WARNING, logger="rulekit.rules"):
            assert run_case(ts, case).rules == ()
        assert any("road=icy is not frequent" in r.message for r in caplog.records)

    def test_missing_antecedent_subset_is_refused(self):
        rs, _, consequent, _ = planted_rule_records()
        case = MiningCase(name="gap", consequent=consequent,
                          min_support=SupportSpec.of_count(1),
                          min_confidence=0.01, min_lift=0.0)
        ts, freq = _mine_case(rs, case)
        y = ts.universe.item_id(*consequent)
        items, counts = freq.levels[1]
        single = items[:, 0] == y
        gapped = FrequentItemsets(
            levels={**freq.levels, 1: (items[single], counts[single])},
            min_support_count=1,
            max_len=freq.max_len,
            n_transactions=freq.n_transactions,
        )
        with pytest.raises(ValidationError, match="missing an antecedent subset"):
            generate_rules(gapped, ts, case)

    def test_max_rule_items_caps_antecedent_size(self):
        rs = random_record_set(random.Random(3))
        ts = encode(rs, list(rs.dictionary.names))
        y = 0
        case = MiningCase(name="cap", consequent=ts.universe.items[y],
                          min_support=SupportSpec.of_count(1),
                          min_confidence=0.01, min_lift=0.0, max_rule_items=2)
        freq = mine_frequent(ts, case.min_support, 4)  # deeper than the case needs
        rules = generate_rules(freq, ts, case)
        assert rules and all(len(r.antecedent) <= 1 for r in rules)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.integers(1, 6),
        st.sampled_from((0.01, 0.3, 0.6)),
        st.sampled_from((0.0, 1.0, 1.3)),
        st.integers(2, 4),
    )
    def test_matches_per_consequent_reference(
        self, seed, constrained, min_count, min_confidence, min_lift, max_items
    ):
        rng = random.Random(seed)
        rs = random_record_set(rng)
        ts = encode(rs, list(rs.dictionary.names))
        consequent = rng.choice(ts.universe.items) if constrained else None
        case = MiningCase(name="ref", consequent=consequent,
                          min_support=SupportSpec.of_count(min_count),
                          min_confidence=min_confidence, min_lift=min_lift,
                          max_rule_items=max_items)
        freq = mine_frequent(ts, case.min_support, 4)
        got = generate_rules(freq, ts, case)
        want = reference_generate_rules(freq, ts, case)
        assert got == want
        # the reference's int64 level arrays: byte-string keys from k = 2
        ref_freq = reference_mine_frequent(ts, case.min_support, 4)
        assert all(items.dtype == np.int64 for items, _ in ref_freq.levels.values())
        assert generate_rules(ref_freq, ts, case) == want
        # the table's prune and rank against the per-consequent references
        want_kept = [
            rule
            for y in sorted({r.consequent for r in want})
            for rule in reference_prune_redundant([r for r in want if r.consequent == y])
        ]
        kept = prune_redundant(got)
        assert kept == want_kept
        want_ranked = sorted(
            want_kept, key=lambda r: (-r.lift, -r.confidence, -r.support, r.antecedent, r.consequent)
        )[:7]
        assert rank_rules(kept, 7) == [
            replace(rule, id=f"R{i + 1}") for i, rule in enumerate(want_ranked)
        ]


class TestExactScores:
    @settings(max_examples=300)
    @example(  # the largest count products, n * n, and near-ties with them
        (MAX_EXACT_TRANSACTIONS, [(MAX_EXACT_TRANSACTIONS, MAX_EXACT_TRANSACTIONS, 1.0),
                                  (MAX_EXACT_TRANSACTIONS - 1, MAX_EXACT_TRANSACTIONS, 1.0),
                                  (3, MAX_EXACT_TRANSACTIONS - 2, 0.7),
                                  (MAX_EXACT_TRANSACTIONS, 1, 1.0)])
    )
    @given(
        st.integers(1, MAX_EXACT_TRANSACTIONS).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(st.integers(1, n), st.integers(1, n), st.floats(0, 1)),
                    min_size=1,
                    max_size=20,
                ),
            )
        )
    )
    def test_array_scores_are_bitwise_score(self, args):
        n, triples = args
        counts = [(x, y, int(f * min(x, y))) for x, y, f in triples]
        count_x, count_y, count_xy = (np.array(c, dtype=np.int64) for c in zip(*counts))
        got = np.stack(_scores(n, count_x, count_y, count_xy), axis=1)
        want = np.array([score(n, *c) for c in counts])
        assert (got.view(np.uint64) == want.view(np.uint64)).all()

    def test_larger_n_is_refused(self):
        rs, _, consequent, _ = planted_rule_records()
        case = MiningCase(name="big", consequent=consequent,
                          min_support=SupportSpec.of_count(1),
                          min_confidence=0.1, min_lift=0.0)
        ts, freq = _mine_case(rs, case)
        # a stand-in transaction set: only its count is read before the check
        huge = SimpleNamespace(n_transactions=MAX_EXACT_TRANSACTIONS + 1, universe=ts.universe)
        with pytest.raises(ValidationError, match="exact"):
            generate_rules(freq, huge, case)


class TestPruneRedundant:
    def _rule(self, antecedent, confidence, consequent=9):
        return Rule(id=None, antecedent=tuple(antecedent), consequent=consequent,
                    joint_count=10, support=0.1, confidence=confidence, lift=2.0)

    def test_superset_with_equal_confidence_is_dominated(self):
        sub = self._rule((1,), 0.8)
        sup = self._rule((1, 2), 0.8)
        assert prune_redundant([sup, sub]) == [sub]

    def test_superset_with_higher_confidence_survives(self):
        sub = self._rule((1,), 0.8)
        sup = self._rule((1, 2), 0.9)
        assert prune_redundant([sup, sub]) == [sup, sub]

    def test_chain_collapses_to_minimal_rule(self):
        a = self._rule((1,), 0.9)
        b = self._rule((1, 2), 0.85)
        c = self._rule((1, 2, 3), 0.8)
        assert prune_redundant([c, b, a]) == [a]

    def test_disjoint_antecedents_all_survive(self):
        a = self._rule((1,), 0.5)
        b = self._rule((2,), 0.9)
        assert prune_redundant([a, b]) == [a, b]

    @settings(max_examples=200)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 4), unique=True, max_size=3),
                st.sampled_from((0.5, 0.75, 1.0)),
                st.integers(5, 7),
            ),
            max_size=40,
        )
    )
    def test_mixed_consequents_pruned_per_consequent(self, specs):
        rules = [self._rule(antecedent, c, consequent=y) for antecedent, c, y in specs]
        kept = {
            id(rule)
            for y in range(5, 8)
            for rule in reference_prune_redundant([r for r in rules if r.consequent == y])
        }
        want = [rule for rule in rules if id(rule) in kept]
        assert prune_redundant(rules) == want
        assert prune_redundant(RuleTable.from_rules(rules)) == want

    def test_idempotent_on_random_rule_sets(self):
        rng = random.Random(11)
        for _ in range(25):
            rules = [
                self._rule(
                    tuple(sorted(rng.sample(range(6), rng.randint(1, 3)))),
                    rng.choice((0.5, 0.6, 0.7, 0.8)),
                )
                for _ in range(rng.randint(1, 12))
            ]
            once = prune_redundant(rules)
            assert prune_redundant(once) == once

    @settings(max_examples=200)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 4), unique=True, max_size=4),
                st.sampled_from((0.25, 0.5, 0.75, 1.0)),
            ),
            max_size=40,
        )
    )
    def test_matches_pairwise_reference(self, specs):
        # few items and confidences: duplicate antecedents, the empty
        # antecedent and confidence ties are all common
        rules = [self._rule(antecedent, confidence) for antecedent, confidence in specs]
        assert prune_redundant(rules) == reference_prune_redundant(rules)


class TestRankRules:
    def _rule(self, lift, confidence, support, antecedent=(1,)):
        return Rule(id=None, antecedent=antecedent, consequent=9, joint_count=5,
                    support=support, confidence=confidence, lift=lift)

    def test_order_and_ids(self):
        low = self._rule(1.2, 0.9, 0.3)
        high = self._rule(2.0, 0.5, 0.1)
        tied_conf = self._rule(2.0, 0.9, 0.1)
        ranked = rank_rules([low, high, tied_conf], top_k=10)
        assert [r.lift for r in ranked] == [2.0, 2.0, 1.2]
        assert ranked[0].confidence == 0.9  # confidence breaks the lift tie
        assert [r.id for r in ranked] == ["R1", "R2", "R3"]

    def test_antecedent_breaks_full_metric_ties(self):
        a = self._rule(2.0, 0.9, 0.1, antecedent=(1, 3))
        b = self._rule(2.0, 0.9, 0.1, antecedent=(1, 2))
        assert [r.antecedent for r in rank_rules([a, b], 5)] == [(1, 2), (1, 3)]

    def test_empty_antecedent_ranks_before_item_zero(self):
        # tied metrics: () -> 9 must precede (0,) -> 9 whatever the input order
        item_zero = self._rule(2.0, 0.9, 0.1, antecedent=(0,))
        empty = self._rule(2.0, 0.9, 0.1, antecedent=())
        assert [r.antecedent for r in rank_rules([item_zero, empty], 2)] == [(), (0,)]

    def test_top_k_slices_after_sorting(self):
        rules = [self._rule(float(lift), 0.5, 0.1) for lift in (1, 3, 2)]
        ranked = rank_rules(rules, top_k=2)
        assert [r.lift for r in ranked] == [3.0, 2.0]

    def test_top_k_zero_is_empty(self):
        assert rank_rules([self._rule(1.5, 0.5, 0.1)], 0) == []

    @settings(max_examples=30, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_permutation_invariance(self, rng):
        rules = [
            self._rule(
                rng.choice((1.0, 1.5, 2.0)),
                rng.choice((0.5, 0.7)),
                rng.choice((0.1, 0.2)),
                antecedent=(rng.randint(1, 4),),
            )
            for _ in range(8)
        ]
        shuffled = rules[:]
        rng.shuffle(shuffled)
        assert rank_rules(rules, 8) == rank_rules(shuffled, 8)


class TestRunCase:
    def test_metadata_counts_are_consistent(self):
        rs = random_record_set(random.Random(5))
        ts = encode(rs, list(rs.dictionary.names))
        case = MiningCase(name="any", consequent=ts.universe.items[0],
                          min_support=SupportSpec.of_count(1),
                          min_confidence=0.1, min_lift=0.0)
        result = run_case(ts, case)
        meta = result.metadata()
        assert meta["rules_generated"] >= meta["rules_after_pruning"] >= len(result.rules)
        assert meta["resolved_min_support_count"] == 1
        assert result.n_transactions == ts.n_transactions

    def test_unconstrained_case_covers_every_consequent(self):
        rs = random_record_set(random.Random(12))
        ts = encode(rs, list(rs.dictionary.names))
        case = MiningCase(name="survey", consequent=None,
                          min_support=SupportSpec.of_count(1),
                          min_confidence=0.01, min_lift=0.0, top_k=10_000)
        result = run_case(ts, case)
        transactions = record_itemsets(rs, rs.dictionary.names)
        want = oracle_rules(transactions, None, 1, 0.01, 0.0, case.max_rule_items)
        # prune per consequent group, mirroring the library
        by_consequent = {}
        for (antecedent, consequent), (count, s, c, lift) in want.items():
            by_consequent.setdefault(consequent, []).append((antecedent, c))
        expected_counts = 0
        for consequent, rules in by_consequent.items():
            kept = [
                (a, c)
                for a, c in rules
                if not any(o < a and oc >= c for o, oc in rules if o != a)
            ]
            expected_counts += len(kept)
        assert len(result.rules) == expected_counts

    def test_builds_rule_objects_only_for_the_top_k(self, monkeypatch):
        rng = random.Random(12)
        spec = {f"v{v}": [f"c{v}_{c}" for c in range(3)] for v in range(6)}
        rs = make_records(
            make_dictionary(spec),
            [{v: rng.choice(cats) for v, cats in spec.items()} for _ in range(200)],
        )
        ts = encode(rs, list(rs.dictionary.names))
        case = MiningCase(name="dense", consequent=None,
                          min_support=SupportSpec.of_count(1),
                          min_confidence=0.01, min_lift=0.0, top_k=5)
        built = []
        monkeypatch.setattr(Rule, "__post_init__", lambda rule: built.append(rule))
        result = run_case(ts, case)
        assert result.rules_after_pruning > 100 * case.top_k
        assert len(built) == len(result.rules) == case.top_k

    def test_zero_rule_case_warns(self, caplog):
        rs, _, consequent, _ = planted_rule_records()
        ts = encode(rs, list(rs.dictionary.names))
        case = MiningCase(name="nothing", consequent=consequent,
                          min_support=SupportSpec.of_fraction(0.05),
                          min_confidence=0.999, min_lift=3.0)
        with caplog.at_level(logging.WARNING, logger="rulekit.rules"):
            result = run_case(ts, case)
        assert result.rules == ()
        assert any("no rules" in r.message for r in caplog.records)

    @pytest.mark.parametrize("support, min_lift, cause", [
        (SupportSpec.of_count(1100), 0.0,
         ": consequent road=dry is not frequent at resolved support count 1100"),
        (SupportSpec.of_count(1801), 0.0,
         ": resolved support count 1801 exceeds the 1800 transactions"),
        (SupportSpec.of_count(1), 3.0, ""),
    ], ids=["infrequent-consequent", "count-above-n", "no-rule-clears-lift"])
    def test_an_empty_case_warns_once_and_logs_its_threshold_once(
        self, caplog, support, min_lift, cause
    ):
        rs, _, _, _ = planted_rule_records()
        ts = encode(rs, list(rs.dictionary.names))
        case = MiningCase(name="empty", consequent=("road", "dry"), min_support=support,
                          min_confidence=0.1, min_lift=min_lift)
        with caplog.at_level(logging.INFO, logger="rulekit"):
            assert run_case(ts, case).rules == ()
        warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert warnings == ["case 'empty' produced no rules" + cause]
        infos = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        assert len([m for m in infos if "resolved" in m]) == 1


def test_export_case_csv_formats(tmp_path):
    rs = two_item_records(7568, 385, 3851, 282)
    ts = encode(rs, list(rs.dictionary.names))
    case = MiningCase(name="tbl", consequent=("lighting", "daylight"),
                      min_support=SupportSpec.of_count(100),
                      min_confidence=0.5, min_lift=1.1)
    result = run_case(ts, case)
    assert result.rules
    path = tmp_path / "rules.csv"
    export_case_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "id,antecedent_items,consequent,joint_count,support_pct,confidence_pct,lift"
    r1 = next(line for line in lines if line.startswith("R1,"))
    assert r1 == "R1,{driver_age=>64},lighting=daylight,282,3.726,73.247,1.44"

    meta_path = export_case_metadata(result, tmp_path / "meta.json")
    import json

    meta = json.loads(meta_path.read_text())
    assert meta["case"]["name"] == "tbl"
    assert meta["resolved_min_support_count"] == 100
