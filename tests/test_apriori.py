"""Support thresholds and level-wise frequent itemset mining."""

import logging
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rulekit.apriori as apriori
from generators import (
    make_dictionary,
    make_records,
    oracle_frequent_itemsets,
    random_record_set,
    record_itemsets,
    reference_join_candidates,
    reference_mine_frequent,
)
from rulekit import parallel, transactions
from rulekit.apriori import FrequentItemsets, SupportSpec, mine_frequent
from rulekit.errors import ValidationError
from rulekit.rules import MiningCase, generate_rules, run_case
from rulekit.transactions import encode, support_count


class TestSupportSpec:
    def test_parse_int_is_count_float_is_fraction(self):
        assert SupportSpec.parse(5) == SupportSpec.of_count(5)
        assert SupportSpec.parse(0.01) == SupportSpec.of_fraction(0.01)

    @pytest.mark.parametrize("bad", [True, False, "0.1", None, [1]])
    def test_parse_rejects_non_numbers(self, bad):
        with pytest.raises(ValidationError):
            SupportSpec.parse(bad)

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
    def test_fraction_bounds(self, bad):
        with pytest.raises(ValidationError):
            SupportSpec.of_fraction(bad)

    def test_fraction_of_exactly_one_is_allowed(self):
        assert SupportSpec.of_fraction(1.0).resolve(10) == 10

    @pytest.mark.parametrize("bad", [0, -3])
    def test_count_must_be_positive(self, bad):
        with pytest.raises(ValidationError):
            SupportSpec.of_count(bad)

    def test_exactly_one_of_fraction_or_count(self):
        with pytest.raises(ValidationError):
            SupportSpec(fraction=0.1, count=2)
        with pytest.raises(ValidationError):
            SupportSpec()

    def test_resolve_rounds_up(self):
        assert SupportSpec.of_fraction(0.001).resolve(7568) == 8  # 7.568 -> 8
        assert SupportSpec.of_count(12).resolve(1000) == 12

    def test_resolve_floors_at_one_transaction(self):
        # a tiny fraction like 0.00005 over small n resolves below one record
        assert SupportSpec.of_fraction(0.00005).resolve(103) == 1

    def test_resolve_uses_the_exact_fraction(self):
        # 0.07 * 100 is 7.000000000000001 in floating point
        assert SupportSpec.of_fraction(0.07).resolve(100) == 7

    @settings(max_examples=200)
    @given(st.sampled_from([100, 1000, 10**6]), st.integers(0, 10**6), st.data())
    def test_resolve_matches_exact_rational(self, denominator, n, data):
        # a short decimal fraction, as written in a config file
        exact = Fraction(data.draw(st.integers(1, denominator)), denominator)
        resolved = SupportSpec.of_fraction(float(exact)).resolve(n)
        assert resolved == max(1, math.ceil(exact * n))

    @settings(max_examples=50)
    @given(
        st.floats(min_value=1e-9, max_value=1.0, exclude_min=False),
        st.integers(1, 10_000),
    )
    # the float product is 3117.0, the exact one just above it: resolves to 3118
    @example(0.8694560669456067, 3585)
    def test_resolve_bounds(self, fraction, n):
        resolved = SupportSpec.of_fraction(fraction).resolve(n)
        assert 1 <= resolved
        assert resolved - 1 < Fraction(repr(fraction)) * n or resolved == 1


@pytest.fixture
def tiny_ts():
    d = make_dictionary({"a": ("a1", "a2"), "b": ("b1", "b2")})
    rows = [
        {"a": "a1", "b": "b1"},
        {"a": "a1", "b": "b1"},
        {"a": "a1", "b": "b2"},
        {"a": "a2", "b": "b1"},
    ]
    return encode(make_records(d, rows), ["a", "b"])


def test_mine_frequent_hand_worked(tiny_ts):
    freq = mine_frequent(tiny_ts, SupportSpec.of_count(2), max_len=2)
    u = tiny_ts.universe
    a1, b1 = u.item_id("a", "a1"), u.item_id("b", "b1")
    b2 = u.item_id("b", "b2")
    level1 = dict(freq.by_level[1])
    assert level1 == {(a1,): 3, (b1,): 3}
    # a2 and b2 have count 1 and drop out; only a1+b1 survives at level 2
    assert dict(freq.by_level.get(2, ())) == {tuple(sorted((a1, b1))): 2}
    assert freq.support((b1, a1)) == 2  # order-insensitive lookup
    assert freq.support((b2,)) is None
    assert freq.support((a1 + 256,)) is None  # would wrap to a1 in the uint8 level
    assert freq.support((a1, b1, b2)) is None and freq.support(()) is None  # no such level


def test_mining_and_rule_generation_build_no_pairs(monkeypatch):
    """The pipeline reads only the level arrays: mining, rule generation,
    ``run_case`` and the lengths a benchmark trace reads build no
    (itemset, count) pair."""

    def build(*args):
        raise AssertionError("an (itemset, count) pair was built")

    monkeypatch.setattr(apriori._Level, "__getitem__", build)
    monkeypatch.setattr(apriori._Level, "__iter__", build)
    rs = random_record_set(random.Random(7), max_items=16, max_transactions=96)
    ts = encode(rs, list(rs.dictionary.names))
    case = MiningCase(name="all", consequent=None, min_support=SupportSpec.of_count(2),
                      min_confidence=0.1, min_lift=0.0)
    freq = mine_frequent(ts, case.min_support, 4)
    assert len(generate_rules(freq, ts, case)) == run_case(ts, case).rules_generated > 0
    assert len(freq) == sum(len(level) for level in freq.by_level.values()) > 0
    assert max(freq.by_level) >= 3
    assert "_keys" not in vars(freq)  # the support lookup is built on first use


def test_min_len_validation(tiny_ts):
    with pytest.raises(ValidationError):
        mine_frequent(tiny_ts, SupportSpec.of_count(1), max_len=0)


def _case(min_support: SupportSpec) -> MiningCase:
    return MiningCase(name="any", consequent=None, min_support=min_support,
                      min_confidence=0.5, min_lift=0.0)


# run_case, the miner's caller that knows the case, logs the resolved
# threshold and the warning, so that each is logged once per case.
def test_threshold_above_n_warns_and_returns_empty(tiny_ts, caplog):
    assert len(mine_frequent(tiny_ts, SupportSpec.of_count(10), max_len=2)) == 0
    with caplog.at_level(logging.WARNING, logger="rulekit.rules"):
        assert run_case(tiny_ts, _case(SupportSpec.of_count(10))).rules == ()
    assert any("exceeds" in rec.message for rec in caplog.records)


def test_resolved_threshold_is_logged(tiny_ts, caplog):
    with caplog.at_level(logging.INFO, logger="rulekit.rules"):
        run_case(tiny_ts, _case(SupportSpec.of_fraction(0.5)))
    assert any("resolved" in rec.message for rec in caplog.records)


def test_downward_closure_and_counts(tiny_ts):
    freq = mine_frequent(tiny_ts, SupportSpec.of_count(1), max_len=3)
    kept = {itemset for itemset, _ in freq}
    for itemset, count in freq:
        assert count == support_count(tiny_ts, itemset)
        for k in range(1, len(itemset)):
            for sub in combinations(itemset, k):
                assert tuple(sorted(sub)) in kept


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 4))
def test_matches_oracle_on_random_fixtures(seed, min_count, max_len):
    rs = random_record_set(random.Random(seed))
    ts = encode(rs, list(rs.dictionary.names))
    freq = mine_frequent(ts, SupportSpec.of_count(min_count), max_len)
    got = {
        frozenset(ts.universe.items[i] for i in itemset): count
        for itemset, count in freq
    }
    want = oracle_frequent_itemsets(
        record_itemsets(rs, rs.dictionary.names), min_count, max_len
    )
    assert got == want


def test_levels_are_sorted_lexicographically(tiny_ts):
    freq = mine_frequent(tiny_ts, SupportSpec.of_count(1), max_len=3)
    for level, entries in freq.by_level.items():
        itemsets = [itemset for itemset, _ in entries]
        assert itemsets == sorted(itemsets)
        assert all(len(itemset) == level for itemset in itemsets)
        assert all(tuple(sorted(i)) == i for i in itemsets)


def _assert_same_levels(got: FrequentItemsets, want: FrequentItemsets, ts) -> None:
    """The miner's result equals the reference's through every reader:
    level arrays, ``by_level`` views, iteration, ``len`` and ``support``."""
    assert got.n_transactions == want.n_transactions
    assert got.levels.keys() == want.levels.keys()
    for k, (items, counts) in got.levels.items():
        assert (items == want.levels[k][0]).all() and (counts == want.levels[k][1]).all()
    pairs = {k: list(level) for k, level in want.by_level.items()}
    assert {k: list(level) for k, level in got.by_level.items()} == pairs
    assert {k: len(level) for k, level in got.by_level.items()} == {
        k: len(level) for k, level in pairs.items()
    }
    flat = [pair for level in pairs.values() for pair in level]
    assert list(got) == flat and len(got) == len(want) == len(flat)
    for itemset, count in flat:
        assert type(count) is int
        assert all(type(item) is int for item in itemset)
    for k, level in got.by_level.items():
        assert level[0] == pairs[k][0] and level[-1] == pairs[k][-1]
    # support: every stored itemset in reverse order, each one-item change
    # that is not frequent, and a length with no level
    frequent = dict(flat)
    for itemset, count in flat:
        assert got.support(itemset[::-1]) == count
        for item in range(len(ts.universe)):
            changed = tuple(sorted({*itemset[:-1], item}))
            if len(changed) == len(itemset):
                assert got.support(changed) == frequent.get(changed)
    assert got.support(tuple(range(max(got.levels, default=0) + 1))) is None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 5))
def test_matches_reference_miner(seed, min_count, max_len):
    rs = random_record_set(random.Random(seed), max_items=16, max_transactions=96)
    ts = encode(rs, list(rs.dictionary.names))
    support = SupportSpec.of_count(min_count)
    _assert_same_levels(
        mine_frequent(ts, support, max_len), reference_mine_frequent(ts, support, max_len), ts
    )


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_chunk_size_does_not_change_result(monkeypatch, chunk):
    for seed in range(15):
        # up to 200 transactions: bitmaps of one to four words
        rs = random_record_set(random.Random(seed), max_items=16, max_transactions=200)
        ts = encode(rs, list(rs.dictionary.names))
        monkeypatch.setattr(apriori, "_CHUNK_WORDS", chunk * ts.bitmaps.shape[1])
        support = SupportSpec.of_count(2)
        _assert_same_levels(
            mine_frequent(ts, support, 4), reference_mine_frequent(ts, support, 4), ts
        )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.sampled_from([1, 3, 1 << 17]))
def test_counts_exactly_the_reference_candidates(seed, min_count, chunk):
    """Same-variable pairs and candidates with an infrequent subset never
    reach the count (their support is below threshold anyway, so only the
    counted candidates show whether the join and the prune dropped them)."""
    rs = random_record_set(random.Random(seed), max_items=16, max_transactions=96)
    ts = encode(rs, list(rs.dictionary.names))
    support = SupportSpec.of_count(min_count)
    counted: dict[int, list[tuple[int, ...]]] = {}
    candidates = apriori._candidates

    def recording(*args):
        found = candidates(*args)
        counted.setdefault(found.shape[1], []).extend(map(tuple, found.tolist()))
        return found

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(apriori, "_candidates", recording)
        mp.setattr(apriori, "_CHUNK_WORDS", chunk * ts.bitmaps.shape[1])
        mine_frequent(ts, support, 4)
    want = reference_mine_frequent(ts, support, 4)
    joined = {
        k + 1: reference_join_candidates(
            [iset for iset, _ in want.by_level[k]], ts.universe.variable_of
        )
        for k in sorted(want.by_level)
        if k < 4
    }
    assert {k: c for k, c in counted.items() if c} == {k: c for k, c in joined.items() if c}


def test_wide_universe_and_deep_planted_itemset():
    """300+ item ids (past one byte) and an 8-item itemset on duplicated rows."""
    n_vars, n_cats = 8, 40
    spec = {f"v{j}": [f"c{c}" for c in range(n_cats)] for j in range(n_vars)}
    planted = {var: cats[-1] for var, cats in spec.items()}
    rng = random.Random(11)
    rows = [planted] * 3
    for _ in range(12):
        row = {var: "c0" for var in spec}
        row["v0"], row["v1"] = rng.choice(("c0", "c1")), rng.choice(("c0", "c1"))
        rows.append(row)
    rs = make_records(make_dictionary(spec), rows)
    ts = encode(rs, list(spec), full_universe=True)
    assert len(ts.universe) == 320
    freq = mine_frequent(ts, SupportSpec.of_count(2), max_len=9)
    got = {frozenset(ts.universe.items[i] for i in itemset): count for itemset, count in freq}
    assert got == oracle_frequent_itemsets(record_itemsets(rs, list(spec)), 2, 9)
    planted_ids = tuple(ts.universe.item_id(var, cat) for var, cat in planted.items())
    assert max(planted_ids) > 255
    assert freq.support(planted_ids) == 3
    assert max(freq.by_level) == 8


def test_traced_names_stay_importable_from_apriori():
    # benchmark tracing patches these two names in rulekit.apriori
    assert apriori.support_count is transactions.support_count
    assert apriori.run_ordered is parallel.run_ordered
