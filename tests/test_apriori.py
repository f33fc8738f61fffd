"""Support thresholds and level-wise frequent itemset mining."""

import logging
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from generators import (
    make_dictionary,
    make_records,
    oracle_frequent_itemsets,
    random_record_set,
    record_itemsets,
)
from rulekit.apriori import FrequentItemsets, SupportSpec, dump_itemsets, mine_frequent
from rulekit.errors import ValidationError
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


def test_min_len_validation(tiny_ts):
    with pytest.raises(ValidationError):
        mine_frequent(tiny_ts, SupportSpec.of_count(1), max_len=0)


def test_threshold_above_n_warns_and_returns_empty(tiny_ts, caplog):
    with caplog.at_level(logging.WARNING, logger="rulekit.apriori"):
        freq = mine_frequent(tiny_ts, SupportSpec.of_count(10), max_len=2)
    assert len(freq) == 0
    assert any("exceeds" in rec.message for rec in caplog.records)


def test_resolved_threshold_is_logged(tiny_ts, caplog):
    with caplog.at_level(logging.INFO, logger="rulekit.apriori"):
        mine_frequent(tiny_ts, SupportSpec.of_fraction(0.5), max_len=1)
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


def test_thread_count_does_not_change_result():
    rs = random_record_set(random.Random(7))
    ts = encode(rs, list(rs.dictionary.names))
    lone = mine_frequent(ts, SupportSpec.of_count(2), 4, threads=1)
    pooled = mine_frequent(ts, SupportSpec.of_count(2), 4, threads=4)
    assert lone.by_level == pooled.by_level


def test_levels_are_sorted_lexicographically(tiny_ts):
    freq = mine_frequent(tiny_ts, SupportSpec.of_count(1), max_len=3)
    for level, entries in freq.by_level.items():
        itemsets = [itemset for itemset, _ in entries]
        assert itemsets == sorted(itemsets)
        assert all(len(itemset) == level for itemset in itemsets)
        assert all(tuple(sorted(i)) == i for i in itemsets)


def test_dump_itemsets_csv(tmp_path, tiny_ts):
    freq = mine_frequent(tiny_ts, SupportSpec.of_count(2), 2)
    path = tmp_path / "itemsets.csv"
    dump_itemsets(freq, tiny_ts, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "level,items,support_count,support_fraction"
    assert len(lines) == 1 + len(freq)
    assert any("a=a1 b=b1" in line for line in lines)
