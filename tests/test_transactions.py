"""Bitset transaction encoding and support counting."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import (
    make_dictionary,
    make_records,
    oracle_support,
    random_record_set,
    record_itemsets,
)
from rulekit.errors import ValidationError
from rulekit.transactions import (
    encode,
    item_frequencies,
    item_token,
    parse_item_token,
    support_count,
)


def test_item_token_round_trip_with_angle_bracket_category():
    # ">64" prints as driver_age=>64 and must parse back unchanged
    token = item_token(("driver_age", ">64"))
    assert token == "driver_age=>64"
    assert parse_item_token(token) == ("driver_age", ">64")


@pytest.mark.parametrize("bad", ["", "noequals", "=cat", "var="])
def test_parse_item_token_rejects_malformed(bad):
    with pytest.raises(ValidationError):
        parse_item_token(bad)


@pytest.fixture
def small_rs():
    d = make_dictionary(
        {"weather": ("clear", "rain"), "road": ("dry", "wet"), "hour": ("day", "night")}
    )
    rows = [
        {"weather": "clear", "road": "dry", "hour": "day"},
        {"weather": "rain", "road": "wet", "hour": "night"},
        {"weather": "rain", "road": "wet", "hour": "day"},
        {"weather": "clear", "road": "wet", "hour": "day"},
    ]
    return make_records(d, rows)


def test_universe_follows_dictionary_order(small_rs):
    ts = encode(small_rs, ["road", "weather"])  # request order should not matter
    assert ts.universe.items == (
        ("weather", "clear"),
        ("weather", "rain"),
        ("road", "dry"),
        ("road", "wet"),
    )
    assert ts.universe.item_id("road", "wet") == 3
    assert ts.universe.variable_of(1) == "weather"
    assert ts.universe.token(3) == "road=wet"


def test_occurring_only_universe_drops_absent_categories(small_rs):
    d = make_dictionary({"surface": ("dry", "wet", "icy")})
    rs = make_records(d, [{"surface": "dry"}, {"surface": "wet"}])
    ts = encode(rs, ["surface"])
    assert [cat for _, cat in ts.universe.items] == ["dry", "wet"]
    full = encode(rs, ["surface"], full_universe=True)
    assert [cat for _, cat in full.universe.items] == ["dry", "wet", "icy"]
    assert support_count(full, (full.universe.item_id("surface", "icy"),)) == 0


def test_support_counts_by_hand(small_rs):
    ts = encode(small_rs, ["weather", "road", "hour"])
    u = ts.universe
    rain = u.item_id("weather", "rain")
    wet = u.item_id("road", "wet")
    day = u.item_id("hour", "day")
    assert support_count(ts, ()) == 4
    assert support_count(ts, (rain,)) == 2
    assert support_count(ts, (rain, wet)) == 2
    assert support_count(ts, (rain, wet, day)) == 1
    # two categories of one variable can never co-occur
    clear = u.item_id("weather", "clear")
    assert support_count(ts, (rain, clear)) == 0


def test_support_count_rejects_out_of_range(small_rs):
    ts = encode(small_rs, ["weather"])
    with pytest.raises(ValidationError):
        support_count(ts, (99,))
    with pytest.raises(ValidationError):  # numpy would read -1 as the last row
        support_count(ts, (0, -1))


def test_encode_requires_selection_and_records(small_rs):
    with pytest.raises(ValidationError):
        encode(small_rs, [])
    empty = make_records(small_rs.dictionary, [])
    with pytest.raises(ValidationError):
        encode(empty, ["weather"])


def test_encode_rejects_unknown_variable(small_rs):
    with pytest.raises(ValidationError):
        encode(small_rs, ["weather", "nope"])


def test_masks_are_read_only(small_rs):
    ts = encode(small_rs, ["weather"])
    with pytest.raises(ValueError):
        ts.bitmaps[0, 0] = 1


def test_more_than_64_items_spans_words():
    cats = [f"c{i:02d}" for i in range(15)]
    d = make_dictionary({f"v{j}": cats for j in range(5)})  # 75 declared items
    rng = random.Random(99)
    rows = [{f"v{j}": rng.choice(cats) for j in range(5)} for _ in range(40)]
    rs = make_records(d, rows)
    ts = encode(rs, list(d.names), full_universe=True)
    assert len(ts.universe) == 75
    assert ts.bitmaps.shape == (75, 1)  # one bitmap row per item, 40 bits each
    transactions = record_itemsets(rs, d.names)
    # probe itemsets with ids on both sides of 64
    for ids in [(60, 66), (0, 64), (63, 64, 74)]:
        items = [ts.universe.items[i] for i in ids]
        assert support_count(ts, ids) == oracle_support(transactions, items)


def test_item_frequencies_order_and_values(small_rs):
    ts = encode(small_rs, ["weather", "road"])
    freqs = item_frequencies(ts)
    assert [f.count for f in freqs] == sorted((f.count for f in freqs), reverse=True)
    by_item = {(f.variable, f.category): f for f in freqs}
    assert by_item[("road", "wet")].count == 3
    assert by_item[("road", "wet")].relative_frequency == 3 / 4
    # ties broken by item id: clear (id 0) before dry (id 2), both count 2
    counts = [(f.count, f.item_id) for f in freqs]
    assert counts == sorted(counts, key=lambda t: (-t[0], t[1]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_support_count_matches_oracle(seed, data):
    rs = random_record_set(random.Random(seed))
    ts = encode(rs, list(rs.dictionary.names))
    transactions = record_itemsets(rs, rs.dictionary.names)
    n_items = len(ts.universe)
    size = data.draw(st.integers(0, min(4, n_items)))
    ids = data.draw(
        st.lists(
            st.integers(0, n_items - 1), min_size=size, max_size=size, unique=True
        )
    )
    items = [ts.universe.items[i] for i in ids]
    assert support_count(ts, ids) == oracle_support(transactions, items)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65])
def test_support_count_ignores_padding_bits(n):
    # n off a byte or word boundary leaves padding bits in the last byte/word
    spec = {"a": ("a0", "a1"), "b": ("b0", "b1", "b2"), "c": ("c0", "c1")}
    rng = random.Random(n)
    rows = [{var: rng.choice(cats) for var, cats in spec.items()} for _ in range(n)]
    rs = make_records(make_dictionary(spec), rows)
    ts = encode(rs, list(spec), full_universe=True)
    transactions = record_itemsets(rs, list(spec))
    items = ts.universe.items
    probes = [()] + [(i,) for i in range(len(items))] + [(0, 2), (1, 4, 6), (5,) * 2]
    for ids in probes:
        want = oracle_support(transactions, [items[i] for i in ids])
        assert support_count(ts, ids) == want
    by_id = sorted(item_frequencies(ts), key=lambda f: f.item_id)
    assert [f.count for f in by_id] == [oracle_support(transactions, [i]) for i in items]
