"""Forest training, out-of-bag prediction, and permutation importance."""

import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rulekit.forest as forest_module
from generators import (
    make_dictionary,
    make_records,
    oracle_best_partition,
    planted_mda_records,
    reference_mda,
    reference_oob_predict,
    reference_train,
)
from rulekit.cli import load_config
from rulekit.errors import ValidationError
from rulekit.forest import (
    ForestConfig,
    best_partition,
    export_importance_csv,
    export_importance_json,
    mda_importance,
    oob_predict,
    select_top_k,
    train,
)
from rulekit.schema import filter_records, ingest, load_dictionary


class TestForestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_trees": 0},
            {"mtry": 0},
            {"min_node_size": 0},
            {"max_depth": 0},
        ],
    )
    def test_bounds(self, kwargs):
        with pytest.raises(ValidationError):
            ForestConfig(**kwargs)

    def test_defaults(self):
        cfg = ForestConfig()
        assert cfg.n_trees == 500
        assert cfg.mtry is None
        assert cfg.min_node_size == 1
        assert cfg.max_depth is None


def _random_table(rng: random.Random, n_cats: int) -> list[list[int]]:
    """A (category x class) count table; about a quarter of the rows are
    empty categories."""
    n_classes = rng.randint(2, 3)
    return [
        [0] * n_classes if rng.random() < 0.25
        else [rng.randint(0, 6) for _ in range(n_classes)]
        for _ in range(n_cats)
    ]


def _decrease(counts: list[list[int]], left: frozenset[int]) -> float:
    """Gini decrease of sending the categories in left to the left child."""
    n_classes = len(counts[0])
    totals = [sum(row[k] for row in counts) for k in range(n_classes)]
    n_t = sum(totals)
    parent = 1.0 - sum(t * t for t in totals) / (n_t * n_t)
    lcounts = [sum(counts[i][k] for i in left) for k in range(n_classes)]
    nl = sum(lcounts)
    nr = n_t - nl
    rcounts = [t - l for t, l in zip(totals, lcounts)]
    child = (
        nl - sum(v * v for v in lcounts) / nl
        + nr - sum(v * v for v in rcounts) / nr
    ) / n_t
    return parent - child


class TestBestPartition:
    def test_matches_exhaustive_oracle(self):
        rng = random.Random(20260815)
        for _ in range(300):
            counts = _random_table(rng, rng.randint(2, 12))
            min_node = rng.choice((1, 1, 2))
            got = best_partition(np.array(counts), min_node)
            want = oracle_best_partition(counts, min_node)
            if want is None:
                assert got is None
                continue
            assert got is not None
            assert got[0] == pytest.approx(want[0], abs=1e-12)
            # the returned subset must itself achieve the optimal decrease
            assert _decrease(counts, got[1]) == pytest.approx(want[0], abs=1e-12)
            assert all(sum(counts[c]) > 0 for c in got[1])

    def test_batch_of_mixed_widths_scores_each_table(self):
        # One batch holds tables of 0 to 12 present categories and one of 14,
        # padded with empty categories to one width; the 14-category table
        # takes the greedy search, every other one the exhaustive search.
        rng = random.Random(7)
        width = 16
        tables = [_random_table(rng, rng.randint(1, 12)) for _ in range(40)]
        tables.insert(5, [[rng.randint(1, 6) for _ in range(3)] for _ in range(12)])
        wide = [[rng.randint(1, 6), rng.randint(1, 6)] for _ in range(14)]
        tables.insert(17, wide)
        batch = np.zeros((len(tables), width, 3), dtype=np.int64)
        for i, table in enumerate(tables):
            batch[i, : len(table), : len(table[0])] = table
        value, left_mask = forest_module._score_partitions(batch, 1)
        for i, table in enumerate(tables):
            if table is wide:
                want = best_partition(np.array(table), 1)
            else:
                want = oracle_best_partition(table, 1)
            if want is None:
                assert value[i] == -np.inf and not left_mask[i].any()
                continue
            assert value[i] == pytest.approx(want[0], abs=1e-12)
            left = frozenset(np.flatnonzero(left_mask[i]).tolist())
            assert max(left) < len(table)
            assert _decrease(table, left) == pytest.approx(want[0], abs=1e-12)

    def test_pure_node_has_no_split(self):
        assert best_partition(np.array([[5, 0], [3, 0]])) is None

    def test_single_present_category(self):
        assert best_partition(np.array([[2, 3], [0, 0]])) is None

    def test_min_node_size_filters_partitions(self):
        counts = np.array([[1, 0], [0, 9]])
        assert best_partition(counts, min_node_size=1) is not None
        assert best_partition(counts, min_node_size=2) is None

    def test_greedy_path_beyond_exhaustive_bound(self):
        # 14 categories forces the greedy search; a clean two-block signal
        # must still be found
        rng = random.Random(4)
        counts = []
        for i in range(14):
            if i < 7:
                counts.append([rng.randint(8, 12), rng.randint(0, 1)])
            else:
                counts.append([rng.randint(0, 1), rng.randint(8, 12)])
        found = best_partition(np.array(counts))
        assert found is not None
        dec, left = found
        assert left == frozenset(range(7)) or left == frozenset(range(7, 14))
        assert dec > 0.3


@pytest.fixture
def separable_rs():
    d = make_dictionary({"flag": ("on", "off"), "label": ("yes", "no")})
    rows = [
        {"flag": "on" if i % 2 else "off", "label": "yes" if i % 2 else "no"}
        for i in range(20)
    ]
    return make_records(d, rows)


class TestTrain:
    def test_single_tree_splits_on_perfect_predictor(self, separable_rs):
        f = train(separable_rs, "label", ["flag"], ForestConfig(n_trees=1, seed=0))
        root = f.trees[0].nodes[0]
        assert root.feature == 0
        assert len(f.trees[0].oob_indices) > 0
        assert oob_predict(f, separable_rs).accuracy == 1.0

    def test_response_cannot_be_feature(self, separable_rs):
        with pytest.raises(ValidationError):
            train(separable_rs, "label", ["label"], ForestConfig(n_trees=1))

    def test_empty_features(self, separable_rs):
        with pytest.raises(ValidationError):
            train(separable_rs, "label", [], ForestConfig(n_trees=1))

    def test_single_class_response(self):
        d = make_dictionary({"a": ("x", "y"), "resp": ("p", "q")})
        rs = make_records(d, [{"a": "x", "resp": "p"}, {"a": "y", "resp": "p"}])
        with pytest.raises(ValidationError, match="single value"):
            train(rs, "resp", ["a"], ForestConfig(n_trees=1))

    def test_mtry_out_of_range(self, separable_rs):
        with pytest.raises(ValidationError, match="mtry"):
            train(separable_rs, "label", ["flag"], ForestConfig(n_trees=1, mtry=2))

    def test_eighteen_features_report_lists_all(self):
        rng = random.Random(8)
        spec = {f"f{i:02d}": ("a", "b", "c") for i in range(18)}
        spec["light"] = ("day", "dusk", "dark")
        d = make_dictionary(spec)
        rows = [
            {**{f"f{i:02d}": rng.choice("abc") for i in range(18)},
             "light": rng.choice(("day", "dusk", "dark"))}
            for _ in range(150)
        ]
        rs = make_records(d, rows)
        features = [f"f{i:02d}" for i in range(18)]
        f = train(rs, "light", features, ForestConfig(n_trees=30, seed=2))
        assert f.mtry == 4  # floor(sqrt(18))
        report = mda_importance(f, rs, seed=2)
        assert sorted(e.variable for e in report.entries) == features

    def test_node_children_respect_min_node_size(self, separable_rs):
        f = train(
            separable_rs, "label", ["flag"],
            ForestConfig(n_trees=20, seed=3, min_node_size=4),
        )
        for tree in f.trees:
            for node in tree.nodes:
                if node.is_leaf:
                    pure = sum(1 for c in node.class_counts if c) <= 1
                    assert pure or sum(node.class_counts) >= 4

    def test_determinism_across_runs(self, separable_rs):
        cfg = ForestConfig(n_trees=16, seed=42)
        a = train(separable_rs, "label", ["flag"], cfg)
        b = train(separable_rs, "label", ["flag"], cfg)
        for ta, tb in zip(a.trees, b.trees):
            assert ta.nodes == tb.nodes
            assert np.array_equal(ta.oob_indices, tb.oob_indices)
        ra = mda_importance(a, separable_rs, seed=9)
        rb = mda_importance(b, separable_rs, seed=9)
        assert ra == rb

    def test_different_seeds_differ(self, separable_rs):
        a = train(separable_rs, "label", ["flag"], ForestConfig(n_trees=8, seed=1))
        b = train(separable_rs, "label", ["flag"], ForestConfig(n_trees=8, seed=2))
        assert any(
            not np.array_equal(ta.in_bag, tb.in_bag)
            for ta, tb in zip(a.trees, b.trees)
        )


class TestOobPredict:
    def test_single_tree_covers_exactly_the_oob_records(self, separable_rs):
        f = train(separable_rs, "label", ["flag"], ForestConfig(n_trees=1, seed=0))
        prediction = oob_predict(f, separable_rs)
        oob = set(f.trees[0].oob_indices.tolist())
        for i, label in enumerate(prediction.predictions):
            assert (label is not None) == (i in oob)

    def test_record_set_mismatch(self, separable_rs):
        f = train(separable_rs, "label", ["flag"], ForestConfig(n_trees=1, seed=0))
        shorter = make_records(
            separable_rs.dictionary,
            [{"flag": "on", "label": "yes"}, {"flag": "off", "label": "no"}],
        )
        with pytest.raises(ValidationError, match="does not match"):
            oob_predict(f, shorter)

    def test_same_size_record_set_with_one_changed_value(self, separable_rs):
        f = train(separable_rs, "label", ["flag"], ForestConfig(n_trees=4, seed=0))
        rows = [dict(r.values) for r in separable_rs.records]
        rows[3]["label"] = "no" if rows[3]["label"] == "yes" else "yes"
        changed = make_records(separable_rs.dictionary, rows)
        assert len(changed) == len(separable_rs)
        with pytest.raises(ValidationError, match="does not match"):
            oob_predict(f, changed)
        with pytest.raises(ValidationError, match="does not match"):
            mda_importance(f, changed, seed=0)

    def test_high_coverage_with_many_trees(self):
        rng = random.Random(41)
        d = make_dictionary(
            {"signal": ("g0", "g1"), "noise": ("u", "v"), "outcome": ("pos", "neg")}
        )
        rows = []
        for _ in range(200):
            g = rng.choice(("g0", "g1"))
            rows.append({
                "signal": g,
                "noise": rng.choice(("u", "v")),
                "outcome": "pos" if rng.random() < (0.9 if g == "g0" else 0.1) else "neg",
            })
        rs = make_records(d, rows)
        f = train(rs, "outcome", ["signal", "noise"], ForestConfig(n_trees=100, seed=5))
        prediction = oob_predict(f, rs)
        # P(a record is in-bag for all 100 trees) = (1 - (1-1/n)^n)^100, tiny
        assert prediction.coverage >= 0.99

    def test_accuracy_close_to_plug_in_optimum(self):
        rng = random.Random(41)
        d = make_dictionary(
            {"signal": ("g0", "g1"), "n1": ("u", "v"), "n2": ("p", "q"),
             "outcome": ("pos", "neg")}
        )
        rows = []
        for _ in range(200):
            g = rng.choice(("g0", "g1"))
            rows.append({
                "signal": g,
                "n1": rng.choice(("u", "v")),
                "n2": rng.choice(("p", "q")),
                "outcome": "pos" if rng.random() < (0.9 if g == "g0" else 0.1) else "neg",
            })
        rs = make_records(d, rows)
        from collections import Counter

        by_signal: dict[str, Counter] = {}
        for row in rows:
            by_signal.setdefault(row["signal"], Counter())[row["outcome"]] += 1
        optimum = sum(c.most_common(1)[0][1] for c in by_signal.values()) / len(rows)
        f = train(rs, "outcome", ["signal", "n1", "n2"], ForestConfig(n_trees=100, seed=5))
        accuracy = oob_predict(f, rs).accuracy
        assert abs(accuracy - optimum) <= 0.05


class TestMdaImportance:
    def test_unused_features_score_exactly_zero(self):
        rs, predictor, noise = planted_mda_records(n=300)
        f = train(rs, "resp", [predictor] + noise,
                  ForestConfig(n_trees=1, max_depth=1, mtry=6, seed=1))
        assert f.trees[0].nodes[0].feature == 0  # stump splits on the predictor
        report = mda_importance(f, rs, seed=1)
        by_var = {e.variable: e for e in report.entries}
        assert by_var[predictor].mda > 0.0
        for name in noise:
            assert by_var[name].mda == 0.0
            assert by_var[name].sd == 0.0

    def test_planted_predictor_ranks_first(self):
        rs, predictor, noise = planted_mda_records(n=300)
        f = train(rs, "resp", [predictor] + noise, ForestConfig(n_trees=80, seed=6))
        report = mda_importance(f, rs, seed=6)
        assert report.entries[0].variable == predictor
        assert report.entries[0].mda > 0.2
        assert report.oob_accuracy > 0.95

    def test_ties_order_by_dictionary_position(self):
        rs, predictor, noise = planted_mda_records(n=200)
        f = train(rs, "resp", [predictor] + noise,
                  ForestConfig(n_trees=1, max_depth=1, mtry=6, seed=1))
        report = mda_importance(f, rs, seed=1)
        zero_vars = [e.variable for e in report.entries if e.mda == 0.0]
        positions = [f.dictionary.variable_index(v) for v in zero_vars]
        assert positions == sorted(positions)


def test_select_top_k_bounds():
    rs, predictor, noise = planted_mda_records(n=200)
    f = train(rs, "resp", [predictor] + noise, ForestConfig(n_trees=10, seed=0))
    report = mda_importance(f, rs, seed=0)
    assert select_top_k(report, 1) == (predictor,)
    assert len(select_top_k(report, 6)) == 6
    with pytest.raises(ValidationError):
        select_top_k(report, 0)
    with pytest.raises(ValidationError):
        select_top_k(report, 7)


def test_importance_exports(tmp_path):
    rs, predictor, noise = planted_mda_records(n=200)
    f = train(rs, "resp", [predictor] + noise, ForestConfig(n_trees=10, seed=0))
    report = mda_importance(f, rs, seed=0)
    csv_path = export_importance_csv(report, tmp_path / "imp.csv")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "variable,mda,sd,rank"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == predictor
    assert float(first[1]) == report.entries[0].mda  # repr round-trips exactly

    import json

    doc = json.loads(export_importance_json(report, tmp_path / "imp.json").read_text())
    assert doc["entries"][0]["variable"] == predictor
    assert doc["entries"][0]["rank"] == 1
    assert doc["oob_accuracy"] == report.oob_accuracy


def _report_bits(report):
    """A report as exact float bit patterns, so -0.0 and 0.0 differ."""
    return (
        [(e.variable, e.mda.hex(), e.sd.hex()) for e in report.entries],
        report.oob_accuracy.hex(),
    )


def _assert_matches_reference(rs, response, features, cfg, forest):
    reference = reference_train(rs, response, features, cfg)
    assert len(forest.trees) == len(reference)
    for tree, (nodes, in_bag) in zip(forest.trees, reference):
        assert tree.nodes == nodes
        assert np.array_equal(tree.in_bag, in_bag)
        assert np.array_equal(tree.oob_indices, np.flatnonzero(in_bag == 0))
    got, want = oob_predict(forest, rs), reference_oob_predict(forest, rs)
    assert got.predictions == want.predictions
    assert got.accuracy == want.accuracy or (
        math.isnan(got.accuracy) and math.isnan(want.accuracy)
    )
    if any(len(tree.oob_indices) for tree in forest.trees):
        seed = cfg.seed + 1
        assert _report_bits(mda_importance(forest, rs, seed)) == _report_bits(
            reference_mda(forest, rs, seed)
        )


@st.composite
def forest_fixtures(draw):
    """Small record sets and configs; one feature may have 13-15 categories,
    so nodes with more than 12 present ones take the greedy search."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n_features = draw(st.integers(1, 4))
    wide = draw(st.booleans())
    spec = {
        f"f{i}": tuple(f"c{j}" for j in range(rng.randint(13, 15) if wide and i == 0
                                              else rng.randint(2, 5)))
        for i in range(n_features)
    }
    n_classes = rng.randint(2, 3)
    spec["resp"] = tuple(f"r{k}" for k in range(n_classes))
    rows = []
    for r in range(draw(st.integers(4, 60))):
        row = {name: rng.choice(cats) for name, cats in spec.items() if name != "resp"}
        # the response leans on f0, so trees grow past the root
        signal = spec["f0"].index(row["f0"]) % n_classes
        row["resp"] = spec["resp"][signal if rng.random() < 0.7 else rng.randrange(n_classes)]
        rows.append(row)
    rows[0]["resp"], rows[1]["resp"] = "r0", "r1"
    cfg = ForestConfig(
        n_trees=draw(st.integers(1, 4)),
        mtry=draw(st.integers(1, n_features)),
        min_node_size=draw(st.integers(1, 3)),
        max_depth=draw(st.none() | st.integers(1, 4)),
        seed=draw(st.integers(0, 1000)),
    )
    return make_records(make_dictionary(spec), rows), [f"f{i}" for i in range(n_features)], cfg


class TestFlatForestMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(forest_fixtures())
    def test_random_data(self, fixture):
        rs, features, cfg = fixture
        _assert_matches_reference(rs, "resp", features, cfg, train(rs, "resp", features, cfg))

    def test_sample_data(self):
        cfg = load_config(Path(__file__).resolve().parent.parent / "sample" / "config.json")
        rs = ingest(
            cfg.data_path, load_dictionary(cfg.dictionary_path),
            cfg.unknown_policy, cfg.record_id_column,
        )
        rs = filter_records(rs, cfg.filter_steps)
        features = [v for v in rs.dictionary.names if v != cfg.response]
        fcfg = ForestConfig(n_trees=20, min_node_size=cfg.forest.min_node_size, seed=7)
        forest = train(rs, cfg.response, features, fcfg)
        _assert_matches_reference(rs, cfg.response, features, fcfg, forest)

    def test_block_and_chunk_sizes_do_not_change_results(self, monkeypatch):
        rs, predictor, noise = planted_mda_records(n=120)
        features = [predictor] + noise
        cfg = ForestConfig(n_trees=6, min_node_size=2, seed=3)
        one_block = train(rs, "resp", features, cfg)
        report = mda_importance(one_block, rs, seed=4)
        assert len(forest_module._tree_blocks(len(rs), 6, forest_module._BLOCK_ROWS)) == 1
        # one tree per block, a few nodes per gather and 7 queries per pass
        monkeypatch.setattr(forest_module, "_BLOCK_ROWS", len(rs))
        monkeypatch.setattr(forest_module, "_CHUNK_ROWS", 7)
        assert len(forest_module._tree_blocks(len(rs), 6, forest_module._BLOCK_ROWS)) == 6
        per_tree = train(rs, "resp", features, cfg)
        for a, b in zip(one_block.trees, per_tree.trees):
            assert a.nodes == b.nodes
            assert np.array_equal(a.in_bag, b.in_bag)
        assert _report_bits(mda_importance(per_tree, rs, seed=4)) == _report_bits(report)
        assert oob_predict(per_tree, rs) == oob_predict(one_block, rs)


def test_tree_arrays_are_read_only(separable_rs):
    tree = train(separable_rs, "label", ["flag"], ForestConfig(n_trees=1, seed=0)).trees[0]
    for name in ("feature", "left", "right", "class_index", "class_counts",
                 "route_start", "routing", "in_bag", "oob_indices"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(tree, name)[...] = 0
    assert isinstance(tree.nodes, tuple)
