"""Forest training, out-of-bag prediction, and permutation importance."""

import itertools
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
    reference_first_splits,
    reference_mda,
    reference_oob_predict,
    reference_train,
    rows_of,
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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_trees": True},
            {"n_trees": 2.0},
            {"mtry": 2.0},
            {"mtry": True},
            {"min_node_size": 5.0},
            {"max_depth": 2.0},
            {"max_depth": False},
            {"seed": 1.5},
            {"seed": "7"},
            {"seed": None},
        ],
    )
    def test_rejects_bools_and_non_integers(self, kwargs):
        with pytest.raises(ValidationError, match=next(iter(kwargs))):
            ForestConfig(**kwargs)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_seed_must_fit_in_64_bits(self, seed):
        # the RNG reads the seed as a uint64: -1 and 2**64 - 1 would draw alike
        with pytest.raises(ValidationError, match=rf"seed {seed} must be in \[0, 2\*\*64\)"):
            ForestConfig(seed=seed)

    def test_seed_bounds_are_inclusive_exclusive(self):
        assert ForestConfig(seed=0).seed == 0
        assert ForestConfig(seed=2**64 - 1).seed == 2**64 - 1

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


class TestBestPartition:
    def test_matches_exhaustive_oracle(self):
        rng = random.Random(20260815)
        for _ in range(300):
            counts = _random_table(rng, rng.randint(2, 12))
            min_node = rng.choice((1, 1, 2))
            got = best_partition(np.array(counts), min_node)
            want = oracle_best_partition(counts, min_node)
            # every count is an exact integer in float64, so the scorer gives
            # the oracle's decrease to the bit and its first best left set
            assert got == want

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
            assert value[i] == want[0]
            assert frozenset(np.flatnonzero(left_mask[i]).tolist()) == want[1]

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
        assert oob_predict(f).accuracy == 1.0

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
        report = mda_importance(f)
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
        ra = mda_importance(a)
        rb = mda_importance(b)
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
        prediction = oob_predict(f)
        oob = set(f.trees[0].oob_indices.tolist())
        for i, label in enumerate(prediction.predictions):
            assert (label is not None) == (i in oob)

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
        prediction = oob_predict(f)
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
        accuracy = oob_predict(f).accuracy
        assert abs(accuracy - optimum) <= 0.05


class TestMdaImportance:
    def test_unused_features_score_exactly_zero(self):
        rs, predictor, noise = planted_mda_records(n=300)
        f = train(rs, "resp", [predictor] + noise,
                  ForestConfig(n_trees=1, max_depth=1, mtry=6, seed=1))
        assert f.trees[0].nodes[0].feature == 0  # stump splits on the predictor
        report = mda_importance(f)
        by_var = {e.variable: e for e in report.entries}
        assert by_var[predictor].mda > 0.0
        for name in noise:
            assert by_var[name].mda == 0.0
            assert by_var[name].sd == 0.0

    def test_single_code_feature_scores_exactly_zero(self):
        # a permutation of a column with one code leaves every row's code
        # as it is, so no permuted row reaches another leaf
        rs, predictor, noise = planted_mda_records(n=200)
        spec = {v.name: v.categories for v in rs.dictionary.variables}
        d = make_dictionary({"const": ("k", "other"), **spec})
        rs = make_records(d, [{**values, "const": "k"} for _, values in rows_of(rs)])
        f = train(rs, "resp", [predictor, "const", *noise], ForestConfig(n_trees=20, seed=3))
        report = mda_importance(f)
        (const,) = [e for e in report.entries if e.variable == "const"]
        assert (const.mda, const.sd) == (0.0, 0.0)
        assert _report_bits(report) == _report_bits(reference_mda(f, rs, 3))

    def test_planted_predictor_ranks_first(self):
        rs, predictor, noise = planted_mda_records(n=300)
        f = train(rs, "resp", [predictor] + noise, ForestConfig(n_trees=80, seed=6))
        report = mda_importance(f)
        assert report.entries[0].variable == predictor
        assert report.entries[0].mda > 0.2
        assert report.oob_accuracy > 0.95

    def test_ties_order_by_dictionary_position(self):
        rs, predictor, noise = planted_mda_records(n=200)
        f = train(rs, "resp", [predictor] + noise,
                  ForestConfig(n_trees=1, max_depth=1, mtry=6, seed=1))
        report = mda_importance(f)
        zero_vars = [e.variable for e in report.entries if e.mda == 0.0]
        positions = [f.dictionary.variable_index(v) for v in zero_vars]
        assert positions == sorted(positions)


def test_select_top_k_bounds():
    rs, predictor, noise = planted_mda_records(n=200)
    f = train(rs, "resp", [predictor] + noise, ForestConfig(n_trees=10, seed=0))
    report = mda_importance(f)
    assert select_top_k(report, 1) == (predictor,)
    assert len(select_top_k(report, 6)) == 6
    with pytest.raises(ValidationError):
        select_top_k(report, 0)
    with pytest.raises(ValidationError):
        select_top_k(report, 7)


def test_importance_exports(tmp_path):
    rs, predictor, noise = planted_mda_records(n=200)
    f = train(rs, "resp", [predictor] + noise, ForestConfig(n_trees=10, seed=0))
    report = mda_importance(f)
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


def _assert_first_splits_match_reference(forest):
    """MDA's first-split table over the whole forest laid end to end, against
    a walk over each tree's nodes, in the narrowest signed dtype of a node id."""
    roots, flat = forest_module._concat_trees(forest.trees)
    table = forest_module._first_splits(flat, roots, len(forest.features))
    assert table.dtype == np.min_scalar_type(-len(table))
    want = []
    for tree, root in zip(forest.trees, roots.tolist()):
        ref = reference_first_splits(tree.nodes, len(forest.features))
        want.append(np.where(ref >= 0, ref + root, -1))
    assert np.array_equal(table, np.vstack(want))


def _assert_matches_reference(rs, response, features, cfg, forest):
    reference = reference_train(rs, response, features, cfg)
    assert len(forest.trees) == len(reference)
    for tree, (nodes, in_bag) in zip(forest.trees, reference):
        assert tree.nodes == nodes
        assert np.array_equal(tree.in_bag, in_bag)
        assert np.array_equal(tree.oob_indices, np.flatnonzero(in_bag == 0))
    _assert_first_splits_match_reference(forest)
    got, want = oob_predict(forest), reference_oob_predict(forest, rs)
    assert got.predictions == want.predictions
    assert got.accuracy == want.accuracy or (
        math.isnan(got.accuracy) and math.isnan(want.accuracy)
    )
    if any(len(tree.oob_indices) for tree in forest.trees):
        assert _report_bits(mda_importance(forest)) == _report_bits(
            reference_mda(forest, rs, cfg.seed)
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
            cfg.data, load_dictionary(cfg.dictionary),
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
        report = mda_importance(one_block)
        assert len(forest_module._tree_blocks(len(rs), 6, forest_module._BLOCK_ROWS)) == 1
        # one tree per block, a few nodes per gather and 7 queries per pass
        monkeypatch.setattr(forest_module, "_BLOCK_ROWS", len(rs))
        monkeypatch.setattr(forest_module, "_CHUNK_ROWS", 7)
        assert len(forest_module._tree_blocks(len(rs), 6, forest_module._BLOCK_ROWS)) == 6
        per_tree = train(rs, "resp", features, cfg)
        for a, b in zip(one_block.trees, per_tree.trees):
            assert a.nodes == b.nodes
            assert np.array_equal(a.in_bag, b.in_bag)
        assert _report_bits(mda_importance(per_tree)) == _report_bits(report)
        assert oob_predict(per_tree) == oob_predict(one_block)

    @pytest.mark.parametrize("words", [1, 4, 7])
    def test_word_buffer_size_does_not_change_results(self, monkeypatch, words):
        """A buffer of a few words refills almost every step, and a step's
        reads span the words left over and the ones refilled."""
        rs, predictor, noise = planted_mda_records(n=120)
        features = [predictor] + noise
        cfg = ForestConfig(n_trees=6, min_node_size=2, seed=3)
        full = train(rs, "resp", features, cfg)
        report = mda_importance(full)
        monkeypatch.setattr(forest_module, "_WORD_BUFFER", words)
        small = train(rs, "resp", features, cfg)
        for a, b in zip(full.trees, small.trees):
            assert a.nodes == b.nodes
            assert np.array_equal(a.in_bag, b.in_bag)
        assert _report_bits(mda_importance(small)) == _report_bits(report)
        assert oob_predict(small) == oob_predict(full)


def _noisy_records(n: int, n_features: int, seed: int):
    """n records of n_features three-category features and a two-class
    response that leans on f0 and f1 but stays noisy, so trees grow deep."""
    rng = random.Random(seed)
    spec = {f"f{i}": ("c0", "c1", "c2") for i in range(n_features)}
    spec["resp"] = ("r0", "r1")
    rows = []
    for _ in range(n):
        row = {name: rng.choice(cats) for name, cats in spec.items() if name != "resp"}
        lean = (row["f0"] == "c0") + (row["f1"] == "c1")
        row["resp"] = "r1" if rng.random() < 0.2 + 0.3 * lean else "r0"
        rows.append(row)
    return make_records(make_dictionary(spec), rows), [f"f{i}" for i in range(n_features)]


class TestCompactForest:
    def test_offsets_past_the_narrow_dtypes_match_reference(self):
        """Row ids are uint16 here, yet a row's first code sits at row * p,
        up to 69,990; and each depth-6 tree's node ids and routing offsets
        fit in 8 bits, yet the two trees end to end do not. numpy keeps
        uint16 * 10 in uint16, so every one of those offsets must be taken
        in intp or a prediction reads the wrong code or node."""
        rs, features = _noisy_records(7_000, 10, seed=11)
        cfg = ForestConfig(n_trees=2, max_depth=6, seed=5)
        forest = train(rs, "resp", features, cfg)
        for tree in forest.trees:
            assert tree.oob_indices.dtype == np.uint16
            assert (tree.left.dtype, tree.route_start.dtype) == (np.int8, np.uint8)
        assert len(rs) * len(features) > 2**16
        assert sum(len(t.left) for t in forest.trees) > 2**7
        assert sum(len(t.routing) for t in forest.trees) > 2**8
        # a wrapped node id could send a query round a cycle, so check the
        # concatenated ids before routing anything
        roots, (_, left, _, route_start, child) = forest_module._concat_trees(forest.trees)
        node_ends = np.cumsum([len(t.left) for t in forest.trees])[:-1]
        offset = 0
        for tree, root, down, at, to in zip(
            forest.trees, roots.tolist(),
            np.split(left, node_ends), np.split(route_start, node_ends),
            np.split(child, np.cumsum([len(t.routing) for t in forest.trees])[:-1]),
        ):
            inner = tree.left >= 0
            assert np.array_equal(down[inner], tree.left[inner].astype(np.int64) + root)
            assert np.array_equal(at, tree.route_start[:-1].astype(np.int64) + offset)
            widths = np.diff(tree.route_start.astype(np.int64))
            assert np.array_equal(to, np.repeat(tree.left.astype(np.int64) + root, widths)
                                  + ~tree.routing)
            offset += len(tree.routing)
        _assert_matches_reference(rs, "resp", features, cfg, forest)

    @pytest.mark.parametrize("n", [300, 2**16 - 1])
    def test_tree_arrays_are_narrower_than_intp(self, n):
        rs, features = _noisy_records(n, 3, seed=n)
        forest = train(rs, "resp", features, ForestConfig(n_trees=2, min_node_size=1, seed=1))
        for tree in forest.trees:
            for name in ("feature", "left", "class_index", "class_counts",
                         "route_start", "in_bag", "oob_indices"):
                array = getattr(tree, name)
                assert array.dtype.kind in "iu", name
                assert array.dtype.itemsize < np.dtype(np.intp).itemsize, name

    def test_equal_leaves_are_one_object_across_trees(self):
        rs, features = _noisy_records(300, 4, seed=3)
        cfg = ForestConfig(n_trees=4, min_node_size=3, seed=2)
        forest = train(rs, "resp", features, cfg)
        _assert_matches_reference(rs, "resp", features, cfg, forest)
        first: dict = {}  # leaf -> (the first equal leaf seen, its tree)
        across = 0
        for t, tree in enumerate(forest.trees):
            for node in tree.nodes:
                if node.is_leaf:
                    leaf, owner = first.setdefault(node, (node, t))
                    assert leaf is node
                    across += owner != t
        assert across > 0


def _scalar_choice(words, p: int, m: int, rejected: list[int] | None = None) -> list[int]:
    """sorted(Generator.choice(p, size=m, replace=False)), one uint32 word of
    the iterator words at a time, by the rule numpy follows; appends each
    rejected word to rejected."""
    def bounded(r: int) -> int:
        while r:
            w = next(words)
            x = w * (r + 1)
            if x % 2**32 >= 2**32 % (r + 1):
                return x >> 32
            if rejected is not None:
                rejected.append(w)
        return 0

    if p > 10_000 and m > p // 50:
        order = list(range(p))
        for i in range(p - 1, max(p - m, 1) - 1, -1):
            j = bounded(i)
            order[i], order[j] = order[j], order[i]
        return sorted(order[p - m :])
    chosen: set[int] = set()
    for j in range(p - m, p):
        v = bounded(j)
        chosen.add(j if v in chosen else v)
    for i in range(m - 1, 0, -1):
        bounded(i)
    return sorted(chosen)


def _stream_words(rng: np.random.Generator):
    while True:
        yield int(rng.integers(0, 2**32, size=1, dtype=np.uint32)[0])


_DRAW_SHAPES = sorted(
    {(p, m) for p in (1, 2, 9, 12, 40, 10_000) for m in (1, math.isqrt(p), p)}
    | {(10_001, 201), (10_001, 10_001)}
)


class TestFeatureDraws:
    """The grower's batched feature draw is numpy's Generator.choice without
    replacement, sorted, call for call on each tree's stream. A numpy whose
    choice consumed its stream differently would fail here first."""

    @pytest.mark.parametrize("p,m", _DRAW_SHAPES)
    def test_matches_generator_choice(self, p, m):
        n_streams, steps = (7, 40) if p <= 40 else (3, 3)
        pick = random.Random(p * 100_003 + m)
        seed = pick.randrange(2**32)
        ours = [np.random.default_rng([seed, 0, i]) for i in range(n_streams)]
        theirs = [np.random.default_rng([seed, 0, i]) for i in range(n_streams)]
        for a, b in zip(ours, theirs):
            # a bootstrap-like draw first, which may leave half a 64-bit word
            size = pick.randrange(1, 10)
            assert np.array_equal(a.integers(0, 50, size=size), b.integers(0, 50, size=size))
        draws = forest_module._FeatureDraws(ours, p, m)
        for _ in range(steps):
            trees = sorted(pick.sample(range(n_streams), pick.randint(1, n_streams)))
            got = draws.draw(np.array(trees))
            want = [np.sort(theirs[t].choice(p, size=m, replace=False)) for t in trees]
            assert got.shape == (len(trees), m)
            assert got.tolist() == [w.tolist() for w in want]

    @pytest.mark.parametrize("p,m", [(9, 3), (12, 12), (40, 6), (10_001, 201), (10_001, 10_001)])
    def test_scalar_model_matches_generator_choice(self, p, m):
        ours, theirs = np.random.default_rng([p, 0, m]), np.random.default_rng([p, 0, m])
        words = _stream_words(ours)
        for _ in range(3 if p > 40 else 30):
            assert _scalar_choice(words, p, m) == np.sort(
                theirs.choice(p, size=m, replace=False)
            ).tolist()

    @pytest.mark.parametrize("p,m", [(9, 3), (12, 12), (40, 6), (10_001, 201)])
    def test_rejected_words_are_skipped(self, monkeypatch, p, m):
        """Crafted words with x mod 2^32 < 2^32 mod (r + 1) for the draw's r
        are rejected; after them each tree reads on from its stream."""
        monkeypatch.setattr(forest_module, "_WORD_BUFFER", 40)
        n_streams = 4
        ours = [np.random.default_rng([11, 0, i]) for i in range(n_streams)]
        draws = forest_module._FeatureDraws(ours, p, m)
        width = draws.words.shape[1]
        theirs = [np.random.default_rng([11, 0, i]) for i in range(n_streams)]
        for rng in theirs:
            rng.integers(0, 2**32, size=width, dtype=np.uint32)  # the buffer's words
        pick = random.Random(p + m)
        scales = draws.scale.tolist()  # r + 1 of each read
        # w = 0 is rejected wherever 2^32 mod (r + 1) > 0; for odd r + 1, so is
        # the w with x mod 2^32 == t for each 0 < t < 2^32 mod (r + 1)
        rejected = [0, *itertools.islice(
            (t * pow(s, -1, 2**32) % 2**32 for s in scales if s % 2
             for t in range(1, 2**32 % s)),
            10,
        )]
        crafted = [
            [pick.choice(rejected) if pick.random() < 0.4 else pick.randrange(2**32)
             for _ in range(width)]
            for _ in range(n_streams)
        ]
        draws.words[:] = np.array(crafted, dtype=np.uint32)
        scalar = [itertools.chain(row, _stream_words(rng)) for row, rng in zip(crafted, theirs)]
        skipped: list[int] = []
        for _ in range(12 if p <= 40 else 3):
            trees = sorted(pick.sample(range(n_streams), pick.randint(1, n_streams)))
            got = draws.draw(np.array(trees))
            assert got.tolist() == [_scalar_choice(scalar[t], p, m, skipped) for t in trees]
        assert 0 in skipped
        # the nonzero crafted words are rejected only at the read they were
        # made for, which the few reads of a small draw are sure to meet
        assert len(set(skipped)) > 1 or p > 40


def test_tree_arrays_are_read_only(separable_rs):
    forest = train(separable_rs, "label", ["flag"], ForestConfig(n_trees=1, seed=0))
    tree = forest.trees[0]
    for name in ("feature", "left", "class_index", "class_counts",
                 "route_start", "routing", "in_bag", "oob_indices"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(tree, name)[...] = 0
    assert isinstance(tree.nodes, tuple)
    # the training codes: features, then response
    index = separable_rs.dictionary.variable_index
    assert np.array_equal(forest.codes, separable_rs.codes[[index("flag"), index("label")]])
    with pytest.raises(ValueError, match="read-only"):
        forest.codes[...] = 0
