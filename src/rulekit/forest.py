"""Random forest over categorical records with permutation importance.

Trees split on category subsets: each internal node sends a subset of one
variable's categories left and the rest (plus anything unseen) right. Splits
are chosen by Gini impurity decrease, with the subset search exhaustive up
to 12 present categories and greedy beyond that.

Layout. A tree is a set of read-only parallel arrays indexed by node id, as
in ranger (Wright & Ziegler, JSS 2017): split feature (-1 at a leaf), left
and right child ids, majority class, per-class in-bag counts, and a routing
table per node holding one bool per category of its split feature, True
where that category goes left. Prediction moves every query row down one
tree level per step through these arrays, for a whole block of trees at once.

Growth. Trees are grown a block at a time, in lockstep: each step takes the
next depth-first node of every tree in the block that can still split,
counts the (category, class) tables of all their candidate features with
bincount, scores every category partition of every table at once and
splits. Blocks hold up to _BLOCK_ROWS bootstrap rows, so the block
partition depends only on the record and tree counts. Blocks run one after
another.

Determinism. Each tree draws from its own RNG stream keyed by (seed,
purpose, tree index). Lockstep growth still visits each tree's nodes in the
depth-first, left-child-first order of a one-node-at-a-time grower, so every
tree makes the same draws in the same order and numbers its nodes the same
way. The Gini scores come from the same float operations on the same exact
integer counts, so ties break the same way too: the first feature, then the
first partition wins. A forest thus does not depend on the block size.

Importance is Mean Decrease Accuracy: for every tree, the accuracy on its
out-of-bag records is compared with the accuracy after permuting one
feature's column within those records; the per-feature mean over trees is
the mda, reported with its standard deviation. A feature no tree ever
splits on scores exactly 0. A permuted row follows its unpermuted path down
to the first node that splits on the permuted feature, so it is routed
again only from there.
"""

from __future__ import annotations

import gc
import hashlib
import logging
import math
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, partial
from itertools import compress
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .io_utils import write_csv, write_json
from .parallel import run_ordered
from .schema import DataDictionary, RecordSet

logger = logging.getLogger(__name__)

# Exhaustive binary-subset search enumerates 2^(m-1) - 1 partitions; 12
# present categories cap that at 2047 candidates per node and feature.
_EXHAUSTIVE_MAX_CATEGORIES = 12

# Bootstrap rows of the trees grown together in one block.
_BLOCK_ROWS = 1 << 19

# Rows gathered at once within a growth step, query rows routed at once, and
# out-of-bag rows per block of trees in prediction; bounds the temporaries.
_CHUNK_ROWS = 1 << 15


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 500
    mtry: int | None = None  # None resolves to floor(sqrt(#features))
    min_node_size: int = 1
    max_depth: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValidationError(f"n_trees {self.n_trees} must be >= 1")
        if self.mtry is not None and self.mtry < 1:
            raise ValidationError(f"mtry {self.mtry} must be >= 1")
        if self.min_node_size < 1:
            raise ValidationError(f"min_node_size {self.min_node_size} must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValidationError(f"max_depth {self.max_depth} must be >= 1")


class TreeNode(NamedTuple):
    """Internal node (feature >= 0) or leaf (feature == -1).

    left_categories holds the category indices of the split feature routed
    to the left child; any other index, seen in training or not, goes right.
    """

    feature: int
    left_categories: frozenset[int]
    left: int
    right: int
    class_index: int
    class_counts: tuple[int, ...]

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass(frozen=True, eq=False)
class DecisionTree:
    """One tree as read-only parallel arrays indexed by node id; the root is 0.

    feature is the split feature and left/right the child ids (all -1 at a
    leaf); class_index is the majority class (first on ties) of the
    (node, class) in-bag counts in class_counts. Node i sends category c of
    its feature left iff routing[route_start[i] + c]; route_start has one
    more entry than there are nodes, and a leaf's table is empty.
    """

    feature: np.ndarray
    left: np.ndarray
    right: np.ndarray
    class_index: np.ndarray
    class_counts: np.ndarray
    route_start: np.ndarray
    routing: np.ndarray
    in_bag: np.ndarray  # per-record bootstrap multiplicity
    oob_indices: np.ndarray
    nodes: tuple[TreeNode, ...]  # the same tree as TreeNode objects


@dataclass(frozen=True, eq=False)
class Forest:
    trees: tuple[DecisionTree, ...]
    response_variable: str
    features: tuple[str, ...]
    class_labels: tuple[str, ...]
    dictionary: DataDictionary
    n_records: int
    config: ForestConfig
    mtry: int
    fingerprint: str  # sha256 of the training codes (features, then response)


@dataclass(frozen=True)
class OobPrediction:
    """Out-of-bag majority votes; None where a record was never out-of-bag."""

    predictions: tuple[str | None, ...]
    accuracy: float

    @property
    def coverage(self) -> float:
        covered = sum(1 for p in self.predictions if p is not None)
        return covered / len(self.predictions) if self.predictions else 0.0


@dataclass(frozen=True)
class ImportanceEntry:
    variable: str
    mda: float
    sd: float


@dataclass(frozen=True)
class ImportanceReport:
    entries: tuple[ImportanceEntry, ...]
    oob_accuracy: float


def best_partition(
    counts: np.ndarray, min_node_size: int = 1
) -> tuple[float, frozenset[int]] | None:
    """Best binary category partition of one feature by Gini decrease.

    counts is the (category x class) contingency of the node's in-bag
    records. Returns (impurity decrease, category indices routed left), or
    None when no partition with both children >= min_node_size improves on
    the parent. This is _score_partitions on a single table.
    """
    value, left_mask = _score_partitions(np.asarray(counts)[None], min_node_size)
    if value[0] == -np.inf:
        return None
    return float(value[0]), frozenset(np.flatnonzero(left_mask[0]).tolist())


def _greedy_partition(
    counts: np.ndarray, min_node_size: int
) -> tuple[float, frozenset[int]] | None:
    """A good partition of one table with more than 12 present categories.

    A forward greedy pass grows the left side one category at a time, always
    taking the locally best addition, and keeps the best valid split seen.
    """
    counts = np.asarray(counts, dtype=np.float64)
    present = np.flatnonzero(counts.sum(axis=1) > 0)
    cp = counts[present]
    class_totals = cp.sum(axis=0)
    n_t = float(class_totals.sum())
    parent_gini = 1.0 - float((class_totals**2).sum()) / (n_t * n_t)
    m = len(present)
    in_left = np.zeros(m, dtype=bool)
    left_counts = np.zeros_like(class_totals)
    best_overall: tuple[float, frozenset[int]] | None = None
    for _ in range(m - 1):
        step: tuple[float, int] | None = None
        for pos in range(m):
            if in_left[pos]:
                continue
            cand = left_counts + cp[pos]
            nl = float(cand.sum())
            nr = n_t - nl
            if nr <= 0.0:
                continue
            child = (
                nl
                - float((cand**2).sum()) / nl
                + nr
                - float(((class_totals - cand) ** 2).sum()) / nr
            ) / n_t
            dec = parent_gini - child
            if step is None or dec > step[0]:
                step = (dec, pos)
        if step is None:
            break
        dec, pos = step
        in_left[pos] = True
        left_counts = left_counts + cp[pos]
        nl = float(left_counts.sum())
        nr = n_t - nl
        if dec > 0.0 and nl >= min_node_size and nr >= min_node_size:
            if best_overall is None or dec > best_overall[0]:
                best_overall = (dec, frozenset(int(c) for c in present[in_left]))
    return best_overall


def _fingerprint(codes: np.ndarray) -> str:
    return hashlib.sha256(codes.tobytes()).hexdigest()


def _tree_blocks(n_records: int, n_trees: int, max_rows: int) -> list[range]:
    """Consecutive tree blocks of near-equal size, each of at most max_rows
    rows at n_records per tree, unless a single tree is larger."""
    per_block = max(1, max_rows // n_records)
    n_blocks = -(-n_trees // per_block)
    bounds = [i * n_trees // n_blocks for i in range(n_blocks + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


@cache
def _partition_bits(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Row p - 1 is partition mask p over the first m - 1 present categories,
    as bool and as float64; the enumeration order of _score_partitions."""
    masks = np.arange(1, 1 << (m - 1), dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(m - 1)) & 1).astype(bool)
    as_float = bits.astype(np.float64)
    bits.setflags(write=False)
    as_float.setflags(write=False)
    return bits, as_float


def _score_partitions(cont: np.ndarray, min_node_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The best category partition of every (category x class) table in
    cont, by Gini decrease, at once.

    Returns each table's best decrease (-inf where no partition with both
    children >= min_node_size improves on the parent) and a (table,
    category) mask of the categories it sends left. A table with m <= 12
    present categories has its 2^(m-1) - 1 unordered partitions scored
    exactly, its last present category fixed on the right; the first best
    partition wins ties. Sums of counts are exact in float64 in any order,
    so a table scores the same alone or in any batch. A wider table gets
    _greedy_partition.
    """
    n_tables, width, n_classes = cont.shape
    counts = cont.astype(np.float64)
    present = counts.sum(axis=2) > 0
    m = present.sum(axis=1)
    class_totals = counts.sum(axis=1)
    n_t = class_totals.sum(axis=1)
    best = np.full(n_tables, -np.inf)
    left_mask = np.zeros((n_tables, width), dtype=bool)
    sel = np.flatnonzero((m >= 2) & (m <= _EXHAUSTIVE_MAX_CATEGORIES))
    if len(sel):
        top = int(m[sel].max())
        bits, bits_float = _partition_bits(top)
        # A table's present categories take positions 0.. in category order;
        # its last one stays right, and positions m - 1 .. top - 2 are empty
        # padding. A partition that sets a padding bit repeats an earlier one
        # (or leaves the left side empty), so the first best partition is the
        # table's own, whatever the batch's widest table.
        rank = np.cumsum(present[sel], axis=1) - 1
        movable = present[sel] & (rank < (m[sel] - 1)[:, None])
        g, c = np.nonzero(movable)
        at = rank[g, c]
        cp = np.zeros((len(sel), top - 1, n_classes))
        cp[g, at] = counts[sel[g], c]
        category = np.full((len(sel), top - 1), width)  # padding -> spare column
        category[g, at] = c
        left = bits_float @ cp
        right = class_totals[sel][:, None, :] - left
        nl = left.sum(axis=2)
        nt = n_t[sel][:, None]
        nr = nt - nl
        parent = 1.0 - (class_totals[sel] ** 2).sum(axis=1, keepdims=True) / (nt * nt)
        with np.errstate(divide="ignore", invalid="ignore"):
            child = (nl - (left**2).sum(axis=2) / nl + nr - (right**2).sum(axis=2) / nr) / nt
        decrease = parent - child
        valid = (nl >= min_node_size) & (nr >= min_node_size)
        decrease = np.where(valid, decrease, -np.inf)
        choice = decrease.argmax(axis=1)  # first index wins ties
        value = decrease[np.arange(len(sel)), choice]
        found = value > 0.0
        best[sel[found]] = value[found]
        g, j = np.nonzero(bits[choice] & found[:, None])
        wide = np.zeros((len(sel), width + 1), dtype=bool)
        wide[g, category[g, j]] = True
        left_mask[sel] = wide[:, :width]
    for i in np.flatnonzero(m > _EXHAUSTIVE_MAX_CATEGORIES).tolist():
        greedy = _greedy_partition(cont[i], min_node_size)
        if greedy is not None:
            best[i] = greedy[0]
            left_mask[i, list(greedy[1])] = True
    return best, left_mask


def _row_chunks(lengths: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive (lo, hi) node ranges of at most _CHUNK_ROWS rows in all,
    or of one node when that node alone has more."""
    ends = np.cumsum(lengths).tolist()
    chunks, lo, done = [], 0, 0
    while lo < len(ends):
        hi = max(lo + 1, bisect_right(ends, done + _CHUNK_ROWS, lo))
        chunks.append((lo, hi))
        lo, done = hi, ends[hi - 1]
    return chunks


def _node_rows(
    samples: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(node, position, record) of every sample in the nodes' ranges, in order."""
    node = np.repeat(np.arange(len(lengths)), lengths)
    pos = np.arange(len(node)) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return node, pos, samples[pos]


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the garbage collector: tens of thousands of new acyclic node
    tuples would otherwise set off full collections over every live object,
    which cost more than building the nodes."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def _tree_nodes(
    feature: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    class_index: np.ndarray,
    class_counts: np.ndarray,
    route_start: np.ndarray,
    routing: np.ndarray,
) -> tuple[TreeNode, ...]:
    """A tree's arrays as TreeNode objects; equal routing tables and class
    counts share one frozenset and one tuple."""
    table_bytes = routing.tobytes()
    starts = route_start.tolist()
    left_categories = [frozenset()] * len(feature)
    tables: dict[bytes, frozenset[int]] = {}
    for i in np.flatnonzero(feature >= 0).tolist():
        table = table_bytes[starts[i] : starts[i + 1]]
        if table not in tables:
            tables[table] = frozenset(compress(range(len(table)), table))
        left_categories[i] = tables[table]
    counts: dict[tuple[int, ...], tuple[int, ...]] = {}
    fields = zip(
        feature.tolist(),
        left_categories,
        left.tolist(),
        right.tolist(),
        class_index.tolist(),
        (
            counts.setdefault(c, c)
            for c in zip(*[iter(class_counts.ravel().tolist())] * class_counts.shape[1])
        ),
    )
    return tuple(map(partial(tuple.__new__, TreeNode), fields))


def _grow_block(
    X: np.ndarray,
    y: np.ndarray,
    n_cats: np.ndarray,
    n_classes: int,
    mtry: int,
    cfg: ForestConfig,
    block: range,
) -> list[tuple[np.ndarray, ...]]:
    """Grow the trees of one block in lockstep; tree i uses stream (seed, 0, i).

    Returns each tree's read-only arrays in DecisionTree's field order,
    without nodes. samples holds every tree's bootstrap rows end to end; a
    node owns a contiguous range of it, which a split reorders into left
    then right.
    Each tree's depth-first stack holds (node id, sample start, sample end,
    depth, splittable) of the nodes still to visit.
    """
    n = len(y)
    n_trees = len(block)
    width = int(n_cats.max())
    cells = width * n_classes
    rngs = [np.random.default_rng([cfg.seed % 2**64, 0, i]) for i in block]
    samples = np.concatenate([rng.integers(0, n, size=n) for rng in rngs])
    root_counts = np.array([
        np.bincount(y[samples[j * n : (j + 1) * n]], minlength=n_classes)
        for j in range(n_trees)
    ])
    root_ok = ((root_counts > 0).sum(axis=1) > 1) & (n >= 2 * cfg.min_node_size)
    stacks = [[(0, j * n, (j + 1) * n, 0, ok)] for j, ok in enumerate(root_ok.tolist())]
    n_nodes = np.ones(n_trees, dtype=np.intp)
    # Per step, of the nodes that split: tree, node id, feature, left child id
    # (the right child's is one more), routing table and children's counts.
    ids = np.zeros(0, dtype=np.intp)
    splits = [(ids, ids, ids, ids, np.zeros((0, width), dtype=bool),
               np.zeros((0, 2, n_classes), dtype=np.int64))]
    live = list(range(n_trees))
    while live:
        # The next depth-first node of each tree that can split; nodes that
        # cannot are leaves already and draw nothing from the tree's RNG.
        batch = []
        for j in live:
            stack = stacks[j]
            while stack:
                entry = stack.pop()
                if entry[4]:
                    batch.append((j, *entry[:4]))
                    break
        if not batch:
            break
        live = [entry[0] for entry in batch]
        n_batch = len(batch)
        feats = np.array(
            [np.sort(rngs[j].choice(len(X), size=mtry, replace=False)) for j in live]
        )
        tree, nid, starts, ends, depth = (np.array(column) for column in zip(*batch))
        lengths = ends - starts
        chunks = _row_chunks(lengths)
        cont = np.empty((n_batch, mtry, cells), dtype=np.int64)
        for lo, hi in chunks:
            node, _, rows = _node_rows(samples, starts[lo:hi], lengths[lo:hi])
            key_base = node * cells + y[rows]
            for s in range(mtry):
                key = X[np.repeat(feats[lo:hi, s], lengths[lo:hi]), rows].astype(np.intp)
                key *= n_classes
                key += key_base
                cont[lo:hi, s] = np.bincount(key, minlength=(hi - lo) * cells).reshape(
                    hi - lo, cells
                )
        cont = cont.reshape(n_batch * mtry, width, n_classes)
        value, left_mask = _score_partitions(cont, cfg.min_node_size)
        slot = value.reshape(n_batch, mtry).argmax(axis=1)  # first feature wins ties
        table = np.arange(n_batch) * mtry + slot
        split = value[table] > 0.0
        if not split.any():
            continue
        route = left_mask[table] & split[:, None]
        feature = feats[np.arange(n_batch), slot]
        for lo, hi in chunks:
            # Reorder each split node's rows: left child's first, then right's.
            node, pos, rows = _node_rows(samples, starts[lo:hi], lengths[lo:hi])
            go_left = route[lo:hi][node, X[np.repeat(feature[lo:hi], lengths[lo:hi]), rows]]
            side = (2 * node + ~go_left).astype(np.min_scalar_type(2 * (hi - lo)))
            samples[pos] = rows[np.argsort(side, kind="stable")]
        table = table[split]
        left_counts = (cont[table] * route[split, :, None]).sum(axis=1)
        child_counts = np.stack([left_counts, cont[table].sum(axis=1) - left_counts], axis=1)
        sizes = child_counts.sum(axis=2)
        splittable = ((child_counts > 0).sum(axis=2) > 1) & (sizes >= 2 * cfg.min_node_size)
        if cfg.max_depth is not None:
            splittable &= (depth[split] + 1 < cfg.max_depth)[:, None]
        tree = tree[split]
        left = n_nodes[tree]
        n_nodes[tree] += 2
        splits.append((tree, nid[split], feature[split], left, route[split], child_counts))
        for j, child, start, mid, end, d, ok in zip(
            tree.tolist(),
            left.tolist(),
            starts[split].tolist(),
            (starts[split] + sizes[:, 0]).tolist(),
            ends[split].tolist(),
            depth[split].tolist(),
            splittable.tolist(),
        ):
            stacks[j].append((child + 1, mid, end, d + 1, ok[1]))
            stacks[j].append((child, start, mid, d + 1, ok[0]))
    tree, nid, feature, left, route, child_counts = (np.concatenate(c) for c in zip(*splits))
    del splits
    by_tree = np.argsort(tree, kind="stable")
    bounds = np.searchsorted(tree[by_tree], np.arange(n_trees + 1))
    out = []
    for j in range(n_trees):
        mine = by_tree[bounds[j] : bounds[j + 1]]
        mine = mine[np.argsort(nid[mine])]  # internal nodes in id order
        size = int(n_nodes[j])
        feature_j = np.full(size, -1, dtype=np.intp)
        feature_j[nid[mine]] = feature[mine]
        left_j = np.full(size, -1, dtype=np.intp)
        left_j[nid[mine]] = left[mine]
        class_counts = np.empty((size, n_classes), dtype=np.int64)
        class_counts[0] = root_counts[j]
        class_counts[left[mine]] = child_counts[mine, 0]
        class_counts[left[mine] + 1] = child_counts[mine, 1]
        widths = np.where(feature_j >= 0, n_cats[feature_j], 0)
        in_bag = np.bincount(samples[j * n : (j + 1) * n], minlength=n)
        arrays = (
            feature_j,
            left_j,
            np.where(left_j >= 0, left_j + 1, -1),
            class_counts.argmax(axis=1),
            class_counts,
            np.concatenate(([0], np.cumsum(widths))),
            route[mine][np.arange(width) < n_cats[feature[mine]][:, None]],
            in_bag,
            np.flatnonzero(in_bag == 0),
        )
        for a in arrays:
            a.setflags(write=False)
        out.append(arrays)
    return out


def train(
    rs: RecordSet,
    response: str,
    features: Sequence[str],
    cfg: ForestConfig | None = None,
) -> Forest:
    """Grow a forest of bootstrap trees predicting response from features.

    Every feature and the response must be dictionary variables; the
    response must take at least two distinct values in the data. Each tree
    samples n records with replacement and, at every node, examines mtry
    features drawn without replacement.
    """
    cfg = cfg if cfg is not None else ForestConfig()
    features = tuple(features)
    if not features:
        raise ValidationError("features must be nonempty")
    if response in features:
        raise ValidationError(f"response {response!r} cannot also be a feature")
    if len(rs) < 2:
        raise ValidationError("training needs at least 2 records")
    codes = rs.codes[[rs.dictionary.variable_index(v) for v in features + (response,)]]
    X, y = codes[:-1], codes[-1]
    class_labels = rs.dictionary.variable(response).categories
    if len(np.unique(y)) < 2:
        raise ValidationError(
            f"response {response!r} takes a single value; nothing to learn"
        )
    mtry = cfg.mtry if cfg.mtry is not None else math.isqrt(len(features))
    if not 1 <= mtry <= len(features):
        raise ValidationError(f"mtry {mtry} out of range [1, {len(features)}]")
    n = len(rs)
    n_cats = np.array(
        [len(rs.dictionary.variable(v).categories) for v in features], dtype=np.intp
    )

    def grow(block: range) -> list[tuple[np.ndarray, ...]]:
        return _grow_block(X, y, n_cats, len(class_labels), mtry, cfg, block)

    blocks = run_ordered(grow, _tree_blocks(n, cfg.n_trees, _BLOCK_ROWS))
    with _gc_paused():
        trees = tuple(
            DecisionTree(*arrays, nodes=_tree_nodes(*arrays[:7]))
            for block in blocks
            for arrays in block
        )
    return Forest(
        trees=trees,
        response_variable=response,
        features=features,
        class_labels=class_labels,
        dictionary=rs.dictionary,
        n_records=n,
        config=cfg,
        mtry=mtry,
        fingerprint=_fingerprint(codes),
    )


def _concat_trees(trees: Sequence[DecisionTree]) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Root ids and the trees' node arrays end to end, ids offset to match."""
    sizes = [len(t.feature) for t in trees]
    roots = np.cumsum(sizes) - sizes
    route_sizes = [len(t.routing) for t in trees]
    route_offsets = np.cumsum(route_sizes) - route_sizes
    flat = (
        np.concatenate([t.feature for t in trees]),
        np.concatenate([t.left + r for t, r in zip(trees, roots)]),
        np.concatenate([t.right + r for t, r in zip(trees, roots)]),
        np.concatenate([t.class_index for t in trees]),
        np.concatenate([t.route_start[:-1] + o for t, o in zip(trees, route_offsets)]),
        np.concatenate([t.routing for t in trees]),
    )
    return roots, flat


def _predict(
    flat: tuple[np.ndarray, ...],
    X: np.ndarray,
    start: np.ndarray,
    row: np.ndarray,
    permuted: tuple[int, np.ndarray] | None = None,
    first_split: np.ndarray | None = None,
) -> np.ndarray:
    """Class index of the leaf each query reaches, one tree level per step.

    Query q starts at node start[q] and reads the codes of record row[q];
    with permuted = (f, rows) it reads feature f from record rows[q]
    instead. If given, first_split[f, q] is set to the first node on query
    q's path that splits on feature f, where it is still negative. Queries
    are routed _CHUNK_ROWS at a time.
    """
    feature, left, right, class_index, route_start, routing = flat
    out = np.empty(len(start), dtype=np.intp)
    for lo in range(0, len(start), _CHUNK_ROWS):
        query = np.arange(lo, min(lo + _CHUNK_ROWS, len(start)))
        node, r = start[query], row[query]
        if permuted is not None:
            pf, pr = permuted[0], permuted[1][query]
        while len(query):
            f = feature[node]
            leaf = f < 0
            if leaf.any():
                out[query[leaf]] = class_index[node[leaf]]
                inner = ~leaf
                query, node, r, f = query[inner], node[inner], r[inner], f[inner]
                if permuted is not None:
                    pr = pr[inner]
            if first_split is not None:
                new = first_split[f, query] < 0
                first_split[f[new], query[new]] = node[new]
            code = X[f, r] if permuted is None else X[f, np.where(f == pf, pr, r)]
            go_left = routing[route_start[node] + code]
            node = np.where(go_left, left[node], right[node])
    return out


def _check_match(forest: Forest, rs: RecordSet) -> np.ndarray:
    """The forest's codes of rs (features, then response); raises unless rs
    is the record set the forest was trained on."""
    if rs.dictionary == forest.dictionary and len(rs) == forest.n_records:
        variables = forest.features + (forest.response_variable,)
        codes = rs.codes[[rs.dictionary.variable_index(v) for v in variables]]
        if _fingerprint(codes) == forest.fingerprint:
            return codes
    raise ValidationError(
        "record set does not match the forest's training data "
        "(dictionary, record count or records differ)"
    )


def oob_predict(forest: Forest, rs: RecordSet) -> OobPrediction:
    """Majority vote per record over the trees where it was out-of-bag.

    Records in-bag for every tree get prediction None and are left out of
    the accuracy denominator. Vote ties break toward the class listed first
    in the dictionary.
    """
    codes = _check_match(forest, rs)
    X, y = codes[:-1], codes[-1]
    n = forest.n_records
    n_classes = len(forest.class_labels)
    votes = np.zeros(n * n_classes, dtype=np.int64)
    for block in _tree_blocks(n, len(forest.trees), _CHUNK_ROWS):
        trees = [forest.trees[t] for t in block]
        roots, flat = _concat_trees(trees)
        rows = np.concatenate([t.oob_indices for t in trees])
        start = np.repeat(roots, [len(t.oob_indices) for t in trees])
        preds = _predict(flat, X, start, rows)
        votes += np.bincount(rows * n_classes + preds, minlength=n * n_classes)
    votes = votes.reshape(n, n_classes)
    covered = votes.sum(axis=1) > 0
    winner = np.argmax(votes, axis=1)
    if covered.any():
        accuracy = float(np.mean(winner[covered] == y[covered]))
    else:
        logger.warning("no record was out-of-bag for any tree; accuracy undefined")
        accuracy = float("nan")
    predictions = tuple(
        forest.class_labels[int(w)] if c else None for w, c in zip(winner, covered)
    )
    return OobPrediction(predictions=predictions, accuracy=accuracy)


def mda_importance(forest: Forest, rs: RecordSet, seed: int) -> ImportanceReport:
    """Mean Decrease Accuracy per feature, averaged over trees.

    For each tree, each feature's column is permuted within the tree's
    out-of-bag rows (one fresh permutation per tree and feature) and the
    accuracy drop recorded; trees with no out-of-bag rows are skipped. The
    report is sorted by descending mda, ties by dictionary variable order.
    """
    codes = _check_match(forest, rs)
    X, y = codes[:-1], codes[-1]
    n_features = len(forest.features)

    def block_drops(block: range) -> list[np.ndarray]:
        """The accuracy drop per feature of each tree in block with OOB rows.

        Permuted rows are routed again only from the first node on their
        unpermuted path that splits on the permuted feature.
        """
        members = [forest.trees[t] for t in block]
        roots, flat = _concat_trees(members)
        kept = [
            (t, tree.oob_indices, root)
            for t, tree, root in zip(block, members, roots.tolist())
            if len(tree.oob_indices)
        ]
        if not kept:
            return []
        rngs = [np.random.default_rng([seed % 2**64, 1, t]) for t, _, _ in kept]
        oobs = [oob for _, oob, _ in kept]
        sizes = np.array([len(oob) for oob in oobs])
        oob = np.concatenate(oobs)
        owner = np.repeat(np.arange(len(kept)), sizes)
        start = np.repeat([root for _, _, root in kept], sizes)
        first_split = np.full((n_features, len(oob)), -1, dtype=np.intp)
        base = _predict(flat, X, start, oob, first_split=first_split) == y[oob]
        hits = np.empty((len(kept), n_features + 1), dtype=np.int64)
        hits[:, 0] = np.bincount(owner[base], minlength=len(kept))
        for f in range(n_features):
            # Draw every tree's f-th permutation, in feature order per stream.
            permuted_rows = np.concatenate(
                [o[rng.permutation(len(o))] for o, rng in zip(oobs, rngs)]
            )
            q = np.flatnonzero(first_split[f] >= 0)
            pred = _predict(flat, X, first_split[f, q], oob[q], (f, permuted_rows[q]))
            now = pred == y[oob[q]]
            change = now.astype(np.int64) - base[q]
            hits[:, f + 1] = hits[:, 0] + np.bincount(
                owner[q], weights=change, minlength=len(kept)
            ).astype(np.int64)
        accuracy = hits / sizes[:, None]
        return list(accuracy[:, :1] - accuracy[:, 1:])

    blocks = _tree_blocks(forest.n_records, len(forest.trees), _CHUNK_ROWS)
    per_block = run_ordered(block_drops, blocks)
    included = [drops for block in per_block for drops in block]
    if not included:
        raise ValidationError(
            "every record was in-bag for every tree; importance is undefined"
        )
    matrix = np.vstack(included)
    mda = matrix.mean(axis=0)
    sd = matrix.std(axis=0)  # population sd over trees
    order = sorted(
        range(n_features),
        key=lambda f: (-mda[f], forest.dictionary.variable_index(forest.features[f])),
    )
    entries = tuple(
        ImportanceEntry(variable=forest.features[f], mda=float(mda[f]), sd=float(sd[f]))
        for f in order
    )
    accuracy = oob_predict(forest, rs).accuracy
    return ImportanceReport(entries=entries, oob_accuracy=accuracy)


def select_top_k(report: ImportanceReport, k: int) -> tuple[str, ...]:
    """First k variables of the report (already sorted by descending mda)."""
    if not 1 <= k <= len(report.entries):
        raise ValidationError(f"k {k} out of range [1, {len(report.entries)}]")
    return tuple(entry.variable for entry in report.entries[:k])


def export_importance_csv(report: ImportanceReport, sink: str | Path) -> Path:
    rows = [
        [entry.variable, repr(entry.mda), repr(entry.sd), rank]
        for rank, entry in enumerate(report.entries, start=1)
    ]
    return write_csv(sink, ["variable", "mda", "sd", "rank"], rows)


def export_importance_json(report: ImportanceReport, sink: str | Path) -> Path:
    payload = {
        "oob_accuracy": report.oob_accuracy,
        "entries": [
            {"rank": rank, "variable": e.variable, "mda": e.mda, "sd": e.sd}
            for rank, e in enumerate(report.entries, start=1)
        ],
    }
    return write_json(sink, payload)
