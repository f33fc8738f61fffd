"""Random forest over categorical records with permutation importance.

Trees split on category subsets: each internal node sends a subset of one
variable's categories left and the rest (plus anything unseen) right. Splits
are chosen by Gini impurity decrease, with the subset search exhaustive up
to 12 present categories and greedy beyond that.

Layout. A tree is a set of read-only parallel arrays indexed by node id, as
in ranger (Wright & Ziegler, JSS 2017): split feature (-1 at a leaf), left
child id (-1 at a leaf; the right child's is one more), majority class,
per-class in-bag counts, and a routing table per node holding one bool per
category of its split feature, True where that category goes left. Each
integer array is built in the smallest integer dtype that holds its values,
signed where -1 marks a leaf, and the bootstrap rows of growth in the
smallest unsigned dtype that holds a row id. The same tree as TreeNode
objects shares one object per distinct leaf, routing table and class-count
tuple across the forest. Prediction lays a block of trees end to end and
turns their routing tables into one child table, which holds for every node
and category the id of the child that category goes to. It moves every query
row down one tree level per step, each step one lookup in that table at the
node's offset plus the row's code, read from a row-major copy of the codes.
Node and row ids widen to intp as they are laid end to end, before any
offset is taken from them: numpy keeps uint16 * 12 in uint16, so a narrow
row id times the feature count would wrap.

Growth. Trees are grown a block at a time, in lockstep: each step takes the
next depth-first node of every tree in the block that can still split,
counts the (category, class) tables of all their candidate features with
bincount, scores every category partition of every table at once and
splits. Scoring lays the tables out class-major, so each per-class sum adds
whole (table, partition) slabs; every count and sum of squared counts is an
integer below 2^53 and so exact in float64. Blocks hold up to _BLOCK_ROWS
bootstrap rows, so the block partition depends only on the record and tree
counts. Blocks run one after another.

Determinism. Each tree draws from its own RNG stream keyed by (seed,
purpose, tree index). Lockstep growth still visits each tree's nodes in the
depth-first, left-child-first order of a one-node-at-a-time grower, so every
tree makes the same draws in the same order and numbers its nodes the same
way. The per-node feature draws are decoded a whole step at a time, for
every tree in the step, from the uint32 words each tree's stream reads
ahead (_FeatureDraws); each equals Generator.choice without replacement on
that stream, sorted, which test_forest.py pins call for call. The Gini
scores come from the same float operations on the same exact integer
counts, so ties break the same way too: the first feature, then the first
partition wins. A forest thus does not depend on the block size.

Importance is Mean Decrease Accuracy (Breiman, 2001), on the training codes
the forest keeps: for every tree, the accuracy on its out-of-bag records is
compared with the accuracy after permuting one feature's column within those
records, tree t drawing its permutations from stream (seed, 1, t); the
per-feature mean over trees is the mda, reported with its standard
deviation. A feature no tree ever splits on scores exactly 0. A permuted row
follows its unpermuted path down to the first node on it that splits on the
permuted feature, read from a (node, feature) table at the row's leaf; that
table is filled top-down, each node holding its parent's first splits and,
if new, its own. The row is routed again only from there, as an ordinary
query over its codes with that feature's code from the permuted record, and
only if the permutation changed that code; otherwise it reaches the same leaf.
"""

from __future__ import annotations

import gc
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

# uint32 words of a tree's RNG stream read ahead at once for its feature draws.
_WORD_BUFFER = 1 << 10


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 500
    mtry: int | None = None  # None resolves to floor(sqrt(#features))
    min_node_size: int = 1
    max_depth: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_trees", "mtry", "min_node_size", "max_depth", "seed"):
            value = getattr(self, name)
            if value is None and name in ("mtry", "max_depth"):
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValidationError(f"forest {name!r} must be an integer, got {value!r}")
        if not 0 <= self.seed < 2**64:  # the RNG reads it as a uint64
            raise ValidationError(f"seed {self.seed} must be in [0, 2**64)")
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

    feature is the split feature and left the left child's id (both -1 at a
    leaf); the right child's id is always left + 1. class_index is the
    majority class (first on ties) of the (node, class) in-bag counts in
    class_counts. Node i sends category c of its feature left iff
    routing[route_start[i] + c]; route_start has one more entry than there
    are nodes, and a leaf's table is empty.

    Each integer array has the smallest integer dtype that holds its values:
    feature and left are signed (they hold -1), sized by the feature and
    node counts; class_index, class_counts, route_start and in_bag are
    unsigned, sized by the class count, the largest class count at the root,
    the routing table's length and the largest multiplicity; oob_indices is
    unsigned, sized by the record count. Take any of them to intp before
    offsetting or scaling it. routing is bool. Equal leaves in nodes are one
    object across the forest.
    """

    feature: np.ndarray
    left: np.ndarray
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
    config: ForestConfig
    mtry: int
    codes: np.ndarray  # read-only training codes, (features then response, record)


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
    as bool; column p - 1 of the float64 matrix is the same mask. This is the
    enumeration order of _score_partitions."""
    masks = np.arange(1, 1 << (m - 1), dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(m - 1)) & 1).astype(bool)
    columns = np.ascontiguousarray(bits.T, dtype=np.float64)
    bits.setflags(write=False)
    columns.setflags(write=False)
    return bits, columns


def _score_partitions(cont: np.ndarray, min_node_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The best category partition of every (category x class) table in
    cont, by Gini decrease, at once.

    Returns each table's best decrease (-inf where no partition with both
    children >= min_node_size improves on the parent) and a (table,
    category) mask of the categories it sends left. A table with m <= 12
    present categories has its 2^(m-1) - 1 unordered partitions scored
    exactly, its last present category fixed on the right; the first best
    partition wins ties. The scored tables are laid out class-major, so
    every per-class sum adds whole (table, partition) slabs. All counts and
    sums of their squares are integers below 2^53, exact in float64 in any
    order, so a table scores the same alone or in any batch. A wider table
    gets _greedy_partition.
    """
    n_tables, width, n_classes = cont.shape
    # einsum sums the short inner axes far faster than ufunc reductions do
    present = np.einsum("tck->tc", cont) > 0
    m = present.sum(axis=1)
    class_totals = np.einsum("tck->tk", cont)
    best = np.full(n_tables, -np.inf)
    left_mask = np.zeros((n_tables, width), dtype=bool)
    sel = np.flatnonzero((m >= 2) & (m <= _EXHAUSTIVE_MAX_CATEGORIES))
    if len(sel):
        top = int(m[sel].max())
        bits, columns = _partition_bits(top)
        # A table's present categories take positions 0.. in category order;
        # its last one stays right, and positions m - 1 .. top - 2 are empty
        # padding. A partition that sets a padding bit repeats an earlier one
        # (or leaves the left side empty), so the first best partition is the
        # table's own, whatever the batch's widest table.
        rank = np.cumsum(present[sel], axis=1) - 1
        movable = present[sel] & (rank < (m[sel] - 1)[:, None])
        g, c = np.nonzero(movable)
        at = rank[g, c]
        cp = np.zeros((n_classes, len(sel), top - 1))
        cp[:, g, at] = cont[sel[g], c].T
        category = np.full((len(sel), top - 1), width)  # padding -> spare column
        category[g, at] = c
        # (class, table, partition) counts of the left and right children
        left = (cp.reshape(-1, top - 1) @ columns).reshape(n_classes, len(sel), -1)
        totals = class_totals[sel].T.astype(np.float64)
        right = totals[:, :, None] - left
        nl = left.sum(axis=0)
        nt = totals.sum(axis=0)[:, None]
        nr = nt - nl
        parent = 1.0 - (totals**2).sum(axis=0)[:, None] / (nt * nt)
        left **= 2
        right **= 2
        with np.errstate(divide="ignore", invalid="ignore"):
            child = (nl - left.sum(axis=0) / nl + nr - right.sum(axis=0) / nr) / nt
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


class _FeatureDraws:
    """Each tree's per-node feature draws, decoded for many trees at once.

    draw(trees) returns, for each listed tree, its next
    np.sort(rng.choice(p, size=m, replace=False)) on its own stream, bit for
    bit, from words the stream has read ahead. numpy draws that sample with
    bounded(r) reads: a uint32 word w gives x = w * (r + 1), a word with
    x mod 2^32 < 2^32 mod (r + 1) is rejected (Lemire, ACM TOMACS 2019) and
    the value is x >> 32; bounded(0) reads no word. For p <= 10_000 or
    m <= p // 50 it runs Floyd's sample, bounded(j) for j = p - m .. p - 1
    taking j when the value is already chosen, then shuffles the sample with
    bounded(i) for i = m - 1 .. 1, which only consumes words here as the
    sample is sorted. Otherwise it shuffles the tail of arange(p) with
    bounded(i) for i = p - 1 .. max(p - m, 1) and takes its last m entries.
    Either way a draw's sequence of r is fixed, so a step reads every tree's
    words as one (tree, read) matrix and decodes it column by column.
    """

    def __init__(self, rngs: Sequence[np.random.Generator], p: int, m: int) -> None:
        self.rngs = rngs
        self.p, self.m = p, m
        self.tail = p > 10_000 and m > p // 50
        if self.tail:
            self.bounds = np.arange(p - 1, max(p - m, 1) - 1, -1)
        else:
            self.bounds = np.concatenate([np.arange(max(p - m, 1), p), np.arange(m - 1, 0, -1)])
        # r of each bounded(r) that reads a word, in order, and its Lemire terms
        self.scale = self.bounds.astype(np.uint64) + 1
        self.threshold = (1 << 32) % self.scale
        width = max(_WORD_BUFFER, len(self.bounds))
        self.words = np.stack([self._read(rng, width) for rng in rngs])
        self.cursor = np.zeros(len(rngs), dtype=np.intp)  # next unread word per tree

    @staticmethod
    def _read(rng: np.random.Generator, size: int) -> np.ndarray:
        """The next size raw uint32 words of rng, as next_uint32 yields them."""
        return rng.integers(0, 1 << 32, size=size, dtype=np.uint32)

    def _top_up(self, trees: np.ndarray, need: np.ndarray) -> None:
        """Hold at least need[i] unread words for tree trees[i]: unread words
        move to the front of the tree's buffer and its stream fills the rest."""
        width = self.words.shape[1]
        if need.max() > width:
            extra = int(need.max()) - width
            ahead = np.stack([self._read(rng, extra) for rng in self.rngs])
            self.words = np.hstack([self.words, ahead])
            width += extra
        for t in trees[self.cursor[trees] + need > width].tolist():
            c = self.cursor[t]
            self.words[t, : width - c] = self.words[t, c:]
            self.words[t, width - c :] = self._read(self.rngs[t], c)
            self.cursor[t] = 0

    def draw(self, trees: np.ndarray) -> np.ndarray:
        """The next sorted feature sample of each of trees, a (tree, m) array."""
        n, k = len(trees), len(self.scale)
        x = np.zeros((n, k), dtype=np.uint64)
        if k:
            # skip[i, c]: words tree trees[i] rejected before read c's accepted one
            skip = np.zeros((n, k), dtype=np.intp)
            while True:
                self._top_up(trees, k + skip[:, -1])
                at = self.cursor[trees][:, None] + np.arange(k) + skip
                x = self.words[trees[:, None], at] * self.scale
                rejected = (x & 0xFFFFFFFF) < self.threshold
                if not rejected.any():
                    break
                again = np.flatnonzero(rejected.any(axis=1))
                first = rejected[again].argmax(axis=1)
                skip[again] += np.arange(k) >= first[:, None]
            self.cursor[trees] += k + skip[:, -1]
        values = (x >> 32).astype(np.intp)
        rows = np.arange(n)
        p, m = self.p, self.m
        if self.tail:
            order = np.tile(np.arange(p), (n, 1))
            for c, i in enumerate(self.bounds.tolist()):
                j = values[:, c]
                swapped = order[rows, j]
                order[rows, j] = order[:, i]
                order[:, i] = swapped
            return np.sort(order[:, p - m :], axis=1)
        if p == m:  # bounded(0) reads no word and gives 0
            values = np.hstack([np.zeros((n, 1), dtype=np.intp), values])
        chosen = np.zeros((n, p), dtype=bool)
        for c, j in enumerate(range(p - m, p)):
            v = values[:, c]
            v = np.where(chosen[rows, v], j, v)
            chosen[rows, v] = True
        return np.nonzero(chosen)[1].reshape(n, m)


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


def _int_dtype(high: int, signed: bool = False) -> np.dtype:
    """The smallest integer dtype holding 0..high, and -1 too if signed."""
    return np.min_scalar_type(-high - 1 if signed else high)


def _forest_nodes(trees: Sequence[tuple[np.ndarray, ...]]) -> Iterator[tuple[TreeNode, ...]]:
    """Each tree's arrays as TreeNode objects. Across the forest, equal
    routing tables, class counts and leaves share one frozenset, one tuple
    and one TreeNode."""
    tables: dict[bytes, frozenset[int]] = {}
    counts: dict[tuple[int, ...], tuple[int, ...]] = {}
    leaves: dict[TreeNode, TreeNode] = {}
    for feature, left, class_index, class_counts, route_start, routing, *_ in trees:
        table_bytes = routing.tobytes()
        starts = route_start.tolist()
        left_categories = [frozenset()] * len(feature)
        for i in np.flatnonzero(feature >= 0).tolist():
            table = table_bytes[starts[i] : starts[i + 1]]
            if table not in tables:
                tables[table] = frozenset(compress(range(len(table)), table))
            left_categories[i] = tables[table]
        fields = zip(
            feature.tolist(),
            left_categories,
            left.tolist(),
            np.where(left >= 0, left + 1, -1).tolist(),
            class_index.tolist(),
            (
                counts.setdefault(c, c)
                for c in zip(*[iter(class_counts.ravel().tolist())] * class_counts.shape[1])
            ),
        )
        nodes = list(map(partial(tuple.__new__, TreeNode), fields))
        for i in np.flatnonzero(feature < 0).tolist():
            nodes[i] = leaves.setdefault(nodes[i], nodes[i])
        yield tuple(nodes)


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
    without nodes. samples holds every tree's bootstrap rows end to end, in
    the smallest unsigned dtype that holds a row id; a node owns a
    contiguous range of it, which a split reorders into left then right.
    Each tree's depth-first stack holds (node id, sample start, sample end,
    depth, splittable) of the nodes still to visit.
    """
    n = len(y)
    n_trees = len(block)
    flat_codes = X.ravel()  # feature f of record r at f * n + r
    width = int(n_cats.max())
    cells = width * n_classes
    rngs = [np.random.default_rng([cfg.seed, 0, i]) for i in block]
    row_dtype = _int_dtype(n - 1)
    samples = np.empty(n_trees * n, dtype=row_dtype)
    for j, rng in enumerate(rngs):
        samples[j * n : (j + 1) * n] = rng.integers(0, n, size=n)
    draws = _FeatureDraws(rngs, len(X), mtry)
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
        tree, nid, starts, ends, depth = (np.array(column) for column in zip(*batch))
        feats = draws.draw(tree)
        lengths = ends - starts
        chunks = _row_chunks(lengths)
        cont = np.empty((n_batch, mtry, cells), dtype=np.int64)
        for lo, hi in chunks:
            node, _, rows = _node_rows(samples, starts[lo:hi], lengths[lo:hi])
            key_base = node * cells + y[rows]
            for s in range(mtry):
                at = np.repeat(feats[lo:hi, s] * n, lengths[lo:hi]) + rows
                key = flat_codes[at].astype(np.intp)
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
            code = flat_codes[np.repeat(feature[lo:hi] * n, lengths[lo:hi]) + rows]
            go_left = route[lo:hi][node, code]
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
        feature_j = np.full(size, -1, dtype=_int_dtype(len(X) - 1, signed=True))
        feature_j[nid[mine]] = feature[mine]
        left_j = np.full(size, -1, dtype=_int_dtype(size - 1, signed=True))
        left_j[nid[mine]] = left[mine]
        # no count exceeds its class's count at the root
        class_counts = np.empty((size, n_classes), dtype=_int_dtype(int(root_counts[j].max())))
        class_counts[0] = root_counts[j]
        class_counts[left[mine]] = child_counts[mine, 0]
        class_counts[left[mine] + 1] = child_counts[mine, 1]
        widths = np.where(feature_j >= 0, n_cats[feature_j], 0)
        route_start = np.zeros(size + 1, dtype=_int_dtype(int(widths.sum())))
        route_start[1:] = np.cumsum(widths)
        in_bag = np.bincount(samples[j * n : (j + 1) * n], minlength=n)
        in_bag = in_bag.astype(_int_dtype(int(in_bag.max())))
        arrays = (
            feature_j,
            left_j,
            class_counts.argmax(axis=1).astype(_int_dtype(n_classes - 1)),
            class_counts,
            route_start,
            route[mine][np.arange(width) < n_cats[feature[mine]][:, None]],
            in_bag,
            np.flatnonzero(in_bag == 0).astype(row_dtype),
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
    codes.setflags(write=False)
    X, y = codes[:-1], codes[-1]
    class_labels = rs.dictionary.variable(response).categories
    if not (y != y[0]).any():
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
    grown = [arrays for block in blocks for arrays in block]
    with _gc_paused():
        trees = tuple(
            DecisionTree(*arrays, nodes=nodes)
            for arrays, nodes in zip(grown, _forest_nodes(grown))
        )
    return Forest(
        trees=trees,
        response_variable=response,
        features=features,
        class_labels=class_labels,
        dictionary=rs.dictionary,
        config=cfg,
        mtry=mtry,
        codes=codes,
    )


def _concat_trees(trees: Sequence[DecisionTree]) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Root ids and the trees' node arrays end to end, ids offset to match:
    split feature, left child, majority class, the start of each node's
    routing table and the child table. Node i sends category c to
    child[route_start[i] + c], its left child where routing[route_start[i] + c]
    holds, else its right one, which is the left one's id plus one. Node ids
    and table offsets widen to intp as they are concatenated, before any
    offset is added."""
    sizes = [len(t.feature) for t in trees]
    roots = np.cumsum(sizes) - sizes
    route_sizes = [len(t.routing) for t in trees]
    left = np.concatenate([t.left for t in trees], dtype=np.intp)
    left += np.repeat(roots, sizes)
    route_start = np.concatenate([t.route_start[:-1] for t in trees], dtype=np.intp)
    route_start += np.repeat(np.cumsum(route_sizes) - route_sizes, sizes)
    widths = np.concatenate([np.diff(t.route_start) for t in trees])
    flat = (
        np.concatenate([t.feature for t in trees]),
        left,
        np.concatenate([t.class_index for t in trees]),
        route_start,
        np.repeat(left, widths) + ~np.concatenate([t.routing for t in trees]),
    )
    return roots, flat


def _predict(
    flat: tuple[np.ndarray, ...], codes: np.ndarray, start: np.ndarray, row: np.ndarray
) -> np.ndarray:
    """The leaf each query reaches, one tree level per step: query q starts at
    node start[q] and reads the codes of record row[q] from codes, a row-major
    (record, feature) matrix. Queries are routed _CHUNK_ROWS at a time."""
    feature, _, _, route_start, child = flat
    p = codes.shape[1]
    codes = codes.ravel()
    out = np.empty(len(start), dtype=np.intp)
    for lo in range(0, len(start), _CHUNK_ROWS):
        query = np.arange(lo, min(lo + _CHUNK_ROWS, len(start)))
        node, at = start[query], row[query] * p  # at: the record's first code
        while len(query):
            f = feature[node]
            leaf = f < 0
            if leaf.any():
                out[query[leaf]] = node[leaf]
                inner = ~leaf
                query, node, at, f = query[inner], node[inner], at[inner], f[inner]
            node = child[route_start[node] + codes[at + f]]
    return out


def _first_splits(flat: tuple[np.ndarray, ...], roots: np.ndarray, n_features: int) -> np.ndarray:
    """The (node, feature) table whose entry (i, f) is the first node on the
    path from i's root down to i, i included, that splits on f, or -1. It is
    filled one tree level at a time, each child taking its parent's row, in
    the smallest signed dtype that holds a node id."""
    feature, left = flat[:2]
    table = np.full((len(feature), n_features), -1, _int_dtype(len(feature) - 1, signed=True))
    level = roots
    while len(level):
        level = level[feature[level] >= 0]
        own = level[table[level, feature[level]] < 0]
        table[own, feature[own]] = own
        child = left[level]
        table[child] = table[child + 1] = table[level]
        level = np.concatenate([child, child + 1])
    return table


def oob_predict(forest: Forest) -> OobPrediction:
    """Majority vote per training record over the trees where it was
    out-of-bag.

    Records in-bag for every tree get prediction None and are left out of
    the accuracy denominator. Vote ties break toward the class listed first
    in the dictionary.
    """
    codes = forest.codes
    by_record, y = np.ascontiguousarray(codes[:-1].T), codes[-1]
    n = codes.shape[1]
    n_classes = len(forest.class_labels)
    votes = np.zeros(n * n_classes, dtype=np.int64)
    for block in _tree_blocks(n, len(forest.trees), _CHUNK_ROWS):
        trees = [forest.trees[t] for t in block]
        roots, flat = _concat_trees(trees)
        _, _, class_index, _, _ = flat
        rows = np.concatenate([t.oob_indices for t in trees], dtype=np.intp)
        start = np.repeat(roots, [len(t.oob_indices) for t in trees])
        preds = class_index[_predict(flat, by_record, start, rows)]
        votes += np.bincount(rows * n_classes + preds, minlength=n * n_classes)
    votes = votes.reshape(n, n_classes)
    covered = votes.sum(axis=1) > 0
    winner = np.argmax(votes, axis=1)
    if covered.any():
        accuracy = float(np.mean(winner[covered] == y[covered]))
    else:
        logger.warning("no record was out-of-bag for any tree; accuracy undefined")
        accuracy = float("nan")
    labels = forest.class_labels + (None,)  # index n_classes: never out-of-bag
    predictions = tuple(map(labels.__getitem__, np.where(covered, winner, n_classes).tolist()))
    return OobPrediction(predictions=predictions, accuracy=accuracy)


def mda_importance(forest: Forest) -> ImportanceReport:
    """Mean Decrease Accuracy per feature, averaged over trees.

    For each tree, each feature's column is permuted within the tree's
    out-of-bag rows (one fresh rng.permutation of those rows per tree and
    feature, tree t drawing from stream (forest seed, 1, t)) and the accuracy
    drop recorded; trees with no out-of-bag rows are skipped. The report is
    sorted by descending mda, ties by dictionary variable order.
    """
    X, y = forest.codes[:-1], forest.codes[-1]
    by_record = np.ascontiguousarray(X.T)
    n_features = len(forest.features)

    def block_drops(block: range) -> list[np.ndarray]:
        """The accuracy drop per feature of each tree in block with OOB rows."""
        members = [forest.trees[t] for t in block]
        roots, flat = _concat_trees(members)
        _, _, class_index, _, _ = flat
        kept = [
            (t, tree.oob_indices, root)
            for t, tree, root in zip(block, members, roots.tolist())
            if len(tree.oob_indices)
        ]
        if not kept:
            return []
        rngs = [np.random.default_rng([forest.config.seed, 1, t]) for t, _, _ in kept]
        sizes = np.array([len(oob) for _, oob, _ in kept])
        oob = np.concatenate([oob for _, oob, _ in kept], dtype=np.intp)
        oobs = np.split(oob, np.cumsum(sizes)[:-1])  # each tree's, as views
        owner = np.repeat(np.arange(len(kept)), sizes)
        start = np.repeat([root for _, _, root in kept], sizes)
        leaf = _predict(flat, by_record, start, oob)
        base = class_index[leaf] == y[oob]
        first_split = _first_splits(flat, roots, n_features)[leaf]
        hits = np.empty((len(kept), n_features + 1), dtype=np.int64)
        hits[:, 0] = np.bincount(owner[base], minlength=len(kept))
        for f in range(n_features):
            # Draw every tree's f-th permutation, in feature order per stream.
            permuted = np.concatenate([rng.permutation(o) for o, rng in zip(oobs, rngs)])
            q = np.flatnonzero((first_split[:, f] >= 0) & (X[f, permuted] != X[f, oob]))
            codes = by_record[oob[q]]
            codes[:, f] = X[f, permuted[q]]
            leaf = _predict(flat, codes, first_split[q, f], np.arange(len(q)))
            now = class_index[leaf] == y[oob[q]]
            change = now.astype(np.int64) - base[q]
            hits[:, f + 1] = hits[:, 0] + np.bincount(
                owner[q], weights=change, minlength=len(kept)
            ).astype(np.int64)
        accuracy = hits / sizes[:, None]
        return list(accuracy[:, :1] - accuracy[:, 1:])

    blocks = _tree_blocks(len(y), len(forest.trees), _CHUNK_ROWS)
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
    accuracy = oob_predict(forest).accuracy
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
