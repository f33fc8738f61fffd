"""Item-major bitmap encoding of categorical records.

Each record becomes one transaction holding exactly one item per selected
variable, where an item is a (variable, category) pair. The database is
stored vertically: one read-only bitmap per item, with one bit per
transaction packed into 64-bit words. The support of an itemset is the
popcount of the AND of its items' bitmaps, which is exact and costs one
pass over ceil(n / 64) words per item (the tidset idea of Zaki, "Scalable
Algorithms for Association Mining", IEEE TKDE 2000).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .schema import RecordSet

Item = tuple[str, str]


def item_token(item: Item) -> str:
    """Render an item as ``variable=category`` (categories may contain '=')."""
    return f"{item[0]}={item[1]}"


def parse_item_token(token: str) -> Item:
    variable, sep, category = token.partition("=")
    if not sep or not variable or not category:
        raise ValidationError(f"malformed item token {token!r}; expected 'variable=category'")
    return variable, category


@dataclass(frozen=True)
class ItemUniverse:
    """Ordered item list with a dense id per item.

    Item ids follow dictionary variable order, then category order within
    each variable; every downstream tie-break keys off this ordering.
    """

    items: tuple[Item, ...]

    def __post_init__(self) -> None:
        index: dict[Item, int] = {}
        for i, item in enumerate(self.items):
            if item in index:
                raise ValidationError(f"duplicate item {item_token(item)!r} in universe")
            index[item] = i
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_variables", tuple(item[0] for item in self.items))

    def __len__(self) -> int:
        return len(self.items)

    def item_id(self, variable: str, category: str) -> int:
        try:
            return self._index[(variable, category)]  # type: ignore[attr-defined]
        except KeyError:
            raise ValidationError(
                f"item {item_token((variable, category))!r} is not in the universe"
            ) from None

    def variable_of(self, item_id: int) -> str:
        return self._variables[item_id]  # type: ignore[attr-defined]

    def token(self, item_id: int) -> str:
        return item_token(self.items[item_id])


@dataclass(frozen=True, eq=False)
class TransactionSet:
    """Immutable transaction database over an item universe.

    ``bitmaps[i]`` is item i's membership row over the transactions: bit
    t % 8 of byte t // 8 of the row is set iff transaction t holds the item.
    Rows are zero-padded to whole 64-bit words, so padding never counts.
    """

    universe: ItemUniverse
    bitmaps: np.ndarray  # shape (n_items, ceil(n_transactions / 64)), dtype uint64
    n_transactions: int

    def __post_init__(self) -> None:
        if self.bitmaps.shape != (len(self.universe), -(-self.n_transactions // 64)):
            raise ValidationError("bitmap shape does not match the universe and n_transactions")


def encode(rs: RecordSet, selected_vars: Sequence[str], full_universe: bool = False) -> TransactionSet:
    """Encode a RecordSet over the selected variables.

    The universe contains only the categories that actually occur in the
    records unless ``full_universe`` is set, in which case every dictionary
    category of each selected variable gets an item id (absent ones simply
    never appear in any transaction).
    """
    if not selected_vars:
        raise ValidationError("empty selection: at least one variable is required")
    if not len(rs):
        raise ValidationError("cannot encode an empty RecordSet")
    items: list[Item] = []
    membership: list[np.ndarray] = []
    for j in sorted({rs.dictionary.variable_index(var) for var in selected_vars}):
        var_schema, codes = rs.dictionary.variables[j], rs.codes[j]
        n_categories = len(var_schema.categories)
        if full_universe:
            kept = np.arange(n_categories)
        else:
            kept = np.flatnonzero(np.bincount(codes, minlength=n_categories))
        items.extend((var_schema.name, var_schema.categories[code]) for code in kept)
        membership.append(codes == kept[:, None])
    universe = ItemUniverse(items=tuple(items))
    packed = np.packbits(np.concatenate(membership), axis=1, bitorder="little")
    bitmaps = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))).view(np.uint64)
    bitmaps.setflags(write=False)
    return TransactionSet(universe=universe, bitmaps=bitmaps, n_transactions=len(rs))


def support_count(ts: TransactionSet, itemset: Iterable[int]) -> int:
    """Number of transactions containing every item of the itemset.

    The empty itemset is contained in every transaction.
    """
    n_items = len(ts.universe)
    hits = None
    for item_id in itemset:
        if not 0 <= item_id < n_items:
            raise ValidationError(f"item id {item_id} is outside the universe")
        row = ts.bitmaps[item_id]
        hits = row if hits is None else hits & row
    if hits is None:
        return ts.n_transactions
    return int(np.bitwise_count(hits).sum())


@dataclass(frozen=True)
class ItemFrequency:
    item_id: int
    variable: str
    category: str
    count: int
    relative_frequency: float


def item_frequencies(ts: TransactionSet) -> tuple[ItemFrequency, ...]:
    """Per-item counts and relative frequencies, descending by count.

    Ties are broken by item id so the ordering is total.
    """
    n = ts.n_transactions
    counts = np.bitwise_count(ts.bitmaps).sum(axis=1)
    freqs = []
    for item_id, (var, cat) in enumerate(ts.universe.items):
        count = int(counts[item_id])
        freqs.append(
            ItemFrequency(
                item_id=item_id,
                variable=var,
                category=cat,
                count=count,
                relative_frequency=count / n if n else 0.0,
            )
        )
    freqs.sort(key=lambda f: (-f.count, f.item_id))
    return tuple(freqs)
