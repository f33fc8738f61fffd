"""Data dictionary, validated record ingestion, filtering, and cross-tabulation.

The dictionary declares every categorical variable with its ordered category
list (coded scales such as lighting conditions or injury severity live here).
Records are validated against it at ingest time: each record carries exactly
one category per variable, and "unknown" is an ordinary category that is
never dropped silently. All types are immutable after construction. A
RecordSet encodes its records once, into the category-code matrix that every
later stage reads; nothing else maps categories to codes.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .errors import DictionaryError, IngestError, ValidationError

ROLE_HINTS = ("feature", "response", "stratum", "none")

#: Default name of the record-id column in delimited record streams.
DEFAULT_RECORD_ID_COLUMN = "crash_number"


def normalize_name(name: str) -> str:
    """Lowercase a variable name and replace whitespace runs with underscores."""
    return re.sub(r"\s+", "_", name.strip().lower())


@dataclass(frozen=True)
class VariableSchema:
    """One categorical variable: its name, ordered categories, and a role hint.

    The role hint is advisory metadata only; it never constrains how the
    variable may be used downstream.
    """

    name: str
    categories: tuple[str, ...]
    role_hint: str = "none"

    def __post_init__(self) -> None:
        if not self.name:
            raise DictionaryError("variable name must be nonempty")
        if self.name != normalize_name(self.name):
            raise DictionaryError(
                f"variable name {self.name!r} is not normalized "
                f"(expected {normalize_name(self.name)!r})"
            )
        if len(self.categories) < 2:
            raise DictionaryError(
                f"variable {self.name!r} needs at least 2 categories, "
                f"got {len(self.categories)}"
            )
        seen = set()
        for cat in self.categories:
            if not cat:
                raise DictionaryError(f"variable {self.name!r} has an empty category name")
            if cat in seen:
                raise DictionaryError(f"variable {self.name!r} has duplicate category {cat!r}")
            seen.add(cat)
        if self.role_hint not in ROLE_HINTS:
            raise DictionaryError(
                f"variable {self.name!r} has invalid role_hint {self.role_hint!r}; "
                f"expected one of {ROLE_HINTS}"
            )


@dataclass(frozen=True)
class DataDictionary:
    """The variable universe: an ordered list of variable schemas."""

    variables: tuple[VariableSchema, ...]
    version: str = ""

    def __post_init__(self) -> None:
        by_name: dict[str, VariableSchema] = {}
        for var in self.variables:
            if var.name in by_name:
                raise DictionaryError(f"duplicate variable {var.name!r}")
            by_name[var.name] = var
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_order", {v.name: i for i, v in enumerate(self.variables)})

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name  # type: ignore[attr-defined]

    def variable(self, name: str) -> VariableSchema:
        try:
            return self._by_name[name]  # type: ignore[attr-defined]
        except KeyError:
            raise ValidationError(f"unknown variable {name!r}") from None

    def variable_index(self, name: str) -> int:
        self.variable(name)
        return self._order[name]  # type: ignore[attr-defined]

    def category_index(self, variable: str, category: str) -> int:
        var = self.variable(variable)
        try:
            return var.categories.index(category)
        except ValueError:
            raise ValidationError(
                f"unknown category {category!r} of variable {variable!r}"
            ) from None


def load_dictionary(source: str | Path | Mapping) -> DataDictionary:
    """Parse and validate a dictionary document.

    The document is a JSON object ``{version, variables: [{name, categories,
    role_hint}]}``. Variable names are normalized; category order is
    preserved exactly as declared.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DictionaryError(f"malformed dictionary document {source}: {exc}") from exc
    else:
        doc = source
    if not isinstance(doc, Mapping):
        raise DictionaryError("dictionary document must be a JSON object")
    raw_vars = doc.get("variables")
    if not isinstance(raw_vars, Sequence) or isinstance(raw_vars, (str, bytes)):
        raise DictionaryError("dictionary document is missing a 'variables' array")
    variables = []
    for entry in raw_vars:
        if not isinstance(entry, Mapping) or "name" not in entry or "categories" not in entry:
            raise DictionaryError(f"variable entry {entry!r} must have 'name' and 'categories'")
        cats = entry["categories"]
        if not isinstance(cats, Sequence) or isinstance(cats, (str, bytes)):
            raise DictionaryError(
                f"categories of {entry['name']!r} must be an array of strings"
            )
        try:
            variables.append(
                VariableSchema(
                    name=normalize_name(str(entry["name"])),
                    categories=tuple(str(c) for c in cats),
                    role_hint=str(entry.get("role_hint", "none")),
                )
            )
        except DictionaryError:
            raise
        except ValidationError as exc:
            raise DictionaryError(str(exc)) from exc
    try:
        return DataDictionary(variables=tuple(variables), version=str(doc.get("version", "")))
    except ValidationError as exc:
        raise DictionaryError(str(exc)) from exc


@dataclass(frozen=True)
class Record:
    """One crash-unit row: a unique id plus one category per variable."""

    record_id: str
    values: Mapping[str, str]


@dataclass(frozen=True)
class FilterLogEntry:
    description: str
    records_before: int
    records_after: int


@dataclass(frozen=True)
class RecordSet:
    """Validated records plus the provenance of any filters applied to them.

    ``codes`` (derived, read-only, shape (n_variables, n_records)) holds in
    row j each record's category index in the j-th dictionary variable, in
    the smallest unsigned dtype that fits the widest variable (uint8 up to
    256 categories).
    """

    dictionary: DataDictionary
    records: tuple[Record, ...]
    filter_log: tuple[FilterLogEntry, ...] = ()
    codes: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        names = set(self.dictionary.names)
        seen_ids: set[str] = set()
        for rec in self.records:
            if rec.record_id in seen_ids:
                raise ValidationError(f"duplicate record_id {rec.record_id!r}")
            seen_ids.add(rec.record_id)
            if rec.values.keys() != names:
                raise ValidationError(
                    f"record {rec.record_id!r} does not assign exactly one category per variable "
                    f"(missing={sorted(names - rec.values.keys())}, "
                    f"extra={sorted(rec.values.keys() - names)})"
                )
        variables = self.dictionary.variables
        width = max((len(var.categories) for var in variables), default=1)
        codes = np.empty((len(variables), len(self.records)), dtype=np.min_scalar_type(width - 1))
        values = [rec.values for rec in self.records]
        for row, var in zip(codes, variables):
            index = {cat: code for code, cat in enumerate(var.categories)}
            try:
                row[:] = np.fromiter(
                    map(index.__getitem__, map(itemgetter(var.name), values)), codes.dtype
                )
            except KeyError:
                rec = next(r for r in self.records if r.values[var.name] not in index)
                raise ValidationError(
                    f"record {rec.record_id!r}: {rec.values[var.name]!r} is not a category "
                    f"of {var.name!r}"
                ) from None
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)
        prev_after = None
        for entry in self.filter_log:
            if entry.records_after > entry.records_before:
                raise ValidationError(
                    f"filter log entry {entry.description!r} increases the record count"
                )
            if prev_after is not None and entry.records_before > prev_after:
                raise ValidationError("filter log counts are not monotone non-increasing")
            prev_after = entry.records_after

    def __len__(self) -> int:
        return len(self.records)


class UnknownPolicy(Enum):
    """How ingest treats values that are not in the dictionary."""

    REJECT = "reject"
    COERCE = "coerce"


def _open_source(source: str | Path | IO[str]) -> tuple[IO[str], bool]:
    if isinstance(source, (str, Path)):
        return open(source, encoding="utf-8", newline=""), True
    return source, False


def ingest(
    source: str | Path | IO[str],
    dictionary: DataDictionary,
    policy: UnknownPolicy = UnknownPolicy.REJECT,
    record_id_column: str = DEFAULT_RECORD_ID_COLUMN,
) -> RecordSet:
    """Read a delimited record stream and validate it against the dictionary.

    The stream is UTF-8 CSV with a header row naming a superset of the
    dictionary variables plus a record-id column (header names are matched
    after normalization). Missing values become "unknown" when the variable
    declares that category, otherwise the row is rejected. Out-of-dictionary
    values are rejected under REJECT and coerced to "unknown" (when present)
    under COERCE.
    """
    fh, owns = _open_source(source)
    try:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise IngestError("empty input: record stream has no header")
        header_map: dict[str, str] = {}
        for col in reader.fieldnames:
            norm = normalize_name(col)
            if norm in header_map:
                raise IngestError(f"duplicate column {norm!r} in header")
            header_map[norm] = col
        missing = [v for v in dictionary.names if v not in header_map]
        if record_id_column not in header_map:
            missing.append(record_id_column)
        if missing:
            raise IngestError(f"missing column(s): {', '.join(sorted(missing))}")

        id_col = header_map[record_id_column]
        records: list[Record] = []
        seen_ids: set[str] = set()
        for row in reader:
            line = reader.line_num
            rid = (row.get(id_col) or "").strip()
            if not rid:
                raise IngestError(f"row {line}: empty record id")
            if rid in seen_ids:
                raise IngestError(f"row {line}: duplicate record_id {rid!r}")
            seen_ids.add(rid)
            values: dict[str, str] = {}
            for var in dictionary.names:
                cats = dictionary.variable(var).categories
                raw = row.get(header_map[var])
                val = (raw or "").strip()
                if not val:
                    if "unknown" in cats:
                        val = "unknown"
                    else:
                        raise IngestError(
                            f"row {line}: missing value for {var!r} and the variable "
                            f"declares no 'unknown' category"
                        )
                elif val not in cats:
                    if policy is UnknownPolicy.COERCE and "unknown" in cats:
                        val = "unknown"
                    else:
                        raise IngestError(
                            f"row {line}: value {val!r} is not a category of {var!r}"
                        )
                values[var] = val
            records.append(Record(record_id=rid, values=values))
        if not records:
            raise IngestError("empty input: record stream has no data rows")
        return RecordSet(dictionary=dictionary, records=tuple(records))
    finally:
        if owns:
            fh.close()


def write_records(
    rs: RecordSet,
    sink: str | Path,
    record_id_column: str = DEFAULT_RECORD_ID_COLUMN,
) -> Path:
    """Write a RecordSet back out as CSV; re-ingesting yields equal records."""
    sink = Path(sink)
    sink.parent.mkdir(parents=True, exist_ok=True)
    with open(sink, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([record_id_column, *rs.dictionary.names])
        for rec in rs.records:
            writer.writerow([rec.record_id, *(rec.values[v] for v in rs.dictionary.names)])
    return sink


@dataclass(frozen=True)
class FilterStep:
    """Keep records whose value for ``variable`` lies in ``keep``."""

    variable: str
    keep: frozenset[str]

    def describe(self) -> str:
        return f"{self.variable} in {{{', '.join(sorted(self.keep))}}}"


def load_filter_steps(source: str | Path | Sequence) -> tuple[FilterStep, ...]:
    """Parse filter steps from a JSON array ``[{variable, keep: [...]}]``."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = source
    steps = []
    for entry in doc:
        if not isinstance(entry, Mapping) or "variable" not in entry or "keep" not in entry:
            raise ValidationError(f"filter step {entry!r} must have 'variable' and 'keep'")
        keep = entry["keep"]
        if not isinstance(keep, (list, tuple)) or not all(isinstance(c, str) for c in keep):
            raise ValidationError(f"filter step {entry!r}: 'keep' must be an array of strings")
        steps.append(FilterStep(variable=str(entry["variable"]), keep=frozenset(keep)))
    return tuple(steps)


def filter_records(rs: RecordSet, steps: Sequence[FilterStep]) -> RecordSet:
    """Apply filter steps in order, keeping records that satisfy all of them.

    Each step appends one entry to the filter log with its before/after
    counts. The input RecordSet is never modified.
    """
    keep = np.ones(len(rs), dtype=bool)
    log = list(rs.filter_log)
    for step in steps:
        cats = rs.dictionary.variable(step.variable).categories
        unknown = sorted(step.keep.difference(cats))
        if unknown:
            raise ValidationError(
                f"filter step on {step.variable!r} names unknown category {unknown[0]!r}"
            )
        before = int(keep.sum())
        row = rs.codes[rs.dictionary.variable_index(step.variable)]
        keep &= np.isin(row, [cats.index(cat) for cat in step.keep])
        log.append(FilterLogEntry(step.describe(), before, int(keep.sum())))
    return RecordSet(
        dictionary=rs.dictionary, records=tuple(compress(rs.records, keep)), filter_log=tuple(log)
    )


@dataclass(frozen=True)
class CrossTab:
    """Counts of records by (row category x column category).

    Stores integer counts only; percentages are a display concern and are
    derived column-wise (cell / column_total) when rendering.
    """

    row_variable: str
    col_variable: str
    row_categories: tuple[str, ...]
    col_categories: tuple[str, ...]
    cells: tuple[tuple[int, ...], ...]
    column_totals: tuple[int, ...]

    def __post_init__(self) -> None:
        for row in self.cells:
            if any(c < 0 for c in row):
                raise ValidationError("cross-tab cells must be non-negative")
        for j, total in enumerate(self.column_totals):
            if total != sum(row[j] for row in self.cells):
                raise ValidationError(
                    f"column total for {self.col_categories[j]!r} does not match its cells"
                )

    def cell(self, row_category: str, col_category: str) -> int:
        return self.cells[self.row_categories.index(row_category)][
            self.col_categories.index(col_category)
        ]

    def column_percentage(self, row_category: str, col_category: str) -> float:
        total = self.column_totals[self.col_categories.index(col_category)]
        if total == 0:
            return 0.0
        return 100.0 * self.cell(row_category, col_category) / total


def cross_tabulate(rs: RecordSet, row_var: str, col_var: str) -> CrossTab:
    """Count records for every (row category, column category) pair."""
    dictionary = rs.dictionary
    row_cats = dictionary.variable(row_var).categories
    col_cats = dictionary.variable(col_var).categories
    row = rs.codes[dictionary.variable_index(row_var)].astype(np.intp)
    col = rs.codes[dictionary.variable_index(col_var)]
    cells = np.bincount(
        row * len(col_cats) + col, minlength=len(row_cats) * len(col_cats)
    ).reshape(len(row_cats), len(col_cats))
    return CrossTab(
        row_variable=row_var,
        col_variable=col_var,
        row_categories=row_cats,
        col_categories=col_cats,
        cells=tuple(map(tuple, cells.tolist())),
        column_totals=tuple(cells.sum(axis=0).tolist()),
    )
