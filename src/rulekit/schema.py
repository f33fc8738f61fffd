"""Data dictionary, validated record ingestion, filtering, and cross-tabulation.

The dictionary declares every categorical variable with its ordered category
list (coded scales such as lighting conditions or injury severity live here).
Records are validated against it at ingest time: each record carries exactly
one category per variable, and "unknown" is an ordinary category that is
never dropped silently. All types are immutable after construction.

A RecordSet stores its records in columnar form only: the record ids plus
one read-only category-code matrix that every later stage reads. Ingest, the
RecordSet constructor and filter steps turn category strings into codes
through one helper, and filtering slices the matrix. ``RecordSet.records``
is a view of per-row ``Record``s, built from the codes on first access.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import compress, repeat
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
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
            return int(_category_codes(var, [category])[0])
        except KeyError:
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


class UnknownPolicy(Enum):
    """How ingest treats values that are not in the dictionary."""

    REJECT = "reject"
    COERCE = "coerce"


def _category_codes(
    var: VariableSchema,
    cells: Sequence[str],
    dtype: np.dtype = np.dtype(np.intp),
    policy: UnknownPolicy | None = None,
) -> np.ndarray:
    """Map category strings to their indices in ``var``: the one place that does.

    Under an ingest ``policy`` a blank cell stands for "unknown" when ``var``
    declares it, and under COERCE so does any other string that is not a
    category. A string left without a code raises KeyError.
    """
    index = {cat: code for code, cat in enumerate(var.categories)}
    unknown = index.get("unknown")
    if policy is not None and unknown is not None:
        index[""] = unknown
        if policy is UnknownPolicy.COERCE:
            return np.fromiter(map(index.get, cells, repeat(unknown)), dtype, len(cells))
    return np.fromiter(map(index.__getitem__, cells), dtype, len(cells))


def _empty_codes(dictionary: DataDictionary, n_records: int) -> np.ndarray:
    width = max((len(var.categories) for var in dictionary.variables), default=1)
    return np.empty((len(dictionary.variables), n_records), np.min_scalar_type(width - 1))


@dataclass(frozen=True, init=False, eq=False)
class RecordSet:
    """Validated records plus the provenance of any filters applied to them.

    The stored form is columnar: ``record_ids`` and ``codes`` (read-only,
    shape (n_variables, n_records)), which holds in row j each record's
    category index in the j-th dictionary variable, in the smallest unsigned
    dtype that fits the widest variable (uint8 up to 256 categories).
    ``records`` is a view of them, built on first access.
    """

    dictionary: DataDictionary
    record_ids: tuple[str, ...]
    codes: np.ndarray = field(repr=False)
    filter_log: tuple[FilterLogEntry, ...] = ()

    def __init__(
        self,
        dictionary: DataDictionary,
        records: Iterable[Record],
        filter_log: tuple[FilterLogEntry, ...] = (),
    ) -> None:
        records = tuple(records)
        names = set(dictionary.names)
        seen_ids: set[str] = set()
        for rec in records:
            if rec.record_id in seen_ids:
                raise ValidationError(f"duplicate record_id {rec.record_id!r}")
            seen_ids.add(rec.record_id)
            if rec.values.keys() != names:
                raise ValidationError(
                    f"record {rec.record_id!r} does not assign exactly one category per variable "
                    f"(missing={sorted(names - rec.values.keys())}, "
                    f"extra={sorted(rec.values.keys() - names)})"
                )
        codes = _empty_codes(dictionary, len(records))
        try:
            for row, var in zip(codes, dictionary.variables):
                row[:] = _category_codes(var, [rec.values[var.name] for rec in records], row.dtype)
        except KeyError:
            var, rec = next(
                (var, rec)
                for var in dictionary.variables
                for rec in records
                if rec.values[var.name] not in var.categories
            )
            raise ValidationError(
                f"record {rec.record_id!r}: {rec.values[var.name]!r} is not a category "
                f"of {var.name!r}"
            ) from None
        prev_after = None
        for entry in filter_log:
            if entry.records_after > entry.records_before:
                raise ValidationError(
                    f"filter log entry {entry.description!r} increases the record count"
                )
            if prev_after is not None and entry.records_before > prev_after:
                raise ValidationError("filter log counts are not monotone non-increasing")
            prev_after = entry.records_after
        self._store(dictionary, tuple(rec.record_id for rec in records), codes, tuple(filter_log))

    @classmethod
    def _of_codes(
        cls,
        dictionary: DataDictionary,
        record_ids: tuple[str, ...],
        codes: np.ndarray,
        filter_log: tuple[FilterLogEntry, ...] = (),
    ) -> RecordSet:
        """A RecordSet over ids, codes and a filter log that rulekit built itself."""
        rs = cls.__new__(cls)
        rs._store(dictionary, record_ids, codes, filter_log)
        return rs

    def _store(
        self,
        dictionary: DataDictionary,
        record_ids: tuple[str, ...],
        codes: np.ndarray,
        filter_log: tuple[FilterLogEntry, ...],
    ) -> None:
        codes.setflags(write=False)
        object.__setattr__(self, "dictionary", dictionary)
        object.__setattr__(self, "record_ids", record_ids)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "filter_log", filter_log)

    def _category_columns(self) -> list[list[str]]:
        return [
            list(map(var.categories.__getitem__, row.tolist()))
            for var, row in zip(self.dictionary.variables, self.codes)
        ]

    @cached_property
    def records(self) -> tuple[Record, ...]:
        """The rows as ``Record``s whose ``values`` are read-only mappings."""
        names = self.dictionary.names
        return tuple(
            Record(rid, MappingProxyType(dict(zip(names, cells))))
            for rid, *cells in zip(self.record_ids, *self._category_columns())
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecordSet):
            return NotImplemented
        return (self.dictionary, self.record_ids, self.filter_log) == (
            other.dictionary,
            other.record_ids,
            other.filter_log,
        ) and np.array_equal(self.codes, other.codes)

    def __len__(self) -> int:
        return len(self.record_ids)


def _open_source(source: str | Path | IO[str]) -> tuple[IO[str], bool]:
    if isinstance(source, (str, Path)):
        return open(source, encoding="utf-8-sig", newline=""), True
    return source, False


def ingest(
    source: str | Path | IO[str],
    dictionary: DataDictionary,
    policy: UnknownPolicy = UnknownPolicy.REJECT,
    record_id_column: str = DEFAULT_RECORD_ID_COLUMN,
) -> RecordSet:
    """Read a delimited record stream and validate it against the dictionary.

    The stream is UTF-8 CSV (a byte-order mark is skipped) with a header row
    naming a superset of the dictionary variables plus a record-id column
    (header names and record_id_column are matched after normalization).
    Blank lines are skipped, cells are stripped, and a short row's missing
    cells are blank. Missing values become "unknown" when the variable
    declares that category, otherwise the row is rejected. Out-of-dictionary
    values are rejected under REJECT and coerced to "unknown" (when present)
    under COERCE. An error names the first bad row by its line number.
    """
    fh, owns = _open_source(source)
    try:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise IngestError("empty input: record stream has no header")
        position: dict[str, int] = {}
        for i, col in enumerate(header):
            norm = normalize_name(col)
            if norm in position:
                raise IngestError(f"duplicate column {norm!r} in header")
            position[norm] = i
        id_column = normalize_name(record_id_column)
        missing = [v for v in (*dictionary.names, id_column) if v not in position]
        if missing:
            raise IngestError(f"missing column(s): {', '.join(sorted(missing))}")

        # Errors name a row by its last line, which blank lines and quoted
        # newlines set apart from its index.
        rows: list[list[str]] = []
        lines: list[int] = []
        for row in reader:
            if row:
                rows.append(row)
                lines.append(reader.line_num)
    finally:
        if owns:
            fh.close()
    if not rows:
        raise IngestError("empty input: record stream has no data rows")
    if min(map(len, rows)) < len(header):
        rows = [row + [""] * (len(header) - len(row)) for row in rows]

    def column(name: str) -> list[str]:
        return list(map(str.strip, map(itemgetter(position[name]), rows)))

    record_ids = column(id_column)
    codes = _empty_codes(dictionary, len(rows))
    try:
        for row, var in zip(codes, dictionary.variables):
            row[:] = _category_codes(var, column(var.name), row.dtype, policy)
    except KeyError:
        accepted = False
    else:
        accepted = all(record_ids) and len(set(record_ids)) == len(record_ids)
    if not accepted:
        columns = [(var, position[var.name]) for var in dictionary.variables]
        raise _first_bad_row(rows, lines, position[id_column], columns, policy)
    return RecordSet._of_codes(dictionary, tuple(record_ids), codes)


def _first_bad_row(
    rows: Sequence[list[str]],
    lines: Sequence[int],
    id_column: int,
    columns: Sequence[tuple[VariableSchema, int]],
    policy: UnknownPolicy,
) -> IngestError:
    """The error for the first row, in row order, that ingest cannot accept."""
    coerce = policy is UnknownPolicy.COERCE
    seen_ids: set[str] = set()
    for row, line in zip(rows, lines):
        rid = row[id_column].strip()
        if not rid:
            return IngestError(f"row {line}: empty record id")
        if rid in seen_ids:
            return IngestError(f"row {line}: duplicate record_id {rid!r}")
        seen_ids.add(rid)
        for var, col in columns:
            val = row[col].strip()
            has_unknown = "unknown" in var.categories
            if not val and not has_unknown:
                return IngestError(
                    f"row {line}: missing value for {var.name!r} and the variable "
                    f"declares no 'unknown' category"
                )
            if val and val not in var.categories and not (coerce and has_unknown):
                return IngestError(f"row {line}: value {val!r} is not a category of {var.name!r}")
    raise AssertionError("ingest rejected rows that each encode")


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
        writer.writerows(zip(rs.record_ids, *rs._category_columns()))
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
    if not isinstance(doc, (list, tuple)):
        raise ValidationError(f"'filter_steps' must be an array of steps, got {doc!r}")
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
        var = rs.dictionary.variable(step.variable)
        try:
            kept_codes = _category_codes(var, sorted(step.keep))
        except KeyError as exc:
            raise ValidationError(
                f"filter step on {step.variable!r} names unknown category {exc.args[0]!r}"
            ) from None
        before = int(keep.sum())
        keep &= np.isin(rs.codes[rs.dictionary.variable_index(step.variable)], kept_codes)
        log.append(FilterLogEntry(step.describe(), before, int(keep.sum())))
    record_ids = tuple(compress(rs.record_ids, keep.tolist()))
    return RecordSet._of_codes(rs.dictionary, record_ids, rs.codes[:, keep], tuple(log))


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
