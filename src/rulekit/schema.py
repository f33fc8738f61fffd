"""Data dictionary, validated record ingestion, filtering, and cross-tabulation.

The dictionary declares every categorical variable with its ordered category
list (coded scales such as lighting conditions or injury severity live here).
Records are validated against it at ingest time: each record carries exactly
one category per variable, and "unknown" is an ordinary category that is
never dropped silently. Ingest strips every cell, so a category with
surrounding whitespace is refused. All types are immutable after
construction.

A RecordSet stores its records in columnar form only: the record ids plus
one read-only category-code matrix that every later stage reads, and its
one constructor takes exactly those. Ingest reads its source once, the
header with ``csv.reader``. A file path's lines after it go to a
byte-level kernel, a block of whole lines at a time: it finds every comma
and newline with numpy and codes each cell that is byte for byte a category
by comparing 8-byte words. At the first block that ``csv.reader`` might
read otherwise (a quote, a NUL, a lone CR, a line with another cell count
than the header's, a field over the size limit) or that holds a bad row,
the reader loop over ``csv.reader``, which reads every other stream from
its first row, reads on from that block and names the first bad row.
Either way ingest holds one block or chunk at a time, besides the ids and
codes. Every cell that is not verbatim a category, and every filter step,
goes through one helper, ``_category_codes``, which alone decides which
strings a variable accepts; filtering slices the matrix.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, compress, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterator, Mapping, Sequence

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
            if not cat or cat != cat.strip():  # ingest strips cells, so none could match
                raise DictionaryError(
                    f"variable {self.name!r} has category {cat!r}, which is empty or "
                    f"has surrounding whitespace"
                )
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
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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


def _codes_dtype(dictionary: DataDictionary) -> np.dtype:
    """The smallest unsigned dtype that holds a category index of every variable."""
    width = max((len(var.categories) for var in dictionary.variables), default=1)
    return np.min_scalar_type(width - 1)


@dataclass(frozen=True, eq=False)
class RecordSet:
    """Records plus the provenance of any filters applied to them.

    The stored form is columnar: ``record_ids`` and ``codes`` (read-only,
    shape (n_variables, n_records)), which holds in row j each record's
    category index in the j-th dictionary variable, in the smallest unsigned
    dtype that fits the widest variable (uint8 up to 256 categories).
    The constructor checks the codes; record ids are checked where they are
    read, by ingest.
    """

    dictionary: DataDictionary
    record_ids: tuple[str, ...]
    codes: np.ndarray = field(repr=False)
    filter_log: tuple[FilterLogEntry, ...] = ()

    def __post_init__(self) -> None:
        variables = self.dictionary.variables
        shape = (len(variables), len(self.record_ids))
        if self.codes.shape != shape or not np.issubdtype(self.codes.dtype, np.integer):
            raise ValidationError(
                f"codes must be integers of shape {shape} (variables, records), "
                f"got {self.codes.dtype} of shape {self.codes.shape}"
            )
        for var, row in zip(variables, self.codes):
            low, high = int(row.min(initial=0)), int(row.max(initial=0))
            if low < 0 or high >= len(var.categories):
                raise ValidationError(
                    f"code {low if low < 0 else high} is not a category index of "
                    f"{var.name!r}, which has {len(var.categories)} categories"
                )
        codes = self.codes.astype(_codes_dtype(self.dictionary), copy=False)
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)

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


#: Records that the reader loop reads, checks and encodes at a time.
_CHUNK_RECORDS = 1024

#: Characters of text that the byte-level kernel reads at a time.
_BLOCK_CHARS = 1 << 16

#: ``_WORD_MASK[k]`` keeps the first k bytes of an 8-byte word in memory order.
_WORD_MASK = np.frombuffer(b"".join(b"\xff" * k + bytes(8 - k) for k in range(9)), np.uint64)


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
    under COERCE. An error names the first bad row (or unparsable record) by
    its line number; in a file that is not valid UTF-8, the first line that
    is not wins over any bad row.

    The source is read once, and its header by ``csv.reader``. After the
    header, a path is read in blocks of whole lines, which a byte-level
    kernel codes with numpy, up to the first block that it cannot code: one
    that ``csv.reader`` might read differently from plain commas and
    newlines, or that holds a bad row. From that block on, and for any other
    stream from its first row, a reader loop over ``csv.reader`` reads on,
    1,024 rows at a time, and is the only source of row errors. Either way
    ingest holds one block or chunk at a time, besides the ids and codes,
    and ``_category_codes`` decides every cell that is not verbatim one of
    its variable's categories.
    """
    fh, owns = _open_source(source)
    skipped = 0  # lines read before the reader's first
    try:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise IngestError("empty input: record stream has no header")
        id_index, columns = _columns(header, dictionary, record_id_column)
        dtype = _codes_dtype(dictionary)
        record_ids: list[str] = []  # of the blocks and chunks accepted so far
        seen_ids: set[str] = set()
        blocks: list[np.ndarray] = []
        if owns:
            tables = [_category_words(var) for var, _ in columns]
            texts = _whole_lines(fh)
            for text in texts:
                coded = _code_lines(text, len(header), id_index, columns, tables, dtype, policy)
                if coded is not None:
                    seen_ids.update(coded[0])
                    if len(seen_ids) == len(record_ids) + len(coded[0]):
                        record_ids += coded[0]
                        blocks.append(coded[1])
                        continue
                    seen_ids = set(record_ids)  # an id repeats
                texts = chain([text], texts)
                break
            # each line the kernel coded is one record: it codes no blank line
            skipped = reader.line_num + len(record_ids)
            reader = csv.reader(chain.from_iterable(io.StringIO(t, newline="") for t in texts))

        def column(rows: list[list[str]], index: int) -> list[str]:
            return list(map(str.strip, map(itemgetter(index), rows)))

        records = filter(None, reader)  # blank lines are skipped
        while True:
            # Errors name a row by its last line; blank lines and quoted newlines skew its index.
            rows, lines, malformed = [], [], None
            try:
                for row in islice(records, _CHUNK_RECORDS):
                    rows.append(row)
                    lines.append(skipped + reader.line_num)
            except csv.Error as exc:
                malformed = exc  # raised after any bad row before it
            if min(map(len, rows), default=len(header)) < len(header):
                rows = [row + [""] * (len(header) - len(row)) for row in rows]
            ids = column(rows, id_index)
            block = np.empty((len(columns), len(rows)), dtype)
            try:
                for codes, (var, index) in zip(block, columns):
                    codes[:] = _category_codes(var, column(rows, index), codes.dtype, policy)
            except KeyError:
                accepted = False
            else:
                seen_ids.update(ids)
                accepted = all(ids) and len(seen_ids) == len(record_ids) + len(ids)
            if not accepted:
                raise _first_bad_row(rows, lines, id_index, columns, policy, set(record_ids))
            record_ids += ids
            blocks.append(block)
            if malformed is not None:
                raise malformed
            if len(rows) < _CHUNK_RECORDS:
                break
    except (csv.Error, IngestError, UnicodeDecodeError) as exc:
        # The decoder reads ahead of the parser, so invalid UTF-8 anywhere in the file wins.
        if owns and (line := _undecodable_line(source)):
            raise IngestError(f"row {line}: not valid UTF-8") from None
        if isinstance(exc, csv.Error):
            raise IngestError(f"row {skipped + reader.line_num}: {exc}") from None
        raise
    finally:
        if owns:
            fh.close()
    if not record_ids:
        raise IngestError("empty input: record stream has no data rows")
    return RecordSet(dictionary, tuple(record_ids), np.concatenate(blocks, axis=1))


def _columns(
    header: Sequence[str], dictionary: DataDictionary, record_id_column: str
) -> tuple[int, list[tuple[VariableSchema, int]]]:
    """The index of the record-id column, and each variable with its column's."""
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
    return position[id_column], [(var, position[var.name]) for var in dictionary.variables]


def _whole_lines(fh: IO[str]) -> Iterator[str]:
    """The rest of ``fh`` in blocks of whole lines, read ``_BLOCK_CHARS`` at a time.

    A block ends at its read's last LF or else at a lone CR, never inside a
    CRLF, so the blocks split into the lines that ``fh`` does. The file's
    last line ends the last block as it is, with or without a line end.
    """
    parts: list[str] = []
    while text := fh.read(_BLOCK_CHARS):
        # a CR that ends the read may be the first half of a CRLF
        cut = text.rfind("\n") + 1 or text.rfind("\r", 0, -1) + 1
        if cut:
            yield "".join((*parts, text[:cut]))
            parts = []
        parts.append(text[cut:])
    if tail := "".join(parts):
        yield tail


def _category_words(var: VariableSchema) -> tuple[np.ndarray, ...]:
    """``var``'s categories as UTF-8 in zero-padded 8-byte words.

    Returns the sorted first words, the category of each, and every
    category's byte length and words.
    """
    encoded = [cat.encode() for cat in var.categories]
    width = -(-max(map(len, encoded)) // 8)
    words = np.frombuffer(
        b"".join(cat.ljust(8 * width, b"\0") for cat in encoded), np.uint64
    ).reshape(len(encoded), width)
    order = np.argsort(words[:, 0], kind="stable")
    return words[order, 0], order, np.array(list(map(len, encoded))), words


def _code_lines(
    text: str,
    n_cells: int,
    id_index: int,
    columns: Sequence[tuple[VariableSchema, int]],
    tables: Sequence[tuple[np.ndarray, ...]],
    dtype: np.dtype,
    policy: UnknownPolicy,
) -> tuple[list[str], np.ndarray] | None:
    """The record ids and codes of ``text``, whole lines of records.

    It codes only lines that ``csv.reader`` provably splits at every comma
    and line end: None when ``text`` holds a ``"``, a NUL or a CR outside a
    CRLF, or a line of other than ``n_cells`` cells or a field over
    ``csv.field_size_limit()`` bytes. It is None too when an id is empty or
    a cell is refused.
    """
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    data = text.encode()
    if not data.endswith(b"\n"):
        data += b"\n"  # the file's last line
    lines = data.count(b"\n")
    if data.count(b",") != lines * (n_cells - 1):
        return None
    buf = np.frombuffer(data + bytes(8), np.uint8)  # every cell starts an 8-byte word
    # bounds[k] and bounds[k + 1] enclose cell k: the separators, after a -1
    bounds = np.empty(lines * n_cells + 1, np.intp)
    bounds[0] = -1
    bounds[1:] = np.flatnonzero((buf == 44) | (buf == 10))
    if not (buf[bounds[n_cells::n_cells]] == 10).all():
        return None
    starts = bounds[:-1].reshape(lines, n_cells) + 1
    ends = bounds[1:].reshape(lines, n_cells)
    sizes = ends - starts
    if sizes.max() > csv.field_size_limit():
        return None
    ids = list(map(str.strip, _cell_texts(buf, starts[:, id_index], ends[:, id_index])))
    if not all(ids):
        return None
    words = np.ndarray((len(buf) - 7,), np.uint64, buf, strides=(1,))
    codes = np.empty((len(columns), lines), dtype)
    for row, (var, index), table in zip(codes, columns, tables):
        code = _verbatim_codes(words, starts[:, index], sizes[:, index], table)
        miss = np.flatnonzero(code < 0)
        if miss.size:
            cells = _cell_texts(buf, starts[miss, index], ends[miss, index])
            try:
                code[miss] = _category_codes(var, list(map(str.strip, cells)), policy=policy)
            except KeyError:
                return None
        row[:] = code
    return ids, codes


def _verbatim_codes(
    words: np.ndarray, starts: np.ndarray, sizes: np.ndarray, table: tuple[np.ndarray, ...]
) -> np.ndarray:
    """Each cell's category index where its bytes are exactly a category, else -1.

    ``words[i]`` is the 8-byte word at byte i. A cell's first word finds one
    candidate by ``searchsorted``; its length and every later word must then
    match the candidate's. A cell whose first word more than one category
    shares may miss; ``_category_codes`` still codes it.
    """
    keys, order, cat_sizes, cat_words = table
    first = words[starts] & _WORD_MASK[np.minimum(sizes, 8)]
    at = np.searchsorted(keys, first)
    np.minimum(at, len(keys) - 1, out=at)
    code = order[at]
    match = (keys[at] == first) & (cat_sizes[code] == sizes)
    for w in range(1, cat_words.shape[1]):
        rest = np.flatnonzero(match & (sizes > 8 * w))
        if not rest.size:
            break
        word = words[starts[rest] + 8 * w] & _WORD_MASK[np.minimum(sizes[rest] - 8 * w, 8)]
        match[rest] = word == cat_words[code[rest], w]
    code[~match] = -1
    return code


def _cell_texts(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> list[str]:
    """The text of each cell ``buf[starts[i]:ends[i]]``, decoded in one call."""
    sizes = ends - starts + 1  # with the separator after it, made a newline
    stops = np.cumsum(sizes)
    picked = buf[np.arange(stops[-1]) + np.repeat(starts - (stops - sizes), sizes)]
    picked[stops - 1] = 10
    return picked.tobytes().decode().split("\n")[:-1]


def _undecodable_line(path: str | Path) -> int | None:
    """The number of the first line of ``path`` that is not valid UTF-8.

    UTF-8 never puts a CR or LF byte inside a multi-byte sequence, so each line
    decodes on its own. Latin-1 maps each byte to one character, so text mode
    breaks lines where ingest's reader does, at a lone CR too.
    """
    with open(path, encoding="latin-1") as fh:
        for number, line in enumerate(fh, 1):
            try:
                line.encode("latin-1").decode("utf-8")
            except UnicodeDecodeError:
                return number
    return None


def _first_bad_row(
    rows: Sequence[list[str]],
    lines: Sequence[int],
    id_column: int,
    columns: Sequence[tuple[VariableSchema, int]],
    policy: UnknownPolicy,
    seen_ids: set[str],
) -> IngestError:
    """The error for the first row that ingest cannot accept, after ``seen_ids``."""
    for row, line in zip(rows, lines):
        rid = row[id_column].strip()
        if not rid:
            return IngestError(f"row {line}: empty record id")
        if rid in seen_ids:
            return IngestError(f"row {line}: duplicate record_id {rid!r}")
        seen_ids.add(rid)
        for var, col in columns:
            val = row[col].strip()
            try:
                _category_codes(var, [val], policy=policy)
            except KeyError:
                if val:
                    return IngestError(
                        f"row {line}: value {val!r} is not a category of {var.name!r}"
                    )
                return IngestError(
                    f"row {line}: missing value for {var.name!r} and the variable "
                    f"declares no 'unknown' category"
                )
    raise AssertionError("ingest rejected rows that each encode")


@dataclass(frozen=True)
class FilterStep:
    """Keep records whose value for ``variable`` lies in ``keep``."""

    variable: str
    keep: frozenset[str]

    def describe(self) -> str:
        return f"{self.variable} in {{{', '.join(sorted(self.keep))}}}"


def load_filter_steps(doc: object) -> tuple[FilterStep, ...]:
    """Filter steps from a parsed JSON array ``[{variable, keep: [...]}]``."""
    if not isinstance(doc, (list, tuple)):
        raise ValidationError(f"'filter_steps' must be an array of steps, got {doc!r}")
    steps = []
    for entry in doc:
        if not isinstance(entry, Mapping) or "variable" not in entry or "keep" not in entry:
            raise ValidationError(f"filter step {entry!r} must have 'variable' and 'keep'")
        keep = entry["keep"]
        if not isinstance(keep, (list, tuple)) or not all(isinstance(c, str) for c in keep):
            raise ValidationError(f"filter step {entry!r}: 'keep' must be an array of strings")
        if not isinstance(entry["variable"], str):
            raise ValidationError(f"filter step {entry!r}: 'variable' must be a string")
        steps.append(FilterStep(variable=entry["variable"], keep=frozenset(keep)))
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
    return RecordSet(rs.dictionary, record_ids, rs.codes[:, keep], tuple(log))


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
