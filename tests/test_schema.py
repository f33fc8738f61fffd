"""Dictionary, ingestion, filtering, and cross-tabulation behavior."""

import csv
import io
import json
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import (
    make_dictionary,
    make_records,
    random_record_set,
    random_rows,
    reference_cross_tabulate,
    reference_encode,
    reference_ingest,
    rows_of,
)
from rulekit import schema
from rulekit.errors import DictionaryError, IngestError, ValidationError
from rulekit.schema import (
    DataDictionary,
    FilterStep,
    RecordSet,
    UnknownPolicy,
    VariableSchema,
    cross_tabulate,
    filter_records,
    ingest,
    load_dictionary,
    load_filter_steps,
    normalize_name,
)


def test_normalize_name_collapses_whitespace_and_case():
    assert normalize_name("  Crash  Number ") == "crash_number"
    assert normalize_name("Lighting") == "lighting"
    assert normalize_name("driver\tage") == "driver_age"


@given(st.text(min_size=1, max_size=30))
def test_normalize_name_idempotent(name):
    once = normalize_name(name)
    assert normalize_name(once) == once


class TestVariableSchema:
    def test_requires_two_categories(self):
        with pytest.raises(ValidationError):
            VariableSchema(name="weather", categories=("clear",))

    def test_rejects_duplicate_categories(self):
        with pytest.raises(ValidationError):
            VariableSchema(name="weather", categories=("clear", "clear"))

    def test_rejects_unnormalized_name(self):
        with pytest.raises(ValidationError):
            VariableSchema(name="Weather Now", categories=("a", "b"))

    def test_rejects_bad_role_hint(self):
        with pytest.raises(ValidationError):
            VariableSchema(name="weather", categories=("a", "b"), role_hint="target")

    @pytest.mark.parametrize("category", ["", " rain", "rain\t", " ", "\n"])
    def test_rejects_a_category_that_ingest_could_never_read(self, category):
        # ingest strips every cell, so no cell could ever match such a category
        with pytest.raises(DictionaryError, match="weather") as exc:
            VariableSchema(name="weather", categories=(category, "clear"))
        assert repr(category) in str(exc.value)


class TestDataDictionary:
    def test_duplicate_variable_names_rejected(self):
        v = VariableSchema(name="weather", categories=("a", "b"))
        with pytest.raises(ValidationError):
            DataDictionary(variables=(v, v))

    def test_lookup_and_order(self):
        d = make_dictionary({"b_var": ("x", "y"), "a_var": ("p", "q")})
        assert d.names == ("b_var", "a_var")  # declaration order, not sorted
        assert d.variable("a_var").categories == ("p", "q")
        assert d.variable_index("a_var") == 1
        assert d.category_index("b_var", "y") == 1
        assert "b_var" in d and "missing" not in d

    def test_unknown_variable_raises(self):
        d = make_dictionary({"a": ("x", "y")})
        with pytest.raises(ValidationError, match="unknown variable"):
            d.variable("b")


def test_load_dictionary_from_mapping_normalizes_names():
    d = load_dictionary(
        {
            "version": "v1",
            "variables": [
                {"name": "Driver Age", "categories": ["<25", "25-64", ">64"]},
            ],
        }
    )
    assert d.names == ("driver_age",)
    assert d.version == "v1"


def test_load_dictionary_from_file(tmp_path):
    path = tmp_path / "dict.json"
    path.write_text(
        json.dumps(
            {"variables": [{"name": "weather", "categories": ["clear", "rain"]}]}
        )
    )
    d = load_dictionary(path)
    assert d.variable("weather").categories == ("clear", "rain")


@pytest.mark.parametrize(
    "doc",
    [
        {"variables": "nope"},
        {"variables": [{"categories": ["a", "b"]}]},
        {"variables": [{"name": "x", "categories": "ab"}]},
        [],
    ],
)
def test_load_dictionary_malformed(doc):
    with pytest.raises(DictionaryError):
        load_dictionary(doc)


@pytest.fixture
def weather_dict():
    return make_dictionary(
        {"weather": ("clear", "rain", "unknown"), "road": ("dry", "wet")}
    )


def _csv(text):
    return io.StringIO(text)


class TestIngest:
    def test_happy_path_with_header_normalization(self, weather_dict):
        rs = ingest(
            _csv("Crash Number,WEATHER,Road\n1,clear,dry\n2,rain,wet\n"),
            weather_dict,
        )
        assert rows_of(rs) == [
            ("1", {"weather": "clear", "road": "dry"}),
            ("2", {"weather": "rain", "road": "wet"}),
        ]

    @pytest.mark.parametrize("id_column", ["Crash_Number", " Case  ID "])
    def test_record_id_column_is_matched_after_normalization(self, weather_dict, id_column):
        header = "crash_number" if id_column == "Crash_Number" else "CASE ID"
        rs = ingest(
            _csv(f"{header},weather,road\n7,clear,dry\n"),
            weather_dict,
            record_id_column=id_column,
        )
        assert rs.record_ids == ("7",)

    def test_extra_columns_ignored(self, weather_dict):
        rs = ingest(
            _csv("crash_number,weather,road,notes\n1,clear,dry,whatever\n"),
            weather_dict,
        )
        assert rows_of(rs) == [("1", {"weather": "clear", "road": "dry"})]

    def test_missing_column(self, weather_dict):
        with pytest.raises(IngestError, match="missing column"):
            ingest(_csv("crash_number,weather\n1,clear\n"), weather_dict)

    def test_no_header(self, weather_dict):
        with pytest.raises(IngestError, match="no header"):
            ingest(_csv(""), weather_dict)

    def test_no_data_rows(self, weather_dict):
        with pytest.raises(IngestError, match="no data rows"):
            ingest(_csv("crash_number,weather,road\n"), weather_dict)

    def test_duplicate_id_names_row(self, weather_dict):
        with pytest.raises(IngestError, match="row 3.*duplicate"):
            ingest(
                _csv("crash_number,weather,road\n1,clear,dry\n1,rain,wet\n"),
                weather_dict,
            )

    def test_empty_id(self, weather_dict):
        with pytest.raises(IngestError, match="empty record id"):
            ingest(_csv("crash_number,weather,road\n ,clear,dry\n"), weather_dict)

    def test_unknown_value_rejected_with_row_number(self, weather_dict):
        with pytest.raises(IngestError, match="row 2.*'sleet'.*'weather'"):
            ingest(_csv("crash_number,weather,road\n1,sleet,dry\n"), weather_dict)

    def test_unknown_value_coerced(self, weather_dict):
        rs = ingest(
            _csv("crash_number,weather,road\n1,sleet,dry\n"),
            weather_dict,
            policy=UnknownPolicy.COERCE,
        )
        assert rows_of(rs) == [("1", {"weather": "unknown", "road": "dry"})]

    def test_coerce_without_unknown_category_still_rejects(self, weather_dict):
        # road declares no wildcard category, so coercion has nowhere to go
        with pytest.raises(IngestError, match="'road'"):
            ingest(
                _csv("crash_number,weather,road\n1,clear,gravel\n"),
                weather_dict,
                policy=UnknownPolicy.COERCE,
            )

    def test_missing_value_becomes_unknown_when_declared(self, weather_dict):
        rs = ingest(_csv("crash_number,weather,road\n1,,dry\n"), weather_dict)
        assert rows_of(rs) == [("1", {"weather": "unknown", "road": "dry"})]

    def test_missing_value_without_unknown_category(self, weather_dict):
        with pytest.raises(IngestError, match="road"):
            ingest(_csv("crash_number,weather,road\n1,clear,\n"), weather_dict)

    def test_duplicate_normalized_header(self, weather_dict):
        with pytest.raises(IngestError, match="duplicate column"):
            ingest(
                _csv("crash_number,Weather,weather,road\n1,clear,rain,dry\n"),
                weather_dict,
            )

    def test_blank_lines_are_skipped_but_counted(self, weather_dict):
        text = "crash_number,weather,road\n\n1,clear,dry\n\n2,rain,wet\n\n"
        rs = ingest(_csv(text), weather_dict)
        assert rs.record_ids == ("1", "2")
        with pytest.raises(IngestError, match=r"^row 5: value 'sleet'"):
            ingest(_csv(text.replace("rain", "sleet")), weather_dict)

    def test_short_row_cells_are_missing_values(self):
        d = make_dictionary({"road": ("dry", "wet"), "weather": ("clear", "unknown")})
        rs = ingest(_csv("crash_number,road,weather\n1,dry\n"), d)
        assert rows_of(rs) == [("1", {"road": "dry", "weather": "unknown"})]
        with pytest.raises(IngestError, match=r"^row 2: missing value for 'road'"):
            ingest(_csv("crash_number,road,weather\n1\n"), d)

    def test_long_row_extra_cells_are_ignored(self, weather_dict):
        rs = ingest(_csv("crash_number,weather,road\n1,clear,dry,gravel,9\n"), weather_dict)
        assert rows_of(rs) == [("1", {"weather": "clear", "road": "dry"})]

    def test_cells_are_stripped(self, weather_dict):
        rs = ingest(_csv("crash_number,weather,road\n 7 , rain ,\twet \n"), weather_dict)
        assert rows_of(rs) == [("7", {"weather": "rain", "road": "wet"})]

    def test_empty_cell_under_coerce_becomes_unknown(self, weather_dict):
        rs = ingest(
            _csv("crash_number,weather,road\n1,,dry\n2,sleet,wet\n"),
            weather_dict,
            policy=UnknownPolicy.COERCE,
        )
        assert [values["weather"] for _, values in rows_of(rs)] == ["unknown", "unknown"]
        with pytest.raises(IngestError, match=r"^row 2: missing value for 'road'"):
            ingest(
                _csv("crash_number,weather,road\n1,clear,\n"),
                weather_dict,
                policy=UnknownPolicy.COERCE,
            )

    def test_row_number_is_the_line_number_past_quoted_newlines(self, weather_dict):
        header = "crash_number,weather,road,notes\n"
        rs = ingest(_csv(header + '1,clear,dry,"two\nlines"\n2,rain,wet,x\n'), weather_dict)
        assert rs.record_ids == ("1", "2")
        with pytest.raises(IngestError, match=r"^row 4: value 'sleet'"):
            ingest(_csv(header + '1,clear,dry,"two\nlines"\n2,sleet,wet,x\n'), weather_dict)
        with pytest.raises(IngestError, match=r"^row 3: value 'sleet'"):
            ingest(_csv(header + '1,sleet,dry,"two\nlines"\n'), weather_dict)

    @pytest.mark.parametrize(
        "rows,message",
        [
            ("1,clear,gravel\n2,sleet,dry\n", "row 2: value 'gravel' is not a category of 'road'"),
            ("1,clear,gravel\n1,clear,dry\n", "row 2: value 'gravel'"),
            ("1,clear,dry\n1,sleet,dry\n", "row 3: duplicate record_id '1'"),
            ("1,clear,dry\n,sleet,dry\n", "row 3: empty record id"),
            ("1,clear,dry\n2,sleet,\n", "row 3: value 'sleet'"),
            ("1,clear,dry\n2,clear,\n3,sleet,dry\n", "row 3: missing value for 'road'"),
        ],
    )
    def test_first_bad_row_is_reported_not_first_bad_column(self, weather_dict, rows, message):
        with pytest.raises(IngestError) as info:
            ingest(_csv("crash_number,weather,road\n" + rows), weather_dict)
        assert str(info.value).startswith(message)

    def test_utf8_bom_before_header_is_ignored(self, tmp_path, weather_dict):
        path = tmp_path / "bom.csv"
        path.write_bytes("crash_number,weather,road\n1,clear,dry\n".encode("utf-8-sig"))
        rs = ingest(path, weather_dict)
        assert rows_of(rs) == [("1", {"weather": "clear", "road": "dry"})]

    def test_unparsable_record_names_its_row(self, weather_dict):
        huge = '"' + "x" * 200_000 + '"'
        header = "crash_number,weather,road,notes\n"
        text = header + f"1,clear,dry,x\n\n2,rain,wet,{huge}\n3,rain,wet,x\n"
        with pytest.raises(IngestError, match=r"^row 4: field larger than field limit"):
            ingest(_csv(text), weather_dict)
        with pytest.raises(IngestError, match=r"^row 1: field larger than field limit"):
            ingest(_csv(f"crash_number,weather,road,{huge}\n1,clear,dry,x\n"), weather_dict)
        # a bad row before the unparsable record is the first bad row
        with pytest.raises(IngestError, match=r"^row 2: value 'sleet'"):
            ingest(_csv(header + f"1,sleet,dry,x\n2,rain,wet,{huge}\n"), weather_dict)

    @pytest.mark.parametrize(
        "line,bad",
        [(1, b"road\xff"), (2, b"1,clear,dry\xc3"), (2501, b"2500,cl\xffear,dry"),
         (3001, b"3000,clear,\xe2\x82")],
    )
    @pytest.mark.parametrize("bad_row_first", [False, True])
    def test_invalid_utf8_names_its_line(self, tmp_path, weather_dict, line, bad, bad_row_first):
        # The decoder runs ahead of the parser, so its offset names no row; the
        # line is counted from the raw bytes, and a bad row before it does not win.
        lines = [b"crash_number,weather,road"]
        lines += [f"{i},{'sleet' if bad_row_first and i == 1 else 'clear'},dry".encode()
                  for i in range(1, 3001)]
        lines[line - 1] = bad
        path = tmp_path / "records.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(IngestError, match=rf"^row {line}: not valid UTF-8$"):
            ingest(path, weather_dict)

    @pytest.mark.parametrize("newline", [b"\r", b"\r\n"])
    def test_invalid_utf8_line_counts_every_line_break(self, tmp_path, weather_dict, newline):
        # the same count as a bad row's: a lone CR ends a line too
        path = tmp_path / "records.csv"
        path.write_bytes(newline.join([b"crash_number,weather,road", b"1,sleet,dry",
                                       b"2,clear,dry", b"3,cl\xffear,dry", b""]))
        with pytest.raises(IngestError, match=r"^row 4: not valid UTF-8$"):
            ingest(path, weather_dict)
        path.write_bytes(path.read_bytes().replace(b"\xff", b""))
        with pytest.raises(IngestError, match=r"^row 2: value 'sleet'"):
            ingest(path, weather_dict)

    @pytest.mark.parametrize(
        "categories,text,want",
        [
            # a short row, then a long row with as many more cells
            (("a", "b"), "crash_number,v,notes\n1,a\n2,b,b,a\n", [("1", "a"), ("2", "b")]),
            (("a", "b"), 'crash_number,v\n"1",a\n', [("1", "a")]),
            # a lone CR ends a line
            (("a", "b"), "crash_number,v,notes\n1,a,x\ry\n",
             "row 3: missing value for 'v' and the variable declares no 'unknown' category"),
            # zero bytes pad a category's 8-byte words: only its length tells "x" from "x\0"
            (("x\0", "y"), "crash_number,v\n1,x\n", "row 2: value 'x' is not a category of 'v'"),
        ],
    )
    def test_a_file_reads_as_the_csv_reader_reads_it(self, tmp_path, categories, text, want):
        path = tmp_path / "records.csv"
        path.write_text(text)
        d = make_dictionary({"v": categories})
        if isinstance(want, str):
            with pytest.raises(IngestError, match=f"^{want}$"):
                ingest(path, d)
        else:
            assert [(rid, row["v"]) for rid, row in rows_of(ingest(path, d))] == want

    def test_non_ascii_categories_still_read(self, tmp_path):
        d = make_dictionary({"weather": ("clear", "grésil")})
        path = tmp_path / "records.csv"
        path.write_bytes("crash_number,weather\n1,grésil\n2,clear\n".encode())
        rs = ingest(path, d)
        assert rows_of(rs) == [("1", {"weather": "grésil"}), ("2", {"weather": "clear"})]


def _random_csv(rng: random.Random, chunk: int):
    """A random CSV for ``ingest``: its text, dictionary and policy.

    About half the files are clean enough for the byte-level kernel: no
    quoted, blank, short or long rows. The others hold blank lines (a tail
    of them too), quoted newlines, short and long rows. Any file may have
    padded cells, header names that normalize, LF, CRLF or lone-CR line
    ends, no final line end, a NUL or CR in a cell, or a line of only
    whitespace. Categories may be non-ASCII, longer than 8 bytes, a prefix
    of another or alike in their first 8 bytes. Files are about
    k * chunk + {-1, 0, 1} records long. Up to two bad rows are
    planted, often beside a chunk boundary: an unknown value (which may
    differ from a category only in its last character), a missing value, an
    empty or duplicate id (its twin often in the chunk before), or a cell
    over the CSV field limit of 40 characters.
    """
    spec = {}
    for i in range(rng.randint(1, 3)):
        cats = [f"c{i}_{j}" for j in range(rng.randint(2, 4))]
        if rng.random() < 0.5:
            longer = ["grésil", "ñandú_muy_largo", "exactly8", "sixteen_bytes_ab",
                      "sixteen_bytes_ac", "dark_with_streetlight", "dark_with_streetlight_on",
                      f"c{i}_0_and_more"]
            cats += rng.sample(longer, rng.randint(1, len(longer)))
        spec[f"v{i}"] = cats + ["unknown"] * (rng.random() < 0.5)
    dictionary = make_dictionary(spec)
    columns = ["crash_number", *spec, "notes"]
    rng.shuffle(columns)
    clean = rng.random() < 0.5
    notes = ("", "x") if clean else ("", "x", "two\nlines", "a,b")
    # cells a short row may leave off: missing there is a clean "unknown"
    optional = {"notes"} | {name for name, cats in spec.items() if "unknown" in cats}
    if rng.random() < 0.9:
        n = chunk * rng.randint(1, 3) + rng.randint(-1, 1)
    else:
        n = rng.randint(0, 1)
    rows = []
    for i in range(n):
        cells = {"crash_number": f"r{i}", "notes": rng.choice(notes)}
        cells.update((name, rng.choice(cats)) for name, cats in spec.items())
        row = [cells[c] for c in columns]
        if rng.random() < 0.1:
            k = rng.randrange(len(row))
            row[k] = rng.choice((" ", "\t", "  ")) + row[k] + rng.choice(("", " ", "\t"))
        if not clean and rng.random() < 0.1:
            keep = len(row)
            while keep > 1 and columns[keep - 1] in optional:
                keep -= 1
            row = row[: rng.randint(keep, len(row))]
        elif not clean and rng.random() < 0.1:
            row += ["extra"] * rng.randint(1, 2)
        rows.append(row)

    edges = [b + d for b in range(chunk, n + 1, chunk) for d in (-1, 0, 1) if 0 <= b + d < n]
    for _ in range(rng.choice((0, 0, 1, 2)) if rows else 0):
        at = rng.choice(edges) if edges and rng.random() < 0.7 else rng.randrange(n)
        row = rows[at] + [""] * (len(columns) - len(rows[at]))
        kind = rng.choice(("value", "missing", "empty id", "duplicate id", "unparsable"))
        if kind == "value":
            name = rng.choice(list(spec))
            near = rng.choice(spec[name])[:-1] + "~"  # a category's length and all but its end
            row[columns.index(name)] = rng.choice(("sleet", near))
        elif kind == "missing":
            row[columns.index(rng.choice(list(spec)))] = " "
        elif kind == "empty id":
            row[columns.index("crash_number")] = ""
        elif kind == "duplicate id" and at > 0:
            twin = rng.choice([max(0, at - chunk), at - 1, rng.randrange(at)])
            row[columns.index("crash_number")] = f" r{twin}"
        elif kind == "unparsable":
            row[columns.index("notes")] = "y" * 41
        rows[at] = row
    if rows and rng.random() < 0.1:
        at = rng.randrange(n)
        rows[at][rng.randrange(len(rows[at]))] += rng.choice(("\0", "\rx"))
    if rng.random() < 0.05:
        rows.insert(rng.randint(0, n), [rng.choice((" ", "\t", " \t "))])

    end = rng.choice(("\r\n", "\r\n", "\n", "\n", "\r"))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=end)
    writer.writerow([rng.choice((c, c.upper(), f" {c} ")) for c in columns])
    for row in rows:
        writer.writerows([[]] * (not clean and rng.random() < 0.05))
        writer.writerow(row)
    writer.writerows([[]] * (0 if clean else rng.choice((0, 0, 1, 3))))
    text = out.getvalue()
    if rng.random() < 0.2:
        text = text.removesuffix(end)
    policy = rng.choice((UnknownPolicy.REJECT, UnknownPolicy.COERCE))
    return text, dictionary, policy


def _ingest_outcome(ingest_fn, source, dictionary, policy):
    try:
        return ingest_fn(source, dictionary, policy)
    except IngestError as exc:
        return f"IngestError: {exc}"


def _assert_same_outcome(got, want):
    assert got == want
    if isinstance(want, RecordSet):
        assert got.codes.dtype == want.codes.dtype
        assert got.codes.flags.c_contiguous and not got.codes.flags.writeable


def _refuse(*args, **kwargs):
    raise AssertionError("the reader loop ran")


def _write_tall_csv(path, n, categories, end, id_column="crash_number"):
    """``n`` rows of 12 variables over ``categories`` and a yes/no outcome."""
    rng = random.Random(7)
    names = [f"v{i:02d}" for i in range(1, 13)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator=end)
        writer.writerow([id_column, *names, "outcome"])
        for r in range(n):
            cells = (rng.choice(categories) for _ in names)
            writer.writerow([f"R{r + 1:06d}", *cells, rng.choice(("yes", "no"))])
    return make_dictionary({**dict.fromkeys(names, categories), "outcome": ("yes", "no")})


class TestStreamingIngest:
    @pytest.mark.parametrize("chunk", [1, 2, 3, schema._CHUNK_RECORDS])
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_the_whole_file_reference(self, chunk, seed, tmp_path_factory):
        # a path takes the byte-level kernel first, at any block size; a stream never does
        rng = random.Random(seed)
        text, dictionary, policy = _random_csv(rng, chunk)
        path = tmp_path_factory.mktemp("ingest") / "records.csv"
        path.write_bytes(text.encode("utf-8-sig" if rng.random() < 0.3 else "utf-8"))
        limit = csv.field_size_limit(40)
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(schema, "_CHUNK_RECORDS", chunk)
                got = _ingest_outcome(ingest, io.StringIO(text), dictionary, policy)
                want = _ingest_outcome(reference_ingest, io.StringIO(text), dictionary, policy)
                _assert_same_outcome(got, want)
                want = _ingest_outcome(reference_ingest, path, dictionary, policy)
                for block in (1, 7, 64, schema._BLOCK_CHARS):
                    mp.setattr(schema, "_BLOCK_CHARS", block)
                    _assert_same_outcome(_ingest_outcome(ingest, path, dictionary, policy), want)
        finally:
            csv.field_size_limit(limit)

    def test_clean_files_take_the_byte_kernel(self, tmp_path, monkeypatch):
        sample = Path(__file__).resolve().parent.parent / "sample"
        tall = tmp_path / "tall.csv"
        tall_dictionary = _write_tall_csv(tall, 20_000, [f"c{j}" for j in range(6)], "\n", "rid")
        files = [
            (sample / "crashes.csv", load_dictionary(sample / "dictionary.json"), "crash_number"),
            (tall, tall_dictionary, "rid"),
        ]
        assert b"\r\n" in files[0][0].read_bytes()
        want = [schema._ingest_rows(path, d, UnknownPolicy.REJECT, id_column)
                for path, d, id_column in files]
        monkeypatch.setattr(schema, "_ingest_rows", _refuse)
        for (path, d, id_column), rs in zip(files, want):
            _assert_same_outcome(ingest(path, d, record_id_column=id_column), rs)

    def test_peak_memory_is_one_chunk_plus_the_result(self, tmp_path):
        n = 20_000
        dictionary = make_dictionary(
            {f"v{i:02d}": tuple(f"c{j}" for j in range(6)) for i in range(13)}
        )
        rng = random.Random(7)
        path = tmp_path / "tall.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["crash_number", *dictionary.names])
            for r in range(n):
                writer.writerow([f"R{r + 1:06d}", *(f"c{rng.randrange(6)}" for _ in range(13))])
        tracemalloc.start()
        try:
            rs = ingest(path, dictionary)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rs) == n
        assert peak / n < 300, f"{peak / n:.0f} B/row"

    def test_peak_memory_of_a_crlf_file_with_20_byte_categories(self, tmp_path, monkeypatch):
        n = 20_000
        path = tmp_path / "tall.csv"
        categories = [f"category_{j}".ljust(20, "x") for j in range(6)]
        dictionary = _write_tall_csv(path, n, categories, "\r\n")
        monkeypatch.setattr(schema, "_ingest_rows", _refuse)
        tracemalloc.start()
        try:
            rs = ingest(path, dictionary)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rs) == n
        assert peak / n < 300, f"{peak / n:.0f} B/row"


class TestRecordSetValidation:
    def test_value_coverage_enforced(self, weather_dict):
        # one row of codes per dictionary variable, one column per record id
        for shape in [(1, 1), (2, 2), (3, 1), (2,)]:
            with pytest.raises(ValidationError, match=r"shape \(2, 1\)"):
                RecordSet(weather_dict, ("1",), np.zeros(shape, np.uint8))
        with pytest.raises(ValidationError, match="integers"):
            RecordSet(weather_dict, ("1",), np.zeros((2, 1), np.float64))

    def test_category_membership_enforced(self, weather_dict):
        # weather has 3 categories and road 2: codes lie in [0, 3) and [0, 2)
        for bad, message in [
            ([[0], [2]], "code 2 is not a category index of 'road', which has 2 categories"),
            ([[3], [0]], "code 3 is not a category index of 'weather'"),
            ([[-1], [0]], "code -1 is not a category index of 'weather'"),
        ]:
            with pytest.raises(ValidationError, match=message):
                RecordSet(weather_dict, ("1",), np.array(bad, np.int64))

    def test_codes_are_stored_narrow_and_read_only(self, weather_dict):
        given = np.array([[2, 0, 1], [1, 1, 0]], np.int64)
        rs = RecordSet(weather_dict, ("a", "b", "c"), given)
        assert rs.codes.dtype == np.uint8
        assert not rs.codes.flags.writeable
        assert rs.codes.tolist() == given.tolist()
        assert given.flags.writeable  # the caller's array was copied, not frozen
        assert rows_of(rs) == [
            ("a", {"weather": "unknown", "road": "wet"}),
            ("b", {"weather": "clear", "road": "wet"}),
            ("c", {"weather": "rain", "road": "dry"}),
        ]
        # codes already in the stored dtype are kept, not copied
        assert RecordSet(weather_dict, rs.record_ids, rs.codes).codes is rs.codes



class TestFilter:
    def test_filter_applies_in_order_and_logs(self, weather_dict):
        rs = make_records(
            weather_dict,
            [
                {"weather": "clear", "road": "dry"},
                {"weather": "rain", "road": "wet"},
                {"weather": "rain", "road": "dry"},
                {"weather": "unknown", "road": "dry"},
            ],
        )
        steps = load_filter_steps(
            [
                {"variable": "weather", "keep": ["rain", "clear"]},
                {"variable": "road", "keep": ["dry"]},
            ]
        )
        out = filter_records(rs, steps)
        assert len(out) == 2
        assert [e.records_before for e in out.filter_log] == [4, 3]
        assert [e.records_after for e in out.filter_log] == [3, 2]
        assert "weather in {clear, rain}" == out.filter_log[0].description
        assert len(rs) == 4  # original untouched

    def test_unknown_variable_rejected_before_any_filtering(self, weather_dict):
        rs = make_records(weather_dict, [{"weather": "clear", "road": "dry"}])
        steps = (
            FilterStep("road", frozenset({"dry"})),
            FilterStep("slope", frozenset({"steep"})),
        )
        with pytest.raises(ValidationError, match="slope"):
            filter_records(rs, steps)

    def test_unknown_keep_category_rejected(self, weather_dict):
        rs = make_records(weather_dict, [{"weather": "clear", "road": "dry"}])
        with pytest.raises(ValidationError, match="gravel"):
            filter_records(rs, (FilterStep("road", frozenset({"gravel"})),))

    @pytest.mark.parametrize("keep", ["dark", 5, ["dark", 5], None])
    def test_keep_must_be_an_array_of_strings(self, keep):
        with pytest.raises(ValidationError, match="'keep' must be an array of strings"):
            load_filter_steps([{"variable": "lighting", "keep": keep}])

    def test_steps_are_a_parsed_array_not_a_path(self, tmp_path):
        path = tmp_path / "filters.json"
        path.write_text("{not json")
        for doc in (str(path), path, {"variable": "lighting"}, None):
            with pytest.raises(ValidationError, match="must be an array of steps"):
                load_filter_steps(doc)

    def test_filter_to_empty_is_allowed(self, weather_dict):
        rs = make_records(weather_dict, [{"weather": "clear", "road": "dry"}])
        out = filter_records(rs, (FilterStep("road", frozenset({"wet"})),))
        assert len(out) == 0
        assert out.filter_log[-1].records_after == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_filter_never_grows_and_is_idempotent(seed):
    import random

    rs = random_record_set(random.Random(seed))
    var = rs.dictionary.names[0]
    keep = frozenset(rs.dictionary.variable(var).categories[:1])
    step = FilterStep(var, keep)
    once = filter_records(rs, (step,))
    twice = filter_records(once, (step,))
    assert len(once) <= len(rs)
    assert twice.record_ids == once.record_ids


class TestCrossTab:
    def test_counts_totals_and_percentages(self, weather_dict):
        rs = make_records(
            weather_dict,
            [
                {"weather": "clear", "road": "dry"},
                {"weather": "clear", "road": "wet"},
                {"weather": "rain", "road": "wet"},
                {"weather": "rain", "road": "wet"},
            ],
        )
        ct = cross_tabulate(rs, "weather", "road")
        assert ct.cell("clear", "dry") == 1
        assert ct.cell("rain", "wet") == 2
        assert ct.column_totals == (1, 3)
        assert ct.column_percentage("rain", "wet") == pytest.approx(100 * 2 / 3)
        assert ct.column_percentage("rain", "dry") == 0.0

    def test_unknown_variables_rejected(self, weather_dict):
        rs = make_records(weather_dict, [{"weather": "clear", "road": "dry"}])
        with pytest.raises(ValidationError):
            cross_tabulate(rs, "weather", "nope")

    def test_same_variable_both_axes(self, weather_dict):
        rs = make_records(weather_dict, [{"weather": "clear", "road": "dry"}])
        ct = cross_tabulate(rs, "weather", "weather")
        assert ct.cell("clear", "clear") == 1


class TestCodes:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_codes_match_reference_and_feed_filter_and_crosstab(self, seed):
        rng = random.Random(seed)
        dictionary, rows = random_rows(rng)
        rs = make_records(dictionary, rows)
        names = dictionary.names
        assert np.array_equal(rs.codes, reference_encode(dictionary, rows, names).T)
        assert [values for _, values in rows_of(rs)] == rows
        assert rs.codes.dtype == np.uint8
        assert not rs.codes.flags.writeable
        with pytest.raises(ValueError):
            rs.codes[0, 0] = 1

        var = rng.choice(names)
        cats = rs.dictionary.variable(var).categories
        keep = frozenset(rng.sample(cats, rng.randint(0, len(cats))))
        out = filter_records(rs, (FilterStep(var, keep),))
        kept = [i for i, row in enumerate(rows) if row[var] in keep]
        assert out.codes.shape == (len(names), len(kept))
        assert np.array_equal(out.codes, reference_encode(dictionary, rows, names)[kept].T)
        assert out.record_ids == tuple(f"r{i}" for i in kept)

        row_var, col_var = rng.choice(names), rng.choice(names)
        assert cross_tabulate(rs, row_var, col_var) == reference_cross_tabulate(
            rs, row_var, col_var
        )
        assert cross_tabulate(out, row_var, col_var) == reference_cross_tabulate(
            out, row_var, col_var
        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_undeclared_category_is_named(self, seed):
        # a code past its variable's categories stands for no declared category
        rng = random.Random(seed)
        rs = random_record_set(rng)
        codes = rs.codes.astype(np.int64)
        j = rng.randrange(len(rs.dictionary.names))
        var = rs.dictionary.variables[j]
        codes[j, rng.randrange(len(rs))] = rng.choice((len(var.categories), 255, -1))
        with pytest.raises(ValidationError) as info:
            RecordSet(rs.dictionary, rs.record_ids, codes)
        message = str(info.value)
        assert repr(var.name) in message
        assert f"has {len(var.categories)} categories" in message

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_make_records_matches_ingest_of_the_same_rows(self, seed):
        # the tests' builder and the production path build the same RecordSet
        dictionary, rows = random_rows(random.Random(seed))
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(["crash_number", *dictionary.names])
        writer.writerows([f"r{i}", *map(row.get, dictionary.names)] for i, row in enumerate(rows))
        built = make_records(dictionary, rows)
        read = ingest(io.StringIO(text.getvalue()), dictionary)
        assert read == built
        assert read.record_ids == built.record_ids
        assert np.array_equal(read.codes, built.codes)
        assert read.codes.dtype == built.codes.dtype

    def test_dtype_widens_with_the_widest_variable(self):
        wide = [f"c{i}" for i in range(300)]
        d = make_dictionary({"narrow": ["a", "b"], "wide": wide})
        rs = make_records(d, [{"narrow": "b", "wide": "c299"}, {"narrow": "a", "wide": "c0"}])
        assert rs.codes.dtype == np.uint16
        assert rs.codes.tolist() == [[1, 0], [299, 0]]

    def test_codes_take_no_part_in_equality(self, weather_dict):
        rows = [{"weather": "clear", "road": "dry"}]
        assert make_records(weather_dict, rows) == make_records(weather_dict, rows)
