"""Dictionary, ingestion, filtering, and cross-tabulation behavior."""

import io
import json
import random

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
)
from rulekit.errors import DictionaryError, IngestError, ValidationError
from rulekit.schema import (
    DataDictionary,
    FilterStep,
    Record,
    RecordSet,
    UnknownPolicy,
    VariableSchema,
    cross_tabulate,
    filter_records,
    ingest,
    load_dictionary,
    load_filter_steps,
    normalize_name,
    write_records,
)
from rulekit.transactions import encode


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
        assert len(rs) == 2
        assert rs.records[0].record_id == "1"
        assert rs.records[1].values == {"weather": "rain", "road": "wet"}

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
        assert rs.records[0].values == {"weather": "clear", "road": "dry"}

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
        assert rs.records[0].values["weather"] == "unknown"

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
        assert rs.records[0].values["weather"] == "unknown"

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
        assert [r.record_id for r in rs.records] == ["1", "2"]
        with pytest.raises(IngestError, match=r"^row 5: value 'sleet'"):
            ingest(_csv(text.replace("rain", "sleet")), weather_dict)

    def test_short_row_cells_are_missing_values(self):
        d = make_dictionary({"road": ("dry", "wet"), "weather": ("clear", "unknown")})
        rs = ingest(_csv("crash_number,road,weather\n1,dry\n"), d)
        assert rs.records[0].values == {"road": "dry", "weather": "unknown"}
        with pytest.raises(IngestError, match=r"^row 2: missing value for 'road'"):
            ingest(_csv("crash_number,road,weather\n1\n"), d)

    def test_long_row_extra_cells_are_ignored(self, weather_dict):
        rs = ingest(_csv("crash_number,weather,road\n1,clear,dry,gravel,9\n"), weather_dict)
        assert rs.records[0].values == {"weather": "clear", "road": "dry"}

    def test_cells_are_stripped(self, weather_dict):
        rs = ingest(_csv("crash_number,weather,road\n 7 , rain ,\twet \n"), weather_dict)
        assert rs.records[0].record_id == "7"
        assert rs.records[0].values == {"weather": "rain", "road": "wet"}

    def test_empty_cell_under_coerce_becomes_unknown(self, weather_dict):
        rs = ingest(
            _csv("crash_number,weather,road\n1,,dry\n2,sleet,wet\n"),
            weather_dict,
            policy=UnknownPolicy.COERCE,
        )
        assert [r.values["weather"] for r in rs.records] == ["unknown", "unknown"]
        with pytest.raises(IngestError, match=r"^row 2: missing value for 'road'"):
            ingest(
                _csv("crash_number,weather,road\n1,clear,\n"),
                weather_dict,
                policy=UnknownPolicy.COERCE,
            )

    def test_row_number_is_the_line_number_past_quoted_newlines(self, weather_dict):
        header = "crash_number,weather,road,notes\n"
        rs = ingest(_csv(header + '1,clear,dry,"two\nlines"\n2,rain,wet,x\n'), weather_dict)
        assert [r.record_id for r in rs.records] == ["1", "2"]
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
        assert rs.records[0].record_id == "1"


def test_write_records_round_trip(tmp_path, weather_dict):
    rs = make_records(
        weather_dict,
        [
            {"weather": "clear", "road": "dry"},
            {"weather": "rain", "road": "wet"},
        ],
    )
    path = tmp_path / "out.csv"
    write_records(rs, path)
    back = ingest(path, weather_dict)
    assert [r.values for r in back.records] == [r.values for r in rs.records]
    assert [r.record_id for r in back.records] == [r.record_id for r in rs.records]


class TestRecordSetValidation:
    def test_duplicate_record_ids(self, weather_dict):
        rec = Record("1", {"weather": "clear", "road": "dry"})
        with pytest.raises(ValidationError, match="duplicate"):
            RecordSet(dictionary=weather_dict, records=(rec, rec))

    def test_value_coverage_enforced(self, weather_dict):
        with pytest.raises(ValidationError):
            RecordSet(
                dictionary=weather_dict,
                records=(Record("1", {"weather": "clear"}),),
            )

    def test_category_membership_enforced(self, weather_dict):
        with pytest.raises(ValidationError):
            RecordSet(
                dictionary=weather_dict,
                records=(Record("1", {"weather": "clear", "road": "gravel"}),),
            )

    def test_record_views_are_read_only(self, weather_dict):
        rs = make_records(weather_dict, [{"weather": "clear", "road": "dry"}])
        with pytest.raises(TypeError):
            rs.records[0].values["weather"] = "rain"
        assert rs.records[0].values["weather"] == "clear"
        assert rs.codes[0].tolist() == [0]

    def test_ingest_filter_encode_leave_the_record_views_unbuilt(self, weather_dict):
        rs = ingest(_csv("crash_number,weather,road\n1,clear,dry\n2,rain,wet\n"), weather_dict)
        out = filter_records(rs, (FilterStep("road", frozenset({"wet"})),))
        ts = encode(out, ("weather", "road"))
        assert ts.n_transactions == 1
        assert "records" not in vars(rs) and "records" not in vars(out)
        assert out.record_ids == ("2",)
        assert out.records[0].values == {"weather": "rain", "road": "wet"}


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
    assert [r.record_id for r in twice.records] == [r.record_id for r in once.records]


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
        assert [dict(rec.values) for rec in rs.records] == rows
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
        assert [rec.record_id for rec in out.records] == [f"r{i}" for i in kept]

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
        rng = random.Random(seed)
        rs = random_record_set(rng)
        victim = rng.randrange(len(rs))
        var = rng.choice(rs.dictionary.names)
        records = list(rs.records)
        bad = records[victim]
        records[victim] = Record(bad.record_id, {**bad.values, var: "undeclared"})
        with pytest.raises(ValidationError) as info:
            RecordSet(dictionary=rs.dictionary, records=tuple(records))
        message = str(info.value)
        assert repr(bad.record_id) in message
        assert "'undeclared'" in message
        assert repr(var) in message

    def test_dtype_widens_with_the_widest_variable(self):
        wide = [f"c{i}" for i in range(300)]
        d = make_dictionary({"narrow": ["a", "b"], "wide": wide})
        rs = make_records(d, [{"narrow": "b", "wide": "c299"}, {"narrow": "a", "wide": "c0"}])
        assert rs.codes.dtype == np.uint16
        assert rs.codes.tolist() == [[1, 0], [299, 0]]

    def test_codes_take_no_part_in_equality(self, weather_dict):
        rows = [{"weather": "clear", "road": "dry"}]
        assert make_records(weather_dict, rows) == make_records(weather_dict, rows)
