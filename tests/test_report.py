"""Artifact emitters (CSV, SVG, text tables) and the run manifest."""

import json
import re

import pytest

from generators import (
    make_dictionary,
    make_records,
    planted_rule_records,
    two_item_records,
)
from rulekit.apriori import SupportSpec
from rulekit.errors import ValidationError
from rulekit.forest import ImportanceEntry, ImportanceReport, export_importance_csv
from rulekit.report import (
    Artifact,
    ReportBundle,
    emit_crosstab,
    emit_importance_chart,
    emit_item_freq_chart,
    emit_rule_scatter,
    emit_rule_table,
)
from rulekit.rules import MiningCase, Rule, run_case
from rulekit.schema import cross_tabulate
from rulekit.transactions import encode, item_frequencies

_RECT = re.compile(
    r'<rect x="([0-9.]+)" y="([0-9.]+)" width="([0-9.]+)" height="([0-9.]+)" '
    r'fill="(#[0-9a-f]{6})"/>'
)
_CIRCLE = re.compile(r'<circle cx="[0-9.]+" cy="[0-9.]+" r="4" fill="(#[0-9a-f]{6})"/>')


def _bars(svg: str, fill: str) -> list[tuple[float, float]]:
    """(y, width) of every chart bar with the given fill, top to bottom."""
    out = [
        (float(m.group(2)), float(m.group(3)))
        for m in _RECT.finditer(svg)
        if m.group(5) == fill
    ]
    return sorted(out)


def test_artifact_kind_is_validated(tmp_path):
    Artifact("rule_table", tmp_path / "x.csv")
    with pytest.raises(ValidationError, match="artifact kind"):
        Artifact("histogram", tmp_path / "x.csv")


class TestRuleTable:
    def table_case(self):
        rs = two_item_records(7568, 385, 3851, 282)
        ts = encode(rs, ["driver_age", "lighting"])
        case = MiningCase(
            name="age_daylight",
            consequent=("lighting", "daylight"),
            min_support=SupportSpec.parse(0.01),
            min_confidence=0.5,
        )
        return run_case(ts, case)

    def test_csv_and_text_formats(self, tmp_path):
        result = self.table_case()
        arts = emit_rule_table(result, tmp_path / "rules.csv")
        assert [a.kind for a in arts] == ["rule_table", "rule_table"]
        lines = (tmp_path / "rules.csv").read_text().splitlines()
        assert lines[0] == "ID,antecedents,S (%),C (%),L"
        assert lines[1] == "R1,{driver_age=>64},3.726,73.25,1.44"
        assert len(lines) == 2

        text = (tmp_path / "rules.txt").read_text()
        assert text.splitlines()[0] == "case: age_daylight    consequent: lighting=daylight"
        assert "73.25" in text
        assert "R1" in text

    def test_rows_follow_rank_order(self, tmp_path):
        rs, _, y_item, _ = planted_rule_records()
        ts = encode(rs, ["weather", "road"])
        case = MiningCase(
            name="wet",
            consequent=y_item,
            min_support=SupportSpec.parse(0.01),
            min_confidence=0.05,
            min_lift=0.0,
        )
        result = run_case(ts, case)
        assert len(result.rules) >= 2
        emit_rule_table(result, tmp_path / "rules.csv")
        rows = (tmp_path / "rules.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == [r.id for r in result.rules]
        assert rows[0].startswith("R1,{weather=rain}")

    def test_empty_case_writes_header_only_table(self, tmp_path):
        rs = two_item_records(
            100, 20, 50, 10,
            var_x=("surface", "icy", "dry"),
            var_y=("severity", "fatal", "other"),
        )
        ts = encode(rs, ["surface", "severity"])
        case = MiningCase(
            name="nothing",
            consequent=("severity", "fatal"),
            min_support=SupportSpec.parse(0.01),
            min_confidence=0.95,
        )
        result = run_case(ts, case)
        assert result.rules == ()
        emit_rule_table(result, tmp_path / "rules.csv")
        assert (tmp_path / "rules.csv").read_text().splitlines() == [
            "ID,antecedents,S (%),C (%),L"
        ]
        assert (tmp_path / "rules.txt").read_text().splitlines() == [
            "case: nothing    consequent: severity=fatal",
            "",
            "ID  antecedents  S (%)  C (%)  L",
            "--  -----------  -----  -----  -",
        ]


class TestItemFreqChart:
    def freqs(self):
        rs, _, _, _ = planted_rule_records()
        return item_frequencies(encode(rs, ["weather", "road"]))

    def test_bar_widths_track_relative_frequency(self, tmp_path):
        freqs = self.freqs()
        arts = emit_item_freq_chart(freqs, tmp_path / "items.svg")
        assert [a.kind for a in arts] == ["item_freq", "item_freq"]
        svg = (tmp_path / "items.svg").read_text()
        bars = _bars(svg, "#4878a8")
        assert len(bars) == len(freqs)
        ordered = sorted(freqs, key=lambda e: (-e.relative_frequency, e.item_id))
        for (_, width), entry in zip(bars, ordered):
            assert width == pytest.approx(entry.relative_frequency * 480.0, abs=1.0)

    def test_ties_fall_back_to_item_id_order(self, tmp_path):
        d = make_dictionary({"a": ("x", "y"), "b": ("p", "q")})
        rows = [{"a": "x", "b": "p"}, {"a": "y", "b": "q"}]
        freqs = item_frequencies(encode(make_records(d, rows), ["a", "b"]))
        emit_item_freq_chart(freqs, tmp_path / "items.svg")
        svg = (tmp_path / "items.svg").read_text()
        labels = re.findall(r'text-anchor="end">([^<]+)</text>', svg)
        assert labels == ["a=x", "a=y", "b=p", "b=q"]

    def test_csv_round_trips_full_precision(self, tmp_path):
        freqs = self.freqs()
        emit_item_freq_chart(freqs, tmp_path / "items.svg")
        lines = (tmp_path / "items.csv").read_text().splitlines()
        assert lines[0] == "item,count,relative_frequency"
        ordered = sorted(freqs, key=lambda e: (-e.relative_frequency, e.item_id))
        for line, entry in zip(lines[1:], ordered):
            item, count, rf = line.split(",")
            assert item == f"{entry.variable}={entry.category}"
            assert int(count) == entry.count
            assert float(rf) == entry.relative_frequency

    def test_rerun_is_byte_identical(self, tmp_path):
        freqs = self.freqs()
        emit_item_freq_chart(freqs, tmp_path / "a.svg")
        emit_item_freq_chart(freqs, tmp_path / "b.svg")
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_requires_items(self, tmp_path):
        with pytest.raises(ValidationError):
            emit_item_freq_chart([], tmp_path / "items.svg")


class TestRuleScatter:
    @staticmethod
    def rule(i: int, support: float, confidence: float, lift: float) -> Rule:
        return Rule(
            id=f"R{i}", antecedent=(0,), consequent=1,
            joint_count=1, support=support, confidence=confidence, lift=lift,
        )

    def test_one_circle_per_rule(self, tmp_path):
        rules = [
            self.rule(i, 0.01 + 0.002 * i, (i + 1) / 60.0, 1.0 + i / 10.0)
            for i in range(50)
        ]
        emit_rule_scatter(rules, tmp_path / "scatter.svg")
        svg = (tmp_path / "scatter.svg").read_text()
        assert len(_CIRCLE.findall(svg)) == 50
        csv_lines = (tmp_path / "scatter.csv").read_text().splitlines()
        assert csv_lines[0] == "support,confidence,lift"
        assert len(csv_lines) == 51
        assert float(csv_lines[1].split(",")[0]) == rules[0].support

    def test_shade_spans_light_to_dark(self, tmp_path):
        rules = [
            self.rule(0, 0.1, 0.5, 1.0),
            self.rule(1, 0.2, 0.6, 2.0),
            self.rule(2, 0.3, 0.7, 3.0),
        ]
        emit_rule_scatter(rules, tmp_path / "scatter.svg")
        fills = _CIRCLE.findall((tmp_path / "scatter.svg").read_text())
        assert fills[0] == "#cccccc"  # lowest lift, lightest
        assert fills[-1] == "#222222"  # highest lift, darkest

    def test_single_rule_uses_midtone(self, tmp_path):
        emit_rule_scatter([self.rule(0, 0.1, 0.5, 1.7)], tmp_path / "scatter.svg")
        fills = _CIRCLE.findall((tmp_path / "scatter.svg").read_text())
        assert fills == ["#777777"]

    def test_requires_rules(self, tmp_path):
        with pytest.raises(ValidationError):
            emit_rule_scatter([], tmp_path / "scatter.svg")


class TestImportanceChart:
    def report(self) -> ImportanceReport:
        return ImportanceReport(
            entries=(
                ImportanceEntry("alpha", 0.4, 0.05),
                ImportanceEntry("beta", 0.1, 0.02),
                ImportanceEntry("gamma", 0.0, 0.0),
                ImportanceEntry("delta", -0.01, 0.01),
            ),
            oob_accuracy=0.9,
        )

    def test_bars_top_down_in_report_order(self, tmp_path):
        report = self.report()
        arts = emit_importance_chart(report, tmp_path / "imp.svg")
        assert [a.kind for a in arts] == ["importance", "importance"]
        svg = (tmp_path / "imp.svg").read_text()
        bars = _bars(svg, "#a85858")
        assert len(bars) == 4
        # bar lengths shrink with mda for the non-negative entries
        widths = [w for _, w in bars]
        assert widths[0] > widths[1] > widths[2]
        labels = re.findall(r'text-anchor="end">([^<]+)</text>', svg)
        assert labels == ["alpha", "beta", "gamma", "delta"]

    def test_companion_csv_matches_plain_export(self, tmp_path):
        report = self.report()
        emit_importance_chart(report, tmp_path / "imp.svg")
        export_importance_csv(report, tmp_path / "direct.csv")
        assert (tmp_path / "imp.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()

    def test_requires_entries(self, tmp_path):
        with pytest.raises(ValidationError):
            emit_importance_chart(
                ImportanceReport(entries=(), oob_accuracy=0.0), tmp_path / "imp.svg"
            )


class TestCrosstabArtifact:
    def test_counts_percentages_and_totals(self, tmp_path):
        d = make_dictionary({"sev": ("fatal", "other"), "light": ("day", "dark")})
        rows = (
            [{"sev": "fatal", "light": "day"}] * 1
            + [{"sev": "fatal", "light": "dark"}] * 3
            + [{"sev": "other", "light": "day"}] * 4
            + [{"sev": "other", "light": "dark"}] * 2
        )
        ct = cross_tabulate(make_records(d, rows), "sev", "light")
        (art,) = emit_crosstab(ct, tmp_path / "ct.csv")
        assert art.kind == "crosstab"
        lines = (tmp_path / "ct.csv").read_text().splitlines()
        assert lines[0] == "sev,day_count,day_pct,dark_count,dark_pct,row_total"
        assert lines[1] == "fatal,1,20.00,3,60.00,4"
        assert lines[2] == "other,4,80.00,2,40.00,6"
        assert lines[3] == "total,5,100.00,5,100.00,10"


class TestManifest:
    def test_paths_relative_to_manifest_dir(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "items.svg").write_text("x")
        elsewhere = tmp_path / "elsewhere.csv"
        elsewhere.write_text("y")
        bundle = ReportBundle(config_hash="c" * 64, dataset_hash="d" * 64)
        bundle.add(
            Artifact("item_freq", out / "items.svg"),
            Artifact("crosstab", elsewhere),
        )
        bundle.write_manifest(out / "manifest.json")
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["config_hash"] == "c" * 64
        assert doc["dataset_hash"] == "d" * 64
        assert doc["artifacts"][0] == {"kind": "item_freq", "path": "items.svg"}
        assert doc["artifacts"][1]["path"] == str(elsewhere.resolve())
        assert re.fullmatch(
            r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\+00:00", doc["created_at"]
        )

    def test_created_at_is_the_only_varying_field(self, tmp_path):
        bundle = ReportBundle(config_hash="c", dataset_hash="d")
        bundle.add(Artifact("rule_table", tmp_path / "r.csv"))
        bundle.write_manifest(tmp_path / "m1.json")
        bundle.write_manifest(tmp_path / "m2.json")
        a = json.loads((tmp_path / "m1.json").read_text())
        b = json.loads((tmp_path / "m2.json").read_text())
        a.pop("created_at")
        b.pop("created_at")
        assert a == b
