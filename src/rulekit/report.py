"""Artifact rendering: rule tables, frequency and importance charts, scatter.

Charts are written as self-contained SVG 1.1 documents assembled by hand so
the output is dependency-free and diffable; every SVG gets a companion CSV
carrying the plotted values at full precision (the SVG labels round for
display, the CSV does not). Rule tables are CSV plus an aligned plain-text
rendering. Every emitter returns the paths it wrote. All writes are atomic,
and emitting the same inputs twice produces byte-identical files; timestamps
live only in the bundle manifest, which lists each file a run wrote with its
sha256.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .errors import ValidationError
from .forest import ImportanceReport, export_importance_csv
from .io_utils import atomic_write_text, write_csv, write_json
from .rules import CaseResult, Rule
from .schema import CrossTab
from .transactions import ItemFrequency


@dataclass
class ReportBundle:
    """Collects the paths a run writes, in order, and writes the manifest JSON."""

    config_hash: str
    dataset_hash: str
    paths: list[Path] = field(default_factory=list)

    def add(self, *paths: Path) -> None:
        self.paths.extend(paths)

    def write_manifest(self, sink: str | Path) -> Path:
        """Each added path once, relative to the manifest's directory when it
        lies inside it, with the sha256 of the file as it is now."""
        sink = Path(sink)
        base = sink.resolve().parent
        listed = []
        for path in dict.fromkeys(p.resolve() for p in self.paths):
            try:
                shown = str(path.relative_to(base))
            except ValueError:
                shown = str(path)
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            listed.append({"path": shown, "sha256": digest})
        payload = {
            "created_at": _dt.datetime.now(_dt.timezone.utc).isoformat(
                timespec="seconds"
            ),
            "config_hash": self.config_hash,
            "dataset_hash": self.dataset_hash,
            "artifacts": listed,
        }
        return write_json(sink, payload)


# ---------------------------------------------------------------------------
# SVG plumbing

_FONT = 'font-family="monospace" font-size="12"'
_CHAR_W = 7.5  # monospace width estimate at 12px, for label margins


def _svg_document(width: int, height: int, body: Sequence[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _escape(s: str) -> str:
    """s as XML character data: &, < and > as entities, & first."""
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _text(x: float, y: float, s: str, anchor: str = "start") -> str:
    return (
        f'<text x="{x:.1f}" y="{y:.1f}" {_FONT} '
        f'text-anchor="{anchor}">{_escape(s)}</text>'
    )


def _rect(x: float, y: float, w: float, h: float, fill: str) -> str:
    return (
        f'<rect x="{x:.1f}" y="{y:.1f}" width="{w:.1f}" height="{h:.1f}" '
        f'fill="{fill}"/>'
    )


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str = "#999999") -> str:
    return (
        f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
        f'stroke="{stroke}" stroke-width="1"/>'
    )


def _hbar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    value_labels: Sequence[str],
    title: str,
    x_min: float,
    x_max: float,
    x_ticks: Sequence[tuple[float, str]],
    fill: str,
) -> str:
    """Horizontal bar chart, first row at the top."""
    n = len(labels)
    label_w = max(len(s) for s in labels) * _CHAR_W
    left = int(label_w) + 20
    plot_w, bar_h, gap = 480, 16, 6
    top, bottom, right = 28, 30, 70
    height = top + n * (bar_h + gap) + bottom
    width = left + plot_w + right
    span = x_max - x_min or 1.0

    def x(v: float) -> float:
        return left + (v - x_min) / span * plot_w

    body = [_text(left, 18, title)]
    axis_y = top + n * (bar_h + gap) + 4
    for tick, tick_label in x_ticks:
        tx = x(tick)
        body.append(_line(tx, top, tx, axis_y, "#dddddd"))
        body.append(_text(tx, axis_y + 14, tick_label, anchor="middle"))
    if x_min < 0.0 < x_max:
        body.append(_line(x(0.0), top, x(0.0), axis_y, "#999999"))
    for i, (label, value, vlabel) in enumerate(zip(labels, values, value_labels)):
        y = top + i * (bar_h + gap)
        x0, x1 = x(min(value, 0.0)), x(max(value, 0.0))
        body.append(_rect(x0, y, max(x1 - x0, 0.5), bar_h, fill))
        body.append(_text(left - 6, y + bar_h - 4, label, anchor="end"))
        body.append(_text(x1 + 4, y + bar_h - 4, vlabel))
    body.append(_line(left, axis_y, left + plot_w, axis_y))
    return _svg_document(width, height, body)


# ---------------------------------------------------------------------------
# Emitters


def emit_rule_table(result: CaseResult, sink: str | Path) -> tuple[Path, ...]:
    """Ranked rules as CSV plus an aligned text table (same basename, .txt).

    Columns are ID, antecedents, S (%), C (%), L with support at three
    decimals and confidence and lift at two. A case with no rules gets the
    header-only table.
    """
    sink = Path(sink)
    header = ["ID", "antecedents", "S (%)", "C (%)", "L"]
    rows = [
        [
            rule.id,
            rule.antecedent_label(result.universe),
            f"{100.0 * rule.support:.3f}",
            f"{100.0 * rule.confidence:.2f}",
            f"{rule.lift:.2f}",
        ]
        for rule in result.rules
    ]
    csv_path = write_csv(sink, header, rows)

    title = f"case: {result.case.name}"
    if result.case.consequent is not None:
        var, cat = result.case.consequent
        title += f"    consequent: {var}={cat}"
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(header[i])
        for i in range(len(header))
    ]
    aligns = ["<", "<", ">", ">", ">"]
    lines = [title, ""]
    lines.append("  ".join(f"{h:{a}{w}}" for h, a, w in zip(header, aligns, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(f"{c:{a}{w}}" for c, a, w in zip(row, aligns, widths)))
    txt_path = atomic_write_text(sink.with_suffix(".txt"), "\n".join(lines) + "\n")
    return (csv_path, txt_path)


def emit_item_freq_chart(freqs: Sequence[ItemFrequency], sink: str | Path) -> tuple[Path, ...]:
    """Horizontal relative-frequency bars, descending, axis fixed to 0..1."""
    if not freqs:
        raise ValidationError("item frequency chart needs at least one item")
    ordered = sorted(freqs, key=lambda e: (-e.relative_frequency, e.item_id))
    labels = [f"{e.variable}={e.category}" for e in ordered]
    values = [e.relative_frequency for e in ordered]
    svg = _hbar_chart(
        labels,
        values,
        [f"{v:.3f}" for v in values],
        "relative item frequency",
        0.0,
        1.0,
        [(t, f"{t:.2f}") for t in (0.0, 0.25, 0.5, 0.75, 1.0)],
        "#4878a8",
    )
    sink = Path(sink)
    svg_path = atomic_write_text(sink, svg)
    csv_path = write_csv(
        sink.with_suffix(".csv"),
        ["item", "count", "relative_frequency"],
        [[lab, e.count, repr(e.relative_frequency)] for lab, e in zip(labels, ordered)],
    )
    return (svg_path, csv_path)


def emit_rule_scatter(rules: Sequence[Rule], sink: str | Path) -> tuple[Path, ...]:
    """Support/confidence scatter with point shade darkening as lift grows."""
    if not rules:
        raise ValidationError("rule scatter needs at least one rule")
    lifts = [r.lift for r in rules]
    lo, hi = min(lifts), max(lifts)
    x_max = max(r.support for r in rules) * 1.05 or 1.0
    left, right, top, bottom = 64, 24, 28, 52
    plot_w, plot_h = 440, 320
    width, height = left + plot_w + right, top + plot_h + bottom

    def x(s: float) -> float:
        return left + s / x_max * plot_w

    def y(c: float) -> float:
        return top + (1.0 - c) * plot_h

    def shade(lift: float) -> str:
        t = 0.5 if hi == lo else (lift - lo) / (hi - lo)
        level = int(round(204 - t * (204 - 34)))  # light gray to near black
        return f"#{level:02x}{level:02x}{level:02x}"

    body = [_text(left, 18, "rules: support vs confidence, shade = lift")]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        ty = y(tick)
        body.append(_line(left, ty, left + plot_w, ty, "#dddddd"))
        body.append(_text(left - 8, ty + 4, f"{tick:.2f}", anchor="end"))
    for frac in (0.0, 0.5, 1.0):
        tick = x_max * frac
        tx = x(tick)
        body.append(_line(tx, top, tx, top + plot_h, "#dddddd"))
        body.append(_text(tx, top + plot_h + 16, f"{tick:.4g}", anchor="middle"))
    body.append(_line(left, top + plot_h, left + plot_w, top + plot_h))
    body.append(_line(left, top, left, top + plot_h))
    for rule in rules:
        body.append(
            f'<circle cx="{x(rule.support):.1f}" cy="{y(rule.confidence):.1f}" '
            f'r="4" fill="{shade(rule.lift)}"/>'
        )
    body.append(
        _text(left, height - 10, f"lift {lo:.2f} (light) to {hi:.2f} (dark)")
    )
    sink = Path(sink)
    svg_path = atomic_write_text(sink, _svg_document(width, height, body))
    csv_path = write_csv(
        sink.with_suffix(".csv"),
        ["support", "confidence", "lift"],
        [[repr(r.support), repr(r.confidence), repr(r.lift)] for r in rules],
    )
    return (svg_path, csv_path)


def emit_importance_chart(report: ImportanceReport, sink: str | Path) -> tuple[Path, ...]:
    """Horizontal mda bars, most important at the top; companion CSV."""
    if not report.entries:
        raise ValidationError("importance chart needs at least one variable")
    labels = [e.variable for e in report.entries]
    values = [e.mda for e in report.entries]
    x_min = min(0.0, min(values))
    x_max = max(values) if max(values) > 0 else 0.0
    pad = (x_max - x_min) * 0.05 or 0.01
    ticks = [x_min, (x_min + x_max) / 2.0, x_max]
    svg = _hbar_chart(
        labels,
        values,
        [f"{v:.4f}" for v in values],
        "variable importance (mean decrease accuracy)",
        x_min - pad if x_min < 0 else x_min,
        x_max + pad,
        [(t, f"{t:.3f}") for t in ticks],
        "#a85858",
    )
    sink = Path(sink)
    svg_path = atomic_write_text(sink, svg)
    csv_path = export_importance_csv(report, sink.with_suffix(".csv"))
    return (svg_path, csv_path)


def emit_crosstab(ct: CrossTab, sink: str | Path) -> tuple[Path, ...]:
    """Counts and column percentages per cell, plus a column-total row."""
    header = [ct.row_variable]
    for col in ct.col_categories:
        header.extend([f"{col}_count", f"{col}_pct"])
    header.append("row_total")
    rows = []
    for i, row_cat in enumerate(ct.row_categories):
        row: list[object] = [row_cat]
        for j, col_cat in enumerate(ct.col_categories):
            count = ct.cells[i][j]
            row.append(count)
            row.append(f"{ct.column_percentage(row_cat, col_cat):.2f}")
        row.append(sum(ct.cells[i]))
        rows.append(row)
    total_row: list[object] = ["total"]
    for total in ct.column_totals:
        total_row.extend([total, "100.00" if total else "0.00"])
    total_row.append(sum(ct.column_totals))
    rows.append(total_row)
    return (write_csv(sink, header, rows),)
