"""Tests of the benchmark's own pieces; run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import oracle  # noqa: E402
import workloads  # noqa: E402
from spans import Span, attributed_share, self_time_by_name, self_times  # noqa: E402

REPO = HERE.parent.parent


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", ["rules-dense", "tall-mixed"])
def test_generator_is_byte_deterministic_per_seed(tmp_path, name):
    first = _files(workloads.generate(name, 7, tmp_path / "a", REPO).parent)
    again = _files(workloads.generate(name, 7, tmp_path / "b", REPO).parent)
    other = _files(workloads.generate(name, 8, tmp_path / "c", REPO).parent)
    assert first == again
    assert first["records.csv"] != other["records.csv"]
    assert first["records.csv"].count(b"\n") == workloads.WORKLOADS[name].rows + 1


def _tiny_workload(tmp_path: Path) -> oracle.Dataset:
    # a=x in rows 0-4, b=p in rows 1-6, both in rows 1-4: with n = 10,
    # {a=x} -> b=p has joint 4, support 40%, confidence 80%, lift 40/30.
    # Row 9 has c=drop and is removed by the filter step, so n is 10.
    rows = [("x", "p" if 1 <= r <= 6 else "q", "keep") for r in range(5)]
    rows += [("y", "p" if 1 <= r <= 6 else "q", "keep") for r in range(5, 10)]
    rows.append(("x", "p", "drop"))
    (tmp_path / "dictionary.json").write_text(json.dumps({"variables": [
        {"name": "a", "categories": ["x", "y"]},
        {"name": "b", "categories": ["p", "q"]},
        {"name": "c", "categories": ["keep", "drop"]},
    ]}))
    lines = ["id,a,b,c"] + [f"r{i},{a},{b},{c}" for i, (a, b, c) in enumerate(rows)]
    (tmp_path / "records.csv").write_text("\n".join(lines) + "\n")
    config = {
        "dictionary": "dictionary.json", "data": "records.csv", "record_id_column": "id",
        "features": ["a"],
        "filter_steps": [{"variable": "c", "keep": ["keep"]}],
        "cases": [{"name": "p", "consequent": "b=p", "min_support": 2,
                   "min_confidence": 0.5, "min_lift": 1.1}],
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    return oracle.Dataset(tmp_path / "config.json")


# {a=y} -> b=p has confidence 40%, below the minimum, so one rule passes.
META = {"resolved_min_support_count": 2, "rules_generated": 1, "rules_after_pruning": 1}


def _outputs(tmp_path: Path, rules: str, meta: dict = META) -> Path:
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    (out / "case_p_rules_full.csv").write_text(HEADER + rules)
    (out / "case_p_meta.json").write_text(json.dumps(meta))
    return out


HEADER = "id,antecedent_items,consequent,joint_count,support_pct,confidence_pct,lift\n"


@pytest.mark.parametrize(
    "row, problem",
    [
        ('R1,{a=x},b=p,4,40.000,80.000,1.33\n', None),
        ('R1,{a=x},b=p,5,40.000,80.000,1.33\n', "joint_count"),
        ('R1,{a=x},b=p,4,40.000,80.000,1.34\n', "lift"),
        ('R1,{a=x},b=p,4,40.000,66.667,1.33\n', "confidence_pct"),
        ('R1,{a=y},b=p,2,20.000,40.000,0.67\n', "minimum"),
        ('R1,{a=x},b=q,1,10.000,20.000,0.50\n', "not the case's"),
    ],
)
def test_recount_oracle_rejects_a_planted_wrong_rule(tmp_path, row, problem):
    data = _tiny_workload(tmp_path)
    assert data.n == 10 and data.rows_read == 11
    problems = oracle.check_outputs(_outputs(tmp_path, row), data)
    if problem is None:
        assert problems == []
    else:
        assert problems and any(problem in p for p in problems), problems


def test_oracle_requires_rules_and_ranking(tmp_path):
    data = _tiny_workload(tmp_path)
    problems = oracle.check_outputs(_outputs(tmp_path, ""), data)
    assert "case_p_rules_full.csv: no rules" in problems
    out = _outputs(tmp_path, 'R2,{a=x},b=p,4,40.000,80.000,1.33\n')
    assert any("expected id R1" in p for p in oracle.check_outputs(out, data))


@pytest.mark.parametrize("key", sorted(META))
def test_oracle_rejects_wrong_meta_counts(tmp_path, key):
    data = _tiny_workload(tmp_path)
    out = _outputs(tmp_path, 'R1,{a=x},b=p,4,40.000,80.000,1.33\n', {**META, key: META[key] + 1})
    problems = oracle.check_outputs(out, data)
    assert problems and all(key in p for p in problems), problems


def test_expected_rules_prunes_dominated_rules_and_ranks_by_lift(tmp_path):
    # b=p follows a=x (confidence 80%); adding d=u to the antecedent gives a
    # rule of lower confidence (and lift), which the prune removes.
    data = _tiny_workload(tmp_path)
    data._bits[("d", "u")] = 0b0000111111
    data._bits[("d", "v")] = 0b1111000000
    data.categories["d"] = ["u", "v"]
    case = {**data.config["cases"][0], "min_confidence": 0.5, "min_lift": 1.0}
    want = oracle.expected_rules(data, case, {"a", "b", "d"})
    # {a=x}: confidence 4/5, lift 1.33; {d=u}: 5/6, lift 1.39; {a=x, d=u}:
    # 4/5, dominated by both; {a=y}: 2/5, below the minimum; {d=v} with b=p
    # occurs once, below the support count 2.
    assert want.generated == 3
    assert want.kept == 2
    assert want.top == (
        (frozenset({("d", "u")}), ("b", "p")),
        (frozenset({("a", "x")}), ("b", "p")),
    )


def test_artifact_digest_ignores_only_created_at(tmp_path):
    manifest = {"created_at": "2026-01-01T00:00:00+00:00", "config_hash": "abc"}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    first = oracle.artifact_digest(tmp_path)
    manifest["created_at"] = "2027-01-01T00:00:00+00:00"
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert oracle.artifact_digest(tmp_path) == first
    manifest["config_hash"] = "abd"
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert oracle.artifact_digest(tmp_path) != first


def test_self_time_on_nested_and_overlapping_spans():
    spans = [
        Span(0, "root", None, 0.0, 10.0),
        Span(1, "a", 0, 1.0, 4.0),
        Span(2, "b", 0, 3.0, 6.0),  # overlaps a, as worker threads do
        Span(3, "leaf", 1, 2.0, 3.0),
        Span(4, "late", 0, 8.0, 12.0),  # runs past its parent's end
        Span(5, "b", None, 15.0, 16.0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)  # union [1,6] and [8,10]
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(4.0)
    by_name = self_time_by_name(spans)
    assert by_name["b"] == pytest.approx(4.0)
    assert sum(by_name.values()) == pytest.approx(sum(own.values()))



def test_attributed_share_rejects_an_unreported_gap():
    import tracer

    # The command span covers the whole run; its children cover 9 of its 10
    # seconds, but 1.5 s of them are a wrapped function no metric reports.
    spans = [
        Span(0, "cli.cmd_pipeline", None, 0.0, 10.0),
        Span(1, "schema.ingest", 0, 0.0, 3.0),
        Span(2, "rules.run_case", 0, 3.0, 9.0),
        Span(3, "apriori.mine_frequent", 2, 3.0, 7.5),
    ]
    share = attributed_share(spans, 0.0, 10.0, tracer.REPORTED.__contains__)
    assert share == pytest.approx(1.0 - (1.0 + 1.5) / 10.0)
    assert share < tracer.MIN_COVERAGE
    covered = spans[:2] + [Span(2, "apriori.mine_frequent", 0, 3.0, 9.9)]
    share = attributed_share(covered, 0.0, 10.0, tracer.REPORTED.__contains__)
    assert share == pytest.approx(0.99)
    # Time outside every top-level span counts against the share as well.
    assert attributed_share(covered, 0.0, 20.0, tracer.REPORTED.__contains__) < 0.5


def test_emitted_metric_names_match_benchmark_json():
    import run
    import tracer

    doc = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert list(workloads.WORKLOADS) == [w["name"] for w in doc["workloads"]]
    e2e = run.e2e_samples([run.Sample(0, 1.0, 1.0, 0)], 10, [0.1])
    assert set(e2e) == {m["name"] for m in doc["end_to_end"]}
    traced = {"metrics": tracer.layer_metrics(tracer.Tracer()), "bytes_written": 0,
              "coverage": 1.0, "overhead_s": 0.0}
    produced = run.layer_metrics(traced, run.Sample(0, 1.0, 1.0, 0))
    assert set(produced) == {m["name"] for m in doc["per_layer"]}
