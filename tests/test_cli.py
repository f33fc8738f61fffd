"""End-to-end command line runs against small generated datasets."""

import csv
import json

import pytest

from rulekit.cli import main

DICTIONARY = {
    "version": "test-1",
    "variables": [
        {"name": "lighting", "categories": ["daylight", "dark"]},
        {"name": "severity", "categories": ["fatal", "other"]},
        {"name": "weather", "categories": ["rain", "clear"]},
        {"name": "road", "categories": ["wet", "dry"]},
    ],
}


def _rows(n: int = 40) -> list[dict[str, str]]:
    rows = []
    for i in range(n):
        severity = "fatal" if i % 4 == 0 else "other"
        weather = "rain" if i % 5 == 0 else "clear"
        rows.append({
            "lighting": "dark" if severity == "fatal" else "daylight",
            "severity": severity,
            "weather": weather,
            "road": "wet" if weather == "rain" or i % 10 == 3 else "dry",
        })
    return rows


BASE_CONFIG = {
    "dictionary": "dictionary.json",
    "data": "data.csv",
    "response": "lighting",
    "top_k_features": 3,
    "forest": {"n_trees": 25, "min_node_size": 2},
    "cases": [
        {
            "name": "wet roads",
            "consequent": "road=wet",
            "min_support": 0.05,
            "min_confidence": 0.5,
        }
    ],
    "seed": 3,
    "output_dir": "out",
}


def write_workspace(root, config=None, rows=None):
    (root / "dictionary.json").write_text(json.dumps(DICTIONARY))
    rows = rows if rows is not None else _rows()
    fields = ["crash_number"] + [v["name"] for v in DICTIONARY["variables"]]
    with open(root / "data.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for i, row in enumerate(rows):
            writer.writerow({"crash_number": f"C{i:05d}", **row})
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config if config is not None else BASE_CONFIG))
    return cfg_path


class TestDescribe:
    def test_writes_summary_and_crosstabs(self, tmp_path, capsys):
        cfg = write_workspace(tmp_path)
        assert main(["describe", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["record_count"] == 40
        assert summary["value_counts"]["severity"]["fatal"] == 10
        assert summary["filter_log"] == []
        for var in ("severity", "weather", "road"):
            assert (out / f"crosstab_{var}.csv").exists()
        assert not (out / "crosstab_lighting.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert {a["kind"] for a in manifest["artifacts"]} == {"crosstab"}
        assert len(manifest["config_hash"]) == 64

    def test_filter_steps_and_crosstab_rows(self, tmp_path):
        config = dict(BASE_CONFIG)
        config["filter_steps"] = [{"variable": "weather", "keep": ["rain"]}]
        config["crosstab_rows"] = ["severity"]
        cfg = write_workspace(tmp_path, config)
        assert main(["describe", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["record_count"] == 8
        (entry,) = summary["filter_log"]
        assert entry["records_before"] == 40
        assert entry["records_after"] == 8
        assert (out / "crosstab_severity.csv").exists()
        assert not (out / "crosstab_road.csv").exists()

    @pytest.mark.parametrize("crosstab_rows", [None, ["severity"], []])
    def test_value_counts_cover_every_variable(self, tmp_path, crosstab_rows):
        config = dict(BASE_CONFIG)
        if crosstab_rows is not None:
            config["crosstab_rows"] = crosstab_rows
        rows = _rows(37)
        cfg = write_workspace(tmp_path, config, rows)
        assert main(["describe", "--config", str(cfg)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        want = {
            v["name"]: {c: sum(r[v["name"]] == c for r in rows) for c in v["categories"]}
            for v in DICTIONARY["variables"]
        }
        assert summary["value_counts"] == want

    def test_marginals_survive_a_large_ingest(self, tmp_path):
        dictionary = {
            "version": "t",
            "variables": [
                {"name": "lighting", "categories": ["daylight", "dawn_dusk", "dark"]},
                {"name": "severity", "categories": ["fatal", "other"]},
            ],
        }
        counts = {"daylight": 3851, "dawn_dusk": 323, "dark": 3394}
        rows = []
        for cat, count in counts.items():
            for i in range(count):
                rows.append({"lighting": cat, "severity": "fatal" if i % 7 == 0 else "other"})
        (tmp_path / "dictionary.json").write_text(json.dumps(dictionary))
        with open(tmp_path / "data.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["crash_number", "lighting", "severity"])
            writer.writeheader()
            for i, row in enumerate(rows):
                writer.writerow({"crash_number": str(i), **row})
        config = {
            "dictionary": "dictionary.json",
            "data": "data.csv",
            "response": "severity",
            "output_dir": "out",
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        assert main(["describe", "--config", str(cfg)]) == 0
        lines = (tmp_path / "out" / "crosstab_lighting.csv").read_text().splitlines()
        totals = {line.split(",")[0]: int(line.split(",")[-1]) for line in lines[1:]}
        assert totals["daylight"] == 3851
        assert totals["dawn_dusk"] == 323
        assert totals["dark"] == 3394
        assert totals["total"] == 7568


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["describe", "--config", str(tmp_path / "nope.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "failed in stage 'config'" in err
        assert "nope.json" in err

    def test_invalid_json(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text("{not json")
        assert main(["describe", "--config", str(cfg)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_referenced_data(self, tmp_path, capsys):
        cfg = write_workspace(tmp_path)
        (tmp_path / "data.csv").unlink()
        assert main(["describe", "--config", str(cfg)]) == 2
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda c: c.update({"dictionaryy": "x"}), "unknown key"),
            (lambda c: c["forest"].update({"trees": 3}), "unknown key"),
            (lambda c: c["cases"][0].update({"min_conf": 0.5}), "unknown key"),
            (lambda c: c.pop("response"), "missing 'response'"),
            (lambda c: c["cases"][0].pop("min_support"), "missing 'min_support'"),
            (lambda c: c.update({"unknown_policy": "ignore"}), "unknown_policy"),
            (lambda c: c.update({"top_k_features": 0}), "top_k_features"),
            (
                lambda c: c.update({"filter_steps": [{"variable": "road", "keep": "dry"}]}),
                "'keep' must be an array of strings",
            ),
            (
                lambda c: c.update({"filter_steps": [{"variable": "road", "keep": 5}]}),
                "'keep' must be an array of strings",
            ),
            (
                lambda c: c.update({"cases": [c["cases"][0], dict(c["cases"][0])]}),
                "distinct",
            ),
            (
                lambda c: c.update({"features": "weather"}),
                "'features' must be an array of strings",
            ),
            (
                lambda c: c.update({"features": 5}),
                "'features' must be an array of strings",
            ),
            (
                lambda c: c.update({"crosstab_rows": "weather"}),
                "'crosstab_rows' must be an array of strings",
            ),
            (
                lambda c: c.update({"crosstab_rows": 5}),
                "'crosstab_rows' must be an array of strings",
            ),
            (
                lambda c: c.update({"features": ["weather", "weather", "severity"]}),
                "'features' repeats 'weather'",
            ),
            (
                lambda c: c.update({"crosstab_rows": ["weather", "road", "weather"]}),
                "'crosstab_rows' repeats 'weather'",
            ),
        ],
    )
    def test_rejected_configs_exit_2(self, tmp_path, capsys, mutate, needle):
        config = json.loads(json.dumps(BASE_CONFIG))
        mutate(config)
        cfg = write_workspace(tmp_path, config)
        assert main(["describe", "--config", str(cfg)]) == 2
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mutate,key",
        [
            (lambda c: c.update({"filter_steps": 5}), "filter_steps"),
            (lambda c: c["forest"].update({"n_trees": "abc"}), "n_trees"),
            (lambda c: c["forest"].update({"n_trees": 2.7}), "n_trees"),
            (lambda c: c["forest"].update({"max_depth": True}), "max_depth"),
            (lambda c: c.update({"top_k_features": "x"}), "top_k_features"),
            (lambda c: c.update({"seed": "x"}), "seed"),
            (lambda c: c["cases"][0].update({"min_confidence": "hi"}), "min_confidence"),
            (lambda c: c["cases"][0].update({"top_k": None}), "top_k"),
            (lambda c: c.update({"full_universe": "false"}), "full_universe"),
            (lambda c: c.update({"full_universe": 1}), "full_universe"),
        ],
    )
    def test_config_value_of_the_wrong_type_exits_2(self, tmp_path, capsys, mutate, key):
        config = json.loads(json.dumps(BASE_CONFIG))
        mutate(config)
        cfg = write_workspace(tmp_path, config)
        assert main(["describe", "--config", str(cfg)]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    def test_out_dir_that_is_a_file(self, tmp_path, capsys):
        cfg = write_workspace(tmp_path)
        (tmp_path / "blocked").write_text("")
        rc = main(["describe", "--config", str(cfg), "--out", str(tmp_path / "blocked")])
        assert rc == 1
        assert "failed in stage 'config'" in capsys.readouterr().err


class TestSelectVars:
    def test_writes_ranking_and_selection(self, tmp_path):
        cfg = write_workspace(tmp_path)
        assert main(["select-vars", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        selected = json.loads((out / "selected_variables.json").read_text())
        assert selected["response"] == "lighting"
        assert len(selected["selected"]) == 3
        assert selected["selected"][0] == "severity"
        importance = json.loads((out / "importance.json").read_text())
        ranked = [e["variable"] for e in importance["entries"]]
        assert ranked[0] == "severity"
        assert set(ranked) == {"severity", "weather", "road"}
        assert (out / "importance.svg").exists()
        assert (out / "importance.csv").exists()

    def test_top_k_clamped_with_warning(self, tmp_path, caplog):
        config = dict(BASE_CONFIG)
        config["top_k_features"] = 9
        cfg = write_workspace(tmp_path, config)
        with caplog.at_level("WARNING", logger="rulekit.cli"):
            assert main(["select-vars", "--config", str(cfg)]) == 0
        assert any("exceeds" in r.message for r in caplog.records)
        selected = json.loads((tmp_path / "out" / "selected_variables.json").read_text())
        assert len(selected["selected"]) == 3


class TestMine:
    def test_needs_a_feature_source(self, tmp_path, capsys):
        cfg = write_workspace(tmp_path)
        assert main(["mine", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "failed in stage 'mine'" in err
        assert "select-vars" in err

    def test_consumes_select_vars_output(self, tmp_path):
        cfg = write_workspace(tmp_path)
        assert main(["select-vars", "--config", str(cfg)]) == 0
        assert main(["mine", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        rules = (out / "case_wet_roads_rules.csv").read_text().splitlines()
        assert rules[0] == "ID,antecedents,S (%),C (%),L"
        assert rules[1].startswith("R1,{weather=rain}")
        assert (out / "case_wet_roads_rules.txt").exists()
        assert (out / "case_wet_roads_rules_full.csv").exists()
        assert (out / "case_wet_roads_scatter.svg").exists()
        assert (out / "item_frequency.svg").exists()
        meta = json.loads((out / "case_wet_roads_meta.json").read_text())
        assert meta["case"]["name"] == "wet roads"
        assert meta["rules_after_pruning"] >= 1

    @pytest.mark.parametrize(
        "content",
        ["[1, 2]", "{not json", '{"selected": "weather"}', '{"selected": ["weather", 3]}'],
        ids=["array", "invalid-json", "string-selection", "non-string-name"],
    )
    def test_malformed_selection_file_exits_2(self, tmp_path, capsys, content):
        cfg = write_workspace(tmp_path)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "selected_variables.json").write_text(content)
        assert main(["mine", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "failed in stage 'mine'" in err
        assert "selected_variables.json" in err

    def test_explicit_features_skip_selection(self, tmp_path):
        config = dict(BASE_CONFIG)
        config["features"] = ["weather"]
        cfg = write_workspace(tmp_path, config)
        assert main(["mine", "--config", str(cfg)]) == 0
        rules = (tmp_path / "out" / "case_wet_roads_rules.csv").read_text().splitlines()
        assert rules[1].startswith("R1,{weather=rain}")

    def test_unknown_feature_name(self, tmp_path, capsys):
        config = dict(BASE_CONFIG)
        config["features"] = ["wether"]
        cfg = write_workspace(tmp_path, config)
        assert main(["mine", "--config", str(cfg)]) == 2
        assert "wether" in capsys.readouterr().err

    def test_zero_rule_case_still_succeeds(self, tmp_path):
        config = json.loads(json.dumps(BASE_CONFIG))
        config["features"] = ["weather", "severity"]
        config["cases"][0]["min_lift"] = 50.0
        cfg = write_workspace(tmp_path, config)
        assert main(["mine", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert (out / "case_wet_roads_rules.csv").read_text().splitlines() == [
            "ID,antecedents,S (%),C (%),L"
        ]
        assert not (out / "case_wet_roads_scatter.svg").exists()
        assert (out / "manifest.json").exists()

    def test_no_cases_is_a_config_problem(self, tmp_path, capsys):
        config = dict(BASE_CONFIG)
        config["cases"] = []
        config["features"] = ["weather"]
        cfg = write_workspace(tmp_path, config)
        assert main(["mine", "--config", str(cfg)]) == 2
        assert "no mining cases" in capsys.readouterr().err


class TestThreadsAndSeed:
    def test_threads_flag_must_be_positive(self, tmp_path, capsys):
        cfg = write_workspace(tmp_path)
        assert main(["describe", "--config", str(cfg), "--threads", "0"]) == 2
        assert "threads" in capsys.readouterr().err

    def test_env_fallback(self, tmp_path, monkeypatch):
        cfg = write_workspace(tmp_path)
        monkeypatch.setenv("RULEKIT_THREADS", "3")
        assert main(["select-vars", "--config", str(cfg)]) == 0

    def test_env_fallback_rejects_garbage(self, tmp_path, monkeypatch, capsys):
        cfg = write_workspace(tmp_path)
        monkeypatch.setenv("RULEKIT_THREADS", "many")
        assert main(["describe", "--config", str(cfg)]) == 2
        assert "RULEKIT_THREADS" in capsys.readouterr().err

    def test_seed_override_changes_config_hash_only(self, tmp_path):
        cfg = write_workspace(tmp_path)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert main(["describe", "--config", str(cfg), "--out", str(a_dir), "--seed", "1"]) == 0
        assert main(["describe", "--config", str(cfg), "--out", str(b_dir), "--seed", "2"]) == 0
        a = json.loads((a_dir / "manifest.json").read_text())
        b = json.loads((b_dir / "manifest.json").read_text())
        assert a["config_hash"] != b["config_hash"]
        assert a["dataset_hash"] == b["dataset_hash"]


class TestPipeline:
    def test_produces_the_full_artifact_set(self, tmp_path):
        cfg = write_workspace(tmp_path)
        assert main(["pipeline", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        expected = [
            "summary.json",
            "crosstab_severity.csv",
            "crosstab_weather.csv",
            "crosstab_road.csv",
            "importance.json",
            "importance.svg",
            "importance.csv",
            "selected_variables.json",
            "item_frequency.svg",
            "item_frequency.csv",
            "case_wet_roads_rules.csv",
            "case_wet_roads_rules.txt",
            "case_wet_roads_rules_full.csv",
            "case_wet_roads_meta.json",
            "case_wet_roads_scatter.svg",
            "manifest.json",
        ]
        for name in expected:
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        for art in manifest["artifacts"]:
            assert not art["path"].startswith("/")
            assert (out / art["path"]).exists()
        kinds = {a["kind"] for a in manifest["artifacts"]}
        assert kinds == {"crosstab", "importance", "item_freq", "rule_table", "rule_scatter"}

    def test_mining_features_include_case_consequent_variable(self, tmp_path):
        # top 2 forest features cannot include "road"; the consequent
        # variable must still enter the transaction encoding
        cfg = write_workspace(tmp_path)
        assert main(["pipeline", "--config", str(cfg)]) == 0
        items = (tmp_path / "out" / "item_frequency.csv").read_text()
        assert "road=wet" in items
