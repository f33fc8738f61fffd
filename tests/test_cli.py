"""End-to-end command line runs against small generated datasets."""

import csv
import hashlib
import json
import logging
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import pytest

import rulekit
from rulekit.cli import RunConfig, config_digest, dataset_digest, load_config, main
from rulekit.forest import ForestConfig

SAMPLE_CONFIG = Path(__file__).resolve().parent.parent / "sample" / "config.json"

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
        assert [a["path"] for a in manifest["artifacts"]] == [
            "summary.json", "crosstab_severity.csv", "crosstab_weather.csv", "crosstab_road.csv"
        ]
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

    @pytest.mark.parametrize("command", ["describe", "pipeline"])
    def test_row_variables_that_share_a_file_name_are_refused(self, tmp_path, capsys, command):
        # both names sanitize to crosstab_road_surface.csv
        dictionary = {
            "version": "t",
            "variables": [
                {"name": "lighting", "categories": ["daylight", "dark"]},
                {"name": "road_surface", "categories": ["wet", "dry"]},
                {"name": "road/surface", "categories": ["wet", "dry"]},
            ],
        }
        (tmp_path / "dictionary.json").write_text(json.dumps(dictionary))
        rows = [("daylight", "wet", "dry"), ("dark", "dry", "wet")] * 10
        (tmp_path / "data.csv").write_text(
            "crash_number,lighting,road_surface,road/surface\n"
            + "".join(f"{i},{a},{b},{c}\n" for i, (a, b, c) in enumerate(rows))
        )
        config = {**BASE_CONFIG, "cases": [{"name": "wet", "consequent": "road_surface=wet",
                                             "min_support": 0.05, "min_confidence": 0.5}]}
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert main([command, "--config", str(tmp_path / "config.json")]) == 2
        err = capsys.readouterr().err
        assert "failed in stage 'describe'" in err
        assert "'road_surface'" in err and "'road/surface'" in err
        assert list((tmp_path / "out").iterdir()) == []


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

    def test_config_path_that_is_a_directory_exits_2(self, tmp_path, capsys):
        assert main(["describe", "--config", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "failed in stage 'config'" in err
        assert f"config path {tmp_path} is not a regular file" in err

    @pytest.mark.parametrize("key", ["dictionary", "data"])
    def test_referenced_path_that_is_a_directory_exits_2(self, tmp_path, capsys, key):
        cfg = write_workspace(tmp_path, {**BASE_CONFIG, key: "."})
        assert main(["describe", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "failed in stage 'config'" in err
        assert f"referenced path {tmp_path.resolve()} is not a regular file" in err

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
                lambda c: c.update(
                    {"cases": [dict(c["cases"][0], name=name) for name in "abab"]}
                ),
                "case names must be distinct; repeated: 'a', 'b'",
            ),
            (
                lambda c: c.update(
                    {"cases": [dict(c["cases"][0], name=n) for n in ("wet roads", "wet/roads")]}
                ),
                "cases 'wet roads' and 'wet/roads' must stay distinct after sanitization",
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
            # Python's json reads NaN; such a case would silently mine nothing
            (
                lambda c: c["cases"][0].update({"min_lift": float("nan")}),
                "case 'wet roads': min_lift nan",
            ),
            (
                lambda c: c["cases"][0].update({"min_confidence": 1.5}),
                "case 'wet roads': min_confidence 1.5",
            ),
            # each key error names its object: 'forest', cases[i] or the case
            (lambda c: c["forest"].update({"n_trees": "abc"}), "forest 'n_trees' must be"),
            (lambda c: c["forest"].update({"trees": 3}), "'forest' has unknown key(s): trees"),
            (lambda c: c.update({"forest": [1]}), "'forest' must be an object"),
            (lambda c: c["cases"][0].update({"top_k": None}), "case 'wet roads': 'top_k' must"),
            (lambda c: c["cases"][0].update({"min_lift": True}), "case 'wet roads': 'min_lift'"),
            (lambda c: c["cases"][0].update({"name": 5}), "case name must be a string, got 5"),
            (lambda c: c["cases"][0].pop("min_confidence"), "cases[0] is missing 'min_confidence'"),
            (lambda c: c["cases"][0].update({"minlift": 1}), "cases[0] has unknown key(s): minlift"),
            (lambda c: c.update({"cases": [c["cases"][0], 7]}), "cases[1] must be an object"),
            # a reader's error names its case too
            (lambda c: c["cases"].append({**c["cases"][0], "name": "b", "min_support": 0}),
             "cases[1]: support count 0 must be >= 1"),
            (lambda c: c["cases"].append({**c["cases"][0], "name": "b", "consequent": "fatal"}),
             "cases[1]: malformed item token 'fatal'"),
            # string values are taken as they are, never converted with str()
            (lambda c: c.update({"response": 5}),
             "stage 'config': 'response' must be a string, got 5"),
            (lambda c: c.update({"record_id_column": None}),
             "stage 'config': 'record_id_column' must be a string, got None"),
            (lambda c: c.update({"unknown_policy": True}),
             "stage 'config': 'unknown_policy' must be a string, got True"),
            (lambda c: c.update({"dictionary": ["dictionary.json"]}),
             "stage 'config': 'dictionary' must be a string, got ['dictionary.json']"),
            (lambda c: c.update({"data": 5}), "stage 'config': 'data' must be a string, got 5"),
            (lambda c: c.update({"output_dir": 7}),
             "stage 'config': 'output_dir' must be a string, got 7"),
            (lambda c: c.update({"filter_steps": [{"variable": 5, "keep": ["dry"]}]}),
             "stage 'config': filter step {'variable': 5, 'keep': ['dry']}: "
             "'variable' must be a string"),
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

    def test_output_dir_is_checked_when_out_overrides_it(self, tmp_path, capsys):
        # a config is valid or not whatever the flags
        cfg = write_workspace(tmp_path, {**BASE_CONFIG, "output_dir": 7})
        assert main(["describe", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "stage 'config': 'output_dir' must be a string, got 7" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "seed,needle",
        [("x", "forest 'seed' must be an integer, got 'x'"),
         (-1, "seed -1 must be in [0, 2**64)")],
    )
    def test_config_seed_is_checked_when_seed_overrides_it(self, tmp_path, capsys, seed, needle):
        # a config is valid or not whatever the flags
        cfg = write_workspace(tmp_path, {**BASE_CONFIG, "seed": seed})
        assert main(["describe", "--config", str(cfg), "--seed", "3"]) == 2
        err = capsys.readouterr().err
        assert "failed in stage 'config'" in err and needle in err
        assert not (tmp_path / "out").exists()

    def test_unparsable_record_exits_2_naming_its_row(self, tmp_path, capsys):
        cfg = write_workspace(tmp_path)
        with open(tmp_path / "data.csv", "a", newline="") as fh:
            fh.write('C99999,daylight,"' + "x" * 200_000 + '",clear,dry\r\n')
        assert main(["describe", "--config", str(cfg)]) == 2
        assert "row 42: field larger than field limit" in capsys.readouterr().err

    def test_out_dir_that_is_a_file(self, tmp_path, capsys):
        cfg = write_workspace(tmp_path)
        (tmp_path / "blocked").write_text("")
        rc = main(["describe", "--config", str(cfg), "--out", str(tmp_path / "blocked")])
        assert rc == 1
        assert "failed in stage 'config'" in capsys.readouterr().err

    def test_defaults_written_out_change_nothing(self, tmp_path):
        config = json.loads(json.dumps(BASE_CONFIG))
        config["cases"].append({"name": "any", "min_support": 3, "min_confidence": 0.4})
        for key in ("top_k_features", "seed", "output_dir"):
            del config[key]
        cfg = write_workspace(tmp_path, config)
        config.update({
            "record_id_column": "crash_number",
            "unknown_policy": "reject",
            "filter_steps": [],
            "features": None,
            "top_k_features": 10,
            "output_dir": "out",
            "crosstab_rows": None,
            "full_universe": False,
            "seed": 0,
        })
        config["forest"].update({"mtry": None, "max_depth": None})
        config["forest"].setdefault("n_trees", 500)
        for case in config["cases"]:
            case.update({"min_lift": 1.1, "max_rule_items": 4, "top_k": 20})
        config["cases"][1]["consequent"] = None
        spelled = tmp_path / "spelled_out.json"
        spelled.write_text(json.dumps(config))
        implicit, explicit = load_config(cfg), load_config(spelled)
        assert implicit == explicit
        assert config_digest(implicit) == config_digest(explicit)
        assert implicit.forest == ForestConfig(n_trees=25, min_node_size=2, seed=0)

    def test_config_digest_covers_every_analysis_key_and_no_path(self, tmp_path):
        cfg = write_workspace(tmp_path)
        base = config_digest(load_config(cfg))
        changes = {
            "record_id_column": "id",
            "unknown_policy": "coerce",
            "filter_steps": [{"variable": "road", "keep": ["dry"]}],
            "response": "severity",
            "features": ["weather"],
            "top_k_features": 4,
            "forest": {**BASE_CONFIG["forest"], "n_trees": 26},
            "cases": [{**BASE_CONFIG["cases"][0], "min_confidence": 0.6}],
            "crosstab_rows": ["road"],
            "full_universe": True,
            "seed": 4,
        }
        paths = {"dictionary", "data", "output_dir"}
        assert set(changes) == {f.name for f in fields(RunConfig)} - paths | {"seed"}
        digests = {base}
        for key, value in changes.items():
            changed = tmp_path / f"{key}.json"
            changed.write_text(json.dumps({**BASE_CONFIG, key: value}))
            digests.add(config_digest(load_config(changed)))
        assert len(digests) == 1 + len(changes)

        # paths, the output directory and the flags that are not the seed hash alike
        for name in ("dictionary.json", "data.csv"):
            (tmp_path / f"copy_{name}").write_bytes((tmp_path / name).read_bytes())
        moved = {**BASE_CONFIG, "dictionary": "copy_dictionary.json", "data": "copy_data.csv",
                 "output_dir": "elsewhere"}
        (tmp_path / "moved.json").write_text(json.dumps(moved))
        assert config_digest(load_config(tmp_path / "moved.json")) == base
        assert config_digest(load_config(cfg, out_dir=tmp_path / "o")) == base
        args = ["describe", "--config", str(cfg), "--out", str(tmp_path / "o"), "--threads", "4"]
        assert main(args) == 0
        assert json.loads((tmp_path / "o" / "manifest.json").read_text())["config_hash"] == base

    def test_dataset_digest_is_unchanged_and_reads_in_blocks(self, tmp_path):
        sample = load_config(SAMPLE_CONFIG)
        assert dataset_digest(sample) == (
            "990f8638cc6e0a7e1b2e60a139c1695f3354a49a625061c0bb4dd30446e091b1"
        )
        cfg = load_config(write_workspace(tmp_path))
        for size in (1 << 20, 8 << 20):
            cfg.data.write_bytes(bytes(range(256)) * (size // 256))
            want = hashlib.sha256(
                cfg.dictionary.read_bytes() + b"\x00" + cfg.data.read_bytes()
            ).hexdigest()
            tracemalloc.start()
            try:
                got = dataset_digest(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == want
            assert peak < 256 << 10, f"{peak} B for a {size} B data file"

    def test_integer_thresholds_read_as_their_floats(self, tmp_path):
        metas, hashes = set(), set()
        for confidence, lift in ((1, 2), (1.0, 2.0)):
            config = json.loads(json.dumps(BASE_CONFIG))
            config["features"] = ["weather", "severity"]
            config["cases"][0].update({"min_confidence": confidence, "min_lift": lift})
            assert f'"min_lift": {lift}' in json.dumps(config)
            cfg = write_workspace(tmp_path, config)
            out = tmp_path / f"out_{lift}"
            assert main(["mine", "--config", str(cfg), "--out", str(out)]) == 0
            metas.add((out / "case_wet_roads_meta.json").read_bytes())
            hashes.add(json.loads((out / "manifest.json").read_text())["config_hash"])
        assert len(metas) == 1 and len(hashes) == 1

    def test_dictionary_category_with_surrounding_whitespace_exits_2(self, tmp_path, capsys):
        cfg = write_workspace(tmp_path)
        doc = json.loads((tmp_path / "dictionary.json").read_text())
        doc["variables"][2]["categories"] = [" rain", "clear"]
        (tmp_path / "dictionary.json").write_text(json.dumps(doc))
        assert main(["describe", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "failed in stage 'ingest'" in err
        assert "'weather'" in err and "' rain'" in err

    @pytest.mark.parametrize(
        "name,stage,needle",
        [
            ("config.json", "config", "config.json is not valid"),
            ("dictionary.json", "ingest", "dictionary.json"),
            ("data.csv", "ingest", "row 9: not valid UTF-8"),
        ],
    )
    def test_invalid_utf8_exits_2_naming_the_file(self, tmp_path, capsys, name, stage, needle):
        cfg = write_workspace(tmp_path)
        path = tmp_path / name
        lines = path.read_bytes().splitlines(keepends=True)
        at = 8 if len(lines) > 8 else 0  # the CSV's ninth line, or the JSON's only one
        lines[at] = b"\xff" + lines[at]
        path.write_bytes(b"".join(lines))
        assert main(["describe", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"failed in stage '{stage}'" in err
        assert needle in err and "utf-8" in err.lower()


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
        [b"[1, 2]", b"{not json", b'{"response": "lighting", "selected": "weather"}',
         b'{"response": "lighting", "selected": ["weather", 3]}',
         b'{"response": "lighting", "selected": ["weather\xff"]}',
         b'{"selected": ["weather"]}', b'{"response": "weather", "selected": ["road"]}'],
        ids=["array", "invalid-json", "string-selection", "non-string-name", "invalid-utf8",
             "no-response", "another-response"],
    )
    def test_malformed_selection_file_exits_2(self, tmp_path, capsys, content):
        cfg = write_workspace(tmp_path)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "selected_variables.json").write_bytes(content)
        assert main(["mine", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "failed in stage 'mine'" in err
        assert "selected_variables.json" in err

    def test_select_vars_then_mine_for_another_response_exits_2(self, tmp_path, capsys):
        cfg = write_workspace(tmp_path)
        assert main(["select-vars", "--config", str(cfg)]) == 0
        cfg.write_text(json.dumps({**BASE_CONFIG, "response": "weather"}))
        assert main(["mine", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "failed in stage 'mine'" in err
        assert "selected_variables.json" in err
        assert "'lighting'" in err and "'weather'" in err
        assert not (tmp_path / "out" / "case_wet_roads_rules.csv").exists()

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

    @pytest.mark.parametrize("full_universe", [False, True])
    def test_consequent_that_no_record_holds_mines_zero_rules(
        self, tmp_path, caplog, full_universe
    ):
        # a stratum can lack a declared category; that is a result, not an error
        config = json.loads(json.dumps(BASE_CONFIG))
        config.update(features=["weather", "road"], full_universe=full_universe,
                      filter_steps=[{"variable": "severity", "keep": ["other"]}])
        config["cases"] = [dict(config["cases"][0], name="fatal", consequent="severity=fatal")]
        cfg = write_workspace(tmp_path, config)
        with caplog.at_level("WARNING", logger="rulekit"):
            assert main(["mine", "--config", str(cfg)]) == 0
        assert any("severity=fatal is not frequent" in r.message for r in caplog.records)
        out = tmp_path / "out"
        assert (out / "case_fatal_rules.csv").read_text().splitlines() == [
            "ID,antecedents,S (%),C (%),L"
        ]
        meta = json.loads((out / "case_fatal_meta.json").read_text())
        assert meta["rules_generated"] == 0
        assert (out / "case_fatal_rules_full.csv").exists()
        assert not (out / "case_fatal_scatter.svg").exists()
        assert (out / "manifest.json").exists()

    def test_an_empty_case_warns_once_and_each_threshold_logs_once(self, tmp_path, caplog):
        config = json.loads(json.dumps(BASE_CONFIG))
        config.update(features=["weather", "road"],
                      filter_steps=[{"variable": "severity", "keep": ["other"]}])
        wet = config["cases"][0]
        config["cases"] = [dict(wet, name="fatal", consequent="severity=fatal"),
                           dict(wet, name="strict", min_lift=50.0), wet,
                           dict(wet, name="none", top_k=0)]
        cfg = write_workspace(tmp_path, config)
        with caplog.at_level("INFO", logger="rulekit"):
            assert main(["mine", "--config", str(cfg)]) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert len(warnings) == 3
        assert warnings[0].startswith("case 'fatal' produced no rules")
        assert "severity=fatal is not frequent" in warnings[0]
        assert warnings[1] == "case 'strict' produced no rules"
        # 'none' keeps the rules 'wet roads' keeps, but ranks none of them
        assert warnings[2] == "case 'none' produced no rules: top_k is 0"
        infos = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        assert len([m for m in infos if "resolved" in m]) == len(config["cases"])

    def test_consequent_category_the_dictionary_lacks_exits_2(self, tmp_path, capsys):
        config = json.loads(json.dumps(BASE_CONFIG))
        config["features"] = ["weather"]
        config["cases"][0]["consequent"] = "severity=fatl"
        cfg = write_workspace(tmp_path, config)
        assert main(["mine", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "failed in stage 'mine'" in err
        assert "unknown category 'fatl' of variable 'severity'" in err

    def test_no_cases_is_a_config_problem(self, tmp_path, capsys):
        config = dict(BASE_CONFIG)
        config["cases"] = []
        config["features"] = ["weather"]
        cfg = write_workspace(tmp_path, config)
        assert main(["mine", "--config", str(cfg)]) == 2
        assert "no mining cases" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["mine", "pipeline"])
    def test_no_cases_fails_before_anything_is_written(self, tmp_path, capsys, command):
        config = dict(BASE_CONFIG, cases=[], features=["weather"])
        cfg = write_workspace(tmp_path, config)
        out = tmp_path / "empty"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{command} failed in stage 'config': config has no mining cases" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["describe", "select-vars"])
    def test_commands_that_do_not_mine_accept_no_cases(self, tmp_path, command):
        cfg = write_workspace(tmp_path, dict(BASE_CONFIG, cases=[]))
        assert main([command, "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "manifest.json").is_file()


class TestCommandLine:
    @pytest.mark.parametrize("argv", [
        ["bogus", "--config", "config.json"],
        ["pipeline"],
        [],
    ], ids=["unknown-command", "no-config", "no-command"])
    def test_bad_command_lines_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: rulekit")

    def test_help_lists_every_command_and_what_it_does(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        for command in ("describe", "select-vars", "mine", "pipeline"):
            described = [line.split() for line in lines if line.split()[:1] == [command]]
            assert len(described) == 1 and len(described[0]) > 2, command

    def test_flags_may_precede_the_command(self, tmp_path):
        cfg = write_workspace(tmp_path)
        assert main(["--config", str(cfg), "--seed", "1", "describe"]) == 0
        assert (tmp_path / "out" / "summary.json").exists()


class TestThreadsAndSeed:
    def test_threads_flag_must_be_positive(self, tmp_path, capsys):
        cfg = write_workspace(tmp_path)
        assert main(["describe", "--config", str(cfg), "--threads", "0"]) == 2
        assert "threads" in capsys.readouterr().err

    def test_seed_override_changes_config_hash_only(self, tmp_path):
        cfg = write_workspace(tmp_path)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert main(["describe", "--config", str(cfg), "--out", str(a_dir), "--seed", "1"]) == 0
        assert main(["describe", "--config", str(cfg), "--out", str(b_dir), "--seed", "2"]) == 0
        a = json.loads((a_dir / "manifest.json").read_text())
        b = json.loads((b_dir / "manifest.json").read_text())
        assert a["config_hash"] != b["config_hash"]
        assert a["dataset_hash"] == b["dataset_hash"]

    def test_seed_override_runs_as_the_configured_seed(self, tmp_path):
        cfg = write_workspace(tmp_path)
        for seed in ("1", "2"):
            args = ["select-vars", "--config", str(cfg), "--out", str(tmp_path / seed)]
            assert main([*args, "--seed", seed]) == 0
        # --seed 2 runs as a config whose seed is 2
        (tmp_path / "two.json").write_text(json.dumps({**BASE_CONFIG, "seed": 2}))
        assert main(["select-vars", "--config", str(tmp_path / "two.json"),
                     "--out", str(tmp_path / "two")]) == 0

        def read(out: str, name: str) -> bytes:
            return (tmp_path / out / name).read_bytes()

        assert read("1", "importance.json") != read("2", "importance.json")
        assert read("2", "importance.json") == read("two", "importance.json")
        hashes = {json.loads(read(d, "manifest.json"))["config_hash"] for d in ("2", "two")}
        assert len(hashes) == 1

    def test_forest_seed_is_an_unknown_key(self, tmp_path, capsys):
        # the top-level seed (or --seed) is the forest's seed; a second knob is refused
        config = {**BASE_CONFIG, "forest": {**BASE_CONFIG["forest"], "seed": 3}}
        cfg = write_workspace(tmp_path, config)
        assert main(["describe", "--config", str(cfg), "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert "failed in stage 'config'" in err
        assert "'forest' has unknown key(s): seed" in err

    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, capsys, where, seed):
        config = {**BASE_CONFIG, "seed": seed} if where == "config" else BASE_CONFIG
        cfg = write_workspace(tmp_path, config)
        args = ["--seed", str(seed)] if where == "flag" else []
        assert main(["describe", "--config", str(cfg), *args]) == 2
        err = capsys.readouterr().err
        assert "failed in stage 'config'" in err
        assert f"seed {seed} must be in [0, 2**64)" in err
        assert not (tmp_path / "out").exists()


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
            "case_wet_roads_scatter.csv",
            "manifest.json",
        ]
        for name in expected:
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        for art in manifest["artifacts"]:
            assert not art["path"].startswith("/")
            assert (out / art["path"]).exists()
        assert [a["path"] for a in manifest["artifacts"]] == expected[:-1]

    def test_mining_features_include_case_consequent_variable(self, tmp_path):
        # top 2 forest features cannot include "road"; the consequent
        # variable must still enter the transaction encoding
        cfg = write_workspace(tmp_path)
        assert main(["pipeline", "--config", str(cfg)]) == 0
        items = (tmp_path / "out" / "item_frequency.csv").read_text()
        assert "road=wet" in items


def _manifest_paths(out: Path) -> list[str]:
    """The paths out/manifest.json lists, once each, after checking each
    entry's sha256 against its file."""
    manifest = json.loads((out / "manifest.json").read_text())
    paths = [entry["path"] for entry in manifest["artifacts"]]
    assert len(paths) == len(set(paths))
    for entry in manifest["artifacts"]:
        assert set(entry) == {"path", "sha256"}
        data = (out / entry["path"]).read_bytes()
        assert entry["sha256"] == hashlib.sha256(data).hexdigest(), entry["path"]
    return paths


class TestManifest:
    @pytest.mark.parametrize("command", ["describe", "select-vars", "mine", "pipeline"])
    def test_lists_every_file_the_command_wrote(self, tmp_path, command):
        config = {**BASE_CONFIG, "features": ["weather", "severity"]} if command == "mine" \
            else BASE_CONFIG
        cfg = write_workspace(tmp_path, config)
        assert main([command, "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert sorted(_manifest_paths(out)) == written

    def test_mine_after_select_vars_lists_only_what_mine_wrote(self, tmp_path):
        cfg = write_workspace(tmp_path)
        out = tmp_path / "out"
        assert main(["select-vars", "--config", str(cfg)]) == 0
        earlier = {p.name for p in out.iterdir()}
        assert main(["mine", "--config", str(cfg)]) == 0
        paths = _manifest_paths(out)
        assert "selected_variables.json" not in paths
        assert sorted(paths) == sorted(p.name for p in out.iterdir() if p.name not in earlier)


# The variables OpenBLAS reads its thread count from, the first one first.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _child_env(**env: str) -> dict[str, str]:
    """An environment that imports this checkout's rulekit, with neither BLAS
    thread variable inherited unless given in ``env``."""
    src = str(Path(rulekit.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH")]
    child_env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREADS}
    child_env.update(env, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return child_env


def _fresh_python(script: str, *args: str, **env: str) -> str:
    """stdout of ``script`` in a new interpreter with ``_child_env(**env)``."""
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=_child_env(**env),
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.strip()


def test_commands_leave_slow_imports_unloaded(tmp_path):
    # numpy.ma (which a plain np.unique loads on numpy 2.4) and the network
    # modules behind xml.sax.saxutils cost tens of ms of every run's start-up;
    # an OpenBLAS worker pool, which no stage uses, costs as much again.
    script = (
        "import os, sys\n"
        "from rulekit.cli import main\n"
        "config, out = sys.argv[1:]\n"
        "assert main(['pipeline', '--config', config, '--out', out]) == 0\n"
        "assert main(['mine', '--config', config, '--out', out]) == 0\n"
        "tasks = '/proc/self/task'\n"
        "assert not os.path.isdir(tasks) or len(os.listdir(tasks)) == 1, os.listdir(tasks)\n"
        "slow = ('numpy.ma', 'urllib.request', 'http.client', 'ssl', 'xml.sax')\n"
        "print(','.join(m for m in slow if m in sys.modules))\n"
    )
    assert _fresh_python(script, str(SAMPLE_CONFIG), str(tmp_path / "out")) == ""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
    reason="counts threads under /proc on a machine with two or more cores",
)
@pytest.mark.parametrize("variable", _BLAS_THREADS)
def test_a_callers_blas_thread_count_is_kept(variable):
    script = (
        "import os, rulekit\n"
        "print(len(os.listdir('/proc/self/task')))\n"
        f"print([os.environ.get(v) for v in {_BLAS_THREADS!r}])\n"
    )
    threads, env = _fresh_python(script, **{variable: "2"}).splitlines()
    assert threads == "2"
    assert env == repr(["2" if v == variable else None for v in _BLAS_THREADS])


def test_the_benchmark_tracer_finds_every_name_it_patches(tmp_path):
    # perfbench/tracer.py wraps rulekit functions by the names they are looked
    # up under, so a renamed or deleted one fails every traced run. Its
    # coverage gate depends on timing and is left to the benchmark.
    tracer = SAMPLE_CONFIG.parent.parent / "perfbench" / "tracer.py"
    result = tmp_path / "result.json"
    argv = ["pipeline", "--config", str(SAMPLE_CONFIG), "--out", str(tmp_path / "out")]
    done = subprocess.run(
        [sys.executable, str(tracer), str(result), str(tmp_path / "spans.jsonl"), "--", *argv],
        env=_child_env(),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    metrics = json.loads(result.read_text())["metrics"]
    assert metrics["forest.tree_nodes"] > 0
    assert metrics["apriori.frequent_itemsets"] > 0
