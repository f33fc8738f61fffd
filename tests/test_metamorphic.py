"""Metamorphic relations on ``mine``: input changes whose effect on the
artifacts is known without any reference implementation.

- Shuffling the CSV's rows leaves every artifact byte-identical.
- Adding a variable that no case or feature names leaves them byte-identical.
- Repeating every row k times (fresh ids, count supports times k) multiplies
  every count by k and leaves every rule, support, confidence and lift as it
  was: support fractions are invariant, and a count support of k*c over k*n
  rows keeps exactly the itemsets that c kept over n.

``manifest.json`` holds the dataset's hash, so it is left out of every
comparison.
"""

import copy
import csv
import io
import json
import random

import pytest

from rulekit.cli import main

K = 3

DICTIONARY = {
    "version": "metamorphic-1",
    "variables": [
        {"name": "lighting", "categories": ["daylight", "dark_lit", "dark_unlit"]},
        {"name": "severity", "categories": ["fatal", "injury"]},
        {"name": "weather", "categories": ["clear", "rain", "fog"]},
        {"name": "surface", "categories": ["dry", "wet"]},
        {"name": "speed", "categories": ["low", "mid", "high"]},
    ],
}

CONFIG = {
    "dictionary": "dictionary.json",
    "data": "data.csv",
    "response": "severity",
    "features": ["lighting", "weather", "surface", "speed"],
    "cases": [
        {"name": "overview", "consequent": None, "min_support": 12,
         "min_confidence": 0.5, "max_rule_items": 3},
        {"name": "fatal", "consequent": "severity=fatal", "min_support": 0.013,
         "min_confidence": 0.2},
    ],
    "output_dir": "out",
}


def _rows(n: int = 300, seed: int = 11) -> list[dict[str, str]]:
    """Rows with planted dependencies: rain wets the road, and unlit
    darkness at high speed is more often fatal."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        weather = rng.choices(["clear", "rain", "fog"], [6, 3, 1])[0]
        lighting = rng.choice(["daylight", "dark_lit", "dark_unlit"])
        speed = rng.choice(["low", "mid", "high"])
        wet = rng.random() < (0.8 if weather == "rain" else 0.15)
        fatal = rng.random() < (0.5 if (lighting, speed) == ("dark_unlit", "high") else 0.1)
        rows.append({
            "crash_number": f"C{i:04d}",
            "lighting": lighting,
            "severity": "fatal" if fatal else "injury",
            "weather": weather,
            "surface": "wet" if wet else "dry",
            "speed": speed,
        })
    return rows


def _mine(root, rows, dictionary=DICTIONARY, config=CONFIG) -> dict[str, bytes]:
    """Every artifact ``mine`` writes for these inputs, but the manifest."""
    root.mkdir()
    (root / "dictionary.json").write_text(json.dumps(dictionary))
    (root / "config.json").write_text(json.dumps(config))
    with open(root / "data.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert main(["mine", "--config", str(root / "config.json")]) == 0
    out = root / "out"
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"}


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    return _mine(tmp_path_factory.mktemp("base") / "ws", _rows())


def test_the_dataset_mines_rules_in_both_cases(base):
    for case in ("overview", "fatal"):
        meta = json.loads(base[f"case_{case}_meta.json"])
        assert meta["rules_after_pruning"] > 0
        assert f"case_{case}_scatter.svg" in base


def test_shuffling_the_rows_changes_no_artifact(base, tmp_path):
    rows = _rows()
    random.Random(5).shuffle(rows)
    assert _mine(tmp_path / "ws", rows) == base


def test_a_variable_no_case_names_changes_no_artifact(base, tmp_path):
    dictionary = copy.deepcopy(DICTIONARY)
    dictionary["variables"].insert(
        2, {"name": "county", "categories": ["north", "south", "east", "west"]}
    )
    rng = random.Random(7)
    # the new column goes first in the CSV, and in the middle of the dictionary
    rows = [{"county": rng.choice(["north", "south", "east", "west"]), **row} for row in _rows()]
    assert _mine(tmp_path / "ws", rows, dictionary) == base


def _csv_rows(data: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def test_repeating_every_row_multiplies_only_the_counts(base, tmp_path):
    rows = [
        {**row, "crash_number": f"{row['crash_number']}-{j}"}
        for row in _rows()
        for j in range(K)
    ]
    config = copy.deepcopy(CONFIG)
    for case in config["cases"]:
        if isinstance(case["min_support"], int):
            case["min_support"] *= K
    got = _mine(tmp_path / "ws", rows, config=config)
    assert got.keys() == base.keys()
    for name, data in base.items():
        if name.endswith("_rules_full.csv"):
            want = _csv_rows(data)
            for row in want:
                row["joint_count"] = str(K * int(row["joint_count"]))
            assert _csv_rows(got[name]) == want, name
        elif name == "item_frequency.csv":
            want = _csv_rows(data)
            for row in want:
                row["count"] = str(K * int(row["count"]))
            assert _csv_rows(got[name]) == want
        elif name.endswith("_meta.json"):
            meta, want = json.loads(got[name]), json.loads(data)
            for key in ("rules_generated", "rules_after_pruning", "top_k"):
                assert meta[key] == want[key], (name, key)
            if want["case"]["min_support"].startswith("count"):
                assert meta["resolved_min_support_count"] == K * want["resolved_min_support_count"]
                want["case"]["min_support"] = f"count>={K * want['resolved_min_support_count']}"
            assert meta["case"] == want["case"], name
        else:
            assert got[name] == data, name
