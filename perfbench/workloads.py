"""Seeded workload inputs: a data dictionary, a CSV of records and a run config.

Every workload writes exactly three files into a scratch directory, and the
rulekit process under test reads only those. The same (workload, seed) pair
always gives byte-identical files: all randomness comes from one
``random.Random`` seeded by a string, which Python hashes with SHA-512 and so
does not depend on PYTHONHASHSEED.

Workloads, and why each is in the benchmark:

* ``forest-sample``: ``pipeline --threads 1`` on the committed 1,200-row
  ``sample/`` (120 trees, two constrained cases). It is the paper's demo and
  the default user path: the forest runs in its small-node regime and mining
  is tiny.
* ``rules-dense``: ``mine`` on 2,000 generated rows with explicit features, so
  no forest runs. One unconstrained case (every item is a consequent, count
  >= 10, up to 4 items) gives the deep lattice and the per-consequent O(R^2)
  prune.
* ``tall-mixed``: ``pipeline --threads 2`` on 50,000 generated rows of the
  same shape, with a filter step, a small deep forest and one constrained
  case. Per-row Python loops (ingest, encode, describe) dominate, the forest
  runs in its large-node regime and it is the only workload where worker
  threads get work.
"""

from __future__ import annotations

import bisect
import csv
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

N_VARS = 12
N_CATS = 6
VARIABLES = tuple(f"v{i:02d}" for i in range(1, N_VARS + 1))
CATEGORIES = tuple(f"c{j}" for j in range(N_CATS))
RESPONSE = "outcome"
RESPONSE_CATEGORIES = ("yes", "no")
ID_COLUMN = "record_id"

# Skewed marginal shared by every variable, rotated per variable so that a
# different category dominates each one.
_MARGINAL = (0.38, 0.24, 0.15, 0.11, 0.07, 0.05)
# Probability that a variable repeats the previous variable's category index
# (the chained correlation that makes deep itemsets frequent).
_CHAIN = 0.55


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    threads: int
    rows: int  # data rows in the CSV rulekit reads


WORKLOADS = {
    w.name: w
    for w in (
        Workload("forest-sample", "pipeline", 1, 1200),
        Workload("rules-dense", "mine", 1, 2000),
        Workload("tall-mixed", "pipeline", 2, 50000),
    )
}


def _cumulative(weights: tuple[float, ...]) -> list[float]:
    total = sum(weights)
    acc, out = 0.0, []
    for w in weights:
        acc += w
        out.append(acc / total)
    out[-1] = 1.0
    return out


def _draw(rng: random.Random, cum: list[float]) -> int:
    return bisect.bisect_right(cum, rng.random())


def synthetic_rows(rng: random.Random, n: int) -> list[list[str]]:
    """Rows of (record id, v01..v12, outcome) with planted structure.

    v01 follows the skewed marginal; each later variable repeats the
    previous variable's category index with probability _CHAIN and otherwise
    draws from its own rotated marginal. The outcome is "yes" far more often
    when v01 and v03 sit on their dominant categories.
    """
    cums = [
        _cumulative(tuple(_MARGINAL[(j - v) % N_CATS] for j in range(N_CATS)))
        for v in range(N_VARS)
    ]
    rows = []
    for r in range(n):
        idx = [_draw(rng, cums[0])]
        for v in range(1, N_VARS):
            if rng.random() < _CHAIN:
                idx.append(idx[-1])
            else:
                idx.append(_draw(rng, cums[v]))
        p_yes = 0.15 + 0.45 * (idx[0] == 0) + 0.25 * (idx[2] == 2)
        outcome = RESPONSE_CATEGORIES[0] if rng.random() < p_yes else RESPONSE_CATEGORIES[1]
        rows.append([f"R{r + 1:06d}", *(CATEGORIES[i] for i in idx), outcome])
    return rows


def _dictionary() -> dict:
    variables = [{"name": v, "categories": list(CATEGORIES)} for v in VARIABLES]
    variables.append({"name": RESPONSE, "categories": list(RESPONSE_CATEGORIES)})
    return {"version": "perfbench-1", "variables": variables}


def _config(name: str, seed: int) -> dict:
    base = {
        "dictionary": "dictionary.json",
        "data": "records.csv",
        "record_id_column": ID_COLUMN,
        "response": RESPONSE,
        "seed": seed,
    }
    if name == "rules-dense":
        return {
            **base,
            "features": list(VARIABLES),
            "cases": [
                {
                    "name": "all",
                    "consequent": None,
                    "min_support": 10,
                    "min_confidence": 0.3,
                    "min_lift": 1.1,
                    "max_rule_items": 4,
                    "top_k": 100,
                }
            ],
        }
    return {
        **base,
        "filter_steps": [{"variable": VARIABLES[-1], "keep": list(CATEGORIES[:-1])}],
        "top_k_features": 8,
        "forest": {"n_trees": 8, "max_depth": 8, "min_node_size": 25},
        "cases": [
            {
                "name": "yes",
                "consequent": f"{RESPONSE}={RESPONSE_CATEGORIES[0]}",
                "min_support": 0.01,
                "min_confidence": 0.5,
                "min_lift": 1.1,
                "max_rule_items": 4,
                "top_k": 50,
            }
        ],
    }


def _write_json(path: Path, obj: object) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def generate(name: str, seed: int, dest: Path, repo_root: Path) -> Path:
    """Write dictionary.json, the records CSV and config.json into dest.

    Returns the config path. forest-sample copies the committed sample
    unchanged (its seed reaches rulekit through ``--seed``); the other
    workloads are drawn from ``seed``.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    dest.mkdir(parents=True, exist_ok=True)
    if name == "forest-sample":
        sample = repo_root / "sample"
        for fname in ("dictionary.json", "crashes.csv", "config.json"):
            shutil.copyfile(sample / fname, dest / fname)
        return dest / "config.json"
    rng = random.Random(f"perfbench/{name}/{seed}")
    _write_json(dest / "dictionary.json", _dictionary())
    with open(dest / "records.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([ID_COLUMN, *VARIABLES, RESPONSE])
        writer.writerows(synthetic_rows(rng, WORKLOADS[name].rows))
    _write_json(dest / "config.json", _config(name, seed))
    return dest / "config.json"
