"""Output checks that never import rulekit.

* ``Dataset`` re-reads a workload's dictionary, CSV and filter steps and keeps
  one Python-int bitset of row positions per (variable, category) item, so
  the joint count of any itemset is a popcount of an AND.
* ``check_rules_csv`` recounts every rule of a ``case_*_rules_full.csv`` and
  compares joint count, support, confidence and lift at printed precision,
  plus the case thresholds and the ranking order.
* ``expected_rules`` enumerates every frequent itemset of the mined
  variables from the bitsets, derives all rules that pass the case's
  thresholds and the redundancy prune, and ranks them; ``check_case`` then
  compares the counts in ``case_*_meta.json`` and the exact top-k rules, so
  the rules below the top k are checked too.
* ``artifact_digest`` hashes every artifact of an output directory, with
  ``manifest.json``'s ``created_at`` removed, for the byte-identity check.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path


def _normalize(name: str) -> str:
    return re.sub(r"\s+", "_", name.strip().lower())


def case_stem(name: str) -> str:
    """File stem of a case's artifacts, as the CLI documents it."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("_") or "case"


class Dataset:
    """Filtered records of one workload as per-item row bitsets."""

    def __init__(self, config_path: Path) -> None:
        self.config = json.loads(config_path.read_text(encoding="utf-8"))
        base = config_path.parent
        doc = json.loads((base / self.config["dictionary"]).read_text(encoding="utf-8"))
        categories = {v["name"]: list(v["categories"]) for v in doc["variables"]}
        self.categories = categories
        keep = {}
        for step in self.config.get("filter_steps", []):
            allowed = set(step["keep"])
            keep[step["variable"]] = keep.get(step["variable"], allowed) & allowed
        id_column = self.config.get("record_id_column", "crash_number")
        bits: dict[tuple[str, str], bytearray] = {}
        with open(base / self.config["data"], encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = [_normalize(h) for h in next(reader)]
            col = {name: header.index(name) for name in [*categories, id_column]}
            rows = []
            for row in reader:
                values = {}
                for var, cats in categories.items():
                    val = row[col[var]].strip() or "unknown"
                    if val not in cats:
                        raise ValueError(f"{val!r} is not a category of {var!r}")
                    values[var] = val
                if all(values[var] in allowed for var, allowed in keep.items()):
                    rows.append(values)
        self.n = len(rows)
        self.rows_read = reader.line_num - 1
        size = (self.n + 7) // 8
        for r, values in enumerate(rows):
            for item in values.items():
                buf = bits.get(item)
                if buf is None:
                    buf = bits[item] = bytearray(size)
                buf[r >> 3] |= 1 << (r & 7)
        self._bits = {item: int.from_bytes(buf, "little") for item, buf in bits.items()}
        self._all = (1 << self.n) - 1
        self._expected: dict[tuple, Expected] = {}

    def count(self, items) -> int:
        acc = self._all
        for item in items:
            acc &= self._bits.get(item, 0)
        return acc.bit_count()


def _item(token: str) -> tuple[str, str]:
    variable, sep, category = token.partition("=")
    if not sep:
        raise ValueError(f"malformed item {token!r}")
    return variable, category


def _min_count(spec, n: int) -> int:
    """Smallest joint count meeting a config min_support, from the exact rational."""
    if isinstance(spec, int):
        return spec
    return max(1, math.ceil(Fraction(repr(spec)) * n))


def check_rules_csv(path: Path, data: Dataset, case: dict) -> list[str]:
    """Problems found in one rules_full CSV; an empty list means it is right."""
    problems: list[str] = []
    n = data.n
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return [f"{path.name}: no rules"]
    if len(rows) > case.get("top_k", 20):
        problems.append(f"{path.name}: {len(rows)} rules exceed top_k")
    threshold = _min_count(case["min_support"], n)
    prev_lift = math.inf
    for i, row in enumerate(rows, start=1):
        where = f"{path.name} {row.get('id')}"
        if row["id"] != f"R{i}":
            problems.append(f"{where}: expected id R{i}")
        body = row["antecedent_items"]
        if not (body.startswith("{") and body.endswith("}")) or len(body) < 3:
            problems.append(f"{where}: malformed antecedent {body!r}")
            continue
        antecedent = [_item(t) for t in body[1:-1].split(", ")]
        consequent = _item(row["consequent"])
        if case.get("consequent") is not None and consequent != _item(case["consequent"]):
            problems.append(f"{where}: consequent {row['consequent']} is not the case's")
        variables = [v for v, _ in antecedent] + [consequent[0]]
        if len(set(variables)) != len(variables):
            problems.append(f"{where}: repeats a variable")
        if len(variables) > case.get("max_rule_items", 4):
            problems.append(f"{where}: more than max_rule_items items")
        x = data.count(antecedent)
        y = data.count([consequent])
        xy = data.count(antecedent + [consequent])
        if x == 0 or y == 0:
            problems.append(f"{where}: antecedent or consequent never occurs")
            continue
        support, confidence, lift = xy / n, xy / x, (xy * n) / (x * y)
        expected = {
            "joint_count": str(xy),
            "support_pct": f"{100.0 * support:.3f}",
            "confidence_pct": f"{100.0 * confidence:.3f}",
            "lift": f"{lift:.2f}",
        }
        for key, want in expected.items():
            if row[key] != want:
                problems.append(f"{where}: {key} {row[key]} but recount gives {want}")
        if xy < threshold:
            problems.append(f"{where}: joint count {xy} below min support count {threshold}")
        if confidence < case["min_confidence"] or lift < case.get("min_lift", 1.1):
            problems.append(f"{where}: below the confidence or lift minimum")
        if lift > prev_lift:
            problems.append(f"{where}: not ranked by descending lift")
        prev_lift = lift
    return problems


@dataclass(frozen=True)
class Expected:
    """What one mining case must yield: rule counts and the ranked top k."""

    threshold: int
    generated: int
    kept: int
    top: tuple[tuple[frozenset, tuple[str, str]], ...]  # (antecedent items, consequent)


def expected_rules(data: Dataset, case: dict, variables: set[str]) -> Expected:
    """Every rule of a case, derived from the bitsets alone.

    Items are numbered as the miner numbers them: the mined variables in
    dictionary order, each one's categories in dictionary order, only those
    that occur (every one with ``full_universe``). Rules are X -> y for each
    frequent itemset Z of distinct variables, 2 <= |Z| <= max_rule_items, and
    each y in Z, that meet the confidence and lift minimums. A rule is pruned
    when a rule with the same consequent, a strict subset antecedent and at
    least its confidence exists. The rest are ranked by lift, confidence and
    support (descending), then antecedent and consequent ids.
    """
    key = (case["name"], tuple(sorted(variables)))
    if key in data._expected:
        return data._expected[key]
    n = data.n
    threshold = _min_count(case["min_support"], n)
    max_items = case.get("max_rule_items", 4)
    full = data.config.get("full_universe", False)
    items = [(var, cat) for var, cats in data.categories.items() if var in variables
             for cat in cats if full or data._bits.get((var, cat), 0)]
    bits = [data._bits.get(item, 0) for item in items]
    counts: dict[tuple[int, ...], int] = {}
    level = []
    for i, b in enumerate(bits):
        if b.bit_count() >= threshold:
            counts[(i,)] = b.bit_count()
            level.append(((i,), b))
    for _ in range(max_items - 1):
        grown = []
        for ids, b in level:
            last = ids[-1]
            for j in range(last + 1, len(items)):
                if items[j][0] == items[last][0] or (j,) not in counts:
                    continue
                joint = b & bits[j]
                c = joint.bit_count()
                if c >= threshold:
                    counts[ids + (j,)] = c
                    grown.append((ids + (j,), joint))
        level = grown

    ids_of = {item: i for i, item in enumerate(items)}
    wanted = None if case.get("consequent") is None else ids_of.get(_item(case["consequent"]), -1)
    rules = {}  # (y, antecedent ids) -> (confidence, lift, support)
    for ids, xy in counts.items():
        for y in ids:
            if len(ids) < 2 or (wanted is not None and y != wanted):
                continue
            antecedent = tuple(i for i in ids if i != y)
            x, cy = counts[antecedent], counts[(y,)]
            confidence, lift = xy / x, (xy * n) / (x * cy)
            if confidence >= case["min_confidence"] and lift >= case.get("min_lift", 1.1):
                rules[(y, antecedent)] = (confidence, lift, xy / n)
    kept = [
        (y, ant) for (y, ant), (conf, _, _) in rules.items()
        if not any(rules.get((y, sub), (-1.0,))[0] >= conf
                   for r in range(1, len(ant)) for sub in itertools.combinations(ant, r))
    ]
    kept.sort(key=lambda r: (-rules[r][1], -rules[r][0], -rules[r][2], r[1], r[0]))
    top = tuple((frozenset(items[i] for i in ant), items[y])
                for y, ant in kept[:case.get("top_k", 20)])
    data._expected[key] = Expected(threshold, len(rules), len(kept), top)
    return data._expected[key]


def mining_variables(data: Dataset, out_dir: Path) -> set[str]:
    """The variables rulekit mines: the configured features, else the
    selected ones it wrote, plus every case's consequent variable."""
    features = data.config.get("features")
    if features is None:
        doc = json.loads((out_dir / "selected_variables.json").read_text(encoding="utf-8"))
        features = doc["selected"]
    wanted = set(features)
    for case in data.config.get("cases", []):
        if case.get("consequent") is not None:
            wanted.add(_item(case["consequent"])[0])
    return wanted


def check_case(out_dir: Path, data: Dataset, case: dict, variables: set[str]) -> list[str]:
    """Compare a case's meta counts and top-k rules with ``expected_rules``."""
    stem = f"case_{case_stem(case['name'])}"
    want = expected_rules(data, case, variables)
    problems = []
    meta = json.loads((out_dir / f"{stem}_meta.json").read_text(encoding="utf-8"))
    for key, value in (("resolved_min_support_count", want.threshold),
                       ("rules_generated", want.generated),
                       ("rules_after_pruning", want.kept)):
        if meta.get(key) != value:
            problems.append(f"{stem}_meta.json: {key} {meta.get(key)} but recount gives {value}")
    with open(out_dir / f"{stem}_rules_full.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    got = []
    for row in rows:
        body = row["antecedent_items"][1:-1]
        got.append((frozenset(_item(t) for t in body.split(", ") if t), _item(row["consequent"])))
    if len(got) != len(want.top):
        problems.append(f"{stem}_rules_full.csv: {len(got)} rules but recount ranks "
                        f"{len(want.top)}")
    for i, (rule, expected) in enumerate(zip(got, want.top), start=1):
        if rule != expected:
            problems.append(f"{stem}_rules_full.csv R{i}: not the recount's rule of that rank")
            break
    return problems


def artifact_digest(out_dir: Path) -> dict[str, str]:
    """sha256 of every file under out_dir; the manifest without created_at."""
    digest = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            doc = json.loads(data)
            doc.pop("created_at", None)
            data = json.dumps(doc, sort_keys=True).encode("utf-8")
        digest[str(path.relative_to(out_dir))] = hashlib.sha256(data).hexdigest()
    return digest


def check_outputs(out_dir: Path, data: Dataset) -> list[str]:
    """Recount every rule file of every configured case and its meta counts."""
    problems = []
    try:
        variables = mining_variables(data, out_dir)
    except (OSError, KeyError, ValueError) as exc:
        return [f"mined variables unknown: {exc}"]
    for case in data.config.get("cases", []):
        stem = f"case_{case_stem(case['name'])}"
        missing = [p for p in (f"{stem}_rules_full.csv", f"{stem}_meta.json")
                   if not (out_dir / p).exists()]
        if missing:
            problems.append(f"{', '.join(missing)} missing")
            continue
        problems.extend(check_rules_csv(out_dir / f"{stem}_rules_full.csv", data, case))
        problems.extend(check_case(out_dir, data, case, variables))
    return problems
