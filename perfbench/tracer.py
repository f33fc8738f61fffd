"""Traced in-process rulekit run: spans and counts at every layer boundary.

Usage (with the repository's ``src`` on PYTHONPATH):

    python perfbench/tracer.py RESULT_JSON SPANS_JSONL -- <rulekit CLI arguments>

The public functions of each ``rulekit`` module are wrapped where they are
looked up (``from x import f`` binds ``f`` in the importing module, so the
wrapper goes into that module's namespace), then ``rulekit.cli.main`` runs in
this process. Spans stay in memory until the run ends; then the spans go to
SPANS_JSONL and the per-layer metrics to RESULT_JSON. Nothing inside rulekit
is modified on disk.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from spans import Span, attributed_share, self_time_by_name

# Reported layer metrics account for at least this share of the in-process
# wall, or some work went unmeasured.
MIN_COVERAGE = 0.95


class Tracer:
    """Collects spans from wrapped functions, per thread, with parent links."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.values: dict[str, float] = defaultdict(int)
        self.pool_calls: dict[int, int] = {}  # run_ordered span id -> threads
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, parent=None, span_id=None):
        stack = self._stack()
        sid = next(self._ids) if span_id is None else span_id
        if parent is None and stack:
            parent = stack[-1][0]
        stack.append((sid, name))
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, parent, start, end))

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_run_ordered(self, run_ordered, on_items=None):
        """Wrap the pool helper; each item becomes a span named after the caller.

        Worker threads start with an empty span stack, so items carry the
        run_ordered span as an explicit parent.
        """

        @functools.wraps(run_ordered)
        def traced(fn, items, threads=1):
            work = list(items)
            stack = self._stack()
            caller = stack[-1][1] if stack else "parallel.item"
            sid = next(self._ids)
            self.pool_calls[sid] = threads
            self.values["parallel.items"] += len(work)
            if on_items is not None:
                on_items(len(work))

            def item(x):
                return self.call(caller, fn, (x,), {}, parent=sid)

            return self.call("parallel.run_ordered", run_ordered, (item, work, threads), {},
                             span_id=sid)

        return traced


def _tree_depth(nodes) -> int:
    depth, frontier = 0, [0]
    while True:
        frontier = [c for nid in frontier if not nodes[nid].is_leaf
                    for c in (nodes[nid].left, nodes[nid].right)]
        if not frontier:
            return depth
        depth += 1


def install(tracer: Tracer) -> None:
    """Patch every traced lookup site in the rulekit modules."""
    import rulekit.apriori as apriori
    import rulekit.cli as cli
    import rulekit.forest as forest
    import rulekit.report as report
    import rulekit.rules as rules

    v = tracer.values

    def on_records(rs):
        v["schema.records"] += len(rs)

    def on_forest(f):
        v["forest.tree_nodes"] += sum(len(t.nodes) for t in f.trees)
        v["forest.tree_depth_max"] = max(
            v["forest.tree_depth_max"], max(_tree_depth(t.nodes) for t in f.trees)
        )

    def on_oob(pred):
        v["forest.oob_coverage"] = pred.coverage

    def on_frequent(freq):
        v["apriori.frequent_itemsets"] += len(freq)
        v["apriori.frequent_k2plus"] += sum(len(lv) for k, lv in freq.by_level.items() if k >= 2)

    def on_generated(rs):
        v["rules.generated"] += len(rs)

    def on_kept(rs):
        v["rules.kept"] += len(rs)

    def on_candidates(n):
        v["apriori.candidates"] += n

    sites = [
        (cli, "load_config", "cli.load_config", None),
        (cli, "dataset_digest", "cli.dataset_digest", None),
        (cli, "load_dictionary", "schema.load_dictionary", None),
        (cli, "ingest", "schema.ingest", on_records),
        (cli, "filter_records", "schema.filter_records", None),
        (cli, "cross_tabulate", "schema.cross_tabulate", None),
        (cli, "encode", "transactions.encode", None),
        (cli, "item_frequencies", "transactions.item_frequencies", None),
        (cli, "train", "forest.train", on_forest),
        (cli, "mda_importance", "forest.mda_importance", None),
        (cli, "export_importance_json", "forest.export_importance_json", None),
        (cli, "run_case", "rules.run_case", None),
        (cli, "export_case_csv", "rules.export_case_csv", None),
        (cli, "export_case_metadata", "rules.export_case_metadata", None),
        (cli, "emit_crosstab", "report.emit_crosstab", None),
        (cli, "emit_importance_chart", "report.emit_importance_chart", None),
        (cli, "emit_item_freq_chart", "report.emit_item_freq_chart", None),
        (cli, "emit_rule_scatter", "report.emit_rule_scatter", None),
        (cli, "emit_rule_table", "report.emit_rule_table", None),
        (report.ReportBundle, "write_manifest", "report.write_manifest", None),
        (rules, "mine_frequent", "apriori.mine_frequent", on_frequent),
        (rules, "generate_rules", "rules.generate_rules", on_generated),
        (rules, "prune_redundant", "rules.prune_redundant", on_kept),
        (rules, "rank_rules", "rules.rank_rules", None),
        (apriori, "support_count", "transactions.support_count", None),
        (forest, "best_partition", "forest.best_partition", None),
        (forest, "oob_predict", "forest.oob_predict", on_oob),
    ]
    for owner, attr, name, on_result in sites:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), on_result))
    apriori.run_ordered = tracer.wrap_run_ordered(apriori.run_ordered, on_candidates)
    forest.run_ordered = tracer.wrap_run_ordered(forest.run_ordered)
    for command, fn in list(cli._COMMANDS.items()):
        cli._COMMANDS[command] = tracer.wrap("cli.cmd_" + command.replace("-", "_"), fn)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


EMITS = ("report.emit_crosstab", "report.emit_importance_chart", "report.emit_item_freq_chart",
         "report.emit_rule_scatter", "report.emit_rule_table")

# Self-time metrics and the span names each one sums.
SELF_TIME = {
    "schema.ingest_s": ("schema.ingest",),
    "schema.filter_records_s": ("schema.filter_records",),
    "schema.cross_tabulate_s": ("schema.cross_tabulate",),
    "transactions.encode_s": ("transactions.encode",),
    "transactions.item_frequencies_s": ("transactions.item_frequencies",),
    "transactions.support_count_s": ("transactions.support_count",),
    "apriori.mine_frequent_s": ("apriori.mine_frequent",),
    "rules.generate_rules_s": ("rules.generate_rules",),
    "rules.prune_redundant_s": ("rules.prune_redundant",),
    "rules.rank_rules_s": ("rules.rank_rules",),
    "forest.train_s": ("forest.train",),
    "forest.best_partition_s": ("forest.best_partition",),
    "forest.oob_predict_s": ("forest.oob_predict",),
    "forest.mda_importance_s": ("forest.mda_importance",),
    "report.emit_s": EMITS,
    "report.write_manifest_s": ("report.write_manifest",),
    "cli.load_config_s": ("cli.load_config",),
    "cli.dataset_digest_s": ("cli.dataset_digest",),
}

# Spans whose self time a layer metric reports (run_ordered's own time, the
# pool overhead, is inside parallel.run_ordered_s). The self time of every
# other span (the cli.cmd_* catch-all, which cli.self_s reports, and the
# wrapped functions no metric names) counts against the attributed share.
REPORTED = frozenset(name for names in SELF_TIME.values() for name in names) | {
    "parallel.run_ordered"
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and counts."""
    spans = tracer.spans
    own = self_time_by_name(spans)
    v = tracer.values
    calls: dict[str, int] = defaultdict(int)
    for s in spans:
        calls[s.name] += 1
    pool = [s for s in spans if s.name == "parallel.run_ordered"]
    pool_ids = {s.span_id for s in pool}
    busy = sum(s.end - s.start for s in spans if s.parent in pool_ids)
    pool_capacity = sum((s.end - s.start) * tracer.pool_calls[s.span_id] for s in pool)
    metrics = {m: sum(own.get(n, 0.0) for n in names) for m, names in SELF_TIME.items()}
    metrics.update({
        "schema.records": v["schema.records"],
        "transactions.support_count_calls": calls["transactions.support_count"],
        "apriori.candidates": v["apriori.candidates"],
        "apriori.frequent_itemsets": v["apriori.frequent_itemsets"],
        "apriori.candidate_yield": _ratio(v["apriori.frequent_k2plus"], v["apriori.candidates"]),
        "rules.generated": v["rules.generated"],
        "rules.kept": v["rules.kept"],
        "rules.prune_keep_ratio": _ratio(v["rules.kept"], v["rules.generated"]),
        "forest.best_partition_calls": calls["forest.best_partition"],
        "forest.tree_nodes": v["forest.tree_nodes"],
        "forest.tree_depth_max": v["forest.tree_depth_max"],
        "forest.oob_coverage": v["forest.oob_coverage"],
        "parallel.run_ordered_s": sum(s.end - s.start for s in pool),
        "parallel.items": v["parallel.items"],
        "parallel.busy_s": busy,
        "parallel.efficiency": _ratio(busy, pool_capacity),
        "cli.self_s": sum(t for name, t in own.items() if name.startswith("cli.cmd_")),
    })
    return metrics


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one wrapped call adds, measured on a no-op in this process."""

    def noop(x):
        return x

    best = float("inf")
    for _ in range(repeats):
        traced = Tracer().wrap("calibrate", noop)
        start = perf_counter()
        for i in range(calls):
            noop(i)
        mid = perf_counter()
        for i in range(calls):
            traced(i)
        end = perf_counter()
        best = min(best, ((end - mid) - (mid - start)) / calls)
    return max(best, 0.0)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    result_path, spans_path, cli_args = Path(argv[0]), Path(argv[1]), argv[3:]
    import rulekit.cli

    tracer = Tracer()
    install(tracer)
    start = perf_counter()
    code = rulekit.cli.main(cli_args)
    end = perf_counter()
    metrics = layer_metrics(tracer)
    coverage = attributed_share(tracer.spans, start, end, REPORTED.__contains__)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for s in sorted(tracer.spans, key=lambda s: s.start):
            fh.write(json.dumps([s.span_id, s.name, s.parent, s.start - start, s.end - start]))
            fh.write("\n")
    result = {
        "exit_code": code,
        "main_wall_s": end - start,
        "coverage": coverage,
        "min_coverage": MIN_COVERAGE,
        "spans": len(tracer.spans),
        # Estimated cost of tracing: spans times the cost of one wrapped call.
        "overhead_s": len(tracer.spans) * span_cost(),
        "metrics": metrics,
    }
    result_path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
