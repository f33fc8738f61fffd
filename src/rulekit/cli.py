"""Command-line front end: describe, select-vars, mine, and pipeline.

A single JSON run configuration drives everything; flags only pick the
command, the config, and cheap overrides (output directory, seed).
Exit codes: 0 on success, 2 for configuration or validation problems, 1 for
runtime and I/O failures. Error messages on stderr name the failing stage.

``--threads`` (or RULEKIT_THREADS) is still parsed and checked, a value
below 1 exiting 2, but nothing reads it: every stage runs on one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .apriori import SupportSpec
from .errors import RulekitError, ValidationError
from .forest import (
    ForestConfig,
    export_importance_json,
    mda_importance,
    select_top_k,
    train,
)
from .io_utils import write_json
from .report import ReportBundle, emit_crosstab, emit_importance_chart, \
    emit_item_freq_chart, emit_rule_scatter, emit_rule_table
from .rules import MiningCase, export_case_csv, export_case_metadata, run_case
from .schema import (
    DEFAULT_RECORD_ID_COLUMN,
    RecordSet,
    UnknownPolicy,
    cross_tabulate,
    filter_records,
    ingest,
    load_dictionary,
    load_filter_steps,
)
from .transactions import encode, item_frequencies, parse_item_token

logger = logging.getLogger(__name__)

_CONFIG_KEYS = {
    "dictionary",
    "data",
    "record_id_column",
    "unknown_policy",
    "filter_steps",
    "response",
    "features",
    "top_k_features",
    "forest",
    "cases",
    "output_dir",
    "seed",
    "crosstab_rows",
    "full_universe",
}
_FOREST_KEYS = {"n_trees", "mtry", "min_node_size", "max_depth", "seed"}
_CASE_KEYS = {
    "name",
    "consequent",
    "min_support",
    "min_confidence",
    "min_lift",
    "max_rule_items",
    "top_k",
}


@dataclass(frozen=True)
class RunConfig:
    dictionary_path: Path
    data_path: Path
    record_id_column: str
    unknown_policy: UnknownPolicy
    filter_steps: tuple
    response: str
    features: tuple[str, ...] | None
    top_k_features: int
    forest: ForestConfig
    cases: tuple[MiningCase, ...]
    output_dir: Path
    seed: int
    crosstab_rows: tuple[str, ...] | None
    full_universe: bool


class CliFailure(Exception):
    """Carries the failing stage name and the process exit code."""

    def __init__(self, stage: str, message: str, code: int) -> None:
        super().__init__(message)
        self.stage = stage
        self.code = code


@contextlib.contextmanager
def _stage(name: str) -> Iterator[None]:
    try:
        yield
    except CliFailure:
        raise
    except ValidationError as exc:
        raise CliFailure(name, str(exc), 2) from exc
    except (RulekitError, OSError) as exc:
        raise CliFailure(name, str(exc), 1) from exc
    except Exception as exc:  # unexpected; still report the stage
        logger.debug("stage %s failed unexpectedly", name, exc_info=True)
        raise CliFailure(name, f"{type(exc).__name__}: {exc}", 1) from exc


def _number(raw: Mapping, key: str, default: object, kind: type = int, where: str = ""):
    """``raw[key]`` (else ``default``) as a JSON number of ``kind``: int, or float.

    A bool, a string, null or (for ``int``) a fraction is refused, naming the key.
    """
    value = raw.get(key, default)
    allowed = (int,) if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, allowed):
        noun = "an integer" if kind is int else "a number"
        raise ValidationError(f"{where}{key!r} must be {noun}, got {value!r}")
    return kind(value)


def _optional_int(raw: Mapping, key: str, where: str = "") -> int | None:
    return None if raw.get(key) is None else _number(raw, key, None, int, where)


def _parse_case(entry: object, index: int) -> MiningCase:
    if not isinstance(entry, Mapping):
        raise ValidationError(f"cases[{index}] must be an object")
    unknown = set(entry) - _CASE_KEYS
    if unknown:
        raise ValidationError(
            f"cases[{index}] has unknown key(s): {', '.join(sorted(unknown))}"
        )
    for key in ("name", "min_support", "min_confidence"):
        if key not in entry:
            raise ValidationError(f"cases[{index}] is missing {key!r}")
    consequent = entry.get("consequent")
    item = parse_item_token(str(consequent)) if consequent is not None else None
    where = f"cases[{index}] "
    return MiningCase(
        name=str(entry["name"]),
        consequent=item,
        min_support=SupportSpec.parse(entry["min_support"]),
        min_confidence=_number(entry, "min_confidence", None, float, where),
        min_lift=_number(entry, "min_lift", 1.1, float, where),
        max_rule_items=_number(entry, "max_rule_items", 4, int, where),
        top_k=_number(entry, "top_k", 20, int, where),
    )


def _names(value: object, what: str) -> tuple[str, ...]:
    """An array of distinct variable names; a bare string or number is refused."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValidationError(f"{what} must be an array of strings")
    repeated = sorted({v for v in value if value.count(v) > 1})
    if repeated:
        raise ValidationError(f"{what} repeats {', '.join(map(repr, repeated))}")
    return tuple(value)


def _optional_names(raw: Mapping, key: str) -> tuple[str, ...] | None:
    value = raw.get(key)
    return None if value is None else _names(value, repr(key))


def load_config(
    path: str | Path,
    out_dir: str | Path | None = None,
    seed: int | None = None,
) -> RunConfig:
    """Parse and validate the JSON run configuration.

    Relative paths are taken against the config file's directory; referenced
    input paths must exist. ``out_dir`` and ``seed`` are the CLI overrides.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"config path {path} does not exist")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ValidationError(f"config has unknown key(s): {', '.join(sorted(unknown))}")
    for key in ("dictionary", "data", "response"):
        if key not in raw:
            raise ValidationError(f"config is missing {key!r}")

    base = path.resolve().parent

    def respath(p: object) -> Path:
        q = Path(str(p))
        return q if q.is_absolute() else base / q

    dictionary_path = respath(raw["dictionary"])
    data_path = respath(raw["data"])
    for p in (dictionary_path, data_path):
        if not p.exists():
            raise ValidationError(f"referenced path {p} does not exist")

    global_seed = seed if seed is not None else _number(raw, "seed", 0)
    forest_raw = raw.get("forest", {})
    if not isinstance(forest_raw, Mapping):
        raise ValidationError("'forest' must be an object")
    unknown = set(forest_raw) - _FOREST_KEYS
    if unknown:
        raise ValidationError(f"forest has unknown key(s): {', '.join(sorted(unknown))}")
    forest_cfg = ForestConfig(
        n_trees=_number(forest_raw, "n_trees", 500, int, "forest "),
        mtry=_optional_int(forest_raw, "mtry", "forest "),
        min_node_size=_number(forest_raw, "min_node_size", 1, int, "forest "),
        max_depth=_optional_int(forest_raw, "max_depth", "forest "),
        seed=_number(forest_raw, "seed", global_seed, int, "forest "),
    )

    policy_name = str(raw.get("unknown_policy", "reject")).lower()
    try:
        policy = UnknownPolicy(policy_name)
    except ValueError:
        raise ValidationError(
            f"unknown_policy must be 'reject' or 'coerce', got {policy_name!r}"
        ) from None

    cases_raw = raw.get("cases", [])
    if not isinstance(cases_raw, Sequence) or isinstance(cases_raw, (str, bytes)):
        raise ValidationError("'cases' must be an array")
    cases = tuple(_parse_case(entry, i) for i, entry in enumerate(cases_raw))
    names = [c.name for c in cases]
    if len(set(names)) != len(names):
        raise ValidationError("case names must be distinct")
    stems = [_safe_name(name) for name in names]
    if len(set(stems)) != len(stems):
        raise ValidationError("case names must stay distinct after sanitization")

    features = _optional_names(raw, "features")
    if features is not None and not features:
        raise ValidationError("'features', when given, must be nonempty")
    crosstab_rows = _optional_names(raw, "crosstab_rows")
    top_k_features = _number(raw, "top_k_features", 10)
    if top_k_features < 1:
        raise ValidationError("top_k_features must be >= 1")
    full_universe = raw.get("full_universe", False)
    if not isinstance(full_universe, bool):  # the string "false" would read as true
        raise ValidationError(f"'full_universe' must be true or false, got {full_universe!r}")

    return RunConfig(
        dictionary_path=dictionary_path,
        data_path=data_path,
        record_id_column=str(raw.get("record_id_column", DEFAULT_RECORD_ID_COLUMN)),
        unknown_policy=policy,
        filter_steps=load_filter_steps(raw.get("filter_steps", [])),
        response=str(raw["response"]),
        features=features,
        top_k_features=top_k_features,
        forest=forest_cfg,
        cases=cases,
        output_dir=Path(out_dir) if out_dir is not None else respath(
            raw.get("output_dir", "out")
        ),
        seed=global_seed,
        crosstab_rows=crosstab_rows,
        full_universe=full_universe,
    )


def config_digest(cfg: RunConfig) -> str:
    """Hash of the analysis parameters; paths and thread count excluded."""
    semantic = {
        "record_id_column": cfg.record_id_column,
        "unknown_policy": cfg.unknown_policy.value,
        "filter_steps": [
            {"variable": s.variable, "keep": sorted(s.keep)} for s in cfg.filter_steps
        ],
        "response": cfg.response,
        "features": list(cfg.features) if cfg.features is not None else None,
        "top_k_features": cfg.top_k_features,
        "forest": {
            "n_trees": cfg.forest.n_trees,
            "mtry": cfg.forest.mtry,
            "min_node_size": cfg.forest.min_node_size,
            "max_depth": cfg.forest.max_depth,
            "seed": cfg.forest.seed,
        },
        "cases": [case.describe() for case in cfg.cases],
        "seed": cfg.seed,
        "full_universe": cfg.full_universe,
        "crosstab_rows": list(cfg.crosstab_rows)
        if cfg.crosstab_rows is not None
        else None,
    }
    blob = json.dumps(semantic, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def dataset_digest(cfg: RunConfig) -> str:
    h = hashlib.sha256()
    h.update(cfg.dictionary_path.read_bytes())
    h.update(b"\x00")
    h.update(cfg.data_path.read_bytes())
    return h.hexdigest()


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("_") or "case"


def _ensure_out(cfg: RunConfig) -> Path:
    with _stage("config"):
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
    return cfg.output_dir


def _bundle(cfg: RunConfig) -> ReportBundle:
    with _stage("config"):
        return ReportBundle(
            config_hash=config_digest(cfg), dataset_hash=dataset_digest(cfg)
        )


def _prepare(cfg: RunConfig) -> RecordSet:
    with _stage("ingest"):
        dictionary = load_dictionary(cfg.dictionary_path)
        rs = ingest(
            cfg.data_path, dictionary, cfg.unknown_policy, cfg.record_id_column
        )
        logger.info("ingested %d records", len(rs))
    with _stage("filter"):
        if cfg.filter_steps:
            rs = filter_records(rs, cfg.filter_steps)
            logger.info("filtered to %d records", len(rs))
    return rs


def _describe(cfg: RunConfig, rs: RecordSet, bundle: ReportBundle, out: Path) -> None:
    with _stage("describe"):
        if cfg.crosstab_rows is not None:
            row_vars = cfg.crosstab_rows
        else:
            row_vars = tuple(v for v in rs.dictionary.names if v != cfg.response)
        tables = {var: cross_tabulate(rs, var, cfg.response) for var in row_vars}
        value_counts = {
            var.name: dict(
                zip(var.categories, np.bincount(codes, minlength=len(var.categories)).tolist())
            )
            for var, codes in zip(rs.dictionary.variables, rs.codes)
        }
        write_json(
            out / "summary.json",
            {
                "record_count": len(rs),
                "filter_log": [
                    {
                        "description": e.description,
                        "records_before": e.records_before,
                        "records_after": e.records_after,
                    }
                    for e in rs.filter_log
                ],
                "value_counts": value_counts,
            },
        )
        for var in row_vars:
            bundle.add(*emit_crosstab(tables[var], out / f"crosstab_{_safe_name(var)}.csv"))


def _select_vars(
    cfg: RunConfig, rs: RecordSet, bundle: ReportBundle, out: Path
) -> tuple[str, ...]:
    with _stage("select-vars"):
        if cfg.features is not None:
            features = cfg.features
        else:
            features = tuple(v for v in rs.dictionary.names if v != cfg.response)
        forest = train(rs, cfg.response, features, cfg.forest)
        report = mda_importance(forest, rs, seed=cfg.forest.seed)
        logger.info(
            "forest OOB accuracy %.4f over %d features",
            report.oob_accuracy,
            len(features),
        )
        k = min(cfg.top_k_features, len(report.entries))
        if k < cfg.top_k_features:
            logger.warning(
                "top_k_features %d exceeds the %d available features; using %d",
                cfg.top_k_features,
                len(report.entries),
                k,
            )
        selected = select_top_k(report, k)
        export_importance_json(report, out / "importance.json")
        bundle.add(*emit_importance_chart(report, out / "importance.svg"))
        write_json(
            out / "selected_variables.json",
            {"response": cfg.response, "selected": list(selected)},
        )
        return selected


def _mine(
    cfg: RunConfig,
    rs: RecordSet,
    bundle: ReportBundle,
    out: Path,
    features: tuple[str, ...] | None = None,
) -> None:
    with _stage("mine"):
        if not cfg.cases:
            raise ValidationError("config has no mining cases")
        if features is None:
            selected_file = out / "selected_variables.json"
            if cfg.features is not None:
                features = cfg.features
            elif selected_file.exists():
                features = _read_selection(selected_file)
                logger.info("mining variables taken from %s", selected_file)
            else:
                raise ValidationError(
                    "no feature list: set 'features' in the config or run "
                    "select-vars first"
                )
        wanted = set(features)
        for case in cfg.cases:
            if case.consequent is not None:
                wanted.add(case.consequent[0])
        selected_vars = [v for v in rs.dictionary.names if v in wanted]
        missing = wanted - set(selected_vars)
        if missing:
            raise ValidationError(
                f"unknown mining variable(s): {', '.join(sorted(missing))}"
            )
        ts = encode(rs, selected_vars, full_universe=cfg.full_universe)
        logger.info(
            "encoded %d transactions over %d items",
            ts.n_transactions,
            len(ts.universe),
        )
        bundle.add(*emit_item_freq_chart(item_frequencies(ts), out / "item_frequency.svg"))
        for case in cfg.cases:
            result = run_case(ts, case)
            stem = _safe_name(case.name)
            bundle.add(*emit_rule_table(result, out / f"case_{stem}_rules.csv"))
            export_case_csv(result, out / f"case_{stem}_rules_full.csv")
            export_case_metadata(result, out / f"case_{stem}_meta.json")
            if result.rules:
                bundle.add(
                    *emit_rule_scatter(result.rules, out / f"case_{stem}_scatter.svg")
                )
            else:
                logger.warning("case %r yielded no rules; scatter skipped", case.name)


def _read_selection(path: Path) -> tuple[str, ...]:
    """The ``selected`` names of a select-vars output file."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path} must hold a JSON object")
    return _names(doc.get("selected"), f"'selected' in {path}")


def _write_manifest(bundle: ReportBundle, out: Path) -> None:
    with _stage("report"):
        bundle.write_manifest(out / "manifest.json")


def cmd_describe(cfg: RunConfig) -> int:
    out = _ensure_out(cfg)
    bundle = _bundle(cfg)
    rs = _prepare(cfg)
    _describe(cfg, rs, bundle, out)
    _write_manifest(bundle, out)
    return 0


def cmd_select_vars(cfg: RunConfig) -> int:
    out = _ensure_out(cfg)
    bundle = _bundle(cfg)
    rs = _prepare(cfg)
    _select_vars(cfg, rs, bundle, out)
    _write_manifest(bundle, out)
    return 0


def cmd_mine(cfg: RunConfig) -> int:
    out = _ensure_out(cfg)
    bundle = _bundle(cfg)
    rs = _prepare(cfg)
    _mine(cfg, rs, bundle, out)
    _write_manifest(bundle, out)
    return 0


def cmd_pipeline(cfg: RunConfig) -> int:
    """describe, select-vars, and mine over a single ingest, one manifest."""
    out = _ensure_out(cfg)
    bundle = _bundle(cfg)
    rs = _prepare(cfg)
    _describe(cfg, rs, bundle, out)
    selected = _select_vars(cfg, rs, bundle, out)
    _mine(cfg, rs, bundle, out, features=selected)
    _write_manifest(bundle, out)
    return 0


_COMMANDS = {
    "describe": cmd_describe,
    "select-vars": cmd_select_vars,
    "mine": cmd_mine,
    "pipeline": cmd_pipeline,
}


def _resolve_threads(value: int | None) -> int:
    """The ``--threads`` value, else RULEKIT_THREADS, else 1; below 1 is refused."""
    if value is None:
        env = os.environ.get("RULEKIT_THREADS", "").strip()
        if env:
            try:
                value = int(env)
            except ValueError:
                raise ValidationError(
                    f"RULEKIT_THREADS must be an integer, got {env!r}"
                ) from None
        else:
            value = 1
    if value < 1:
        raise ValidationError(f"threads must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rulekit",
        description=(
            "Categorical pattern mining: descriptive cross-tabs, forest-based "
            "variable selection, and association rules with report artifacts."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "describe": "ingest, filter, and write summary plus cross-tabulations",
        "select-vars": "train the forest and write the importance ranking",
        "mine": "mine association rules for every configured case",
        "pipeline": "describe, select-vars, and mine in one run",
    }
    for name, help_text in helps.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run configuration path")
        p.add_argument("--out", help="output directory (overrides the config)")
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help="accepted and checked (default: RULEKIT_THREADS or 1); has no effect",
        )
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        with _stage("config"):
            _resolve_threads(args.threads)
            cfg = load_config(args.config, out_dir=args.out, seed=args.seed)
        return _COMMANDS[args.command](cfg)
    except CliFailure as failure:
        print(
            f"rulekit: {args.command} failed in stage '{failure.stage}': {failure}",
            file=sys.stderr,
        )
        return failure.code


def console_main() -> None:
    sys.exit(main())
