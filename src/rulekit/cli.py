"""Command-line front end: describe, select-vars, mine, and pipeline.

A single JSON run configuration drives everything; flags only pick the
command, the config, and cheap overrides (output directory, seed).
``load_config`` maps the config's top-level object, its ``forest`` object
and each of its cases onto ``RunConfig``, ``ForestConfig`` and
``MiningCase`` by field name; those classes own their defaults and checks.
The top-level ``seed`` seeds ``ForestConfig``. A flag replaces a config
value only after that value has passed its check, so a config is valid or
not whatever the flags. Exit codes: 0 on success, 2 for configuration or
validation problems, 1 for runtime and I/O failures. Error messages on
stderr name the failing stage.

Every file a command writes is added to one ``ReportBundle``, whose
``manifest.json`` lists each with its sha256. ``mine`` and ``pipeline``
refuse a config with no cases before they create the output directory. A
``mine`` without ``features`` reads ``selected_variables.json`` from the
output directory and refuses one that ranks variables for another response.

``--threads`` is still parsed and checked, a value below 1 exiting 2, but
nothing reads it: every stage runs on one OS thread. Importing the package
sets ``OPENBLAS_NUM_THREADS=1`` unless ``OPENBLAS_NUM_THREADS`` or
``OMP_NUM_THREADS`` is already set, so numpy's BLAS starts no worker pool.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import logging
import re
import sys
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

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
    FilterStep,
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

_PATHS = ("dictionary", "data", "output_dir")  # taken against the config's directory


def _unknown_policy(value: object) -> UnknownPolicy:
    if not isinstance(value, str):
        raise ValidationError(f"'unknown_policy' must be a string, got {value!r}")
    try:
        return UnknownPolicy(value.lower())
    except ValueError:
        raise ValidationError(
            f"unknown_policy must be 'reject' or 'coerce', got {value.lower()!r}"
        ) from None


def _cases(value: object) -> tuple[MiningCase, ...]:
    if not isinstance(value, list):
        raise ValidationError("'cases' must be an array")
    cases = []
    for i, entry in enumerate(value):
        if isinstance(entry, Mapping) and "consequent" not in entry:
            entry = {**entry, "consequent": None}  # unconstrained: every item is tried
        cases.append(_from_json(MiningCase, entry, f"cases[{i}]"))
    return tuple(cases)


# Readers of the keys whose JSON form is not the stored value.
_READERS = {
    "unknown_policy": _unknown_policy,
    "filter_steps": load_filter_steps,
    "features": lambda names: None if names is None else _names(names, "'features'"),
    "crosstab_rows": lambda names: None if names is None else _names(names, "'crosstab_rows'"),
    "cases": _cases,
    "consequent": lambda token: None if token is None else parse_item_token(str(token)),
    "min_support": SupportSpec.parse,
}


@dataclass(frozen=True)
class RunConfig:
    """The config's top-level keys, each a field but ``seed``, which seeds ``forest``.

    ``load_config`` takes the three paths against the config file's directory.
    """

    dictionary: Path
    data: Path
    response: str
    forest: ForestConfig
    record_id_column: str = DEFAULT_RECORD_ID_COLUMN
    unknown_policy: UnknownPolicy = UnknownPolicy.REJECT
    filter_steps: tuple[FilterStep, ...] = ()
    features: tuple[str, ...] | None = None
    top_k_features: int = 10
    cases: tuple[MiningCase, ...] = ()
    output_dir: Path = Path("out")
    crosstab_rows: tuple[str, ...] | None = None
    full_universe: bool = False

    def __post_init__(self) -> None:
        # string values are taken as they are, never converted with str()
        for name in (*_PATHS, "response", "record_id_column"):
            value = getattr(self, name)
            if not isinstance(value, (str, Path) if name in _PATHS else str):
                raise ValidationError(f"{name!r} must be a string, got {value!r}")
        for name in _PATHS:
            object.__setattr__(self, name, Path(getattr(self, name)))
        k = self.top_k_features
        if isinstance(k, bool) or not isinstance(k, int):
            raise ValidationError(f"'top_k_features' must be an integer, got {k!r}")
        if k < 1:
            raise ValidationError("top_k_features must be >= 1")
        if not isinstance(self.full_universe, bool):  # the string "false" would read as true
            raise ValidationError(
                f"'full_universe' must be true or false, got {self.full_universe!r}"
            )
        if self.features is not None and not self.features:
            raise ValidationError("'features', when given, must be nonempty")
        names = [c.name for c in self.cases]
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ValidationError(
                f"case names must be distinct; repeated: {', '.join(map(repr, repeated))}"
            )
        _file_stems(names, "cases")


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


def _from_json(cls: type, raw: object, where: str, *, label_readers: bool = True, **fixed):
    """``cls`` built from the JSON object ``raw``, whose keys are its field names.

    The fields in ``fixed`` are not settable from ``raw``. An unknown key, or a
    missing one whose field has no default, is refused naming ``where``; ``cls``
    checks the values. A reader's error is prefixed with ``where`` when
    ``label_readers``; the top level's readers name their key themselves.
    """
    if not isinstance(raw, Mapping):
        raise ValidationError(f"{where} must be an object")
    settable = [f for f in fields(cls) if f.name not in fixed]
    unknown = set(raw) - {f.name for f in settable}
    if unknown:
        raise ValidationError(f"{where} has unknown key(s): {', '.join(sorted(unknown))}")
    for f in settable:
        if f.name not in raw and f.default is MISSING:
            raise ValidationError(f"{where} is missing {f.name!r}")
    try:
        values = {k: _READERS[k](v) if k in _READERS else v for k, v in raw.items()}
    except ValidationError as exc:
        if not label_readers:
            raise
        raise ValidationError(f"{where}: {exc}") from exc
    return cls(**values, **fixed)


def _names(value: object, what: str) -> tuple[str, ...]:
    """An array of distinct variable names; a bare string or number is refused."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValidationError(f"{what} must be an array of strings")
    repeated = sorted({v for v in value if value.count(v) > 1})
    if repeated:
        raise ValidationError(f"{what} repeats {', '.join(map(repr, repeated))}")
    return tuple(value)


def _require_file(path: Path, what: str) -> None:
    if not path.exists():
        raise ValidationError(f"{what} {path} does not exist")
    if not path.is_file():
        raise ValidationError(f"{what} {path} is not a regular file")


def load_config(
    path: str | Path,
    out_dir: str | Path | None = None,
    seed: int | None = None,
) -> RunConfig:
    """Parse and validate the JSON run configuration.

    Relative paths are taken against the config file's directory; the config
    and the input paths it references must be regular files. ``out_dir`` and
    ``seed`` are the CLI overrides; the values they replace are checked all
    the same.
    """
    path = Path(path)
    _require_file(path, "config path")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("config must be a JSON object")
    forest = _from_json(
        ForestConfig, raw.pop("forest", {}), "'forest'", seed=raw.pop("seed", ForestConfig.seed)
    )
    if seed is not None:
        forest = replace(forest, seed=seed)
    cfg = _from_json(RunConfig, raw, "config", label_readers=False, forest=forest)
    base = path.resolve().parent
    cfg = replace(
        cfg,
        dictionary=base / cfg.dictionary,
        data=base / cfg.data,
        output_dir=base / cfg.output_dir if out_dir is None else Path(out_dir),
    )
    for p in (cfg.dictionary, cfg.data):
        _require_file(p, "referenced path")
    return cfg


def config_digest(cfg: RunConfig) -> str:
    """Hash of the analysis parameters: every field but the paths, and the seed."""
    semantic = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name not in _PATHS}
    semantic["seed"] = cfg.forest.seed
    blob = json.dumps(semantic, sort_keys=True, default=_jsonable).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _jsonable(value: object) -> object:
    """The JSON form of a config value that ``json`` cannot write itself."""
    if isinstance(value, MiningCase):
        return value.describe()
    if isinstance(value, UnknownPolicy):
        return value.value
    if isinstance(value, frozenset):  # a filter step's categories
        return sorted(value)
    return asdict(value)  # ForestConfig, FilterStep


def dataset_digest(cfg: RunConfig) -> str:
    """sha256 of the dictionary's bytes, a NUL and the data file's bytes,
    read a fixed-size block at a time whatever the files' size."""
    h = hashlib.sha256()
    for path, end in ((cfg.dictionary, b"\x00"), (cfg.data, b"")):
        with open(path, "rb") as fh:
            while block := fh.read(1 << 16):
                h.update(block)
        h.update(end)
    return h.hexdigest()


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("_") or "case"


def _file_stems(names: Iterable[str], what: str) -> dict[str, str]:
    """File stem -> name for each of ``names``; two names with one stem are refused."""
    stems: dict[str, str] = {}
    for name in names:
        clash = stems.setdefault(_safe_name(name), name)
        if clash != name:
            raise ValidationError(
                f"{what} {clash!r} and {name!r} must stay distinct after sanitization"
            )
    return stems


def _describe(cfg: RunConfig, rs: RecordSet, bundle: ReportBundle, out: Path) -> None:
    with _stage("describe"):
        if cfg.crosstab_rows is not None:
            row_vars = cfg.crosstab_rows
        else:
            row_vars = tuple(v for v in rs.dictionary.names if v != cfg.response)
        files = _file_stems(row_vars, "crosstab rows")
        tables = {stem: cross_tabulate(rs, var, cfg.response) for stem, var in files.items()}
        value_counts = {
            var.name: dict(
                zip(var.categories, np.bincount(codes, minlength=len(var.categories)).tolist())
            )
            for var, codes in zip(rs.dictionary.variables, rs.codes)
        }
        summary = {
            "record_count": len(rs),
            "filter_log": [asdict(e) for e in rs.filter_log],
            "value_counts": value_counts,
        }
        bundle.add(write_json(out / "summary.json", summary))
        for stem, table in tables.items():
            bundle.add(*emit_crosstab(table, out / f"crosstab_{stem}.csv"))


def _select_vars(
    cfg: RunConfig, rs: RecordSet, bundle: ReportBundle, out: Path
) -> tuple[str, ...]:
    with _stage("select-vars"):
        if cfg.features is not None:
            features = cfg.features
        else:
            features = tuple(v for v in rs.dictionary.names if v != cfg.response)
        forest = train(rs, cfg.response, features, cfg.forest)
        report = mda_importance(forest)
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
        bundle.add(
            export_importance_json(report, out / "importance.json"),
            *emit_importance_chart(report, out / "importance.svg"),
            write_json(
                out / "selected_variables.json",
                {"response": cfg.response, "selected": list(selected)},
            ),
        )
        return selected


def _mine(
    cfg: RunConfig,
    rs: RecordSet,
    bundle: ReportBundle,
    out: Path,
    features: tuple[str, ...] | None,
) -> None:
    with _stage("mine"):
        if features is None:
            selected_file = out / "selected_variables.json"
            if cfg.features is not None:
                features = cfg.features
            elif selected_file.exists():
                features = _read_selection(selected_file, cfg.response)
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
        # the dictionary judges a consequent: the universe lacks categories no record holds
        for case in cfg.cases:
            if case.consequent is not None:
                rs.dictionary.category_index(*case.consequent)
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
            bundle.add(
                *emit_rule_table(result, out / f"case_{stem}_rules.csv"),
                export_case_csv(result, out / f"case_{stem}_rules_full.csv"),
                export_case_metadata(result, out / f"case_{stem}_meta.json"),
            )
            if result.rules:  # run_case has warned of an empty case
                bundle.add(
                    *emit_rule_scatter(result.rules, out / f"case_{stem}_scatter.svg")
                )


def _read_selection(path: Path, response: str) -> tuple[str, ...]:
    """The ``selected`` names of a select-vars output file made for ``response``."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path} must hold a JSON object")
    if doc.get("response") != response:
        raise ValidationError(
            f"{path} ranks variables for response {doc.get('response')!r}, "
            f"not the config's response {response!r}"
        )
    return _names(doc.get("selected"), f"'selected' in {path}")


def _run(cfg: RunConfig, describe: bool = False, select: bool = False,
         mine: bool = False) -> int:
    """Ingest and filter once, run the chosen stages in order, write one manifest."""
    out = cfg.output_dir
    with _stage("config"):
        if mine and not cfg.cases:
            raise ValidationError("config has no mining cases")
        out.mkdir(parents=True, exist_ok=True)
        bundle = ReportBundle(
            config_hash=config_digest(cfg), dataset_hash=dataset_digest(cfg)
        )
    with _stage("ingest"):
        dictionary = load_dictionary(cfg.dictionary)
        rs = ingest(
            cfg.data, dictionary, cfg.unknown_policy, cfg.record_id_column
        )
        logger.info("ingested %d records", len(rs))
    with _stage("filter"):
        if cfg.filter_steps:
            rs = filter_records(rs, cfg.filter_steps)
            logger.info("filtered to %d records", len(rs))
    if describe:
        _describe(cfg, rs, bundle, out)
    selected = _select_vars(cfg, rs, bundle, out) if select else None
    if mine:
        _mine(cfg, rs, bundle, out, features=selected)
    with _stage("report"):
        bundle.write_manifest(out / "manifest.json")
    return 0


def cmd_describe(cfg: RunConfig) -> int:
    return _run(cfg, describe=True)


def cmd_select_vars(cfg: RunConfig) -> int:
    return _run(cfg, select=True)


def cmd_mine(cfg: RunConfig) -> int:
    return _run(cfg, mine=True)


def cmd_pipeline(cfg: RunConfig) -> int:
    """describe, select-vars, and mine over a single ingest, one manifest."""
    return _run(cfg, describe=True, select=True, mine=True)


_COMMANDS = {
    "describe": cmd_describe,
    "select-vars": cmd_select_vars,
    "mine": cmd_mine,
    "pipeline": cmd_pipeline,
}


_HELP = {
    "describe": "ingest, filter, and write summary plus cross-tabulations",
    "select-vars": "train the forest and write the importance ranking",
    "mine": "mine association rules for every configured case",
    "pipeline": "describe, select-vars, and mine in one run",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rulekit",
        description=(
            "Categorical pattern mining: descriptive cross-tabs, forest-based\n"
            "variable selection, and association rules with report artifacts."
        ),
        epilog="commands:\n" + "".join(f"  {c:<13} {h}\n" for c, h in _HELP.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_HELP, help="the command to run (see below)")
    parser.add_argument("--config", required=True, help="JSON run configuration path")
    parser.add_argument("--out", help="output directory (overrides the config)")
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted and checked (at least 1); has no effect",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the config's seed")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
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
            if args.threads < 1:
                raise ValidationError(f"threads must be >= 1, got {args.threads}")
            cfg = load_config(args.config, out_dir=args.out, seed=args.seed)
        return _COMMANDS[args.command](cfg)
    except CliFailure as failure:
        print(
            f"rulekit: {args.command} failed in stage '{failure.stage}': {failure}",
            file=sys.stderr,
        )
        return failure.code


def console_main() -> None:
    code = main()
    gc.freeze()  # the collection the interpreter runs at exit skips frozen objects
    sys.exit(code)
