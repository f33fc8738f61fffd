"""Categorical pattern mining over dictionary-validated records.

The pipeline: ingest and filter categorical records against a data
dictionary, rank variables with a random forest's permutation importance,
encode records as transactions, mine frequent itemsets, and score, prune,
and rank association rules, with CSV/JSON/SVG report artifacts throughout.
"""

from .apriori import FrequentItemsets, SupportSpec, mine_frequent
from .errors import DictionaryError, IngestError, RulekitError, ValidationError
from .forest import (
    Forest,
    ForestConfig,
    ImportanceReport,
    mda_importance,
    oob_predict,
    select_top_k,
    train,
)
from .report import Artifact, ReportBundle
from .rules import CaseResult, MiningCase, Rule, RuleTable, generate_rules, \
    prune_redundant, rank_rules, run_case, score
from .schema import (
    DataDictionary,
    FilterStep,
    Record,
    RecordSet,
    UnknownPolicy,
    VariableSchema,
    cross_tabulate,
    filter_records,
    ingest,
    load_dictionary,
)
from .transactions import ItemUniverse, TransactionSet, encode, item_frequencies, \
    support_count

__version__ = "0.1.0"

__all__ = [
    "Artifact",
    "CaseResult",
    "DataDictionary",
    "DictionaryError",
    "FilterStep",
    "Forest",
    "ForestConfig",
    "FrequentItemsets",
    "ImportanceReport",
    "IngestError",
    "ItemUniverse",
    "MiningCase",
    "Record",
    "RecordSet",
    "ReportBundle",
    "Rule",
    "RuleTable",
    "RulekitError",
    "SupportSpec",
    "TransactionSet",
    "UnknownPolicy",
    "ValidationError",
    "VariableSchema",
    "cross_tabulate",
    "encode",
    "filter_records",
    "generate_rules",
    "ingest",
    "item_frequencies",
    "load_dictionary",
    "mda_importance",
    "mine_frequent",
    "oob_predict",
    "prune_redundant",
    "rank_rules",
    "run_case",
    "score",
    "select_top_k",
    "support_count",
    "train",
    "__version__",
]
