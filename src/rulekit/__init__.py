"""Categorical pattern mining over dictionary-validated records.

The pipeline: ingest and filter categorical records against a data
dictionary, rank variables with a random forest's permutation importance,
encode records as transactions, mine frequent itemsets, and score, prune,
and rank association rules, with CSV/JSON/SVG report artifacts throughout.
"""

import os

# Importing numpy loads OpenBLAS, which starts a worker pool sized to the
# machine unless one of these variables is set. Nothing here uses it: the one
# BLAS call, the matrix product in forest._score_partitions, sums integers
# below 2**53, exact in float64 in any order, so the thread count cannot
# change a result. On a 2-core VM the pool cost each process about 65 ms of
# start-up, or about 0.12 s of CPU spinning beside the main thread. A caller's
# setting of either variable is kept; child processes inherit this one.
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

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
from .report import ReportBundle
from .rules import CaseResult, MiningCase, Rule, RuleTable, generate_rules, \
    prune_redundant, rank_rules, run_case, score
from .schema import (
    DataDictionary,
    FilterStep,
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
