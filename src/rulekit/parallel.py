"""Ordered map over work items, run one after another on the calling thread.

It stays a module of its own only because the benchmark tracer patches
``run_ordered`` in ``apriori`` and ``forest`` to time each work item, and
passes it a third argument, which is ignored.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def run_ordered(fn: Callable[[T], R], items: Iterable[T], threads: int = 1) -> List[R]:
    return [fn(x) for x in items]
