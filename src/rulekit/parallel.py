"""Ordered map over work items.

Items run one after another on the calling thread; ``threads`` is accepted
and ignored, because worker threads made every measured run slower.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def run_ordered(fn: Callable[[T], R], items: Iterable[T], threads: int = 1) -> List[R]:
    return [fn(x) for x in items]
