"""Deterministic thread-pool helpers.

Work items are independent and results are merged in input order, so the
output is identical for any thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from .errors import InvalidParameterError

THREADS_ENV_VAR = "NECKLACE_WALKS_THREADS"


def resolve_thread_count(threads: int | None = None) -> int:
    """Explicit argument wins, then the environment variable, then 1."""
    if threads is not None:
        if threads < 1:
            raise InvalidParameterError(f"thread count must be >= 1, got {threads}")
        return threads
    env = os.environ.get(THREADS_ENV_VAR, "").strip()
    if env:
        try:
            value = int(env)
        except ValueError:
            return 1
        if value >= 1:
            return value
    return 1


def ordered_map(fn, items, threads: int | None = None) -> list:
    """Map ``fn`` over ``items``, preserving input order in the result."""
    count = resolve_thread_count(threads)
    items = list(items)
    if count == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=count) as pool:
        return list(pool.map(fn, items))
