"""Thread-count validation and the ordered map that the gap scan runs on.

Every computation runs on the calling thread, so the output is identical
for any thread count; the count is still validated where it is accepted.
"""

from __future__ import annotations

import os

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


def ordered_map(fn, items) -> list:
    """Map ``fn`` over ``items`` on the calling thread, in input order."""
    return [fn(item) for item in items]
