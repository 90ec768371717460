"""Thread-count validation and the ordered map that the gap scan runs on.

Every computation runs on the calling thread, so the output is identical
for any thread count; the count is still validated where it is accepted.
"""

from __future__ import annotations

from .errors import InvalidParameterError


def resolve_thread_count(threads: int | None = None) -> int:
    """``threads``, or 1 when it is None; a count below 1 is refused."""
    if threads is None:
        return 1
    if threads < 1:
        raise InvalidParameterError(f"thread count must be >= 1, got {threads}")
    return threads


def ordered_map(fn, items) -> list:
    """Map ``fn`` over ``items`` on the calling thread, in input order."""
    return [fn(item) for item in items]
