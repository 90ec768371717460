"""The ordered map that the gap scan runs its doubling chains on."""


def ordered_map(fn, items) -> list:
    """Map ``fn`` over ``items`` on the calling thread, in input order."""
    return [fn(item) for item in items]
