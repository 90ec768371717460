"""Pearls, necklaces and their adjacency Hamiltonians.

A *pearl* is a small undirected graph on vertices 1..M with two designated
root vertices (which may coincide).  A *necklace* is K copies of one pearl
joined into a ring: the out-root of each pearl is connected to the in-root
of the next one, and the last pearl closes the ring back to the first.

Vertices are labeled 1-based as (j, m) with pearl index j in 1..K and
in-pearl index m in 1..M.  The row of vertex (j, m) in any array produced
here is ``(j - 1) * M + (m - 1)``.  File formats use 0-based indices and are
converted at the boundary (see :func:`pearl_from_json`).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, InvalidPearlError

Edge = tuple[int, int]


@dataclass(frozen=True)
class PearlSpec:
    """One pearl: vertex count, edge set and two root vertices; all else is read from these.

    Attributes
    ----------
    m : int
        Number of vertices, labeled 1..m.
    edges : frozenset of (int, int)
        Undirected edges, stored with the smaller endpoint first.
    root_in, root_out : int
        Vertices carrying the links to the previous / next pearl.
    """

    m: int
    edges: frozenset[Edge]
    root_in: int
    root_out: int

    @property
    def single_root(self) -> bool:
        return self.root_in == self.root_out

    @functools.cached_property
    def comb_spacing(self) -> int | None:
        """0 for the cycle, d for the pearl equal to ``make_comb_pearl(d)``, else None."""
        d = self.m - 1                  # a comb has d edges and out-root d; only then build one
        comb = d == 0 or len(self.edges) == d == self.root_out and self == make_comb_pearl(d)
        return d if comb else None

    def adjacency(self) -> np.ndarray:
        """Return the m x m symmetric 0/1 adjacency matrix."""
        p = np.zeros((self.m, self.m))
        for a, b in self.edges:
            p[a - 1, b - 1] = 1.0
            p[b - 1, a - 1] = 1.0
        return p

    def vertex_kind(self, m: int) -> str:
        """Classify vertex m as 'base' / 'tooth' (comb or cycle) or 'v<m0>' (any other pearl)."""
        if self.comb_spacing is not None:
            return "tooth" if m == self.m and self.comb_spacing else "base"
        return f"v{m - 1}"


@dataclass(frozen=True)
class NecklaceSpec:
    """K copies of a pearl arranged in a ring (K >= 3)."""

    pearl: PearlSpec
    K: int

    def __post_init__(self):
        if self.K < 3:
            raise InvalidParameterError(
                f"necklace needs at least 3 pearls, got K={self.K}"
            )

    @property
    def n_vertices(self) -> int:
        return self.K * self.pearl.m

    def flat_index(self, j: int, m: int) -> int:
        """Array row of vertex (j, m), both 1-based."""
        if not (1 <= j <= self.K):
            raise InvalidParameterError(f"pearl index j={j} outside 1..{self.K}")
        if not (1 <= m <= self.pearl.m):
            raise InvalidParameterError(f"vertex index m={m} outside 1..{self.pearl.m}")
        return (j - 1) * self.pearl.m + (m - 1)


def make_custom_pearl(m: int, edges, root_in: int, root_out: int) -> PearlSpec:
    """Validate and build a pearl from an explicit edge list.

    Raises
    ------
    InvalidPearlError
        On an out-of-range vertex, a self-loop, a duplicate edge, or an
        out-of-range root.  The message names the offending item.
    """
    if m < 1:
        raise InvalidPearlError(f"pearl must have at least one vertex, got m={m}")
    seen: set[Edge] = set()
    for edge in edges:
        a, b = edge
        if a == b:
            raise InvalidPearlError(f"self-loop edge ({a}, {b})")
        if not (1 <= a <= m) or not (1 <= b <= m):
            raise InvalidPearlError(f"edge ({a}, {b}) has endpoint outside 1..{m}")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise InvalidPearlError(f"duplicate edge ({a}, {b})")
        seen.add(key)
    for name, r in (("root_in", root_in), ("root_out", root_out)):
        if not (1 <= r <= m):
            raise InvalidPearlError(f"{name}={r} outside 1..{m}")
    return PearlSpec(m=m, edges=frozenset(seen), root_in=root_in, root_out=root_out)


def make_comb_pearl(d: int) -> PearlSpec:
    """Pearl of the comb family: a path of d ring vertices plus one tooth.

    Vertices 1..d form the ring segment (root_in = 1, root_out = d) and
    vertex d+1 is the tooth, attached to vertex 1.  Assembling K copies
    yields a ring of length K*d with a tooth at every d-th ring vertex.
    """
    if d < 1:
        raise InvalidParameterError(f"tooth spacing d must be >= 1, got {d}")
    edges = [(m, m + 1) for m in range(1, d)]
    edges.append((1, d + 1))
    return make_custom_pearl(d + 1, edges, root_in=1, root_out=d)


def make_cycle_pearl() -> PearlSpec:
    """Single-vertex pearl; K of them assemble into the plain K-cycle."""
    return make_custom_pearl(1, [], root_in=1, root_out=1)


def assemble_hamiltonian(necklace: NecklaceSpec) -> np.ndarray:
    """Full N x N adjacency Hamiltonian of the necklace (N = K * M).

    Block-diagonal copies of the pearl adjacency, plus the K inter-pearl
    edges (out-root of pearl j) -- (in-root of pearl j+1), with pearl K+1
    wrapping to pearl 1.  For single-root pearls both links attach to the
    same vertex.
    """
    K, M = necklace.K, necklace.pearl.m
    n = necklace.n_vertices
    h = np.zeros((n, n))
    p = necklace.pearl.adjacency()
    for j in range(K):
        h[j * M:(j + 1) * M, j * M:(j + 1) * M] = p
    for j in range(1, K + 1):
        j_next = j % K + 1
        a = necklace.flat_index(j, necklace.pearl.root_out)
        b = necklace.flat_index(j_next, necklace.pearl.root_in)
        h[a, b] = 1.0
        h[b, a] = 1.0
    return h


def pearl_from_json(obj: dict) -> PearlSpec:
    """Pearl from a dict with 0-based vertex indices; validates like make_custom_pearl.

    ``m``, the roots and every edge endpoint must be integers, never a
    float, string or bool, and every edge must have exactly two endpoints.
    """
    try:
        m, root_in, root_out = obj["m"], obj["root_in"], obj["root_out"]
        edges = [list(edge) for edge in obj["edges"]]
    except (KeyError, TypeError) as exc:
        raise InvalidPearlError(f"malformed pearl object: {exc}") from exc
    for edge in edges:
        if len(edge) != 2:
            raise InvalidPearlError(f"malformed pearl object: edge {edge} needs two endpoints")
    for value in (m, root_in, root_out, *(v for edge in edges for v in edge)):
        if type(value) is not int:
            raise InvalidPearlError(f"malformed pearl object: {value!r} is not an integer")
    return make_custom_pearl(m, [(a + 1, b + 1) for a, b in edges], root_in + 1, root_out + 1)


def load_pearl_file(path: str) -> PearlSpec:
    """Read a pearl from a JSON file (0-based indices); a refusal names the file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return pearl_from_json(json.load(handle))
        # A refused pearl, bad JSON, bytes that are not UTF-8, or nesting too deep to parse.
        except (ValueError, RecursionError) as exc:
            raise InvalidPearlError(f"{path}: not a valid pearl file: {exc}") from exc


__all__ = [
    "NecklaceSpec",
    "PearlSpec",
    "assemble_hamiltonian",
    "load_pearl_file",
    "make_comb_pearl",
    "make_custom_pearl",
    "make_cycle_pearl",
    "pearl_from_json",
]
