"""Vertex-coloured graphs and the domination / tropicality predicates.

Vertices are 1-indexed everywhere in the public API. Internally each vertex v
owns bit (v-1) of the fixed-width bitmask rows, so a domination check is a
chain of integer ORs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import (
    ColourGapError,
    DuplicateEdgeError,
    OutOfRangeError,
    SelfLoopError,
)


@dataclass(frozen=True)
class DegreeProfile:
    delta: int
    big_delta: int


@dataclass(frozen=True)
class ColouredGraph:
    """Immutable graph with a total colouring by colours 1..c.

    Every colour in 1..c appears on at least one vertex; ``build`` enforces
    this along with simplicity of the edge set.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    colour: tuple[int, ...]  # colour[v-1] is the colour of vertex v
    c: int

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def adj_mask(self) -> tuple[int, ...]:
        """adj_mask[v-1] = bitmask of the open neighbourhood N(v)."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u - 1] |= 1 << (v - 1)
            masks[v - 1] |= 1 << (u - 1)
        return tuple(masks)

    @cached_property
    def closed_mask(self) -> tuple[int, ...]:
        """closed_mask[v-1] = bitmask of the closed neighbourhood N[v]."""
        return tuple(m | (1 << i) for i, m in enumerate(self.adj_mask))

    @cached_property
    def colour_mask(self) -> tuple[int, ...]:
        """colour_mask[k-1] = bitmask of the colour class of colour k."""
        masks = [0] * self.c
        for v in self.vertices:
            masks[self.colour[v - 1] - 1] |= 1 << (v - 1)
        return tuple(masks)

    def one_coloured(self) -> ColouredGraph:
        """The same graph with every vertex in colour 1.

        The copy shares this graph's neighbourhood masks, which do not depend
        on the colours; its colour_mask is built anew.
        """
        h = replace(self, colour=(1,) * self.n, c=1)
        vars(h).update(adj_mask=self.adj_mask, closed_mask=self.closed_mask)
        return h


def _iter_bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build(n: int, edges, colours) -> ColouredGraph:
    """Validate and assemble a coloured graph; c = max colour id.

    edges is a list of pairs or an (m, 2) integer array. Invalid edges raise
    for the first offending edge in input order: an endpoint outside 1..n,
    then a self-loop, then a repeat of an earlier edge in either orientation.
    The stored edges are (lo, hi) pairs of ints in lexicographic order.
    """
    if n < 1:
        raise OutOfRangeError("n must be at least 1")
    if len(colours) != n:
        raise OutOfRangeError(f"expected {n} colours, got {len(colours)}")
    try:
        e = np.asarray(edges, dtype=np.int64)
    except OverflowError:
        # an endpoint beyond int64 is out of range, and stays so clipped to n + 1
        e = np.clip(np.asarray(edges, dtype=object), 0, n + 1).astype(np.int64)
    if e.size == 0:
        e = e.reshape(0, 2)
    if e.ndim != 2 or e.shape[1] != 2:
        raise ValueError(f"edges must be pairs, got an array of shape {e.shape}")
    lo = np.minimum(e[:, 0], e[:, 1])
    hi = np.maximum(e[:, 0], e[:, 1])
    key = lo * (n + 1) + hi  # lexicographic rank of (lo, hi) for in-range edges
    order = key.argsort(kind="stable")
    sorted_key = key[order]
    bad = (lo < 1) | (hi > n) | (lo == hi)
    bad[order[1:][sorted_key[1:] == sorted_key[:-1]]] = True  # later copies
    if bad.any():
        u, v = edges[int(bad.argmax())]
        if not (1 <= u <= n and 1 <= v <= n):
            raise OutOfRangeError(f"edge ({u},{v}) has endpoint outside 1..{n}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        raise DuplicateEdgeError(f"duplicate edge ({min(u, v)},{max(u, v)})")
    c = max(colours)
    used = set(colours)
    for k in colours:
        if k < 1:
            raise OutOfRangeError(f"colour {k} is not a positive id")
    for k in range(1, c + 1):
        if k not in used:
            raise ColourGapError(f"colour {k} unused (colours must cover 1..{c})")
    norm = tuple(zip(lo[order].tolist(), hi[order].tolist()))
    return ColouredGraph(n=n, edges=norm, colour=tuple(colours), c=c)


def is_dominating(g: ColouredGraph, s: Iterable[int]) -> bool:
    """True iff every vertex is in s or adjacent to a member of s.

    A set holding an id outside 1..n is not dominating.
    """
    covered = 0
    for v in s:
        if not 1 <= v <= g.n:
            return False
        covered |= g.closed_mask[v - 1]
    return covered == g.full_mask


def is_tropical(g: ColouredGraph, s: Iterable[int]) -> bool:
    """True iff every colour 1..c appears on some vertex of s.

    A set holding an id outside 1..n is not tropical.
    """
    present = set()
    for v in s:
        if not 1 <= v <= g.n:
            return False
        present.add(g.colour[v - 1])
    return len(present) == g.c


def complete_colours(g: ColouredGraph, s: Iterable[int]) -> list[int]:
    """s followed by the lowest-id vertex of each colour missing from s.

    Adding vertices keeps a dominating set dominating, so this turns any
    dominating set into a tropical one.
    """
    out = list(s)
    present = {g.colour[v - 1] for v in out}
    for k, m in enumerate(g.colour_mask, 1):
        if k not in present:
            out.append((m & -m).bit_length())
    return out


def is_rainbow(g: ColouredGraph, s) -> bool:
    """True iff s has exactly c vertices, one of each colour."""
    s = set(s)
    return len(s) == g.c and is_tropical(g, s)


def degree_profile(g: ColouredGraph) -> DegreeProfile:
    degrees = [0] * g.n
    for u, v in g.edges:
        degrees[u - 1] += 1
        degrees[v - 1] += 1
    return DegreeProfile(delta=min(degrees), big_delta=max(degrees))


def is_connected(g: ColouredGraph) -> bool:
    """Bitmask BFS reachability from vertex 1."""
    reached = 1
    frontier = 1
    while frontier:
        nxt = 0
        for i in _iter_bits(frontier):
            nxt |= g.adj_mask[i]
        frontier = nxt & ~reached
        reached |= nxt
    return reached == g.full_mask


def path_order(g: ColouredGraph) -> list[int] | None:
    """If g is a simple path, return its vertices in path order, else None.

    Single vertices count as paths. The returned order starts at the
    lower-id endpoint so it is deterministic.
    """
    if g.n == 1:
        return [1] if g.m == 0 else None
    if g.m != g.n - 1:
        return None
    degs = [m.bit_count() for m in g.adj_mask]
    if degs.count(1) != 2 or max(degs) > 2:
        return None
    # walk from the lower-id end; beside a disjoint cycle it stops short of n
    cur = degs.index(1)
    order = [cur + 1]
    seen = 1 << cur
    while len(order) < g.n:
        nxt = g.adj_mask[cur] & ~seen
        if not nxt:
            return None
        cur = nxt.bit_length() - 1
        seen |= nxt
        order.append(cur + 1)
    return order
