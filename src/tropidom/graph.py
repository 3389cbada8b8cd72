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


_PACK_CELLS = 1 << 22  # cells of one boolean block in ColouredGraph.adj_mask


@dataclass(frozen=True)
class DegreeProfile:
    delta: int
    big_delta: int


@dataclass(frozen=True)
class ColouredGraph:
    """Immutable graph with a total colouring by colours 1..c.

    edge_array is the one edge store: a read-only (m, 2) int64 array, which
    ``build`` fills with (lo, hi) rows in lexicographic order after checking
    that every colour in 1..c appears and the edge set is simple. Two graphs
    are equal when n, colour, c and the edge rows are equal.
    """

    n: int
    edge_array: np.ndarray
    colour: tuple[int, ...]  # colour[v-1] is the colour of vertex v
    c: int

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        same = (self.n, self.colour, self.c) == (other.n, other.colour, other.c)
        return same and np.array_equal(self.edge_array, other.edge_array)

    def __hash__(self):
        return hash((self.n, self.colour, self.c, self.edge_array.tobytes()))

    def __repr__(self):
        return f"ColouredGraph(n={self.n}, m={self.m}, c={self.c})"

    @property
    def m(self) -> int:
        return len(self.edge_array)

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The rows of edge_array as a tuple of int pairs, built on first read."""
        lo, hi = self.edge_array.T.tolist()
        return tuple(zip(lo, hi))

    @cached_property
    def adj_mask(self) -> tuple[int, ...]:
        """adj_mask[v-1] = bitmask of the open neighbourhood N(v).

        Both routes below give the same rows.
        """
        n = self.n
        # Each edge ORs into two n-bit ints, while packing costs about n^2 / 8
        # bytes plus fixed numpy calls: packing is faster from average degree
        # 8 (m >= 4n) on, and several times slower on long paths.
        if self.m < 4 * n:
            masks = [0] * n
            lo, hi = (self.edge_array - 1).T.tolist()
            for u, v in zip(lo, hi):
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            return tuple(masks)
        e = self.edge_array - 1
        lo, hi = e[:, 0], e[:, 1]
        width = (n + 7) // 8
        step = min(n, max(1, _PACK_CELLS // n))  # rows per block
        block = np.zeros((step, n), dtype=bool)
        masks = []
        for r0 in range(0, n, step):
            r1 = min(n, r0 + step)
            if r0:
                block[:] = False
            for rows, cols in ((lo, hi), (hi, lo)):
                if step < n:
                    sel = (rows >= r0) & (rows < r1)
                    rows, cols = rows[sel], cols[sel]
                block[rows - r0, cols] = True
            buf = np.packbits(block[: r1 - r0], axis=1, bitorder="little").tobytes()
            for i in range(0, len(buf), width):
                masks.append(int.from_bytes(buf[i : i + width], "little"))
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
    The graph keeps its edges as one read-only (m, 2) int64 array of (lo, hi)
    rows in lexicographic order.
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
    e = np.empty((len(lo), 2), dtype=np.int64)
    e[:, 0], e[:, 1] = lo[order], hi[order]
    e.flags.writeable = False
    return ColouredGraph(n=n, edge_array=e, colour=tuple(colours), c=c)


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
    """Minimum and maximum degree, counted from the edge array."""
    degrees = np.bincount(g.edge_array.ravel(), minlength=g.n + 1)[1:].tolist()
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
