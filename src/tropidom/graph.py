"""Vertex-coloured graphs and the domination / tropicality predicates.

Vertices are 1-indexed everywhere in the public API. Internally each vertex v
owns bit (v-1) of the fixed-width bitmask rows, so a domination check is a
chain of integer ORs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

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
    degree: dict[int, int]


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

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """adjacency[v-1] = sorted neighbour list of vertex v."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u - 1].append(v)
            nbrs[v - 1].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    def neighbours(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v - 1]

    def closed_neighbourhood(self, v: int) -> tuple[int, ...]:
        return tuple(sorted(self.adjacency[v - 1] + (v,)))

    def colour_class(self, k: int) -> tuple[int, ...]:
        return tuple(v for v in self.vertices if self.colour[v - 1] == k)

    def set_mask(self, s: Iterable[int]) -> int:
        mask = 0
        for v in s:
            if not 1 <= v <= self.n:
                raise OutOfRangeError(f"vertex {v} not in 1..{self.n}")
            mask |= 1 << (v - 1)
        return mask

    @staticmethod
    def mask_to_set(mask: int) -> frozenset[int]:
        out = []
        v = 1
        while mask:
            if mask & 1:
                out.append(v)
            mask >>= 1
            v += 1
        return frozenset(out)


def build(n: int, edges, colours) -> ColouredGraph:
    """Validate and assemble a coloured graph; c = max colour id."""
    if n < 1:
        raise OutOfRangeError("n must be at least 1")
    if len(colours) != n:
        raise OutOfRangeError(f"expected {n} colours, got {len(colours)}")
    norm: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n):
            raise OutOfRangeError(f"edge ({u},{v}) has endpoint outside 1..{n}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise DuplicateEdgeError(f"duplicate edge ({e[0]},{e[1]})")
        seen.add(e)
        norm.append(e)
    c = max(colours)
    used = set(colours)
    for k in colours:
        if k < 1:
            raise OutOfRangeError(f"colour {k} is not a positive id")
    for k in range(1, c + 1):
        if k not in used:
            raise ColourGapError(f"colour {k} unused (colours must cover 1..{c})")
    return ColouredGraph(n=n, edges=tuple(sorted(norm)), colour=tuple(colours), c=c)


def is_dominating(g: ColouredGraph, s: Iterable[int]) -> bool:
    """True iff every vertex is in s or adjacent to a member of s."""
    covered = 0
    for v in s:
        covered |= g.closed_mask[v - 1]
    return covered == g.full_mask


def is_tropical(g: ColouredGraph, s: Iterable[int]) -> bool:
    """True iff every colour 1..c appears on some vertex of s."""
    return {g.colour[v - 1] for v in s} == set(range(1, g.c + 1))


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
    degree = {v: len(g.adjacency[v - 1]) for v in g.vertices}
    return DegreeProfile(
        delta=min(degree.values()),
        big_delta=max(degree.values()),
        degree=degree,
    )


def is_connected(g: ColouredGraph) -> bool:
    """Bitmask BFS reachability from vertex 1."""
    reached = 1
    frontier = 1
    while frontier:
        nxt = 0
        m = frontier
        i = 0
        while m:
            if m & 1:
                nxt |= g.adj_mask[i]
            m >>= 1
            i += 1
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
    degs = [len(g.adjacency[v - 1]) for v in g.vertices]
    ends = [v for v in g.vertices if degs[v - 1] == 1]
    if len(ends) != 2 or any(d > 2 for d in degs):
        return None
    order = [min(ends)]
    prev = 0
    while len(order) < g.n:
        cur = order[-1]
        nxt = [w for w in g.adjacency[cur - 1] if w != prev]
        if len(nxt) != 1:
            return None
        prev = cur
        order.append(nxt[0])
    return order
