"""Fixed-parameter algorithm for tropical domination on interval graphs.

Vertices are reordered non-decreasingly by right endpoint (ties by vertex
id). The representation is checked against the graph by a sweep over left
endpoints in O(n log n + m). The table f(S, i) holds the least size of a
proper i-prefix dominating set covering exactly the colour subset S; it is
stored row-contiguously, one row of all 2^c subsets per position i, and each
row is filled by numpy from the rows of the admissible predecessors P_i, so
the fill is O(2^c * sum |P_i|), in the worst case O(2^c n^2).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import RepresentationMismatchError, TooManyColoursError
from .exact import SolveResult
from .graph import ColouredGraph, complete_colours

INF = np.int64(1) << 40
TABLE_BYTES = 1 << 30  # largest DP table tdn_interval allocates


@dataclass(frozen=True)
class IntervalInstance:
    graph: ColouredGraph
    order: tuple[int, ...]  # order[i-1] = original vertex id at sorted position i
    l: tuple[int, ...]  # endpoints in sorted-position indexing (index 0 = pos 1)
    r: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def colour_at(self) -> tuple[int, ...]:
        """Colour by sorted position."""
        return tuple(self.graph.colour[v - 1] for v in self.order)


@dataclass(frozen=True)
class PrefixTables:
    a: tuple[int, ...]  # a[i-1] = least position whose interval i reaches back to
    b: tuple[int, ...]  # b[j] for j in 0..n; n+1 stands for "infinity"
    P: tuple[tuple[int, ...], ...]  # P[i-1] = admissible predecessors of position i


def build_interval_instance(g: ColouredGraph, intervals) -> IntervalInstance:
    """Sort by right endpoint and check the representation matches g."""
    if isinstance(intervals, dict):
        pairs = [intervals[v] for v in g.vertices]
    else:
        pairs = list(intervals)
    if len(pairs) != g.n:
        raise RepresentationMismatchError(
            f"expected {g.n} intervals, got {len(pairs)}"
        )
    # sweep by left endpoint: only w after u with l_w <= r_u can meet u
    by_left = sorted(g.vertices, key=lambda v: pairs[v - 1][0])
    lefts = [pairs[v - 1][0] for v in by_left]
    meets = set()
    for k, u in enumerate(by_left):
        lu, ru = pairs[u - 1]
        for w in by_left[k + 1 : bisect_right(lefts, ru)]:
            if lu <= pairs[w - 1][1]:
                meets.add((u, w) if u < w else (w, u))
    edge_set = set(g.edges)
    if meets != edge_set:
        u, v = min(meets ^ edge_set)  # the first differing pair in (u, v) order
        meet = (u, v) in meets
        raise RepresentationMismatchError(
            f"pair ({u},{v}): intervals {'meet' if meet else 'miss'} "
            f"but edge is {'absent' if meet else 'present'}"
        )
    order = sorted(g.vertices, key=lambda v: (pairs[v - 1][1], v))
    return IntervalInstance(
        graph=g,
        order=tuple(order),
        l=tuple(pairs[v - 1][0] for v in order),
        r=tuple(pairs[v - 1][1] for v in order),
    )


def prefix_tables(inst: IntervalInstance) -> PrefixTables:
    n = inst.n
    l, r = inst.l, inst.r
    # a_i: least position j with r_j >= l_i (r is sorted)
    a = [bisect_left(r, li) + 1 for li in l]
    # b_j: least position k > j with l_k > r_j; positions <= j are dominated
    # by [1,j] itself, so only k > j can be the witness. b_0 = 1. The scan
    # passes only neighbours of j, so all of b costs O(n + m).
    b = [1] + [0] * n
    for j in range(1, n + 1):
        b[j] = next((k for k in range(j + 1, n + 1) if l[k - 1] > r[j - 1]), n + 1)
    # j < i is admissible iff b_j >= a_i and neither interval contains the
    # other, which for r_j <= r_i means l_j < l_i and r_j < r_i
    la, ba = np.array(l), np.array(b[1:])
    P = []
    for i in range(1, n + 1):
        lim = bisect_left(r, r[i - 1])  # positions 1..lim have r_j < r_i
        ok = (ba[:lim] >= a[i - 1]) & (la[:lim] < l[i - 1])
        head = (0,) if a[i - 1] == 1 else ()
        P.append(head + tuple((np.flatnonzero(ok) + 1).tolist()))
    return PrefixTables(a=tuple(a), b=tuple(b), P=tuple(P))


def _fill_table(inst: IntervalInstance, tables: PrefixTables) -> np.ndarray:
    """f[S, i] for all colour subsets S and positions i in 0..n."""
    f = np.full((inst.n + 1, 1 << inst.graph.c), INF, dtype=np.int64)
    f[0, 0] = 0
    for i, preds in enumerate(tables.P, start=1):
        if not preds:
            continue
        colbit = 1 << (inst.colour_at[i - 1] - 1)
        # axis 1 of the (-1, 2, colbit) view splits subsets by the colour bit
        best = np.minimum.reduce(f[list(preds)]).reshape(-1, 2, colbit)
        f[i].reshape(-1, 2, colbit)[:, 1] = 1 + np.minimum(best[:, 0], best[:, 1])
    return f.T


def _reconstruct(inst: IntervalInstance, tables: PrefixTables, f, S: int, i: int):
    """Walk the recursion back from (S, i); returns sorted positions."""
    picks = []
    while i != 0:
        picks.append(i)
        colbit = 1 << (inst.colour_at[i - 1] - 1)
        target = f[S, i] - 1
        found = False
        for j in tables.P[i - 1]:
            for S2 in (S & ~colbit, S):
                if f[S2, j] == target:
                    S, i = S2, j
                    found = True
                    break
            if found:
                break
        assert found, "dp table inconsistent during reconstruction"
    assert S == 0
    return sorted(picks)


def tdn_interval(inst: IntervalInstance) -> SolveResult:
    """Minimum tropical dominating set via the O(2^c n^2) subset DP.

    Raises TooManyColoursError before allocating a table of more than
    TABLE_BYTES bytes.
    """
    g = inst.graph
    size = (inst.n + 1) * (1 << g.c) * INF.itemsize
    if size > TABLE_BYTES:
        raise TooManyColoursError(
            f"c={g.c}, n={inst.n}: the DP table needs {size} bytes, "
            f"over the limit of {TABLE_BYTES}"
        )
    tables = prefix_tables(inst)
    f = _fill_table(inst, tables)
    c, n = g.c, inst.n
    # candidate end positions: [1,i] must dominate the whole graph
    ends = [i for i in range(1, n + 1) if tables.b[i] == n + 1]
    # total size per (end, subset): the prefix set plus one vertex per
    # missing colour; the row-major argmin takes the least end, then subset
    totals = f[:, ends].T + (c - np.bitwise_count(np.arange(1 << c)))
    e, best_S = divmod(int(totals.argmin()), 1 << c)
    best_val = int(totals[e, best_S])
    if best_val >= INF:
        raise RepresentationMismatchError("no prefix dominates the graph")
    positions = _reconstruct(inst, tables, f, best_S, ends[e])
    witness = complete_colours(g, (inst.order[p - 1] for p in positions))
    return SolveResult(value=best_val, witness=frozenset(witness), explored=(1 << c) * (n + 1))


def path_intervals(n: int) -> dict[int, tuple[int, int]]:
    """Canonical interval representation of the path v_1 - v_2 - ... - v_n."""
    return {v: (2 * v, 2 * v + 2) for v in range(1, n + 1)}
