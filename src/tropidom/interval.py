"""Fixed-parameter algorithm for tropical domination on interval graphs.

Vertices are reordered non-decreasingly by right endpoint (ties by vertex
id). The table f(S, i) holds the least size of a proper i-prefix dominating
set covering exactly the colour subset S; the scan over i is vectorised over
all 2^c subsets at once with numpy, so the whole fill is O(2^c n^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import RepresentationMismatchError, TooManyColoursError
from .exact import TROPICAL_DOMINATION, SolveResult
from .graph import ColouredGraph, complete_colours

INF = np.int64(1) << 40
COLOUR_CAP = 24


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

    def contains(self, i: int, j: int) -> bool:
        """I_j subseteq I_i, positions 1-indexed; equality counts."""
        return self.l[i - 1] <= self.l[j - 1] and self.r[j - 1] <= self.r[i - 1]


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
    edge_set = set(g.edges)
    for u in g.vertices:
        for v in range(u + 1, g.n + 1):
            lu, ru = pairs[u - 1]
            lv, rv = pairs[v - 1]
            meets = lu <= rv and lv <= ru
            if meets != ((u, v) in edge_set):
                raise RepresentationMismatchError(
                    f"pair ({u},{v}): intervals {'meet' if meets else 'miss'} "
                    f"but edge is {'present' if (u, v) in edge_set else 'absent'}"
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
    # a_i: least position j with r_j >= l_i (suffix property of sorted r)
    a = []
    for i in range(1, n + 1):
        ai = next(j for j in range(1, n + 1) if r[j - 1] >= l[i - 1])
        a.append(ai)
    # b_j: least position k > j with l_k > r_j; positions <= j are dominated
    # by [1,j] itself, so only k > j can be the witness. b_0 = 1.
    b = [1] + [0] * n
    for j in range(1, n + 1):
        bj = n + 1
        for k in range(j + 1, n + 1):
            if l[k - 1] > r[j - 1]:
                bj = k
                break
        b[j] = bj
    P = []
    for i in range(1, n + 1):
        preds = [0] if a[i - 1] == 1 else []
        for j in range(1, i):
            if a[i - 1] <= b[j] and not inst.contains(i, j) and not inst.contains(j, i):
                preds.append(j)
        P.append(tuple(preds))
    return PrefixTables(a=tuple(a), b=tuple(b), P=tuple(P))


def _fill_table(inst: IntervalInstance, tables: PrefixTables) -> np.ndarray:
    """f[S, i] for all colour subsets S and positions i in 0..n."""
    c = inst.graph.c
    n = inst.n
    f = np.full((1 << c, n + 1), INF, dtype=np.int64)
    f[0, 0] = 0
    subsets = np.arange(1 << c)
    for i in range(1, n + 1):
        preds = tables.P[i - 1]
        if not preds:
            continue
        colbit = 1 << (inst.colour_at[i - 1] - 1)
        best = f[:, list(preds)].min(axis=1)
        has = (subsets & colbit) != 0
        sel = subsets[has]
        f[sel, i] = 1 + np.minimum(best[sel], best[sel & ~colbit])
    return f


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


def tdn_interval(inst: IntervalInstance, colour_cap: int = COLOUR_CAP) -> SolveResult:
    """Minimum tropical dominating set via the O(2^c n^2) subset DP."""
    g = inst.graph
    if g.c > colour_cap:
        raise TooManyColoursError(f"c={g.c} exceeds cap {colour_cap}")
    tables = prefix_tables(inst)
    f = _fill_table(inst, tables)
    c, n = g.c, inst.n
    # candidate end positions: [1,i] must dominate the whole graph
    ends = [i for i in range(1, n + 1) if tables.b[i] == n + 1]
    popcnt = np.array([bin(s).count("1") for s in range(1 << c)], dtype=np.int64)
    best_val, best_S, best_i = None, None, None
    for i in ends:
        vals = f[:, i] + (c - popcnt)
        S = int(vals.argmin())
        if best_val is None or vals[S] < best_val:
            best_val, best_S, best_i = int(vals[S]), S, i
    if best_val is None or best_val >= INF:
        raise RepresentationMismatchError("no prefix dominates the graph")
    positions = _reconstruct(inst, tables, f, best_S, best_i)
    witness = complete_colours(g, (inst.order[p - 1] for p in positions))
    return SolveResult(
        kind=TROPICAL_DOMINATION,
        value=best_val,
        witness=frozenset(witness),
        explored=(1 << c) * (n + 1),
    )


def path_intervals(n: int) -> dict[int, tuple[int, int]]:
    """Canonical interval representation of the path v_1 - v_2 - ... - v_n."""
    return {v: (2 * v, 2 * v + 2) for v in range(1, n + 1)}
