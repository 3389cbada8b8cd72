"""Fixed-parameter algorithm for tropical domination on interval graphs.

Vertices are reordered non-decreasingly by right endpoint (ties by vertex
id). In that order position i meets exactly the earlier positions a_i..i-1,
where a_i is the least position whose right endpoint reaches l_i; the
representation is checked against the graph by that rule in O(n log n + m).
The table f(S, i) holds the least size of a proper i-prefix dominating set
covering exactly the colour subset S; it is stored row-contiguously, one row
of all 2^c subsets per position i, in the smallest unsigned integer dtype that
holds 2n + c + 1, and each row is filled by numpy from the rows of the
admissible predecessors P_i, so the fill is O(2^c * sum |P_i|), in the worst
case O(2^c n^2). The P_i come from one vectorised test over windows of
candidate positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NoRepresentationError, RepresentationMismatchError, TooManyColoursError
from .exact import SolveResult
from .graph import ColouredGraph, complete_colours, path_order

TABLE_BYTES = 1 << 30  # largest DP table tdn_interval allocates
_MASK_CELLS = 1 << 16  # window cells per block of the admissibility test


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


def build_interval_instance(g: ColouredGraph, intervals=None) -> IntervalInstance:
    """Sort by right endpoint and check the representation {v: (l, r)}
    matches g. Without one, a path gets path_intervals laid along
    path_order(g); any other graph raises NoRepresentationError."""
    if intervals is None:
        order = path_order(g)
        if order is None:
            raise NoRepresentationError("no interval representation given, and the graph is not a path")
        intervals = dict(zip(order, path_intervals(g.n).values()))
    if len(intervals) != g.n:
        raise RepresentationMismatchError(
            f"expected {g.n} intervals, got {len(intervals)}"
        )
    for v in g.vertices:
        if v not in intervals:
            raise RepresentationMismatchError(f"vertex {v} has no interval")
        lv, rv = intervals[v]
        if lv > rv:
            raise RepresentationMismatchError(f"vertex {v}: interval [{lv},{rv}] has l > r")
    pairs = [intervals[v] for v in g.vertices]
    n, ends = g.n, np.array(pairs)
    order = np.argsort(ends[:, 1], kind="stable")  # by (r, id)
    # with r sorted and l <= r, position i meets exactly the positions a_i..i-1
    # before it, the rule _prefix_arrays uses
    a = np.searchsorted(ends[order, 1], ends[order, 0])
    count = np.arange(n) - a
    i = np.repeat(np.arange(n), count)
    j = i + np.arange(len(i)) - np.repeat(np.cumsum(count), count)
    u, w = order[j] + 1, order[i] + 1
    meets = np.sort(np.minimum(u, w) * (n + 1) + np.maximum(u, w))
    edges = np.sort(g.edge_array @ [n + 1, 1])
    if not np.array_equal(meets, edges):
        first = np.setxor1d(meets, edges)[0]  # the least differing (u, v)
        u, v = divmod(int(first), n + 1)
        meet = first in meets
        raise RepresentationMismatchError(
            f"pair ({u},{v}): intervals {'meet' if meet else 'miss'} "
            f"but edge is {'absent' if meet else 'present'}"
        )
    order = order.tolist()
    return IntervalInstance(
        graph=g,
        order=tuple(v + 1 for v in order),
        l=tuple(pairs[k][0] for k in order),
        r=tuple(pairs[k][1] for k in order),
    )


def _table_dtype(n: int, c: int) -> np.dtype:
    """Smallest unsigned dtype for the DP table of n positions and c colours.

    Unreachable cells start at the sentinel max - n - c > n, above every
    reachable size (<= n). A cell of position i is at most the sentinel
    plus i, so adding a missing-colour count (<= c) to any cell never wraps.
    """
    return np.min_scalar_type(2 * n + c + 1)


def _prefix_arrays(inst: IntervalInstance):
    """a (by position), b (by j in 0..n) and the predecessor lists P_i as
    one flat array with row offsets: P_i is preds[start[i-1]:start[i]]."""
    n = inst.n
    l, r = np.array(inst.l), np.array(inst.r)
    # a_i: least position j with r_j >= l_i (r is sorted)
    a = np.searchsorted(r, l) + 1
    # b_j: least k > j with l_k > r_j, or n + 1; position k serves every
    # j <= min(k - 1, a_k - 1), so b_j is the first k whose running maximum
    # of that bound reaches j (b_0 = 1)
    reach = np.maximum.accumulate(np.minimum(np.arange(n), a - 1))
    b = np.searchsorted(reach, np.arange(n + 1)) + 1
    # j < i is admissible iff b_j >= a_i and neither interval contains the
    # other, which for r_j <= r_i means l_j < l_i and r_j < r_i. b is
    # non-decreasing, so b_j >= a_i and r_j < r_i hold exactly on a window
    # lo_i <= j <= hi_i; position 0 (b_0 = 1) stands left of every interval.
    lo = np.searchsorted(b, a)
    hi = np.searchsorted(r, r)
    l0 = np.concatenate(([l.min() - 1], l))
    width = np.maximum(hi - lo + 1, 0)
    wend = np.cumsum(width)
    # the windows laid end to end, tested for l_j < l_i in blocks of rows
    # holding at most _MASK_CELLS cells (or one longer window) each
    preds, kept = [], []
    i0 = 0
    while i0 < n:
        base = int(wend[i0] - width[i0])  # cells before row i0
        i1 = max(i0 + 1, int(np.searchsorted(wend, base + _MASK_CELLS, "right")))
        w = width[i0:i1]
        # cell t of the block is j = lo_i + t - (cells before row i)
        shift = np.repeat(lo[i0:i1] - (wend[i0:i1] - w - base), w)
        cols = np.arange(int(wend[i1 - 1]) - base) + shift
        hit = np.flatnonzero(l0[cols] < np.repeat(l[i0:i1], w))
        preds.append(cols[hit])
        kept.append(hit + base)
        i0 = i1
    start = np.concatenate(([0], np.searchsorted(np.concatenate(kept), wend)))
    return a, b, np.concatenate(preds), start


def _fill_table(inst: IntervalInstance, preds, start) -> np.ndarray:
    """f[i, S] for all positions i in 0..n and colour subsets S."""
    n, c = inst.n, inst.graph.c
    dtype = _table_dtype(n, c)
    f = np.full((n + 1, 1 << c), np.iinfo(dtype).max - n - c, dtype=dtype)
    f[0, 0] = 0
    bounds = start.tolist()
    for i, colour in enumerate(inst.colour_at, start=1):
        s, e = bounds[i - 1], bounds[i]
        if s == e:
            continue
        colbit = 1 << (colour - 1)
        # axis 1 of the (-1, 2, colbit) view splits subsets by the colour bit
        best = np.minimum.reduce(f[preds[s:e]]).reshape(-1, 2, colbit)
        out = f[i].reshape(-1, 2, colbit)[:, 1]
        np.minimum(best[:, 0], best[:, 1], out=out)
        out += 1
    return f


def _reconstruct(inst: IntervalInstance, preds, start, f, S: int, i: int):
    """Walk the recursion back from (i, S); returns sorted positions."""
    picks = []
    while i != 0:
        picks.append(i)
        target = f.item(i, S) - 1
        rest = S & ~(1 << (inst.colour_at[i - 1] - 1))
        # the first predecessor, then the first of (rest, S), that gives f[i, S]
        step = next(
            ((j, S2) for j in preds[start[i - 1] : start[i]].tolist() for S2 in (rest, S)
             if f.item(j, S2) == target),
            None,
        )
        assert step is not None, "dp table inconsistent during reconstruction"
        i, S = step
    assert S == 0
    return picks[::-1]


def tdn_interval(inst: IntervalInstance) -> SolveResult:
    """Minimum tropical dominating set via the O(2^c n^2) subset DP.

    Raises TooManyColoursError before allocating a table of more than
    TABLE_BYTES bytes.
    """
    g = inst.graph
    c, n = g.c, inst.n
    size = (n + 1) * (1 << c) * _table_dtype(n, c).itemsize
    if size > TABLE_BYTES:
        raise TooManyColoursError(
            f"c={c}, n={n}: the DP table needs {size} bytes, "
            f"over the limit of {TABLE_BYTES}"
        )
    _, b, preds, start = _prefix_arrays(inst)
    f = _fill_table(inst, preds, start)
    # candidate end positions, where [1,i] dominates the whole graph: b is
    # non-decreasing, so they are the positions from the first b_i = n + 1 on
    first_end = int(np.searchsorted(b, n + 1))
    # total size per (end, subset): the prefix set plus one vertex per
    # missing colour; the row-major argmin takes the least end, then subset.
    # A reachable total is at most n and an unreachable cell is above n; the
    # table's headroom keeps the sums in its dtype.
    missing = (c - np.bitwise_count(np.arange(1 << c))).astype(f.dtype)
    totals = f[first_end:] + missing
    e, best_S = divmod(int(totals.argmin()), 1 << c)
    best_val = int(totals[e, best_S])
    # with l <= r on every interval, row n always holds a reachable total
    assert best_val <= n, "no prefix dominates the graph"
    positions = _reconstruct(inst, preds, start, f, best_S, first_end + e)
    witness = complete_colours(g, (inst.order[p - 1] for p in positions))
    return SolveResult(value=best_val, witness=frozenset(witness), explored=(1 << c) * (n + 1))


def path_intervals(n: int) -> dict[int, tuple[int, int]]:
    """Canonical interval representation of the path v_1 - v_2 - ... - v_n."""
    return {v: (2 * v, 2 * v + 2) for v in range(1, n + 1)}
