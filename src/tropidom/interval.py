"""Fixed-parameter algorithm for tropical domination on interval graphs.

build_interval_instance sorts the vertices once, non-decreasingly by right
endpoint (ties by vertex id). In that order position i meets exactly the
earlier positions a_i..i-1, where a_i is the least position whose right
endpoint reaches l_i; the representation is checked against the graph by
that rule in O(n log n + m), edge by edge and by per-vertex counts of meeting
partners, without listing the meeting pairs. The instance keeps only the
order and every a_i, which is all the DP reads of the representation.
The only vertex of a one-vertex colour class is in every tropical set, so
those vertices F are taken up front; the DP then runs over c', the colours
with two or more vertices, and has to dominate only the positions outside
N[F]. The table f(S, i) holds the least size of an i-prefix set that
dominates those of positions 1..i, has last pick i and covers exactly the
subset S of the c' colours; it is stored row-contiguously, one row of all
2^c' subsets per position i, in the smallest unsigned integer dtype that
holds 2n + c' + 1. Each row is filled by numpy from one contiguous window of
earlier rows, the positions lo_i..i-1 that no required position before a_i
misses, read off one running maximum, and the window's minimum is kept
running while its start stays put; the fill is O(2^c' * sum (i - lo_i)), in
the worst case O(2^c' n^2). The final sums are taken one end row at a time
in one row-sized buffer, so no other buffer is wider than a row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoRepresentationError, RepresentationMismatchError, TooManyColoursError
from .exact import SolveResult
from .graph import ColouredGraph, complete_colours, path_order

TABLE_BYTES = 1 << 30  # largest DP table tdn_interval allocates


@dataclass(frozen=True)
class IntervalInstance:
    graph: ColouredGraph
    order: tuple[int, ...]  # order[i-1] = original vertex id at sorted position i
    a: tuple[int, ...]  # a[i-1] = a_i - 1, the least position (0-based) that position i meets

    @property
    def n(self) -> int:
        return self.graph.n


def build_interval_instance(g: ColouredGraph, intervals=None) -> IntervalInstance:
    """Sort by right endpoint, find each position's window start a_i and
    check the representation {v: (l, r)} matches g. Without one, a path gets
    path_intervals laid along path_order(g); any other graph raises
    NoRepresentationError."""
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
        if not lv <= rv:  # also refuses NaN endpoints
            raise RepresentationMismatchError(f"vertex {v}: interval [{lv},{rv}] has l > r")
    pairs = [intervals[v] for v in g.vertices]
    n, ends = g.n, np.array(pairs)
    if ends.dtype.kind == "f":
        # float64 rounds integers beyond 2^53; Python objects compare exactly
        ends = np.array(pairs, dtype=object)
    order = np.argsort(ends[:, 1], kind="stable")  # by (r, id)
    # with r sorted and l <= r, position i meets exactly the positions a_i..i-1
    # before it, the rule _windows uses
    a = np.searchsorted(ends[order, 1], ends[order, 0])
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    e = g.edge_array - 1
    p, q = np.sort(pos[e], axis=1).T
    meet = (p < q) & (a[q] <= p)
    # a mismatching pair (u, v), u < v, is keyed u * (n + 1) + v; the least
    # "miss but present" and the least "meet but absent" key are compared
    keys = []
    if not meet.all():
        key = np.sort(g.edge_array, axis=1) @ [n + 1, 1]
        keys.append((int(key[~meet].min()), False))
    # position i meets i - a_i earlier positions and #{k > i : a_k <= i} later
    # ones; as a_k <= k, the sum is cumsum(bincount(a))[i] - a_i - 1
    met = np.bincount(p[meet], minlength=n) + np.bincount(q[meet], minlength=n)
    short = (np.cumsum(np.bincount(a, minlength=n)) - a - 1 - met)[pos] > 0
    if short.any():
        # the least vertex short of edges is the smaller end of the least
        # absent pair, whose other end is its least meeting non-neighbour
        x = int(short.argmax())
        i = int(pos[x])
        later = np.flatnonzero(a[i + 1 :] <= i) + i + 1
        partners = order[np.concatenate((np.arange(a[i], i), later))]
        nbrs = np.concatenate((e[e[:, 0] == x, 1], e[e[:, 1] == x, 0]))
        y = int(np.setdiff1d(partners, nbrs)[0])
        keys.append(((x + 1) * (n + 1) + y + 1, True))
    if keys:
        first, absent = min(keys)
        u, v = divmod(first, n + 1)
        raise RepresentationMismatchError(
            f"pair ({u},{v}): intervals {'meet' if absent else 'miss'} "
            f"but edge is {'absent' if absent else 'present'}"
        )
    return IntervalInstance(graph=g, order=tuple((order + 1).tolist()), a=tuple(a.tolist()))


def _table_dtype(n: int, c: int) -> np.dtype:
    """Smallest unsigned dtype for a DP table of n positions over c colours.

    Unreachable cells start at the sentinel max - n - c > n, above every
    reachable size (<= n). A cell of position i is at most the sentinel
    plus i, so adding a missing-colour count (<= c) to any cell never wraps.
    """
    return np.min_scalar_type(2 * n + c + 1)


def _windows(a, forced):
    """lo (by position) and the first end position, from the window starts
    a (a[i-1] = a_i - 1) and the forced positions.

    A position is forced when its colour has one vertex. That vertex is in
    every tropical set, so the forced set F is taken whole and the DP has to
    dominate only the required positions, those outside N[F]: position k
    meets a forced p > k when a_p <= k, and a forced p < k when a_k <= p.

    A required position k misses the earlier positions j < min(k, a_k),
    position 0 being the empty prefix; reach[k] is the largest j that some
    required position in 1..k misses. Position i extends the prefix sets
    whose last pick j is in lo_i..i-1, the j above reach[a_i - 1]: the
    required positions j+1..a_i-1 meet such a j and positions a_i..i meet i,
    so every set the DP builds dominates the required positions of its
    prefix, and the window holds every predecessor whose interval neither
    contains nor is contained in I_i, through which a minimum tropical
    dominating set is reached. A prefix set ending at j dominates the
    required positions when none of them misses j, so the ends are
    reach[n] + 1..n.
    """
    n = len(a)
    k = np.arange(n)
    # the least a_p over the forced p >= k, and the last forced p <= k
    later = np.minimum.accumulate(np.where(forced, a, n)[::-1])[::-1]
    earlier = np.maximum.accumulate(np.where(forced, k, -1))
    required = (later > k) & (a > earlier)
    missed = np.where(required, np.minimum(k, a), -1)
    reach = np.maximum.accumulate(np.concatenate(([-1], missed)))
    return reach[a] + 1, int(reach[n]) + 1


def _fill_table(n: int, width: int, free, lo, bit) -> np.ndarray:
    """f[i, S] for all positions i in 0..n and subsets S of width colours.

    Only the free positions are filled, position i adding colour bit
    bit[i - 1]; the other rows stay at the sentinel. A filled row gets its
    + 1 on every cell, so its cells without the bit hold the sentinel plus
    one: still unreachable, and within sentinel + i.
    """
    dtype = _table_dtype(n, width)
    f = np.full((n + 1, 1 << width), np.iinfo(dtype).max - n - width, dtype=dtype)
    f[0, 0] = 0
    win = np.empty_like(f[0])
    one = dtype.type(1)
    # per colour bit k, axis 1 of a (-1, 2, 2^k) view splits subsets by the
    # bit: the halves of win without and with it, and each row's cells with it
    views = []
    for k in range(width):
        halves = win.reshape(-1, 2, 1 << k)
        views.append((halves[:, 0], halves[:, 1], f.reshape(n + 1, -1, 2, 1 << k)[:, :, 1]))
    start = prev = -1  # win is the minimum of the rows start..prev-1
    for i in free:
        j = lo[i - 1]
        if j == start:
            # the rows between prev and i are at the sentinel
            np.minimum(win, f[prev], out=win)
        else:
            np.minimum.reduce(f[j:i], out=win)
            start = j
        prev = i
        h0, h1, rows = views[bit[i - 1]]
        np.minimum(h0, h1, out=rows[i])
        row = f[i]
        np.add(row, one, out=row)
    return f


def _reconstruct(lo, bit, f, S: int, i: int):
    """Walk the recursion back from (i, S); returns sorted positions."""
    picks = []
    while i != 0:
        picks.append(i)
        target = f.item(i, S) - 1
        rest = S & ~(1 << bit[i - 1])
        # the first predecessor, then the first of (rest, S), that gives f[i, S]
        step = next(
            ((j, S2) for j in range(lo[i - 1], i) for S2 in (rest, S)
             if f.item(j, S2) == target),
            None,
        )
        assert step is not None, "dp table inconsistent during reconstruction"
        i, S = step
    assert S == 0
    return picks[::-1]


def tdn_interval(inst: IntervalInstance) -> SolveResult:
    """Minimum tropical dominating set via the O(2^c' sum (i - lo_i)) subset DP.

    c' counts the colours with two or more vertices: the vertex of a
    one-vertex colour is in every tropical set, so it is taken up front and
    the table's subsets range over the c' colours only. Raises
    TooManyColoursError before allocating a table of more than TABLE_BYTES
    bytes.
    """
    g = inst.graph
    c, n = g.c, inst.n
    colour = np.array(g.colour)[np.array(inst.order) - 1]  # by position
    # bit k of a subset stands for the k-th least colour with two or more
    # vertices
    shared = np.bincount(colour) > 1
    width = int(shared.sum())
    size = (n + 1) * (1 << width) * _table_dtype(n, width).itemsize
    if size > TABLE_BYTES:
        raise TooManyColoursError(
            f"c={c}, of which {width} have two or more vertices, n={n}: "
            f"the DP table needs {size} bytes, over the limit of {TABLE_BYTES}"
        )
    forced = ~shared[colour]
    lo, first_end = _windows(np.array(inst.a), forced)
    free = (np.flatnonzero(~forced) + 1).tolist()
    lo, bit = lo.tolist(), (np.cumsum(shared) - 1)[colour].tolist()
    f = _fill_table(n, width, free, lo, bit)
    # missing[S] = c' - |S|, doubled one colour bit at a time in the table's
    # dtype, so no buffer besides the table is wider than a row
    missing = np.full(1, width, dtype=f.dtype)
    for _ in range(width):
        missing = np.concatenate((missing, missing - 1))
    # total size per (end, subset): the prefix set plus one vertex per
    # missing colour. A reachable total is at most n and an unreachable cell
    # is above n; the table's headroom keeps the sums in its dtype. The end
    # rows are summed in order into one row buffer, and a row replaces the
    # best only when it is strictly smaller, so the least end wins, then the
    # least subset; every total is at least c', so a row that reaches c'
    # ends the walk.
    totals = np.empty_like(missing)
    best_val = n + 1
    for end in range(first_end, n + 1):
        np.add(f[end], missing, out=totals)
        S = int(totals.argmin())
        if totals[S] < best_val:
            best_val, best_end, best_S = int(totals[S]), end, S
            if best_val == width:
                break
    # with l <= r on every interval, the chain of all free positions reaches
    # an end, so some total is reachable
    assert best_val <= n, "no prefix dominates the graph"
    taken = (np.flatnonzero(forced) + 1).tolist()
    picks = taken + _reconstruct(lo, bit, f, best_S, best_end)
    witness = complete_colours(g, (inst.order[p - 1] for p in picks))
    return SolveResult(
        value=len(taken) + best_val, witness=frozenset(witness), explored=(1 << width) * (n + 1)
    )


def path_intervals(n: int) -> dict[int, tuple[int, int]]:
    """Canonical interval representation of the path v_1 - v_2 - ... - v_n."""
    return {v: (2 * v, 2 * v + 2) for v in range(1, n + 1)}
