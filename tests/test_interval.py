import hashlib
import json
import time
import tracemalloc
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import brute_gamma_t, brute_windows, random_interval_instance
from tropidom import (
    SubcubicGraph,
    build,
    build_interval_instance,
    gamma_t,
    is_dominating,
    is_tropical,
    path_intervals,
    path_order,
    tdn_interval,
    vc_to_path,
)
from tropidom import interval
from tropidom.errors import NoRepresentationError, RepresentationMismatchError, TooManyColoursError
from tropidom.graph import ColouredGraph

PAIRS = {1: (0, 2), 2: (1, 3), 3: (4, 5)}
# integer endpoints as they are, as floats, beyond int64, and scaled and shifted
ENDPOINTS = [lambda x: x, lambda x: x + 0.5, lambda x: x * 10**30 - 7, lambda x: 3 * x + 0.5]


def spec_instance():
    g = build(3, [(1, 2)], [1, 2, 1])
    return build_interval_instance(g, PAIRS)


class TestBuild:
    def test_valid_representation(self):
        g = build(3, [(1, 2)], [1, 2, 1])
        first = build_interval_instance(g, PAIRS)
        for f in ENDPOINTS:
            inst = build_interval_instance(g, {v: (f(lv), f(rv)) for v, (lv, rv) in PAIRS.items()})
            assert inst.order == (1, 2, 3) and inst.a == (0, 0, 2)
            assert inst == first and hash(inst) == hash(first)
            assert tdn_interval(inst).value == 2

    def test_endpoints_compared_exactly(self):
        # one float endpoint made float64 of all of them, which rounds 2^60 + 1
        # and 2^60 + 2 to 2^60: intervals 1 and 2 seemed to meet
        big = 2**60
        pairs = {1: (big, big + 1), 2: (big + 2, big + 3), 3: (0.5, 1)}
        inst = build_interval_instance(build(3, [], [1, 1, 1]), pairs)
        assert inst.order == (3, 1, 2) and inst.a == (0, 1, 2)
        with pytest.raises(RepresentationMismatchError) as exc:
            build_interval_instance(build(3, [(1, 2)], [1, 1, 1]), pairs)
        assert str(exc.value) == "pair (1,2): intervals miss but edge is present"

    def test_mismatch_rejected(self):
        cases = [(build(3, [(1, 3)], [1, 2, 1]), PAIRS, "pair (1,2): intervals meet but edge is absent")]
        # n identical intervals on a path: (1,3) is the first pair that meets
        # with no edge
        for n in (3, 4, 7):
            g = build(n, [(v, v + 1) for v in range(1, n)], [1] * n)
            cases.append((g, {v: (0, 1) for v in g.vertices}, "pair (1,3): intervals meet but edge is absent"))
        for g, pairs, message in cases:
            with pytest.raises(RepresentationMismatchError) as exc:
                build_interval_instance(g, pairs)
            assert str(exc.value) == message

    def test_mismatch_refused_without_listing_meeting_pairs(self):
        # n identical intervals on an n-vertex path meet in n(n-1)/2 pairs
        n = 3000
        g = build(n, [(v, v + 1) for v in range(1, n)], [1] * n)
        pairs = {v: (0, 1) for v in g.vertices}
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(RepresentationMismatchError) as exc:
                build_interval_instance(g, pairs)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == "pair (1,3): intervals meet but edge is absent"
        assert elapsed < 1 and peak < 16 * 2**20

    def test_edge_rows_in_any_order_and_orientation(self):
        # a graph made without build keeps its rows as given
        for rows, message in (
            ([[2, 1]], None),
            ([[3, 2], [2, 1]], "pair (2,3): intervals miss but edge is present"),
            ([[3, 1]], "pair (1,2): intervals meet but edge is absent"),
        ):
            g = ColouredGraph(n=3, edge_array=np.array(rows), colour=(1, 2, 1), c=2)
            if message is None:
                assert build_interval_instance(g, PAIRS).order == (1, 2, 3)
                continue
            with pytest.raises(RepresentationMismatchError) as exc:
                build_interval_instance(g, PAIRS)
            assert str(exc.value) == message

    def test_wrong_count_rejected(self):
        g = build(3, [(1, 2)], [1, 2, 1])
        with pytest.raises(RepresentationMismatchError):
            build_interval_instance(g, {1: (0, 2), 2: (1, 3)})

    def test_path_gets_path_intervals_along_path_order(self):
        g = build(5, [(4, 1), (1, 5), (5, 2), (2, 3)], [1, 2, 1, 2, 3])
        order = path_order(g)
        assert order == [3, 2, 5, 1, 4]
        canon = path_intervals(5)
        laid = {v: canon[i] for i, v in enumerate(order, 1)}
        inst = build_interval_instance(g)
        assert inst == build_interval_instance(g, laid)
        assert hash(inst) == hash(build_interval_instance(g, laid))
        assert build_interval_instance(build(1, [], [1])).order == (1,)

    @pytest.mark.parametrize("n, edges", [
        (3, [(1, 2), (1, 3), (2, 3)]),  # a triangle, an interval graph
        (4, [(1, 2), (1, 3), (1, 4)]),  # a star
        (2, []),  # two isolated vertices
        (5, [(1, 2), (3, 4), (4, 5), (3, 5)]),  # a path beside a cycle
    ])
    def test_non_path_needs_a_representation(self, n, edges):
        g = build(n, edges, [1] * n)
        with pytest.raises(NoRepresentationError, match="not a path"):
            build_interval_instance(g)

    def test_mismatch_names_first_differing_pair(self):
        # flip a few pairs; the message names the least (u, v) that differs,
        # also on a graph made without build, its rows reversed and shuffled
        rng, shuffle = np.random.default_rng(69), np.random.default_rng(70)
        kinds = set()
        for _ in range(150):
            n, edges, colours, pairs = random_interval_instance(
                rng, n_max=40, span=int(rng.integers(3, 31))
            )
            if n < 2:
                continue
            flipped = set(edges)
            for _ in range(int(rng.integers(1, 4))):
                u, v = sorted(int(x) for x in rng.choice(n, 2, replace=False) + 1)
                flipped ^= {(u, v)}
            diff = flipped ^ set(edges)
            if not diff:
                continue
            u, v = min(diff)
            meet = (u, v) in edges
            kinds.add(meet)
            expected = (
                f"pair ({u},{v}): intervals {'meet' if meet else 'miss'} "
                f"but edge is {'absent' if meet else 'present'}"
            )
            g = build(n, sorted(flipped), colours)
            rows = shuffle.permutation(g.edge_array[:, ::-1])
            for h in (g, ColouredGraph(n=n, edge_array=rows, colour=g.colour, c=g.c)):
                with pytest.raises(RepresentationMismatchError) as exc:
                    build_interval_instance(h, pairs)
                assert str(exc.value) == expected
        assert kinds == {True, False}

    def test_mismatch_messages_by_hand(self):
        for edges, message in (
            ([], "pair (1,2): intervals meet but edge is absent"),
            ([(1, 2), (2, 3)], "pair (2,3): intervals miss but edge is present"),
        ):
            with pytest.raises(RepresentationMismatchError) as exc:
                build_interval_instance(build(3, edges, [1, 2, 1]), PAIRS)
            assert str(exc.value) == message
        with pytest.raises(RepresentationMismatchError) as exc:
            build_interval_instance(build(2, [], [1, 1]), {1: (0, 10), 2: (5, -1)})
        assert str(exc.value) == "vertex 2: interval [5,-1] has l > r"
        with pytest.raises(RepresentationMismatchError) as exc:
            build_interval_instance(build(2, [], [1, 1]), {1: (0, 1), 5: (3, 4)})
        assert str(exc.value) == "vertex 2 has no interval"

    def test_inverted_interval_rejected(self):
        # accepted unchecked, these intervals gave a DP value of 1 for two
        # isolated vertices, whose gamma_t is 2
        g = build(2, [], [1, 1])
        assert gamma_t(g).value == 2
        with pytest.raises(RepresentationMismatchError, match="vertex 2"):
            build_interval_instance(g, {1: (0, 16), 2: (28, 1)})
        # NaN compares false both ways; accepted, it failed inside the DP
        nan = float("nan")
        for pairs, v in (({1: (nan, nan), 2: (5, 6)}, 1), ({1: (0, 1), 2: (5, nan)}, 2)):
            with pytest.raises(RepresentationMismatchError, match=f"vertex {v}"):
                build_interval_instance(build(2, [], [1, 2]), pairs)

    def test_order_sorted_by_right_endpoint_then_id(self):
        g = build(3, [(1, 2), (1, 3), (2, 3)], [1, 1, 1])
        pairs = {1: (0, 5), 2: (1, 5), 3: (2, 4)}
        for f in ENDPOINTS:
            inst = build_interval_instance(g, {v: (f(lv), f(rv)) for v, (lv, rv) in pairs.items()})
            assert inst.order == (3, 1, 2)


def colours_by_position(inst):
    return [inst.graph.colour[v - 1] for v in inst.order]


def forced_positions(inst):
    """True at the positions whose colour has one vertex."""
    colours = colours_by_position(inst)
    return np.array([colours.count(k) == 1 for k in colours])


def windows(inst):
    """The forced positions, the predecessor windows P_i = lo_i..i-1 of the
    DP as tuples, and its first end position."""
    forced = forced_positions(inst)
    lo, first_end = interval._windows(np.array(inst.a), forced)
    P = tuple(tuple(range(j, i)) for i, j in enumerate(lo.tolist(), start=1))
    return tuple(forced.tolist()), P, first_end


def oracle_windows(inst, pairs):
    """The same from the definition oracle, fed the caller's own intervals
    in the instance's order."""
    l, r = zip(*(pairs[v] for v in inst.order))
    return brute_windows(l, r, colours_by_position(inst))


@st.composite
def coloured_intervals(draw):
    """Intervals on [0, 28] with colours that may leave some classes with
    one vertex; with c = n every class has one."""
    n = draw(st.integers(1, 10))
    c = draw(st.integers(1, n))
    extra = draw(st.lists(st.integers(1, c), min_size=n - c, max_size=n - c))
    colours = draw(st.permutations(list(range(1, c + 1)) + extra))
    pairs = {}
    for v in range(1, n + 1):
        lo = draw(st.integers(0, 20))
        pairs[v] = (lo, lo + draw(st.integers(0, 8)))
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if pairs[u][0] <= pairs[v][1] and pairs[v][0] <= pairs[u][1]
    ]
    return n, edges, colours, pairs


class TestPrefixTables:
    def test_hand_values(self):
        inst = spec_instance()
        # colour 2 has one vertex, at position 2, which positions 1 and 2
        # meet: only position 3 is required, and only prefixes to 3 reach it
        assert windows(inst) == oracle_windows(inst, PAIRS) == (
            (False, True, False), ((0,), (0, 1), (0, 1, 2)), 3
        )
        # with one colour nothing is forced: b = (1, 3, 3, 4), so n + 1 = 4
        # first at j = 3
        inst = build_interval_instance(build(3, [(1, 2)], [1, 1, 1]), PAIRS)
        assert windows(inst) == oracle_windows(inst, PAIRS) == (
            (False, False, False), ((0,), (0, 1), (1, 2)), 3
        )

    def test_single_interval(self):
        g = build(1, [], [1])
        assert windows(build_interval_instance(g, {1: (0, 1)})) == ((True,), ((0,),), 0)

    def test_matches_definition_oracle(self):
        # small spans give many ties, nested and equal intervals
        rng = np.random.default_rng(72)
        for k in range(160):
            n_max, span = (300, 40) if k % 20 == 0 else (30, int(rng.integers(2, 12)))
            n, edges, colours, pairs = random_interval_instance(rng, n_max=n_max, span=span)
            inst = build_interval_instance(build(n, edges, colours), pairs)
            assert windows(inst) == oracle_windows(inst, pairs)
        # 500 intervals on [0, 40] meet most earlier ones: long windows
        n = 500
        rng = np.random.default_rng(74)
        pairs = {v: tuple(sorted(int(x) for x in rng.integers(0, 41, size=2))) for v in range(1, n + 1)}
        edges = [
            (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
            if pairs[u][0] <= pairs[v][1] and pairs[v][0] <= pairs[u][1]
        ]
        inst = build_interval_instance(build(n, edges, [1] * n), pairs)
        assert windows(inst) == oracle_windows(inst, pairs)
        rng = np.random.default_rng(75)
        for _ in range(60):
            n, edges, colours, pairs = random_interval_instance(rng, n_max=40, span=12)
            inst = build_interval_instance(build(n, edges, colours), pairs)
            assert windows(inst) == oracle_windows(inst, pairs)
            if n <= 16:
                assert tdn_interval(inst).value == brute_gamma_t(n, edges, colours)

    def test_b_marks_dominating_prefixes(self):
        # the one-vertex colours and positions 1..j dominate everything
        # exactly from the first end on
        rng = np.random.default_rng(71)
        for _ in range(60):
            n, edges, colours, pairs = random_interval_instance(rng, n_max=10)
            g = build(n, edges, colours)
            inst = build_interval_instance(g, pairs)
            forced, _, first_end = windows(inst)
            taken = {v for v, f in zip(inst.order, forced) if f}
            for j in range(n + 1):
                prefix = taken | {inst.order[k] for k in range(j)}
                assert (j >= first_end) == is_dominating(g, prefix)


@settings(max_examples=300, deadline=None)
@given(coloured_intervals())
@example((4, [(1, 2), (2, 3), (3, 4)], [3, 1, 4, 2], {1: (0, 1), 2: (1, 2), 3: (2, 3), 4: (3, 4)}))
def test_one_vertex_colours_match_oracles(case):
    # the example has c' = 0: every vertex is taken and nothing is required
    n, edges, colours, pairs = case
    g = build(n, edges, colours)
    inst = build_interval_instance(g, pairs)
    assert windows(inst) == oracle_windows(inst, pairs)
    res = tdn_interval(inst)
    assert res.value == len(res.witness) == brute_gamma_t(n, edges, colours)
    assert is_dominating(g, res.witness) and is_tropical(g, res.witness)
    shared = sum(colours.count(k) > 1 for k in set(colours))
    assert res.explored == (n + 1) * 2**shared


class TestTdn:
    def test_spec_example(self):
        res = tdn_interval(spec_instance())
        assert res.value == 2 and res.witness == {2, 3}

    def test_single_interval(self):
        g = build(1, [], [1])
        res = tdn_interval(build_interval_instance(g, {1: (0, 1)}))
        assert res.value == 1 and res.witness == {1}

    def test_colour_cap(self):
        # (100 + 1) * 2^24 one-byte cells is 1.6 GiB: refused before allocation
        n, c = 100, 24
        g = build(n, [(i, i + 1) for i in range(1, n)], [1 + v % c for v in range(n)])
        inst = build_interval_instance(g, path_intervals(n))
        with pytest.raises(TooManyColoursError, match=f"needs {101 * 2**24 * 1} bytes"):
            tdn_interval(inst)

    @pytest.mark.parametrize(
        "c, top, itemsize",
        # a table cell takes the fewest bytes whose largest value top is at
        # least 2n + c + 1
        [(24, 2**8 - 1, 1), (25, 2**8 - 1, 1), (15, 2**16 - 1, 2), (16, 2**16 - 1, 2),
         (1, 2**32 - 1, 4), (2, 2**32 - 1, 4)],
    )
    def test_table_dtype_boundaries(self, c, top, itemsize):
        last = (top - c - 1) // 2  # the largest n with itemsize-byte cells
        assert interval._table_dtype(last, c).itemsize == itemsize
        assert interval._table_dtype(last + 1, c).itemsize == 2 * itemsize

    @pytest.mark.parametrize(
        "c, top, itemsize",
        # both n on each side of a dtype boundary are refused
        [(24, 2**8 - 1, 1), (25, 2**8 - 1, 1), (15, 2**16 - 1, 2), (16, 2**16 - 1, 2)],
    )
    def test_refusal_names_table_bytes(self, c, top, itemsize):
        last = (top - c - 1) // 2
        for n, size in ((last, itemsize), (last + 1, 2 * itemsize)):
            g = build(n, [(i, i + 1) for i in range(1, n)], [1 + v % c for v in range(n)])
            inst = build_interval_instance(g, path_intervals(n))
            with pytest.raises(TooManyColoursError) as exc:
                tdn_interval(inst)
            assert str(exc.value) == (
                f"c={c}, of which {c} have two or more vertices, n={n}: "
                f"the DP table needs {(n + 1) * 2**c * size} bytes, over the limit of {2**30}"
            )

    def test_one_vertex_colours_leave_the_table(self):
        # a 60-vertex path with 40 one-vertex colours and 4 shared ones:
        # rows of 2^4 cells, where c = 44 would need 2^44
        n = 60
        rng = np.random.default_rng(91)
        colours = rng.permutation(list(range(1, 41)) + [41 + v % 4 for v in range(20)]).tolist()
        g = build(n, [(i, i + 1) for i in range(1, n)], colours)
        res = tdn_interval(build_interval_instance(g))
        assert res.value == len(res.witness) == gamma_t(g).value
        assert is_dominating(g, res.witness) and is_tropical(g, res.witness)
        assert res.explored == (n + 1) * 2**4
        # 24 colours twice and 52 once on a 100-vertex path: c' = 24 needs
        # 101 * 2^24 one-byte cells, 1.6 GiB, refused before allocation
        n, c = 100, 76
        colours = rng.permutation([1 + v % 24 for v in range(48)] + list(range(25, c + 1))).tolist()
        g = build(n, [(i, i + 1) for i in range(1, n)], colours)
        inst = build_interval_instance(g)
        tracemalloc.start()
        try:
            with pytest.raises(TooManyColoursError) as exc:
                tdn_interval(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == (
            f"c={c}, of which 24 have two or more vertices, n={n}: "
            f"the DP table needs {101 * 2**24} bytes, over the limit of {2**30}"
        )
        assert peak < 2**20

    def test_fill_matches_a_window_by_window_reference(self):
        # the fill keeps a running minimum while a window keeps its start and
        # skips the forced rows; the reference reduces every window afresh.
        # Unreachable cells (above n) may differ in how far above n they are
        rng = np.random.default_rng(77)
        cases = []
        for _ in range(80):
            n, edges, colours, pairs = random_interval_instance(rng, n_max=30, c_max=8, span=12)
            cases.append((build(n, edges, colours), pairs))
        n = 40  # a clique: every window starts at 0
        colours = rng.permutation(list(range(1, 9)) + [9 + v % 3 for v in range(n - 8)]).tolist()
        g = build(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)], colours)
        cases.append((g, {v: (v, n + v) for v in range(1, n + 1)}))
        for g, pairs in cases:
            inst = build_interval_instance(g, pairs)
            n, colours = inst.n, colours_by_position(inst)
            forced = forced_positions(inst)
            lo, _ = interval._windows(np.array(inst.a), forced)
            shared = sorted({k for k in colours if colours.count(k) > 1})
            width = len(shared)
            bit = [shared.index(k) if k in shared else -1 for k in colours]
            dtype = interval._table_dtype(n, width)
            ref = np.full((n + 1, 2**width), np.iinfo(dtype).max - n - width, dtype=dtype)
            ref[0, 0] = 0
            for i in range(1, n + 1):
                if not forced[i - 1]:
                    b = 1 << bit[i - 1]
                    best = ref[lo[i - 1]:i].min(axis=0)
                    for S in range(2**width):
                        if S & b:
                            ref[i, S] = min(best[S], best[S ^ b])
                    ref[i] += 1
            free = [i for i in range(1, n + 1) if not forced[i - 1]]
            f = interval._fill_table(n, width, free, lo.tolist(), bit)
            assert np.array_equal(np.minimum(f, n + 1), np.minimum(ref, n + 1))

    def test_clique_answer_needs_one_table_copy(self):
        # the first position dominates a clique, so every row is an end row;
        # their totals are summed one row at a time, so besides the table
        # there are only a few one-byte rows: the missing-colour counts, the
        # halves they are doubled from and the row of totals
        n, c = 100, 14
        g = build(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)],
                  [1 + v % c for v in range(n)])
        inst = build_interval_instance(g, {v: (v, n + v) for v in range(1, n + 1)})
        table = (n + 1) * 2**c  # bytes: 2n + c + 1 <= 255 gives one-byte cells
        tracemalloc.start()
        try:
            res = tdn_interval(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.value == c and is_tropical(g, res.witness) and is_dominating(g, res.witness)
        assert peak <= table + 4 * 2**c

    def test_proper_clique_needs_no_predecessor_lists(self):
        # every earlier position is a predecessor here, so a list of them per
        # position would hold n^2 / 2 entries; the table itself is 9.4 KiB
        n, c = 600, 3
        g = build(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)],
                  [1 + v % c for v in range(n)])
        inst = build_interval_instance(g, {v: (v, v + n) for v in range(1, n + 1)})
        tracemalloc.start()
        try:
            res = tdn_interval(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.value == c and is_tropical(g, res.witness)
        assert peak < 2**20

    def test_matches_exact_oracle_random(self):
        rng = np.random.default_rng(73)
        for _ in range(200):
            n, edges, colours, pairs = random_interval_instance(rng, n_max=12)
            g = build(n, edges, colours)
            res = tdn_interval(build_interval_instance(g, pairs))
            assert res.value == gamma_t(g).value
            assert is_dominating(g, res.witness) and is_tropical(g, res.witness)

    def test_matches_subset_enumeration(self):
        rng = np.random.default_rng(79)
        for _ in range(60):
            n, edges, colours, pairs = random_interval_instance(rng, n_max=9)
            g = build(n, edges, colours)
            res = tdn_interval(build_interval_instance(g, pairs))
            assert res.value == brute_gamma_t(n, edges, colours)


def _interval_graph(rng, n, c, span):
    """n random intervals on [0, span + 20] and their intersection graph."""
    left = rng.integers(0, span, size=n)
    right = left + rng.integers(0, 21, size=n)
    by_left = np.argsort(left, kind="stable").tolist()
    lefts = sorted(left.tolist())
    edges = set()
    for k, u in enumerate(by_left):
        for w in by_left[k + 1 : bisect_right(lefts, int(right[u]))]:
            edges.add((min(u, w) + 1, max(u, w) + 1))
    colours = [1 + v % c for v in rng.permutation(n).tolist()]
    pairs = {v + 1: (int(left[v]), int(right[v])) for v in range(n)}
    return build(n, sorted(edges), colours), pairs


def pinned_cases() -> dict:
    """Seeded instances: vertex-cover reduction paths with 10 to 16 colours
    and random interval graphs, some with n on both sides of the
    uint8/uint16 and uint16/uint32 table dtypes."""
    cases = {}
    rng = np.random.default_rng(2026)
    for k, (n, m) in enumerate(
        [(5, 4), (5, 5), (5, 6), (5, 7), (6, 5), (6, 6), (6, 7), (6, 8), (6, 9)] * 2
    ):
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        while True:
            deg, edges = [0] * (n + 1), []
            for e in rng.permutation(len(pairs)).tolist():
                u, v = pairs[e]
                if len(edges) < m and deg[u] < 3 and deg[v] < 3:
                    edges.append((u, v))
                    deg[u] += 1
                    deg[v] += 1
            if len(edges) == m and min(deg[1:]) > 0:
                break
        g = vc_to_path(SubcubicGraph(n, tuple(edges))).path
        canon = path_intervals(g.n)
        cases[f"vc{k}-c{g.c}"] = (g, {v: canon[i] for i, v in enumerate(path_order(g), 1)})
    for n in (1, 2, 3, 5, 8, 12, 20, 40, 126, 127, 128, 129, 126, 127, 128, 129, 127, 128, 200,
              32767, 32768):
        c = int(rng.integers(1, min(n, 6) + 1))
        span = 4 * n if n > 200 else int(rng.choice([n // 4 + 1, 2 * n, 4 * n]))
        cases[f"random{len(cases)}-n{n}-c{c}-span{span}"] = _interval_graph(rng, n, c, span)
    # the table's dtype holds 2n + c + 1: n = 124 | 125 at c = 6 and
    # n = 32765 | 32766 at c = 4 are on both sides of a boundary
    for n, c in ((124, 6), (125, 6), (32765, 4), (32766, 4)):
        span = 4 * n if n > 200 else int(rng.choice([n // 4 + 1, 2 * n, 4 * n]))
        cases[f"random{len(cases)}-n{n}-c{c}-span{span}"] = _interval_graph(rng, n, c, span)
    return cases


def pinned_results() -> dict:
    """[value, sorted witness, explored] per case; a witness of more than 64
    vertices is given as the SHA-256 of its comma-joined sorted ids."""
    out = {}
    for name, (g, pairs) in pinned_cases().items():
        res = tdn_interval(build_interval_instance(g, pairs))
        witness = sorted(res.witness)
        if len(witness) > 64:
            witness = hashlib.sha256(",".join(map(str, witness)).encode()).hexdigest()
        out[name] = [res.value, witness, res.explored]
    return out


def test_pinned_tdn_interval():
    """(value, sorted witness, explored) equal tests/interval_pinned.json.

    The values were captured while the table was int64 and the predecessor
    lists were tuples, and agree since; `explored` and the witnesses were
    recaptured when the one-vertex colours left the table. To recapture,
    dump pinned_results() as JSON.
    """
    pinned = json.loads(Path(__file__).with_name("interval_pinned.json").read_text())
    assert pinned_results() == pinned


class TestPathIntervals:
    def test_representation_is_the_path(self):
        for n in range(1, 8):
            g = build(n, [(i, i + 1) for i in range(1, n)], [1] * n)
            inst = build_interval_instance(g, path_intervals(n))
            assert inst.order == tuple(range(1, n + 1))

    def test_tdn_on_coloured_paths(self):
        rng = np.random.default_rng(83)
        for _ in range(60):
            n = int(rng.integers(1, 12))
            c = int(rng.integers(1, min(3, n) + 1))
            while True:
                colours = (rng.integers(0, c, size=n) + 1).tolist()
                if len(set(colours)) == c:
                    break
            g = build(n, [(i, i + 1) for i in range(1, n)], colours)
            inst = build_interval_instance(g, path_intervals(n))
            assert tdn_interval(inst).value == gamma_t(g).value
