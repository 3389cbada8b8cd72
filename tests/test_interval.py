import hashlib
import json
import tracemalloc
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest

from _oracles import brute_gamma_t, brute_prefix_tables, random_interval_instance
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
from tropidom.interval import IntervalInstance

PAIRS = {1: (0, 2), 2: (1, 3), 3: (4, 5)}
# integer endpoints as they are, as floats, and beyond int64
ENDPOINTS = [lambda x: x, lambda x: x + 0.5, lambda x: x * 10**30 - 7]


def spec_instance():
    g = build(3, [(1, 2)], [1, 2, 1])
    return build_interval_instance(g, PAIRS)


class TestBuild:
    def test_valid_representation(self):
        g = build(3, [(1, 2)], [1, 2, 1])
        for f in ENDPOINTS:
            inst = build_interval_instance(g, {v: (f(lv), f(rv)) for v, (lv, rv) in PAIRS.items()})
            assert inst.order == (1, 2, 3)
            assert inst.l == tuple(map(f, (0, 1, 4))) and inst.r == tuple(map(f, (2, 3, 5)))
            assert tdn_interval(inst).value == 2

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
        assert build_interval_instance(g) == build_interval_instance(g, laid)
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
        # flip a few pairs; the message names the least (u, v) that differs
        rng = np.random.default_rng(69)
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
            with pytest.raises(RepresentationMismatchError) as exc:
                build_interval_instance(build(n, sorted(flipped), colours), pairs)
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

    def test_order_sorted_by_right_endpoint_then_id(self):
        g = build(3, [(1, 2), (1, 3), (2, 3)], [1, 1, 1])
        pairs = {1: (0, 5), 2: (1, 5), 3: (2, 4)}
        for f in ENDPOINTS:
            inst = build_interval_instance(g, {v: (f(lv), f(rv)) for v, (lv, rv) in pairs.items()})
            assert inst.order == (3, 1, 2)


def prefix_tables(inst):
    """a, b and the predecessor lists P_i of the DP, as tuples."""
    a, b, preds, start = interval._prefix_arrays(inst)
    flat, start = preds.tolist(), start.tolist()
    P = tuple(tuple(flat[s:e]) for s, e in zip(start, start[1:]))
    return tuple(a.tolist()), tuple(b.tolist()), P


class TestPrefixTables:
    def test_hand_values(self):
        a, b, P = prefix_tables(spec_instance())
        assert a == (1, 1, 3)
        assert b == (1, 3, 3, 4)  # b_0 = 1; n + 1 = 4 stands for infinity
        assert P == ((0,), (0, 1), (1, 2))

    def test_single_interval(self):
        g = build(1, [], [1])
        assert prefix_tables(build_interval_instance(g, {1: (0, 1)})) == ((1,), (1, 2), ((0,),))

    def test_matches_definition_oracle(self):
        # small spans give many ties, nested and equal intervals
        rng = np.random.default_rng(72)
        for k in range(160):
            n_max, span = (300, 40) if k % 20 == 0 else (30, int(rng.integers(2, 12)))
            n, edges, colours, pairs = random_interval_instance(rng, n_max=n_max, span=span)
            inst = build_interval_instance(build(n, edges, colours), pairs)
            assert prefix_tables(inst) == brute_prefix_tables(inst.l, inst.r)

    def test_matches_definition_oracle_across_row_blocks(self, monkeypatch):
        # 500 intervals on [0, 40] meet most earlier ones: their windows
        # {j : b_j >= a_i, r_j < r_i} hold more cells than one block
        n = 500
        rng = np.random.default_rng(74)
        pairs = {v: tuple(sorted(int(x) for x in rng.integers(0, 41, size=2))) for v in range(1, n + 1)}
        edges = [
            (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
            if pairs[u][0] <= pairs[v][1] and pairs[v][0] <= pairs[u][1]
        ]
        inst = build_interval_instance(build(n, edges, [1] * n), pairs)
        a, b, P = brute_prefix_tables(inst.l, inst.r)
        r0 = (float("-inf"),) + inst.r
        cells = sum(b[j] >= a[i] and r0[j] < inst.r[i] for i in range(n) for j in range(n + 1))
        assert cells > interval._MASK_CELLS
        assert prefix_tables(inst) == (a, b, P)
        # blocks of a few cells, and windows longer than a block
        rng = np.random.default_rng(75)
        for block in (1, 5, 64):
            monkeypatch.setattr(interval, "_MASK_CELLS", block)
            for _ in range(20):
                n, edges, colours, pairs = random_interval_instance(rng, n_max=40, span=12)
                inst = build_interval_instance(build(n, edges, colours), pairs)
                assert prefix_tables(inst) == brute_prefix_tables(inst.l, inst.r)
                if n <= 16:
                    assert tdn_interval(inst).value == brute_gamma_t(n, edges, colours)

    def test_b_marks_dominating_prefixes(self):
        # b_j = infinity exactly when intervals 1..j dominate everything
        rng = np.random.default_rng(71)
        for _ in range(60):
            n, edges, colours, pairs = random_interval_instance(rng, n_max=10)
            g = build(n, edges, colours)
            inst = build_interval_instance(g, pairs)
            _, b, _ = prefix_tables(inst)
            for j in range(1, n + 1):
                prefix = {inst.order[k] for k in range(j)}
                assert (b[j] == n + 1) == is_dominating(g, prefix)


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
        # least 2n + c + 1; both n on each side of a boundary are refused
        [(24, 2**8 - 1, 1), (25, 2**8 - 1, 1), (15, 2**16 - 1, 2), (16, 2**16 - 1, 2),
         (1, 2**32 - 1, 4), (2, 2**32 - 1, 4)],
    )
    def test_refusal_names_table_bytes(self, c, top, itemsize):
        last = (top - c - 1) // 2  # the largest n with itemsize-byte cells
        for n, size in ((last, itemsize), (last + 1, 2 * itemsize)):
            if n < 2**20:
                g = build(n, [(i, i + 1) for i in range(1, n)], [1 + v % c for v in range(n)])
                inst = build_interval_instance(g, path_intervals(n))
            else:  # too large to build: only n and c are read before the refusal
                empty = ColouredGraph(n=n, edge_array=np.zeros((0, 2), np.int64), colour=(), c=c)
                inst = IntervalInstance(empty, (), (), ())
            with pytest.raises(TooManyColoursError) as exc:
                tdn_interval(inst)
            assert str(exc.value) == (
                f"c={c}, n={n}: the DP table needs {(n + 1) * 2**c * size} bytes, "
                f"over the limit of {2**30}"
            )

    def test_clique_answer_needs_one_table_copy(self):
        # the first position dominates a clique, so the argmin sees every row;
        # its totals stay in the table's dtype, one copy of the end rows
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
        assert peak < 2.5 * table

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

    The file was captured while the table was int64 and the predecessor
    lists were tuples; to recapture, dump pinned_results() as JSON.
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
