import dataclasses
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import brute_is_dominating, closed_neighbourhoods, random_coloured_graph, reference_edge_check
from tropidom import (
    ColouredGraph,
    build,
    degree_profile,
    gamma_t,
    gen_gnpc,
    greedy_setcover_tds,
    is_connected,
    is_dominating,
    is_rainbow,
    is_tropical,
    parse_instance,
    path_order,
    write_instance,
)
from tropidom.errors import (
    ColourGapError,
    DuplicateEdgeError,
    GraphBuildError,
    OutOfRangeError,
    SelfLoopError,
)


def p3(colours=(1, 2, 1)):
    return build(3, [(1, 2), (2, 3)], list(colours))


def k3(colours=(1, 2, 3)):
    return build(3, [(1, 2), (1, 3), (2, 3)], list(colours))


class TestBuild:
    def test_rejects_self_loop(self):
        with pytest.raises(SelfLoopError):
            build(2, [(1, 1)], [1, 1])

    def test_rejects_duplicate_edge_both_orientations(self):
        with pytest.raises(DuplicateEdgeError):
            build(2, [(1, 2), (2, 1)], [1, 1])

    def test_rejects_colour_gap(self):
        with pytest.raises(ColourGapError):
            build(2, [(1, 2)], [1, 3])

    def test_rejects_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            build(2, [(1, 3)], [1, 1])
        with pytest.raises(OutOfRangeError):
            build(0, [], [])
        with pytest.raises(OutOfRangeError):
            build(2, [(1, 2)], [1, 0])
        with pytest.raises(OutOfRangeError, match="expected 3 colours, got 2"):
            build(3, [], [1, 2])

    def test_edges_normalised(self):
        g = build(3, [(3, 1), (2, 1)], [1, 1, 1])
        assert g.edge_array.tolist() == [[1, 2], [1, 3]]
        assert g.m == 2 and g.c == 1

    def test_colour_classes(self):
        g = p3()
        assert g.colour_mask == (0b101, 0b010)

    def test_endpoint_beyond_int64_is_out_of_range(self):
        with pytest.raises(OutOfRangeError, match=f"edge \\(1,{2**70}\\) has endpoint outside 1..3"):
            build(3, [(1, 2), (1, 2**70)], [1, 1, 1])
        # the first offending edge in input order still decides the error
        with pytest.raises(SelfLoopError, match="self-loop at vertex 2"):
            build(3, [(1, 2), (2, 2), (-(2**70), 1)], [1, 1, 1])
        with pytest.raises(DuplicateEdgeError, match="duplicate edge \\(1,2\\)"):
            build(3, [(1, 2), (2, 1), (3, 2**70)], [1, 1, 1])

    def test_non_pair_items_rejected(self):
        with pytest.raises(ValueError):
            build(3, [(1, 2, 3)], [1, 1, 1])
        with pytest.raises(ValueError):
            build(3, [(1, 2), (1, 2, 3)], [1, 1, 1])
        with pytest.raises(ValueError):
            build(3, [(1,)], [1, 1, 1])
        # a cast would have read these as the edge (1,2)
        for edge, shown in (((1, 2.5), "(1,2.5)"), ((1, "2"), "(1,'2')"), ((1.0, 2), "(1.0,2)")):
            with pytest.raises(ValueError, match=re.escape(f"edge {shown} has a non-integer endpoint")):
                build(3, [(2, 3), edge], [1, 1, 1])

    def test_edges_stored_sorted_as_ints(self):
        rng = np.random.default_rng(8)
        graphs = [gen_gnpc(n, 0.3, min(n, 2), seed=s) for s, n in enumerate((1, 2, 9, 60))]
        for _ in range(20):
            n, edges, colours = random_coloured_graph(rng, n_max=10)
            edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
            rng.shuffle(edges)
            graphs.append(build(n, edges, colours))
        graphs.append(parse_instance("p tdgs 4 3 1\nv 1 1\nv 2 1\nv 3 1\nv 4 1\ne 3 4\ne 1 4\ne 1 2\n").graph)
        graphs += [parse_instance(write_instance(g)).graph for g in graphs]
        for g in graphs:
            rows = g.edge_array.tolist()
            assert rows == sorted(rows) and all(u < v for u, v in rows)


@st.composite
def edge_lists(draw):
    """n and a list of pairs: in range only, or with endpoints one step outside."""
    n = draw(st.integers(1, 7))
    end = st.integers(1, n) if draw(st.booleans()) else st.integers(-1, n + 1)
    return n, draw(st.lists(st.tuples(end, end), max_size=12))


@settings(max_examples=300, deadline=None)
@given(edge_lists())
def test_edge_errors_match_reference(case):
    n, edges = case
    kind, expect = reference_edge_check(n, edges)
    for given_edges in (edges, np.array(edges, dtype=np.int64).reshape(-1, 2)):
        if kind == "ok":
            assert build(n, given_edges, [1] * n).edge_array.tolist() == [list(e) for e in expect]
        else:
            with pytest.raises(GraphBuildError) as info:
                build(n, given_edges, [1] * n)
            assert (type(info.value).__name__, str(info.value)) == (kind, expect)


class TestPredicates:
    def test_p3_domination(self):
        g = p3()
        assert not is_dominating(g, {1})
        assert is_dominating(g, {2})

    def test_p3_tropical(self):
        g = p3()
        assert not is_tropical(g, {2})
        assert is_tropical(g, {1, 2})
        assert is_tropical(g, {1, 2, 3})

    def test_rainbow(self):
        g = p3()
        assert is_rainbow(g, {1, 2})
        assert not is_rainbow(g, {1, 2, 3})
        assert is_rainbow(k3(), {1, 2, 3})

    def test_ids_outside_one_to_n_are_refused(self):
        # without a range check, id 0 reads row -1, the row of vertex n
        g = build(3, [(2, 3)], [1, 1, 2])
        for bad in (0, 4, -1):
            assert not is_dominating(g, [bad, 1])
            assert not is_tropical(g, [bad, 1])
            assert not is_rainbow(g, [bad, 1])
        assert is_dominating(g, [3, 1]) and is_tropical(g, [3, 1])

    def test_full_vertex_set_always_tropical_dominating(self):
        for g in (p3(), k3()):
            assert is_dominating(g, g.vertices)
            assert is_tropical(g, g.vertices)


class TestDegreeAndConnectivity:
    def test_p3_profile(self):
        prof = degree_profile(p3())
        assert prof.delta == 1 and prof.big_delta == 2

    def test_k3_profile(self):
        prof = degree_profile(k3())
        assert prof.delta == prof.big_delta == 2

    def test_singleton_profile(self):
        prof = degree_profile(build(1, [], [1]))
        assert prof.delta == prof.big_delta == 0

    def test_isolated_vertex_profile(self):
        prof = degree_profile(build(4, [(1, 2), (1, 3)], [1, 1, 1, 1]))
        assert (prof.delta, prof.big_delta) == (0, 2)

    def test_connectivity(self):
        assert is_connected(p3())
        assert not is_connected(build(3, [(1, 2)], [1, 1, 1]))
        assert is_connected(build(1, [], [1]))

    def test_connectivity_matches_union_find(self):
        rng = np.random.default_rng(5)
        for _ in range(120):
            n, edges, colours = random_coloured_graph(rng, n_max=10)
            parent = list(range(n + 1))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for u, v in edges:
                parent[find(u)] = find(v)
            expect = len({find(v) for v in range(1, n + 1)}) == 1
            assert is_connected(build(n, edges, colours)) == expect


class TestPathOrder:
    def test_path(self):
        assert path_order(p3()) == [1, 2, 3]
        g = build(4, [(2, 4), (1, 3), (3, 2)], [1, 1, 1, 1])
        assert path_order(g) == [1, 3, 2, 4]

    def test_single_vertex(self):
        assert path_order(build(1, [], [1])) == [1]

    def test_non_paths(self):
        assert path_order(k3()) is None
        star = build(4, [(1, 2), (1, 3), (1, 4)], [1] * 4)
        assert path_order(star) is None
        disconnected = build(4, [(1, 2), (3, 4)], [1] * 4)
        assert path_order(disconnected) is None
        # m = n - 1 and two ends, so only the walk from vertex 1 finds the cycle
        path_and_cycle = build(5, [(1, 2), (3, 4), (4, 5), (3, 5)], [1] * 5)
        assert path_order(path_and_cycle) is None


class TestMasks:
    def test_closed_mask_matches_neighbour_lists(self):
        # closed_mask ORs edge by edge below m = 4n and packs boolean rows
        # from m = 4n on: the cases straddle that cutoff, n = 2100 packs its
        # rows in two blocks of 2^22 cells, and the last graph is made without
        # build
        rng = np.random.default_rng(17)
        graphs = [build(*random_coloured_graph(rng, n_max=9)) for _ in range(60)]
        for n in (1, 7, 8, 9, 63, 64, 65, 200):
            pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
            cases = [[], pairs]
            for m in (4 * n - 1, 4 * n, 4 * n + 1):
                if 0 < m < len(pairs):
                    pick = sorted(rng.choice(len(pairs), m, replace=False))
                    cases.append([pairs[i][:: int(rng.choice([-1, 1]))] for i in pick])
            graphs += [build(n, edges, [1] * n) for edges in cases]
        assert sum(g.m >= 4 * g.n for g in graphs) >= 10
        graphs.append(gen_gnpc(2100, 10 / 2099, 3, seed=19))
        assert graphs[-1].m >= 4 * 2100 and 2100**2 > 1 << 22
        pairs = [(u, v)[:: int(rng.choice([-1, 1]))] for u in range(1, 41) for v in range(u + 1, 41)]
        edges = np.array([pairs[i] for i in rng.choice(len(pairs), 200, replace=False)])
        graphs.append(ColouredGraph(n=40, edge_array=edges, colour=(1,) * 40, c=1))
        for g in graphs:
            for v, nbrs in enumerate(closed_neighbourhoods(g.n, g.edge_array.tolist()), 1):
                want = sum(1 << (u - 1) for u in nbrs)
                assert g.closed_mask[v - 1] == want

    def test_one_coloured_shares_neighbourhood_masks(self):
        g = p3()
        h = g.one_coloured()
        assert (h.n, h.edge_array.tolist(), h.colour, h.c) == (3, g.edge_array.tolist(), (1, 1, 1), 1)
        assert h.closed_mask is g.closed_mask
        assert h.colour_mask == (0b111,) and g.colour_mask == (0b101, 0b010)

    def test_a_graph_keeps_one_set_of_rows(self):
        # the path's centre positions 1, 4, 7, ... hold ids 1..k, so the
        # greedy meets the lower bound ceil(n / 3) and gamma_t searches no node
        n = 8000
        rng = np.random.default_rng(8)
        centres = np.arange(1, n - 1, 3)
        ids = np.empty(n, dtype=np.int64)
        ids[centres] = np.arange(1, len(centres) + 1)
        rest = np.setdiff1d(np.arange(n), centres)
        ids[rest] = rng.permutation(np.arange(len(centres) + 1, n + 1))
        g = build(n, np.column_stack((ids[:-1], ids[1:])), [1 + v % 3 for v in range(n)])
        walk = (ids if ids[0] < ids[-1] else ids[::-1]).tolist()
        tracemalloc.start()
        try:
            res = gamma_t(g)
            greedy_setcover_tds(g)
            found = is_connected(g) and path_order(g) == walk
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert found and (res.value, res.explored) == (-(-n // 3), 0)
        assert retained < 1.3 * sum(sys.getsizeof(r) for r in g.closed_mask)


class TestEdgeArray:
    def test_build_keeps_the_sorted_edges(self):
        cases = [
            build(4, [(3, 1), (2, 1), (4, 3)], [1, 2, 1, 2]),
            build(4, np.array([[3, 1], [2, 1], [4, 3]]), [1, 2, 1, 2]),
            build(3, [], [1, 2, 1]),
            build(3, np.zeros((0, 2), dtype=np.int64), [1, 2, 1]),
            gen_gnpc(40, 0.2, 3, 11),
        ]
        assert all(np.array_equal(g.edge_array, [[1, 2], [1, 3], [3, 4]]) for g in cases[:2])
        for g in cases:
            e = g.edge_array
            assert e.dtype == np.int64 and e.shape == (g.m, 2) and not e.flags.writeable
            assert np.all(e[:, 0] < e[:, 1]) and np.all(np.diff(e[:, 0] * (g.n + 1) + e[:, 1]) > 0)

    def test_copies_derive_the_same_array(self):
        rng = np.random.default_rng(23)
        graphs = [build(1, [], [1]), build(5, [(1, 2), (1, 3)], [1, 2, 3, 1, 2])]
        graphs += [gen_gnpc(int(rng.integers(2, 60)), 0.15, 2, [23, i]) for i in range(20)]
        for g in graphs:
            want = (degree_profile(g), write_instance(g))
            copies = [
                dataclasses.replace(g),
                ColouredGraph(n=g.n, edge_array=g.edge_array, colour=g.colour, c=g.c),
                g.one_coloured(),
                dataclasses.replace(g).one_coloured(),
            ]
            for h in copies:
                assert np.array_equal(h.edge_array, g.edge_array)
                assert degree_profile(h) == want[0]
            for h in copies[:2]:
                assert write_instance(h) == want[1]
            one = copies[2]
            assert write_instance(copies[3]) == write_instance(one)
            assert write_instance(one) == write_instance(build(g.n, g.edge_array.tolist(), [1] * g.n))

    def test_direct_construction_keeps_edge_order(self):
        # a graph made without build is written as its edge rows read
        g = ColouredGraph(n=3, edge_array=np.array([[2, 3], [1, 2]]), colour=(1, 2, 1), c=2)
        assert write_instance(g) == "p tdgs 3 2 2\nv 1 1\nv 2 2\nv 3 1\ne 2 3\ne 1 2\n"
        assert degree_profile(g).big_delta == 2

    def test_equality_hash_and_repr(self):
        pairs, colours = [(1, 2), (3, 1), (4, 3)], [1, 2, 1, 2]
        g = build(4, pairs, colours)
        same = [
            build(4, np.array(pairs), colours),
            build(4, [(v, u) for u, v in pairs], colours),
            parse_instance(write_instance(g)).graph,
            dataclasses.replace(g),
        ]
        for h in same:
            assert h == g and hash(h) == hash(g)
        other = [
            build(4, [(1, 2), (3, 1), (4, 2)], colours),
            build(4, pairs, [1, 2, 2, 1]),
            build(4, pairs[:2], colours),
            build(5, pairs, colours + [1]),
        ]
        assert all(h != g for h in other) and g != pairs
        assert g.one_coloured().edge_array is g.edge_array
        big = gen_gnpc(300, 0.5, 5, 3)
        assert dataclasses.replace(big).edge_array is big.edge_array
        assert parse_instance(write_instance(big)).graph == big
        assert repr(big) == f"ColouredGraph(n=300, m={big.m}, c=5)"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_domination_matches_brute_force(seed, data):
    rng = np.random.default_rng(seed)
    n, edges, colours = random_coloured_graph(rng, n_max=8)
    g = build(n, edges, colours)
    s = data.draw(st.sets(st.integers(1, n)))
    assert is_dominating(g, s) == brute_is_dominating(n, edges, s)
