import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import brute_is_dominating, closed_neighbourhoods, random_coloured_graph
from tropidom import build, degree_profile, is_connected, is_dominating, is_rainbow, is_tropical, path_order
from tropidom.errors import (
    ColourGapError,
    DuplicateEdgeError,
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

    def test_edges_normalised(self):
        g = build(3, [(3, 1), (2, 1)], [1, 1, 1])
        assert g.edges == ((1, 2), (1, 3))
        assert g.m == 2 and g.c == 1

    def test_colour_classes(self):
        g = p3()
        assert g.colour_mask == (0b101, 0b010)


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
        rng = np.random.default_rng(17)
        for _ in range(60):
            n, edges, colours = random_coloured_graph(rng, n_max=9)
            g = build(n, edges, colours)
            for v, nbrs in enumerate(closed_neighbourhoods(n, edges), 1):
                assert g.closed_mask[v - 1] == sum(1 << (u - 1) for u in nbrs)

    def test_one_coloured_shares_neighbourhood_masks(self):
        g = p3()
        h = g.one_coloured()
        assert (h.n, h.edges, h.colour, h.c) == (3, g.edges, (1, 1, 1), 1)
        assert h.adj_mask is g.adj_mask and h.closed_mask is g.closed_mask
        assert h.colour_mask == (0b111,) and g.colour_mask == (0b101, 0b010)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_domination_matches_brute_force(seed, data):
    rng = np.random.default_rng(seed)
    n, edges, colours = random_coloured_graph(rng, n_max=8)
    g = build(n, edges, colours)
    s = data.draw(st.sets(st.integers(1, n)))
    assert is_dominating(g, s) == brute_is_dominating(n, edges, s)
