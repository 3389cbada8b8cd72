import numpy as np
import pytest

from _oracles import brute_gamma_t, brute_prefix_tables, random_interval_instance
from tropidom import (
    build,
    build_interval_instance,
    gamma_t,
    is_dominating,
    is_tropical,
    path_intervals,
    prefix_tables,
    tdn_interval,
)
from tropidom.errors import RepresentationMismatchError, TooManyColoursError

PAIRS = {1: (0, 2), 2: (1, 3), 3: (4, 5)}


def spec_instance():
    g = build(3, [(1, 2)], [1, 2, 1])
    return build_interval_instance(g, PAIRS)


class TestBuild:
    def test_valid_representation(self):
        inst = spec_instance()
        assert inst.order == (1, 2, 3)
        assert inst.l == (0, 1, 4) and inst.r == (2, 3, 5)

    def test_mismatch_rejected(self):
        g = build(3, [(1, 3)], [1, 2, 1])
        with pytest.raises(RepresentationMismatchError):
            build_interval_instance(g, PAIRS)

    def test_wrong_count_rejected(self):
        g = build(3, [(1, 2)], [1, 2, 1])
        with pytest.raises(RepresentationMismatchError):
            build_interval_instance(g, [(0, 2), (1, 3)])

    def test_pair_list_equals_dict(self):
        rng = np.random.default_rng(67)
        for _ in range(40):
            n, edges, colours, pairs = random_interval_instance(rng, n_max=30, span=8)
            g = build(n, edges, colours)
            as_list = [pairs[v] for v in range(1, n + 1)]
            assert build_interval_instance(g, as_list) == build_interval_instance(g, pairs)

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
        # an inverted interval meets another only if l_u <= r_v and l_v <= r_u
        g = build(2, [], [1, 1])
        assert build_interval_instance(g, [(0, 10), (5, -1)]).order == (2, 1)

    def test_order_sorted_by_right_endpoint_then_id(self):
        g = build(3, [(1, 2), (1, 3), (2, 3)], [1, 1, 1])
        inst = build_interval_instance(g, {1: (0, 5), 2: (1, 5), 3: (2, 4)})
        assert inst.order == (3, 1, 2)


class TestPrefixTables:
    def test_hand_values(self):
        t = prefix_tables(spec_instance())
        assert t.a == (1, 1, 3)
        assert t.b == (1, 3, 3, 4)  # b_0 = 1; n + 1 = 4 stands for infinity
        assert t.P == ((0,), (0, 1), (1, 2))

    def test_single_interval(self):
        g = build(1, [], [1])
        t = prefix_tables(build_interval_instance(g, {1: (0, 1)}))
        assert t.a == (1,) and t.b == (1, 2) and t.P == ((0,),)

    def test_matches_definition_oracle(self):
        # small spans give many ties, nested and equal intervals
        rng = np.random.default_rng(72)
        for k in range(160):
            n_max, span = (300, 40) if k % 20 == 0 else (30, int(rng.integers(2, 12)))
            n, edges, colours, pairs = random_interval_instance(rng, n_max=n_max, span=span)
            inst = build_interval_instance(build(n, edges, colours), pairs)
            t = prefix_tables(inst)
            assert (t.a, t.b, t.P) == brute_prefix_tables(inst.l, inst.r)

    def test_b_marks_dominating_prefixes(self):
        # b_j = infinity exactly when intervals 1..j dominate everything
        rng = np.random.default_rng(71)
        for _ in range(60):
            n, edges, colours, pairs = random_interval_instance(rng, n_max=10)
            g = build(n, edges, colours)
            inst = build_interval_instance(g, pairs)
            t = prefix_tables(inst)
            for j in range(1, n + 1):
                prefix = {inst.order[k] for k in range(j)}
                assert (t.b[j] == n + 1) == is_dominating(g, prefix)


class TestTdn:
    def test_spec_example(self):
        res = tdn_interval(spec_instance())
        assert res.value == 2 and res.witness == {2, 3}

    def test_single_interval(self):
        g = build(1, [], [1])
        res = tdn_interval(build_interval_instance(g, {1: (0, 1)}))
        assert res.value == 1 and res.witness == {1}

    def test_colour_cap(self):
        # (100 + 1) * 2^24 int64 cells is 12.6 GiB: refused before allocation
        n, c = 100, 24
        g = build(n, [(i, i + 1) for i in range(1, n)], [1 + v % c for v in range(n)])
        inst = build_interval_instance(g, path_intervals(n))
        with pytest.raises(TooManyColoursError, match=f"needs {101 * 2**24 * 8} bytes"):
            tdn_interval(inst)

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
