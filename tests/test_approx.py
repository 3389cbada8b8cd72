import hashlib
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import brute_gamma_t, closed_neighbourhoods, random_coloured_graph, reference_greedy_cover
from tropidom import (
    build,
    gamma,
    gamma_t,
    gen_gnpc,
    greedy_setcover_tds,
    is_dominating,
    is_tropical,
    mds_plus_colours,
    path_five_thirds,
    path_lower_bound,
)
from tropidom import approx
from tropidom.approx import harmonic
from tropidom.graph import path_order
from tropidom.exact import _greedy_cover, greedy_dominating
from tropidom.interval import build_interval_instance, tdn_interval
from tropidom.errors import NotAPathError, NotDominatingError


def path(colours):
    n = len(colours)
    return build(n, [(i, i + 1) for i in range(1, n)], list(colours))


def surjective_colourings(n, c):
    for combo in product(range(1, c + 1), repeat=n):
        if len(set(combo)) == c:
            yield combo


def test_harmonic():
    assert harmonic(1) == 1
    assert harmonic(3) == Fraction(11, 6)


def test_harmonic_equals_the_plain_fraction_sum():
    total = Fraction(0)
    for k in range(1, 401):
        total += Fraction(1, k)
        assert harmonic(k) == total


class TestGreedy:
    def test_star_single_colour(self):
        g = build(5, [(1, v) for v in range(2, 6)], [1] * 5)
        res = greedy_setcover_tds(g)
        assert res.size == 1 and res.witness == {1}

    def test_k2_two_colours(self):
        g = build(2, [(1, 2)], [1, 2])
        res = greedy_setcover_tds(g)
        assert res.size == 2

    def test_guarantee_on_random_corpus(self):
        rng = np.random.default_rng(89)
        for _ in range(120):
            n, edges, colours = random_coloured_graph(rng)
            g = build(n, edges, colours)
            res = greedy_setcover_tds(g)
            assert is_dominating(g, res.witness) and is_tropical(g, res.witness)
            gt = gamma_t(g).value
            assert res.lower_bound <= gt
            assert res.size <= res.ratio_bound * gt

    def test_matches_full_rescan_on_gnpc_and_a_long_path(self):
        rng = np.random.default_rng(1978)
        graphs = []
        for i, n in enumerate((20, 60, 150, 300, 450, 600)):
            for p in (10 / (n - 1), 0.1, 0.5):
                graphs.append(gen_gnpc(n, p, int(rng.integers(1, 9)), [1978, i]))
        n = 2548
        colours = list(range(1, 15)) + (rng.integers(0, 14, size=n - 14) + 1).tolist()
        graphs.append(build(n, [(i, i + 1) for i in range(1, n)], colours))
        for g in graphs:
            closed = [sum(1 << (u - 1) for u in nbrs) for nbrs in closed_neighbourhoods(g.n, g.edges)]
            want = [v + 1 for v in reference_greedy_cover(closed, (1 << g.n) - 1)]
            assert greedy_dominating(g) == want
            sets = [m | (1 << (g.n + k - 1)) for m, k in zip(closed, g.colour)]
            want = [v + 1 for v in reference_greedy_cover(sets, (1 << (g.n + g.c)) - 1)]
            res = greedy_setcover_tds(g)
            assert res.witness == frozenset(want) and res.size == len(want)

    def test_witnesses_pinned(self):
        # sha256 of the sorted greedy_setcover_tds and greedy_dominating
        # witnesses, one line each: 200 seeded G(n, p, c) with n 20..600, then
        # 50 seeded relabelled paths
        rng = np.random.default_rng(1979)
        graphs = []
        for i in range(200):
            n = int(rng.integers(20, 601))
            p = (10 / (n - 1), 20 / (n - 1), 0.05, 0.2)[i % 4]
            graphs.append(gen_gnpc(n, p, int(rng.integers(1, min(12, n) + 1)), [1979, i]))
        for _ in range(50):
            n = int(rng.integers(2, 301))
            c = int(rng.integers(1, min(8, n) + 1))
            ids = [int(v) + 1 for v in rng.permutation(n)]
            colours = list(range(1, c + 1)) + (rng.integers(0, c, size=n - c) + 1).tolist()
            rng.shuffle(colours)
            graphs.append(build(n, [(ids[i], ids[i + 1]) for i in range(n - 1)], colours))
        lines = []
        for g in graphs:
            lines.append(sorted(greedy_setcover_tds(g).witness))
            lines.append(sorted(greedy_dominating(g)))
        text = "\n".join(",".join(map(str, w)) for w in lines)
        assert len(lines) == 500
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "9c0ec377192c20e5d062c3d50598d7bf98453740d679415afbe03d8417aad833"
        )


@st.composite
def set_systems(draw):
    """Bitmask sets and the union of them as target; some sets repeat others
    (pure ties), and some targets hold a bit that no set covers."""
    width = draw(st.integers(1, 70))
    sets = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=30))
    if sets and draw(st.booleans()):
        sets = draw(st.permutations(sets + draw(st.lists(st.sampled_from(sets), min_size=1, max_size=10))))
    target = 0
    for s in sets:
        target |= s
    if draw(st.booleans()):
        target |= 1 << width
    return sets, target


def _outcome(cover, sets, target):
    try:
        return cover(sets, target)
    except AssertionError:
        return "uncoverable"


@settings(max_examples=500, deadline=None)
@given(set_systems())
def test_lazy_cover_matches_full_rescan(system):
    sets, target = system
    assert _outcome(_greedy_cover, sets, target) == _outcome(reference_greedy_cover, sets, target)


class TestMdsPlusColours:
    def test_rejects_non_dominating(self):
        g = path([1, 2, 1])
        with pytest.raises(NotDominatingError):
            mds_plus_colours(g, {1})
        # ids outside 1..n dominate nothing
        g = build(3, [(2, 3)], [1, 1, 2])
        for bad in (0, 4):
            with pytest.raises(NotDominatingError):
                mds_plus_colours(g, [bad, 1])

    def test_completion(self):
        g = path([1, 2, 1])
        res = mds_plus_colours(g, {2})
        assert is_tropical(g, res.witness) and is_dominating(g, res.witness)
        assert res.size == 2

    def test_adds_at_most_c_minus_one(self):
        rng = np.random.default_rng(97)
        for _ in range(60):
            n, edges, colours = random_coloured_graph(rng)
            g = build(n, edges, colours)
            ds = gamma(g).witness
            res = mds_plus_colours(g, ds)
            assert len(ds) <= res.size <= len(ds) + g.c - 1


class TestPathLowerBound:
    def test_rejects_non_path(self):
        g = build(3, [(1, 2), (1, 3), (2, 3)], [1, 2, 3])
        with pytest.raises(NotAPathError):
            path_lower_bound(g)


class TestPathFiveThirds:
    def test_p5_example(self):
        g = path([1, 2, 1, 1, 1])
        res = path_five_thirds(g)
        assert res.size == 2 == gamma_t(g).value

    def test_p3_single_colour(self):
        res = path_five_thirds(path([1, 1, 1]))
        assert res.size == 1 and res.witness == {2}

    def test_rejects_non_path(self):
        g = build(4, [(1, 2), (1, 3), (1, 4)], [1, 1, 1, 1])
        with pytest.raises(NotAPathError):
            path_five_thirds(g)

    def test_walks_the_path_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(approx, "path_order", lambda g: calls.append(g) or path_order(g))
        g = build(5, [(4, 1), (1, 5), (5, 2), (2, 3)], [1, 2, 1, 2, 3])
        res = path_five_thirds(g)
        assert calls == [g]
        assert res.lower_bound == path_lower_bound(g) == 3

    def test_exhaustive_small_paths(self):
        for n in range(1, 10):
            for c in range(1, min(3, n) + 1):
                for colours in surjective_colourings(n, c):
                    g = path(colours)
                    res = path_five_thirds(g)
                    assert is_dominating(g, res.witness) and is_tropical(g, res.witness)
                    gt = brute_gamma_t(n, g.edges, list(colours))
                    assert res.size <= Fraction(5, 3) * gt
                    assert res.size <= (n + 2 * c) // 3 + 1
                    assert res.lower_bound == path_lower_bound(g) <= gt

    def test_relabelled_paths_differential(self):
        # path order differs from id order, so positions and ids diverge
        rng = np.random.default_rng(5353)
        for _ in range(300):
            n = int(rng.integers(2, 13))
            c = int(rng.integers(1, min(4, n) + 1))
            ids = [int(v) + 1 for v in rng.permutation(n)]
            colours = list(range(1, c + 1)) + (rng.integers(0, c, size=n - c) + 1).tolist()
            rng.shuffle(colours)
            g = build(n, [(ids[i], ids[i + 1]) for i in range(n - 1)], colours)
            exact, dp, res = gamma_t(g), tdn_interval(build_interval_instance(g)), path_five_thirds(g)
            assert path_lower_bound(g) <= exact.value == dp.value <= res.size
            assert res.size <= Fraction(5, 3) * exact.value
            for w in (dp.witness, res.witness):
                assert is_dominating(g, w) and is_tropical(g, w)

    def test_witnesses_pinned(self):
        # sha256 of the sorted witnesses, one line per path: every surjective
        # colouring with n <= 8 and c <= 3, then 2,000 seeded relabelled paths
        lines = []
        for n in range(1, 9):
            for c in range(1, min(3, n) + 1):
                for colours in surjective_colourings(n, c):
                    lines.append(sorted(path_five_thirds(path(colours)).witness))
        rng = np.random.default_rng(5335)
        for _ in range(2000):
            n = int(rng.integers(2, 15))
            c = int(rng.integers(1, min(5, n) + 1))
            ids = [int(v) + 1 for v in rng.permutation(n)]
            colours = list(range(1, c + 1)) + (rng.integers(0, c, size=n - c) + 1).tolist()
            rng.shuffle(colours)
            g = build(n, [(ids[i], ids[i + 1]) for i in range(n - 1)], colours)
            lines.append(sorted(path_five_thirds(g).witness))
        text = "\n".join(",".join(map(str, w)) for w in lines)
        assert len(lines) == 10836
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "9bac70f68b3b6af37f5cbaa03076d1bc9fccb91e90e140a4c6f42a8d99ac9d93"
        )
