from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from _oracles import brute_gamma_t, random_coloured_graph
from tropidom import (
    build,
    gamma,
    gamma_t,
    greedy_setcover_tds,
    is_dominating,
    is_tropical,
    mds_plus_colours,
    path_five_thirds,
    path_lower_bound,
)
from tropidom.approx import harmonic
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


class TestMdsPlusColours:
    def test_rejects_non_dominating(self):
        g = path([1, 2, 1])
        with pytest.raises(NotDominatingError):
            mds_plus_colours(g, {1})

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

    def test_never_exceeds_optimum(self):
        for n in range(1, 9):
            for c in range(1, min(3, n) + 1):
                for colours in surjective_colourings(n, c):
                    g = path(colours)
                    assert path_lower_bound(g) <= brute_gamma_t(n, g.edges, list(colours))


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
                    assert res.lower_bound <= gt

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
