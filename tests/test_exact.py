import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    brute_gamma,
    brute_gamma_t,
    brute_rainbow_sets,
    random_coloured_graph,
)
from tropidom import (
    CnfFormula,
    build,
    count_rainbow_ds,
    degree_profile,
    gamma,
    gamma_t,
    gen_gnpc,
    is_dominating,
    is_rainbow,
    is_tropical,
    rainbow_exists,
    sat_to_path,
)
from tropidom.errors import BudgetExceededError


def p3(colours=(1, 2, 1)):
    return build(3, [(1, 2), (2, 3)], list(colours))


def cycle(n, colours=None):
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return build(n, edges, colours or [1] * n)


class TestGamma:
    def test_p3(self):
        res = gamma(p3())
        assert res.value == 1 and res.witness == {2}

    def test_c9(self):
        assert gamma(cycle(9)).value == 3

    def test_matches_brute_force(self):
        rng = np.random.default_rng(41)
        for _ in range(150):
            n, edges, colours = random_coloured_graph(rng)
            g = build(n, edges, colours)
            assert gamma(g).value == brute_gamma(n, edges)

    def test_witness_is_deterministic_and_valid(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            n, edges, colours = random_coloured_graph(rng)
            g = build(n, edges, colours)
            r1, r2 = gamma(g), gamma(g)
            assert r1.witness == r2.witness
            assert is_dominating(g, r1.witness)
            assert len(r1.witness) == r1.value


class TestGammaT:
    def test_k3_all_colours(self):
        g = build(3, [(1, 2), (1, 3), (2, 3)], [1, 2, 3])
        assert gamma_t(g).value == 3

    def test_p3_two_colours(self):
        res = gamma_t(p3())
        assert res.value == 2
        assert is_tropical(p3(), res.witness)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(47)
        for _ in range(150):
            n, edges, colours = random_coloured_graph(rng)
            g = build(n, edges, colours)
            assert gamma_t(g).value == brute_gamma_t(n, edges, colours)

    def test_sandwich_bounds(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            n, edges, colours = random_coloured_graph(rng)
            g = build(n, edges, colours)
            gv, gt = gamma(g).value, gamma_t(g).value
            assert max(gv, g.c) <= gt <= gv + g.c - 1

    def test_dense_graphs_need_exactly_c(self):
        # min degree at least n - c forces value c
        rng = np.random.default_rng(59)
        checked = 0
        for _ in range(300):
            n, edges, colours = random_coloured_graph(rng, n_max=10)
            g = build(n, edges, colours)
            if degree_profile(g).delta >= g.n - g.c:
                assert gamma_t(g).value == g.c
                checked += 1
        assert checked > 10


class TestRainbow:
    def test_k3(self):
        g = build(3, [(1, 2), (1, 3), (2, 3)], [1, 2, 3])
        ok, wit, _ = rainbow_exists(g)
        assert ok and is_rainbow(g, wit)

    def test_p3(self):
        ok, wit, _ = rainbow_exists(p3())
        assert ok and 2 in wit and len(wit) == 2

    def test_p4_exhaustive(self):
        g = build(4, [(1, 2), (2, 3), (3, 4)], [1, 2, 2, 1])
        sets = brute_rainbow_sets(4, g.edges, list(g.colour))
        ok, wit, _ = rainbow_exists(g)
        assert ok == bool(sets)
        if ok:
            assert wit in sets

    def test_matches_brute_force(self):
        rng = np.random.default_rng(61)
        for _ in range(150):
            n, edges, colours = random_coloured_graph(rng, n_max=10)
            g = build(n, edges, colours)
            sets = brute_rainbow_sets(n, edges, colours)
            ok, wit, _ = rainbow_exists(g)
            assert ok == bool(sets)
            if ok:
                assert wit in sets


def sat_paths(count):
    """The reduction paths of the first random formulas of acceptance
    criterion 4 (same generator, same seed)."""
    rng = np.random.default_rng(4004)
    for _ in range(count):
        vs = int(rng.integers(1, 5))
        combo = tuple(
            tuple((int(rng.integers(1, vs + 1)), bool(rng.integers(0, 2))) for _ in range(3))
            for _ in range(3)
        )
        nvars = max(v for cl in combo for v, _ in cl)
        yield sat_to_path(CnfFormula(nvars, combo)).path


class TestRainbowSearch:
    def test_exists_and_count_agree_within_budget(self):
        # reduction paths and sparse many-colour graphs, where a search that
        # takes the colour classes in a fixed order needs far more nodes
        graphs = list(sat_paths(40))
        for p in (0.08, 0.12):
            for c in (6, 8, 10):
                graphs += [gen_gnpc(60, p, c, seed=[1212, c, s]) for s in range(4)]
        for g in graphs:
            ok, wit, _ = rainbow_exists(g, budget=10**5)
            count = count_rainbow_ds(g, budget=10**5)
            assert ok == (count > 0)
            if ok:
                assert is_rainbow(g, wit) and is_dominating(g, wit)

    def test_exists_iff_gamma_t_equals_c(self):
        checked = yes = 0
        for n in (20, 25, 30):
            for p in (0.15, 0.2, 0.3):
                for c in (4, 6, 8, 10):
                    for s in range(3):
                        g = gen_gnpc(n, p, c, seed=[2323, n, round(100 * p), c, s])
                        ok, _, _ = rainbow_exists(g)
                        assert ok == (gamma_t(g).value == g.c)
                        checked += 1
                        yes += ok
        assert checked == 108 and 0 < yes < checked

    def test_result_fields(self):
        res = rainbow_exists(p3())
        assert res.exists is True
        assert res.witness == frozenset({1, 2}) or res.witness == frozenset({2, 3})
        assert res.explored == res[2] >= 1
        assert rainbow_exists(build(2, [], [1, 1])).witness is None


class TestCountRainbow:
    def test_edgeless_pair_one_colour(self):
        g = build(2, [], [1, 1])
        assert count_rainbow_ds(g) == 0

    def test_matches_enumeration(self):
        rng = np.random.default_rng(67)
        for _ in range(150):
            n, edges, colours = random_coloured_graph(rng, n_max=10)
            g = build(n, edges, colours)
            assert count_rainbow_ds(g) == len(brute_rainbow_sets(n, edges, colours))


class TestBudget:
    def test_budget_exceeded(self):
        g = cycle(12, [((i % 3) + 1) for i in range(12)])
        with pytest.raises(BudgetExceededError):
            gamma_t(g, budget=2)
        with pytest.raises(BudgetExceededError):
            rainbow_exists(g, budget=1)

    def test_explored_within_budget(self):
        # greedy already finds an optimum on C9, so no nodes get expanded
        assert gamma(cycle(9)).explored == 0
        g = cycle(12, [((i % 3) + 1) for i in range(12)])
        res = gamma_t(g)
        assert 0 < res.explored <= 10**8


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_gamma_t_witness_always_valid(seed):
    rng = np.random.default_rng(seed)
    n, edges, colours = random_coloured_graph(rng, n_max=9)
    g = build(n, edges, colours)
    res = gamma_t(g)
    assert is_dominating(g, res.witness) and is_tropical(g, res.witness)
    assert len(res.witness) == res.value
