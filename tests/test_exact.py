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
        sets = brute_rainbow_sets(4, g.edge_array.tolist(), list(g.colour))
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
        # the cover bound refutes the 3-coloured C12 at the root; C9 takes 7 nodes
        g = cycle(9, [((i % 3) + 1) for i in range(9)])
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


# (n, p, c, seed, gamma, gamma_t), each result as (value, sorted witness,
# explored). The fixed branching order makes witnesses and node counts part
# of the solvers' behaviour, so a change to either shows up here.
PINNED = [
    (16, 0.21, 5, 0, (5, [2, 5, 6, 9, 16], 31), (5, [5, 7, 8, 9, 16], 9)),
    (18, 0.39, 2, 1, (3, [1, 2, 7], 5), (3, [4, 7, 11], 16)),
    (29, 0.19, 6, 2, (5, [3, 5, 10, 21, 26], 41), (6, [2, 10, 13, 15, 21, 26], 14)),
    (28, 0.2, 1, 3, (6, [1, 19, 20, 21, 26, 27], 488), (6, [1, 19, 20, 21, 26, 27], 488)),
    (29, 0.2, 3, 4, (7, [7, 12, 13, 20, 24, 28, 29], 320), (7, [7, 12, 13, 20, 24, 28, 29], 320)),
    (20, 0.34, 4, 5, (3, [1, 7, 15], 5), (4, [2, 10, 12, 20], 3)),
    (30, 0.32, 1, 6, (4, [6, 16, 21, 23], 43), (4, [6, 16, 21, 23], 43)),
    (25, 0.29, 1, 7, (4, [12, 15, 20, 23], 59), (4, [12, 15, 20, 23], 59)),
    (13, 0.39, 6, 8, (2, [1, 13], 0), (6, [1, 2, 3, 5, 7, 9], 3)),
    (21, 0.25, 4, 9, (5, [1, 4, 6, 11, 18], 13), (6, [1, 4, 6, 8, 11, 18], 32)),
    (14, 0.28, 2, 10, (4, [1, 3, 4, 8], 11), (4, [1, 3, 4, 8], 11)),
    (27, 0.41, 2, 11, (3, [3, 5, 9], 9), (3, [3, 5, 9], 9)),
    (27, 0.23, 2, 12, (4, [4, 5, 6, 8], 20), (4, [4, 5, 6, 8], 20)),
    (27, 0.23, 5, 13, (6, [1, 3, 4, 9, 23, 26], 156), (6, [4, 14, 15, 17, 18, 22], 34)),
    (13, 0.17, 2, 14, (6, [1, 2, 3, 5, 8, 9], 28), (6, [1, 2, 3, 5, 8, 9], 28)),
    (26, 0.23, 3, 15, (6, [2, 3, 5, 6, 13, 24], 140), (6, [2, 5, 6, 13, 18, 24], 135)),
    (19, 0.24, 6, 16, (4, [1, 6, 10, 15], 17), (6, [6, 7, 13, 15, 17, 19], 7)),
    (19, 0.3, 5, 17, (4, [2, 6, 11, 14], 23), (5, [3, 5, 6, 11, 17], 5)),
    (21, 0.44, 3, 18, (3, [3, 4, 9], 6), (3, [3, 4, 9], 0)),
    (16, 0.17, 6, 19, (5, [2, 3, 4, 5, 11], 37), (6, [1, 3, 4, 8, 12, 16], 6)),
    (18, 0.21, 2, 20, (5, [1, 5, 6, 14, 16], 12), (5, [1, 5, 6, 14, 16], 12)),
    (15, 0.32, 6, 21, (3, [5, 12, 13], 4), (6, [1, 2, 3, 7, 8, 12], 5)),
    (29, 0.4, 3, 22, (3, [1, 10, 26], 14), (3, [10, 23, 24], 36)),
    (13, 0.35, 3, 23, (3, [1, 2, 6], 7), (4, [1, 2, 4, 6], 13)),
    (14, 0.16, 2, 24, (5, [1, 2, 4, 8, 11], 7), (5, [1, 2, 4, 8, 11], 7)),
    (15, 0.25, 5, 25, (3, [3, 9, 12], 3), (5, [1, 3, 4, 9, 12], 0)),
    (25, 0.23, 3, 26, (4, [4, 5, 19, 21], 12), (4, [4, 5, 19, 21], 6)),
    (24, 0.32, 2, 27, (4, [1, 12, 16, 18], 20), (4, [1, 12, 16, 18], 20)),
    (29, 0.28, 3, 28, (5, [8, 9, 13, 17, 24], 106), (5, [8, 9, 13, 17, 24], 100)),
    (23, 0.3, 2, 29, (4, [2, 7, 9, 16], 37), (4, [2, 7, 9, 16], 37)),
]


@pytest.mark.parametrize("n, p, c, seed, want_gamma, want_gamma_t", PINNED)
def test_pinned_gamma_and_gamma_t(n, p, c, seed, want_gamma, want_gamma_t):
    g = gen_gnpc(n, p, c, seed=seed)
    for solve, want in ((gamma, want_gamma), (gamma_t, want_gamma_t)):
        res = solve(g)
        assert (res.value, sorted(res.witness), res.explored) == want


# (n, p, c, seed, rainbow_exists as (exists, sorted witness, explored),
# count_rainbow_ds): G(n, 1/2, 3) threshold trials on yes and no answers, and
# sparse many-colour graphs of TestRainbowSearch. Pinned like PINNED above.
RAINBOW_PINNED = [
    (60, 0.5, 3, [1717, 60, 0], (True, [20, 27, 29], 142), 1),
    (60, 0.5, 3, [1717, 60, 1], (True, [35, 54, 60], 179), 1),
    (60, 0.5, 3, [1717, 60, 2], (True, [18, 26, 30], 84), 4),
    (70, 0.5, 3, [1717, 70, 0], (True, [10, 31, 33], 159), 1),
    (70, 0.5, 3, [1717, 70, 1], (True, [1, 9, 36], 39), 4),
    (70, 0.5, 3, [1717, 70, 2], (True, [23, 52, 57], 136), 3),
    (80, 0.5, 3, [1717, 80, 0], (False, None, 508), 0),
    (80, 0.5, 3, [1717, 80, 1], (True, [38, 46, 79], 534), 1),
    (80, 0.5, 3, [1717, 80, 2], (False, None, 431), 0),
    (60, 0.08, 10, [1212, 10, 2], (False, None, 97), 0),
    (60, 0.12, 10, [1212, 10, 1], (False, None, 1189), 0),
    (60, 0.12, 10, [1212, 10, 2], (True, [11, 15, 19, 23, 24, 28, 30, 53, 58, 59], 723), 4),
]


@pytest.mark.parametrize("n, p, c, seed, want_exists, want_count", RAINBOW_PINNED)
def test_pinned_rainbow(n, p, c, seed, want_exists, want_count):
    g = gen_gnpc(n, p, c, seed=seed)
    res = rainbow_exists(g)
    witness = None if res.witness is None else sorted(res.witness)
    assert (res.exists, witness, res.explored) == want_exists
    assert count_rainbow_ds(g) == want_count


BUDGET_ROWS = [PINNED[i][:4] for i in (2, 13, 18, 22, 28)]


@pytest.mark.parametrize("n, p, c, seed", BUDGET_ROWS + [row[:4] for row in RAINBOW_PINNED])
def test_budget_counts_the_reported_nodes(n, p, c, seed):
    g = gen_gnpc(n, p, c, seed=seed)
    # gamma takes seconds on the ten-colour rainbow rows
    solvers = (gamma, gamma_t) if (n, p, c, seed) in BUDGET_ROWS else ()
    for solve in (*solvers, rainbow_exists):
        res = solve(g)
        assert solve(g, budget=res.explored) == res
        if res.explored >= 1:
            with pytest.raises(BudgetExceededError):
                solve(g, budget=res.explored - 1)
    # counting walks the existence search's tree and, past a witness, more
    with pytest.raises(BudgetExceededError):
        count_rainbow_ds(g, budget=res.explored - 1)
    if not res.exists:
        assert count_rainbow_ds(g, budget=res.explored) == 0
