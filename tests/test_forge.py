import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from _oracles import brute_satisfiable, gnpc_reference
from tropidom import (
    CnfFormula,
    SubcubicGraph,
    build,
    extract_vc,
    extremal_edge_bound,
    extremal_gamma_plus,
    forge,
    gamma,
    gamma_t,
    gen_gnpc,
    greedy_setcover_tds,
    pad_colours,
    parse_dimacs_cnf,
    path_five_thirds,
    path_order,
    rainbow_exists,
    sat_to_path,
    vc_to_path,
    write_instance,
)
from tropidom.cli import EXIT_INPUT, main
from tropidom.errors import (
    BadEpsilonError,
    BadParametersError,
    EmptyGraphError,
    HasIsolatedVertexError,
    MalformedFormulaError,
    NotAPathError,
    NotSubcubicError,
    NotTropicalDominatingError,
    ParseError,
    WrongArtifactError,
)

DIMACS = """\
c tiny example
p cnf 3 2
1 -2 3 0
-1 2 2 0
"""


class TestCnf:
    def test_parse_dimacs(self):
        f = parse_dimacs_cnf(DIMACS)
        assert f.num_vars == 3 and f.tau == 2 and f.X == 6
        assert f.clauses[0] == ((1, True), (2, False), (3, True))

    def test_parse_rejections(self):
        for text, message in (
            ("1 2 3 0\n", "line 1: clause before 'p cnf' header"),
            ("p cnf 3 1\n1 2 0\n", "line 2: clause lines hold 3 nonzero ints then 0"),
            ("p cnf 3 2\n1 2 3 0\n", "line 1: header declares 2 clauses, got 1"),
            ("p cnf 3 1\n1 2 x 0\n", "line 2: clause line has a non-integer field"),
            # SATLIB files end with a "%" line
            ("p cnf 3 1\n1 2 3 0\n%\n0\n", "line 3: clause line has a non-integer field"),
            ("c x\np cnf x 1\n1 2 3 0\n", "line 2: header has a non-integer field"),
            ("p cnf 3\n", "line 1: header must read 'p cnf <vars> <clauses>'"),
            ("p cnf 3 1\n1 0 2 0\n", "line 2: zero literal inside clause"),
            ("c only a comment\n", "line 1: missing 'p cnf' header"),
        ):
            with pytest.raises(ParseError) as exc:
                parse_dimacs_cnf(text)
            assert str(exc.value) == message

    def test_formula_validation(self):
        with pytest.raises(MalformedFormulaError):
            CnfFormula(num_vars=1, clauses=(((1, True), (2, True), (1, False)),))
        with pytest.raises(MalformedFormulaError):
            CnfFormula(num_vars=2, clauses=(((1, True), (2, True)),))
        with pytest.raises(MalformedFormulaError):
            sat_to_path(parse_dimacs_cnf("p cnf 1 0\n"))

    def test_satisfiable(self):
        sat = CnfFormula(2, (((1, True), (1, True), (2, True)),))
        assert brute_satisfiable(sat)
        unsat = CnfFormula(
            1, (((1, True),) * 3, ((1, False),) * 3)
        )
        assert not brute_satisfiable(unsat)


class TestSubcubic:
    def test_validation(self):
        with pytest.raises(NotSubcubicError):
            SubcubicGraph(5, tuple((1, v) for v in range(2, 6)))
        with pytest.raises(HasIsolatedVertexError):
            SubcubicGraph(3, ((1, 2),))
        with pytest.raises(BadParametersError):
            SubcubicGraph(2, ((1, 2), (2, 1)))

    def test_isolated_vertex_refused_before_allocating(self):
        # n > 2m: some vertex has no edge, whatever the edges are
        tracemalloc.start()
        try:
            with pytest.raises(HasIsolatedVertexError, match="isolated vertex present"):
                SubcubicGraph(2**70, ((1, 2),))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("n, edges, message", [
        (3, ((1, 2**70), (2, 3)), "edge (1,1180591620717411303424) has endpoint outside 1..3"),
        (3, ((1, 2), (2, 2)), "self-loop at vertex 2"),
        (2, ((1, 2), (2, 1)), "duplicate edge (1,2)"),
    ])
    def test_edge_errors_carry_build_messages(self, n, edges, message):
        with pytest.raises(BadParametersError) as exc:
            SubcubicGraph(n, edges)
        assert str(exc.value) == message

    def test_min_vertex_cover(self):
        assert SubcubicGraph(2, ((1, 2),)).min_vertex_cover() == 1
        tri = SubcubicGraph(3, ((1, 2), (2, 3), (1, 3)))
        assert tri.min_vertex_cover() == 2
        assert tri.is_vertex_cover({1, 2})
        assert not tri.is_vertex_cover({1})


class TestGnpc:
    def test_deterministic(self):
        assert gen_gnpc(10, 0.5, 3, seed=1) == gen_gnpc(10, 0.5, 3, seed=1)
        assert gen_gnpc(10, 0.5, 3, seed=1) != gen_gnpc(10, 0.5, 3, seed=2)

    def test_colours_surjective(self):
        for seed in range(30):
            g = gen_gnpc(8, 0.4, 4, seed=seed)
            assert set(g.colour) == {1, 2, 3, 4}

    def test_edge_density(self):
        rng_total = 0
        trials = 400
        for seed in range(trials):
            rng_total += gen_gnpc(10, 0.5, 2, seed=seed).m
        mean = rng_total / (trials * 45)
        sigma = math.sqrt(0.25 / (trials * 45))
        assert abs(mean - 0.5) < 4 * sigma

    def test_single_colour_gamma_equals_gamma_t(self):
        for seed in range(20):
            g = gen_gnpc(9, 0.4, 1, seed=seed)
            assert gamma(g).value == gamma_t(g).value

    def test_matches_per_pair_reference(self, monkeypatch):
        cases = [(1, 0.5, 1, 0), (2, 0.9, 2, 3), (12, 0.3, 3, 1), (40, 0.5, 5, [7, 2]),
                 (75, 0.05, 4, 11), (150, 0.7, 8, 5), (230, 0.02, 2, [1, 0, 230])]
        # 79,800 pairs: two blocks of coins, the second one short
        big = (400, 0.03, 3, 9)
        assert big[0] * (big[0] - 1) // 2 > forge._BLOCK_PAIRS
        for n, p, c, seed in cases + [big]:
            edges, colours = gnpc_reference(n, p, c, seed)
            g = gen_gnpc(n, p, c, seed=seed)
            assert g.edge_array.tolist() == [list(e) for e in edges] and g.colour == tuple(colours)
        # blocks that end inside rows, and rows longer than a block
        for block in (1, 7, 64):
            monkeypatch.setattr(forge, "_BLOCK_PAIRS", block)
            for n, p, c, seed in cases[:5]:
                edges, colours = gnpc_reference(n, p, c, seed)
                g = gen_gnpc(n, p, c, seed=seed)
                assert g.edge_array.tolist() == [list(e) for e in edges] and g.colour == tuple(colours)

    def test_parameter_validation(self):
        with pytest.raises(BadParametersError):
            gen_gnpc(5, 0.0, 1, seed=0)
        with pytest.raises(BadParametersError):
            gen_gnpc(5, 0.5, 6, seed=0)

    def test_colour_draws_are_capped(self, monkeypatch, capsys, tmp_path):
        # at n = c = 100 no draw uses every colour: the cap ends the wait
        monkeypatch.setattr(forge, "_MAX_COLOUR_DRAWS", 100)
        with pytest.raises(BadParametersError, match="n=100 .*c=100"):
            gen_gnpc(100, 0.1, 100, seed=100)
        out = tmp_path / "g.tdgs"
        code = main(["gen", "gnpc", "-n", "100", "-p", "0.1", "-c", "100", "--seed", "100", "--out", str(out)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
        # a draw that needs resampling still returns within the cap
        assert gen_gnpc(5, 0.5, 5, seed=4).c == 5 and gen_gnpc.last_resamples == 43


class TestExtremal:
    def test_gamma_plus_triangle(self):
        g = extremal_gamma_plus(1, 1)
        assert g.n == 3 and gamma_t(g).value == 1
        with pytest.raises(BadParametersError):
            extremal_gamma_plus(0, 1)

    def test_gamma_plus_values(self):
        for gam, c in [(2, 2), (3, 3), (2, 4)]:
            g = extremal_gamma_plus(gam, c)
            assert g.n == 3 * gam + c - 1
            assert gamma(g).value == gam
            assert gamma_t(g).value == gam + c - 1

    def test_edge_bound_instance(self):
        g = extremal_edge_bound(8, 4, 2)
        q = 8 - 4 + 2 - 1
        assert g.m == math.comb(q, 2) + 8 - 4 == 14
        assert gamma_t(g).value == 4

    def test_edge_bound_guards(self):
        with pytest.raises(BadParametersError):
            extremal_edge_bound(4, 2, 3)
        with pytest.raises(BadParametersError):
            extremal_edge_bound(7, 5, 2)  # pendant set larger than clique side


# (y1 | !y2 | y3) & (!y1 | y2 | y3) & (!y1 | y3 | y4)
FIXED_FORMULA = CnfFormula(
    4,
    (
        ((1, True), (2, False), (3, True)),
        ((1, False), (2, True), (3, True)),
        ((1, False), (3, True), (4, True)),
    ),
)


class TestSatReduction:
    def test_fixed_formula_shape(self):
        # six antithetic literal pairs, so the path is 15 + 6 * 5 + 1 = 46
        # vertices long
        f = FIXED_FORMULA
        art = sat_to_path(f)
        assert path_order(art.path) is not None
        assert art.path.n == 46
        assert art.anchors["v"] == 1 and art.anchors["v'"] == 2
        gadgets = sorted(k for k in art.anchors if k.startswith("w_"))
        assert gadgets == ["w_1_4", "w_1_7", "w_2_5", "w_4_1", "w_5_2", "w_7_1"]
        assert art.anchors["F"] == art.path.n
        assert rainbow_exists(art.path)[0] == brute_satisfiable(f) == True  # noqa: E712

    def test_fixed_formula_instance_pinned(self):
        art = sat_to_path(FIXED_FORMULA)
        text = write_instance(art.path, legend=art.colour_legend)
        assert len(text) == 1286
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e24a8508b9c7ce9b2e40da9fc1d9a8cde43be9c54d39eff10e0e23a50d9dda0c"
        )
        gadgets = ["w_1_4", "w_1_7", "w_2_5", "w_4_1", "w_5_2", "w_7_1"]
        assert art.anchors == {
            "v": 1,
            "v'": 2,
            **{f"v_{idx}": idx + 3 for idx in range(13)},
            **dict(zip(gadgets, range(16, 46, 5))),
            "F": 46,
        }

    def test_equivalence_on_random_formulas(self):
        rng = np.random.default_rng(101)
        for _ in range(40):
            tau = int(rng.integers(1, 4))
            nv = int(rng.integers(1, 4))
            clauses = tuple(
                tuple(
                    (int(rng.integers(1, nv + 1)), bool(rng.integers(0, 2)))
                    for _ in range(3)
                )
                for _ in range(tau)
            )
            f = CnfFormula(nv, clauses)
            ok, wit, _ = rainbow_exists(sat_to_path(f).path)
            assert ok == brute_satisfiable(f)


class TestVcReduction:
    def test_k2(self):
        art = vc_to_path(SubcubicGraph(2, ((1, 2),)))
        assert art.path.n == 21 and art.path.c == 4
        assert gamma_t(art.path).value == 8 == 1 + 1 + 3 * 2

    def test_triangle(self):
        tri = SubcubicGraph(3, ((1, 2), (2, 3), (1, 3)))
        art = vc_to_path(tri)
        assert art.path.n == 9 * 3 + 3 and art.path.c == 3 + 3 + 1
        assert gamma_t(art.path).value == 2 + 1 + 9

    def test_identity_on_random_subcubic(self):
        rng = np.random.default_rng(103)
        done = 0
        while done < 15:
            n = int(rng.integers(2, 5))
            cand = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
            edges = tuple(e for e in cand if rng.random() < 0.6)
            try:
                sg = SubcubicGraph(n, edges)
            except Exception:
                continue
            art = vc_to_path(sg)
            gt = gamma_t(art.path)
            assert gt.value == sg.min_vertex_cover() + 1 + 3 * n
            cover = extract_vc(art, gt.witness)
            assert sg.is_vertex_cover(cover)
            assert len(cover) <= len(gt.witness) - 1 - 3 * n
            done += 1

    def test_extract_vc_guards(self):
        sg = SubcubicGraph(2, ((1, 2),))
        art = vc_to_path(sg)
        f = CnfFormula(1, (((1, True),) * 3,))
        with pytest.raises(WrongArtifactError):
            extract_vc(sat_to_path(f), set())
        with pytest.raises(NotTropicalDominatingError):
            extract_vc(art, {1})

    def test_extract_vc_from_suboptimal_sigma(self):
        sg = SubcubicGraph(2, ((1, 2),))
        art = vc_to_path(sg)
        sigma = set(range(1, art.path.n + 1))  # every vertex
        cover = extract_vc(art, sigma)
        assert sg.is_vertex_cover(cover)
        assert len(cover) <= len(sigma) - 1 - 3 * sg.n


    # extract_vc's covers, as digit strings, on ten seeded sources: from the
    # greedy, path53 and gamma_t witnesses, then two supersets of each
    PINNED_COVERS = [
        ["12", "1", "1", "123", "12", "1", "13", "12", "123"],
        ["23", "12", "12", "23", "235", "124", "123", "125", "123"],
        ["12", "1", "1", "12", "124", "1", "14", "13", "124"],
        ["123", "123", "24", "123", "123", "1234", "123", "24", "234"],
        ["1234", "1234", "125", "1234", "1234", "1234", "1234", "125", "1235"],
        ["12345", "1345", "146", "12345", "12345", "1345", "1345", "1346", "1346"],
        ["12", "12", "2", "123", "123", "12", "123", "23", "123"],
        ["13", "13", "13", "123", "134", "1234", "123", "13", "1234"],
        ["1234", "1234", "125", "1234", "1234", "1234", "12345", "125", "1245"],
        ["123", "13", "13", "1235", "1234", "13", "1345", "13", "1235"],
    ]

    def test_extract_vc_pinned_on_non_optimal_sets(self):
        rng = np.random.default_rng(113)
        covers = []
        while len(covers) < len(self.PINNED_COVERS):
            n = int(rng.integers(2, 7))
            cand = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
            try:
                sg = SubcubicGraph(n, tuple(e for e in cand if rng.random() < 0.5))
            except (EmptyGraphError, NotSubcubicError, HasIsolatedVertexError):
                continue
            art = vc_to_path(sg)
            g = art.path
            sets = [greedy_setcover_tds(g).witness, path_five_thirds(g).witness, gamma_t(g).witness]
            sets += [s | set(rng.integers(1, g.n + 1, size=k).tolist()) for s in sets for k in (2, 5)]
            covers.append(["".join(map(str, sorted(extract_vc(art, s)))) for s in sets])
        assert covers == self.PINNED_COVERS


def _pin_formulas():
    """300 seeded 3-CNF formulas with 1..40 variables and 1..60 clauses.

    Every third formula draws about a third of its literals from up to three
    hot variables, in both polarities; about one literal in seven repeats the
    one before it in its clause.
    """
    rng = np.random.default_rng(151)
    for k in range(300):
        nv = int(rng.integers(1, 41))
        tau = int(rng.integers(1, 61))
        hot = rng.integers(1, nv + 1, size=min(nv, 3))
        clauses = []
        for _ in range(tau):
            cl = []
            for _ in range(3):
                r = rng.random()
                if r < 0.15 and cl:
                    cl.append(cl[-1])
                elif r < 0.45 and k % 3 == 0:
                    cl.append((int(rng.choice(hot)), bool(rng.integers(0, 2))))
                else:
                    cl.append((int(rng.integers(1, nv + 1)), bool(rng.integers(0, 2))))
            clauses.append(tuple(cl))
        yield CnfFormula(nv, tuple(clauses))


def _pin_subcubic_graphs():
    """300 seeded subcubic graphs with n in 2..30, edges unsorted and each
    pair given in a random orientation."""
    rng = np.random.default_rng(157)
    made = 0
    while made < 300:
        n = int(rng.integers(2, 31))
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        deg = [0] * (n + 1)
        edges = []
        m = int(rng.integers(n // 2, 3 * n // 2 + 1))
        for k in rng.permutation(len(pairs)):
            u, v = pairs[k]
            if deg[u] < 3 and deg[v] < 3 and len(edges) < m:
                edges.append((v, u) if rng.random() < 0.5 else (u, v))
                deg[u] += 1
                deg[v] += 1
        try:
            sg = SubcubicGraph(n, tuple(edges))
        except (HasIsolatedVertexError, NotSubcubicError):
            continue
        made += 1
        yield sg


class TestReductionsPinned:
    """SHA-256 over the instance text, anchors and meta of every artifact."""

    @staticmethod
    def _digest(artifacts):
        h = hashlib.sha256()
        for art in artifacts:
            h.update(write_instance(art.path, legend=art.colour_legend).encode())
            h.update(json.dumps([art.anchors, art.meta]).encode())
        return h.hexdigest()

    def test_sat_to_path_pinned(self):
        assert self._digest(map(sat_to_path, _pin_formulas())) == (
            "268ca7c770ede68d426dcb708b0133042c9ad734e19d868c419c162fc4916959"
        )

    def test_vc_to_path_pinned(self):
        graphs = list(_pin_subcubic_graphs())
        degrees = set()
        for sg in graphs:
            degrees |= set(np.bincount(np.ravel(sg.edges), minlength=sg.n + 1)[1:].tolist())
        assert degrees == {1, 2, 3}
        assert {sg.n for sg in graphs} >= {2, 30}
        assert self._digest(map(vc_to_path, graphs)) == (
            "439f37611adb06219b4480b1b43c539c1ae6a0f77c2a2a599f11029c7a7eea76"
        )


class TestPadColours:
    def test_epsilon_validation(self):
        g = build(2, [(1, 2)], [1, 2])
        with pytest.raises(BadEpsilonError):
            pad_colours(g, 1.5)
        with pytest.raises(NotAPathError):
            pad_colours(build(3, [(1, 2), (1, 3), (2, 3)], [1, 1, 1]), 0.5)

    @pytest.mark.parametrize("n, epsilon", [(21, 0.01), (21, 0.1), (1447, 0.5)])
    def test_oversized_tail_refused_before_allocating(self, n, epsilon):
        # N = ceil((n+2)^(1/eps)) is 23^100, 23^10 ~ 4e13 and 1449^2 = 2^21 + 2449
        g = build(n, [(i, i + 1) for i in range(1, n)], [1] * n)
        tracemalloc.start()
        try:
            with pytest.raises(BadEpsilonError, match=r"over the limit of 2\^21"):
                pad_colours(g, epsilon)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_small_tail_still_built(self):
        g = build(21, [(i, i + 1) for i in range(1, 21)], [1] * 21)
        out = pad_colours(g, 0.9)
        assert out.n == 21 + math.ceil(23 ** (1 / 0.9))
        assert path_order(out) is not None

    def test_shape(self):
        g = build(3, [(1, 2), (2, 3)], [1, 2, 1])
        out = pad_colours(g, 0.5)
        tail = math.ceil((3 + 2) ** 2)
        assert out.n == 3 + tail
        assert out.c == g.c + 2
        assert path_order(out) is not None
        # padded instance has few colours relative to its size
        assert out.c < out.n**0.5

    def test_value_relation_tiny(self):
        g = build(3, [(1, 2), (2, 3)], [1, 2, 1])
        out = pad_colours(g, 1.0)
        base = gamma_t(g).value
        assert gamma_t(out).value >= base
