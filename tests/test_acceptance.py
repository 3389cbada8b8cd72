"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single PASS / FAIL /
SOFT FAIL line on the real terminal (bypassing capture) so the verdicts are
visible in any run. Soft criteria describe asymptotic statements probed at
desk scale; a miss there is reported as SOFT FAIL with the measured number
and marked as an expected failure rather than silently relaxed.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from collections import Counter
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from _oracles import brute_satisfiable, random_interval_instance
from tropidom import (
    CnfFormula,
    RandomModel,
    SubcubicGraph,
    build,
    build_interval_instance,
    concentration_window,
    expected_rainbow_count,
    extract_vc,
    extremal_edge_bound,
    extremal_gamma_plus,
    gamma,
    gamma_t,
    gen_gnpc,
    greedy_setcover_tds,
    is_dominating,
    is_tropical,
    path_five_thirds,
    rainbow_exists,
    run_concentration_experiment,
    run_expectation_experiment,
    run_threshold_experiment,
    sat_to_path,
    search_conjecture,
    tdn_interval,
    threshold_colours,
    vc_to_path,
)
from tropidom.approx import harmonic
from tropidom.cli import EXIT_OK, main
from tropidom.interval import path_intervals
from tropidom.problab import audit_bounds


def verdict(capsys, num, name, ok, detail, soft=False):
    tag = "PASS" if ok else ("SOFT FAIL" if soft else "FAIL")
    with capsys.disabled():
        print(f"criterion {num:2d} ({name}): {tag} - {detail}")


def path_graph(colours):
    n = len(colours)
    return build(n, [(i, i + 1) for i in range(1, n)], list(colours))


_PATH_CORPUS: list[tuple[tuple[int, ...], int]] = []


def path_corpus():
    """Coloured paths, n <= 12, c <= 3: exhaustive where small, a seeded
    sample capped at 10^4 colourings per n otherwise. Cached with the exact
    optimum so two criteria can share it."""
    if _PATH_CORPUS:
        return _PATH_CORPUS
    cap = 10**4
    rng = np.random.default_rng(20240)

    def growth_strings(n, cmax):
        # colourings up to renaming: colour k appears only after 1..k-1 did
        def rec(prefix, used):
            if len(prefix) == n:
                yield tuple(prefix)
                return
            for k in range(1, min(used + 1, cmax) + 1):
                prefix.append(k)
                yield from rec(prefix, max(used, k))
                prefix.pop()

        yield from rec([], 0)

    for n in range(1, 13):
        colourings = list(growth_strings(n, min(3, n)))
        if len(colourings) > cap:
            idx = rng.choice(len(colourings), size=cap, replace=False)
            colourings = [colourings[i] for i in sorted(idx)]
        for colours in colourings:
            gt = gamma_t(path_graph(colours)).value
            _PATH_CORPUS.append((colours, gt))
    return _PATH_CORPUS


def test_criterion_01_interval_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    mismatches = 0
    for _ in range(500):
        n, edges, colours, pairs = random_interval_instance(rng, n_max=14, c_max=4)
        g = build(n, edges, colours)
        res = tdn_interval(build_interval_instance(g, pairs))
        if res.value != gamma_t(g).value:
            mismatches += 1
        assert is_dominating(g, res.witness) and is_tropical(g, res.witness)
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60
    verdict(capsys, 1, "interval DP = exact oracle", ok,
            f"500 instances, {mismatches} mismatches, {elapsed:.1f}s (limit 60s)")
    assert ok


def test_criterion_02_path_five_thirds_ratio(capsys):
    violations = 0
    size_violations = 0
    worst = Fraction(0)
    total = 0
    for colours, gt in path_corpus():
        total += 1
        n, c = len(colours), max(colours)
        res = path_five_thirds(path_graph(colours))
        ratio = Fraction(res.size, gt)
        worst = max(worst, ratio)
        if ratio > Fraction(5, 3):
            violations += 1
        if res.size > (n + 2 * c) // 3 + 1:
            size_violations += 1
    ok = violations == 0 and size_violations == 0
    verdict(capsys, 2, "path 5/3 ratio", ok,
            f"{total} paths, {violations} ratio / {size_violations} size violations, "
            f"worst ratio {worst} = {float(worst):.3f}")
    assert ok


def test_criterion_03_greedy_guarantee(capsys):
    violations = 0
    total = 0
    for colours, gt in path_corpus():
        total += 1
        g = path_graph(colours)
        big_delta = max(Counter(g.edge_array.ravel().tolist()).values(), default=0)
        res = greedy_setcover_tds(g)
        if res.size > harmonic(big_delta + 2) * gt:
            violations += 1
    for seed in range(100):
        g = gen_gnpc(12, 0.3, 3, seed=[3003, seed])
        big_delta = max(Counter(g.edge_array.ravel().tolist()).values(), default=0)
        res = greedy_setcover_tds(g)
        total += 1
        if res.size > harmonic(big_delta + 2) * gamma_t(g).value:
            violations += 1
    ok = violations == 0
    verdict(capsys, 3, "greedy H(Delta+2) guarantee", ok,
            f"{total} instances, {violations} violations")
    assert ok


def _all_three_literal_clauses(nv):
    lits = [(v, pol) for v in range(1, nv + 1) for pol in (True, False)]
    return list(itertools.combinations_with_replacement(lits, 3))


def _canonical_formula(clauses, nv):
    best = None
    for perm in itertools.permutations(range(1, nv + 1)):
        for flips in itertools.product((False, True), repeat=nv):
            mapped = tuple(
                sorted(
                    tuple(sorted((perm[v - 1], pol ^ flips[v - 1]) for v, pol in cl))
                    for cl in clauses
                )
            )
            if best is None or mapped < best:
                best = mapped
    return best


def _random_formulas():
    """Criterion 4's 100 random three-clause formulas on up to 4 variables."""
    rng = np.random.default_rng(4004)
    formulas = []
    for _ in range(100):
        vs = int(rng.integers(1, 5))
        combo = tuple(
            tuple((int(rng.integers(1, vs + 1)), bool(rng.integers(0, 2))) for _ in range(3))
            for _ in range(3)
        )
        formulas.append(combo)
    return formulas


def _formula(combo):
    nvars = max(v for cl in combo for v, _ in cl)
    return CnfFormula(nvars, tuple(tuple(cl) for cl in combo))


def test_criterion_04_sat_reduction_equivalence(capsys):
    nv = 3
    clauses = _all_three_literal_clauses(nv)
    formulas = []
    seen = set()
    for k in (1, 2):
        for combo in itertools.combinations_with_replacement(clauses, k):
            canon = _canonical_formula(combo, nv)
            if canon not in seen:
                seen.add(canon)
                formulas.append(combo)
    formulas += _random_formulas()
    mismatches = 0
    for combo in formulas:
        f = _formula(combo)
        ok, _, _ = rainbow_exists(sat_to_path(f).path)
        if ok != brute_satisfiable(f):
            mismatches += 1
    ok = mismatches == 0
    verdict(capsys, 4, "3-SAT <-> rainbow domination", ok,
            f"{len(formulas)} formulas ({len(seen)} exhaustive up to symmetry "
            f"+ 100 random), {mismatches} mismatches")
    assert ok


def test_sat_paths_with_few_shared_colours_by_interval_dp():
    """The interval DP's table ranges over the colours with two or more
    vertices, c'. Of criterion 4's random formulas, the 30 whose reduction
    paths have c' <= 16 are solved by it: gamma_t = c exactly when the
    formula is satisfiable."""
    solved = 0
    for combo in _random_formulas():
        f = _formula(combo)
        path = sat_to_path(f).path
        if sum(m & (m - 1) != 0 for m in path.colour_mask) > 16:
            continue
        solved += 1
        res = _path_gamma_t(path)
        assert (res.value == path.c) == brute_satisfiable(f)
        assert is_dominating(path, res.witness) and is_tropical(path, res.witness)
    assert solved == 30


def _connected_subcubic(max_n):
    for G in nx.graph_atlas_g():
        n = G.number_of_nodes()
        if (
            2 <= n <= max_n
            and G.number_of_edges()
            and nx.is_connected(G)
            and max(d for _, d in G.degree()) <= 3
        ):
            yield n, tuple((u + 1, v + 1) for u, v in G.edges())


def _path_gamma_t(path):
    """Optimum on a reduction path via the interval DP (the DP is held to the
    exact oracle by criterion 1; cross-checked against it here for the
    smallest sources)."""
    return tdn_interval(build_interval_instance(path, path_intervals(path.n)))


def test_criterion_05_vc_reduction_identity(capsys):
    mismatches = 0
    bad_covers = 0
    total = 0
    instances = list(_connected_subcubic(5))
    target = len(instances) + 50
    rng = np.random.default_rng(5005)
    while len(instances) < target:
        n = int(rng.integers(2, 7))
        cand = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        edges = tuple(e for e in cand if rng.random() < 0.5)
        try:
            SubcubicGraph(n, edges)
        except Exception:
            continue
        instances.append((n, edges))
    for n, edges in instances:
        total += 1
        sg = SubcubicGraph(n, edges)
        art = vc_to_path(sg)
        res = _path_gamma_t(art.path)
        if n <= 3:
            assert gamma_t(art.path).value == res.value
        if res.value != sg.min_vertex_cover() + 1 + 3 * n:
            mismatches += 1
        cover = extract_vc(art, res.witness)
        if not sg.is_vertex_cover(cover) or len(cover) > len(res.witness) - 1 - 3 * n:
            bad_covers += 1
    ok = mismatches == 0 and bad_covers == 0
    verdict(capsys, 5, "VC reduction identity", ok,
            f"{total} subcubic graphs (exhaustive n<=5 + 50 random), "
            f"{mismatches} identity / {bad_covers} cover failures")
    assert ok


def test_criterion_06_expectation_formula(capsys):
    model = RandomModel(12, 0.5, 2, seed=6006)
    rep = run_expectation_experiment(model, 10**4)
    reference = expected_rainbow_count(model)
    assert reference == pytest.approx(1.8583459854, abs=1e-9)
    dev = abs(rep.empirical_mean - reference) / rep.stderr
    ok = dev <= 3
    verdict(capsys, 6, "rainbow-count expectation", ok,
            f"mean {rep.empirical_mean:.4f} vs {reference:.4f} "
            f"({dev:.2f} stderr, tolerance 3)")
    assert ok


def test_criterion_07_bounds_audit(capsys):
    violations = []
    for seed in range(10**4):
        rng = np.random.default_rng([7007, seed])
        n = int(rng.integers(1, 13))
        c = int(rng.integers(1, min(4, n) + 1))
        p = float(rng.choice([0.2, 0.5, 0.8]))
        g = gen_gnpc(n, p, c, seed=[7007, seed, 1])
        rep = audit_bounds(g, gamma_t(g).value, gamma(g).value)
        violations.extend((seed, e.bound_id) for e in rep.violations)
    g2 = extremal_gamma_plus(2, 3)
    rep2 = audit_bounds(g2, gamma_t(g2).value, gamma(g2).value)
    tight_ii = next(e for e in rep2.entries if e.bound_id == "ii").tight
    g3 = extremal_edge_bound(8, 4, 2)
    edge_ok = gamma_t(g3).value == 4
    ok = not violations and tight_ii and edge_ok
    verdict(capsys, 7, "bounds audit", ok,
            f"10^4 instances, {len(violations)} violations; "
            f"bound (ii) tight on its extremal instance: {tight_ii}; "
            f"edge-extremal optimum = 4: {edge_ok}")
    assert ok


def test_criterion_08_threshold_experiment_soft(capsys):
    t0 = time.perf_counter()
    c = threshold_colours(200, 0.5)
    assert c == 4
    rep = run_threshold_experiment(RandomModel(200, 0.5, c, seed=8008), 50)
    frac = rep.empirical_mean
    elapsed = time.perf_counter() - t0
    ok = frac >= 0.9 and elapsed < 600
    verdict(capsys, 8, "threshold success (soft)", ok,
            f"n=200 c=4, success {frac:.2f} (bar 0.9), {elapsed:.0f}s (limit 600s)",
            soft=True)
    if not ok:
        pytest.xfail(f"soft finite-size criterion missed: fraction {frac:.2f}")


def test_criterion_09_concentration_soft(capsys):
    window = concentration_window(100, 0.5)
    assert window == (2, 3)
    rep = run_concentration_experiment(100, 0.5, 30, seed=9009)
    outcomes = [t.outcome for t in rep.records]
    frac = rep.empirical_mean
    ok = frac >= 0.8
    hist = {v: outcomes.count(v) for v in sorted(set(outcomes))}
    verdict(capsys, 9, "concentration window (soft)", ok,
            f"n=100, fraction in {list(window)} is {frac:.2f} (bar 0.8), "
            f"observed gamma histogram {hist}", soft=True)
    if not ok:
        pytest.xfail(
            "soft finite-size criterion missed: the asymptotic two-point window "
            f"{list(window)} has not set in at n=100, where the domination number "
            f"concentrates on 3..4 (measured {frac:.2f}); see the decisions ledger"
        )


def test_criterion_10_conjecture_search(capsys):
    rep = search_conjecture(7)
    # every reported counterexample must be genuine; their existence is a
    # finding, not a failure (the criterion asks for verbatim reporting)
    from tropidom import degree_profile

    for ce in rep.counterexamples:
        g = build(ce["n"], ce["edges"], ce["colouring"])
        delta = degree_profile(g).delta
        bound = (g.n - g.c + 1) * delta / (3 * delta - 1) + g.c - 1
        assert gamma_t(g).value == ce["gamma_t"] > bound
    report = rep.to_json_dict()
    ok = rep.graphs_checked == 995 and rep.colourings_checked > 0
    verdict(capsys, 10, "conjecture search", ok,
            f"{rep.graphs_checked} graphs, {rep.colourings_checked} colourings, "
            f"{len(rep.counterexamples)} verified counterexamples emitted in report")
    assert ok and isinstance(json.dumps(report), str)


def test_criterion_11_cli_determinism(capsys, tmp_path):
    gen_args = ["gen", "gnpc", "-n", "14", "-p", "0.5", "-c", "3",
                "--seed", "11011", "--out", str(tmp_path / "g.tdgs")]
    solve_args = ["solve", "--algo", "exact", "--input", str(tmp_path / "g.tdgs")]
    exp_args = ["experiment", "threshold", "-n", "12", "-p", "0.5", "-c", "2",
                "--trials", "10", "--seed", "11011",
                "--csv", str(tmp_path / "t.csv")]
    snapshots = []
    for _ in range(2):
        stdouts = []
        for args in (gen_args, solve_args, exp_args):
            assert main(list(args)) == EXIT_OK
            stdouts.append(capsys.readouterr().out)
        snapshots.append(
            (
                stdouts,
                (tmp_path / "g.tdgs").read_bytes(),
                (tmp_path / "t.csv").read_text(),
            )
        )
    ok = snapshots[0] == snapshots[1]
    verdict(capsys, 11, "CLI determinism", ok,
            "gen/solve/experiment reports, instance files and experiment CSVs "
            "byte-identical across consecutive runs")
    assert ok
