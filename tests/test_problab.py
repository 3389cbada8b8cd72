import math

import pytest

from tropidom import (
    RandomModel,
    audit_bounds,
    build,
    concentration_window,
    expected_rainbow_count,
    gamma,
    gamma_t,
    run_concentration_experiment,
    run_expectation_experiment,
    run_threshold_experiment,
    search_conjecture,
    threshold_colours,
)
from tropidom import extremal_edge_bound, extremal_gamma_plus, gen_gnpc
from tropidom.errors import BadParametersError
from tropidom.problab import _restricted_growth_colourings


class TestFormulas:
    def test_expected_rainbow_count_pinned_values(self):
        assert expected_rainbow_count(RandomModel(12, 0.5, 2)) == pytest.approx(
            66 * 0.75**10 * 0.5, abs=1e-12
        )
        assert expected_rainbow_count(RandomModel(12, 0.5, 2)) == pytest.approx(
            1.8583459854, abs=1e-9
        )
        assert expected_rainbow_count(RandomModel(10, 0.5, 2)) == pytest.approx(
            2.2525405884, abs=1e-9
        )

    def test_expected_rainbow_count_c_equals_n(self):
        n = 6
        val = expected_rainbow_count(RandomModel(n, 0.5, n))
        assert val == pytest.approx(math.factorial(n) / n**n, rel=1e-12)

    def test_threshold_colours(self):
        assert threshold_colours(1000, 0.5) == 5
        assert threshold_colours(200, 0.5) == 4

    def test_concentration_window(self):
        assert concentration_window(100, 0.5) == (2, 3)
        assert concentration_window(1000, 0.5) == (4, 5)

    def test_concentration_window_starts_at_one(self):
        assert concentration_window(20, 0.5) == (1, 2)
        # small p pushed the window's lower end to -5353 and -6102
        for n in (100, 20):
            with pytest.raises(BadParametersError, match=r"window starts at -\d+ < 1"):
                concentration_window(n, 1e-3)

    @pytest.mark.parametrize("formula", [threshold_colours, concentration_window])
    def test_p_below_double_resolution(self, formula):
        # 1 - 1e-17 rounds to 1.0: the log base 1/(1-p) is 0 and the window
        # formula divided by it
        with pytest.raises(BadParametersError, match=r"1 - p rounds to 1\.0"):
            formula(100, 1e-17)

    def test_parameter_validation(self):
        with pytest.raises(BadParametersError):
            threshold_colours(2, 0.5)
        with pytest.raises(BadParametersError):
            RandomModel(10, 1.0, 2)
        with pytest.raises(BadParametersError):
            expected_rainbow_count(RandomModel(4, 0.5, 5))


class TestExperiments:
    def test_threshold_reproducible(self):
        model = RandomModel(12, 0.5, 2, seed=5)
        r1 = run_threshold_experiment(model, 20)
        r2 = run_threshold_experiment(model, 20)
        assert [t.outcome for t in r1.records] == [t.outcome for t in r2.records]
        assert r1.empirical_mean == r2.empirical_mean
        assert r1.records[0].seed == (5, 0)

    def test_threshold_decides_existence(self):
        # at every n, the summary is the fraction of completed trials that
        # have a rainbow dominating set; there is no reference value
        rep = run_threshold_experiment(RandomModel(12, 0.5, 2, seed=5), 20)
        done = [t for t in rep.records if t.error is None]
        assert done and rep.reference_value is None
        assert rep.empirical_mean == sum(t.outcome is True for t in done) / len(done)
        assert all(t.statistic == int(t.outcome) and t.statistic in (0, 1) for t in done)

    def test_threshold_c1_means_dominating_vertex(self):
        # with one colour a size-c tropical dominating set is a single
        # vertex that dominates everything
        from tropidom import degree_profile

        model = RandomModel(10, 0.5, 1, seed=9)
        rep = run_threshold_experiment(model, 20)
        for t in rep.records:
            g = gen_gnpc(10, 0.5, 1, seed=list(t.seed))
            assert t.outcome == (degree_profile(g).big_delta == g.n - 1)

    def test_expectation_reference(self):
        model = RandomModel(10, 0.5, 2, seed=3)
        rep = run_expectation_experiment(model, 200)
        assert rep.reference_value == pytest.approx(expected_rainbow_count(model))
        assert abs(rep.empirical_mean - rep.reference_value) < 6 * rep.stderr

    def test_concentration_structure(self):
        rep = run_concentration_experiment(30, 0.5, 5, seed=2)
        assert rep.trials == 5
        assert all(isinstance(t.outcome, int) for t in rep.records)
        # outcome really is the domination number of the sampled graph
        g = gen_gnpc(30, 0.5, 1, seed=[2, 0])
        assert rep.records[0].outcome == gamma(g).value

    def test_csv_rows(self):
        model = RandomModel(10, 0.5, 2, seed=1)
        rep = run_threshold_experiment(model, 3)
        rows = rep.csv_rows()
        assert rows[0] == "trial,seed,n,p,c,outcome,statistic"
        assert len(rows) == 4
        timed = rep.csv_rows(timing=True)
        assert timed[0] == "trial,seed,n,p,c,outcome,statistic,runtime_ms"
        assert [row.rsplit(",", 1)[0] for row in timed] == rows

    def test_json_dict_excludes_timing(self):
        model = RandomModel(10, 0.5, 2, seed=1)
        rep = run_threshold_experiment(model, 3)
        assert "runtime" not in str(sorted(rep.to_json_dict()))


def entry(rep, bound_id):
    return next(e for e in rep.entries if e.bound_id == bound_id)


class TestBoundsAudit:
    def test_k3_bound_i_tight(self):
        g = build(3, [(1, 2), (1, 3), (2, 3)], [1, 2, 3])
        rep = audit_bounds(g, 3, 1)
        e = entry(rep, "i")
        assert e.applicable and e.satisfied and e.tight
        assert not rep.violations

    def test_extremal_gamma_plus_makes_ii_tight(self):
        g = extremal_gamma_plus(2, 3)
        rep = audit_bounds(g, gamma_t(g).value, gamma(g).value)
        assert entry(rep, "ii").tight

    def test_extremal_edge_bound_makes_iii_tight(self):
        g = extremal_edge_bound(8, 4, 2)
        rep = audit_bounds(g, gamma_t(g).value, gamma(g).value)
        e = entry(rep, "iii")
        assert e.applicable and e.tight

    def test_no_violations_on_random_corpus(self):
        import numpy as np

        from _oracles import random_coloured_graph

        rng = np.random.default_rng(107)
        for _ in range(200):
            n, edges, colours = random_coloured_graph(rng)
            g = build(n, edges, colours)
            rep = audit_bounds(g, gamma_t(g).value, gamma(g).value)
            assert not rep.violations, (n, edges, colours, rep.violations)


class TestConjecture:
    def test_restricted_growth_count(self):
        assert len(list(_restricted_growth_colourings(3, 3))) == 5
        assert len(list(_restricted_growth_colourings(3, 2))) == 4

    def test_small_search_reports_genuine_counterexamples(self):
        rep = search_conjecture(4)
        assert rep.graphs_checked == 1 + 2 + 6  # connected graphs on 2..4 vertices
        assert rep.colourings_checked > 0
        # small exceptional graphs do beat the conjectured bound (for c=1 and
        # minimum degree 2 the classical domination bound already has a known
        # finite list of exceptions, C4 among them); every reported
        # counterexample must be genuine
        found = {(ce["n"], tuple(ce["colouring"])) for ce in rep.counterexamples}
        assert (3, (1, 1, 2)) in found  # K3, gamma_t = 2 > 9/5
        for ce in rep.counterexamples:
            g = build(ce["n"], ce["edges"], ce["colouring"])
            from tropidom import degree_profile

            delta = degree_profile(g).delta
            assert gamma_t(g).value == ce["gamma_t"]
            assert ce["gamma_t"] > (g.n - g.c + 1) * delta / (3 * delta - 1) + g.c - 1
        assert rep.to_json_dict()["graphs_checked"] == 9
