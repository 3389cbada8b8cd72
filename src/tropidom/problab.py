"""Random-graph formulas and Monte-Carlo experiments, plus the bounds
auditor and the conjecture counterexample search.

Trial t of a batch with master seed s draws its graph from
``numpy.random.default_rng([s, t])``, so batches are reproducible and no trial
depends on the others or on the order they run in.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import exact, forge
from .errors import BadParametersError, BudgetExceededError
from .graph import ColouredGraph, build, degree_profile, is_connected


@dataclass(frozen=True)
class RandomModel:
    n: int
    p: float
    c: int
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.p < 1:
            raise BadParametersError(f"need 0 < p < 1, got {self.p}")


@dataclass
class TrialRecord:
    trial: int
    seed: tuple[int, int]
    outcome: object  # bool / int / None on per-trial budget failure
    statistic: object
    runtime_ms: float
    error: str | None = None


@dataclass
class ExperimentReport:
    kind: str
    params: dict
    trials: int
    records: list[TrialRecord]
    empirical_mean: float | None
    reference_value: float | None
    stderr: float | None

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "trials": self.trials,
            "empirical_mean": self.empirical_mean,
            "reference_value": self.reference_value,
            "stderr": self.stderr,
            "failures": sum(1 for r in self.records if r.error),
        }

    def csv_rows(self, timing: bool = False) -> list[str]:
        """Header and one row per trial; the runtime_ms column, a measurement
        that differs from run to run, only with ``timing``."""
        rows = ["trial,seed,n,p,c,outcome,statistic" + (",runtime_ms" if timing else "")]
        for r in self.records:
            rows.append(
                f"{r.trial},{r.seed[0]}:{r.seed[1]},{self.params.get('n')},"
                f"{self.params.get('p')},{self.params.get('c')},"
                f"{'' if r.outcome is None else r.outcome},"
                f"{'' if r.statistic is None else r.statistic}"
                + (f",{r.runtime_ms:.3f}" if timing else "")
            )
        return rows


def expected_rainbow_count(model: RandomModel) -> float:
    """E(X_c) = C(n,c) (1-(1-p)^c)^(n-c) c!/c^c, evaluated in high precision."""
    import mpmath

    n, p, c = model.n, model.p, model.c
    if not 1 <= c <= n:
        raise BadParametersError(f"need 1 <= c <= n, got c={c} n={n}")
    with mpmath.workdps(50):
        val = (
            mpmath.binomial(n, c)
            * (1 - (1 - mpmath.mpf(p)) ** c) ** (n - c)
            * mpmath.factorial(c)
            / mpmath.mpf(c) ** c
        )
        return float(val)


def _window_floor(n: int, p: float) -> int:
    """floor(log_b n - log_b((log_b n) * ln n)); 'log' read as natural log."""
    if n < 3 or not 0 < p < 1:
        raise BadParametersError(f"need n >= 3 and 0 < p < 1, got n={n} p={p}")
    ln_b = math.log(1.0 / (1.0 - p))
    if ln_b == 0:
        raise BadParametersError(f"p={p} is too small: 1 - p rounds to 1.0")
    log_b_n = math.log(n) / ln_b
    inner = log_b_n * math.log(n)
    return math.floor(log_b_n - math.log(inner) / ln_b)


def threshold_colours(n: int, p: float) -> int:
    """Largest colour count that a.a.s. still admits a rainbow dominating set."""
    c = _window_floor(n, p) + 2
    if c < 1:
        raise BadParametersError(f"threshold formula yields c={c} < 1 at n={n} p={p}")
    return c


def concentration_window(n: int, p: float) -> tuple[int, int]:
    """Two-point window for the domination number of G(n, p)."""
    low = _window_floor(n, p) + 1
    if low < 1:
        raise BadParametersError(f"concentration window starts at {low} < 1 at n={n} p={p}")
    return (low, low + 1)


def _run_trials(seed: int, trials: int, trial) -> list[TrialRecord]:
    """Record trial(rng_seed) -> (outcome, statistic) for t in range(trials);
    a trial that exhausts its node budget becomes an error record."""
    records = []
    for t in range(trials):
        tseed = (int(seed), t)
        t0 = time.perf_counter()
        try:
            outcome, stat = trial(list(tseed))
            error = None
        except BudgetExceededError as exc:
            outcome, stat, error = None, None, str(exc)
        records.append(TrialRecord(t, tseed, outcome, stat, (time.perf_counter() - t0) * 1e3, error))
    return records


def _mean_stderr(values: list, binary: bool) -> tuple[float | None, float | None]:
    """Sample mean and its standard error; binary values use sqrt(m(1-m)/k)."""
    if not values:
        return None, None
    mean = float(np.mean(values))
    if len(values) == 1:
        return mean, None
    if binary:
        return mean, float(math.sqrt(mean * (1 - mean) / len(values)))
    return mean, float(np.std(values, ddof=1) / math.sqrt(len(values)))


def _rainbow_trials(model: RandomModel, trials: int, budget: int, counting: bool):
    """Per trial: existence of a rainbow dominating set in G(n,p,c) and, when
    counting, their exact number (existence is then count > 0)."""

    def trial(seed):
        g = forge.gen_gnpc(model.n, model.p, model.c, seed=seed)
        if counting:
            count = exact.count_rainbow_ds(g, budget=budget)
            return count > 0, count
        return exact.rainbow_exists(g, budget=budget).exists, None

    return _run_trials(model.seed, trials, trial)


def _model_params(model: RandomModel) -> dict:
    return {"n": model.n, "p": model.p, "c": model.c, "seed": model.seed}


def run_threshold_experiment(
    model: RandomModel, trials: int, budget: int = exact.DEFAULT_BUDGET
) -> ExperimentReport:
    """Sample G(n,p,c) and test rainbow dominating set existence per trial.

    outcome: True/False existence; statistic: exact rainbow-DS count when
    n <= 16, small enough to enumerate. The summary is the mean count against
    its expectation when counted, else the fraction of trials with a set.
    """
    counting = model.n <= 16
    records = _rainbow_trials(model, trials, budget, counting)
    done = [r for r in records if r.error is None]
    if counting and done:
        mean, stderr = _mean_stderr([r.statistic for r in done], binary=False)
        reference = expected_rainbow_count(model)
    else:
        mean, stderr = _mean_stderr([1.0 if r.outcome else 0.0 for r in done], binary=True)
        reference = None
    return ExperimentReport(
        "threshold", _model_params(model), trials, records,
        empirical_mean=mean, reference_value=reference, stderr=stderr,
    )


def success_fraction(report: ExperimentReport) -> float:
    done = [r for r in report.records if r.outcome is not None]
    if not done:
        return 0.0
    return sum(1 for r in done if r.outcome) / len(done)


def run_concentration_experiment(
    n: int, p: float, trials: int, seed: int = 0, budget: int = exact.DEFAULT_BUDGET
) -> ExperimentReport:
    """Exact domination number per trial; outcome is gamma, the summary is the
    fraction of trials landing inside the two-point window."""
    window = concentration_window(n, p)

    def trial(tseed):
        value = exact.gamma(forge.gen_gnpc(n, p, 1, seed=tseed), budget=budget).value
        return value, int(window[0] <= value <= window[1])

    records = _run_trials(seed, trials, trial)
    mean, stderr = _mean_stderr([float(r.statistic) for r in records if r.error is None], binary=True)
    params = {"n": n, "p": p, "c": 1, "seed": seed, "window": list(window)}
    return ExperimentReport(
        "concentration", params, trials, records,
        empirical_mean=mean, reference_value=1.0, stderr=stderr,
    )


def run_expectation_experiment(
    model: RandomModel, trials: int, budget: int = exact.DEFAULT_BUDGET
) -> ExperimentReport:
    """Mean exact rainbow-DS count vs the closed-form expectation."""
    records = _rainbow_trials(model, trials, budget, counting=True)
    mean, stderr = _mean_stderr([r.statistic for r in records if r.error is None], binary=False)
    return ExperimentReport(
        "expectation", _model_params(model), trials, records,
        empirical_mean=mean, reference_value=expected_rainbow_count(model), stderr=stderr,
    )


@dataclass(frozen=True)
class BoundEntry:
    bound_id: str
    applicable: bool
    lhs: float | None
    rhs: float | None
    satisfied: bool
    tight: bool = False


@dataclass(frozen=True)
class BoundsReport:
    entries: tuple[BoundEntry, ...]

    @property
    def violations(self) -> tuple[BoundEntry, ...]:
        return tuple(e for e in self.entries if e.applicable and not e.satisfied)


def _minimal_edge_bound_k(n: int, m: int, c: int) -> int | None:
    for k in range(1, n - c + 2):
        if m >= math.comb(n - k + c - 1, 2) + (n - k):
            return k
    return None


def audit_bounds(g: ColouredGraph, gt: int, gamma_val: int) -> BoundsReport:
    """Evaluate every applicable upper-bound statement at the supplied exact
    values gt = gamma^t(g) and gamma_val = gamma(g)."""
    n, m, c = g.n, g.m, g.c
    delta = degree_profile(g).delta
    connected = is_connected(g)
    k = _minimal_edge_bound_k(n, m, c)
    rhs_ii = gamma_val + c - 1
    rhs_iv = (n + c - 1) / 2
    rhs_v = (1 + math.log(delta + 1)) / (delta + 1) * (n - c + 1) + c - 1
    rhs_vi = (n - c) * delta / (3 * delta - 1) + c + delta * (delta - 2) / (3 * delta - 1)
    # (id, applies, rhs, holds where it applies, can be tight)
    rows = (
        # (i) delta >= n - c  =>  gamma^t = c
        ("i", delta >= n - c, c, gt == c, True),
        # (ii) gamma^t <= gamma + c - 1
        ("ii", True, rhs_ii, gt <= rhs_ii, True),
        # (iii) minimal k with m >= C(n-k+c-1, 2) + n - k and n > k + c - 2
        ("iii", k is not None, k, k is not None and gt <= k, True),
        # (iv) connected and n > c  =>  gamma^t <= (n + c - 1) / 2
        ("iv", connected and n > c, rhs_iv, gt <= rhs_iv, True),
        # (v) connected  =>  gamma^t = c or gamma^t < (1+ln(d+1))/(d+1) (n-c+1) + c - 1
        ("v", connected, rhs_v, gt == c or gt < rhs_v, False),
        # (vi) connected, 2 <= delta <= 8, c < n
        ("vi", connected and 2 <= delta <= 8 and c < n, rhs_vi, gt <= rhs_vi, False),
        # (vii) super-dense: delta > (n-1) - sqrt(n-1)  =>  gamma^t <= c + 1
        ("vii", delta > (n - 1) - math.sqrt(n - 1), c + 1, gt <= c + 1, True),
    )
    return BoundsReport(entries=tuple(
        BoundEntry(bound_id, app, gt, rhs, not app or holds, can_be_tight and app and gt == rhs)
        for bound_id, app, rhs, holds, can_be_tight in rows
    ))


def _restricted_growth_colourings(n: int, c_max: int):
    """Surjective colourings of n vertices with <= c_max colours, one
    representative per colour permutation class (first-occurrence order)."""
    def rec(prefix, used):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for k in range(1, min(used + 1, c_max) + 1):
            prefix.append(k)
            yield from rec(prefix, max(used, k))
            prefix.pop()

    yield from rec([], 0)


def _connected_graphs_upto(max_n: int):
    """Non-isomorphic connected one-coloured graphs with 2..max_n vertices
    (atlas-backed)."""
    import networkx as nx

    if max_n > 7:
        raise BadParametersError("exhaustive enumeration is limited to n <= 7")
    for G in nx.graph_atlas_g():
        n = G.number_of_nodes()
        if 2 <= n <= max_n:
            g = build(n, [(u + 1, v + 1) for u, v in G.edges()], [1] * n)
            if is_connected(g):
                yield g


@dataclass
class ConjectureReport:
    graphs_checked: int
    colourings_checked: int
    counterexamples: list[dict]

    def to_json_dict(self) -> dict:
        return {
            "graphs_checked": self.graphs_checked,
            "colourings_checked": self.colourings_checked,
            "counterexamples": self.counterexamples,
        }


def search_conjecture(max_n: int, c_max: int = 3) -> ConjectureReport:
    """Exhaustive check of gamma^t <= (n-c+1) delta / (3 delta - 1) + c - 1 on
    connected coloured graphs with c < n. Counterexamples are reported
    verbatim; an empty list is a report, not a proof."""
    graphs = 0
    colourings = 0
    counterexamples = []
    for g in _connected_graphs_upto(max_n):
        graphs += 1
        n = g.n
        delta = degree_profile(g).delta
        subs = np.arange(1 << n, dtype=np.int64)
        cover = np.zeros(1 << n, dtype=np.int64)
        for i in range(n):
            hit = (subs >> i) & 1 == 1
            cover[hit] |= g.closed_mask[i]
        dominating = cover == g.full_mask
        popcnt = np.array([s.bit_count() for s in range(1 << n)], dtype=np.int64)
        for colouring in _restricted_growth_colourings(n, c_max):
            c = max(colouring)
            if c >= n:
                continue
            colourings += 1
            ok = dominating.copy()
            for k in range(1, c + 1):
                cmask = 0
                for i, col in enumerate(colouring):
                    if col == k:
                        cmask |= 1 << i
                ok &= (subs & cmask) != 0
            gt = int(popcnt[ok].min())
            bound = (n - c + 1) * delta / (3 * delta - 1) + c - 1
            if gt > bound:
                counterexamples.append(
                    {"n": n, "edges": list(g.edges), "colouring": list(colouring), "gamma_t": gt, "bound": bound}
                )
    return ConjectureReport(
        graphs_checked=graphs,
        colourings_checked=colourings,
        counterexamples=counterexamples,
    )
