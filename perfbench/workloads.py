"""The four benchmark workloads.

A workload is a ``Workload``: ``setup`` builds the inputs from the seed,
``run`` is one timed item and calls only what a user of the library or CLI
would call, ``check`` re-validates the item's answer outside the timed
interval and returns the problems it found, and ``answer`` / ``witness`` give
the records that the digests hash.

Parameters (sizes, densities, colour counts) follow a fixed schedule over the
item index, so every seed covers the same mix and the seed only draws the
graphs. ``tiny`` shrinks every size for the smoke test.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from tropidom import approx, cli, exact, forge, graph, instance_io, interval, problab

# Per exact call. The parameter ranges below keep every item far below it at
# the seed commit; an item that exhausts it counts as failed.
NODE_BUDGET = 10**6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int, Path, bool], list]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]
    answer: Callable[[Any], Any]
    witness: Callable[[Any], Any]


def _witness_problems(g, wit, what, size=None, tropical=True, rainbow=False) -> list[str]:
    problems = []
    if not graph.is_dominating(g, wit):
        problems.append(f"{what} witness does not dominate")
    if tropical and not graph.is_tropical(g, wit):
        problems.append(f"{what} witness misses a colour")
    if rainbow and not graph.is_rainbow(g, wit):
        problems.append(f"{what} witness is not rainbow")
    if size is not None and len(wit) != size:
        problems.append(f"{what} witness has {len(wit)} vertices, value is {size}")
    return problems


def _rainbow_problems(g, exists: bool, wit, count: int) -> list[str]:
    """A rainbow_exists answer must hold a valid witness and agree with count_rainbow_ds."""
    problems = _witness_problems(g, wit, "rainbow_exists", rainbow=True) if exists else []
    if exists != (count > 0):
        problems.append(f"rainbow_exists={exists} but count_rainbow_ds={count}")
    return problems


def _sorted(wit) -> list[int] | None:
    return None if wit is None else sorted(wit)


# --- rainbow_threshold ------------------------------------------------------
# Threshold trials on G(n, 1/2, c) with c = threshold_colours(n, 1/2) = 3, the
# paper's threshold. One item is one point of a threshold sweep: a trial at
# each n of SWEEP. The answer is yes on about 90% of trials at n = 60 and 40%
# at n = 80, so both witness searches and exhaustive refutations run. A single
# trial's time varies several-fold with its graph, so the median of single
# trials moved by 15% from seed to seed; the sum over a sweep moves far less.
# Criterion 8's n = 200, c = 4 takes 0.2-6.5 s per trial, too long to repeat
# 22 times, so it is deliberately not a workload.

SWEEP = (60, 70, 80)


class RainbowOut(NamedTuple):
    g: Any
    exists: bool
    witness: Any
    explored: int


def rainbow_setup(seed: int, work_dir: Path, tiny: bool) -> list:
    sizes = (30, 40) if tiny else SWEEP
    colours = [problab.threshold_colours(n, 0.5) for n in sizes]
    return [[(n, 0.5, c, [seed, t, n]) for n, c in zip(sizes, colours)] for t in range(2000)]


def rainbow_run(sweep) -> list[RainbowOut]:
    outs = []
    for n, p, c, trial_seed in sweep:
        g = forge.gen_gnpc(n, p, c, seed=trial_seed)
        outs.append(RainbowOut(g, *exact.rainbow_exists(g, budget=NODE_BUDGET)))
    return outs


def rainbow_check(sweep, outs: list[RainbowOut]) -> list[str]:
    problems = []
    for o in outs:
        count = exact.count_rainbow_ds(o.g, budget=NODE_BUDGET)
        problems += _rainbow_problems(o.g, o.exists, o.witness, count)
    return problems


# --- exact_audit ------------------------------------------------------------
# The `audit` path over a corpus of 1000 small G(n, p, c) instances: n is
# 20..34, p is 0.22..0.32 and c is 1..6. The exact search cost grows steeply as
# the density falls and n grows (single items of seconds at p = 0.15), and with
# p down to 0.2 and n up to 40 a few items decided a run: two seeds differed
# by 30% in mean item time. The corpus is kept as instance text in memory, not
# in files: writing 1000 files made set-up time depend on the state of the file
# system (its system time grew from 0.09 to 0.77 s over twelve set-ups).


class AuditOut(NamedTuple):
    g: Any
    gamma_t: Any
    gamma: Any
    bounds: Any
    greedy: Any
    rainbow_count: int


def audit_params(t: int, tiny: bool) -> tuple[int, float, int]:
    n = (12 + t % 5) if tiny else (20 + (7 * t) % 15)
    p = round(0.22 + 0.1 * ((0.6180339887 * t) % 1.0), 3)
    c = 1 + (t // 15) % 6
    return n, p, c


def audit_setup(seed: int, work_dir: Path, tiny: bool) -> list:
    texts = []
    for t in range(24 if tiny else 1000):
        n, p, c = audit_params(t, tiny)
        texts.append(instance_io.write_instance(forge.gen_gnpc(n, p, c, seed=[seed, t])))
    return texts


def audit_run(text: str) -> AuditOut:
    g = instance_io.parse_instance(text).graph
    gt = exact.gamma_t(g, budget=NODE_BUDGET)
    gm = exact.gamma(g, budget=NODE_BUDGET)
    bounds = problab.audit_bounds(g, gt.value, gm.value)
    greedy = approx.greedy_setcover_tds(g)
    count = exact.count_rainbow_ds(g, budget=NODE_BUDGET)
    return AuditOut(g, gt, gm, bounds, greedy, count)


def audit_check(text: str, out: AuditOut) -> list[str]:
    g, gt, gm, greedy = out.g, out.gamma_t, out.gamma, out.greedy
    problems = _witness_problems(g, gt.witness, "gamma_t", size=gt.value)
    problems += _witness_problems(g, gm.witness, "gamma", size=gm.value, tropical=False)
    problems += _witness_problems(g, greedy.witness, "greedy", size=greedy.size)
    if not gm.value <= gt.value <= greedy.size:
        problems.append(f"order broken: gamma={gm.value} gamma_t={gt.value} greedy={greedy.size}")
    if out.bounds.violations:
        problems.append(f"bounds violated: {[e.bound_id for e in out.bounds.violations]}")
    exists, wit, _ = exact.rainbow_exists(g, budget=NODE_BUDGET)
    if exists != (gt.value == g.c):
        problems.append(f"rainbow_exists={exists} but gamma_t={gt.value}, c={g.c}")
    return problems + _rainbow_problems(g, exists, wit, out.rainbow_count)


# --- interval_dp ------------------------------------------------------------
# Two kinds of interval instance, alternating, kept as instance text with `i`
# lines as for exact_audit. vc_to_path reductions of random
# subcubic graphs on 5 or 6 vertices have c = n + m + 1 = 10..16 colours, so
# the 2^c-row numpy table is their cost. Random interval graphs with n from
# 300 to 1000 and c from 4 to 8 are dominated by the O(n^2) Python loops of
# build_interval_instance and prefix_tables.

REDUCTION_SHAPES = [(5, 4), (5, 5), (5, 6), (5, 7), (6, 5), (6, 6), (6, 7), (6, 8), (6, 9)]


class IntervalIn(NamedTuple):
    text: str
    artifact: Any  # ReductionArtifact for reduction items, None for random ones
    source: Any  # the subcubic source graph of a reduction item


class IntervalOut(NamedTuple):
    g: Any
    result: Any
    path53: Any
    cover: Any


def _random_subcubic(rng, n: int, m: int) -> forge.SubcubicGraph:
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    while True:
        deg = [0] * (n + 1)
        edges = []
        for k in rng.permutation(len(pairs)):
            u, v = pairs[k]
            if deg[u] < 3 and deg[v] < 3:
                edges.append((u, v))
                deg[u] += 1
                deg[v] += 1
                if len(edges) == m:
                    break
        if len(edges) == m and min(deg[1:]) > 0:
            return forge.SubcubicGraph(n=n, edges=tuple(sorted(edges)))


def _random_interval_graph(rng, n: int, c: int):
    left = rng.integers(0, 4 * n, size=n)
    right = left + rng.integers(1, 21, size=n)
    meets = (left[:, None] <= right[None, :]) & (left[None, :] <= right[:, None])
    iu, ju = np.triu_indices(n, 1)
    hit = meets[iu, ju]
    edges = list(zip((iu[hit] + 1).tolist(), (ju[hit] + 1).tolist()))
    while True:
        colours = (rng.integers(0, c, size=n) + 1).tolist()
        if len(set(colours)) == c:
            break
    intervals = {v: (int(left[v - 1]), int(right[v - 1])) for v in range(1, n + 1)}
    return graph.build(n, edges, colours), intervals


def interval_setup(seed: int, work_dir: Path, tiny: bool) -> list:
    items = []
    for k in range(6 if tiny else 40):
        rng = np.random.default_rng([seed, 2 * k])
        source = _random_subcubic(rng, *REDUCTION_SHAPES[k % (2 if tiny else 9)])
        art = forge.vc_to_path(source)
        g = art.path
        order = graph.path_order(g)
        canon = interval.path_intervals(g.n)
        intervals = {order[i]: canon[i + 1] for i in range(g.n)}
        text = instance_io.write_instance(g, intervals=intervals, legend=art.colour_legend)
        items.append(IntervalIn(text, art, source))

        rng = np.random.default_rng([seed, 2 * k + 1])
        n = (30 + 10 * (k % 4)) if tiny else (300 + (89 * k) % 701)
        g, intervals = _random_interval_graph(rng, n, 4 + (k // 8) % 5)
        items.append(IntervalIn(instance_io.write_instance(g, intervals=intervals), None, None))
    return items


def interval_run(inp: IntervalIn) -> IntervalOut:
    inst = instance_io.parse_instance(inp.text)
    res = interval.tdn_interval(interval.build_interval_instance(inst.graph, inst.intervals))
    if inp.artifact is None:
        return IntervalOut(inst.graph, res, None, None)
    path53 = approx.path_five_thirds(inst.graph)
    return IntervalOut(inst.graph, res, path53, forge.extract_vc(inp.artifact, res.witness))


def interval_check(inp: IntervalIn, out: IntervalOut) -> list[str]:
    g, res = out.g, out.result
    problems = _witness_problems(g, res.witness, "tdn_interval", size=res.value)
    if inp.artifact is None:
        return problems
    opt_vc = inp.source.min_vertex_cover()
    if opt_vc != res.value - 1 - 3 * inp.source.n:
        problems.append(f"opt_VC={opt_vc} but gamma_t - 1 - 3n = {res.value - 1 - 3 * inp.source.n}")
    if not inp.source.is_vertex_cover(out.cover) or len(out.cover) != opt_vc:
        problems.append(f"extract_vc gave {sorted(out.cover)}, not an optimal cover (opt {opt_vc})")
    problems += _witness_problems(g, out.path53.witness, "path53", size=out.path53.size)
    if not (res.value <= out.path53.size and 3 * out.path53.size <= 5 * res.value):
        problems.append(f"path53 size {out.path53.size} outside [gamma_t, 5/3 gamma_t], gamma_t={res.value}")
    return problems


# --- gnpc_cli ---------------------------------------------------------------
# `tropidom gen gnpc` then `tropidom solve --algo greedy`, in-process through
# cli.main, alternating sparse large-n graphs (the per-pair RNG loop of
# gen_gnpc dominates) with dense ones (parsing and mask building dominate).
# Sizes are about half of the largest ones a user would generate, so that a
# run holds enough items for its p90. Sizes step finely through their ranges:
# with five sparse sizes, p90 sat on the edge of the largest size's cluster.
# The sparse and the dense items each overwrite one file, so that the file
# system does not collect thousands of new files over a run.


class CliIn(NamedTuple):
    n: int
    p: float
    c: int
    path: Path
    gen_argv: list
    solve_argv: list


class CliOut(NamedTuple):
    gen_rc: int
    gen_stdout: str
    solve_rc: int
    solve_stdout: str


def gnpc_setup(seed: int, work_dir: Path, tiny: bool) -> list:
    items = []
    for i in range(2000):
        k = i // 2
        c = 2 + k % 7
        if i % 2 == 0:
            n = (40 + 10 * (k % 3)) if tiny else (400 + (37 * k) % 201)
            p = round((10, 15, 20)[(k // 7) % 3] / (n - 1), 5)
        else:
            n, p = ((20 + 10 * (k % 3)) if tiny else (150 + (13 * k) % 151)), 0.5
        path = work_dir / f"gnpc_{i % 2}.tdgs"
        gen = ["gen", "gnpc", "-n", str(n), "-p", str(p), "-c", str(c),
               "--seed", str(seed * 1_000_000 + i), "--out", str(path)]
        items.append(CliIn(n, p, c, path, gen, ["solve", "--algo", "greedy", "--input", str(path)]))
    return items


def gnpc_run(inp: CliIn) -> CliOut:
    gen_out, solve_out = io.StringIO(), io.StringIO()
    with redirect_stdout(gen_out):
        gen_rc = cli.main(inp.gen_argv)
    with redirect_stdout(solve_out):
        solve_rc = cli.main(inp.solve_argv)
    return CliOut(gen_rc, gen_out.getvalue(), solve_rc, solve_out.getvalue())


def gnpc_check(inp: CliIn, out: CliOut) -> list[str]:
    if out.gen_rc != 0 or out.solve_rc != 0:
        return [f"exit codes gen={out.gen_rc} solve={out.solve_rc}"]
    gen, solve = json.loads(out.gen_stdout), json.loads(out.solve_stdout)
    text = inp.path.read_text()
    g = instance_io.parse_instance(text).graph
    problems = []
    if instance_io.write_instance(g) != text:
        problems.append("written file does not round-trip")
    if (g.n, g.c) != (inp.n, inp.c) or gen["instance"] != solve["instance"] or solve["instance"]["m"] != g.m:
        problems.append(f"instance mismatch: gen {gen['instance']} solve {solve['instance']}")
    res = solve["result"]
    problems += _witness_problems(g, res["witness"], "greedy", size=res["value"])
    if res["value"] < res["lower_bound"]:
        problems.append(f"greedy value {res['value']} below its lower bound {res['lower_bound']}")
    return problems


def _gnpc_answer(out: CliOut):
    if out.gen_rc != 0 or out.solve_rc != 0:
        return [out.gen_rc, out.solve_rc]
    solve = json.loads(out.solve_stdout)
    return [solve["instance"], solve["result"]["value"], solve["result"]["lower_bound"]]


def _gnpc_witness(out: CliOut):
    return json.loads(out.solve_stdout)["result"]["witness"] if out.solve_rc == 0 else None


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "rainbow_threshold",
            "G(n, 1/2, 3) threshold sweeps over n = 60, 70, 80: exact.rainbow_exists does nearly all the work, on yes and no answers",
            rainbow_setup, rainbow_run, rainbow_check,
            lambda outs: [[o.g.m, o.exists, o.explored] for o in outs],
            lambda outs: [_sorted(o.witness) for o in outs],
        ),
        Workload(
            "exact_audit",
            "the audit path on small G(n, p, c) instance texts: the exact branch-and-bound search dominates",
            audit_setup, audit_run, audit_check,
            lambda o: [o.g.n, o.g.m, o.g.c, o.gamma.value, o.gamma_t.value, o.greedy.size,
                       o.rainbow_count, o.gamma.explored, o.gamma_t.explored, len(o.bounds.violations)],
            lambda o: [sorted(o.gamma.witness), sorted(o.gamma_t.witness), sorted(o.greedy.witness)],
        ),
        Workload(
            "interval_dp",
            "interval instance texts: the 2^c-row DP table on reductions and the O(n^2) loops on large random interval graphs",
            interval_setup, interval_run, interval_check,
            lambda o: [o.g.n, o.g.c, o.result.value, o.result.explored,
                       o.path53 and o.path53.size, o.cover and len(o.cover)],
            lambda o: [sorted(o.result.witness), o.path53 and sorted(o.path53.witness), _sorted(o.cover)],
        ),
        Workload(
            "gnpc_cli",
            "CLI gen gnpc then solve greedy: forge, instance_io at scale, graph masks and cli do the work",
            gnpc_setup, gnpc_run, gnpc_check, _gnpc_answer, _gnpc_witness,
        ),
    ]
}
