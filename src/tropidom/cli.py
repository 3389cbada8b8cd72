"""Command-line front end.

JSON reports go to stdout, diagnostics to stderr. Exit codes: 0 success,
1 usage or input error, 2 node budget exceeded, 3 internal error (a failed
self-check or assertion, or memory exhausted). All randomness flows through
explicit seeds so artifacts are byte-reproducible; wall-clock timing is only
emitted with --timing to keep default output deterministic.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from . import approx, exact, forge, instance_io, interval, problab
from .errors import BudgetExceededError, TropidomError
from .graph import degree_profile, is_dominating, is_rainbow, is_tropical

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_INTERNAL = 3


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _digest(g) -> dict:
    prof = degree_profile(g)
    return {"n": g.n, "m": g.m, "c": g.c, "delta": prof.delta, "bigDelta": prof.big_delta}


def _emit(report: dict, args) -> None:
    if args.timing:
        report["wall_ms"] = round((time.perf_counter() - args._t0) * 1e3, 3)
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _load_instance(path: str) -> instance_io.Instance:
    return instance_io.parse_instance(Path(path).read_text())


def _cmd_solve(args) -> int:
    inst = _load_instance(args.input)
    g = inst.graph
    if args.algo == "exact-rainbow":
        ok, witness, explored = exact.rainbow_exists(g, budget=args.budget)
        payload = {"exists": ok, "witness": sorted(witness) if witness else None, "explored": explored}
    elif args.algo in ("greedy", "path53"):
        solver = approx.greedy_setcover_tds if args.algo == "greedy" else approx.path_five_thirds
        res = solver(g)
        witness = res.witness
        payload = {
            "value": res.size,
            "witness": sorted(witness),
            "lower_bound": res.lower_bound,
            "ratio_bound": str(res.ratio_bound),
        }
    else:
        if args.algo == "exact":
            res = exact.gamma_t(g, budget=args.budget)
        else:
            res = interval.tdn_interval(interval.build_interval_instance(g, inst.intervals))
        witness = res.witness
        payload = {"value": res.value, "witness": sorted(witness), "explored": res.explored}

    # self-check gate: never emit a witness that fails re-validation. A rainbow
    # witness has one vertex of each colour; any other has the reported size.
    if witness is not None:
        if args.algo == "exact-rainbow":
            sized = is_rainbow(g, witness)
        else:
            sized = len(witness) == payload["value"]
        if not (sized and is_dominating(g, witness) and is_tropical(g, witness)):
            raise AssertionError("witness failed re-validation")
    _emit({"command": "solve", "algo": args.algo, "instance": _digest(g), "result": payload}, args)
    return EXIT_OK


def _read_edge_list(path: str) -> forge.SubcubicGraph:
    edges = []
    for line_no, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        u, v = instance_io._ints(line.split(), line_no, 2, "edge")
        edges.append((u, v))
    return forge.SubcubicGraph(n=max((max(e) for e in edges), default=0), edges=tuple(edges))


def _reduction(art: forge.ReductionArtifact):
    return art.path, art.colour_legend


def _cmd_gen(args) -> int:
    g, legend = args.make(args)
    text = instance_io.write_instance(g, legend=legend)
    Path(args.out).write_text(text)
    _emit({"command": "gen", "generator": args.generator, "out": args.out, "instance": _digest(g)}, args)
    return EXIT_OK


def _cmd_audit(args) -> int:
    if args.input is not None:
        paths = [args.input]
    else:
        paths = sorted(str(p) for p in Path(args.corpus).iterdir() if p.is_file())
    reports = []
    for path in paths:
        g = _load_instance(path).graph
        gt = exact.gamma_t(g, budget=args.budget).value
        gv = exact.gamma(g, budget=args.budget).value
        rep = problab.audit_bounds(g, gt, gv)
        reports.append(
            {
                "input": path,
                "instance": _digest(g),
                "gamma": gv,
                "gamma_t": gt,
                "bounds": [
                    {
                        "id": e.bound_id,
                        "applicable": e.applicable,
                        "lhs": e.lhs,
                        "rhs": e.rhs,
                        "satisfied": e.satisfied,
                        "tight": e.tight,
                    }
                    for e in rep.entries
                ],
                "violations": [e.bound_id for e in rep.violations],
            }
        )
    _emit({"command": "audit", "reports": reports}, args)
    return EXIT_OK


def _model(args) -> problab.RandomModel:
    c = args.c if args.c is not None else problab.threshold_colours(args.n, args.p)
    return problab.RandomModel(n=args.n, p=args.p, c=c, seed=args.seed)


def _cmd_experiment(args) -> int:
    report = args.run(args)
    if args.csv:
        Path(args.csv).write_text("\n".join(report.csv_rows(args.timing)) + "\n")
    _emit({"command": "experiment", "experiment": args.experiment, "summary": report.to_json_dict()}, args)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_INPUT: argparse's own code 2 is EXIT_BUDGET."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: callers that run main once
    per item would otherwise rebuild every sub-parser each time. Parsing
    does not change it, so every call can share it."""
    ap = _Parser(prog="tropidom")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("--algo", required=True, choices=["exact", "exact-rainbow", "greedy", "path53", "interval"])
    p.add_argument("--input", required=True)
    p.add_argument("--budget", type=_at_least_one, default=exact.DEFAULT_BUDGET)
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=_cmd_solve, parser=p)

    gens = sub.add_parser("gen", help="generate an instance file").add_subparsers(
        dest="generator", required=True
    )
    # name, help, the options it reads (flag -> type), and what it makes of them
    for name, about, options, make in [
        ("gnpc", "random graph G(n, p, c)", {"-n": int, "-p": float, "-c": _at_least_one, "--seed": int},
         lambda a: (forge.gen_gnpc(a.n, a.p, a.c, seed=a.seed), None)),
        ("extremal-gamma", "graph with gamma_t = gamma + c - 1", {"--gamma": int, "-c": _at_least_one},
         lambda a: (forge.extremal_gamma_plus(a.gamma, a.c), None)),
        ("extremal-edges", "graph with gamma_t = k and as many edges as the edge bound allows",
         {"-n": int, "-k": int, "-c": _at_least_one},
         lambda a: (forge.extremal_edge_bound(a.n, a.k, a.c), None)),
        ("sat", "coloured path of a 3-SAT formula in DIMACS CNF", {"--cnf": str},
         lambda a: _reduction(forge.sat_to_path(forge.parse_dimacs_cnf(Path(a.cnf).read_text())))),
        ("vc", "coloured path of a subcubic graph given one edge 'u v' per line", {"--edges": str},
         lambda a: _reduction(forge.vc_to_path(_read_edge_list(a.edges)))),
        ("pad", "path instance padded with a two-colour tail", {"--input": str, "--epsilon": float},
         lambda a: (forge.pad_colours(_load_instance(a.input).graph, a.epsilon), None)),
    ]:
        p = gens.add_parser(name, help=about)
        for flag, type_ in options.items():
            p.add_argument(flag, type=type_, required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--timing", action="store_true")
        p.set_defaults(func=_cmd_gen, make=make, parser=p)

    p = sub.add_parser("audit", help="audit the upper bounds on instances")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input")
    source.add_argument("--corpus")
    p.add_argument("--budget", type=_at_least_one, default=exact.DEFAULT_BUDGET)
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=_cmd_audit, parser=p)

    kinds = sub.add_parser("experiment", help="run a seeded Monte-Carlo experiment").add_subparsers(
        dest="experiment", required=True
    )
    # name, the report it runs, and how it takes -c (None: not at all)
    for name, run, c in [
        ("threshold", lambda a: problab.run_threshold_experiment(_model(a), a.trials, budget=a.budget),
         {"help": "default: the threshold formula's colour count"}),
        ("expectation", lambda a: problab.run_expectation_experiment(_model(a), a.trials, budget=a.budget),
         {"required": True}),
        ("concentration", lambda a: problab.run_concentration_experiment(
            a.n, a.p, a.trials, seed=a.seed, budget=a.budget), None),
    ]:
        p = kinds.add_parser(name)
        p.add_argument("-n", type=int, required=True)
        p.add_argument("-p", type=float, required=True)
        if c is not None:
            p.add_argument("-c", type=_at_least_one, **c)
        p.add_argument("--trials", "-T", type=_at_least_one, required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--csv", default=None)
        p.add_argument("--budget", type=_at_least_one, default=exact.DEFAULT_BUDGET)
        p.add_argument("--timing", action="store_true")
        p.set_defaults(func=_cmd_experiment, run=run, parser=p)
    return ap


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        # argparse leaves a sub-parser's leftovers to the root parser, whose
        # usage line would not name the command that refused them
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args._t0 = time.perf_counter()
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (TropidomError, OSError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (AssertionError, MemoryError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
