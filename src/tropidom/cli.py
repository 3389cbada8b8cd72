"""Command-line front end.

JSON reports go to stdout, diagnostics to stderr. Exit codes: 0 success,
1 usage or input error, 2 node budget exceeded, 3 internal error (a failed
self-check or assertion, or memory exhausted). All randomness flows through
explicit seeds so artifacts are byte-reproducible; wall-clock timing is only
emitted with --timing to keep default output deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import approx, exact, forge, instance_io, interval, problab
from .errors import BudgetExceededError, TropidomError
from .graph import degree_profile, is_dominating, is_tropical

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_INTERNAL = 3


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# the options each generator or experiment reads beyond its parser's required ones
_NEEDS = {
    "gnpc": ("n", "p", "c", "seed"),
    "extremal-gamma": ("gamma", "c"),
    "extremal-edges": ("n", "k", "c"),
    "sat": ("cnf",),
    "vc": ("edges",),
    "pad": ("input", "epsilon"),
    "expectation": ("c",),
}


def _require(args, name: str) -> None:
    """Raise naming the first option that generator or experiment name needs
    and args lacks."""
    for opt in _NEEDS.get(name, ()):
        if getattr(args, opt) is None:
            flag = f"-{opt}" if len(opt) == 1 else f"--{opt}"
            raise TropidomError(f"{args.command} {name} requires {flag}")


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

    # self-check gate: never emit a witness that fails re-validation
    if witness is not None and not (is_dominating(g, witness) and is_tropical(g, witness)):
        raise AssertionError("witness failed re-validation")
    _emit({"command": "solve", "algo": args.algo, "instance": _digest(g), "result": payload}, args)
    return EXIT_OK


def _read_edge_list(path: str):
    edges = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        u, v = (int(x) for x in line.split())
        edges.append((u, v))
    n = max(max(u, v) for u, v in edges)
    return n, edges


def _cmd_gen(args) -> int:
    _require(args, args.generator)
    legend = None
    if args.generator == "gnpc":
        g = forge.gen_gnpc(args.n, args.p, args.c, seed=args.seed)
    elif args.generator == "extremal-gamma":
        g = forge.extremal_gamma_plus(args.gamma, args.c)
    elif args.generator == "extremal-edges":
        g = forge.extremal_edge_bound(args.n, args.k, args.c)
    elif args.generator == "sat":
        f = forge.parse_dimacs_cnf(Path(args.cnf).read_text())
        art = forge.sat_to_path(f)
        g, legend = art.path, art.colour_legend
    elif args.generator == "vc":
        n, edges = _read_edge_list(args.edges)
        art = forge.vc_to_path(forge.SubcubicGraph(n=n, edges=tuple(edges)))
        g, legend = art.path, art.colour_legend
    elif args.generator == "pad":
        base = _load_instance(args.input)
        g = forge.pad_colours(base.graph, args.epsilon)
    text = instance_io.write_instance(g, legend=legend)
    Path(args.out).write_text(text)
    _emit({"command": "gen", "generator": args.generator, "out": args.out, "instance": _digest(g)}, args)
    return EXIT_OK


def _cmd_audit(args) -> int:
    if args.input:
        paths = [args.input]
    elif args.corpus:
        paths = sorted(str(p) for p in Path(args.corpus).iterdir() if p.is_file())
    else:
        raise TropidomError("audit needs --input FILE or --corpus DIR")
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


def _cmd_experiment(args) -> int:
    _require(args, args.experiment)
    if args.experiment == "threshold":
        c = args.c if args.c else problab.threshold_colours(args.n, args.p)
        model = problab.RandomModel(n=args.n, p=args.p, c=c, seed=args.seed)
        report = problab.run_threshold_experiment(model, args.trials, budget=args.budget)
        summary = report.to_json_dict()
        summary["success_fraction"] = problab.success_fraction(report)
    elif args.experiment == "expectation":
        model = problab.RandomModel(n=args.n, p=args.p, c=args.c, seed=args.seed)
        report = problab.run_expectation_experiment(model, args.trials, budget=args.budget)
        summary = report.to_json_dict()
    elif args.experiment == "concentration":
        report = problab.run_concentration_experiment(
            args.n, args.p, args.trials, seed=args.seed, budget=args.budget
        )
        summary = report.to_json_dict()
        summary["window"] = report.params["window"]
    if args.csv:
        Path(args.csv).write_text("\n".join(report.csv_rows()) + "\n")
    _emit({"command": "experiment", "experiment": args.experiment, "summary": summary}, args)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_INPUT: argparse's own code 2 is EXIT_BUDGET."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="tropidom")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("--algo", required=True, choices=["exact", "exact-rainbow", "greedy", "path53", "interval"])
    p.add_argument("--input", required=True)
    p.add_argument("--budget", type=_at_least_one, default=exact.DEFAULT_BUDGET)
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("generator", choices=["gnpc", "extremal-gamma", "extremal-edges", "sat", "vc", "pad"])
    p.add_argument("-n", type=int)
    p.add_argument("-p", type=float)
    p.add_argument("-c", type=int)
    p.add_argument("-k", type=int)
    p.add_argument("--gamma", type=int)
    p.add_argument("--cnf", help="DIMACS-CNF input (sat)")
    p.add_argument("--edges", help="edge-list input, one 'u v' per line (vc)")
    p.add_argument("--input", help="base path instance (pad)")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("audit", help="audit the upper bounds on instances")
    p.add_argument("--input")
    p.add_argument("--corpus")
    p.add_argument("--budget", type=_at_least_one, default=exact.DEFAULT_BUDGET)
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("experiment", help="run a seeded Monte-Carlo experiment")
    p.add_argument("experiment", choices=["threshold", "expectation", "concentration"])
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-p", type=float, required=True)
    p.add_argument("-c", type=int, default=None)
    p.add_argument("--trials", "-T", type=_at_least_one, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--csv", default=None)
    p.add_argument("--budget", type=_at_least_one, default=exact.DEFAULT_BUDGET)
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=_cmd_experiment)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
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
