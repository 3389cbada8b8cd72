"""The tropidom benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop with one caller, in fresh single-threaded
worker processes started one at a time, and checks every answer. With
``--trace 0`` it reports the end-to-end metrics: ``setup_s`` is the median
over the measuring process and SETUP_EACH_SIDE set-up-only processes on each
side of it, the others come from the measuring process. With ``--trace 1``
one process runs every item traced and untraced and reports the per-layer
metrics. The last line of stdout is the JSON result; the full report, with
the environment record, goes to ``perfbench/results/``. Run from the
repository root.

    python3 perfbench/run.py --write-spec

rewrites ``BENCHMARK.json`` from the tables in this benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RUN_SECONDS = 20
# setup_s is the median over the measuring process and this many set-up-only
# processes before it and as many after it, so that a slow spell of the
# machine at one end of the run does not decide it.
SETUP_EACH_SIDE = 4
# Every process this command starts must have ended by then.
DEADLINE_S = 170.0

# name -> (unit, better, bound). A bound is the share of the parent's median
# by which the metric may worsen. perfbench/README.md lists the quartile
# spreads of two sets of ten seeds measured against these bounds.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "items_per_s": ("1/s", "higher", 0.25),
    "item_p50_ms": ("ms", "lower", 0.25),
    "item_p90_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.1),
}

WORKLOAD_NAMES = ["rainbow_threshold", "exact_audit", "interval_dp", "gnpc_cli"]


class WorkerFailed(RuntimeError):
    pass


def _spawn(args, deadline: float, setup_only: bool = False, spans_out: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _git_commit() -> str | None:
    """HEAD of the repository at ROOT, or None outside one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(args, report: dict) -> dict:
    return dict(report["versions"], nproc=os.cpu_count(), cpu=_cpu_model(), commit=_git_commit(),
                workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)


def result_line(report: dict, setup_samples: list[float], trace: bool) -> dict:
    """The JSON object the benchmark prints last."""
    if trace:
        metrics = report["per_layer"]
    else:
        values = dict(report, setup_s=statistics.median(setup_samples))
        metrics = {k: {"value": values[k], "unit": unit} for k, (unit, _, _) in END_TO_END.items()}
    return {"correct": report["failed"] == 0 and report["complete"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def spec() -> dict:
    """The content of BENCHMARK.json."""
    sys.path.insert(0, str(ROOT / "src"))
    from layertrace import METRICS
    from workloads import WORKLOADS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": WORKLOADS[n].why} for n in WORKLOAD_NAMES],
        "end_to_end": [{"name": k, "unit": u, "better": b, "bound": bound}
                       for k, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": k, "unit": u, "better": b} for k, (u, b) in METRICS.items()],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tropidom benchmark")
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-spec", action="store_true")
    args = ap.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.workload is None or args.seed is None or args.seed < 0 or args.seconds < 1:
        ap.error("need --workload, a --seed >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "tropidom" / "__init__.py").is_file():
        print(f"error: no tropidom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        each_side = 0 if args.trace else SETUP_EACH_SIDE
        setups = [_spawn(args, deadline, setup_only=True) for _ in range(each_side)]
        spans_out = results / f"{stem}.spans.jsonl" if args.trace else None
        report = _spawn(args, deadline, spans_out=spans_out)
        setups.append(report)
        setups += [_spawn(args, deadline, setup_only=True) for _ in range(each_side)]
    except (WorkerFailed, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    line = result_line(report, [s["setup_s"] for s in setups], bool(args.trace))

    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 caller, "
          f"{report['attempted']} items, {report['failed']} failed"
          + (", each run traced and untraced" if args.trace else ""))
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    if not report["complete"]:
        print(f"  INCOMPLETE: {report['attempted']} items, fewer than the {report['min_items']} "
              "that item_p90_ms needs")
    for name, m in line["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        print(f"  setup_s is the median of {len(setups)} processes; percentiles are over "
              f"{report['attempted']} items.")
        print(f"  speed scale {report['speed_scale']:.6g}: the mean factor item times were scaled by, "
              f"so that the reference kernel (median {report['raw']['reference_ms']:.6g} ms in this "
              f"run) reads {report['reference_target_ms']} ms")
        print("  unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in report["raw"].items()
                                         if k != "reference_ms"))
    print(f"  answer digest  (first {report['digest_items']} items) {report['answer_digest']}")
    print(f"  witness digest (first {report['digest_items']} items) {report['witness_digest']}")
    full = dict(report, environment=environment(args, report), result=line,
                setup_samples_s=[s["setup_s"] for s in setups])
    (results / f"{stem}.json").write_text(json.dumps(full, indent=2) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
