"""One workload process: build the inputs, run the closed loop, check answers.

run.py starts this script in a fresh process for every measurement:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --spawned-at T [--setup-only] [--spans-out FILE]

``--spawned-at`` is the parent's ``time.monotonic()`` just before the spawn,
so ``setup_s`` runs from process start to the first timed item. The report is
one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (imports tropidom, which set-up time includes)

# p90 needs at least 10 samples beyond it; the digests cover these first items.
MIN_ITEMS = 100
# The loop, checks included, stops after this many seconds even short of
# MIN_ITEMS, so that the command ends in time; such a run is not correct.
MAX_LOOP_S = 100.0

# The machine is shared, and its speed comes in spells: the kernel below takes
# about 1.1 ms in some and 2.0 ms in others, and a spell lasts from a tenth of
# a second to minutes. The kernel is timed before an item whenever
# REFERENCE_EVERY_S of item time has passed since the last sample, and every
# item time is rescaled by REFERENCE_MS over the kernel's local median, so item
# times read as on a machine where the kernel takes REFERENCE_MS. Raw times are
# kept too. Set-up is not scaled: kernel samples taken at process start, after
# the imports and after set-up did not track its time (see README.md).
REFERENCE_MS = 2.0
REFERENCE_EVERY_S = 0.05
_REF_FULL = (1 << 256) - 1
_REF_MASKS = [(i * 0x9E3779B97F4A7C15) & _REF_FULL for i in range(1, 257)]


def reference_s() -> float:
    """Seconds the reference kernel (bitmask and dict work) takes now."""
    start = time.perf_counter()
    acc, seen = 0, {}
    for _ in range(12):
        for i, m in enumerate(_REF_MASKS):
            acc = (acc | (m & ~(acc >> 1))) & _REF_FULL
            seen[i] = (m & -m).bit_length() + len(seen)
    return time.perf_counter() - start


def _speed_scales(refs: list[float], ref_of_item: list[int]) -> list[float]:
    """Per item: REFERENCE_MS over the median of the 9 reference samples around its own."""
    return [REFERENCE_MS / 1e3 / statistics.median(refs[max(0, j - 4):j + 5]) for j in ref_of_item]


def _attempt(wl, inp):
    start = time.perf_counter()
    try:
        out, err = wl.run(inp), None
    except Exception as exc:  # a raising item is a failed item; the loop goes on
        out, err = None, f"{type(exc).__name__}: {exc}"
    return out, err, time.perf_counter() - start


def _traced_attempt(tracer, item: int, wl, inp):
    with tracer.installed(item):
        return _attempt(wl, inp)


def _problems(wl, inp, out, err) -> list[str]:
    if err is not None:
        return [err]
    try:
        return wl.check(inp, out)
    except Exception as exc:  # a check that cannot run fails the item
        return [f"check raised {type(exc).__name__}: {exc}"]


def _record(wl, out, err):
    """(answer, witness) records of one item, for the digests."""
    if err is None:
        try:
            return wl.answer(out), wl.witness(out)
        except Exception as exc:  # an unreadable output is recorded as an error
            err = f"{type(exc).__name__}: {exc}"
    return ["error", err.split(":", 1)[0]], None


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def _digest(records) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def _excess_terms(out):
    """(greedy, gamma_t, path53, tdn) sizes an item contributes to the excess ratios."""
    if isinstance(out, workloads.AuditOut):
        return out.greedy.size, out.gamma_t.value, 0, 0
    if isinstance(out, workloads.IntervalOut) and out.path53 is not None:
        return 0, 0, out.path53.size, out.result.value
    return 0, 0, 0, 0


def measure(wl, inputs, seconds: float, tracer=None, min_items: int = MIN_ITEMS) -> dict:
    """Closed loop, one caller: item i+1 starts after item i and its check.

    Only the item calls are timed. With a tracer every item runs twice, once
    traced and once not, in alternating order, and both answers must agree.
    """
    latencies, untraced_s, traced_s, failures = [], 0.0, 0.0, []
    refs, ref_of_item, since_ref = [], [], REFERENCE_EVERY_S
    answers, witnesses = [], []
    excess = [0, 0, 0, 0]
    failed = 0
    i = 0
    loop_start = time.monotonic()
    while True:
        inp = inputs[i % len(inputs)]
        if since_ref >= REFERENCE_EVERY_S:
            refs.append(reference_s())
            since_ref = 0.0
        ref_of_item.append(len(refs) - 1)
        if tracer is None:
            out, err, lat = _attempt(wl, inp)
        else:
            # alternate which run goes first, so neither always meets warm caches
            if i % 2 == 0:
                plain, (out, err, t_lat) = _attempt(wl, inp), _traced_attempt(tracer, i, wl, inp)
            else:
                (out, err, t_lat), plain = _traced_attempt(tracer, i, wl, inp), _attempt(wl, inp)
            lat = plain[2]
            traced_s += t_lat
        latencies.append(lat)
        untraced_s += lat
        since_ref += lat
        problems = _problems(wl, inp, out, err)
        answer, witness = _record(wl, out, err)
        if tracer is not None and _record(wl, *plain[:2]) != (answer, witness):
            problems.append("traced and untraced runs disagree")
        if problems:
            failed += 1
            if len(failures) < 5:
                failures.append(f"item {i}: " + "; ".join(problems))
        elif tracer is not None:
            excess = [a + b for a, b in zip(excess, _excess_terms(out))]
        if i < min_items:
            answers.append(answer)
            witnesses.append(witness)
        i += 1
        busy = untraced_s + traced_s
        if (busy >= seconds and i >= min_items) or time.monotonic() - loop_start >= MAX_LOOP_S:
            break

    scaled = [lat * k for lat, k in zip(latencies, _speed_scales(refs, ref_of_item))]
    report = {
        "attempted": i,
        "failed": failed,
        "failures": failures,
        "complete": i >= min_items,
        "min_items": min_items,
        "items_per_s": (i - failed) / sum(scaled),
        "item_p50_ms": statistics.median(scaled) * 1e3,
        "item_p90_ms": _p90(scaled) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "reference_target_ms": REFERENCE_MS,
        "speed_scale": sum(scaled) / untraced_s,
        "raw": {
            "items_per_s": (i - failed) / untraced_s,
            "item_p50_ms": statistics.median(latencies) * 1e3,
            "item_p90_ms": _p90(latencies) * 1e3,
            "reference_ms": statistics.median(refs) * 1e3,
        },
        "digest_items": len(answers),
        "answer_digest": _digest(answers),
        "witness_digest": _digest(witnesses),
    }
    if tracer is not None:
        greedy, gamma_t, path53, tdn = excess
        report["per_layer"] = tracer.metrics(
            untraced_wall=untraced_s,
            traced_wall=traced_s,
            items=i,
            greedy_excess=greedy / gamma_t if gamma_t else 0.0,
            path53_excess=path53 / tdn if tdn else 0.0,
            failed_frac=failed / i,
        )
    return report


def run_workload(name: str, seed: int, seconds: float, trace: bool, spawned_at: float,
                 setup_only: bool = False, spans_out: str | None = None,
                 tiny: bool = False, min_items: int = MIN_ITEMS) -> dict:
    wl = workloads.WORKLOADS[name]
    work_dir = HERE / ".work" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    try:
        if trace:
            from layertrace import Tracer

            tracer = Tracer()
            with tracer.installed(-1):
                inputs = wl.setup(seed, work_dir, tiny)
        else:
            inputs = wl.setup(seed, work_dir, tiny)
        setup_s = time.monotonic() - spawned_at
        if setup_only:
            return {"setup_s": setup_s}
        report = measure(wl, inputs, seconds, tracer, min_items)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if tracer is not None and spans_out:
        tracer.write_spans(spans_out)
    import mpmath
    import numpy

    report.update(
        workload=name,
        seed=seed,
        setup_s=setup_s,
        versions={"python": platform.python_version(), "numpy": numpy.__version__,
                  "mpmath": mpmath.__version__},
    )
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.spawned_at,
                          setup_only=args.setup_only, spans_out=args.spans_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
