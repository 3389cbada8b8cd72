"""Smoke test of the benchmark at tiny sizes, in-process.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import dataclasses
import json
import time

import pytest

import run
import worker
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny(name: str, trace: bool) -> dict:
    return worker.run_workload(name, 3, seconds=0.0, trace=trace, spawned_at=time.monotonic(),
                               tiny=True, min_items=12)


def _units(line: dict) -> dict:
    return {name: m["unit"] for name, m in line["metrics"].items()}


def test_spec_is_current():
    assert run.spec() == SPEC, "BENCHMARK.json is stale: python3 perfbench/run.py --write-spec"
    assert list(workloads.WORKLOADS) == run.WORKLOAD_NAMES


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_reports_every_metric(name):
    plain, traced = _tiny(name, False), _tiny(name, True)
    assert plain["failed"] == traced["failed"] == 0, plain["failures"] + traced["failures"]
    assert plain["answer_digest"] == traced["answer_digest"]
    assert plain["witness_digest"] == traced["witness_digest"]
    for report, trace, table in ((plain, False, "end_to_end"), (traced, True, "per_layer")):
        line = run.result_line(report, [report["setup_s"]], trace)
        assert _units(line) == {m["name"]: m["unit"] for m in SPEC[table]}
        assert line["correct"] and line["attempted"] == report["attempted"] >= 12
    assert traced["per_layer"]["failed_frac"]["value"] == 0


def test_corrupted_witness_counts_as_failed(monkeypatch):
    audit = workloads.WORKLOADS["exact_audit"]

    def corrupted(path):
        out = audit.run(path)
        wit = sorted(out.gamma_t.witness)[1:]
        return out._replace(gamma_t=dataclasses.replace(out.gamma_t, witness=frozenset(wit)))

    monkeypatch.setitem(workloads.WORKLOADS, "exact_audit", dataclasses.replace(audit, run=corrupted))
    for trace in (False, True):
        report = _tiny("exact_audit", trace)
        assert report["failed"] == report["attempted"]
        assert "gamma_t witness" in report["failures"][0]
        assert not run.result_line(report, [report["setup_s"]], trace)["correct"]
    assert report["per_layer"]["failed_frac"]["value"] == 1.0


def test_short_run_is_not_correct(monkeypatch):
    monkeypatch.setattr(worker, "MAX_LOOP_S", 0.0)
    report = _tiny("rainbow_threshold", False)
    assert report["attempted"] == 1 and report["failed"] == 0 and not report["complete"]
    assert not run.result_line(report, [report["setup_s"]], False)["correct"]
