"""Toy-scale smoke of every benchmark workload.

Each workload runs once untraced and once traced at a few percent of its
size; both runs' verdict digests must equal the sequential-admission
oracle's, and the traced run's spans must report every per-layer metric.
A broken workload fails here in seconds rather than in a full run::

    python3 perfbench/smoke.py            # or: python3 -m pytest perfbench/smoke.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (the benchmark runner, beside this file)

workloads = run.import_workloads()
TABLE = run.workload_table(workloads)
#: Fraction of full size: big enough that every layer is exercised.
SCALE = {"fleet-rollout": 0.02, "update-series": 0.05, "service-mix": 0.05}


def check(name: str) -> None:
    from tracing import Recorder
    workload = TABLE[name]
    inputs = workload.make_inputs(7, scale=SCALE[name])
    plain = workload.run(inputs)
    recorder = Recorder()
    with recorder.installed():
        traced = workload.run(inputs, recorder.paused)
    oracle = workload.oracle(inputs)
    expected = [oracle[key] for key in plain.oracle_keys]
    assert len(plain.digests) == inputs.operations()
    assert plain.digests == expected, f"{name}: digests differ from the oracle"
    assert traced.digests == plain.digests, f"{name}: tracing changed a verdict"
    assert not recorder.missing, f"{name}: trace targets missing: {recorder.missing}"
    metrics = recorder.layer_metrics()
    assert metrics["fleet.build.calls"] >= 1
    assert metrics["fleet.step.calls"] >= 1
    assert metrics["mcc.request_change.calls"] >= 1
    assert recorder.coverage(traced.segments) > 0.0


def test_fleet_rollout() -> None:
    check("fleet-rollout")


def test_update_series() -> None:
    check("update-series")


def test_service_mix() -> None:
    check("service-mix")


if __name__ == "__main__":
    for workload_name in TABLE:
        check(workload_name)
        print(f"{workload_name}: ok")
