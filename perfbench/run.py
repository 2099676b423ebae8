"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet-rollout --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the ``end_to_end`` metrics of ``BENCHMARK.json``
with no instrumentation, its times in reference seconds (CPU seconds
scaled by the host speed sampled throughout, see ``hostspeed.py``);
``--trace 1`` alternates untraced and traced instances and reports its
``per_layer`` metrics, in wall seconds, from the traced ones.
Either way every operation's verdict digest is checked against the
sequential-admission oracle, which runs once per invocation after the
measured window.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; earlier lines are a
human-readable report.  ``NOTES.md`` describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Callable, Dict, List, Sequence

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def declared_units(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    return {metric["name"]: metric["unit"]
            for metric in declared["per_layer" if trace else "end_to_end"]}


def import_workloads():
    """The workload module, or exit 2 when the program's sources are absent."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program sources at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads
    return workloads


class Workload:
    """One workload: inputs from a seed, one instance, its oracle."""

    def __init__(self, make_inputs: Callable, run: Callable,
                 oracle: Callable, setup: Callable = None) -> None:
        self.make_inputs = make_inputs
        self.run = run
        self.oracle = oracle
        #: Standalone set-up timing; None when an instance times its own.
        self.setup = setup


def workload_table(workloads) -> Dict[str, Workload]:
    def service_run(inputs, _untimed=None, clock=time.perf_counter):
        # Nothing inside a service instance is the benchmark's own work.
        return workloads.run_service(inputs, OUT, clock)

    return {
        "fleet-rollout": Workload(workloads.fleet_rollout_inputs,
                                  workloads.run_rollout,
                                  workloads.rollout_oracle),
        "update-series": Workload(workloads.update_series_inputs,
                                  workloads.run_rollout,
                                  workloads.rollout_oracle),
        "service-mix": Workload(workloads.service_mix_inputs, service_run,
                                workloads.service_oracle,
                                setup=workloads.service_setup),
    }


def p90(values: Sequence[float]) -> float:
    """Linear-interpolated 90th percentile (every workload has 8+ jobs)."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Tally:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, outcome, oracle: Dict[object, str], label: str) -> None:
        for index, (digest, key) in enumerate(zip(outcome.digests,
                                                  outcome.oracle_keys)):
            self.attempted += 1
            if digest is None:
                self.failed += 1
                self.problems.append(f"{label} op {index}: raised or FAILED")
            elif digest != oracle.get(key):
                self.failed += 1
                self.problems.append(f"{label} op {index}: digest differs "
                                     "from the sequential oracle")

    def fail(self, message: str) -> None:
        self.problems.append(message)


def run_instance(workload: Workload, inputs, tally: Tally, label: str,
                 recorder=None):
    """One instance, traced (on wall time) when given a recorder.

    Untraced instances are timed on ``hostspeed.CLOCK``.  An exception
    fails every operation of the instance.
    """
    gc.collect()
    try:
        if recorder is None:
            return workload.run(inputs, clock=hostspeed.CLOCK)
        with recorder.installed():
            return workload.run(inputs, recorder.paused)
    except Exception:
        traceback.print_exc()
        operations = inputs.operations()
        tally.attempted += operations
        tally.failed += operations
        tally.problems.append(f"{label}: raised")
        return None


def measure(workload: Workload, inputs, seconds: float, tally: Tally,
            produced: List):
    """Untraced instances until ``seconds`` would be exceeded (at least one).

    A :class:`hostspeed.Sampler` runs throughout, and every time is
    reported in its reference seconds.  Each completed instance is appended
    to ``produced`` as (label, outcome) for the oracle check, which runs
    afterwards so that ``peak_rss_mb`` is the workload's own.
    """
    sampler = hostspeed.Sampler()
    setups = []
    measured = []
    with sampler.running():
        if workload.setup is not None:
            for _ in range(5):
                gc.collect()
                setups.append(workload.setup(inputs, hostspeed.CLOCK))
        began = time.perf_counter()
        longest = 0.0
        index = 0
        while not measured or time.perf_counter() - began + longest <= seconds:
            started = time.perf_counter()
            outcome = run_instance(workload, inputs.instance(index), tally,
                                   f"instance {index}")
            longest = max(longest, time.perf_counter() - started)
            index += 1
            if outcome is None:
                if time.perf_counter() - began > seconds:
                    break
                continue
            produced.append((f"instance {index - 1}", outcome))
            measured.append(outcome)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not measured:
        return None
    if not setups:
        setups = [outcome.setup for outcome in measured]
    span = sampler.seconds
    jobs = [value for outcome in measured for value in outcome.job_s(span)]
    waves = [value for outcome in measured
             for value in outcome.first_wave_s(span)]
    return {
        "setup_s": statistics.median(span(*setup) for setup in setups),
        "campaign_s": statistics.median(o.campaign_s(span) for o in measured),
        "total_s": statistics.median(o.total_s(span) for o in measured),
        "admissions_per_s": statistics.median(o.admitted / o.total_s(span)
                                              for o in measured),
        "job_p50_s": statistics.median(jobs),
        "job_p90_s": p90(jobs),
        "first_wave_p50_s": statistics.median(waves),
        "first_wave_p90_s": p90(waves),
        "peak_rss_mb": peak_rss_mb,
    }, {"instances": len(measured), "jobs": len(jobs),
        "setup_repeats": len(setups),
        "host_speed": round(sampler.speed(), 3),
        "cpu_setup_s": round(statistics.median(end - start
                                               for start, end in setups), 4),
        "cpu_total_s": round(statistics.median(o.total_s() for o in measured),
                             4)}


def measure_traced(workload: Workload, inputs, seconds: float, tally: Tally,
                   produced: List, name: str, seed: int):
    """Pairs of (untraced, traced) instances; per-layer metrics per pair."""
    from tracing import Recorder
    rows: List[Dict[str, float]] = []
    began = time.perf_counter()
    longest = 0.0
    last = None
    index = 0
    while not rows or time.perf_counter() - began + longest <= seconds:
        started = time.perf_counter()
        label = f"pair {index}"
        instance = inputs.instance(index)
        index += 1
        plain = run_instance(workload, instance, tally, label + " untraced")
        recorder = Recorder()
        traced = run_instance(workload, instance, tally, label + " traced",
                              recorder)
        longest = max(longest, time.perf_counter() - started)
        if plain is None or traced is None:
            if time.perf_counter() - began > seconds:
                break
            continue
        produced.append((label + " untraced", plain))
        produced.append((label + " traced", traced))
        if plain.digests != traced.digests:
            tally.fail(f"{label}: traced digests differ from untraced")
        for target in recorder.missing:
            print(f"perfbench: trace target {target} not found", file=sys.stderr)
        timed = sum(high - low for low, high in traced.segments)
        covered = recorder.coverage(traced.segments)
        if covered < 0.95 * timed:
            tally.fail(f"{label}: spans cover {covered / timed:.1%} of the "
                       "wall time, below 95%")
        row = recorder.layer_metrics()
        admissions = sum(result.admitted + result.rejected
                         for result in traced.results)
        row["fleet.replay_ratio"] = (row["mcc.replay_change.calls"] / admissions
                                     if admissions else 0.0)
        own = recorder.job_own_time(traced.job_ids, traced.jobs)
        row["service.wait_s"] = statistics.median(
            latency - mine for latency, mine in zip(traced.job_s(), own))
        row["unattributed_s"] = timed - covered
        row["trace_overhead"] = traced.total_s() / plain.total_s()
        rows.append(row)
        last = (recorder, traced.segments[0][0])
    if last is None:
        return None
    os.makedirs(OUT, exist_ok=True)
    recorder, origin = last
    path = os.path.join(OUT, f"trace-{name}-seed{seed}.jsonl.gz")
    recorder.write(path, origin)
    print(f"spans of the last traced instance: {path}")
    metrics = {key: statistics.median(row[key] for row in rows)
               for key in rows[0]}
    return metrics, {"pairs": len(rows)}


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = import_workloads()
    table = workload_table(workloads)
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(table)}")
    workload = table[args.workload]
    units = declared_units(bool(args.trace))
    os.makedirs(OUT, exist_ok=True)
    inputs = workload.make_inputs(args.seed)
    tally = Tally()
    produced: List = []
    if args.trace:
        measured = measure_traced(workload, inputs, args.seconds, tally,
                                  produced, args.workload, args.seed)
    else:
        measured = measure(workload, inputs, args.seconds, tally, produced)
    if measured is None:
        print("perfbench: no instance completed", file=sys.stderr)
        for problem in tally.problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        return 1
    values, sizes = measured
    if set(values) != set(units):
        print(f"perfbench: measured {sorted(values)} but BENCHMARK.json "
              f"declares {sorted(units)}", file=sys.stderr)
        return 1
    oracle_started = time.perf_counter()
    oracle = workload.oracle(inputs)
    oracle_s = time.perf_counter() - oracle_started
    for label, outcome in produced:
        tally.check(outcome, oracle, label)
    print(f"workload {args.workload} seed {args.seed}: {sizes}, "
          f"oracle {oracle_s:.2f} s")
    for problem in tally.problems:
        print(f"FAILED: {problem}")
    print(f"failed_ratio {tally.failed / max(tally.attempted, 1):.4f} "
          f"({tally.failed} of {tally.attempted} operations)")
    for key in units:
        print(f"{key:40s} {values[key]:.6g} {units[key]}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {key: {"value": values[key], "unit": units[key]}
                    for key in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
