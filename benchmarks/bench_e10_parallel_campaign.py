"""E10 (parallel): batched in-process admission at a 500-vehicle fleet.

The file and record keep their historical name (the committed
``BENCH_e10_parallel_campaign`` records are the regression baseline of
``bench-history``); campaigns now run in one process.  Two claims are
regenerated and asserted:

* **Speedup with identical verdicts.**  Batched admission (equivalence
  dedupe over a shared analysis cache) must admit a 500-vehicle
  campaign at least 2x faster than the sequential per-vehicle baseline,
  wave records byte-identical.
* **Checkpoint/resume.**  A campaign halted mid-rollout by its wave policy
  resumes — after the policy is remediated — from its saved checkpoint to
  the exact final result of an uninterrupted campaign.

The measured quantities land in ``BENCH_e10_parallel_campaign.json``.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional, Tuple

import pytest

from conftest import print_table, quick_mode, write_bench_record
from repro.analysis.cache import AnalysisCache
from repro.fleet.campaign import (Campaign, CampaignCheckpoint,
                                  CampaignResult, WavePolicy)
from repro.fleet.vehicle import FleetSpec, generate_fleet
from repro.mcc.configuration import ChangeKind, ChangeRequest
from repro.scenarios.fleet_campaign import build_update_contract

SEED = 1  # halts at wave >= 1 under the strict policy, at both bench sizes


def _factory():
    contracts: Dict[int, object] = {}

    def factory(vehicle):
        contract = contracts.get(vehicle.variant.index)
        if contract is None:
            contract = build_update_contract(vehicle.wcet_factor)
            contracts[vehicle.variant.index] = contract
        return ChangeRequest(kind=ChangeKind.ADD_COMPONENT,
                             component=contract.component, contract=contract)

    return factory


def _digest(result: CampaignResult) -> Tuple:
    return (result.fleet_size, result.admitted, result.rejected,
            result.deviating, result.refined, result.rolled_back,
            result.halted, result.halted_wave,
            [record.to_dict() for record in result.waves])


def _dimensions() -> Tuple[int, int]:
    quick = quick_mode()
    return (60 if quick else 500), (4 if quick else 8)


def _run(batched: bool, failure_rate: float = 0.0,
         policy: Optional[WavePolicy] = None,
         checkpoint_path: Optional[str] = None
         ) -> Tuple[float, CampaignResult]:
    """Fresh fleet, one timed campaign run (admission only).

    With ``checkpoint_path`` a halted run's checkpoint is saved there,
    after the timed run.
    """
    fleet_size, num_variants = _dimensions()
    spec = FleetSpec(size=fleet_size, seed=SEED, num_variants=num_variants)
    cache = AnalysisCache(max_entries=16384) if batched else None
    fleet = generate_fleet(spec, analysis_cache=cache)
    campaign = Campaign(fleet, _factory(), policy=policy,
                        analysis_cache=cache, batch_admission=batched,
                        failure_injection_rate=failure_rate,
                        feedback_seed=SEED)
    started = time.perf_counter()
    result = campaign.run()
    elapsed = time.perf_counter() - started
    if checkpoint_path is not None and campaign.last_checkpoint is not None:
        campaign.last_checkpoint.save(checkpoint_path)
    return elapsed, result


@pytest.mark.benchmark(group="e10-parallel")
def test_e10_batched_admission_speedup_and_parity(benchmark):
    """Batched admission >= 2x over sequential admission, verdicts identical.

    min-of-2 timing on both sides.
    """
    fleet_size, num_variants = _dimensions()

    sequential_s = float("inf")
    batched_s = float("inf")
    sequential_result: Optional[CampaignResult] = None
    batched_result: Optional[CampaignResult] = None
    for _ in range(2):
        elapsed, sequential_result = _run(batched=False)
        sequential_s = min(sequential_s, elapsed)
        elapsed, batched_result = _run(batched=True)
        batched_s = min(batched_s, elapsed)
    benchmark(lambda: _run(batched=True)[1])

    assert _digest(batched_result) == _digest(sequential_result)
    assert batched_result.admitted == fleet_size  # clean rollout, whole fleet
    speedup = sequential_s / batched_s if batched_s > 0 else float("inf")
    row = {
        "fleet_size": fleet_size,
        "num_variants": num_variants,
        "sequential_s": sequential_s,
        "batched_s": batched_s,
        "speedup": speedup,
        "admitted": batched_result.admitted,
        "waves": len(batched_result.waves),
    }
    print_table("E10: batched in-process admission vs sequential admission "
                "(target: >= 2x)", [row])
    write_bench_record("e10_parallel_campaign", row)
    assert speedup >= 2.0


@pytest.mark.benchmark(group="e10-parallel")
def test_e10_checkpoint_resume_roundtrip(benchmark, tmp_path):
    """A halted campaign resumes from its checkpoint — remediated — to the
    same final result as an uninterrupted campaign."""
    fleet_size, num_variants = _dimensions()
    strict = WavePolicy(canary_size=2, wave_fractions=(0.1, 0.3, 1.0),
                        max_failure_rate=0.1)
    tolerant = WavePolicy(canary_size=2, wave_fractions=(0.1, 0.3, 1.0),
                          max_failure_rate=1.0)
    checkpoint_path = str(tmp_path / "halted.ckpt")

    halted_s, halted = _run(batched=True, failure_rate=0.3,
                            policy=strict, checkpoint_path=checkpoint_path)
    assert halted.halted and halted.halted_wave >= 1  # a mid-campaign halt
    assert os.path.exists(checkpoint_path)

    _, reference = _run(batched=True, failure_rate=0.3,
                        policy=tolerant)

    def resume() -> CampaignResult:
        spec = FleetSpec(size=fleet_size, seed=SEED,
                         num_variants=num_variants)
        cache = AnalysisCache(max_entries=16384)
        fleet = generate_fleet(spec, analysis_cache=cache)
        campaign = Campaign(fleet, _factory(), policy=tolerant,
                            analysis_cache=cache, failure_injection_rate=0.3,
                            feedback_seed=SEED)
        return campaign.run(
            resume_from=CampaignCheckpoint.load(checkpoint_path))

    started = time.perf_counter()
    resumed = resume()
    resume_s = time.perf_counter() - started
    benchmark(resume)

    assert _digest(resumed) == _digest(reference)
    rows = [{"fleet_size": fleet_size, "halted_wave": halted.halted_wave,
             "halted_s": halted_s, "resume_s": resume_s,
             "resumed_admitted": resumed.admitted,
             "reference_admitted": reference.admitted,
             "identical": _digest(resumed) == _digest(reference)}]
    print_table("E10: checkpoint/resume after remediation", rows)
