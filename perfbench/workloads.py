"""The benchmark's three workloads, their oracles and their verdict digests.

Each workload turns one ``--seed`` into its inputs with the benchmark's own
``random.Random``; the program only ever sees those generated inputs
(fleet specs, update contracts, campaign submissions).  Everything runs in
one process with ``workers=1``.

A workload instance is a list of *operations* -- campaigns for the two
rollouts, service jobs for ``service-mix`` -- and every operation yields a
verdict digest that the workload's oracle reproduces with the sequential
admission path (``batch_admission=False``, no shared analysis cache).  See
``NOTES.md`` for why each workload exists and what it should move.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import random
import statistics
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import (Callable, ContextManager, Dict, List, Optional, Sequence,
                    Tuple)

import repro.fleet.vehicle as vehicle_module
from repro.analysis.cache import AnalysisCache
from repro.fleet.campaign import Campaign, CampaignResult, WavePolicy
from repro.fleet.engine import CampaignEngine
from repro.fleet.vehicle import FleetSpec, FleetVehicle
from repro.mcc.configuration import ChangeKind, ChangeRequest
from repro.scenarios.fleet_campaign import build_update_contract
from repro.service import AdmissionService, JobState, SubmitCampaign


@dataclass(frozen=True)
class RolloutInputs:
    """One fleet plus the campaigns rolled out over it, in order."""

    spec: FleetSpec
    campaigns: Tuple["CampaignInputs", ...]
    #: How many times the campaign series runs over the restored fleet.
    repeats: int = 1
    #: Rollout order as fleet indices; None keeps the fleet's own order.
    order: Optional[Tuple[int, ...]] = None

    def rollout_order(self, fleet: List[FleetVehicle]) -> List[FleetVehicle]:
        """The fleet in rollout order."""
        if self.order is None:
            return fleet
        return [fleet[index] for index in self.order]

    def operations(self) -> int:
        return len(self.campaigns) * self.repeats

    def instance(self, index: int) -> "RolloutInputs":
        """Inputs of a run's instance ``index``: every instance is the same."""
        return self


@dataclass(frozen=True)
class CampaignInputs:
    component: str
    utilization: float
    failure_injection_rate: float
    feedback_seed: int
    policy: WavePolicy


Interval = Tuple[float, float]
#: Seconds of an interval: ``span(start, end)``.
Span = Callable[[float, float], float]


def elapsed(start: float, end: float) -> float:
    """Seconds of an interval, on the clock that timed it."""
    return end - start


@dataclass
class Outcome:
    """What one workload instance measured and produced.

    Times are kept as ``(start, end)`` intervals of the clock the instance
    was run with (wall time unless the runner passes another); the methods
    turn them into seconds with a ``span(start, end)`` function, plain
    differences by default (``run.py`` passes reference seconds).
    """

    #: The fleet build of a rollout; None where set-up is timed apart.
    setup: Optional[Interval] = None
    #: Per pass over the campaigns (a rollout's repeats) or per service
    #: session: the intervals whose sum is that pass's time.
    passes: List[List[Interval]] = field(default_factory=list)
    #: The intervals whose sum is ``total_s``.
    total: List[Interval] = field(default_factory=list)
    admitted: int = 0
    #: Per operation: start to result, and start to the first wave.
    jobs: List[Interval] = field(default_factory=list)
    first_waves: List[Interval] = field(default_factory=list)
    #: Per operation: verdict digest, or None when it raised or FAILED.
    digests: List[Optional[str]] = field(default_factory=list)
    #: Per operation: the key of the oracle digest it must equal.
    oracle_keys: List[object] = field(default_factory=list)
    #: Per operation, for the trace: its job id.
    job_ids: List[str] = field(default_factory=list)
    #: The timed (start, end) stretches of the instance, for span coverage.
    segments: List[Interval] = field(default_factory=list)
    #: Campaign results, for the trace's replay ratio.
    results: List[CampaignResult] = field(default_factory=list)

    def campaign_s(self, span: Span = elapsed) -> float:
        """Median pass time."""
        return statistics.median(sum(span(*interval) for interval in intervals)
                                 for intervals in self.passes)

    def total_s(self, span: Span = elapsed) -> float:
        return sum(span(*interval) for interval in self.total)

    def job_s(self, span: Span = elapsed) -> List[float]:
        return [span(*interval) for interval in self.jobs]

    def first_wave_s(self, span: Span = elapsed) -> List[float]:
        return [span(*interval) for interval in self.first_waves]


# -- digests -------------------------------------------------------------------


def _hash(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_payload(result: CampaignResult) -> Dict[str, object]:
    """Everything verdict-bearing about a result.

    Cache counters, the ``batched`` flag and shard telemetry are left out:
    they describe how admission ran, not what it decided.
    """
    return {"fleet_size": result.fleet_size, "admitted": result.admitted,
            "rejected": result.rejected, "deviating": result.deviating,
            "refined": result.refined, "rolled_back": result.rolled_back,
            "halted": result.halted, "halted_wave": result.halted_wave,
            "waves": [dict(record.to_dict(), vehicle_ids=record.vehicle_ids)
                      for record in result.waves]}


def fleet_payload(fleet: Sequence[FleetVehicle]) -> List[object]:
    """Each vehicle's adopted mapping, priorities, version and rollout flags.

    Read from the adopted model, not ``mcc.snapshot()``: the trace counts
    only the engine's own snapshot calls.
    """
    return [[vehicle.vehicle_id, vehicle.mcc.model.version,
             sorted(vehicle.mcc.model.mapping.items()),
             sorted(vehicle.mcc.model.priorities.items()),
             vehicle.updated, vehicle.deviating, vehicle.rolled_back]
            for vehicle in fleet]


# -- rollouts ------------------------------------------------------------------


def _update_factory(inputs: "CampaignInputs"):
    """Per-variant update contracts, built once each (as the service does)."""
    component, utilization = inputs.component, inputs.utilization
    contracts: Dict[int, object] = {}

    def factory(vehicle: FleetVehicle) -> ChangeRequest:
        contract = contracts.get(vehicle.variant.index)
        if contract is None:
            contract = build_update_contract(vehicle.wcet_factor,
                                             utilization=utilization,
                                             component=component)
            contracts[vehicle.variant.index] = contract
        return ChangeRequest(kind=ChangeKind.ADD_COMPONENT,
                             component=contract.component, contract=contract)

    return factory


#: Fleet catalogue of ``fleet-rollout`` and ``update-series``; every
#: ``fleet-rollout`` variant accepts the rolled-out update.
CATALOGUE_SEED = 0
#: Fleet (and feedback) seeds of the ``service-mix`` jobs.
SERVICE_FLEET_SEEDS = (0, 1, 2, 3)
#: Index of the update-series campaign whose update fails on every vehicle.
FAULTY_CAMPAIGN = 4


def fleet_rollout_inputs(seed: int, scale: float = 1.0) -> RolloutInputs:
    """1,000 vehicles in 8 variants, one clean staged campaign, 20 repeats.

    The variant catalogue is fixed (``CATALOGUE_SEED``): with only 8
    variants, fleet construction cost differs by tens of percent from one
    catalogue to the next.  ``seed`` shuffles which vehicles make up each
    wave after the canary instead; the canary stays the first vehicle of
    variants 0 and 1, whose two integrations are the whole first wave.
    Every variant of the catalogue accepts the update, so the campaign
    never halts.
    """
    rng = random.Random(seed)
    size = max(8, round(1000 * scale))
    spec = FleetSpec(size=size, seed=CATALOGUE_SEED, num_variants=8,
                     extra_components=10)
    order = list(range(2, size))
    rng.shuffle(order)
    order = [0, 1] + order
    campaign = CampaignInputs(component="nav_assist", utilization=0.22,
                              failure_injection_rate=0.0,
                              feedback_seed=rng.randrange(2**31),
                              policy=WavePolicy(canary_size=2,
                                                wave_fractions=(0.1, 0.3, 1.0)))
    return RolloutInputs(spec=spec, campaigns=(campaign,), repeats=20,
                         order=tuple(order))


def update_series_inputs(seed: int, scale: float = 1.0) -> RolloutInputs:
    """240 one-vehicle variants, eight consecutive feedback-heavy campaigns.

    The catalogue is fixed (``CATALOGUE_SEED``) and so is the canary, the
    first 12 vehicles: the campaigns' relative lengths, and so the 90th
    percentiles, come from the catalogue, and one catalogue's slowest
    campaign differs from another's by up to 25%.  ``seed`` shuffles the
    rollout order after the canary and draws each campaign's field
    failures.  Field failures are injected at 15%; deviations refine the
    contracts.
    Campaign ``FAULTY_CAMPAIGN`` ships an update that fails on every
    vehicle, so it halts at its canary and rolls the canary back on every
    seed.  No other campaign should halt: a halt at the canary removes a
    whole campaign's work from one seed but not the next.  The 12-vehicle
    canary keeps a couple of unlucky feedback draws from halting one, and
    updates of utilization 0.03 keep the last campaigns' rejections (which
    count as failures) near 10%.
    """
    rng = random.Random(seed)
    size = max(8, round(240 * scale))
    spec = FleetSpec(size=size, seed=CATALOGUE_SEED, num_variants=size,
                     extra_components=10)
    canary = min(12, size)
    order = list(range(canary, size))
    rng.shuffle(order)
    order = list(range(canary)) + order
    policy = WavePolicy(canary_size=canary, wave_fractions=(0.1, 0.3, 1.0),
                        max_failure_rate=0.6, rollback_on_halt=True,
                        refine_on_deviation=True)
    campaigns = tuple(
        CampaignInputs(component=f"update{index}", utilization=0.03,
                       failure_injection_rate=1.0
                       if index == FAULTY_CAMPAIGN else 0.15,
                       feedback_seed=rng.randrange(2**31), policy=policy)
        for index in range(8))
    return RolloutInputs(spec=spec, campaigns=campaigns, order=tuple(order))


def run_rollout(inputs: RolloutInputs,
                untimed: Callable[[], ContextManager] = contextlib.nullcontext,
                clock: Callable[[], float] = time.perf_counter) -> Outcome:
    """Build the fleet with batched admission, then run the campaign series.

    The series runs ``inputs.repeats`` times; before each repeat after the
    first, every vehicle is restored to its pre-series state (untimed, inside
    ``untimed()``), so the repeats re-admit the same fleet and only the
    analyses cached by the first repeat are warm.  Every campaign starts
    after an untimed ``gc.collect()``.  Only the build and the campaigns are
    timed, on ``clock`` (``segments``): ``setup`` is the build, ``passes``
    the series and ``total`` the build plus the first series.  Campaigns
    are driven through :class:`CampaignEngine` (what ``Campaign.run()``
    loops over) so the first wave's verdict time is visible; each
    campaign's digest is taken between the timed stretches.
    """
    outcome = Outcome()
    start = clock()
    cache = AnalysisCache()
    fleet = vehicle_module.generate_fleet(inputs.spec, analysis_cache=cache)
    built = clock()
    outcome.setup = (start, built)
    outcome.segments.append((start, built))
    initial = None
    if inputs.repeats > 1:
        with untimed():
            initial = [vehicle.capture_state() for vehicle in fleet]
    for repeat in range(inputs.repeats):
        if repeat:
            with untimed():
                for vehicle, state in zip(fleet, initial):
                    vehicle.restore_state(state)
        outcome.passes.append([])
        for index, campaign_inputs in enumerate(inputs.campaigns):
            with untimed():
                # Every campaign starts from a collected heap, so no full
                # collection owed to earlier work lands in its time.
                gc.collect()
            began = clock()
            campaign = Campaign(inputs.rollout_order(fleet),
                                _update_factory(campaign_inputs),
                                policy=campaign_inputs.policy,
                                analysis_cache=cache,
                                failure_injection_rate=campaign_inputs.failure_injection_rate,
                                feedback_seed=campaign_inputs.feedback_seed)
            engine = CampaignEngine(campaign)
            first_wave = None
            while not engine.done:
                engine.step()
                if first_wave is None:
                    first_wave = clock()
            result = engine.finalize()
            ended = clock()
            outcome.passes[-1].append((began, ended))
            outcome.segments.append((began, ended))
            outcome.jobs.append((began, ended))
            outcome.first_waves.append((began, first_wave or ended))
            outcome.job_ids.append(f"repeat{repeat}/campaign{index}")
            outcome.oracle_keys.append(index)
            outcome.results.append(result)
            outcome.digests.append(_hash([result_payload(result),
                                          fleet_payload(fleet)]))
            if repeat == 0:
                outcome.admitted += result.admitted
    outcome.total = [outcome.setup] + outcome.passes[0]
    return outcome


def rollout_oracle(inputs: RolloutInputs) -> Dict[object, str]:
    """Sequential admission without a shared cache: digest per campaign."""
    fleet = vehicle_module.generate_fleet(inputs.spec)
    digests: Dict[object, str] = {}
    for index, campaign_inputs in enumerate(inputs.campaigns):
        campaign = Campaign(inputs.rollout_order(fleet),
                            _update_factory(campaign_inputs),
                            policy=campaign_inputs.policy,
                            batch_admission=False,
                            failure_injection_rate=campaign_inputs.failure_injection_rate,
                            feedback_seed=campaign_inputs.feedback_seed)
        result = campaign.run()
        digests[index] = _hash([result_payload(result),
                                fleet_payload(fleet)])
    return digests


# -- service-mix ---------------------------------------------------------------


@dataclass(frozen=True)
class ServiceInputs:
    """Per tenant, the ordered job submissions of its closed loop."""

    tenants: Tuple[Tuple[SubmitCampaign, ...], ...]
    seed: int
    slots: int = 2

    def operations(self) -> int:
        return sum(len(jobs) for jobs in self.tenants)

    def instance(self, index: int) -> "ServiceInputs":
        """Inputs of a run's instance ``index``: the same jobs, new orders.

        Instance 0 keeps the tenants' orders; every later instance
        reshuffles each tenant's jobs, so a run's latency tail comes from
        several orders rather than from one order repeated.
        """
        if index == 0:
            return self
        rng = random.Random(f"{self.seed}/{index}")
        tenants = []
        for jobs in self.tenants:
            jobs = list(jobs)
            rng.shuffle(jobs)
            tenants.append(tuple(jobs))
        return dataclasses.replace(self, tenants=tuple(tenants))

    def distinct(self) -> List[SubmitCampaign]:
        seen: Dict[SubmitCampaign, None] = {}
        for jobs in self.tenants:
            for job in jobs:
                seen.setdefault(_oracle_key(job), None)
        return list(seen)


def _oracle_key(job: SubmitCampaign) -> SubmitCampaign:
    # The tenant name does not reach the campaign; jobs equal up to it
    # share one oracle run.
    return dataclasses.replace(job, tenant="oracle")


def service_mix_inputs(seed: int, scale: float = 1.0) -> ServiceInputs:
    """3 tenants x 20 jobs over 4 fleet seeds; every tenth job is 64 vehicles.

    The mix is fixed -- each tenant runs 18 small and 2 large jobs, and the
    three tenants' large jobs cover all 4 fleet seeds -- and so are the
    fleet seeds (``SERVICE_FLEET_SEEDS``): with 16 variants in all, the work
    differs by tens of percent from one draw of fleet seeds to the next.
    ``seed`` shuffles each tenant's job order, and again for every instance
    after the first (``instance``): a run's latency tail then comes from
    several orders, and 20 jobs per tenant let 3 or more fit in a run even
    on a slow host.
    Jobs tolerate every field failure (``max_failure_rate=1.0``): a halt
    would repeat in a quarter of all jobs, decided by a couple of feedback
    draws.
    """
    rng = random.Random(seed)
    jobs_per_tenant = max(2, round(20 * scale))
    tenants = []
    for tenant in range(3):
        jobs = [SubmitCampaign(tenant=f"tenant-{tenant}",
                               fleet_size=64 if index % 10 == 0 else 16,
                               seed=SERVICE_FLEET_SEEDS[(index + index // 10 + tenant) % 4],
                               num_variants=4, extra_components=6,
                               failure_injection_rate=0.1,
                               max_failure_rate=1.0)
                for index in range(jobs_per_tenant)]
        rng.shuffle(jobs)
        tenants.append(tuple(jobs))
    return ServiceInputs(tenants=tuple(tenants), seed=seed)


def service_setup(inputs: ServiceInputs,
                  clock: Callable[[], float] = time.perf_counter) -> Interval:
    """Building every distinct job fleet once, outside the service.

    This is the provisioning the service repeats inline per job
    (``generate_fleet`` with a fresh per-job analysis cache).
    """
    start = clock()
    for job in inputs.distinct():
        vehicle_module.generate_fleet(_job_spec(job),
                                      analysis_cache=AnalysisCache())
    return start, clock()


def _job_spec(job: SubmitCampaign) -> FleetSpec:
    return FleetSpec(size=job.fleet_size, seed=job.seed,
                     heterogeneity=job.heterogeneity,
                     num_variants=job.num_variants,
                     extra_components=job.extra_components)


def run_service(inputs: ServiceInputs, store_parent: str,
                clock: Callable[[], float] = time.perf_counter) -> Outcome:
    """Closed-loop tenants against one shared-store service.

    Every tenant submits its next job as soon as the previous one parks
    or terminates (zero think time).  The shared store lives in a fresh
    directory under ``store_parent`` and is deleted afterwards.
    """
    outcome = Outcome()
    os.makedirs(store_parent, exist_ok=True)
    store_dir = tempfile.mkdtemp(prefix="store-", dir=store_parent)
    try:
        asyncio.run(_drive_service(inputs, store_dir, outcome, clock))
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    return outcome


async def _drive_service(inputs: ServiceInputs, store_dir: str,
                         outcome: Outcome, clock: Callable[[], float]) -> None:
    finished: List[Tuple[int, int, str, float, float, float]] = []
    service = AdmissionService(store_dir=store_dir, slots=inputs.slots)

    async def tenant_loop(tenant: int, jobs: Sequence[SubmitCampaign]) -> None:
        for position, job in enumerate(jobs):
            submitted = clock()
            receipt = await service.submit(job)
            first_wave = None
            async for _ in service.stream(receipt.job_id):
                if first_wave is None:
                    first_wave = clock()
            await service.wait(receipt.job_id)
            done = clock()
            finished.append((tenant, position, receipt.job_id, submitted,
                             first_wave or done, done))

    start = clock()
    await service.start()
    try:
        await asyncio.gather(*(tenant_loop(tenant, jobs)
                               for tenant, jobs in enumerate(inputs.tenants)))
        last_result = clock()
    finally:
        await service.stop()
    stopped = clock()
    outcome.passes.append([(start, last_result)])
    outcome.total.append((start, stopped))
    outcome.segments.append((start, last_result))
    for tenant, position, job_id, submitted, first_wave, done in sorted(finished):
        job = inputs.tenants[tenant][position]
        status = service.status(job_id)
        digest = None
        if status.state in (JobState.COMPLETED, JobState.HALTED):
            result = service.result(job_id)
            outcome.admitted += result.admitted
            outcome.results.append(result)
            digest = _hash(result_payload(result))
        outcome.digests.append(digest)
        outcome.oracle_keys.append(_oracle_key(job))
        outcome.jobs.append((submitted, done))
        outcome.first_waves.append((submitted, first_wave))
        outcome.job_ids.append(job_id)


def service_oracle(inputs: ServiceInputs) -> Dict[object, str]:
    """An isolated sequential ``Campaign.run()`` per distinct submission.

    Service jobs are digested from their public :class:`CampaignResult`
    only (wave records and verdict counts): a job's fleet is service-owned.
    """
    digests: Dict[object, str] = {}
    for job in inputs.distinct():
        fleet = vehicle_module.generate_fleet(_job_spec(job))
        policy = WavePolicy(canary_size=job.canary_size,
                            wave_fractions=job.wave_fractions,
                            max_failure_rate=job.max_failure_rate,
                            rollback_on_halt=job.rollback_on_halt)
        update = CampaignInputs(component=job.component,
                                utilization=job.update_utilization,
                                failure_injection_rate=job.failure_injection_rate,
                                feedback_seed=job.seed, policy=policy)
        campaign = Campaign(fleet, _update_factory(update), policy=policy,
                            batch_admission=False,
                            failure_injection_rate=job.failure_injection_rate,
                            feedback_seed=job.seed)
        digests[job] = _hash(result_payload(campaign.run()))
    return digests
