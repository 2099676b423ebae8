"""Scenarios: fleet campaigns under hostile and degraded conditions (E14-E16).

The staged campaign of E10 rolls an update out under nominal conditions;
these three scenarios re-run it through the adversity layer
(:mod:`repro.fleet.adversity`), one seam each:

* **E14 ``intrusion_campaign``** — a fraction of the fleet is compromised
  and injects false deviation reports between waves (over-reporting to force
  a halt, or under-reporting to hide failures).  Reports are graded by the
  IDS; with the countermeasure on, suspected senders' reports are discounted
  from the halt decision and the rollout survives the forged evidence.
* **E15 ``lossy_ota_campaign``** — the OTA network drops deliveries; waves
  carry their undelivered vehicles forward, extra straggler waves mop up,
  and vehicles whose retry budget is spent are abandoned.
* **E16 ``thermal_campaign``** — a heat wave throttles the fleet's
  processors mid-campaign; the DVFS-inflated WCETs flip admission verdicts
  in hot waves and recover with the temperature.

Each scenario is a pure function of its parameters (fresh seeded adversity
state per run) and remains byte-identical between batched and sequential
admission — the adversity hooks run in wave order from seeded streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.cache import AnalysisCache
from repro.contracts.model import Contract
from repro.fleet.adversity import (AdversityModel, IntrusionAdversity,
                                   LossyDeliveryAdversity, ThermalAdversity)
from repro.fleet.campaign import Campaign, CampaignResult, WavePolicy
from repro.fleet.vehicle import FleetSpec, FleetVehicle, generate_fleet
from repro.mcc.configuration import ChangeKind, ChangeRequest
from repro.scenarios.fleet_campaign import build_update_contract


def _run_adverse_campaign(adversity: AdversityModel, fleet_size: int,
                          seed: int, heterogeneity: float, num_variants: int,
                          extra_components: int, update_utilization: float,
                          canary_size: int, wave_fractions: tuple,
                          max_failure_rate: float,
                          failure_injection_rate: float) -> CampaignResult:
    """One staged campaign with an adversity model plugged into the loop."""
    spec = FleetSpec(size=fleet_size, seed=seed, heterogeneity=heterogeneity,
                     num_variants=num_variants,
                     extra_components=extra_components)
    cache = AnalysisCache()
    vehicles = generate_fleet(spec, analysis_cache=cache)

    update_contracts: Dict[int, Contract] = {}

    def update_factory(vehicle: FleetVehicle) -> ChangeRequest:
        variant = vehicle.variant.index
        contract = update_contracts.get(variant)
        if contract is None:
            contract = build_update_contract(vehicle.wcet_factor,
                                             utilization=update_utilization)
            update_contracts[variant] = contract
        return ChangeRequest(kind=ChangeKind.ADD_COMPONENT,
                             component=contract.component, contract=contract)

    policy = WavePolicy(canary_size=canary_size,
                        wave_fractions=tuple(float(f) for f in wave_fractions),
                        max_failure_rate=max_failure_rate)
    campaign = Campaign(vehicles, update_factory, policy=policy,
                        analysis_cache=cache, batch_admission=True,
                        failure_injection_rate=failure_injection_rate,
                        feedback_seed=seed, adversity=adversity)
    return campaign.run()


@dataclass
class IntrusionCampaignResult:
    """Metrics of one campaign under compromised-vehicle feedback (E14)."""

    fleet_size: int
    mode: str
    discount_suspected: bool
    compromised: int
    suspected: int
    true_suspects: int
    false_suspects: int
    admitted: int
    rejected: int
    deviating: int
    discounted: int
    rolled_back: int
    halted: bool
    halted_wave: Optional[int]
    update_coverage: float
    acceptance_rate: float
    waves: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        return bool(self.waves) and not self.halted


def run_intrusion_campaign_scenario(fleet_size: int = 40, seed: int = 0,
                                    heterogeneity: float = 0.1,
                                    num_variants: int = 6,
                                    extra_components: int = 6,
                                    update_utilization: float = 0.18,
                                    compromise_rate: float = 0.25,
                                    mode: str = "over_report",
                                    reports_per_wave: int = 6,
                                    suspicion_threshold: int = 3,
                                    discount_suspected: bool = True,
                                    failure_injection_rate: float = 0.0,
                                    canary_size: int = 2,
                                    wave_fractions: tuple = (0.2, 0.5, 1.0),
                                    max_failure_rate: float = 0.2
                                    ) -> IntrusionCampaignResult:
    """Run one staged campaign with compromised vehicles in the feedback loop.

    ``compromise_rate`` of the fleet forges its monitor reports: in
    ``over_report`` mode the forged execution times exceed the tolerance
    band and are spammed ``reports_per_wave`` times per wave to trip the
    halt policy; in ``under_report`` mode they collapse towards zero to
    hide real failures — flagged only because campaign feedback is graded
    against *two-sided* tolerance bands.  The IDS rate window grades every
    deviation report; with ``discount_suspected`` the halt decision ignores
    reports from senders past the suspicion threshold.
    """
    adversity = IntrusionAdversity(compromise_rate=compromise_rate, mode=mode,
                                   reports_per_wave=reports_per_wave,
                                   suspicion_threshold=suspicion_threshold,
                                   discount_suspected=discount_suspected,
                                   seed=seed)
    outcome = _run_adverse_campaign(
        adversity, fleet_size=fleet_size, seed=seed,
        heterogeneity=heterogeneity, num_variants=num_variants,
        extra_components=extra_components,
        update_utilization=update_utilization, canary_size=canary_size,
        wave_fractions=wave_fractions, max_failure_rate=max_failure_rate,
        failure_injection_rate=failure_injection_rate)
    compromised = set(adversity.compromised_ids)
    suspected = set(adversity.ids.suspected_compromised())
    return IntrusionCampaignResult(
        fleet_size=outcome.fleet_size,
        mode=mode,
        discount_suspected=discount_suspected,
        compromised=len(compromised),
        suspected=len(suspected),
        true_suspects=len(suspected & compromised),
        false_suspects=len(suspected - compromised),
        admitted=outcome.admitted,
        rejected=outcome.rejected,
        deviating=outcome.deviating,
        discounted=outcome.discounted,
        rolled_back=outcome.rolled_back,
        halted=outcome.halted,
        halted_wave=outcome.halted_wave,
        update_coverage=outcome.update_coverage,
        acceptance_rate=outcome.acceptance_rate,
        waves=[record.to_dict() for record in outcome.waves])


@dataclass
class LossyOtaCampaignResult:
    """Metrics of one campaign over a lossy OTA network (E15)."""

    fleet_size: int
    drop_rate: float
    max_retries: int
    delivery_attempts: int
    drops: int
    undelivered_events: int
    retried: int
    abandoned: int
    straggler_waves: int
    admitted: int
    rejected: int
    deviating: int
    halted: bool
    halted_wave: Optional[int]
    update_coverage: float
    acceptance_rate: float
    waves: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        return bool(self.waves) and not self.halted


def run_lossy_ota_campaign_scenario(fleet_size: int = 40, seed: int = 0,
                                    heterogeneity: float = 0.1,
                                    num_variants: int = 6,
                                    extra_components: int = 6,
                                    update_utilization: float = 0.18,
                                    drop_rate: float = 0.3,
                                    max_retries: int = 3,
                                    failure_injection_rate: float = 0.0,
                                    canary_size: int = 2,
                                    wave_fractions: tuple = (0.2, 0.5, 1.0),
                                    max_failure_rate: float = 0.3
                                    ) -> LossyOtaCampaignResult:
    """Run one staged campaign across a lossy OTA delivery network.

    Every delivery attempt drops independently with ``drop_rate``;
    undelivered vehicles ride along with the next wave (extra ``straggler``
    waves run after the planned rollout) until delivered or until
    ``max_retries`` retries are spent, after which they are abandoned.
    The halt policy judges each wave by its *delivered* members only.
    """
    adversity = LossyDeliveryAdversity(drop_rate=drop_rate,
                                       max_retries=max_retries, seed=seed)
    outcome = _run_adverse_campaign(
        adversity, fleet_size=fleet_size, seed=seed,
        heterogeneity=heterogeneity, num_variants=num_variants,
        extra_components=extra_components,
        update_utilization=update_utilization, canary_size=canary_size,
        wave_fractions=wave_fractions, max_failure_rate=max_failure_rate,
        failure_injection_rate=failure_injection_rate)
    return LossyOtaCampaignResult(
        fleet_size=outcome.fleet_size,
        drop_rate=drop_rate,
        max_retries=max_retries,
        delivery_attempts=adversity.attempts,
        drops=adversity.drops,
        undelivered_events=outcome.undelivered,
        retried=outcome.retried,
        abandoned=outcome.abandoned,
        straggler_waves=sum(1 for record in outcome.waves
                            if record.kind == "straggler"),
        admitted=outcome.admitted,
        rejected=outcome.rejected,
        deviating=outcome.deviating,
        halted=outcome.halted,
        halted_wave=outcome.halted_wave,
        update_coverage=outcome.update_coverage,
        acceptance_rate=outcome.acceptance_rate,
        waves=[record.to_dict() for record in outcome.waves])


@dataclass
class ThermalCampaignResult:
    """Metrics of one campaign under mid-campaign thermal throttling (E16)."""

    fleet_size: int
    peak_ambient_c: float
    throttled_waves: int
    min_speed_factor: float
    hot_wave_rejections: int
    cool_wave_rejections: int
    verdicts_flipped: bool
    admitted: int
    rejected: int
    deviating: int
    halted: bool
    halted_wave: Optional[int]
    update_coverage: float
    acceptance_rate: float
    #: (wave index, ambient C, junction C, speed factor) per executed wave.
    thermal_trace: List[Tuple[int, float, float, float]] = field(
        default_factory=list)
    waves: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        return bool(self.waves) and not self.halted


def run_thermal_campaign_scenario(fleet_size: int = 40, seed: int = 0,
                                  heterogeneity: float = 0.1,
                                  num_variants: int = 6,
                                  extra_components: int = 6,
                                  update_utilization: float = 0.3,
                                  base_ambient_c: float = 35.0,
                                  peak_ambient_c: float = 90.0,
                                  peak_wave: int = 2,
                                  wave_dt_s: float = 240.0,
                                  thermal_utilization: float = 0.9,
                                  failure_injection_rate: float = 0.0,
                                  canary_size: int = 2,
                                  wave_fractions: tuple = (0.2, 0.5, 1.0),
                                  max_failure_rate: float = 1.0
                                  ) -> ThermalCampaignResult:
    """Run one staged campaign through a heat wave.

    The ambient temperature ramps to ``peak_ambient_c`` at wave
    ``peak_wave`` and falls back; the thermal model integrates
    ``wave_dt_s`` seconds per wave and the DVFS governor throttles when the
    junction temperature crosses its threshold.  Waves admitted while
    throttled see WCETs inflated by the reciprocal speed factor, so the
    same per-variant update flips from admitted to rejected and back as
    the fleet heats and cools (``max_failure_rate`` defaults to 1.0 so the
    campaign rides through the rejections instead of halting).
    """
    adversity = ThermalAdversity(base_ambient_c=base_ambient_c,
                                 peak_ambient_c=peak_ambient_c,
                                 peak_wave=peak_wave, wave_dt_s=wave_dt_s,
                                 utilization=thermal_utilization)
    outcome = _run_adverse_campaign(
        adversity, fleet_size=fleet_size, seed=seed,
        heterogeneity=heterogeneity, num_variants=num_variants,
        extra_components=extra_components,
        update_utilization=update_utilization, canary_size=canary_size,
        wave_fractions=wave_fractions, max_failure_rate=max_failure_rate,
        failure_injection_rate=failure_injection_rate)
    speed_by_wave = {wave: speed
                     for wave, _, _, speed in adversity.trace}
    hot = sum(record.rejected for record in outcome.waves
              if speed_by_wave.get(record.index, 1.0) < 1.0)
    cool = sum(record.rejected for record in outcome.waves
               if speed_by_wave.get(record.index, 1.0) >= 1.0)
    return ThermalCampaignResult(
        fleet_size=outcome.fleet_size,
        peak_ambient_c=peak_ambient_c,
        throttled_waves=sum(1 for _, _, _, speed in adversity.trace
                            if speed < 1.0),
        min_speed_factor=min((speed for _, _, _, speed in adversity.trace),
                             default=1.0),
        hot_wave_rejections=hot,
        cool_wave_rejections=cool,
        verdicts_flipped=hot > 0 and outcome.admitted > 0,
        admitted=outcome.admitted,
        rejected=outcome.rejected,
        deviating=outcome.deviating,
        halted=outcome.halted,
        halted_wave=outcome.halted_wave,
        update_coverage=outcome.update_coverage,
        acceptance_rate=outcome.acceptance_rate,
        thermal_trace=list(adversity.trace),
        waves=[record.to_dict() for record in outcome.waves])
