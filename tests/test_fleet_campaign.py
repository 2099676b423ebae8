"""Fleet generation, staged campaign waves, rollback, the batched-vs-
sequential differential, segment-store warm starts, checkpoint/resume and
the E10 scenario.

The load-bearing guarantee of batched admission is *byte-identical
results*: for any fleet, any staging policy and any failure injection,
batched admission (dedupe, with or without a shared analysis cache and
segment store) must produce the same wave records and the same per-vehicle
rollout state as sequential per-vehicle admission — including campaigns
that halt mid-rollout.  A hypothesis-seeded differential harness pins that.
"""

from __future__ import annotations

import json
import os
import pickle

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.cache import AnalysisCache
from repro.analysis.cache_store import SegmentStore
from repro.experiments.registry import run_scenario
from repro.fleet.campaign import (Campaign, CampaignCheckpoint, CampaignError,
                                  WavePolicy, WaveRecord, plan_waves)
from repro.fleet.vehicle import (FleetSpec, FleetVehicle, generate_fleet,
                                 generate_variants, variant_contracts)
from repro.mcc.configuration import ChangeKind, ChangeRequest
from repro.mcc.controller import MultiChangeController
from repro.mcc.mapping import MappingEngine
from repro.scenarios.fleet_campaign import (build_update_contract,
                                            run_fleet_campaign_scenario)

from harness import campaign_digest, fleet_digest, make_factory, run_campaign


def small_spec(size: int = 8, **overrides) -> FleetSpec:
    defaults = dict(size=size, seed=7, num_variants=3, extra_components=2)
    defaults.update(overrides)
    return FleetSpec(**defaults)


def update_factory_for(contracts_by_variant=None):
    """A per-variant ADD update factory (one shared contract per variant)."""
    contracts = contracts_by_variant if contracts_by_variant is not None else {}

    def factory(vehicle: FleetVehicle) -> ChangeRequest:
        contract = contracts.get(vehicle.variant.index)
        if contract is None:
            contract = build_update_contract(vehicle.wcet_factor)
            contracts[vehicle.variant.index] = contract
        return ChangeRequest(kind=ChangeKind.ADD_COMPONENT,
                             component=contract.component, contract=contract)

    return factory


class TestFleetGeneration:
    """Deterministic heterogeneous fleets."""

    def test_fleet_is_deterministic(self):
        fleet_a = generate_fleet(small_spec())
        fleet_b = generate_fleet(small_spec())
        assert len(fleet_a) == len(fleet_b) == 8
        for a, b in zip(fleet_a, fleet_b):
            assert a.variant == b.variant
            assert a.mcc.version == b.mcc.version
            assert sorted(a.mcc.model.components()) == sorted(b.mcc.model.components())
            assert a.mcc.model.mapping == b.mcc.model.mapping

    def test_variants_cluster_vehicles(self):
        fleet = generate_fleet(small_spec(size=9, num_variants=3))
        variants = {vehicle.variant.index for vehicle in fleet}
        assert variants == {0, 1, 2}
        same = [v for v in fleet if v.variant.index == 0]
        assert len(same) == 3
        reference = sorted(same[0].mcc.model.components())
        for vehicle in same[1:]:
            assert sorted(vehicle.mcc.model.components()) == reference

    def test_heterogeneity_spreads_wcet_factors(self):
        variants = generate_variants(small_spec(size=20, num_variants=8,
                                                heterogeneity=0.3))
        factors = [variant.wcet_factor for variant in variants]
        assert max(factors) - min(factors) > 0.05
        assert all(0.7 <= factor <= 1.3 for factor in factors)

    def test_variant_contracts_respect_capacity_budget(self):
        spec = small_spec(extra_components=30)
        for variant in generate_variants(spec):
            contracts = variant_contracts(variant, spec)
            total = sum(c.timing.utilization for c in contracts if c.timing)
            assert total <= variant.num_processors * variant.capacity + 1e-9

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            FleetSpec(size=-1)
        with pytest.raises(ValueError):
            FleetSpec(heterogeneity=1.5)
        with pytest.raises(ValueError):
            FleetSpec(num_variants=0)
        with pytest.raises(ValueError):
            FleetSpec(min_processors=3, max_processors=2)


class TestWavePlanning:
    """Canary/percentage/full staging, including degenerate fleets."""

    def test_default_staging(self):
        fleet = generate_fleet(small_spec(size=20))
        waves = plan_waves(fleet, WavePolicy(canary_size=2,
                                             wave_fractions=(0.1, 0.5, 1.0)))
        kinds = [kind for kind, _ in waves]
        sizes = [len(wave) for _, wave in waves]
        assert kinds == ["canary", "wave", "wave", "full"]
        assert sizes[0] == 2
        assert sum(sizes) == 20
        assert all(size >= 1 for size in sizes)
        flattened = [vehicle.vehicle_id for _, wave in waves for vehicle in wave]
        assert flattened == [vehicle.vehicle_id for vehicle in fleet]

    def test_empty_fleet_yields_no_waves(self):
        assert plan_waves([], WavePolicy()) == []

    def test_single_vehicle_fleet(self):
        fleet = generate_fleet(small_spec(size=1))
        waves = plan_waves(fleet, WavePolicy(canary_size=2))
        assert [(kind, len(wave)) for kind, wave in waves] == [("canary", 1)]
        waves = plan_waves(fleet, WavePolicy(canary_size=0))
        assert [(kind, len(wave)) for kind, wave in waves] == [("full", 1)]

    def test_short_fraction_list_still_covers_fleet(self):
        fleet = generate_fleet(small_spec(size=12))
        waves = plan_waves(fleet, WavePolicy(canary_size=1, wave_fractions=(0.2,)))
        assert sum(len(wave) for _, wave in waves) == 12
        assert waves[-1][0] == "full"

    def test_policy_validation(self):
        with pytest.raises(CampaignError):
            WavePolicy(canary_size=-1)
        with pytest.raises(CampaignError):
            WavePolicy(wave_fractions=(0.5, 0.2))
        with pytest.raises(CampaignError):
            WavePolicy(wave_fractions=(0.0,))
        with pytest.raises(CampaignError):
            WavePolicy(max_failure_rate=1.5)

    def test_canary_at_least_fleet_size_is_the_whole_rollout(self):
        fleet = generate_fleet(small_spec(size=3))
        waves = plan_waves(fleet, WavePolicy(canary_size=5))
        assert [(kind, len(wave)) for kind, wave in waves] == [("canary", 3)]


class TestHaltSemantics:
    """The halt boundary: strict tolerance, zero tolerance, float safety.

    ``max_failure_rate`` is the highest *tolerated* wave failure rate: a
    wave exactly at the threshold passes, one vehicle beyond it halts, a
    zero threshold halts on any failure and a threshold of 1.0 never halts.
    All four corners are pinned here because the campaign's whole point is
    sound accept/reject decisions.
    """

    def test_exact_threshold_wave_is_tolerated(self):
        policy = WavePolicy(max_failure_rate=0.3)
        assert not policy.halts(failures=3, size=10)
        assert policy.halts(failures=4, size=10)

    def test_exact_threshold_survives_float_rounding(self):
        """The tolerated count ``max_failure_rate * size`` can round *below*
        the mathematically equal integer (e.g. ``(1/49) * 49 < 1``), so a
        bare ``failures > rate * size`` comparison would halt an
        exactly-at-threshold wave; the comparison slack must absorb it."""
        rate = 1 / 49
        assert rate * 49 < 1  # the trap the implementation must dodge
        assert not WavePolicy(max_failure_rate=rate).halts(failures=1, size=49)
        assert not WavePolicy(max_failure_rate=rate).halts(failures=3, size=147)
        assert WavePolicy(max_failure_rate=rate).halts(failures=2, size=49)
        assert not WavePolicy(max_failure_rate=0.3).halts(failures=3, size=10)
        assert not WavePolicy(max_failure_rate=0.2).halts(failures=1, size=5)
        assert not WavePolicy(max_failure_rate=0.1).halts(failures=10, size=100)

    def test_zero_tolerance_halts_on_any_failure(self):
        policy = WavePolicy(max_failure_rate=0.0)
        assert policy.halts(failures=1, size=1000)
        assert policy.halts(failures=1, size=1)
        assert not policy.halts(failures=0, size=1000)  # clean wave passes

    def test_full_tolerance_never_halts(self):
        policy = WavePolicy(max_failure_rate=1.0)
        assert not policy.halts(failures=10, size=10)
        assert not policy.halts(failures=1, size=1)

    def test_degenerate_sizes_never_halt(self):
        policy = WavePolicy(max_failure_rate=0.5)
        assert not policy.halts(failures=0, size=0)
        assert not policy.halts(failures=0, size=10)

    def test_empty_wave_record_failure_rate_is_zero(self):
        record = WaveRecord(index=0, kind="wave", vehicle_ids=[])
        assert record.size == 0
        assert record.failures == 0
        assert record.failure_rate == 0.0

    def test_campaign_halts_at_exact_threshold_plus_one(self):
        """End-to-end: with 100% injection a zero-tolerance canary halts at
        its very first deviating vehicle."""
        spec = small_spec()
        cache = AnalysisCache()
        fleet = generate_fleet(spec, analysis_cache=cache)
        result = Campaign(fleet, update_factory_for(), analysis_cache=cache,
                          policy=WavePolicy(canary_size=2, max_failure_rate=0.0),
                          failure_injection_rate=1.0).run()
        assert result.halted and result.halted_wave == 0
        assert result.waves[0].failures >= 1


class TestCampaign:
    """The staged rollout engine."""

    def run_campaign(self, fleet_kwargs=None, **campaign_kwargs):
        spec = small_spec(**(fleet_kwargs or {}))
        batched = campaign_kwargs.pop("batch_admission", True)
        cache = AnalysisCache() if batched else None
        fleet = generate_fleet(spec, analysis_cache=cache)
        campaign = Campaign(fleet, update_factory_for(), analysis_cache=cache,
                            batch_admission=batched, **campaign_kwargs)
        return fleet, campaign.run()

    def test_clean_rollout_updates_whole_fleet(self):
        fleet, result = self.run_campaign()
        assert result.completed and not result.halted
        assert result.admitted == result.vehicles_updated == len(fleet)
        assert result.rejected == result.deviating == result.rolled_back == 0
        assert result.update_coverage == 1.0
        assert all(vehicle.updated for vehicle in fleet)
        assert all("nav_assist" in vehicle.mcc.model for vehicle in fleet)

    def test_empty_fleet_campaign_is_neither_completed_nor_halted(self):
        """A zero-vehicle campaign plans no waves: it must not report a
        "completed" rollout (it rolled nothing out), must not divide by
        zero anywhere, and must not halt either."""
        cache = AnalysisCache()
        result = Campaign([], update_factory_for(), analysis_cache=cache).run()
        assert result.fleet_size == 0
        assert result.waves == []
        assert not result.completed
        assert not result.halted and result.halted_wave is None
        assert result.update_coverage == 0.0
        assert result.acceptance_rate == 0.0
        assert result.vehicles_updated == 0

    def test_single_vehicle_campaign(self):
        fleet, result = self.run_campaign(fleet_kwargs={"size": 1})
        assert len(result.waves) == 1
        assert result.admitted == 1

    def test_batched_and_sequential_verdicts_identical(self):
        _, batched = self.run_campaign(batch_admission=True,
                                       failure_injection_rate=0.4)
        _, sequential = self.run_campaign(batch_admission=False,
                                          failure_injection_rate=0.4)
        assert [w.to_dict() for w in batched.waves] == \
            [w.to_dict() for w in sequential.waves]
        for field in ("admitted", "rejected", "deviating", "rolled_back",
                      "halted", "halted_wave"):
            assert getattr(batched, field) == getattr(sequential, field)

    def test_all_rejected_wave_halts_without_rollback_work(self):
        """An update nobody can host: every wave member rejects, the campaign
        halts at the canary and there is nothing to roll back."""
        spec = small_spec()
        cache = AnalysisCache()
        fleet = generate_fleet(spec, analysis_cache=cache)
        oversized = {variant.index: build_update_contract(1.0, utilization=0.95)
                     for variant in {v.variant.index: v.variant for v in fleet}.values()}

        def factory(vehicle):
            contract = oversized[vehicle.variant.index]
            return ChangeRequest(kind=ChangeKind.ADD_COMPONENT,
                                 component=contract.component, contract=contract)

        result = Campaign(fleet, factory, analysis_cache=cache).run()
        assert result.halted and result.halted_wave == 0
        assert result.admitted == 0
        assert result.rolled_back == 0
        assert result.waves[0].failure_rate == 1.0
        assert not any(vehicle.updated for vehicle in fleet)

    def test_failure_injection_halts_and_rolls_back(self):
        fleet, result = self.run_campaign(failure_injection_rate=1.0)
        assert result.halted and result.halted_wave == 0
        assert result.deviating == result.waves[0].admitted
        assert result.rolled_back == result.waves[0].admitted
        assert result.vehicles_updated == 0
        canary = fleet[0]
        assert canary.rolled_back and not canary.updated
        assert "nav_assist" not in canary.mcc.model

    def test_rollback_restores_model_and_version(self):
        spec = small_spec(size=2)
        cache = AnalysisCache()
        fleet = generate_fleet(spec, analysis_cache=cache)
        before = [(v.mcc.version, sorted(v.mcc.model.components())) for v in fleet]
        Campaign(fleet, update_factory_for(), analysis_cache=cache,
                 policy=WavePolicy(canary_size=2, max_failure_rate=0.0),
                 failure_injection_rate=1.0).run()
        after = [(v.mcc.version, sorted(v.mcc.model.components())) for v in fleet]
        assert after == before

    def test_halt_without_rollback_keeps_updates(self):
        fleet, result = self.run_campaign(
            policy=WavePolicy(rollback_on_halt=False, max_failure_rate=0.0),
            failure_injection_rate=1.0)
        assert result.halted
        assert result.rolled_back == 0
        assert result.vehicles_updated == result.waves[0].admitted

    def test_refine_on_deviation_reintegrates_observed_wcets(self):
        fleet, result = self.run_campaign(
            policy=WavePolicy(refine_on_deviation=True, max_failure_rate=1.0,
                              rollback_on_halt=False),
            failure_injection_rate=1.0)
        assert result.completed
        assert result.deviating > 0
        assert result.refined > 0

    def test_cache_counters_report_campaign_traffic_only(self):
        spec = small_spec()
        cache = AnalysisCache()
        fleet = generate_fleet(spec, analysis_cache=cache)
        hits_before, misses_before = cache.hits, cache.misses
        assert hits_before + misses_before > 0  # provisioning used the cache
        result = Campaign(fleet, update_factory_for(), analysis_cache=cache).run()
        assert result.cache_hits == cache.hits - hits_before
        assert result.cache_misses == cache.misses - misses_before

    def test_engine_reuse_rate_reports_campaign_work_only(self):
        """Like the cache counters, the engine reuse rate is this run's: the
        incremental work of fleet provisioning on the same cache is not
        part of it."""
        cache = AnalysisCache()
        fleet = generate_fleet(FleetSpec(size=40, seed=3, num_variants=8,
                                         extra_components=4),
                               analysis_cache=cache)
        engine = cache.engine
        reused_before = engine.tasks_reused + engine.divergences_reused
        analysed_before = engine.tasks_analysed
        assert engine.reuse_rate > 0.0  # provisioning reused some tasks
        result = Campaign(fleet, update_factory_for(), analysis_cache=cache).run()
        reused = engine.tasks_reused + engine.divergences_reused - reused_before
        analysed = engine.tasks_analysed - analysed_before
        assert analysed > 0
        assert result.engine_reuse_rate == reused / (reused + analysed)

    def test_each_representative_is_mapped_once(self, monkeypatch):
        """Batched admission maps a wave representative once, inside its own
        integration: one ``MappingEngine.map`` per ``request_change``."""
        calls = {"map": 0, "request_change": 0}

        def counting(name, method):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)
            return wrapper

        cache = AnalysisCache()
        fleet = generate_fleet(small_spec(size=12, num_variants=12),
                               analysis_cache=cache)
        monkeypatch.setattr(MappingEngine, "map",
                            counting("map", MappingEngine.map))
        monkeypatch.setattr(
            MultiChangeController, "request_change",
            counting("request_change", MultiChangeController.request_change))
        result = Campaign(fleet, update_factory_for(), analysis_cache=cache,
                          batch_admission=True).run()
        assert result.admitted + result.rejected == len(fleet)
        assert calls["request_change"] == len(fleet)  # nothing to replay
        assert calls["map"] == calls["request_change"]

    def test_campaign_validation(self):
        with pytest.raises(CampaignError):
            Campaign([], update_factory_for(), analysis_cache=AnalysisCache(),
                     failure_injection_rate=2.0)
        with pytest.raises(TypeError, match="batch_kernel"):
            Campaign([], update_factory_for(), analysis_cache=AnalysisCache(),
                     batch_kernel=True)  # removed knob
        with pytest.raises(TypeError, match="checkpoint_path"):
            Campaign([], update_factory_for(), analysis_cache=AnalysisCache(),
                     checkpoint_path="halt.ckpt")  # removed knob


class TestSequentialDifferential:
    """Batched admission vs the sequential oracle: byte-identical results."""

    def test_mid_campaign_halt_equivalence(self):
        """A failure-injected campaign that halts mid-rollout: identical
        halted wave, identical rollback set, identical per-vehicle state."""
        policy = WavePolicy(canary_size=2, wave_fractions=(0.3, 1.0),
                            max_failure_rate=0.2)
        fleet_seq, _, sequential = run_campaign(16, 1, batched=False,
                                                failure_rate=0.5,
                                                policy=policy)
        fleet_bat, _, batched = run_campaign(16, 1, failure_rate=0.5,
                                             policy=policy)
        # The scenario must actually exercise a *mid-campaign* halt.
        assert sequential.halted and sequential.halted_wave >= 1
        assert campaign_digest(batched) == campaign_digest(sequential)
        assert fleet_digest(fleet_bat) == fleet_digest(fleet_seq)
        rollback_seq = [v.vehicle_id for v in fleet_seq if v.rolled_back]
        rollback_bat = [v.vehicle_id for v in fleet_bat if v.rolled_back]
        assert rollback_bat == rollback_seq

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=10_000),
           failure_rate=st.sampled_from([0.0, 0.3, 0.8]),
           size=st.integers(min_value=4, max_value=14))
    def test_differential_random_fleets(self, seed, failure_rate, size):
        """Hypothesis-seeded fleets: batched admission may never diverge
        from sequential admission, whatever the fleet or failure pattern."""
        policy = WavePolicy(canary_size=1, wave_fractions=(0.5, 1.0),
                            max_failure_rate=0.25)
        fleet_seq, _, sequential = run_campaign(size, seed, batched=False,
                                                failure_rate=failure_rate,
                                                policy=policy)
        fleet_bat, _, batched = run_campaign(size, seed,
                                             failure_rate=failure_rate,
                                             policy=policy)
        assert campaign_digest(batched) == campaign_digest(sequential)
        assert fleet_digest(fleet_bat) == fleet_digest(fleet_seq)

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(min_value=0, max_value=10_000),
           failure_rate=st.sampled_from([0.0, 0.4]),
           medium=st.sampled_from(["cache", "store", "no-cache"]))
    @example(seed=0, failure_rate=0.4, medium="no-cache")
    def test_differential_random_knobs(self, tmp_path, seed, failure_rate,
                                       medium):
        """Random warm-start-medium choices — a shared cache, a cache plus
        a segment store, or batched dedupe with no cache at all — may never
        change a verdict relative to sequential admission."""
        policy = WavePolicy(canary_size=1, wave_fractions=(0.5, 1.0),
                            max_failure_rate=0.25)
        fleet_seq, _, sequential = run_campaign(10, seed, batched=False,
                                                failure_rate=failure_rate,
                                                policy=policy)
        media = {"store": {"cache_store": str(tmp_path / f"store-{seed}")},
                 "no-cache": {"shared_cache": False}}.get(medium, {})
        fleet_bat, campaign, batched = run_campaign(10, seed,
                                                    failure_rate=failure_rate,
                                                    policy=policy, **media)
        assert campaign.batch_admission
        assert (campaign.analysis_cache is None) == (medium == "no-cache")
        assert campaign_digest(batched) == campaign_digest(sequential)
        assert fleet_digest(fleet_bat) == fleet_digest(fleet_seq)


class TestSegmentStoreCampaign:
    """cache_store: cross-run warm starts with unchanged verdicts."""

    def test_store_backed_run_matches_plain_run(self, tmp_path):
        fleet_plain, _, plain = run_campaign(10, 4)
        fleet_store, _, stored = run_campaign(
            10, 4, cache_store=os.path.join(tmp_path, "store"))
        assert campaign_digest(stored) == campaign_digest(plain)
        assert fleet_digest(fleet_store) == fleet_digest(fleet_plain)

    def test_rerun_warm_starts_from_store(self, tmp_path):
        store = os.path.join(tmp_path, "store")
        _, _, first = run_campaign(10, 4, cache_store=store)
        assert first.cache_misses > 0
        _, _, second = run_campaign(10, 4, cache_store=store)
        assert campaign_digest(second) == campaign_digest(first)
        assert second.cache_misses < first.cache_misses
        assert second.cache_hits > 0

    def test_run_end_publishes_every_cache_entry(self, tmp_path):
        store = os.path.join(tmp_path, "store")
        _, campaign, _ = run_campaign(6, 4, cache_store=store)
        entries = SegmentStore(store).read_entries()
        # Everything the campaign's cache holds is durable in the store.
        stored_keys = {key for key, _ in entries}
        cache_keys = {key for key, _
                      in campaign.analysis_cache.export_entries()}
        assert cache_keys <= stored_keys

    def test_store_requires_a_cache(self, tmp_path):
        fleet = []
        with pytest.raises(CampaignError, match="cache_store"):
            Campaign(fleet, make_factory(), batch_admission=False,
                     cache_store=str(tmp_path / "store"))


class TestCheckpointResume:
    """A halted campaign resumes — remediated — to the reference result."""

    POLICY_STRICT = WavePolicy(canary_size=2, wave_fractions=(0.4, 1.0),
                               max_failure_rate=0.1)
    POLICY_TOLERANT = WavePolicy(canary_size=2, wave_fractions=(0.4, 1.0),
                                 max_failure_rate=1.0)

    def _halting_setup(self, tmp_path):
        checkpoint_path = os.path.join(tmp_path, "campaign.ckpt")
        fleet, campaign, halted = run_campaign(
            18, 1, failure_rate=0.4, policy=self.POLICY_STRICT)
        assert halted.halted
        assert campaign.last_checkpoint is not None
        campaign.last_checkpoint.save(checkpoint_path)
        return fleet, halted, checkpoint_path

    def test_resume_reaches_reference_result(self, tmp_path):
        fleet, halted, checkpoint_path = self._halting_setup(tmp_path)
        _, _, reference = run_campaign(18, 1, failure_rate=0.4,
                                       policy=self.POLICY_TOLERANT)
        # Remediation: the operator raises the tolerance and resumes the
        # SAME fleet from the checkpoint (live objects, same process).
        cache = AnalysisCache()
        resumed = Campaign(fleet, make_factory(), policy=self.POLICY_TOLERANT,
                           analysis_cache=cache, failure_injection_rate=0.4,
                           feedback_seed=1).run(
            resume_from=CampaignCheckpoint.load(checkpoint_path))
        assert campaign_digest(resumed) == campaign_digest(reference)

    def test_resume_on_regenerated_fleet(self, tmp_path):
        """The checkpoint restores vehicles of a *freshly generated* fleet —
        the cross-process story (pickled MCC snapshots are portable)."""
        _, halted, checkpoint_path = self._halting_setup(tmp_path)
        _, _, reference = run_campaign(18, 1, failure_rate=0.4,
                                       policy=self.POLICY_TOLERANT)
        spec = FleetSpec(size=18, seed=1, num_variants=4, extra_components=2)
        cache = AnalysisCache()
        fresh_fleet = generate_fleet(spec, analysis_cache=cache)
        resumed = Campaign(fresh_fleet, make_factory(),
                           policy=self.POLICY_TOLERANT, analysis_cache=cache,
                           failure_injection_rate=0.4, feedback_seed=1).run(
            resume_from=CampaignCheckpoint.load(checkpoint_path))
        assert campaign_digest(resumed) == campaign_digest(reference)

    def test_checkpoint_excludes_the_halting_wave(self, tmp_path):
        _, halted, checkpoint_path = self._halting_setup(tmp_path)
        checkpoint = CampaignCheckpoint.load(checkpoint_path)
        assert checkpoint.next_wave == halted.halted_wave
        assert len(checkpoint.result.waves) == halted.halted_wave
        assert not checkpoint.result.halted
        # Halting-wave members are stored pre-wave: clean flags.
        halting_ids = set(halted.waves[-1].vehicle_ids)
        for state in checkpoint.vehicle_states:
            if state.vehicle_id in halting_ids:
                assert not (state.updated or state.deviating
                            or state.rolled_back)

    def test_resume_rejects_diverging_fleet(self, tmp_path):
        _, _, checkpoint_path = self._halting_setup(tmp_path)
        checkpoint = CampaignCheckpoint.load(checkpoint_path)
        spec = FleetSpec(size=5, seed=1, num_variants=4, extra_components=2)
        cache = AnalysisCache()
        wrong_fleet = generate_fleet(spec, analysis_cache=cache)
        with pytest.raises(CampaignError):
            Campaign(wrong_fleet, make_factory(), policy=self.POLICY_TOLERANT,
                     analysis_cache=cache).run(resume_from=checkpoint)

    def test_resume_rejects_diverging_staging(self, tmp_path):
        _, _, checkpoint_path = self._halting_setup(tmp_path)
        checkpoint = CampaignCheckpoint.load(checkpoint_path)
        spec = FleetSpec(size=18, seed=1, num_variants=4, extra_components=2)
        cache = AnalysisCache()
        fleet = generate_fleet(spec, analysis_cache=cache)
        reshaped = WavePolicy(canary_size=5, wave_fractions=(1.0,),
                              max_failure_rate=1.0)
        with pytest.raises(CampaignError):
            Campaign(fleet, make_factory(), policy=reshaped,
                     analysis_cache=cache).run(resume_from=checkpoint)

    def test_checkpoint_file_validation(self, tmp_path):
        bogus = os.path.join(tmp_path, "bogus.ckpt")
        with open(bogus, "wb") as stream:
            pickle.dump({"not": "a checkpoint"}, stream)
        with pytest.raises(CampaignError):
            CampaignCheckpoint.load(bogus)


class TestFleetScenario:
    """The registered E10 scenario."""

    def test_fleet_50_deterministic_under_fixed_seed(self):
        """Acceptance criterion: a >= 50-vehicle campaign is a pure function
        of its seed, byte-identical across runs."""
        record_a = run_scenario("fleet_update_campaign", fleet_size=50, seed=3)
        record_b = run_scenario("fleet_update_campaign", fleet_size=50, seed=3)
        assert json.dumps(record_a, sort_keys=True) == \
            json.dumps(record_b, sort_keys=True)
        assert record_a["fleet_size"] == 50
        assert record_a["admitted"] + record_a["rejected"] >= 50 \
            or record_a["halted"]

    def test_batching_mode_does_not_change_the_record(self):
        base = dict(fleet_size=12, num_variants=4, extra_components=3, seed=1,
                    failure_injection_rate=0.5)
        batched = run_scenario("fleet_update_campaign", batch_admission=True, **base)
        sequential = run_scenario("fleet_update_campaign", batch_admission=False,
                                  **base)
        for record in (batched, sequential):
            record.pop("batched")
        assert batched == sequential

    def test_scenario_runs_with_rte_deployment(self):
        result = run_fleet_campaign_scenario(fleet_size=4, num_variants=2,
                                             extra_components=2, deploy=True)
        assert result.admitted == 4

    def test_wave_fractions_knob_coerced_from_json(self):
        record = run_scenario("fleet_update_campaign", fleet_size=6,
                              num_variants=2, extra_components=2,
                              canary_size=1, wave_fractions=[0.5, 1.0])
        assert [wave["kind"] for wave in record["waves"]] == \
            ["canary", "wave", "full"]
