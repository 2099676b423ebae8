"""Differential tests for the variant-template fleet build.

:func:`~repro.fleet.vehicle.generate_fleet` integrates each variant's
baseline once and stamps the variant's other vehicles from the adopted
snapshot.  These tests pin it, vehicle for vehicle, to the per-vehicle
oracle ``per_vehicle_fleet`` in ``tests/harness.py`` (every vehicle runs
its own ``add_component`` chain), and pin that stamped siblings stay
isolated from each other once the fleet is built.
"""

from __future__ import annotations

import pytest

from repro.analysis.cache import AnalysisCache
from repro.fleet.campaign import Campaign, WavePolicy
from repro.fleet.vehicle import FleetSpec, generate_fleet
from repro.monitoring.metrics import MetricRegistry

from harness import (campaign_digest, fleet_digest, make_factory,
                     per_vehicle_fleet)
import test_compositional

# A spec whose variants 1 and 2 skip some optional apps (checked below).
SKIPPING_SPEC = FleetSpec(size=9, seed=4, num_variants=3, extra_components=10,
                          heterogeneity=0.3)


def chain_factory(deadline):
    """The distributed sense-plan chain factory of the compositional suite."""
    return test_compositional.TestFleetDistributedAdmission()._factory(deadline)


def vehicle_digest(vehicle):
    """Everything a vehicle's ``capture_state`` carries, plus its audit log
    and, with an RTE, what is actually placed on each processor.

    Mutable model objects enter by value (``repr``), so a digest taken
    before an in-place edit of a shared object still differs after it.
    """
    state = vehicle.capture_state()
    snapshot = state.snapshot
    model = snapshot.model
    configuration = snapshot.deployed_configuration
    deployed = None
    if configuration is not None:
        deployed = (configuration.version, repr(configuration.contracts),
                    sorted(configuration.mapping.items()),
                    sorted(configuration.priorities.items()),
                    repr(configuration.sessions))
    placement = None
    if vehicle.mcc.rte is not None:
        placement = [(processor.name,
                      sorted((task.name, task.priority, task.period, task.wcet)
                             for task in processor.taskset),
                      processor.memory_allocated_kib)
                     for processor in vehicle.platform.processors()]
    return (state.vehicle_id, state.updated, state.deviating, state.rolled_back,
            vehicle.variant, model.version,
            sorted(model.mapping.items()), sorted(model.priorities.items()),
            [(contract.component, repr(contract)) for contract in model.contracts()],
            deployed, repr(snapshot.expectations),
            len(vehicle.mcc.reports), vehicle.mcc.acceptance_rate(), placement)


SPECS = {
    "8x64": (FleetSpec(size=512, seed=3, num_variants=8, extra_components=4), None),
    "one-vehicle-variants": (FleetSpec(size=12, seed=5, num_variants=12,
                                       extra_components=3), None),
    "more-variants-than-vehicles": (FleetSpec(size=3, seed=1, num_variants=8,
                                              extra_components=3), None),
    "empty": (FleetSpec(size=0, seed=2), None),
    "deploy": (FleetSpec(size=12, seed=6, num_variants=3, extra_components=4,
                         deploy=True), None),
    "extra-acceptance-tests": (FleetSpec(size=6, seed=7, num_variants=2),
                               chain_factory(0.5)),
    "skipped-optional-apps": (SKIPPING_SPEC, None),
}


class TestTemplateMatchesPerVehicleOracle:
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_every_vehicle_matches_the_oracle(self, name):
        spec, factory = SPECS[name]
        stamped = generate_fleet(spec, extra_acceptance_tests=factory)
        oracle = per_vehicle_fleet(spec, extra_acceptance_tests=factory)
        assert len(stamped) == len(oracle) == spec.size
        for vehicle, reference in zip(stamped, oracle):
            assert vehicle_digest(vehicle) == vehicle_digest(reference)

    def test_shared_cache_matches_the_oracle(self):
        spec = FleetSpec(size=24, seed=8, num_variants=4, extra_components=3)
        stamped = generate_fleet(spec, analysis_cache=AnalysisCache())
        oracle = per_vehicle_fleet(spec, analysis_cache=AnalysisCache())
        assert [vehicle_digest(v) for v in stamped] == \
            [vehicle_digest(v) for v in oracle]

    def test_skipping_spec_really_skips_optional_apps(self):
        fleet = generate_fleet(SKIPPING_SPEC)
        skipping = {vehicle.variant.index for vehicle in fleet
                    if vehicle.mcc.rejected_reports()}
        assert skipping and skipping != {0, 1, 2}
        for vehicle in fleet:
            assert vehicle.mcc.acceptance_rate() < 1.0 or \
                vehicle.variant.index not in skipping

    def test_impossible_chain_rejects_the_same_vehicle(self):
        spec = FleetSpec(size=4, num_variants=2, seed=7)
        factory = chain_factory(1e-4)
        with pytest.raises(RuntimeError) as stamped:
            generate_fleet(spec, extra_acceptance_tests=factory)
        with pytest.raises(RuntimeError) as oracle:
            per_vehicle_fleet(spec, extra_acceptance_tests=factory)
        # Request ids come from a process-wide counter, so only the vehicle
        # index and the phrase are comparable across the two builds.
        prefix = "vehicle 0 rejected its baseline: "
        assert str(stamped.value).startswith(prefix)
        assert str(oracle.value).startswith(prefix)

    # (failure rate, halt threshold): a clean rollout, one that refines
    # deviating vehicles in every wave, and one that halts after the canary
    # and rolls the admitted vehicles back.
    @pytest.mark.parametrize("failure_rate,max_failure_rate",
                             [(0.0, 0.3), (0.3, 0.4), (0.3, 0.3)])
    def test_sequential_campaign_over_stamped_fleet_matches_oracle(
            self, failure_rate, max_failure_rate):
        spec = FleetSpec(size=30, seed=9, num_variants=4, extra_components=2)
        policy = WavePolicy(canary_size=4, max_failure_rate=max_failure_rate,
                            rollback_on_halt=True, refine_on_deviation=True)
        results = []
        for build in (generate_fleet, per_vehicle_fleet):
            fleet = build(spec)
            campaign = Campaign(fleet, make_factory(), policy=policy,
                                batch_admission=False,
                                failure_injection_rate=failure_rate,
                                feedback_seed=9)
            results.append((campaign_digest(campaign.run()),
                            fleet_digest(fleet),
                            [vehicle_digest(vehicle) for vehicle in fleet]))
        assert results[0] == results[1]


class TestStampedSiblingIsolation:
    def test_update_refine_and_rollback_leave_siblings_alone(self):
        spec = FleetSpec(size=6, seed=3, num_variants=2, extra_components=3,
                         deploy=True)
        fleet = generate_fleet(spec)
        target = fleet[2]
        siblings = [vehicle for vehicle in fleet
                    if vehicle.variant == target.variant and vehicle is not target]
        assert siblings
        before = [vehicle_digest(vehicle) for vehicle in siblings]
        baseline = target.mcc.snapshot()

        # Refine the target's expectations from drifted-but-safe feedback.
        registry = MetricRegistry()
        detector = target.mcc.configure_deviation_detector(registry)
        source = baseline.expectations[0].source
        drifted = baseline.expectations[0].nominal * 1.08
        for step in range(30):
            registry.sample(float(step), source, "execution_time", drifted)
        assert detector.apply_refinements(detector.refinement_suggestions()) >= 1

        # Update the target's model, then roll it back.
        reports = target.mcc.incorporate_observed_wcets({source: drifted * 2.0})
        assert reports and reports[0].accepted
        assert target.mcc.version > baseline.model.version
        assert [vehicle_digest(vehicle) for vehicle in siblings] == before
        target.mcc.rollback(baseline)
        assert target.mcc.model is baseline.model
        assert [vehicle_digest(vehicle) for vehicle in siblings] == before


class TestRefinementDoesNotAliasSnapshots:
    def test_applying_a_refinement_leaves_the_snapshot_intact(self):
        """A detector built by the MCC holds the MCC's own expectation
        objects; refining them must not rewrite an earlier snapshot."""
        fleet = generate_fleet(FleetSpec(size=1, seed=0, extra_components=2))
        mcc = fleet[0].mcc
        snapshot = mcc.snapshot()
        expectation = snapshot.expectations[0]
        nominal = expectation.nominal
        registry = MetricRegistry()
        detector = mcc.configure_deviation_detector(registry)
        for step in range(30):
            registry.sample(float(step), expectation.source, expectation.metric,
                            nominal * 1.08)
        assert detector.apply_refinements(detector.refinement_suggestions()) >= 1
        refined = detector.expectation(expectation.source, expectation.metric)
        assert refined.nominal == pytest.approx(nominal * 1.08)
        assert snapshot.expectations[0].nominal == nominal
        assert mcc.expectations[0].nominal == nominal
        mcc.rollback(snapshot)
        assert mcc.expectations[0].nominal == nominal
