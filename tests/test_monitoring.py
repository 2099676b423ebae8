"""Tests for run-time monitoring, deviation detection and enforcement."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitoring.anomaly import Anomaly, AnomalySeverity, AnomalyType
from repro.monitoring.deviation import DeviationDetector, ExpectedBehaviour
from repro.monitoring.enforcement import AccessPolicyEnforcer, BudgetEnforcer, EnforcementAction
from repro.monitoring.metrics import MetricRegistry, MetricSeries
from repro.monitoring.monitors import (
    DeadlineMonitor,
    ExecutionTimeMonitor,
    HeartbeatMonitor,
    MonitorSuite,
    SensorQualityMonitor,
    TemperatureMonitor,
    ValueRangeMonitor,
)


class TestMetricSeries:
    def test_sampling_and_summary(self):
        series = MetricSeries("m")
        for i in range(10):
            series.sample(float(i), float(i))
        summary = series.summary()
        assert summary.count == 10
        assert summary.mean == pytest.approx(4.5)
        assert summary.minimum == 0.0 and summary.maximum == 9.0
        assert summary.std == pytest.approx(math.sqrt(8.25))  # population
        assert series.last == 9.0

    def test_window_eviction(self):
        series = MetricSeries("m", window=5)
        for i in range(10):
            series.sample(float(i), float(i))
        assert len(series) == 5
        assert series.total_samples == 10
        assert series.values() == [5.0, 6.0, 7.0, 8.0, 9.0]

    def test_non_monotonic_time_rejected(self):
        series = MetricSeries("m")
        series.sample(1.0, 0.0)
        with pytest.raises(ValueError):
            series.sample(0.5, 0.0)

    def test_empty_summary_is_nan(self):
        series = MetricSeries("m")
        for summary in (series.summary(), series.summary(since=1.0)):
            assert summary.count == 0
            assert all(math.isnan(value) for value in (
                summary.mean, summary.minimum, summary.maximum, summary.std,
                summary.last))

    def test_rate(self):
        series = MetricSeries("m")
        for i in range(10):
            series.sample(i * 0.1, 1.0)
        assert series.rate(1.0) == pytest.approx(10.0, rel=0.2)

    def test_summary_since(self):
        series = MetricSeries("m")
        for i in range(10):
            series.sample(float(i), float(i))
        assert series.summary(since=5.0).count == 5

    def test_exceeded(self):
        series = MetricSeries("m")
        series.sample(0.0, 1.0)
        assert series.exceeded(0.5)
        assert not series.exceeded(2.0)


class TestMetricRegistry:
    def test_lazy_series_creation_and_snapshot(self):
        registry = MetricRegistry()
        registry.sample(0.0, "cpu0", "temperature", 50.0)
        registry.sample(1.0, "cpu0", "temperature", 55.0)
        registry.sample(0.0, "radar", "quality", 0.9)
        assert registry.last("cpu0", "temperature") == 55.0
        assert registry.snapshot() == {"cpu0": {"temperature": 55.0}, "radar": {"quality": 0.9}}
        assert set(registry.sources()) == {"cpu0", "radar"}
        assert registry.metrics_of("cpu0") == ["temperature"]
        assert registry.get("nope", "nothing") is None


class TestMonitors:
    def test_heartbeat_monitor_detects_loss(self):
        monitor = HeartbeatMonitor("hb", "platform", timeout=1.0)
        monitor.beat(0.0, "sensor")
        assert monitor.check(0.5) == []
        anomalies = monitor.check(2.0)
        assert len(anomalies) == 1
        assert anomalies[0].anomaly_type == AnomalyType.HEARTBEAT_LOSS

    def test_heartbeat_recovery(self):
        monitor = HeartbeatMonitor("hb", "platform", timeout=1.0)
        monitor.beat(0.0, "sensor")
        monitor.check(2.0)
        monitor.beat(2.1, "sensor")
        assert monitor.check(2.5) == []

    def test_value_range_monitor(self):
        monitor = ValueRangeMonitor("vr", "platform", low=0.0, high=10.0)
        assert monitor.observe(0.0, "s", 5.0) is None
        anomaly = monitor.observe(1.0, "s", 20.0)
        assert anomaly is not None and anomaly.observed == 20.0
        with pytest.raises(ValueError):
            ValueRangeMonitor("bad", "platform", low=1.0, high=0.0)

    def test_execution_time_monitor_budget(self):
        monitor = ExecutionTimeMonitor("wcet")
        monitor.set_budget("task", 0.01)
        assert monitor.observe(0.0, "task", 0.005) is None
        anomaly = monitor.observe(1.0, "task", 0.02)
        assert anomaly.anomaly_type == AnomalyType.BUDGET_OVERRUN
        assert monitor.observe(2.0, "unknown_task", 1.0) is None

    def test_deadline_monitor(self):
        monitor = DeadlineMonitor("dl")
        monitor.set_deadline("task", 0.01)
        assert monitor.observe(0.0, "task", 0.005) is None
        anomaly = monitor.observe(1.0, "task", 0.015)
        assert anomaly.severity == AnomalySeverity.CRITICAL

    def test_temperature_monitor_thresholds(self):
        monitor = TemperatureMonitor("temp", warning_c=85.0, critical_c=100.0)
        assert monitor.observe(0.0, "cpu", 70.0) is None
        assert monitor.observe(1.0, "cpu", 90.0).severity == AnomalySeverity.WARNING
        assert monitor.observe(2.0, "cpu", 101.0).severity == AnomalySeverity.CRITICAL

    def test_sensor_quality_monitor_thresholds(self):
        monitor = SensorQualityMonitor("quality", degraded_threshold=0.7, failed_threshold=0.3)
        assert monitor.observe(0.0, "radar", 0.9) is None
        assert monitor.observe(1.0, "radar", 0.5).severity == AnomalySeverity.WARNING
        assert monitor.observe(2.0, "radar", 0.1).severity == AnomalySeverity.CRITICAL

    def test_disabled_monitor_is_silent(self):
        monitor = TemperatureMonitor("temp")
        monitor.enabled = False
        assert monitor.observe(0.0, "cpu", 200.0) is None

    def test_monitor_suite_drains_sorted(self):
        suite = MonitorSuite()
        temp = suite.add(TemperatureMonitor("temp"))
        quality = suite.add(SensorQualityMonitor("quality"))
        quality.observe(2.0, "radar", 0.1)
        temp.observe(1.0, "cpu", 101.0)
        anomalies = suite.drain()
        assert [a.time for a in anomalies] == [1.0, 2.0]
        assert suite.drain() == []

    def test_monitor_suite_duplicate_name_rejected(self):
        suite = MonitorSuite()
        suite.add(TemperatureMonitor("temp"))
        with pytest.raises(ValueError):
            suite.add(TemperatureMonitor("temp"))


class TestAnomaly:
    def test_deviation_and_escalation(self):
        anomaly = Anomaly(AnomalyType.THERMAL, "cpu", "platform",
                          AnomalySeverity.WARNING, 1.0, observed=90.0, expected=85.0)
        assert anomaly.deviation == pytest.approx(5.0)
        escalated = anomaly.escalate()
        assert escalated.severity == AnomalySeverity.CRITICAL
        assert escalated.escalate().escalate().severity == AnomalySeverity.CATASTROPHIC

    def test_ids_are_unique(self):
        a = Anomaly(AnomalyType.THERMAL, "x", "platform", AnomalySeverity.INFO, 0.0)
        b = Anomaly(AnomalyType.THERMAL, "x", "platform", AnomalySeverity.INFO, 0.0)
        assert a.anomaly_id != b.anomaly_id


class TestDeviationDetector:
    def test_detects_violation_of_expectation(self):
        registry = MetricRegistry()
        detector = DeviationDetector(registry)
        detector.expect(ExpectedBehaviour("task", "execution_time", nominal=0.01, tolerance=0.1))
        registry.sample(0.0, "task", "execution_time", 0.0105)
        assert detector.check(0.0) == []
        registry.sample(1.0, "task", "execution_time", 0.02)
        anomalies = detector.check(1.0)
        assert len(anomalies) == 1 and anomalies[0].severity == AnomalySeverity.CRITICAL

    def test_lower_is_worse_expectations(self):
        registry = MetricRegistry()
        detector = DeviationDetector(registry)
        detector.expect(ExpectedBehaviour("radar", "quality", nominal=1.0, tolerance=0.2,
                                          higher_is_worse=False))
        registry.sample(0.0, "radar", "quality", 0.9)
        assert detector.check(0.0) == []
        registry.sample(1.0, "radar", "quality", 0.5)
        assert len(detector.check(1.0)) == 1

    def test_refinement_suggestions_for_benign_drift(self):
        registry = MetricRegistry()
        detector = DeviationDetector(registry)
        detector.expect(ExpectedBehaviour("task", "execution_time", nominal=0.010, tolerance=0.2))
        for i in range(30):
            registry.sample(float(i), "task", "execution_time", 0.0108)
        suggestions = detector.refinement_suggestions(min_samples=20, drift_threshold=0.05)
        assert ("task", "execution_time") in suggestions
        assert detector.apply_refinements(suggestions) == 1
        assert detector.expectation("task", "execution_time").nominal == pytest.approx(0.0108)

    def test_no_suggestion_when_violating(self):
        registry = MetricRegistry()
        detector = DeviationDetector(registry)
        detector.expect(ExpectedBehaviour("task", "execution_time", nominal=0.010, tolerance=0.05))
        for i in range(30):
            registry.sample(float(i), "task", "execution_time", 0.02)
        assert detector.refinement_suggestions() == {}

    def test_observe_records_and_grades_one_sample(self):
        registry = MetricRegistry()
        detector = DeviationDetector(registry)
        detector.expect(ExpectedBehaviour("task", "execution_time",
                                          nominal=0.01, tolerance=0.1))
        assert detector.observe(0.0, "task", "execution_time", 0.0105) == []
        anomalies = detector.observe(1.0, "task", "execution_time", 0.05)
        assert len(anomalies) == 1
        assert anomalies[0].subject == "task"
        assert anomalies[0].observed == pytest.approx(0.05)
        # The samples landed in the registry for windowed statistics.
        assert len(registry.get("task", "execution_time")) == 2
        # observe() agrees with a full check() over the same state.
        assert [a.subject for a in detector.check(1.0)] == ["task"]

    def test_observe_without_expectation_only_records(self):
        registry = MetricRegistry()
        detector = DeviationDetector(registry)
        assert detector.observe(0.0, "unknown", "metric", 42.0) == []
        assert registry.last("unknown", "metric") == 42.0


class TestBudgetEnforcer:
    def test_budget_overrun_suspends_task(self):
        enforcer = BudgetEnforcer()
        enforcer.configure("task", budget=0.01, period=0.1)
        assert enforcer.charge(0.0, "task", 0.005) == EnforcementAction.ALLOWED
        assert enforcer.charge(0.01, "task", 0.007) == EnforcementAction.SUSPENDED
        assert enforcer.is_suspended("task", 0.05)
        assert len(enforcer.drain()) == 1

    def test_budget_replenishes_each_period(self):
        enforcer = BudgetEnforcer()
        enforcer.configure("task", budget=0.01, period=0.1)
        enforcer.charge(0.0, "task", 0.02)
        assert enforcer.is_suspended("task", 0.05)
        assert not enforcer.is_suspended("task", 0.15)
        assert enforcer.charge(0.2, "task", 0.005) == EnforcementAction.ALLOWED

    def test_unconfigured_task_unconstrained(self):
        assert BudgetEnforcer().charge(0.0, "x", 100.0) == EnforcementAction.ALLOWED

    def test_invalid_configuration(self):
        enforcer = BudgetEnforcer()
        with pytest.raises(ValueError):
            enforcer.configure("x", budget=0.2, period=0.1)
        with pytest.raises(ValueError):
            enforcer.configure("x", budget=0.0, period=0.1)

    @given(charges=st.lists(st.floats(min_value=0.0, max_value=0.004), min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_within_budget_never_suspended(self, charges):
        """Property: a task that stays within its budget per period is never
        suspended (enforcement does not interfere with well-behaved tasks)."""
        enforcer = BudgetEnforcer()
        enforcer.configure("task", budget=0.005, period=0.1)
        for index, charge in enumerate(charges):
            time = index * 0.1  # one charge per replenishment period
            action = enforcer.charge(time, "task", min(charge, 0.0049))
            assert action == EnforcementAction.ALLOWED


class TestAccessPolicyEnforcer:
    def test_whitelist_allows_and_blocks(self):
        enforcer = AccessPolicyEnforcer()
        enforcer.allow("client", "server", "svc")
        assert enforcer.check(0.0, "client", "server", "svc") == EnforcementAction.ALLOWED
        assert enforcer.check(1.0, "client", "other", "svc") == EnforcementAction.BLOCKED
        anomalies = enforcer.drain()
        assert len(anomalies) == 1
        assert anomalies[0].anomaly_type == AnomalyType.ACCESS_VIOLATION

    def test_wildcard_subject(self):
        enforcer = AccessPolicyEnforcer()
        enforcer.allow("a", "b")
        assert enforcer.check(0.0, "a", "b", "anything") == EnforcementAction.ALLOWED

    def test_revoke_all_for_component(self):
        enforcer = AccessPolicyEnforcer()
        enforcer.allow_many([("a", "b", "*"), ("b", "c", "*"), ("c", "d", "*")])
        removed = enforcer.revoke_all_for("b")
        assert removed == 2
        assert enforcer.check(0.0, "a", "b") == EnforcementAction.BLOCKED
        assert enforcer.check(0.0, "c", "d") == EnforcementAction.ALLOWED

    def test_counters(self):
        enforcer = AccessPolicyEnforcer()
        enforcer.allow("a", "b")
        enforcer.check(0.0, "a", "b")
        enforcer.check(0.0, "x", "y")
        assert enforcer.allowed_count == 1 and enforcer.blocked_count == 1
