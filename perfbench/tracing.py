"""Per-layer spans recorded from outside the program.

:class:`Recorder` wraps the public entry points of each layer -- ``fleet``,
``mcc``, ``analysis``, ``monitoring`` and ``service`` -- for the length of a
``with recorder.installed():`` block and restores the originals afterwards.
Nothing under ``src/`` knows it is being traced.  A span is
``(name, start, end, self_s, depth, job)``; spans nest on one stack because
every wrapped call runs on the calling thread (the service steps campaigns
inline on its event loop), so a span's self time is its duration minus its
direct children's.  Spans stay in memory until :meth:`Recorder.write`.

The wrappers only observe: a traced run must produce the same verdict
digests as an untraced one, which ``run.py`` checks.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.cache import AnalysisCache
from repro.analysis.cache_store import SegmentStore
from repro.fleet import vehicle as vehicle_module
from repro.fleet.engine import CampaignEngine
from repro.mcc.acceptance import (ResourceAcceptanceTest, SafetyAcceptanceTest,
                                  SecurityAcceptanceTest, TimingAcceptanceTest)
from repro.mcc.controller import MultiChangeController
from repro.mcc.integration import IntegrationProcess
from repro.mcc.mapping import MappingEngine
from repro.monitoring.deviation import DeviationDetector
from repro.service.admission import AdmissionService

#: Spans whose ``.calls`` and ``.self_s`` are reported as per-layer metrics.
REPORTED_SPANS = (
    "fleet.build", "fleet.step",
    "mcc.request_change", "mcc.replay_change", "mcc.integrate", "mcc.mapping",
    "mcc.preview", "mcc.synthesize", "mcc.snapshot", "mcc.rollback",
    "analysis.analyse", "analysis.analyse_many",
    "analysis.store.append", "analysis.store.read_new",
    "monitoring.configure", "monitoring.observe",
)
VIEWPOINTS = ("timing", "safety", "security", "resources")

Span = Tuple[str, float, float, float, int, Optional[str]]


class Recorder:
    """Collects spans and boundary counts while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: Job label stamped on spans; set while a service claim runs.
        self.job: Optional[str] = None
        self.missing: List[str] = []
        self._paused = False
        self._stack: List[List[float]] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, function: Callable,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> Callable:
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            if self._paused:
                return function(*args, **kwargs)
            token = before(args) if before is not None else None
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                start, children = frame
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans.append((name, start, end, duration - children,
                              len(stack), self.job))
            if after is not None:
                after(args, result, token)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    def _targets(self) -> List[Tuple[object, str, str, Optional[Callable],
                                     Optional[Callable]]]:
        counts = self.counts

        def accepted(_args, report, _token):
            counts["mcc.request_change.accepted"] += bool(report.accepted)

        def analysis_before(args):
            cache = args[0]
            engine = cache.engine
            return (cache.hits, cache.misses,
                    engine.tasks_reused + engine.divergences_reused,
                    engine.tasks_analysed)

        def analysis_after(args, _result, token):
            cache = args[0]
            engine = cache.engine
            counts["analysis.cache.hits"] += cache.hits - token[0]
            counts["analysis.cache.misses"] += cache.misses - token[1]
            counts["analysis.engine.reused"] += (
                engine.tasks_reused + engine.divergences_reused - token[2])
            counts["analysis.engine.analysed"] += (
                engine.tasks_analysed - token[3])

        def appended(_args, entries, _token):
            counts["analysis.store.append.entries"] += entries

        def read(_args, entries, _token):
            counts["analysis.store.read_new.entries"] += len(entries)

        def claim_before(args):
            self.job = args[1].job_id

        def claim_after(_args, _result, _token):
            self.job = None

        return [
            (CampaignEngine, "__init__", "fleet.start", None, None),
            (CampaignEngine, "step", "fleet.step", None, None),
            (CampaignEngine, "finalize", "fleet.finalize", None, None),
            (MultiChangeController, "request_change", "mcc.request_change",
             None, accepted),
            (MultiChangeController, "replay_change", "mcc.replay_change",
             None, None),
            (IntegrationProcess, "integrate", "mcc.integrate", None, None),
            (MappingEngine, "map", "mcc.mapping", None, None),
            (IntegrationProcess, "preview_tasksets", "mcc.preview", None, None),
            (IntegrationProcess, "synthesize_configuration", "mcc.synthesize",
             None, None),
            (MultiChangeController, "snapshot", "mcc.snapshot", None, None),
            (MultiChangeController, "rollback", "mcc.rollback", None, None),
            (TimingAcceptanceTest, "run", "mcc.acceptance.timing", None, None),
            (SafetyAcceptanceTest, "run", "mcc.acceptance.safety", None, None),
            (SecurityAcceptanceTest, "run", "mcc.acceptance.security",
             None, None),
            (ResourceAcceptanceTest, "run", "mcc.acceptance.resources",
             None, None),
            (AnalysisCache, "analyse", "analysis.analyse",
             analysis_before, analysis_after),
            (AnalysisCache, "analyse_many", "analysis.analyse_many",
             analysis_before, analysis_after),
            (SegmentStore, "append", "analysis.store.append", None, appended),
            (SegmentStore, "read_new", "analysis.store.read_new", None, read),
            (MultiChangeController, "configure_deviation_detector",
             "monitoring.configure", None, None),
            (DeviationDetector, "observe", "monitoring.observe", None, None),
            # The service's only per-job boundary: one scheduling claim
            # (provision, park or one wave) of the job passed in.
            (AdmissionService, "_advance", "service.claim",
             claim_before, claim_after),
        ]

    @contextlib.contextmanager
    def installed(self) -> Iterator["Recorder"]:
        """Wrap every target for the block; always restore the originals."""
        restore: List[Tuple[object, str, object]] = []
        try:
            for owner, attribute, name, before, after in self._targets():
                original = owner.__dict__.get(attribute)
                if original is None:
                    self.missing.append(f"{owner.__name__}.{attribute}")
                    continue
                setattr(owner, attribute,
                        self._wrap(name, original, before, after))
                restore.append((owner, attribute, original))
            # generate_fleet is a module function imported by name into other
            # modules (the service among them): rebind every alias.
            original = vehicle_module.generate_fleet
            wrapped = self._wrap("fleet.build", original)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro") and \
                        getattr(module, "generate_fleet", None) is original:
                    setattr(module, "generate_fleet", wrapped)
                    restore.append((module, "generate_fleet", original))
            yield self
        finally:
            for owner, attribute, original in reversed(restore):
                setattr(owner, attribute, original)

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing in the block (the benchmark's own untimed work)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- reduction -----------------------------------------------------------

    def coverage(self, segments: Sequence[Tuple[float, float]]) -> float:
        """Seconds of ``segments`` covered by root spans (which never overlap)."""
        roots = [(start, end) for _, start, end, _, depth, _ in self.spans
                 if depth == 0]
        return sum(max(0.0, min(end, high) - max(start, low))
                   for low, high in segments for start, end in roots)

    def job_own_time(self, job_ids: Sequence[str],
                     windows: Sequence[Tuple[float, float]]) -> List[float]:
        """Per job, the seconds of its own ``fleet.build`` and ``fleet.step``.

        Spans carry a job label inside service claims; a rollout's spans
        are unlabelled and belong to the campaign whose window holds them.
        """
        own = {job: 0.0 for job in job_ids}
        for name, start, end, _, _, job in self.spans:
            if name not in ("fleet.build", "fleet.step"):
                continue
            if job is None:
                for candidate, (low, high) in zip(job_ids, windows):
                    if low <= start and end <= high:
                        job = candidate
                        break
            if job in own:
                own[job] += end - start
        return [own[job] for job in job_ids]

    def layer_metrics(self) -> Dict[str, float]:
        """Calls and self seconds per reported span, plus boundary ratios."""
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        for name, _, _, own, _, _ in self.spans:
            calls[name] += 1
            self_s[name] += own
        metrics: Dict[str, float] = {}
        for name in REPORTED_SPANS:
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.self_s"] = self_s[name]
        for viewpoint in VIEWPOINTS:
            metrics[f"mcc.acceptance.{viewpoint}.self_s"] = \
                self_s[f"mcc.acceptance.{viewpoint}"]
        counts = self.counts
        metrics["mcc.accept_ratio"] = _ratio(
            counts["mcc.request_change.accepted"], calls["mcc.request_change"])
        metrics["analysis.cache.hit_ratio"] = _ratio(
            counts["analysis.cache.hits"],
            counts["analysis.cache.hits"] + counts["analysis.cache.misses"])
        metrics["analysis.engine.reuse_rate"] = _ratio(
            counts["analysis.engine.reused"],
            counts["analysis.engine.reused"] + counts["analysis.engine.analysed"])
        metrics["analysis.store.append.entries"] = \
            counts["analysis.store.append.entries"]
        metrics["analysis.store.read_new.entries"] = \
            counts["analysis.store.read_new.entries"]
        return metrics

    def write(self, path: str, origin: float) -> None:
        """Write the spans as gzipped JSON lines, times relative to ``origin``.

        Each line is ``[name, start_s, end_s, self_s, depth, job]``.
        """
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for name, start, end, own, depth, job in self.spans:
                handle.write(json.dumps([name, round(start - origin, 7),
                                         round(end - origin, 7), round(own, 7),
                                         depth, job]) + "\n")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
