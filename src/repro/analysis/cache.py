"""Memoization of busy-window WCRT analyses.

Acceptance-test sweeps (E9, the in-field update campaigns, the experiment
runner's grids) re-analyse the same per-processor task sets over and over:
every MCC change request re-runs the timing viewpoint on *all* processors,
but typically only one processor's task set actually changed.  The busy-window
fixpoint iteration is the dominant cost, and its result depends only on the
task-set parameters, the processor speed factor and the event models — so it
can be memoized on a key of exactly those inputs.

:class:`AnalysisCache` stores whole task-set analyses keyed on
:func:`taskset_key` (the exact parameter tuple — collision-free and cheap to
build on the hot admission path) with true LRU eviction.
``TimingAcceptanceTest`` accepts an optional cache so MCC sweeps
transparently benefit.

Cache misses are computed by an
:class:`~repro.analysis.incremental.IncrementalResponseTimeAnalysis` engine:
a miss on a task set that *almost* matches a recently analysed one (the
dominant change-campaign workload) is answered by delta re-analysis —
unchanged higher-priority tasks are reused and re-analysed fixpoints are
warm-started — instead of a from-scratch busy-window derivation.

One process-local default cache (:func:`default_cache`) is shared by the
in-field scenario and the experiment runner, so every run of a sweep
executed in the same worker process benefits from previously derived
analyses.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.cpa import EventModel, ResponseTimeResult
from repro.analysis.incremental import IncrementalResponseTimeAnalysis
from repro.platform.tasks import TaskSet


def taskset_key(taskset: TaskSet, speed_factor: float = 1.0,
                event_models: Optional[Dict[str, EventModel]] = None) -> Tuple:
    """Exact, hashable identity of everything the WCRT analysis depends on.

    Two task sets with identical (name, period, wcet, deadline, priority,
    jitter) tuples, the same speed factor and the same event-model overrides
    produce the same key regardless of insertion order.  The key is the
    parameter tuple itself — dictionary lookups compare it by value, so
    collisions are impossible and no serialization/digest cost is paid on
    the hot admission path.
    """
    overrides = event_models or {}
    parts = tuple(sorted(
        (task.name, task.period, task.wcet, task.deadline,
         task.priority, task.jitter,
         ((override.period, override.jitter) if override is not None
          else (task.period, task.jitter)))
        for task in taskset
        for override in (overrides.get(task.name),)))
    return (round(speed_factor, 12), parts)


class AnalysisCache:
    """Content-addressed store of task-set WCRT analyses.

    The cache is an LRU mapping :func:`taskset_key` -> per-task results; it
    never invalidates (keys are the analysis inputs themselves, so a changed
    task set is a different key).  A hit moves the entry to the
    most-recently-used position; when ``max_entries`` is reached the
    least-recently-used entry is evicted, so long sweeps that keep cycling
    over a working set larger than a FIFO window no longer thrash.  ``hits``/``misses``/``evictions``
    counters make cache behaviour observable for tests and benchmark tables.

    Misses are delegated to an incremental engine (shared across all
    entries), so even the *first* analysis of a mutated task set reuses the
    unchanged part of its predecessor.

    Because entries are content-addressed they are also *portable*:
    :meth:`export_entries` / :meth:`merge_entries` move them between live
    caches and through a :class:`~repro.analysis.cache_store.SegmentStore`,
    which persists them across processes and runs.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.engine = IncrementalResponseTimeAnalysis()
        self._store: "OrderedDict[Tuple, Dict[str, ResponseTimeResult]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Optional :class:`~repro.observability.tracer.CampaignTracer` this
        #: cache reports lookup/merge events into (attached by a traced
        #: campaign engine for the length of its run).  Pure observation —
        #: never consulted for any decision.
        self.tracer = None

    def __len__(self) -> int:
        return len(self._store)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop all entries (including the engine's delta history) and reset
        the counters."""
        self._store.clear()
        self.engine.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def analyse(self, taskset: TaskSet, speed_factor: float = 1.0,
                event_models: Optional[Dict[str, EventModel]] = None
                ) -> Dict[str, ResponseTimeResult]:
        """Analyse ``taskset``, reusing a memoized result when available.

        Returns the same mapping task name -> :class:`ResponseTimeResult`
        that :meth:`ResponseTimeAnalysis.analyse` produces.  Callers get a
        fresh dict per call (so adding/removing entries cannot poison later
        hits); the :class:`ResponseTimeResult` values themselves are shared
        and must be treated as read-only.
        """
        key = taskset_key(taskset, speed_factor, event_models)
        cached = self._store.get(key)
        if cached is not None:
            self.hits += 1
            self._store.move_to_end(key)
            if self.tracer is not None:
                self.tracer.emit("cache.analyse", hit=True, tasks=len(taskset))
            return dict(cached)
        self.misses += 1
        if self.tracer is not None:
            self.tracer.emit("cache.analyse", hit=False, tasks=len(taskset))
        results = self.engine.analyse(taskset, speed_factor=speed_factor,
                                      event_models=event_models)
        if len(self._store) >= self.max_entries:
            self._store.popitem(last=False)
            self.evictions += 1
        self._store[key] = results
        return dict(results)

    def analyse_many(self, tasksets: Iterable[TaskSet], speed_factor: float = 1.0,
                     event_models: Optional[Dict[str, EventModel]] = None
                     ) -> List[Dict[str, ResponseTimeResult]]:
        """Batched lookup of many task sets, in input order.

        Hits are answered from the store; all misses are forwarded to the
        incremental engine as **one**
        :meth:`~repro.analysis.incremental.IncrementalResponseTimeAnalysis.analyze_many`
        batch, so near-identical task sets within the batch (e.g.
        per-vehicle perturbations of a shared baseline) reuse and
        warm-start each other even on their first analysis.  Results are
        identical to per-task-set :meth:`analyse` calls in the same order.
        """
        ordered = list(tasksets)
        hits_before, misses_before = self.hits, self.misses
        keys = [taskset_key(taskset, speed_factor, event_models)
                for taskset in ordered]
        results: List[Optional[Dict[str, ResponseTimeResult]]] = [None] * len(ordered)
        misses: List[int] = []
        seen_missing: Dict[Tuple, int] = {}
        for position, key in enumerate(keys):
            cached = self._store.get(key)
            if cached is not None:
                self.hits += 1
                self._store.move_to_end(key)
                results[position] = dict(cached)
            elif key in seen_missing:
                # Duplicate within the batch: one engine analysis serves both.
                self.hits += 1
                misses_position = seen_missing[key]
                results[position] = misses_position  # type: ignore[assignment]
            else:
                self.misses += 1
                seen_missing[key] = position
                misses.append(position)
        if misses:
            computed = self.engine.analyze_many([ordered[i] for i in misses],
                                                speed_factor=speed_factor,
                                                event_models=event_models)
            for position, result in zip(misses, computed):
                if len(self._store) >= self.max_entries:
                    self._store.popitem(last=False)
                    self.evictions += 1
                self._store[keys[position]] = result
                results[position] = dict(result)
        # Resolve intra-batch duplicates recorded as back-references.
        for position, value in enumerate(results):
            if isinstance(value, int):
                results[position] = dict(results[value])
        if self.tracer is not None:
            self.tracer.emit("cache.analyse_many", requested=len(ordered),
                             hits=self.hits - hits_before,
                             misses=self.misses - misses_before)
        return results  # type: ignore[return-value]

    def schedulable(self, taskset: TaskSet, speed_factor: float = 1.0,
                    event_models: Optional[Dict[str, EventModel]] = None) -> bool:
        """Cached schedulability verdict for the whole task set."""
        return all(result.schedulable
                   for result in self.analyse(taskset, speed_factor, event_models).values())

    # -- cross-process / cross-run persistence -----------------------------
    #
    # Entries are content-addressed on :func:`taskset_key`, so a persisted
    # entry is valid in any process and at any later time: a key either
    # describes the exact same analysis input (same memoized result) or it
    # will simply never be looked up.  Only entries move — counters and the
    # incremental engine's delta history are execution state, not content.

    def export_entries(self, exclude: Optional[Iterable[Tuple]] = None
                       ) -> List[Tuple[Tuple, Dict[str, ResponseTimeResult]]]:
        """The stored entries as ``(taskset_key, results)`` pairs in LRU
        order (least recently used first), minus the keys in ``exclude``.

        The campaign engine uses the ``exclude`` filter to append only the
        analyses not yet in its segment store, keeping each append
        proportional to the new work instead of the whole cache.
        """
        excluded = set(exclude) if exclude is not None else ()
        return [(key, dict(results)) for key, results in self._store.items()
                if key not in excluded]

    def merge_entries(self, entries: Iterable[Tuple[Tuple, Dict[str, ResponseTimeResult]]]
                      ) -> int:
        """Absorb externally computed entries (e.g. a segment store's).

        Already-present keys keep their stored results (content-addressing
        makes both sides identical anyway) but are refreshed to
        most-recently-used; new keys are inserted subject to the LRU bound.
        Merging is not a lookup: ``hits``/``misses`` are untouched, only
        ``evictions`` can grow.  Returns the number of *new* keys inserted.
        """
        inserted = 0
        for key, results in entries:
            if key in self._store:
                self._store.move_to_end(key)
                continue
            if len(self._store) >= self.max_entries:
                self._store.popitem(last=False)
                self.evictions += 1
            self._store[key] = dict(results)
            inserted += 1
        if self.tracer is not None:
            self.tracer.emit("cache.merge", absorbed=inserted)
        return inserted


#: Lazily created process-local cache shared by sweeps that do not manage
#: their own (the in-field scenario, the experiment runner's workers).
_DEFAULT_CACHE: Optional[AnalysisCache] = None


def default_cache() -> AnalysisCache:
    """The process-local default :class:`AnalysisCache`.

    Results are content-addressed, so sharing one cache across independent
    campaigns/runs cannot change any verdict — it only removes repeated
    busy-window derivations.  Each worker of a multiprocessing sweep gets its
    own instance (module state is per process), keeping the serial/parallel
    byte-identical-records guarantee intact.
    """
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = AnalysisCache()
    return _DEFAULT_CACHE
