"""Campaign observability: structured tracing, metrics folding, dashboards.

The paper's self-aware architecture rests on aggregating "metrics from
different layers ... to a consistent self-representation of the system"
(Section V).  The campaign engine spans many layers by now — the staged
wave loop, the adversity seams, the shared analysis cache and its on-disk
segment store — and each emits its own flat counters.  This package is the
read side that folds them back together:

* :mod:`repro.observability.tracer` — :class:`CampaignTracer`, a
  zero-overhead-when-disabled structured event sink (JSONL spans with
  monotonic timestamps and wave/vehicle context) that the campaign engine,
  the adversity seams and the analysis cache all report into.
* :mod:`repro.observability.metrics_bridge` — folds tracer events and the
  result's wave records into the seed's
  :class:`~repro.monitoring.metrics.MetricRegistry`, so campaign-level
  observability aggregates through the exact self-representation substrate
  the paper describes for the vehicle.
* :mod:`repro.observability.dashboard` — a dependency-free static HTML
  fleet dashboard (``python -m repro.experiments report``) rendered from
  campaign records, tracer files and the committed ``BENCH_*.json`` perf
  records.
"""

from repro.observability.tracer import (WALL_CLOCK_FIELDS, CampaignTracer,
                                        TraceError, load_trace)
from repro.observability.metrics_bridge import (campaign_metric_registry,
                                                service_metric_registry,
                                                wave_latencies)
from repro.observability.dashboard import (flatten_result_documents,
                                           render_dashboard)

__all__ = [
    "CampaignTracer",
    "TraceError",
    "WALL_CLOCK_FIELDS",
    "campaign_metric_registry",
    "flatten_result_documents",
    "load_trace",
    "render_dashboard",
    "service_metric_registry",
    "wave_latencies",
]
