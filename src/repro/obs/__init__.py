"""Observability: profiling counters, span tracing, and reporting.

The paper's evaluation (SS7.7, Figs. 7-10) argues from *measured*
architectural quantities - VCPL, stall breakdowns, Send counts, cache
hit rates.  This package turns the machine model's single machine-wide
counter aggregate into an attribution story: which core, which link,
which cause.

Three layers, all opt-in with a zero-cost disabled path:

* :class:`Profiler` (``profiler.py``) - per-core / per-Vcycle /
  per-link / per-cache-op counters, attached via
  ``Machine(..., profiler=...)``;
* :class:`Tracer` (``trace.py``) - structured spans around compiler
  phases and machine run segments, installed ambiently with
  :func:`use_tracer`;
* exports and reports (``export.py``, ``report.py``) - Chrome
  ``trace_event`` JSON, flat metrics, Prometheus textfiles, and the
  ``repro profile`` terminal bottleneck report.

The load-bearing guarantee: observation never perturbs.  A profiled run
is bit-identical to an unprofiled one on every engine
(``tests/test_obs_perturbation.py``), and an unprofiled trusted run
never leaves the engine's bulk loop
(``test_unobserved_trusted_run_is_bulk_only`` there).
"""

from .export import (
    chrome_trace,
    metrics_dict,
    prometheus_textfile,
    serve_prometheus_textfile,
    validate_profile,
    validate_prometheus_textfile,
)
from .profiler import CoreCounters, Profiler, VcycleSample
from .report import (
    PROFILE_SCHEMA_VERSION,
    ProfiledRun,
    build_profile,
    profile_circuit,
    render_report,
)
from .trace import Span, Tracer, current_tracer, span, use_tracer

__all__ = [
    "CoreCounters", "PROFILE_SCHEMA_VERSION", "ProfiledRun", "Profiler",
    "Span", "Tracer", "VcycleSample", "build_profile", "chrome_trace",
    "current_tracer", "metrics_dict", "profile_circuit",
    "prometheus_textfile", "render_report", "serve_prometheus_textfile",
    "span", "use_tracer", "validate_profile",
    "validate_prometheus_textfile",
]
