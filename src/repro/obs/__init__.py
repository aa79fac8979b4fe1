"""Pipeline observability: hierarchical tracing and metrics (``repro.obs``).

The paper's platform is itself an instrumented toolchain — its
functional simulator profiles path probabilities and alias counts to
drive the Gain() heuristic.  This package gives our reproduction the
same property one level up: every stage of the pipeline (frontend
phases, grafting, dependence-graph construction, each disambiguator
and its passes, the list scheduler, the simulator) reports *where wall-time and work
go* through one shared module-level API:

    from repro import obs

    with obs.tracing() as tracer:
        program = compile_source(src)          # spans appear automatically
        ...
    print(obs.format_span_tree(tracer.finish()))
    print(tracer.metrics.snapshot())

Design contract — **near-zero overhead and no behaviour change when
disabled**: each instrumentation point is a plain function call that
checks one module-level variable and returns immediately (``span``
returns a shared no-op singleton, ``incr``/``annotate`` return
``None``).  No tracer is installed by default; nothing in the pipeline
ever enables tracing on its own.

The API is intentionally tiny:

=================  =====================================================
``tracing()``      context manager installing a fresh :class:`Tracer`
``enable()``       install (and return) a tracer without a ``with``
``disable()``      uninstall the current tracer, returning its root span
``is_enabled()``   is a tracer currently installed?
``span(name)``     open a nested span on the current tracer
``incr(name, n)``  bump a counter (current span + aggregate registry)
``annotate(**kw)`` attach attributes to the current span
``observe(n, v)``  record a sample into a histogram summary
=================  =====================================================

While a tracer is installed, a ``gc.callbacks`` hook also counts the
interpreter's garbage collections (``runtime.gc.collections``) and
their summed pause time (``runtime.gc.pause_ms``) in its registry; the
hook is removed with the tracer, so untraced runs pay nothing for it.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from .metrics import HistogramSummary, MetricsRegistry
from .trace import NULL_SPAN, NullSpan, Span, Tracer, format_span_tree
from .export import to_chrome_trace, to_folded_stacks
from .profile import (disable_profiling, enable_profiling,
                      format_profile_tables, is_profiling, profile_span)

__all__ = [
    "Span", "Tracer", "NullSpan", "MetricsRegistry", "HistogramSummary",
    "format_span_tree", "tracing", "enable", "disable", "is_enabled",
    "current_tracer", "span", "incr", "annotate", "observe", "set_gauge",
    "to_chrome_trace", "to_folded_stacks",
    "enable_profiling", "disable_profiling", "is_profiling",
    "profile_span", "format_profile_tables",
]

#: The installed tracer; ``None`` means tracing is disabled (default).
_tracer: Optional[Tracer] = None

#: ``perf_counter_ns`` at the start of the collection in progress.
_gc_started = 0


def _on_gc(phase: str, info: dict) -> None:
    """``gc.callbacks`` hook: one collection and its pause, per stop."""
    global _gc_started
    if phase == "start":
        _gc_started = time.perf_counter_ns()
        return
    tracer = _tracer
    if tracer is not None and _gc_started:
        metrics = tracer.metrics
        metrics.incr("runtime.gc.collections")
        metrics.incr("runtime.gc.pause_ms",
                     (time.perf_counter_ns() - _gc_started) / 1e6)
    _gc_started = 0


def _install(tracer: Optional[Tracer]) -> None:
    """Make *tracer* the active one; hook the collector while one is."""
    global _tracer
    _tracer = tracer
    hooked = _on_gc in gc.callbacks
    if tracer is not None and not hooked:
        gc.callbacks.append(_on_gc)
    elif tracer is None and hooked:
        gc.callbacks.remove(_on_gc)


def enable(tracer: Optional[Tracer] = None) -> Tracer:
    """Install *tracer* (or a fresh one) as the active tracer."""
    active = tracer if tracer is not None else Tracer()
    _install(active)
    return active


def disable() -> Optional[Span]:
    """Uninstall the active tracer; return its finished root span."""
    tracer = _tracer
    _install(None)
    return tracer.finish() if tracer is not None else None


def is_enabled() -> bool:
    """Is a tracer currently installed?"""
    return _tracer is not None


def current_tracer() -> Optional[Tracer]:
    """The installed tracer, or ``None``."""
    return _tracer


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Install a tracer for the duration of the block, then restore the
    previously installed one (so traced regions nest safely)."""
    previous = _tracer
    active = tracer if tracer is not None else Tracer()
    _install(active)
    try:
        yield active
    finally:
        active.finish()
        _install(previous)


# -- module-level instrumentation points (the fast path) ----------------------

def span(name: str, **attributes: object):
    """A nested span on the active tracer; no-op singleton if disabled."""
    tracer = _tracer
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attributes)


def incr(name: str, amount: float = 1) -> None:
    """Bump counter *name* on the current span and aggregate registry."""
    tracer = _tracer
    if tracer is not None:
        tracer.incr(name, amount)


def annotate(**attributes: object) -> None:
    """Attach attributes to the current span (no-op when disabled)."""
    tracer = _tracer
    if tracer is not None:
        tracer.annotate(**attributes)


def observe(name: str, value: float) -> None:
    """Record *value* into histogram *name* (no-op when disabled)."""
    tracer = _tracer
    if tracer is not None:
        tracer.metrics.observe(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set gauge *name* (no-op when disabled)."""
    tracer = _tracer
    if tracer is not None:
        tracer.metrics.set_gauge(name, value)
