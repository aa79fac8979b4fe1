"""Opt-in per-stage ``cProfile`` hooks for the pipeline.

When profiling is enabled (``repro ... --profile``), every pipeline
stage opened through :func:`profile_span` runs under its own
:class:`cProfile.Profile` and attaches a top-N hot-function table to
the stage's span as a structured ``profile`` attribute::

    {"top": [{"func": "interpreter.py:315:_walk",
              "ncalls": 91342, "tottime_ms": 812.4, "cumtime_ms": 1720.9},
             ...],
     "total_calls": 1234567}

The table rides along wherever the span goes — ``repro trace --json``,
Chrome-trace ``args`` — and :func:`format_profile_tables` renders it
for the text output, so the interpreter and hwsim inner loops show up
*by name* instead of hiding inside one opaque stage duration.

``cProfile`` cannot nest, so only the outermost profiled stage on the
stack captures: inner :func:`profile_span` calls degrade to plain
spans.  With profiling disabled (the default) :func:`profile_span` *is*
:func:`repro.obs.span` — a single module-flag check, no profiler
objects, no overhead.
"""

from __future__ import annotations

import cProfile
import pstats
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from .trace import Span

__all__ = ["enable_profiling", "disable_profiling", "is_profiling",
           "profile_span", "format_profile_tables"]

#: Hot functions kept per stage when profiling is enabled.
DEFAULT_TOP_N = 10

#: ``None`` = profiling disabled (default); otherwise the top-N limit.
_top_n: Optional[int] = None

#: True while some stage's profiler is running (cProfile cannot nest).
_active: bool = False


def enable_profiling(top_n: int = DEFAULT_TOP_N) -> None:
    """Profile every subsequently opened :func:`profile_span` stage."""
    global _top_n
    _top_n = max(1, top_n)


def disable_profiling() -> None:
    """Turn stage profiling back off (and reset the nesting guard)."""
    global _top_n, _active
    _top_n = None
    _active = False


def is_profiling() -> bool:
    """True when :func:`enable_profiling` is in effect."""
    return _top_n is not None


def _hot_functions(profiler: cProfile.Profile, top_n: int) -> Dict[str, object]:
    stats = pstats.Stats(profiler)
    rows = []
    for (filename, line, func), (cc, nc, tottime, cumtime, _callers) in \
            stats.stats.items():  # type: ignore[attr-defined]
        short = filename.rsplit("/", 1)[-1]
        rows.append({
            "func": f"{short}:{line}:{func}",
            "ncalls": nc,
            "tottime_ms": round(tottime * 1e3, 3),
            "cumtime_ms": round(cumtime * 1e3, 3),
        })
    rows.sort(key=lambda row: (-row["cumtime_ms"], -row["tottime_ms"],
                               row["func"]))
    return {"top": rows[:top_n],
            "total_calls": int(getattr(stats, "total_calls", 0))}


@contextmanager
def _profiled(span_cm) -> Iterator[Span]:
    """Run *span_cm*'s block under cProfile; attach the hot table."""
    global _active
    top_n = _top_n
    _active = True
    profiler = cProfile.Profile()
    try:
        with span_cm as span:
            profiler.enable()
            try:
                yield span
            finally:
                profiler.disable()
                span.annotate(profile=_hot_functions(profiler, top_n))
    finally:
        _active = False


def profile_span(name: str, **attributes: object):
    """A pipeline-stage span that also captures a cProfile table when
    profiling is enabled.  Exactly :func:`repro.obs.span` otherwise.

    With no tracer installed there is no span to attach the table to,
    so the profiler is skipped too and the call stays free."""
    from . import current_tracer, span  # late: obs.__init__ imports us
    cm = span(name, **attributes)
    if _top_n is None or _active or current_tracer() is None:
        return cm
    return _profiled(cm)


def format_profile_tables(root: Span) -> str:
    """Render every ``profile`` attribute in a span tree as text::

        profile: pipeline.disambiguate (34 hot functions, top 10)
          cum_ms    tot_ms    ncalls  function
          1720.9     812.4     91342  interpreter.py:315:_walk
          ...
    """
    blocks: List[str] = []
    for span in root.walk():
        table = span.attributes.get("profile")
        if not isinstance(table, dict) or not table.get("top"):
            continue
        lines = [f"profile: {span.name} "
                 f"({table.get('total_calls', 0)} calls)"]
        lines.append(f"  {'cum_ms':>10}  {'tot_ms':>10}  {'ncalls':>10}  "
                     f"function")
        for row in table["top"]:
            lines.append(f"  {row['cumtime_ms']:>10.1f}  "
                         f"{row['tottime_ms']:>10.1f}  "
                         f"{row['ncalls']:>10d}  {row['func']}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
