"""Host-speed normalisation of measured times.

On the reference host, a 2-vCPU KVM guest, each vCPU slows down by up
to 1.7 times, independently of the other, for seconds at a time.  The
slowdown is in CPU time as much as in wall time, so no clock removes
it, and a slow stretch can cover a whole round, so no statistic inside
a round removes it either.  Over ten 20 s rounds of paper-cold's fixed
inputs, raw cold-operation p50 and throughput spread by 0.5 (quartile
distance over median).

So every round also measures the host.  A *probe* is a short, fixed
piece of pure-Python work that uses no ``repro`` code, so no change to
the program moves it.  The three probes cycle: tuple-keyed dict
updates and a sort, a recursive walk over a tree of small objects, and
string building with comprehensions, the kinds of work the pipeline
does.  A :class:`Meter` runs one probe between operations, at most one
every :data:`INTERVAL_NS`, never inside a timed call.

The *slowdown* at an operation is the median, over the probes that ran
within :data:`WINDOW_NS` of it, of each probe's time over its
:data:`REFERENCE_NS`: the probe's time on a quiet core of the reference
host (the 5th percentile of 100,000 probes run during benchmark
rounds).  Each measured time is divided by the slowdown at the moment
it was measured, and each rate multiplied by it, so the end-to-end
metrics read as milliseconds (or operations per second) on a quiet core
of the reference host.  Probes take under 1% of a round.
"""

from __future__ import annotations

import bisect
import statistics
import time
from array import array
from typing import Callable, Dict, Iterable, List, Tuple

_now = time.perf_counter_ns

#: Least time between two probes of one meter.
INTERVAL_NS = 10_000_000
#: Probes within this distance of an operation give its slowdown.
WINDOW_NS = 500_000_000
#: Probes a :meth:`Meter.burst` runs (before and after each set-up).
BURST = 30
#: Slowdowns are cached per pair of buckets of this width.
_BUCKET_NS = 20_000_000


class _Leaf:
    __slots__ = ("op", "kids", "value")

    def __init__(self, op: str, kids: tuple, value: int) -> None:
        self.op, self.kids, self.value = op, kids, value


def _tree(depth: int, index: int) -> _Leaf:
    if depth == 0:
        return _Leaf("leaf", (), index)
    kids = (_tree(depth - 1, 2 * index), _tree(depth - 1, 2 * index + 1))
    return _Leaf("add" if index % 2 else "mul", kids, index)


_TREE = _tree(7, 1)


def _walk(node: _Leaf) -> int:
    if node.op == "leaf":
        return node.value
    left, right = _walk(node.kids[0]), _walk(node.kids[1])
    return left + right if node.op == "add" else left * right % 1000003


def probe_dicts() -> object:
    table: Dict[tuple, int] = {}
    for index in range(400):
        key = ("r", index % 53)
        table[key] = table.get(key, 0) + index
    return sorted(table.items(), key=lambda item: item[1])[0]


def probe_objects() -> object:
    return _walk(_TREE) + _walk(_TREE)


def probe_strings() -> object:
    names = [f"v{index}" for index in range(200)]
    sizes = {name: len(name) for name in names if name[-1] != "3"}
    return sum(sizes.values()) + len(" ".join(names).split())


PROBES: Tuple[Callable[[], object], ...] = (probe_dicts, probe_objects,
                                            probe_strings)
#: Each probe's time (ns) on a quiet core of the reference host.
REFERENCE_NS = {"probe_dicts": 91_200, "probe_objects": 56_900,
                "probe_strings": 85_800}


class Meter:
    """Probe samples, (time, slowdown) pairs, taken by one thread (or
    merged from several with :meth:`merge`)."""

    def __init__(self) -> None:
        self._at = array("q")
        self._slowdown = array("d")
        self._last = 0
        self._turn = 0
        self._cache: Dict[Tuple[int, int], float] = {}

    def _probe(self) -> None:
        probe = PROBES[self._turn % len(PROBES)]
        self._turn += 1
        start = _now()
        probe()
        end = _now()
        self._at.append(start)
        self._slowdown.append((end - start) / REFERENCE_NS[probe.__name__])
        self._last = end
        self._cache.clear()

    def tick(self) -> None:
        """Probe, unless this meter probed less than
        :data:`INTERVAL_NS` ago."""
        if _now() - self._last >= INTERVAL_NS:
            self._probe()

    def burst(self) -> None:
        """Probe :data:`BURST` times now."""
        for _ in range(BURST):
            self._probe()

    def samples(self) -> List[Tuple[int, float]]:
        return list(zip(self._at, self._slowdown))

    def merge(self, samples: Iterable[Tuple[int, float]]) -> None:
        """Add samples taken elsewhere (another thread or process; all
        read the same monotonic clock)."""
        pairs = sorted([*self.samples(), *map(tuple, samples)])
        self._at = array("q", (at for at, _ in pairs))
        self._slowdown = array("d", (slowdown for _, slowdown in pairs))
        self._cache.clear()

    def slowdown(self, start_ns: int, end_ns: int) -> float:
        """The host's slowdown over [*start_ns*, *end_ns*]; 1.0 with no
        probes at all."""
        key = (start_ns // _BUCKET_NS, end_ns // _BUCKET_NS)
        if key not in self._cache:
            low = bisect.bisect_left(self._at, start_ns - WINDOW_NS)
            high = bisect.bisect_right(self._at, end_ns + WINDOW_NS)
            near = self._slowdown[low:high] or self._slowdown
            self._cache[key] = statistics.median(near) if near else 1.0
        return self._cache[key]
