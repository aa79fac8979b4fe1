"""The ready-heap list scheduler returns the reference schedules.

:mod:`tests.sched.reference_scheduler` keeps the original quadratic
scheduler.  Every schedule here must equal it field by field: ``issue``,
``completion``, ``path_times`` and ``slots``, with the order of nodes
inside each cycle.  Checked over the paper's kernels (all four views,
both memory latencies, widths 1-8 and 16) and over the corpus smoke
slice's NAIVE and SPEC views; a Hypothesis differential over random
trees lives in ``tests/properties/test_sched_props.py``.
``benchmarks/sched_parity.py`` extends the check to the whole corpus.
"""

import pytest

from repro.bench import SUITE, get_benchmark
from repro.corpus import DEFAULT_MANIFEST_PATH, entry_source, load_manifest
from repro.disambig import Disambiguator
from repro.machine import machine
from repro.pipeline import ArtifactStore, Pipeline
from repro.sched import list_schedule

from .reference_scheduler import schedule_diff

_MANIFEST = load_manifest(DEFAULT_MANIFEST_PATH)
_SMOKE = [entry for entry in _MANIFEST["entries"] if entry["smoke"]]

KERNEL_WIDTHS = (1, 2, 3, 4, 5, 6, 7, 8, 16)
SMOKE_WIDTHS = (1, 2, 3, 4, 5, 6, 7, 8)


def assert_view_matches_reference(view, memory_latency, widths):
    for key, graph in sorted(view.graphs.items()):
        for width in widths:
            mach = machine(width, memory_latency)
            diff = schedule_diff(graph, mach, list_schedule(graph, mach))
            assert not diff, (key, width, diff)


@pytest.fixture(scope="module")
def smoke_pipeline():
    return Pipeline(store=ArtifactStore(root=None))


@pytest.mark.parametrize("memory_latency", (2, 6))
@pytest.mark.parametrize("name", SUITE)
def test_kernel_schedules_match_reference(pipeline, name, memory_latency):
    source = get_benchmark(name).source
    for kind in Disambiguator:
        view = pipeline.view(name, source, kind, memory_latency)
        assert_view_matches_reference(view, memory_latency, KERNEL_WIDTHS)


@pytest.mark.parametrize("entry", _SMOKE, ids=lambda entry: entry["id"])
def test_smoke_schedules_match_reference(smoke_pipeline, entry):
    source = entry_source(_MANIFEST, entry)
    for kind in (Disambiguator.NAIVE, Disambiguator.SPEC):
        view = smoke_pipeline.view(entry["id"], source, kind, 6)
        assert_view_matches_reference(view, 6, SMOKE_WIDTHS)
