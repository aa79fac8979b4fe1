"""Shared infrastructure for the benchmark harness.

Each ``test_*`` module regenerates one table or figure of the paper
(printing it and writing it under ``benchmarks/output/``) and times the
regeneration with pytest-benchmark.  Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.pipeline import Pipeline

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


@pytest.fixture(scope="session", autouse=True)
def _hermetic_cache(tmp_path_factory):
    """Isolate the artifact store from the user's ``~/.cache/repro-spd``."""
    if os.environ.get("REPRO_CACHE_DIR") is not None:
        yield
        return
    cache_dir = tmp_path_factory.mktemp("repro-cache")
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    try:
        yield
    finally:
        os.environ.pop("REPRO_CACHE_DIR", None)


@pytest.fixture(scope="session")
def pipeline():
    """One shared pipeline: compilation/profiling results are reused
    across every table and figure, like the paper's platform."""
    return Pipeline()


@pytest.fixture(scope="session")
def output_dir():
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


def publish(output_dir, name: str, text: str) -> None:
    """Print a regenerated artefact and persist it."""
    print()
    print(text)
    (output_dir / f"{name}.txt").write_text(text + "\n")
