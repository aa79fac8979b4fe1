"""Seeded inputs: the same seed gives the same programs and requests,
another seed gives others."""

import json

import pytest

import run
import workloads

EXPECTED = json.loads(run.EXPECTED_PATH.read_text())
BY_COST = EXPECTED["corpus_by_cost"]


@pytest.fixture(scope="module")
def manifest():
    return workloads._manifest()


def test_corpus_batches_are_seeded():
    batches = workloads.corpus_batches(BY_COST, 0, 50)
    assert batches == workloads.corpus_batches(BY_COST, 0, 50)
    assert batches != workloads.corpus_batches(BY_COST, 1, 50)


def test_every_corpus_batch_takes_one_program_per_cost_bin():
    batches = workloads.corpus_batches(BY_COST, 3, 50)
    assert len(batches) == len(BY_COST) // 50
    assert sorted(label for batch in batches for label in batch) \
        == sorted(BY_COST)
    rank = {label: index for index, label in enumerate(BY_COST)}
    bin_size = len(BY_COST) // 50
    for batch in batches:
        assert sorted(rank[label] // bin_size for label in batch) \
            == list(range(50))


def test_serve_plan_is_seeded(manifest):
    plan = workloads.serve_plan(0, BY_COST, 4, manifest)
    assert plan == workloads.serve_plan(0, BY_COST, 4, manifest)
    other = workloads.serve_plan(1, BY_COST, 4, manifest)
    assert plan.misses != other.misses
    assert plan.sequences != other.sequences
    # the hit shapes are a fixed pool; the seed orders them
    assert plan.exact == other.exact


def test_serve_misses_are_distinct_cheaper_corpus_programs():
    misses = workloads.serve_misses(BY_COST, 5, 120)
    assert len(set(misses)) == 120
    assert set(misses) <= set(BY_COST[:workloads.MISS_POPULATION])


def test_relabelled_requests_are_new_and_well_formed(manifest):
    plan = workloads.serve_plan(0, BY_COST, 4, manifest)
    head, tail = plan.relabel[1][2]
    request = head + b"%09d" % 7 + tail
    header, body = request.split(b"\r\n\r\n", 1)
    assert b"Content-Length: %d\r\n" % len(body) in header + b"\r\n"
    payload = json.loads(body)
    assert payload["label"] == "e2e-1-000000007"
    exact = json.loads(plan.exact[2].split(b"\r\n\r\n", 1)[1])
    del exact["label"], payload["label"]
    assert payload == exact
