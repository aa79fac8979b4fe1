"""Disk-cache write atomicity under multi-process contention.

Every disk write in :mod:`repro.pipeline` goes through tempfile +
``os.replace`` (``ArtifactStore._disk_put``), so a reader can only ever
see a complete entry — never a torn half-write — no matter how many
processes share the cache directory.  This hammers one fingerprint from
eight processes (writers and readers interleaved) and asserts exactly
that invariant.
"""

import multiprocessing

from repro.pipeline.store import ArtifactStore

FP = "ab" + "1" * 62
ROUNDS = 40


def _hammer(root: str, worker: int, queue) -> None:
    """Alternate writes and reads of one fingerprint; report anything
    other than a complete, well-formed value."""
    try:
        store = ArtifactStore(root, max_memory_entries=1)
        evict = "evict-" + "0" * 58
        for round_index in range(ROUNDS):
            payload = {"worker": worker, "round": round_index,
                       "blob": b"x" * 4096}
            store.put("view", FP, payload)
            store.put("view", evict, "push the hammered key out of memory")
            value = store.get("view", FP)
            if value is None:
                # a concurrent os.replace is atomic: the entry may hold
                # any writer's value but must never be absent or torn
                queue.put(f"worker {worker}: read a missing entry")
                return
            if set(value) != {"worker", "round", "blob"} \
                    or len(value["blob"]) != 4096:
                queue.put(f"worker {worker}: read a torn entry {value!r}")
                return
        queue.put(None)
    except Exception as error:  # pragma: no cover - fail loudly
        queue.put(f"worker {worker}: {type(error).__name__}: {error}")


def test_eight_processes_one_fingerprint(tmp_path):
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else "spawn")
    queue = context.SimpleQueue()
    processes = [context.Process(target=_hammer,
                                 args=(str(tmp_path), worker, queue))
                 for worker in range(8)]
    for process in processes:
        process.start()
    outcomes = [queue.get() for _ in processes]
    for process in processes:
        process.join(timeout=60)
        assert process.exitcode == 0
    assert outcomes == [None] * 8, [o for o in outcomes if o]
    # afterwards the entry is a complete value from *some* writer
    final = ArtifactStore(tmp_path).get("view", FP)
    assert final is not None and len(final["blob"]) == 4096
