"""GC-tracked objects, pickle bytes and pickle times per stored view.

Runs the first corpus-cold batch of the end-to-end benchmark (the
``repro bench --corpus`` job triple for 50 programs, one per cost bin)
into an empty disk store, then loads every view entry of that store
back with ``pickle.load`` and reports, per view, how many objects the
loaded payload adds to the garbage collector's tracked set and how
large its file is.  The count is the difference in
``len(gc.get_objects())`` from a full collection before the load to
one after it, so neither the load's temporaries nor the tuples a
collection stops tracking count.

It also times, per compiled and per view entry, the store's two pickle
calls: ``dump``, pickling the artifact the cold run built (what a
store put pays), and ``load``, unpickling its file (what a warm hit
pays); and ``decode``, unpickling the file and then reading every
tree's operations (what a stage that misses over a stored artifact
pays).  Each figure is the best of ``REPEATS`` calls, in microseconds.

The script measures whichever ``repro`` is on ``PYTHONPATH``, so the
same file compares two checkouts::

    PYTHONPATH=src python benchmarks/view_objects.py
    PYTHONPATH=/path/to/other/checkout/src python benchmarks/view_objects.py

Options: ``--seed`` picks the batch order (default 0), ``--batch`` the
batch (default 0), ``--json OUT`` also writes the per-view figures, and
``--max-mean N`` exits 1 when the mean object count over all views
exceeds N.
"""

from __future__ import annotations

import argparse
import gc
import json
import pickle
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "e2e"))

import workloads  # noqa: E402  (benchmarks/e2e, needs repro importable)
from repro.corpus.manifest import entry_source  # noqa: E402
from repro.pipeline.core import Pipeline  # noqa: E402
from repro.pipeline.fingerprint import PIPELINE_VERSION  # noqa: E402
from repro.pipeline.store import ArtifactStore  # noqa: E402

#: Calls per timed figure; the best one counts.
REPEATS = 3
#: The stages whose entries carry a program.
TIMED_STAGES = ("compiled", "view")


def _load_counting(path: Path):
    """(tracked objects the load adds, the loaded payload)."""
    gc.collect()
    before = len(gc.get_objects())
    with open(path, "rb") as handle:
        payload = pickle.load(handle)
    # a collection untracks tuples of atomic values, as the first one
    # after a real load would, and frees the load's temporaries
    gc.collect()
    return len(gc.get_objects()) - before, payload


def _best_us(call) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best * 1e6


def _decode(data: bytes) -> None:
    """Unpickle a stored entry and read every tree's operations."""
    for _, tree in pickle.loads(data)["artifact"].program.all_trees():
        tree.ops


def _pickle_times(store: ArtifactStore, path: Path, stage: str) -> dict:
    """Dump, load and decode times of one stored entry; the dump
    pickles the in-process artifact *store*'s memory tier holds."""
    artifact = store.get(stage, path.stem)
    if artifact is None:
        raise LookupError(f"{path} is not in the store's memory tier")
    payload = {"version": PIPELINE_VERSION, "artifact": artifact}
    data = path.read_bytes()
    return {"stage": stage,
            "dump_us": _best_us(lambda: pickle.dumps(
                payload, protocol=pickle.HIGHEST_PROTOCOL)),
            "load_us": _best_us(lambda: pickle.loads(data)),
            "decode_us": _best_us(lambda: _decode(data))}


def measure(seed: int, batch_index: int) -> dict:
    expected = json.loads((HERE / "e2e" / "expected.json").read_text())
    batch = workloads.corpus_batches(expected["corpus_by_cost"], seed,
                                     50)[batch_index]
    manifest = workloads._manifest()
    entries = {entry["id"]: entry for entry in manifest["entries"]}
    views = []
    with tempfile.TemporaryDirectory() as root:
        pipe = Pipeline(store=ArtifactStore(root))
        for label in batch:
            for call in workloads._corpus_flow(
                    pipe, label, entry_source(manifest, entries[label])):
                call()
        timings = [_pickle_times(pipe.store, path, stage)
                   for stage in TIMED_STAGES
                   for path in sorted(Path(root, stage).rglob("*.pkl"))]
        del pipe
        for path in sorted(Path(root, "view").rglob("*.pkl")):
            objects, payload = _load_counting(path)
            artifact = payload["artifact"]
            views.append({"label": artifact.label,
                          "kind": artifact.kind.value,
                          "objects": objects,
                          "bytes": path.stat().st_size})
            del payload, artifact
    return {"seed": seed, "batch": batch_index, "views": views,
            "pickle_times": timings}


def _summary(views: list) -> str:
    objects = [view["objects"] for view in views]
    kib = [view["bytes"] / 1024 for view in views]
    return (f"{len(views):3d} views  objects mean {statistics.mean(objects):7.0f}"
            f"  median {statistics.median(objects):6.0f}  max {max(objects):6d}"
            f"   KiB mean {statistics.mean(kib):5.1f}  max {max(kib):6.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0],
                                     allow_abbrev=False)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--batch", type=int, default=0)
    parser.add_argument("--json", metavar="OUT")
    parser.add_argument("--max-mean", type=float, metavar="N",
                        help="fail if the mean objects per view exceed N")
    args = parser.parse_args(argv)
    result = measure(args.seed, args.batch)
    views = result["views"]
    print(f"corpus-cold seed {args.seed}, batch {args.batch}")
    for kind in ("spec", "naive"):
        print(f"  {kind:5}  {_summary([v for v in views if v['kind'] == kind])}")
    print(f"  all    {_summary(views)}")
    for stage in TIMED_STAGES:
        rows = [row for row in result["pickle_times"]
                if row["stage"] == stage]
        means = "  ".join(
            f"{name} {statistics.mean(r[name + '_us'] for r in rows):6.0f}"
            for name in ("dump", "load", "decode"))
        print(f"  {stage:8} {len(rows):3d} entries  mean us  {means}")
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=1) + "\n")
    mean = statistics.mean(view["objects"] for view in views)
    if args.max_mean is not None and mean > args.max_mean:
        print(f"mean objects per view {mean:.0f} exceeds --max-mean "
              f"{args.max_mean:g}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
