"""GC-tracked objects and pickle bytes per view loaded from the store.

Runs the first corpus-cold batch of the end-to-end benchmark (the
``repro bench --corpus`` job triple for 50 programs, one per cost bin)
into an empty disk store, then loads every view entry of that store
back with ``pickle.load`` and reports, per view, how many objects the
loaded payload adds to the garbage collector's tracked set and how
large its file is.  The count is the difference in
``len(gc.get_objects())`` from a full collection before the load to
one after it, so neither the load's temporaries nor the tuples a
collection stops tracking count.

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
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "e2e"))

import workloads  # noqa: E402  (benchmarks/e2e, needs repro importable)
from repro.corpus.manifest import entry_source  # noqa: E402
from repro.pipeline.core import Pipeline  # noqa: E402
from repro.pipeline.store import ArtifactStore  # noqa: E402


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
        del pipe
        for path in sorted(Path(root, "view").rglob("*.pkl")):
            objects, payload = _load_counting(path)
            artifact = payload["artifact"]
            views.append({"label": artifact.label,
                          "kind": artifact.kind.value,
                          "objects": objects,
                          "bytes": path.stat().st_size})
            del payload, artifact
    return {"seed": seed, "batch": batch_index, "views": views}


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
