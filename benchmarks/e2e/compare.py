"""Compare benchmark results, one verdict per metric and workload.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py A.json B.json
    python3 benchmarks/e2e/compare.py --parent A1.json A2.json --change B1.json B2.json
    python3 benchmarks/e2e/compare.py baseline.json

A is the parent and B the change; each file is a results file written
by ``run.py --out``.  With ``--parent``/``--change`` the rounds of a
side's files are pooled in the order given, and round *i* of the parent
is paired with round *i* of the change: run the two sides alternately,
so that paired rounds ran close together.  A baseline file
(``{"runs": [...]}``) given as one side stands for its first run, and
given alone its first two runs are compared.  Every file must have been
measured with the same round length.

For each pair of end-to-end metric and workload, with that metric's
bound from ``BENCHMARK.json``, the verdict is the first that applies:

improved
    at least ten paired rounds, B better in at least nine tenths of the
    pairs (ties count for neither), and the medians differ by more than
    the distance between A's quartiles;
unresolved
    the rounds of A or of B spread (quartile distance over median) wider
    than the bound, unless every round of B is better than every round
    of A;
worse
    B's median is worse than A's by more than the bound;
no worse
    otherwise.

Exits 1 if any pair is worse or unresolved, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

BENCHMARK_PATH = HERE.parents[1] / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def verdict(parent: Sequence[float], change: Sequence[float], bound: float,
            higher_is_better: bool) -> str:
    """The verdict for one metric on one workload (see module doc)."""
    sign = 1 if higher_is_better else -1

    def better(b: float, a: float) -> bool:
        return sign * (b - a) > 0

    q1, parent_median, q3 = stats.quartiles(parent)
    change_median = stats.quartiles(change)[1]
    pairs = list(zip(parent, change))
    wins = sum(better(b, a) for a, b in pairs)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and better(change_median, parent_median)
            and abs(change_median - parent_median) > q3 - q1):
        return "improved"
    all_better = all(better(b, a) for b in change for a in parent)
    if (max(stats.spread(parent), stats.spread(change)) > bound
            and not all_better):
        return "unresolved"
    if -sign * (change_median - parent_median) > bound * parent_median:
        return "worse"
    return "no worse"


def pool(runs: Sequence[dict]) -> dict:
    """One results file holding the rounds of all *runs*, in order."""
    pooled: Dict[str, dict] = {}
    for run in runs:
        for workload, entry in run["workloads"].items():
            metrics = pooled.setdefault(workload, {"metrics": {}})["metrics"]
            for name, metric in entry["metrics"].items():
                metrics.setdefault(name, {"values": []})["values"].extend(
                    metric["values"])
    return {"workloads": pooled}


def compare(parent: dict, change: dict,
            spec: dict) -> List[Tuple[str, str, float, float, str]]:
    """(workload, metric, parent median, change median, verdict) for
    every metric both runs report on a workload."""
    rows = []
    for workload, entry in parent["workloads"].items():
        other = change["workloads"].get(workload, {}).get("metrics", {})
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in entry["metrics"] or name not in other:
                continue
            a, b = entry["metrics"][name]["values"], other[name]["values"]
            rows.append((workload, name, stats.quartiles(a)[1],
                         stats.quartiles(b)[1],
                         verdict(a, b, metric["bound"],
                                 metric["better"] == "higher")))
    return rows


def _runs(path: str) -> List[dict]:
    data = json.loads(Path(path).read_text())
    return data["runs"] if "runs" in data else [data]


def _sides(argv: Sequence[str]) -> Tuple[List[dict], List[dict]]:
    parser = argparse.ArgumentParser(
        prog="compare.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", help="A.json B.json, or one "
                        "baseline file")
    parser.add_argument("--parent", nargs="+", default=[],
                        help="results files of the parent, pooled")
    parser.add_argument("--change", nargs="+", default=[],
                        help="results files of the change, pooled")
    args = parser.parse_args(argv)
    if args.parent and args.change and not args.files:
        return ([run for path in args.parent for run in _runs(path)],
                [run for path in args.change for run in _runs(path)])
    if len(args.files) == 1 and not (args.parent or args.change):
        return _runs(args.files[0])[:1], _runs(args.files[0])[1:2]
    if len(args.files) == 2 and not (args.parent or args.change):
        return _runs(args.files[0])[:1], _runs(args.files[1])[:1]
    parser.error("give A.json B.json, --parent ... --change ..., or one "
                 "baseline file")


def main(argv: Sequence[str]) -> int:
    parent_runs, change_runs = _sides(argv)
    if not parent_runs or not change_runs:
        print("compare.py: a baseline file needs two runs", file=sys.stderr)
        return 2
    lengths = {run.get("seconds") for run in parent_runs + change_runs}
    if len(lengths) > 1:
        print(f"compare.py: the files were measured with different round "
              f"lengths ({sorted(lengths, key=str)} s)", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_PATH.read_text())
    rows = compare(pool(parent_runs), pool(change_runs), spec)
    counts: Dict[str, int] = {}
    for workload, name, a, b, result in rows:
        change_pct = 100 * (b - a) / a if a else 0.0
        print(f"{workload:12} {name:18} {a:12.6g} {b:12.6g} "
              f"{change_pct:+7.1f}%  {result}")
        counts[result] = counts.get(result, 0) + 1
    print(", ".join(f"{count} {result}"
                    for result, count in sorted(counts.items())))
    return 1 if counts.get("worse") or counts.get("unresolved") else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
