"""End-to-end benchmark of the whole stack, with a per-layer traced run.

Run from the repository root (no install or ``PYTHONPATH`` needed):

``python3 benchmarks/e2e/run.py --seed 0 --out results.json [--trace]``
    5 rounds interleaved across the four workloads, each workload-round
    in a fresh subprocess.  Prints ``workload metric value unit`` for
    every end-to-end metric (the median over the rounds), writes the
    rounds with their quartiles to ``--out`` and exits 1 if any check
    failed.  ``--trace`` adds one traced round per workload and prints
    its per-layer metrics too.

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One round of one workload in this process.  The last line of
    standard output is the JSON result: end-to-end metrics with
    ``--trace 0``, per-layer metrics with ``--trace 1``.

``python3 benchmarks/e2e/run.py --update-expected``
    Recompute ``expected.json``, the values every round is checked
    against (a few minutes).

Metric names, units and the round length (``run_seconds``) come from
``BENCHMARK.json``; only round mode takes another length, through
``--seconds``.  Workloads are described in ``workloads.py`` and
``README.md``, the host-speed normalisation of every end-to-end time in
``hostspeed.py``.  Scratch files go under ``.e2e-work/`` at the root,
and a traced round leaves its spans there in ``trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import stats  # noqa: E402
import workloads  # noqa: E402  (imports repro: fails without src/)

BENCHMARK_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = HERE / "expected.json"
WORK_DIR = ROOT / ".e2e-work"
ROUNDS = 5


def _metric_units(traced: bool) -> Dict[str, str]:
    spec = json.loads(BENCHMARK_PATH.read_text())
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if traced else "end_to_end"]}


def run_round(workload: str, seed: int, seconds: float,
              traced: bool) -> workloads.Round:
    """One workload-round in this process, in a scratch directory that
    is removed afterwards."""
    expected = json.loads(EXPECTED_PATH.read_text())
    work = WORK_DIR / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = workloads.WORKLOADS[workload](seed, seconds, work, expected,
                                               traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result.trace is not None:
        (WORK_DIR / f"trace-{workload}.json").write_text(json.dumps(
            {"workload": workload, "seed": seed, **result.trace}))
    return result


def round_main(args) -> int:
    traced = bool(args.trace)
    units = _metric_units(traced)
    result = run_round(args.workload, args.seed, args.seconds, traced)
    if set(result.metrics) != set(units):
        raise SystemExit(f"{args.workload}: metrics "
                         f"{sorted(set(result.metrics) ^ set(units))} "
                         f"disagree with {BENCHMARK_PATH.name}")
    for problem in result.problems:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    samples = ", ".join(f"{path} {count}"
                        for path, count in result.samples.items())
    print(f"# {args.workload} seed {args.seed}: {result.attempted} "
          f"operations, {result.failed} failed; samples: {samples}")
    for path, count in result.samples.items():
        if not traced and not stats.supported(count, workloads.TAIL):
            print(f"# warning: {path}_p{workloads.TAIL}_ms rests on {count} "
                  f"samples, fewer than {stats.MIN_BEYOND} beyond it")
    for name, unit in units.items():
        print(f"{args.workload} {name} {result.metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if result.failed == 0 else 1


def _subprocess_round(workload: str, seed: int, seconds: float,
                      traced: bool) -> Optional[dict]:
    """One round in a fresh interpreter; its JSON result, or ``None``
    if it printed none."""
    process = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(traced))],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = process.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def _host() -> Dict[str, object]:
    """What the numbers were measured on."""
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"cpus": os.cpu_count(), "cpu": model,
            "python": platform.python_version()}


def rounds_main(args) -> int:
    spec = json.loads(BENCHMARK_PATH.read_text())
    seconds = spec["run_seconds"]
    names = [workload["name"] for workload in spec["workloads"]]
    plan = [(name, False) for _ in range(ROUNDS) for name in names]
    if args.trace:
        plan += [(name, True) for name in names]
    rounds: Dict[str, List[dict]] = {name: [] for name in names}
    layers: Dict[str, dict] = {}
    totals = {name: {"attempted": 0, "failed": 0} for name in names}
    for index, (name, traced) in enumerate(plan, 1):
        result = _subprocess_round(name, args.seed, seconds, traced)
        if result is None:
            result = {"attempted": 1, "failed": 1, "metrics": {}}
        totals[name]["attempted"] += result["attempted"]
        totals[name]["failed"] += result["failed"]
        if traced:
            layers[name] = result["metrics"]
        else:
            rounds[name].append(result["metrics"])
        print(f"[{index}/{len(plan)}] {name}{' traced' if traced else ''}: "
              f"{result['failed']} of {result['attempted']} failed",
              file=sys.stderr)

    report = {"schema": "e2e-results/1", "seed": args.seed,
              "seconds": seconds, "rounds": ROUNDS, "host": _host(),
              "workloads": {}}
    failed = 0
    for name in names:
        entry = {**totals[name], "error_rate": (
            totals[name]["failed"] / totals[name]["attempted"]
            if totals[name]["attempted"] else 1.0), "metrics": {}}
        failed += totals[name]["failed"]
        for metric in spec["end_to_end"]:
            values = [each[metric["name"]]["value"] for each in rounds[name]
                      if metric["name"] in each]
            if not values:
                continue
            q1, median, q3 = stats.quartiles(values)
            entry["metrics"][metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1,
                "q3": q3, "values": values}
            print(f"{name} {metric['name']} {median:.6g} {metric['unit']}")
        if name in layers:
            entry["layers"] = layers[name]
            for metric, value in layers[name].items():
                print(f"{name} {metric} {value['value']:.6g} "
                      f"{value['unit']}")
        print(f"{name} error_rate {entry['error_rate']:.6g} "
              f"({entry['failed']} of {entry['attempted']} failed)")
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if failed == 0 else 1


def update_main() -> int:
    work = WORK_DIR / f"update-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        expected = workloads.build_expected(
            work, lambda message: print(message, file=sys.stderr))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True)
                             + "\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark with a per-layer traced run.")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="run one round of this workload in-process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="round mode: measured time (default: "
                             "BENCHMARK.json run_seconds, which rounds "
                             "mode always uses)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="per-layer traced run (rounds mode: add one "
                             "traced round per workload)")
    parser.add_argument("--out", help="rounds mode: write results here")
    parser.add_argument("--update-expected", action="store_true",
                        help="recompute expected.json and exit")
    args = parser.parse_args(argv)
    if args.update_expected:
        return update_main()
    if args.workload is not None:
        if args.seconds is None:
            args.seconds = json.loads(BENCHMARK_PATH.read_text())[
                "run_seconds"]
        return round_main(args)
    if args.seconds is not None:
        parser.error("--seconds needs --workload: rounds mode always "
                     "measures BENCHMARK.json run_seconds")
    return rounds_main(args)


if __name__ == "__main__":
    sys.exit(main())
