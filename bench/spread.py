"""Run every workload repeatedly in two sets and report how far each metric spreads.

    python3 bench/spread.py

Each set runs `run.py` once per seed on each workload from BENCHMARK.json,
for its run_seconds (set k uses seeds 10k .. 10k+9).  For every end-to-end
metric the report gives each set's median and quartiles, the quartile
distance as a share of the median next to the metric's bound, and how much
worse the second set's median is than the first's.  The raw results,
including each run's stderr, are written to bench/_work/spread-<time>.json.

A run that exits non-zero, prints no result, reports a failed solve or is
not correct is listed as bad, and the script then exits 1.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 180
SEEDS_PER_SET = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One untraced run.  A run that prints no JSON result line gets None in its fields."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": None, "attempted": None, "failed": None, "metrics": None}
    result["seed"] = seed
    result["exit_code"] = proc.returncode
    result["log"] = proc.stderr
    return result


def is_bad(run: dict) -> bool:
    return (run["exit_code"] != 0 or run["metrics"] is None
            or run["failed"] != 0 or run["correct"] is not True)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def summarize(results: dict, spec: dict) -> list[str]:
    lines = []
    for workload, sets in results.items():
        bad = [(k, r) for k, runs in enumerate(sets) for r in runs if is_bad(r)]
        for k, r in bad:
            lines.append(f"{workload:13s} set {k + 1} seed {r['seed']}: BAD run, exit "
                         f"{r['exit_code']}, correct {r['correct']}, failed {r['failed']}")
        if bad:
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for k, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, _, q3 = statistics.quantiles(values, n=4)
                med = statistics.median(values)
                medians.append(med)
                lines.append(
                    f"{workload:13s} {name:17s} set {k + 1}: median {med:.6g} "
                    f"q1 {q1:.6g} q3 {q3:.6g} spread {(q3 - q1) / med:.4f} "
                    f"of bound {bound} (margin {bound - (q3 - q1) / med:+.4f})")
            drift = worse_by(medians[0], medians[-1], metric["better"])
            lines.append(f"{workload:13s} {name:17s} last set worse than first by "
                         f"{drift:+.4f} of bound {bound}")
        for k, runs in enumerate(sets):
            attempted = sum(r["attempted"] for r in runs)
            lines.append(f"{workload:13s} set {k + 1}: 0/{attempted} solves failed, "
                         f"all correct")
    return lines


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]

    results = {w["name"]: [] for w in spec["workloads"]}
    for k in range(SETS):
        for workload, sets in results.items():
            runs = []
            for seed in range(k * SEEDS_PER_SET, (k + 1) * SEEDS_PER_SET):
                run = run_once(workload, seed, seconds)
                runs.append(run)
                shown = ({m: v["value"] for m, v in run["metrics"].items()}
                         if run["metrics"] else "no result")
                print(f"set {k + 1} {workload} seed {seed}: exit {run['exit_code']} "
                      f"{json.dumps(shown)}", flush=True)
            sets.append(runs)

    lines = summarize(results, spec)
    print("\n".join(lines))
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    out = os.path.join(HERE, "_work", f"spread-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"seconds": seconds, "results": results, "summary": lines}, fh, indent=1)
    print(f"raw results: {out}")
    bad = any(is_bad(r) for sets in results.values() for runs in sets for r in runs)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
