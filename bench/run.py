"""Solve benchmark: one workload's ladder through `cli.run_solve`, in-process.

    python3 bench/run.py --workload table-exact --seed 0 --seconds 30 --trace 0

One caller, closed loop: each solve starts when the previous one returned.
After one untimed warm-up solve, whole rounds over the ladder run until the
next round would end past --seconds (at least three rounds).  `solve_s` is
the sum over the ladder of each instance's median solve time, so one
descheduled solve cannot move it.  Every solve is checked against
computations made apart from the program (checks.py); a solve that raises
or fails a check counts as failed, and the run exits 1 if any did.

With --trace 1, untraced and traced rounds alternate and the per-layer
metrics of the traced rounds are reported (tracing.py) instead of the
end-to-end ones.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; a readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORK = os.path.join(HERE, "_work")

WORKLOADS = ("table-exact", "ic-exact", "sampled-wide")
MIN_ROUNDS = 3
MIN_TRACE_PAIRS = 2
SETUP_SAMPLES = 5  # this process's set-up plus four fresh processes
PROBE_TIMEOUT_S = 60

END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "expected_cascade": "users"}
PER_LAYER = {
    "instance.generate_s": "s", "instance.load_s": "s",
    "cascade.value_calls": "count", "cascade.value_s": "s",
    "cascade.gamma_ic_calls": "count", "cascade.gamma_ic_s": "s", "cascade.cache_hit": "ratio",
    "objective.marginals_calls": "count", "objective.marginals_s": "s",
    "objective.F_calls": "count", "objective.F_s": "s",
    "objective.f_calls": "count", "objective.f_s": "s",
    "polytope_lp.inner_calls": "count", "polytope_lp.inner_s": "s",
    "polytope_lp.generic_calls": "count", "polytope_lp.generic_s": "s",
    "greedy.steps": "count", "greedy.s": "s", "greedy.self_s": "s",
    "rounding.draw_s": "s", "rounding.profiles": "count",
    "oracle.s": "s", "oracle.allocations": "count",
    "cli.self_s": "s", "trace.solve_s": "s", "trace.overhead_s": "s",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def setup(workload_name: str):
    """Import the program, generate the ladder and write its instance files.

    This is the part `setup_s` times; the caller removes the directory.
    """
    sys.path.insert(0, SRC)
    import ladders
    from couponcascade import cli  # noqa: F401  (the pipeline every solve runs)

    workdir = tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORK)
    return workdir, ladders.write_ladder(ladders.WORKLOADS[workload_name], workdir)


class Runner:
    """Runs and checks solves of one ladder, and counts them."""

    def __init__(self, workload, paths, seed):
        import checks
        import ladders
        from couponcascade import cli

        self.checks, self.ladders, self.cli = checks, ladders, cli
        self.workload, self.paths, self.seed = workload, paths, seed
        self.docs = []
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                self.docs.append(json.load(fh))
        self.gammas = [None] * len(paths)
        # the first solve of each instance: canonical report text, report, verdict
        self.first_text = [None] * len(paths)
        self.first_report = [None] * len(paths)
        self.first_problems = [None] * len(paths)
        self.attempted = self.failed = 0
        self.check_failures = 0

    def solve(self, i: int, count: bool = True) -> float:
        """One timed `run_solve` call on instance i, checked afterwards."""
        slot, ladders = self.workload.slots[i], self.ladders
        start = time.perf_counter()
        try:
            report, _ = self.cli.run_solve(
                self.paths[i], slot.delta, ladders.MC_SAMPLES, ladders.MARGINAL_SAMPLES,
                ladders.ROUNDS, ladders.B_SCALE, self.seed,
            )
        except Exception:  # a solve that raises is a failed solve; keep going
            elapsed = time.perf_counter() - start
            if count:
                self.attempted += 1
                self.failed += 1
            log(f"{slot.name}: solve raised\n{traceback.format_exc()}")
            return elapsed
        elapsed = time.perf_counter() - start
        problems = self._check(i, report)
        if count:
            self.attempted += 1
            if problems:
                self.failed += 1
                self.check_failures += 1
        for problem in problems:
            log(f"{slot.name}: check failed: {problem}")
        return elapsed

    def _check(self, i: int, report: dict) -> list[str]:
        text = self.checks.canonical(report)
        if self.first_text[i] is None:
            if self.gammas[i] is None:
                self.gammas[i] = self.checks.gamma_vector(self.docs[i])
            self.first_text[i], self.first_report[i] = text, report
            self.first_problems[i] = self.checks.check_report(
                report, self.docs[i], self.ladders.B_SCALE, self.gammas[i], self.workload)
        elif text != self.first_text[i]:
            return ["report differs from the first solve of this instance with this seed"]
        return self.first_problems[i]

    def expected_cascade(self):
        """Mean f_mean over the ladder and its standard error."""
        done = [r["rounding"] for r in self.first_report if r is not None]
        if not done:
            return float("nan"), float("nan")
        mean = statistics.fmean(r["f_mean"] for r in done)
        stderr = math.sqrt(sum(r["f_stderr"] ** 2 for r in done)) / len(done)
        return mean, stderr


def _keep_going(rounds: int, least: int, elapsed: float, seconds: float) -> bool:
    """Start another round unless the minimum is met and it would end late."""
    return rounds < least or elapsed * (rounds + 1) / rounds <= seconds


def _setup_probes(args, count: int) -> list[float]:
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def timed_run(args, runner, first_setup: float) -> dict:
    warm = runner.solve(0, count=False)
    n = len(runner.paths)
    times = [[] for _ in range(n)]
    start = time.perf_counter()
    rounds = 0
    while _keep_going(rounds, MIN_ROUNDS, time.perf_counter() - start, args.seconds):
        for i in range(n):
            times[i].append(runner.solve(i))
        rounds += 1
    medians = [statistics.median(t) for t in times]
    setups = [first_setup] + _setup_probes(args, SETUP_SAMPLES - 1)
    cascade, cascade_se = runner.expected_cascade()
    metrics = {
        "solve_s": sum(medians),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "expected_cascade": cascade,
    }
    log(f"workload {args.workload}, seed {args.seed}: {rounds} rounds after a "
        f"{warm:.3f} s warm-up solve")
    for slot, med, t in zip(runner.workload.slots, medians, times):
        log(f"  {slot.name:40s} median {med:.4f} s  over {' '.join(f'{x:.3f}' for x in t)}")
    log(f"  setup samples: {' '.join(f'{x:.4f}' for x in setups)} s")
    log(f"  expected_cascade {cascade:.6f} +- {cascade_se:.6f} (standard error)")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}


def traced_run(args, runner) -> dict:
    import ladders
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        gen_dir = tempfile.mkdtemp(prefix="generate-", dir=WORK)
        try:
            tracer.active = True
            ladders.write_ladder(runner.workload, gen_dir)
            tracer.active = False
        finally:
            shutil.rmtree(gen_dir, ignore_errors=True)
        generate_s = tracer.take()[1]["instance.generate"]

        runner.solve(0, count=False)
        n = len(runner.paths)
        plain = [[] for _ in range(n)]
        traced = [[] for _ in range(n)]
        start = time.perf_counter()
        pairs = 0
        while _keep_going(pairs, MIN_TRACE_PAIRS, time.perf_counter() - start, args.seconds):
            for i in range(n):
                plain[i].append(runner.solve(i))
            round_calls = Counter()
            for i in range(n):
                tracer.active = True
                elapsed = runner.solve(i)
                tracer.active = False
                calls, seconds, items = tracer.take()
                round_calls.update(calls)
                traced[i].append(tracing.solve_metrics(calls, seconds, items, elapsed))
            wrong = tracing.missing_layers(round_calls, runner.workload.zero_layers)
            if wrong:
                raise SystemExit("traced layers disagree with the workload: " + "; ".join(wrong))
            pairs += 1
    finally:
        tracer.uninstall()

    def ladder_sum(key):
        return sum(statistics.median(rec[key] for rec in recs) for recs in traced)

    keys = traced[0][0].keys()
    metrics = {key: ladder_sum(key) for key in keys}
    base_calls = metrics.pop("cascade.base_value_calls")
    metrics["cascade.cache_hit"] = 1.0 - metrics["cascade.gamma_ic_calls"] / base_calls
    metrics["instance.generate_s"] = generate_s
    untraced = sum(statistics.median(t) for t in plain)
    metrics["trace.overhead_s"] = metrics["trace.solve_s"] - untraced
    log(f"workload {args.workload}, seed {args.seed}: {pairs} untraced/traced round pairs; "
        f"untraced solve_s {untraced:.4f} s, traced {metrics['trace.solve_s']:.4f} s")
    for key, unit in PER_LAYER.items():
        share = ""
        if unit == "s" and key != "instance.generate_s":
            share = f"  ({100 * metrics[key] / metrics['trace.solve_s']:.1f} % of traced solve_s)"
        log(f"  {key:28s} {metrics[key]:.6g} {unit}{share}")
    return {name: {"value": round(metrics[name]) if unit == "count" else metrics[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "couponcascade", "cli.py")):
        log(f"error: the couponcascade sources are not at {SRC}")
        return 2
    os.makedirs(WORK, exist_ok=True)
    start = time.perf_counter()
    workdir, paths = setup(args.workload)
    first_setup = time.perf_counter() - start
    try:
        if args.setup_probe:
            print(repr(first_setup))
            return 0
        import ladders

        runner = Runner(ladders.WORKLOADS[args.workload], paths, args.seed)
        if args.trace:
            metrics = traced_run(args, runner)
        else:
            metrics = timed_run(args, runner, first_setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    log(f"  attempted {runner.attempted} solves, failed {runner.failed} "
        f"({runner.check_failures} by a failed output check)")
    print(json.dumps({
        "correct": runner.check_failures == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 1 if runner.failed else 0


if __name__ == "__main__":
    sys.exit(main())
