"""Batch command-line front-end.

Three subcommands: `solve` runs the full pipeline (continuous greedy,
rounding, optional oracle comparison) on one instance and emits a JSON
report; `oracle` runs the brute-force certification suite; `bench` maps
`solve` over a directory of instances and aggregates the achieved ratios.

Reports are deterministic given the seed: wall-clock timings go to stderr
only, never into the report, so replays are byte-identical.  Flags can be
mirrored by environment variables prefixed COUPONCASCADE_ (for `solve`,
e.g. COUPONCASCADE_SOLVE_SEED); explicit flags win.

Exit codes: 0 success, 1 certification failure, 2 usage or input error,
3 numeric failure.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import click
import numpy as np

from couponcascade import greedy, oracle, rounding
from couponcascade.cascade import UtilityError, make_utility
from couponcascade.instance import (
    InstanceFormatError,
    InstanceValidationError,
    load_instance,
)
from couponcascade.objective import cost_exact, f_exact, f_mc
from couponcascade.polytope_lp import LpError

SCHEMA_VERSION = 1

EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
COUNT = click.IntRange(min=1)  # out-of-range option values exit 2
STEP = click.FloatRange(0.0, 1.0, min_open=True)
SCALE_B = click.FloatRange(0.0, 0.5, min_open=True)
ORACLE_LIMIT = 4096  # largest (m+1)^n allocation count `solve` compares against the oracle

# The exceptions `solve` maps to EXIT_USAGE and EXIT_NUMERIC; anything else
# is a bug and surfaces with its traceback.
INPUT_ERRORS = (InstanceFormatError, InstanceValidationError)
NUMERIC_ERRORS = (LpError, UtilityError, greedy.GreedyError, oracle.OracleError)


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    return obj


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(_jsonify(report), sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _rounding_stats(inst, util, y, rounds, rng, mc_samples, extended):
    """Monte-Carlo rounding statistics over `rounds` independent draws."""
    selections = rounding.round_partition_batch(y, rounds, rng)
    pre = selections
    if extended:
        kept = rounding.resolve_conflicts_batch(selections, inst)
    else:
        kept = selections
    costs = np.asarray(inst.dist_cost, dtype=float)
    spend = ((kept > 0) * costs).sum(axis=1)
    violations = int(np.sum(spend > (inst.budget_K or np.inf) + 1e-9)) if extended else 0

    # One f per distinct profile, taken in the order of the profiles'
    # base-(m+1) codes, last user most significant; f_mc draws its coins in
    # this order.  The codes overflow int64, so the group ranks are refined
    # user by user instead.
    inverse = np.zeros(len(kept), dtype=np.int64)
    for v in reversed(range(inst.n)):
        _, inverse = np.unique(inverse * (inst.m + 1) + kept[:, v], return_inverse=True)
    first = np.zeros(inverse.max() + 1, dtype=int)
    first[inverse] = np.arange(len(kept))
    if util.exact:
        values = f_exact(inst, util, kept[first])
    else:
        values = np.array([f_mc(inst, util, kept[i], mc_samples, rng) for i in first])
    f_draws = values[inverse]
    c_draws = cost_exact(inst, kept[first])[inverse]
    stats = {
        "rounds": rounds,
        "f_mean": float(f_draws.mean()),
        "f_std": float(f_draws.std(ddof=1)) if rounds > 1 else 0.0,
        "f_stderr": float(f_draws.std(ddof=1) / np.sqrt(rounds)) if rounds > 1 else 0.0,
        "cost_mean": float(c_draws.mean()),
        "cost_std": float(c_draws.std(ddof=1)) if rounds > 1 else 0.0,
        "dist_budget_violations": violations,
    }
    if extended:
        survival = {}
        for v in range(1, inst.n + 1):
            for d in range(1, inst.m + 1):
                in_pre = pre[:, v - 1] == d
                if in_pre.sum() == 0:
                    continue
                surv = float((kept[in_pre, v - 1] == d).mean())
                survival[f"{v},{d}"] = {"draws": int(in_pre.sum()), "rate": surv}
        stats["survival"] = survival
    return stats


def _oracle_block(inst, util, extended, b):
    block = {"policy_value": oracle.solve_optimal_policy(inst, util)[1]}
    for mode in ("PB", "PB1", "PB2") if extended else ("PB",):
        _, block[f"relaxation_{mode}"] = oracle.solve_concave_relaxation(inst, util, mode, b=b)
    return block


def run_solve(path, delta, mc_samples, marginal_samples, rounds, b, seed,
              want_trace=False, with_oracle=True):
    """The solve pipeline shared by `solve` and `bench`."""
    inst = load_instance(path)
    util = make_utility(inst, mc_samples=mc_samples)
    extended = inst.budget_K is not None
    exact_ok = util.exact and inst.n * inst.m <= 16
    cfg = greedy.GreedyConfig(
        delta=delta,
        samples_per_marginal=None if exact_ok else marginal_samples,
        seed=seed,
        b=b,
        mode="extended" if extended else "base",
    )
    t0 = time.perf_counter()
    trace = greedy.continuous_greedy(inst, util, cfg)
    t_greedy = time.perf_counter() - t0
    y = trace.final.y

    round_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    t0 = time.perf_counter()
    stats = _rounding_stats(inst, util, y, rounds, round_rng, mc_samples, extended)
    t_round = time.perf_counter() - t0

    beta = greedy.approximation_beta(inst.epsilon, inst.n)
    theory = {"beta": beta}
    if extended:
        theory["extension_prefactor"] = greedy.extension_prefactor(b)
        theory["guarantee"] = greedy.extension_prefactor(b) * beta
    else:
        theory["guarantee"] = beta

    oracle_vals = None
    ratio = None
    t_oracle = 0.0
    if with_oracle and exact_ok and (inst.m + 1) ** inst.n <= ORACLE_LIMIT:
        t0 = time.perf_counter()
        oracle_vals = _oracle_block(inst, util, extended, b)
        t_oracle = time.perf_counter() - t0
        reference = oracle_vals["relaxation_PB1" if extended else "relaxation_PB"]
        if reference > 0:
            ratio = {
                "achieved": stats["f_mean"] / reference,
                "stderr": stats["f_stderr"] / reference,
                "reference_value": reference,
            }

    final_f = trace.iterations[-1].f_estimate if trace.iterations else None
    report = {
        "schema_version": SCHEMA_VERSION,
        "instance": {
            "path": str(path),
            "digest": inst.digest(),
            "n": inst.n,
            "m": inst.m,
            "model": inst.model,
            "epsilon": inst.epsilon,
            "extended": extended,
        },
        "config": {
            "delta": cfg.step(inst),
            "mode": cfg.mode,
            "b": b if extended else None,
            "seed": seed,
            "rounds": rounds,
            "mc_samples": mc_samples,
            "marginals": "exact" if exact_ok else "sampled",
            "marginal_samples": None if exact_ok else marginal_samples,
        },
        "fractional": {"F": final_f, "y": y.tolist()},
        "rounding": stats,
        "oracle": oracle_vals,
        "ratio": ratio,
        "theory": theory,
    }
    if want_trace:
        report["trace"] = trace.to_jsonable()
    timings = {"greedy_s": t_greedy, "rounding_s": t_round, "oracle_s": t_oracle,
               "lp_pivots": trace.lp_pivots,
               "lp_direction_changes": trace.lp_direction_changes,
               "lp_fallbacks": trace.lp_fallbacks,
               "lp_max_gap": trace.lp_max_gap}
    return report, timings


@click.group()
def main():
    """Coupon-allocation solver and certification suite."""


@main.command()
@click.option("-i", "--instance", "path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--delta", type=STEP, default=None, help="Ascent step; default 1/(nm)^2.")
@click.option("--mc-samples", type=COUNT, default=10_000, show_default=True,
              help="Live-edge worlds sampled per utility (LT, and IC above 20 edges); "
                   "also the coin draws per rounded profile of such a utility.")
@click.option("--marginal-samples", type=COUNT, default=200, show_default=True,
              help="Samples per marginal when exact evaluation is infeasible.")
@click.option("--rounds", type=COUNT, default=1000, show_default=True)
@click.option("--b", type=SCALE_B, default=0.25, show_default=True,
              help="Distribution-knapsack scaling in extended mode.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--trace", is_flag=True, help="Include the per-iteration trace.")
@click.option("--no-oracle", is_flag=True, help="Skip the brute-force comparison.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def solve(path, delta, mc_samples, marginal_samples, rounds, b, seed, trace, no_oracle, out):
    """Solve one instance end-to-end and emit a JSON report."""
    try:
        report, timings = run_solve(
            path, delta, mc_samples, marginal_samples, rounds, b, seed,
            want_trace=trace, with_oracle=not no_oracle,
        )
    except INPUT_ERRORS as exc:
        _fail(EXIT_USAGE, str(exc))
    except NUMERIC_ERRORS as exc:
        _fail(EXIT_NUMERIC, str(exc))
    _emit(report, out)
    if out:
        rnd = report["rounding"]
        click.echo(
            f"f(T) = {rnd['f_mean']:.6f} +- {rnd['f_stderr']:.6f}, "
            f"cost = {rnd['cost_mean']:.6f}"
            + (f", ratio = {report['ratio']['achieved']:.4f}" if report["ratio"] else "")
        )
    click.echo("timings: " + json.dumps(_jsonify(timings)), err=True)


@main.command("oracle")
@click.option("-i", "--instance", "path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--b", type=SCALE_B, default=0.25, show_default=True)
@click.option("--points", type=COUNT, default=5, show_default=True,
              help="Random fractional points for the dominance check.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def oracle_cmd(path, b, points, seed, out):
    """Run the brute-force certification suite on one instance."""
    try:
        inst = load_instance(path)
        util = make_utility(inst)
        if not util.exact:
            _fail(EXIT_USAGE, "oracle suite needs an exactly evaluable utility")
        oracle.check_size(inst)
        checks = []
        sandwich = oracle.verify_eps_sandwich(inst, util)
        checks.append({"name": sandwich.name, "ok": sandwich.ok,
                       "max_violation": sandwich.max_violation,
                       "witnesses": sandwich.witnesses})
        dominance = oracle.verify_concave_dominance(inst, util, points=points, seed=seed)
        checks.append({"name": dominance.name, "ok": dominance.ok,
                       "max_violation": dominance.max_violation,
                       "witnesses": dominance.witnesses})
        _, policy_value = oracle.solve_optimal_policy(inst, util)
        _, pb_value = oracle.solve_concave_relaxation(inst, util, "PB")
        checks.append({
            "name": "relaxation_dominates_policy",
            "ok": pb_value >= policy_value - 1e-8,
            "policy_value": policy_value,
            "relaxation_value": pb_value,
        })
        if inst.budget_K is not None:
            _, pb1 = oracle.solve_concave_relaxation(inst, util, "PB1")
            _, pb2 = oracle.solve_concave_relaxation(inst, util, "PB2", b=b)
            checks.append({
                "name": "scaled_relaxation_lower_bound",
                "ok": pb2 >= b * pb1 - 1e-8,
                "b": b,
                "full_value": pb1,
                "scaled_value": pb2,
            })
    except INPUT_ERRORS as exc:
        _fail(EXIT_USAGE, str(exc))
    except NUMERIC_ERRORS as exc:
        _fail(EXIT_NUMERIC, str(exc))
    report = {
        "schema_version": SCHEMA_VERSION,
        "instance": {"path": str(path), "digest": inst.digest()},
        "checks": checks,
        "all_ok": all(c["ok"] for c in checks),
    }
    _emit(report, out)
    if not report["all_ok"]:
        sys.exit(EXIT_CHECK_FAILURE)


@main.command()
@click.option("-d", "--dir", "directory", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--delta", type=STEP, default=None)
@click.option("--mc-samples", type=COUNT, default=10_000, show_default=True)
@click.option("--marginal-samples", type=COUNT, default=200, show_default=True)
@click.option("--rounds", type=COUNT, default=1000, show_default=True)
@click.option("--b", type=SCALE_B, default=0.25, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def bench(directory, delta, mc_samples, marginal_samples, rounds, b, seed, out):
    """Run the solve pipeline over every instance in a directory.

    Exits 3 after the report if a solve failed with a numeric error.
    """
    paths = sorted(Path(directory).glob("*.json"))
    rows = []
    by_eps: dict[float, list[float]] = {}
    numeric_failure = False
    for path in paths:
        try:
            report, _ = run_solve(
                str(path), delta, mc_samples, marginal_samples, rounds, b, seed,
            )
        except INPUT_ERRORS + NUMERIC_ERRORS as exc:  # keep going; mark the failed row
            numeric_failure = numeric_failure or isinstance(exc, NUMERIC_ERRORS)
            rows.append({"path": str(path), "failed": True,
                         "error_class": type(exc).__name__, "error": str(exc)})
            continue
        row = {
            "path": str(path),
            "failed": False,
            "epsilon": report["instance"]["epsilon"],
            "extended": report["instance"]["extended"],
            "f_mean": report["rounding"]["f_mean"],
            "ratio": report["ratio"]["achieved"] if report["ratio"] else None,
            "beta": report["theory"]["beta"],
            "guarantee": report["theory"]["guarantee"],
        }
        rows.append(row)
        if row["ratio"] is not None:
            by_eps.setdefault(row["epsilon"], []).append(row["ratio"])
    aggregate = {}
    for eps in sorted(by_eps):
        ratios = np.array(by_eps[eps])
        aggregate[str(eps)] = {
            "count": len(ratios),
            "mean_ratio": float(ratios.mean()),
            "stderr": float(ratios.std(ddof=1) / np.sqrt(len(ratios))) if len(ratios) > 1 else 0.0,
            "min_ratio": float(ratios.min()),
        }
    _emit({
        "schema_version": SCHEMA_VERSION,
        "instances": rows,
        "aggregate_by_epsilon": aggregate,
    }, out)
    if numeric_failure:
        sys.exit(EXIT_NUMERIC)


def entry():  # pragma: no cover
    main(auto_envvar_prefix="COUPONCASCADE")


if __name__ == "__main__":  # pragma: no cover
    entry()
