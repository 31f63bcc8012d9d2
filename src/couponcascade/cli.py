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
3 numeric failure.  `main` maps each failure to its code and one `error:` line.
"""

from __future__ import annotations

import json
import sys
import time
from functools import partial
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
# Nothing here calls f_mc: bench/tracing.py wraps it as (cli, "f_mc").
from couponcascade.objective import cost_exact, f_exact, f_mc  # noqa: F401
from couponcascade.polytope_lp import LpError

SCHEMA_VERSION = 1

EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
COUNT = click.IntRange(min=1)  # out-of-range option values exit 2
SEED = click.IntRange(min=0)  # numpy seeds are nonnegative
STEP = click.FloatRange(1.0 / greedy.MAX_STEPS, 1.0)
SCALE_B = click.FloatRange(0.0, 0.5, min_open=True)
# Not a cost cap (the oracle takes up to its ENUMERATION_LIMIT): bench/ladders.py
# holds the sampled-wide rows, TABLE 4x10 at 14,641 profiles, to no oracle block.
ORACLE_LIMIT = 4096  # largest (m+1)^n allocation count `solve` compares against the oracle


# The exceptions `main` maps to EXIT_USAGE and EXIT_NUMERIC; anything else
# is a bug and surfaces with its traceback.
INPUT_ERRORS = (InstanceFormatError, InstanceValidationError)
NUMERIC_ERRORS = (LpError, UtilityError, greedy.GreedyError, oracle.OracleError)


def _tolist(obj):
    """json's fallback for numpy arrays and scalars: their Python lists and numbers."""
    return obj.tolist()


def _emit(report: dict, out: str | None) -> None:
    """Write the report as standard JSON.  A non-finite number in it exits
    3; an --out path that cannot be written exits 2."""
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False,
                          default=_tolist) + "\n"
    except ValueError:
        _fail(EXIT_NUMERIC, "report not written: it holds a non-finite number (inf or NaN), "
                            "which standard JSON cannot carry")
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            _fail(EXIT_USAGE, f"report not written: {exc}")
    else:
        sys.stdout.write(text)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _finite(stat, draws):
    """stat(draws), finite for finite draws: where it overflows (a sum, or
    squared deviations, past the float range), it is taken of the draws
    over their largest magnitude and scaled back.  Draws that are not all
    finite give inf."""
    if not np.isfinite(draws).all():
        return np.inf
    with np.errstate(over="ignore"):
        value = stat(draws)
    if np.isfinite(value):
        return value
    scale = np.abs(draws).max()
    return stat(draws / scale) * scale


def _bound(epsilon: float, extended: bool) -> str:
    """What `theory.guarantee` rests on when the ascent climbs the rounding's G."""
    if epsilon == 0:
        text = "1 - 1/e for the gradient ascent on G (Bian et al., AISTATS 2017)"
    else:
        text = ("the paper's beta(eps), proven for its ascent on F; for the ascent on G "
                "checked by the oracle's ratio, not proven")
    return text + (", times the paper's (1 - 2b) b for conflict resolution" if extended else "")


def _rounding_stats(inst, util, y, rounds, rng):
    """Rounding statistics over `rounds` independent draws, each draw's f
    exact given the utility's gamma vector; an instance with a budget_K
    also gets conflict resolution."""
    extended = inst.budget_K is not None
    selections = rounding.round_partition_batch(y, rounds, rng)
    pre = selections
    if extended:
        kept = rounding.resolve_conflicts_batch(selections, inst)
    else:
        kept = selections
    violations = int(np.sum(~inst.fits_K((kept > 0) @ inst.dist_cost)))

    # One f per distinct profile.  np.unique takes each row as one opaque item:
    # its axis=0 form compares rows field by field, 4-5 times slower on 1,000 rows.
    rows = kept.view(np.dtype((np.void, kept.itemsize * inst.n))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    f_draws = f_exact(inst, util, kept[first])[inverse]
    c_draws = cost_exact(inst, kept[first])[inverse]
    sample_std = partial(np.std, ddof=1)
    f_std = _finite(sample_std, f_draws) if rounds > 1 else 0.0
    stats = {
        "rounds": rounds,
        "f_mean": float(_finite(np.mean, f_draws)),
        "f_std": float(f_std),
        "f_stderr": float(f_std / np.sqrt(rounds)),
        "cost_mean": float(_finite(np.mean, c_draws)),
        "cost_std": float(_finite(sample_std, c_draws)) if rounds > 1 else 0.0,
        "dist_budget_violations": violations,
    }
    if extended:
        # draws and survivors of each drawn (v, d), counted by key v*(m+1) + d
        keys = np.arange(inst.n) * (inst.m + 1) + pre
        size = inst.n * (inst.m + 1)
        draws = np.bincount(keys.ravel(), minlength=size).reshape(inst.n, -1)
        kept_draws = np.bincount(keys[kept == pre], minlength=size).reshape(inst.n, -1)
        stats["survival"] = {
            f"{v},{d}": {"draws": int(draws[v - 1, d]),
                         "rate": float(kept_draws[v - 1, d] / draws[v - 1, d])}
            for v in range(1, inst.n + 1)
            for d in range(1, inst.m + 1)
            if draws[v - 1, d]
        }
    return stats


def run_solve(path, delta, mc_samples, marginal_samples, rounds, b, seed,
              want_trace=False, with_oracle=True):
    """The solve pipeline shared by `solve` and `bench`."""
    inst = load_instance(path)
    util = make_utility(inst, mc_samples=mc_samples)
    extended = inst.budget_K is not None
    # The ascent follows n*m alone: at n*m <= 16 the exact ascent on G serves every
    # gamma vector, sampled ones too; the oracle gate below needs an exact gamma.
    exact_ok = inst.n * inst.m <= 16
    cfg = greedy.GreedyConfig(
        delta=delta,
        samples_per_marginal=None if exact_ok else marginal_samples,
        seed=seed,
        b=b,
    )
    t0 = time.perf_counter()
    trace = greedy.continuous_greedy(inst, util, cfg)
    t_greedy = time.perf_counter() - t0
    y = trace.final

    round_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    t0 = time.perf_counter()
    stats = _rounding_stats(inst, util, y, rounds, round_rng)
    t_round = time.perf_counter() - t0

    beta = greedy.approximation_beta(inst.epsilon, inst.n)
    theory = {"beta": beta}
    if extended:
        prefactor = greedy.extension_prefactor(b)
        theory["extension_prefactor"] = prefactor
        theory["guarantee"] = prefactor * beta
    else:
        theory["guarantee"] = beta
    if exact_ok:  # sampled marginals run the paper's own ascent, on F
        theory["bound"] = _bound(inst.epsilon, extended)

    oracle_vals = None
    ratio = None
    t_oracle = 0.0
    if with_oracle and util.exact and (inst.m + 1) ** inst.n <= ORACLE_LIMIT:
        t0 = time.perf_counter()
        oracle_vals = oracle.reference_values(oracle.ProfileTable(inst, util), b)
        t_oracle = time.perf_counter() - t0
        reference = oracle_vals["relaxation_PB1" if extended else "relaxation_PB"]
        if reference > 0:
            ratio = {
                "achieved": stats["f_mean"] / reference,
                "stderr": stats["f_stderr"] / reference,
                "reference_value": reference,
            }

    fractional = {"F": trace.F, "y": y.tolist()}
    if trace.G is not None:
        fractional["G"] = trace.G
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
            "mode": "extended" if extended else "base",
            "b": b if extended else None,
            "seed": seed,
            "rounds": rounds,
            "mc_samples": mc_samples,
            "marginals": "exact" if exact_ok else "sampled",
            "marginal_samples": None if exact_ok else marginal_samples,
        },
        "fractional": fractional,
        "rounding": stats,
        "oracle": oracle_vals,
        "ratio": ratio,
        "theory": theory,
    }
    if want_trace:
        report["trace"] = trace.to_jsonable()
    timings = {"greedy_s": t_greedy, "rounding_s": t_round, "oracle_s": t_oracle,
               **trace.counters()}
    return report, timings


class _Main(click.Group):
    """The command group: the one place where a failure becomes its exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            _fail(EXIT_USAGE, exc.format_message())
        except INPUT_ERRORS + (greedy.StepCountError,) as exc:
            _fail(EXIT_USAGE, str(exc))
        except NUMERIC_ERRORS as exc:
            _fail(EXIT_NUMERIC, str(exc))


@click.group(cls=_Main)
def main():
    """Coupon-allocation solver and certification suite."""


# The run options of `solve` and `bench`, in the order their --help lists them.
RUN_OPTIONS = (
    click.option("--delta", type=STEP, default=None,
                 help="Ascent step; default 1/(nm)^2, for n*m up to 1000."),
    click.option("--mc-samples", type=COUNT, default=10_000, show_default=True,
                 help="Live-edge worlds sampled per utility (LT, and IC above 20 edges)."),
    click.option("--marginal-samples", type=COUNT, default=200, show_default=True,
                 help="Profile draws per ascent step when n*m > 16; they serve both "
                      "the marginals and F."),
    click.option("--rounds", type=COUNT, default=1000, show_default=True),
    click.option("--b", type=SCALE_B, default=0.25, show_default=True,
                 help="Distribution-knapsack scaling in extended mode."),
    click.option("--seed", type=SEED, default=0, show_default=True),
)


def _run_options(command):
    """Decorate a command with RUN_OPTIONS."""
    for option in reversed(RUN_OPTIONS):
        command = option(command)
    return command


@main.command()
@click.option("-i", "--instance", "path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@_run_options
@click.option("--trace", is_flag=True, help="Include the per-iteration trace.")
@click.option("--no-oracle", is_flag=True, help="Skip the brute-force comparison.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def solve(path, delta, mc_samples, marginal_samples, rounds, b, seed, trace, no_oracle, out):
    """Solve one instance end-to-end and emit a JSON report."""
    report, timings = run_solve(path, delta, mc_samples, marginal_samples, rounds, b, seed,
                                want_trace=trace, with_oracle=not no_oracle)
    _emit(report, out)
    if out:
        rnd = report["rounding"]
        click.echo(
            f"f(T) = {rnd['f_mean']:.6f} +- {rnd['f_stderr']:.6f}, "
            f"cost = {rnd['cost_mean']:.6f}"
            + (f", ratio = {report['ratio']['achieved']:.4f}" if report["ratio"] else "")
        )
    click.echo("timings: " + json.dumps(timings, default=_tolist), err=True)


@main.command("oracle")
@click.option("-i", "--instance", "path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--b", type=SCALE_B, default=0.25, show_default=True)
@click.option("--points", type=COUNT, default=5, show_default=True,
              help="Random fractional points for the dominance check.")
@click.option("--seed", type=SEED, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def oracle_cmd(path, b, points, seed, out):
    """Run the brute-force certification suite on one instance."""
    inst = load_instance(path)
    util = make_utility(inst)
    if not util.exact:
        _fail(EXIT_USAGE, "oracle suite needs an exactly evaluable utility")
    checks = oracle.certification_checks(oracle.ProfileTable(inst, util), b, points, seed)
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
@_run_options
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def bench(directory, delta, mc_samples, marginal_samples, rounds, b, seed, out):
    """Run the solve pipeline over every instance in a directory.

    Exits 3 after the report if a solve failed with a numeric error, and 2
    at once if an instance needs --delta.
    """
    paths = sorted(Path(directory).glob("*.json"))
    rows = []
    by_eps: dict[float, list[float]] = {}
    numeric_failure = False
    for path in paths:
        try:
            report, _ = run_solve(str(path), delta, mc_samples, marginal_samples, rounds, b, seed)
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
