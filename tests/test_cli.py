import dataclasses
import json
import math
import time
from itertools import combinations, product
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner

from conftest import run_cli as cli
from couponcascade import cascade, greedy, oracle, rounding
from couponcascade.cascade import make_utility
from couponcascade.cli import ORACLE_LIMIT, _rounding_stats, _tolist, main, run_solve
from couponcascade.instance import generate_random, load_instance, save_instance
from couponcascade.objective import f_exact, multilinear_F_exact, rounding_G_exact
from reference import rounding_G_seed_sets, survival_loop

RUN_REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "instance", "config", "fractional",
                 "rounding", "theory"],
    "properties": {
        "schema_version": {"const": 1},
        "instance": {
            "type": "object",
            "required": ["path", "digest", "n", "m", "model", "epsilon", "extended"],
        },
        "config": {
            "type": "object",
            "required": ["delta", "mode", "seed", "rounds", "mc_samples", "marginals"],
        },
        "fractional": {
            "type": "object",
            "required": ["F", "y"],
        },
        "rounding": {
            "type": "object",
            "required": ["rounds", "f_mean", "f_std", "f_stderr", "cost_mean",
                         "dist_budget_violations"],
        },
        "oracle": {"type": ["object", "null"]},
        "ratio": {
            "type": ["object", "null"],
            "properties": {
                "achieved": {"type": "number"},
                "stderr": {"type": "number"},
            },
        },
        "theory": {
            "type": "object",
            "required": ["beta", "guarantee"],
        },
    },
}


@pytest.fixture(scope="module")
def base_instance(tmp_path_factory):
    path = tmp_path_factory.mktemp("inst") / "base.json"
    save_instance(generate_random(3, 2, model="TABLE", seed=7), path)
    return str(path)


@pytest.fixture(scope="module")
def extended_instance(tmp_path_factory):
    path = tmp_path_factory.mktemp("inst") / "ext.json"
    save_instance(generate_random(3, 2, model="TABLE", seed=8, extension=True,
                                  epsilon=0.1), path)
    return str(path)


class TestSolve:
    def test_report_schema(self, base_instance):
        res = cli("solve", "-i", base_instance, "--rounds", "200", "--seed", "1")
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        jsonschema.validate(report, RUN_REPORT_SCHEMA)
        assert report["ratio"] is not None

    def test_byte_identical_replay(self, base_instance, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        r1 = cli("solve", "-i", base_instance, "--rounds", "300", "--seed", "5",
                 "--out", str(out1))
        r2 = cli("solve", "-i", base_instance, "--rounds", "300", "--seed", "5",
                 "--out", str(out2))
        assert r1.returncode == r2.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert r1.stdout == r2.stdout

    def test_different_seed_changes_report(self, base_instance):
        a = cli("solve", "-i", base_instance, "--rounds", "300", "--seed", "1")
        b = cli("solve", "-i", base_instance, "--rounds", "300", "--seed", "2")
        assert a.stdout != b.stdout

    def test_extended_report(self, extended_instance):
        res = cli("solve", "-i", extended_instance, "--rounds", "500", "--seed", "1",
                  "--b", "0.25")
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["instance"]["extended"]
        assert report["theory"]["extension_prefactor"] == pytest.approx(0.125)
        assert report["rounding"]["dist_budget_violations"] == 0
        assert "survival" in report["rounding"]

    def test_fractional_G_is_what_the_ascent_climbs(self, base_instance):
        # in base mode G is E[f] of the rounding, which f_mean estimates; F
        # stays the paper's F at the final y, and the bound names its analysis
        report, _ = run_solve(base_instance, None, 10_000, 200, 4000, 0.25, 1, want_trace=True,
                              with_oracle=False)
        inst = load_instance(base_instance)
        util = make_utility(inst)
        y = np.array(report["fractional"]["y"])
        G = report["fractional"]["G"]
        assert G == rounding_G_exact(inst, util, y) == report["trace"]["iterations"][-1][
            "f_estimate"]
        assert report["fractional"]["F"] == multilinear_F_exact(inst, util, y) < G
        rnd = report["rounding"]
        assert abs(rnd["f_mean"] - G) <= 5 * rnd["f_stderr"]
        assert report["theory"]["bound"] == ("1 - 1/e for the gradient ascent on G "
                                             "(Bian et al., AISTATS 2017)")

    def test_bound_at_positive_eps_is_not_claimed(self, extended_instance):
        report, _ = run_solve(extended_instance, None, 10_000, 200, 10, 0.25, 1,
                              with_oracle=False)
        bound = report["theory"]["bound"]
        assert bound.startswith("the paper's beta(eps)") and "not proven" in bound
        assert bound.endswith("times the paper's (1 - 2b) b for conflict resolution")

    def test_sampled_solve_has_no_G_and_no_bound(self, tmp_path):
        # n*m = 18: sampled marginals, the paper's own ascent on F
        path = tmp_path / "wide.json"
        save_instance(generate_random(6, 3, model="TABLE", seed=1), path)
        report, _ = run_solve(str(path), 0.25, 10_000, 20, 10, 0.25, 1, want_trace=True,
                              with_oracle=False)
        assert report["config"]["marginals"] == "sampled"
        assert sorted(report["fractional"]) == ["F", "y"]
        assert report["fractional"]["F"] == report["trace"]["iterations"][-1]["f_estimate"]
        assert "bound" not in report["theory"]

    def test_trace_flag(self, base_instance):
        res = cli("solve", "-i", base_instance, "--rounds", "50", "--seed", "1",
                  "--trace")
        report = json.loads(res.stdout)
        assert "trace" in report and report["trace"]["iterations"]

    def test_missing_file_usage_error(self):
        res = cli("solve", "-i", "/nonexistent.json")
        assert res.returncode == 2
        assert res.stderr == ("error: Invalid value for '-i' / '--instance': "
                              "File '/nonexistent.json' does not exist.\n")

    @pytest.mark.parametrize("change,reason", [
        ({"n": "abc"}, "malformed instance data"),
        ({"adoption": [[float("nan")] * 2] * 3}, "adoption must be finite"),
        ({"epsilon": 3.0}, "epsilon must lie in"),
        ({"gamma_table": {"": 0.0, "1": 1.0, "2": 1.0}}, "must list all 2^3 subsets"),
        ({"n": 3.5}, "n must be an integer, got 3.5"),
        ({"m": 2.5}, "m must be an integer, got 2.5"),
        ({"perturb_seed": 0.5}, "perturb_seed must be an integer, got 0.5"),
        ({"model": "IC", "gamma_table": None, "edges": [[1.9, 2, 0.5]]},
         "edge endpoint must be an integer, got 1.9"),
    ])
    def test_bad_input_usage_error(self, base_instance, tmp_path, change, reason):
        doc = json.loads(open(base_instance).read())
        doc.update(change)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        res = cli("solve", "-i", str(bad))
        assert res.returncode == 2, res.stderr
        assert reason in res.stderr and "Traceback" not in res.stderr

    def test_booleans_are_json_booleans(self, extended_instance):
        res = cli("solve", "-i", extended_instance, "--rounds", "50", "--seed", "1")
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["instance"]["extended"] is True

    def test_invalid_instance_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "n": 1, "m": 1, "coupon_values": [1.0],
            "adoption": [[0.0]], "budget_B": 1.0,
        }))
        res = cli("solve", "-i", str(bad))
        assert res.returncode == 2
        assert "adoption probability" in res.stderr

    def test_env_var_mirrors_flag(self, base_instance, tmp_path):
        import os
        env = dict(os.environ, COUPONCASCADE_SOLVE_SEED="5")
        out_env, out_flag = tmp_path / "env.json", tmp_path / "flag.json"
        r = cli("solve", "-i", base_instance, "--rounds", "200", "--out",
                str(out_env), env=env)
        assert r.returncode == 0, r.stderr
        cli("solve", "-i", base_instance, "--rounds", "200", "--seed", "5",
            "--out", str(out_flag))
        assert out_env.read_bytes() == out_flag.read_bytes()

    def test_timings_only_on_stderr(self, base_instance):
        res = cli("solve", "-i", base_instance, "--rounds", "100", "--seed", "1")
        assert "timings" not in res.stdout
        assert "timings" in res.stderr

    def test_timings_line_reports_lp_counters(self, base_instance):
        res = cli("solve", "-i", base_instance, "--rounds", "100", "--seed", "1")
        assert res.returncode == 0, res.stderr
        line = next(x for x in res.stderr.splitlines() if x.startswith("timings: "))
        timings = json.loads(line[len("timings: "):])
        assert timings["lp_pivots"] > 0 and timings["lp_fallbacks"] == 0
        assert 0.0 <= timings["lp_max_gap"] < 1e-8
        # 36 steps at nm = 6; each counted step pivoted at least once
        assert 0 < timings["lp_direction_changes"] <= min(35, timings["lp_pivots"])
        # exact marginals: one evaluation per window of steps, so fewer than steps
        assert timings["steps"] == 36
        assert 0 < timings["marginal_windows"] < 36
        # after the cold first step, a window folds at most J points, and no
        # more than the 35 steps left: J = max(16, 2^15 // (2^n + n m)) at n, m = 3, 2
        J = max(16, 2 ** 15 // (2 ** 3 + 3 * 2))
        assert 36 <= timings["points_folded"] <= 1 + min(J, 35) * (timings["marginal_windows"] - 1)
        # the cold first step is a window of one point, by the plain simplex
        assert 1 <= timings["one_point_windows"] < timings["marginal_windows"]
        # seconds in the ascent's three layers, each inside the greedy's own time
        layers = [timings["marginals_s"], timings["F_s"], timings["lp_s"]]
        assert min(layers) > 0 and sum(layers) <= timings["greedy_s"]
        assert "pivots" not in res.stdout

    def test_heavy_lt_in_weights_exit_2(self, tmp_path):
        bad = tmp_path / "lt.json"
        bad.write_text(json.dumps({
            "n": 3, "m": 1, "coupon_values": [1.0], "adoption": [[0.5], [0.5], [0.5]],
            "budget_B": 1.0, "model": "LT", "edges": [[1, 2, 0.7], [3, 2, 0.5]],
        }))
        res = cli("solve", "-i", str(bad))
        assert res.returncode == 2
        assert res.stderr == "error: LT incoming weights of user 2 sum above 1\n"

    @pytest.mark.parametrize("to_file", [False, True])
    def test_non_finite_report_exits_3(self, tmp_path, to_file):
        # coupons of value 1e308 offered to 13 users with adoption 1: a drawn
        # profile's redemption cost passes the float range, so the mean and
        # spread of the cost over the draws are inf, which standard JSON
        # cannot carry.  8,192 profiles: the oracle, whose LP would refuse
        # that cost, is skipped.
        inst = generate_random(13, 1, model="IC", edge_density=0.08, seed=1)
        inst = dataclasses.replace(inst, coupon_values=np.array([1e308]), budget_B=1.6e308,
                                   adoption=np.ones((13, 1)))
        assert (inst.m + 1) ** inst.n > ORACLE_LIMIT
        path = tmp_path / "huge.json"
        save_instance(inst, str(path))
        out = tmp_path / "report.json"
        res = cli("solve", "-i", str(path), "--rounds", "50",
                  *(["--out", str(out)] if to_file else []))
        assert res.returncode == 3
        errors = [line for line in res.stderr.splitlines() if line.startswith("error:")]
        assert errors == ["error: report not written: it holds a non-finite number "
                          "(inf or NaN), which standard JSON cannot carry"]
        assert "Traceback" not in res.stderr
        assert res.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("data,rounds", [
        ({"n": 1, "m": 1, "coupon_values": [0.760639], "adoption": [[0.910371]],
          "budget_B": 0.505124, "gamma_table": {"": 0, "1": 1e306}}, 1000),
        ({"n": 2, "m": 2, "coupon_values": [1.0, 2.0], "adoption": [[0.5, 0.7], [0.4, 0.6]],
          "budget_B": 1.0, "gamma_table": {"": 0.0, "1": 1e308, "2": 1e308, "1,2": 1.5e308}},
         50),
    ])
    def test_mean_past_the_float_range_stays_finite(self, tmp_path, data, rounds):
        # finite draws whose sum overflows: the mean of f is taken of the
        # draws over their largest one and scaled back
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({**data, "model": "TABLE"}))
        res = cli("solve", "-i", str(path), "--rounds", str(rounds))
        assert res.returncode == 0, res.stderr
        assert "Warning" not in res.stderr
        rnd = json.loads(res.stdout)["rounding"]
        assert 1e305 < rnd["f_mean"] <= max(data["gamma_table"].values())
        assert math.isfinite(rnd["f_std"])

    def test_cost_past_the_float_range_exits_3_with_one_line(self, tmp_path):
        # two coupons of value 1e308 redeemed for sure: a drawn profile's
        # cost, and the oracle's cost row, pass the float range; the LP's
        # input guard refuses the row, and numpy's warnings stay off stderr
        path = tmp_path / "cost.json"
        path.write_text(json.dumps({
            "n": 2, "m": 1, "coupon_values": [1e308], "adoption": [[1.0], [1.0]],
            "budget_B": 1.6e308, "model": "TABLE",
            "gamma_table": {"": 0, "1": 1, "2": 1, "1,2": 2}}))
        res = cli("solve", "-i", str(path), "--rounds", "1000")
        assert res.returncode == 3
        assert res.stderr == "error: non-finite LP data\n" and res.stdout == ""

    def test_ascent_lp_overflow_exits_3_with_one_line(self, tmp_path):
        # weights near the float range overflow the simplex's rank-1 update:
        # the certificate fails, and numpy's warning stays off stderr
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "n": 1, "m": 1, "coupon_values": [0.760639], "adoption": [[0.910371]],
            "budget_B": 0.505124, "model": "TABLE", "gamma_table": {"": 0, "1": 1.7e308}}))
        res = cli("solve", "-i", str(path), "--rounds", "1000")
        assert res.returncode == 3
        assert res.stderr == "error: duality gap inf exceeds tolerance\n"
        assert "Warning" not in res.stderr and res.stdout == ""

    def test_oracle_block_reads_f_once(self, extended_instance, monkeypatch):
        # the policy LP and the three relaxations read one table: one
        # enumeration and one batched f over every profile
        batches, enumerations, seed_sets = [], [], []
        original_f, original_value = oracle.f_exact, cascade.CascadeUtility.value
        original_enumerate = oracle.enumerate_feasible_allocations

        def recorded_f(inst, util):
            start = len(seed_sets)
            values = original_f(inst, util)
            batches.append((len(values), sorted(map(sorted, seed_sets[start:]))))
            return values

        def recorded_enumerate(inst):
            enumerations.append(original_enumerate(inst))
            return enumerations[-1]

        def counted_value(self, U):
            seed_sets.append(U)
            return original_value(self, U)

        monkeypatch.setattr(oracle, "f_exact", recorded_f)
        monkeypatch.setattr(oracle, "enumerate_feasible_allocations", recorded_enumerate)
        monkeypatch.setattr(cascade.CascadeUtility, "value", counted_value)
        report, _ = run_solve(extended_instance, None, 10_000, 200, 50, 0.25, 1)
        lps = {"policy_value", "relaxation_PB", "relaxation_PB1", "relaxation_PB2"}
        assert set(report["oracle"]) == lps
        inst = load_instance(extended_instance)
        every = sorted(product(range(3), repeat=3))
        assert enumerations == [every]
        # one f over every profile, which reads gamma of each seed set once
        users = range(1, inst.n + 1)
        subsets = sorted(sorted(c) for r in range(inst.n + 1) for c in combinations(users, r))
        assert batches == [(len(every), subsets)]
        # 2^n gamma reads for the one f, plus the solver's one gamma vector
        assert len(seed_sets) <= 2 * 2 ** inst.n


class TestRoundingStats:
    def test_profiles_past_int64_codes_stay_apart(self):
        # 128^10 = 2^70: a profile's base-(m+1) code overflows int64 here
        inst = generate_random(11, 127, model="TABLE", seed=1)
        util = cascade.make_utility(inst)
        y = np.zeros((11, 127))
        y[:, 0] = 0.5
        stats = _rounding_stats(inst, util, y, 200, np.random.default_rng(5))
        draws = rounding.round_partition_batch(y, 200, np.random.default_rng(5))
        assert stats["f_mean"] == pytest.approx(np.mean(f_exact(inst, util, draws)), rel=1e-12)

    def test_sampled_utility_f_read_from_gamma(self):
        # an LT utility's rounded f is exact given its sampled gamma vector
        inst = generate_random(4, 2, model="LT", seed=2)
        util = cascade.make_utility(inst, mc_samples=500)
        y = np.random.default_rng(3).uniform(0.0, 0.5, size=(4, 2))
        stats = _rounding_stats(inst, util, y, 300, np.random.default_rng(9))
        draws = rounding.round_partition_batch(y, 300, np.random.default_rng(9))
        assert len(np.unique(draws, axis=0)) > 10
        assert stats["f_mean"] == pytest.approx(np.mean(f_exact(inst, util, draws)), rel=1e-12)

    def test_survival_matches_the_pair_loop(self):
        inst = generate_random(5, 10, model="TABLE", seed=4, extension=True)
        util = cascade.make_utility(inst)
        y = np.random.default_rng(6).random((5, 10))
        y *= 0.9 / y.sum(axis=1, keepdims=True)
        y[0, 3] = 0.0  # a pair never drawn gets no entry
        stats = _rounding_stats(inst, util, y, 1000, np.random.default_rng(7))
        pre = rounding.round_partition_batch(y, 1000, np.random.default_rng(7))
        expected = survival_loop(pre, rounding.resolve_conflicts_batch(pre, inst), 5, 10)
        assert list(stats["survival"].items()) == list(expected.items())
        assert "1,4" not in expected
        assert 0 < min(s["rate"] for s in expected.values()) < 1

    def test_spread_past_the_float_range_stays_finite(self, tmp_path):
        # squaring deviations of order 1e300 overflows; the spread must not
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "n": 1, "m": 1, "coupon_values": [0.760639], "adoption": [[0.910371]],
            "budget_B": 0.505124, "model": "TABLE", "gamma_table": {"": 0, "1": 1e300}}))
        res = cli("solve", "-i", str(path), "--rounds", "3")
        assert res.returncode == 0, res.stderr
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("timings: "), res.stderr
        report = json.loads(res.stdout)
        rnd = report["rounding"]
        # each draw's f is 0 or c: k of the 3 draws hit, with 0 < k < 3 at this seed
        c = 0.910371e300
        k = round(rnd["f_mean"] / c * 3)
        assert 0 < k < 3
        assert rnd["f_std"] == pytest.approx(c * np.sqrt(k * (3 - k) / 6), rel=1e-12)
        assert rnd["f_stderr"] == pytest.approx(rnd["f_std"] / np.sqrt(3), rel=1e-12)
        assert report["ratio"]["stderr"] == pytest.approx(
            rnd["f_stderr"] / report["ratio"]["reference_value"], rel=1e-15)


def one_error_line(res):
    """The single stderr line of a usage error: exit 2, no usage text, no report."""
    assert res.exit_code == 2, res.output
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr
    assert "Usage:" not in res.stderr and res.stdout == ""
    return lines[0]


BAD_NUMBERS = [
    ("--rounds", "0"), ("--rounds", "-5"), ("--mc-samples", "0"),
    ("--marginal-samples", "0"), ("--delta", "0"), ("--delta", "1e-9"), ("--delta", "2"),
    ("--b", "0"), ("--b", "0.6"), ("--seed", "-1"),
]


class TestNumberRanges:
    @pytest.mark.parametrize("command", ["solve", "bench"])
    @pytest.mark.parametrize("flag,value", BAD_NUMBERS)
    def test_out_of_range_exits_2(self, base_instance, command, flag, value):
        target = ["-i", base_instance] if command == "solve" else [
            "-d", str(Path(base_instance).parent)]
        res = CliRunner().invoke(main, [command, *target, flag, value])
        assert one_error_line(res).startswith(f"error: Invalid value for '{flag}': ")

    @pytest.mark.parametrize("flag,value", [("--points", "0"), ("--b", "0"), ("--b", "0.6"),
                                            ("--seed", "-1")])
    def test_oracle_out_of_range_exits_2(self, base_instance, flag, value):
        res = CliRunner().invoke(main, ["oracle", "-i", base_instance, flag, value])
        assert one_error_line(res).startswith(f"error: Invalid value for '{flag}': ")

    def test_env_var_out_of_range_exits_2(self, base_instance):
        res = CliRunner().invoke(main, ["solve", "-i", base_instance],
                                 auto_envvar_prefix="COUPONCASCADE",
                                 env={"COUPONCASCADE_SOLVE_ROUNDS": "0"})
        assert one_error_line(res).startswith("error: Invalid value for '--rounds': ")

    def test_env_var_negative_seed_exits_2(self, base_instance):
        res = CliRunner().invoke(main, ["solve", "-i", base_instance],
                                 auto_envvar_prefix="COUPONCASCADE",
                                 env={"COUPONCASCADE_SOLVE_SEED": "-1"})
        assert one_error_line(res) == ("error: Invalid value for '--seed': "
                                       "-1 is not in the range x>=0.")

    @pytest.mark.parametrize("command", ["solve", "oracle", "bench"])
    @pytest.mark.parametrize("case,reason", [
        ("--seed -1", "Invalid value for '--seed': "),
        ("--rounds 0", None),  # oracle has no --rounds: no such option
        ("--delta 0", None),
        ("--b 0.9", "Invalid value for '--b': "),
        ("no target", "Missing option "),
        ("unknown subcommand", "No such command "),
    ])
    def test_usage_errors_print_one_line(self, base_instance, command, case, reason):
        target = ["-d", str(Path(base_instance).parent)] if command == "bench" else [
            "-i", base_instance]
        if case == "no target":
            args = [command]
        elif case == "unknown subcommand":
            args = [command + "x", *target]
        else:
            args = [command, *target, *case.split()]
        if reason is None:
            flag = case.split()[0]
            reason = (f"No such option '{flag}'" if command == "oracle"
                      else f"Invalid value for '{flag}': ")
        assert one_error_line(CliRunner().invoke(main, args)).startswith(f"error: {reason}")

    @pytest.mark.parametrize("args,code", [([], 2), (["--help"], 0), (["solve", "--help"], 0)])
    def test_help_keeps_the_usage_text(self, args, code):
        res = CliRunner().invoke(main, args)
        assert res.exit_code == code
        assert res.output.startswith("Usage: ")

    @pytest.mark.parametrize("command", ["solve", "oracle", "bench"])
    def test_unwritable_out_exits_2(self, base_instance, tmp_path, command):
        # the solve has run; the report cannot be written where --out points
        target = ["-d", str(Path(base_instance).parent)] if command == "bench" else [
            "-i", base_instance]
        out = tmp_path / "missing" / "report.json"
        res = cli(command, *target, "--rounds" if command != "oracle" else "--points", "1",
                  "--out", str(out))
        assert res.returncode == 2
        errors = [line for line in res.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith("error: report not written: ")
        assert str(out) in errors[0]
        assert "Traceback" not in res.stderr
        assert res.stdout == "" and not out.parent.exists()

    def test_bounds_are_inclusive_where_documented(self, base_instance):
        res = CliRunner().invoke(main, ["solve", "-i", base_instance, "--rounds", "1",
                                        "--delta", "1", "--b", "0.5", "--no-oracle"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.stdout)["rounding"]["f_std"] == 0.0


def _dense_ic(**kw):
    inst = generate_random(6, 2, model="IC", edge_density=0.8, seed=3, **kw)
    assert len(inst.edges) > cascade.EXACT_EDGE_LIMIT
    return inst


class TestDefaultStep:
    """The default step 1/(nm)^2 takes (nm)^2 steps; past 10^6 of them,
    as many as the smallest --delta allows, solve and bench exit 2."""

    REASON = ("error: n*m = 1002: the default step 1/(nm)^2 would take 1004004 "
              "ascent steps, more than 1000000; give --delta\n")

    @pytest.fixture(scope="class")
    def wide(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("wide")
        save_instance(generate_random(2, 501, model="TABLE", seed=1), directory / "wide.json")
        return directory

    def test_solve_exits_2(self, wide):
        res = cli("solve", "-i", str(wide / "wide.json"))
        assert res.returncode == 2
        assert res.stderr == self.REASON and res.stdout == ""

    def test_bench_exits_2(self, wide):
        res = cli("bench", "-d", str(wide))
        assert res.returncode == 2
        assert res.stderr == self.REASON and res.stdout == ""

    @pytest.mark.parametrize("m,delta", [(500, None), (501, "0.5")])
    def test_ascent_runs_within_the_limit(self, tmp_path, monkeypatch, m, delta):
        # n*m = 1000 takes exactly 10^6 default steps; --delta lifts the check
        path = tmp_path / "inst.json"
        save_instance(generate_random(2, m, model="TABLE", seed=1), path)
        calls = []

        def stopped(inst, util, cfg):
            calls.append(cfg.step(inst))
            raise greedy.GreedyError("stopped before the ascent")

        monkeypatch.setattr(greedy, "continuous_greedy", stopped)
        args = ["solve", "-i", str(path)] + (["--delta", delta] if delta else [])
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 3 and "stopped before the ascent" in res.stderr
        assert calls == [1e-6 if delta is None else 0.5]


class TestSampledModels:
    """LT, and IC above the exact edge limit, have a sampled gamma vector.  At
    n*m <= 16 they solve end to end by the exact ascent on G, exact given that
    vector, with no oracle block; above 16 by the paper's sampled marginals.
    The `oracle` command refuses them."""

    @pytest.mark.parametrize("model", ["LT", "IC"])
    def test_oracle_exits_2(self, tmp_path, model):
        inst = generate_random(4, 2, model="LT", seed=2) if model == "LT" else _dense_ic()
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        res = CliRunner().invoke(main, ["oracle", "-i", str(path)])
        assert one_error_line(res) == "error: oracle suite needs an exactly evaluable utility"

    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    @pytest.mark.parametrize("extended", [False, True])
    @pytest.mark.parametrize("model", ["LT", "IC"])
    def test_solve_replays(self, tmp_path, model, extended, epsilon):
        if model == "LT":
            inst = generate_random(4, 2, model="LT", seed=2, epsilon=epsilon, extension=extended)
        else:
            inst = _dense_ic(epsilon=epsilon, extension=extended)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            res = cli("solve", "-i", str(path), "--rounds", "200", "--mc-samples", "2000",
                      "--seed", "3", "--out", str(out))
            assert res.returncode == 0, res.stderr
        assert outs[0].read_bytes() == outs[1].read_bytes()
        report = json.loads(outs[0].read_text())
        assert report["config"]["marginals"] == "exact"
        assert "G" in report["fractional"] and "bound" in report["theory"]
        assert report["oracle"] is None and report["ratio"] is None
        assert report["instance"]["extended"] is extended
        assert report["rounding"]["dist_budget_violations"] == 0
        assert 0 < report["rounding"]["f_mean"] <= inst.n

    def test_wide_sampled_gamma_takes_the_sampled_ascent(self, tmp_path):
        path = tmp_path / "inst.json"
        save_instance(generate_random(6, 3, model="LT", seed=2), path)
        report, _ = run_solve(str(path), 0.05, 10_000, 200, 200, 0.25, 0)
        assert report["config"]["marginals"] == "sampled"
        assert "G" not in report["fractional"] and "bound" not in report["theory"]

    @pytest.mark.parametrize("model,n,m,seed,density", [
        ("LT", 4, 2, 2, 0.3), ("LT", 6, 2, 2, 0.3), ("LT", 10, 1, 1, 0.3), ("IC", 8, 2, 2, 0.5),
    ])
    def test_exact_ascent_climbs_at_least_as_high(self, tmp_path, model, n, m, seed, density):
        # G of the sampled gamma vector, by the reference's seed-set sum, at the
        # solve's y and at the y of the paper's sampled ascent
        inst = generate_random(n, m, model=model, seed=seed, edge_density=density)
        util = make_utility(inst)
        assert not util.exact
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        report, _ = run_solve(str(path), None, 10_000, 200, 200, 0.25, 0)
        assert report["config"]["marginals"] == "exact"
        sampled = greedy.continuous_greedy(
            inst, util, greedy.GreedyConfig(samples_per_marginal=200, seed=0)).final
        _, G_exact = rounding_G_seed_sets(inst, util, report["fractional"]["y"])
        _, G_sampled = rounding_G_seed_sets(inst, util, sampled)
        assert G_exact >= G_sampled

    def test_lt_15_users_solves_in_seconds(self, tmp_path):
        # the sampled ascent took 225 marginal windows and 12-18 s of CPU here
        path = tmp_path / "inst.json"
        save_instance(generate_random(15, 1, model="LT", seed=1, edge_density=0.2), path)
        start = time.perf_counter()
        report, timings = run_solve(str(path), None, 10_000, 200, 1000, 0.25, 0)
        assert time.perf_counter() - start < 5.0
        assert report["config"]["marginals"] == "exact"
        assert timings["marginal_windows"] <= 20


class TestOracleGate:
    """`solve` compares against the oracle on every exact utility with at
    most ORACLE_LIMIT allocations, whatever its marginals."""

    def test_sampled_marginals_get_a_ratio(self, tmp_path):
        # acceptance property 1 on an n*m = 18 instance (4,096 allocations)
        path = tmp_path / "inst.json"
        save_instance(generate_random(6, 3, model="TABLE", seed=1), path)
        report, _ = run_solve(str(path), None, 10_000, 200, 200, 0.25, 0)
        assert report["config"]["marginals"] == "sampled"
        assert set(report["oracle"]) == {"policy_value", "relaxation_PB"}
        ratio, guarantee = report["ratio"], report["theory"]["guarantee"]
        assert ratio["achieved"] >= guarantee - 0.07 - 3 * ratio["stderr"]

    def test_past_the_limit_no_oracle(self, tmp_path):
        path = tmp_path / "inst.json"
        save_instance(generate_random(5, 10, model="TABLE", seed=1), path)
        assert 11 ** 5 > ORACLE_LIMIT
        report, _ = run_solve(str(path), 0.05, 10_000, 200, 200, 0.25, 0)
        assert report["oracle"] is None and report["ratio"] is None


class TestOracleFuzz:
    """Generated n = 6 instances solve with their oracle block.  Bland's rule
    alone exceeded the 50,000-pivot limit in the oracle LPs of IC seeds
    5007, 5016 and 5019 and TABLE seeds 5027 and 5032."""

    def test_bland_pivot_limit_instance_solves(self, tmp_path):
        path = tmp_path / "inst.json"
        save_instance(generate_random(6, 2, model="IC", edge_density=0.4, seed=5019), path)
        res = cli("solve", "-i", str(path), "--rounds", "100")
        assert res.returncode == 0, res.stderr
        block = json.loads(res.stdout)["oracle"]
        assert block["relaxation_PB"] >= block["policy_value"] - 1e-8

    @pytest.mark.parametrize("model,seed,extended", [
        ("IC", 5000, False), ("IC", 5016, False), ("IC", 5001, True), ("IC", 5007, True),
        ("TABLE", 5000, False), ("TABLE", 5032, False), ("TABLE", 5001, True),
        ("TABLE", 5027, True),
    ])
    def test_generated_instances_solve(self, tmp_path, model, seed, extended):
        path, out = tmp_path / "inst.json", tmp_path / "report.json"
        save_instance(generate_random(6, 2, model=model, edge_density=0.4, seed=seed,
                                      extension=extended), path)
        res = CliRunner().invoke(main, ["solve", "-i", str(path), "--rounds", "100",
                                        "--out", str(out)])
        assert res.exit_code == 0, res.output
        block = json.loads(out.read_text())["oracle"]
        assert block["relaxation_PB"] >= block["policy_value"] - 1e-8
        if extended:
            assert block["relaxation_PB1"] >= block["relaxation_PB2"] - 1e-8


def separate_solve_checks(path, b=0.25):
    """The checks of an `oracle` report as separate solves build them: the
    policy LP and one relaxation per mode, each solved on its own table."""
    inst = load_instance(path)
    util = make_utility(inst)
    checks = [oracle.verify_eps_sandwich(oracle.ProfileTable(inst, util)),
              oracle.verify_concave_dominance(oracle.ProfileTable(inst, util), points=5, seed=0)]
    _, policy_value = oracle.solve_optimal_policy(oracle.ProfileTable(inst, util))
    _, pb_value = oracle.solve_concave_relaxation(oracle.ProfileTable(inst, util), "PB")
    checks.append({"name": "relaxation_dominates_policy",
                   "ok": pb_value >= policy_value - 1e-8,
                   "policy_value": policy_value, "relaxation_value": pb_value})
    if inst.budget_K is not None:
        _, pb1 = oracle.solve_concave_relaxation(oracle.ProfileTable(inst, util), "PB1")
        _, pb2 = oracle.solve_concave_relaxation(oracle.ProfileTable(inst, util), "PB2", b=b)
        checks.append({"name": "scaled_relaxation_lower_bound", "ok": pb2 >= b * pb1 - 1e-8,
                       "b": b, "full_value": pb1, "scaled_value": pb2})
    return json.loads(json.dumps(checks, default=_tolist))


class TestOracleCmd:
    def test_valid_instance_all_pass(self, base_instance, extended_instance):
        res = cli("oracle", "-i", extended_instance)
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["all_ok"]
        names = {c["name"] for c in report["checks"]}
        assert {"eps_sandwich", "concave_dominance", "relaxation_dominates_policy",
                "scaled_relaxation_lower_bound"} <= names
        # the report equals the one built from separate solves, bit for bit;
        # in base mode the policy LP is the PB relaxation's profile LP
        assert report["checks"] == separate_solve_checks(extended_instance)
        res = cli("oracle", "-i", base_instance)
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["all_ok"]
        assert [c["name"] for c in report["checks"]] == [
            "eps_sandwich", "concave_dominance", "relaxation_dominates_policy"]
        assert report["checks"] == separate_solve_checks(base_instance)

    def test_negative_control_fails(self, tmp_path):
        # strictly supermodular utility: the grid submodularity check trips
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "n": 2, "m": 1, "coupon_values": [1.0],
            "adoption": [[0.5], [0.5]], "budget_B": 5.0, "model": "TABLE",
            "gamma_table": {"": 0.0, "1": 0.0, "2": 0.0, "1,2": 1.0},
        }))
        res = cli("oracle", "-i", str(path))
        assert res.returncode == 1
        report = json.loads(res.stdout)
        sandwich = next(c for c in report["checks"] if c["name"] == "eps_sandwich")
        assert sandwich["ok"] is False and report["all_ok"] is False
        # f lies in its band (eps = 0); the grid names why it failed: the
        # pair of users 1, 2 over the empty set gains more together
        assert sandwich["max_violation"] == 0.0
        assert sandwich["witnesses"] == [{"grid_violation": ["submodular", [], 1, 2]}]

    def test_one_table_for_every_check(self, extended_instance, monkeypatch):
        # f and g over every profile: every check and LP, the sandwich's
        # grid among them, reads the same table
        assert self.f_passes(extended_instance, monkeypatch) == 2

    def test_one_f_pass_at_eps_0(self, tmp_path, monkeypatch):
        # at eps = 0 the reference is the utility itself, so g is f
        path = tmp_path / "ext0.json"
        save_instance(generate_random(3, 2, model="TABLE", seed=8, extension=True), path)
        assert self.f_passes(str(path), monkeypatch) == 1

    @staticmethod
    def f_passes(path, monkeypatch):
        """How many times `oracle` on the instance calls `oracle.f_exact`."""
        calls = []
        original = oracle.f_exact

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(oracle, "f_exact", counted)
        res = CliRunner().invoke(main, ["oracle", "-i", path])
        assert res.exit_code == 0, res.output
        assert json.loads(res.stdout)["all_ok"] is True
        return len(calls)

    def test_one_live_edge_pass(self, tmp_path, monkeypatch):
        # the unperturbed reference reuses the perturbed utility's IC vector
        calls = []
        original = cascade.gamma_ic_exact

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cascade, "gamma_ic_exact", counted)
        path = tmp_path / "ic.json"
        save_instance(generate_random(3, 2, model="IC", edge_density=0.5, epsilon=0.1,
                                      seed=8), path)
        res = CliRunner().invoke(main, ["oracle", "-i", str(path)])
        assert res.exit_code == 0, res.output
        assert json.loads(res.stdout)["all_ok"] is True
        assert len(calls) == 1

    def test_oversize_instance_clean_error(self, tmp_path):
        inst = generate_random(14, 2, model="IC", edge_density=0.0, seed=1)
        path = tmp_path / "big.json"
        save_instance(inst, path)
        res = cli("oracle", "-i", str(path))
        assert res.returncode == 3
        assert "enumeration" in res.stderr

    def test_size_rules_checked_before_any_f(self, tmp_path, monkeypatch):
        # 2^17 profiles exceed the enumeration limit; 15 edges keep IC exact
        path = tmp_path / "n17.json"
        save_instance(generate_random(17, 1, model="IC", edge_density=0.06, seed=1), path)
        calls = []
        monkeypatch.setattr(oracle, "f_exact", lambda *args: calls.append(args))
        res = CliRunner().invoke(main, ["oracle", "-i", str(path)])
        assert res.exit_code == 3
        assert res.stderr == ("error: enumeration of 131072 allocations exceeds the limit "
                              "100000\n")
        assert calls == []

    def test_thirteen_users_certified(self, tmp_path):
        # the grid's submodularity check takes every n the gamma vector takes
        path = tmp_path / "n13.json"
        save_instance(generate_random(13, 1, model="IC", edge_density=0.08, seed=1), path)
        res = CliRunner().invoke(main, ["oracle", "-i", str(path)])
        assert res.exit_code == 0, res.output
        assert json.loads(res.stdout)["all_ok"] is True

    def test_gamma_cap_before_the_seed_set_read(self, tmp_path):
        # 2^16 profiles are within the enumeration limit; 16 users are past
        # the gamma vector's cap, which holds before any table lookup
        n = 16
        path = tmp_path / "table16.json"
        path.write_text(json.dumps({
            "n": n, "m": 1, "coupon_values": [1.0], "adoption": [[0.5]] * n,
            "budget_B": 4.0, "model": "TABLE",
            "gamma_table": {",".join(str(v + 1) for v in range(n) if mask >> v & 1):
                            float(mask.bit_count()) for mask in range(1 << n)},
        }))
        start = time.perf_counter()
        res = CliRunner().invoke(main, ["oracle", "-i", str(path)])
        assert time.perf_counter() - start < 10
        assert res.exit_code == 3
        assert res.stderr == "error: gamma vectors limited to n <= 15\n"


class TestBench:
    def test_empty_directory(self, tmp_path):
        res = cli("bench", "-d", str(tmp_path))
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["instances"] == []

    def test_mixed_suite(self, tmp_path):
        for seed, eps, ext in [(1, 0.0, False), (2, 0.1, False), (3, 0.0, True)]:
            save_instance(
                generate_random(3, 2, model="TABLE", seed=seed, epsilon=eps,
                                extension=ext),
                tmp_path / f"i{seed}.json",
            )
        (tmp_path / "broken.json").write_text("{oops")
        res = cli("bench", "-d", str(tmp_path), "--rounds", "200", "--seed", "1")
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert len(report["instances"]) == 4
        failed = [r for r in report["instances"] if r["failed"]]
        assert len(failed) == 1 and "broken" in failed[0]["path"]
        assert failed[0]["error_class"] == "InstanceFormatError"
        assert all(isinstance(r["failed"], bool) for r in report["instances"])
        assert "0.0" in report["aggregate_by_epsilon"]

    def test_numeric_failure_exits_3(self, tmp_path):
        # 16 users exceed the 2^n gamma vector's cap; bench must say so
        save_instance(generate_random(16, 1, model="IC", seed=2), tmp_path / "big.json")
        save_instance(generate_random(2, 1, model="TABLE", seed=5), tmp_path / "ok.json")
        res = cli("bench", "-d", str(tmp_path), "--rounds", "100", "--seed", "2")
        assert res.returncode == 3, res.stderr
        rows = {r["path"].rsplit("/", 1)[-1]: r for r in json.loads(res.stdout)["instances"]}
        assert rows["big.json"]["failed"] is True
        assert rows["big.json"]["error_class"] == "UtilityError"
        assert rows["ok.json"]["failed"] is False

    def test_stable_ordering(self, tmp_path):
        for seed in (5, 6):
            save_instance(generate_random(2, 1, model="TABLE", seed=seed),
                          tmp_path / f"x{seed}.json")
        a = cli("bench", "-d", str(tmp_path), "--rounds", "100", "--seed", "2")
        b = cli("bench", "-d", str(tmp_path), "--rounds", "100", "--seed", "2")
        assert a.stdout == b.stdout
