import json
from itertools import product
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner

from conftest import run_cli as cli
from couponcascade import cascade, oracle, rounding
from couponcascade.cli import _rounding_stats, main, run_solve
from couponcascade.instance import generate_random, load_instance, save_instance
from couponcascade.objective import f_exact, f_mc

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

    def test_trace_flag(self, base_instance):
        res = cli("solve", "-i", base_instance, "--rounds", "50", "--seed", "1",
                  "--trace")
        report = json.loads(res.stdout)
        assert "trace" in report and report["trace"]["iterations"]

    def test_missing_file_usage_error(self):
        res = cli("solve", "-i", "/nonexistent.json")
        assert res.returncode == 2

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

    def test_oracle_reads_f_once_per_lp(self, extended_instance, monkeypatch):
        # the policy LP and the three relaxations each make one batched f call
        batches, seed_sets = [], []
        original_f, original_value = oracle.f_exact, cascade.CascadeUtility.value

        def recorded_f(inst, util, profiles):
            batches.append(list(profiles))
            return original_f(inst, util, profiles)

        def counted_value(self, U):
            seed_sets.append(U)
            return original_value(self, U)

        monkeypatch.setattr(oracle, "f_exact", recorded_f)
        monkeypatch.setattr(cascade.CascadeUtility, "value", counted_value)
        report, _ = run_solve(extended_instance, None, 10_000, 200, 50, 0.25, 1)
        lps = {"policy_value", "relaxation_PB", "relaxation_PB1", "relaxation_PB2"}
        assert set(report["oracle"]) == lps
        inst = load_instance(extended_instance)
        every = sorted(product(range(3), repeat=3))
        affordable = [p for p in every
                      if sum(inst.dist_cost[v] for v, d in enumerate(p) if d) <= inst.budget_K]
        assert len(affordable) < len(every)
        assert batches == [affordable] + [every] * 3
        # 2^n gamma reads per LP, plus the solver's one gamma vector
        assert len(seed_sets) <= (len(lps) + 1) * 2 ** inst.n


class TestRoundingStats:
    def test_profiles_past_int64_codes_stay_apart(self):
        # 128^10 = 2^70: a profile's base-(m+1) code overflows int64 here
        inst = generate_random(11, 127, model="TABLE", seed=1)
        util = cascade.make_utility(inst)
        y = np.zeros((11, 127))
        y[:, 0] = 0.5
        stats = _rounding_stats(inst, util, y, 200, np.random.default_rng(5), 10_000, False)
        draws = rounding.round_partition_batch(y, 200, np.random.default_rng(5))
        assert stats["f_mean"] == pytest.approx(np.mean(f_exact(inst, util, draws)), rel=1e-12)

    def test_sampled_f_drawn_in_profile_code_order(self):
        # f_mc shares the rounding rng, so the order of distinct profiles fixes the report
        inst = generate_random(4, 2, model="LT", seed=2)
        util = cascade.make_utility(inst, mc_samples=500)
        y = np.random.default_rng(3).uniform(0.0, 0.5, size=(4, 2))
        stats = _rounding_stats(inst, util, y, 300, np.random.default_rng(9), 500, False)
        rng = np.random.default_rng(9)
        draws = rounding.round_partition_batch(y, 300, rng)
        codes, inverse = np.unique(draws @ 3 ** np.arange(4), return_inverse=True)
        assert len(codes) > 10
        f_codes = [f_mc(inst, util, draws[inverse == j][0], 500, rng) for j in range(len(codes))]
        assert stats["f_mean"] == float(np.array(f_codes)[inverse].mean())


BAD_NUMBERS = [
    ("--rounds", "0"), ("--rounds", "-5"), ("--mc-samples", "0"),
    ("--marginal-samples", "0"), ("--delta", "0"), ("--delta", "2"),
    ("--b", "0"), ("--b", "0.6"),
]


class TestNumberRanges:
    @pytest.mark.parametrize("command", ["solve", "bench"])
    @pytest.mark.parametrize("flag,value", BAD_NUMBERS)
    def test_out_of_range_exits_2(self, base_instance, command, flag, value):
        target = ["-i", base_instance] if command == "solve" else [
            "-d", str(Path(base_instance).parent)]
        res = CliRunner().invoke(main, [command, *target, flag, value])
        assert res.exit_code == 2, res.output
        assert f"Invalid value for '{flag}'" in res.output

    @pytest.mark.parametrize("flag,value", [("--points", "0"), ("--b", "0"), ("--b", "0.6")])
    def test_oracle_out_of_range_exits_2(self, base_instance, flag, value):
        res = CliRunner().invoke(main, ["oracle", "-i", base_instance, flag, value])
        assert res.exit_code == 2, res.output
        assert f"Invalid value for '{flag}'" in res.output

    def test_env_var_out_of_range_exits_2(self, base_instance):
        res = CliRunner().invoke(main, ["solve", "-i", base_instance],
                                 auto_envvar_prefix="COUPONCASCADE",
                                 env={"COUPONCASCADE_SOLVE_ROUNDS": "0"})
        assert res.exit_code == 2, res.output
        assert "Invalid value for '--rounds'" in res.output

    def test_bounds_are_inclusive_where_documented(self, base_instance):
        res = CliRunner().invoke(main, ["solve", "-i", base_instance, "--rounds", "1",
                                        "--delta", "1", "--b", "0.5", "--no-oracle"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.stdout)["rounding"]["f_std"] == 0.0


def _dense_ic(**kw):
    inst = generate_random(6, 2, model="IC", edge_density=0.8, seed=3, **kw)
    assert len(inst.edges) > cascade.EXACT_EDGE_LIMIT
    return inst


class TestSampledModels:
    """LT, and IC above the exact edge limit, solve end to end with sampled
    marginals and no oracle block."""

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
        assert report["config"]["marginals"] == "sampled"
        assert report["oracle"] is None and report["ratio"] is None
        assert report["instance"]["extended"] is extended
        assert report["rounding"]["dist_budget_violations"] == 0
        assert 0 < report["rounding"]["f_mean"] <= inst.n


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


class TestOracleCmd:
    def test_valid_instance_all_pass(self, extended_instance):
        res = cli("oracle", "-i", extended_instance)
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["all_ok"]
        names = {c["name"] for c in report["checks"]}
        assert {"eps_sandwich", "concave_dominance", "relaxation_dominates_policy",
                "scaled_relaxation_lower_bound"} <= names

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
        # 2^13 profiles are within the enumeration limit; n = 13 is not
        path = tmp_path / "n13.json"
        save_instance(generate_random(13, 1, model="IC", edge_density=0.08, seed=1), path)
        calls = []
        monkeypatch.setattr(oracle, "f_exact", lambda *args: calls.append(args))
        res = CliRunner().invoke(main, ["oracle", "-i", str(path)])
        assert res.exit_code == 3
        assert res.stderr == "error: exhaustive check limited to n <= 12\n"
        assert calls == []


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
