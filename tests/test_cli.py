import json

import jsonschema
import pytest
from click.testing import CliRunner

from conftest import run_cli as cli
from couponcascade import cascade
from couponcascade.cli import main
from couponcascade.instance import generate_random, save_instance

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
        # the Monte-Carlo utility path cannot solve yet; bench must say so
        save_instance(generate_random(4, 2, model="LT", seed=2), tmp_path / "lt.json")
        save_instance(generate_random(2, 1, model="TABLE", seed=5), tmp_path / "ok.json")
        res = cli("bench", "-d", str(tmp_path), "--rounds", "100", "--seed", "2")
        assert res.returncode == 3, res.stderr
        rows = {r["path"].rsplit("/", 1)[-1]: r for r in json.loads(res.stdout)["instances"]}
        assert rows["lt.json"]["failed"] is True
        assert rows["lt.json"]["error_class"] == "UtilityError"
        assert rows["ok.json"]["failed"] is False

    def test_stable_ordering(self, tmp_path):
        for seed in (5, 6):
            save_instance(generate_random(2, 1, model="TABLE", seed=seed),
                          tmp_path / f"x{seed}.json")
        a = cli("bench", "-d", str(tmp_path), "--rounds", "100", "--seed", "2")
        b = cli("bench", "-d", str(tmp_path), "--rounds", "100", "--seed", "2")
        assert a.stdout == b.stdout
