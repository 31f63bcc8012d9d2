"""Answers and verdicts do not depend on the unit of gamma, and the hard
budget K's decisions do not depend on the unit of the distribution costs.

The ascent LP prices relative to its objective's largest entry, and the
oracle's checks compare against tolerances relative to the values they
compare.  So scaling every gamma value by a power of two scales every value
that `solve` reports by exactly that power and leaves every decision alone;
scaling by a power of ten rounds each gamma value once, and the values agree
to rounding.  Every test of a spend against K goes through
`Instance.fits_K`, whose slack is relative to K, so conflict resolution, the
oracle's profiles within K and the report's violation count keep their
answers when dist_cost and K are scaled together.  The ascent's
feasibility check compares each knapsack's spend with its budget times
(1 + 1e-9), so a y past a small K is refused.
"""

import dataclasses
import json

import numpy as np
import pytest

from conftest import run_cli as cli, table_instance
from couponcascade import oracle, rounding
from couponcascade.cascade import make_utility
from couponcascade.cli import _rounding_stats, run_solve
from couponcascade.greedy import GreedyConfig, continuous_greedy
from couponcascade.instance import generate_random, save_instance
from couponcascade.polytope_lp import NumericError
from couponcascade.rounding import resolve_conflicts_batch, round_partition_batch

# The benchmark's table-exact ladder: (n, m, generator seed, eps, extended).
LADDER = [(3, 3, 1, 0.0, False), (4, 3, 6, 0.1, True), (2, 8, 7, 0.1, True),
          (3, 5, 4, 0.0, False), (5, 3, 2, 0.0, True), (4, 4, 5, 0.1, False),
          (6, 2, 3, 0.1, False)]

# gamma(1) + gamma(2) < gamma(1, 2) + gamma(empty): not submodular at any scale
SUPERMODULAR = {frozenset(): 0.0, frozenset({1}): 1.0, frozenset({2}): 1.0,
                frozenset({1, 2}): 3.0}


# Extended instances, IC at edge density 0.6: (model, n, m, generator seed, eps).
EXTENDED = [("TABLE", 4, 3, 6, 0.1), ("TABLE", 2, 8, 7, 0.1), ("TABLE", 5, 3, 2, 0.0),
            ("TABLE", 5, 2, 1, 0.0), ("IC", 5, 2, 7, 0.0), ("IC", 4, 4, 6, 0.0)]
# (base, k): the costs and K times base ** k
COST_SCALES = [(2, k) for k in (-80, -40, 40, 80)] + [(10, k) for k in (-12, -9, 6, 12)]


def ladder_instance(n, m, seed, eps, extended):
    return generate_random(n, m, model="TABLE", seed=seed, epsilon=eps, extension=extended)


def scaled(inst, factor):
    """inst with every gamma value times factor."""
    return dataclasses.replace(
        inst, gamma_table={key: value * factor for key, value in inst.gamma_table.items()})


def extended_instance(model, n, m, seed, eps):
    return generate_random(n, m, model=model, seed=seed, epsilon=eps, extension=True,
                           edge_density=0.6)


def cost_scaled(inst, factor):
    """inst with its distribution costs and K times factor."""
    return dataclasses.replace(inst, dist_cost=inst.dist_cost * factor,
                               budget_K=inst.budget_K * factor)


def supermodular_instance():
    return table_instance(SUPERMODULAR, [[0.5], [0.5]], coupon_values=[1.0], budget_B=5.0)


def solve(inst, directory, name):
    """The `solve` report of inst at the CLI defaults."""
    path = directory / f"{name}.json"
    save_instance(inst, path)
    return run_solve(str(path), None, 10_000, 200, 1000, 0.25, 0)[0]


def reported_values(report):
    """Every value of a report that is in gamma's unit."""
    return {"G": report["fractional"]["G"], "F": report["fractional"]["F"],
            "f_mean": report["rounding"]["f_mean"], **report["oracle"]}


@pytest.mark.parametrize("slot", LADDER, ids=lambda s: "TABLE-{}x{}-g{}-eps{}-{}".format(
    *s[:4], "ext" if s[4] else "base"))
def test_solve_scales_with_gamma(slot, tmp_path):
    inst = ladder_instance(*slot)
    base = solve(inst, tmp_path, "base")
    want = reported_values(base)
    for k in (-80, -40, 40, 80):  # exact: every value scales by the power of two
        factor = 2.0 ** k
        got = solve(scaled(inst, factor), tmp_path, f"two{k}")
        assert got["fractional"]["y"] == base["fractional"]["y"]
        assert reported_values(got) == {key: factor * value for key, value in want.items()}
        assert got["ratio"]["achieved"] == base["ratio"]["achieved"]
    for k in (-12, -9, 6, 12):  # each gamma value rounded once
        factor = 10.0 ** k
        got = solve(scaled(inst, factor), tmp_path, f"ten{k}")
        assert got["fractional"]["y"] == base["fractional"]["y"]
        for key, value in reported_values(got).items():
            assert value == pytest.approx(factor * want[key], rel=1e-15, abs=0), key
        assert got["ratio"]["achieved"] == pytest.approx(base["ratio"]["achieved"],
                                                         rel=1e-15, abs=0)


def verdicts(inst):
    table = oracle.ProfileTable(inst, make_utility(inst))
    return [(check["name"], check["ok"])
            for check in oracle.certification_checks(table, 0.25, 2, 0)]


@pytest.mark.parametrize("inst", [
    pytest.param(supermodular_instance(), id="supermodular"),
    pytest.param(generate_random(4, 2, model="TABLE", seed=1), id="coverage-4x2"),
    pytest.param(generate_random(5, 2, model="TABLE", seed=3, extension=True),
                 id="coverage-5x2-ext"),
    pytest.param(generate_random(6, 1, model="TABLE", seed=1166, extension=True),
                 id="coverage-6x1-ext"),
    pytest.param(generate_random(4, 3, model="TABLE", seed=6, epsilon=0.1, extension=True),
                 id="eps0.1-4x3-ext"),
])
def test_oracle_verdicts_do_not_depend_on_the_unit(inst):
    want = verdicts(inst)
    assert all(ok for name, ok in want if name != "eps_sandwich")
    # the supermodular table fails the sandwich's grid check; the others pass
    assert dict(want)["eps_sandwich"] == (inst.gamma_table != SUPERMODULAR)
    for k in range(-15, 16):
        assert verdicts(scaled(inst, 10.0 ** k)) == want, k


@pytest.mark.parametrize("scale", COST_SCALES, ids=lambda s: "{}^{}".format(*s))
@pytest.mark.parametrize("row", EXTENDED, ids=lambda r: "{}-{}x{}-g{}-eps{}".format(*r))
def test_K_decisions_do_not_depend_on_the_cost_unit(row, scale):
    inst = extended_instance(*row)
    base, k = scale
    scaled_inst = cost_scaled(inst, float(base) ** k)
    draws = round_partition_batch(np.full((inst.n, inst.m), 0.9 / inst.m), 2000,
                                  np.random.default_rng(0))
    assert np.array_equal(resolve_conflicts_batch(draws, scaled_inst),
                          resolve_conflicts_batch(draws, inst))
    within = [oracle.ProfileTable(i, make_utility(i)).within_K for i in (inst, scaled_inst)]
    assert np.array_equal(*within)


class TestRepros:
    """Inputs on which an absolute tolerance made the answer depend on gamma's
    unit, or on the unit of the distribution costs."""

    @staticmethod
    def tiny_costs():
        # TABLE 5x2 extended and its draws at 0.45 per coupon, with the
        # distribution costs and K at 1e-12 times their values
        inst = generate_random(5, 2, model="TABLE", seed=1, extension=True)
        draws = round_partition_batch(np.full((5, 2), 0.45), 2000, np.random.default_rng(0))
        return inst, cost_scaled(inst, 1e-12), draws

    def test_tiny_costs_resolve_within_K(self):
        # an absolute 1e-12 of slack let 1,668 draws keep extra offers, up
        # to 1.24 K
        inst, small, draws = self.tiny_costs()
        kept = resolve_conflicts_batch(draws, small)
        assert np.array_equal(kept, resolve_conflicts_batch(draws, inst))
        spend = (kept > 0) @ small.dist_cost
        assert spend.max() / small.budget_K <= 1 + 1e-12

    def test_violation_count_sees_tiny_costs(self, monkeypatch):
        # with resolution switched off, the unscaled draws overspend K; at
        # 1e-12 the absolute 1e-9 of slack counted 0 of them
        inst, small, _ = self.tiny_costs()
        monkeypatch.setattr(rounding, "resolve_conflicts_batch", lambda selected, inst: selected)
        y = np.full((5, 2), 0.45)
        counts = [_rounding_stats(i, make_utility(i), y, 2000, np.random.default_rng(0))
                  ["dist_budget_violations"] for i in (inst, small)]
        assert counts[0] > 0
        assert counts[1] == counts[0]

    def test_policy_value_at_small_costs(self):
        # 4.8535 unscaled, and 5.5424 at 2^-40 when profiles over K passed
        # the oracle's absolute 1e-12
        inst = extended_instance("TABLE", 4, 3, 6, 0.1)
        values = [oracle.solve_optimal_policy(oracle.ProfileTable(i, make_utility(i)))[1]
                  for i in (inst, cost_scaled(inst, 2.0 ** -40))]
        assert values[1] == values[0]
        assert values[0] == pytest.approx(4.8535, abs=1e-4)

    @pytest.mark.parametrize("factor", [1e-12, 2.0 ** -40], ids=["1e-12", "2^-40"])
    def test_ascent_past_a_tiny_K_is_refused(self, factor, tmp_path):
        # the absolute 1e-9 (1 + K) of slack passed a y that sums to 4.0 and
        # spends 1.34 K, against 0.25 K unscaled
        inst = generate_random(4, 3, model="TABLE", seed=6, epsilon=0.1, extension=True)
        small = cost_scaled(inst, factor)
        with pytest.raises(NumericError, match="distribution knapsack violated"):
            continuous_greedy(small, make_utility(small), GreedyConfig())
        path = tmp_path / "small.json"
        save_instance(small, path)
        res = cli("solve", "-i", str(path))
        assert res.returncode == 3 and not res.stdout
        assert res.stderr.splitlines() == ["error: distribution knapsack violated"]

    def test_tiny_gamma_still_solves(self, tmp_path):
        # every reduced cost lay above an absolute -1e-10, so the slack basis
        # looked optimal: y = 0, G = 0, and no ratio
        inst = ladder_instance(3, 3, 1, 0.0, False)
        path = tmp_path / "tiny.json"
        save_instance(scaled(inst, 1e-12), path)
        res = cli("solve", "-i", str(path))
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert np.array(report["fractional"]["y"]).any()
        assert report["fractional"]["G"] == pytest.approx(5.0005e-12, rel=1e-4)
        assert report["oracle"]["policy_value"] > 0
        base = solve(inst, tmp_path, "base")
        assert report["ratio"]["achieved"] == pytest.approx(base["ratio"]["achieved"],
                                                            rel=1e-14)

    def test_small_gamma_takes_the_same_ascent(self):
        # at gamma x 1e-9 the absolute tolerance sent this ascent down
        # another path, with y off by 0.418
        inst = ladder_instance(4, 4, 5, 0.1, False)
        small = scaled(inst, 1e-9)
        want = continuous_greedy(inst, make_utility(inst), GreedyConfig()).final
        got = continuous_greedy(small, make_utility(small), GreedyConfig()).final
        assert np.array_equal(got, want)

    def test_large_coverage_table_passes_the_oracle(self, tmp_path):
        # rounding at gamma x 1000 broke an absolute 1e-12 / n in the grid check
        inst = generate_random(6, 1, model="TABLE", seed=1166, extension=True, epsilon=0.5)
        path = tmp_path / "coverage.json"
        save_instance(scaled(inst, 1000.0), path)
        res = cli("oracle", "-i", str(path), "--points", "1")
        assert res.returncode == 0, res.stdout
        assert json.loads(res.stdout)["all_ok"] is True

    def test_tiny_supermodular_table_fails_the_oracle(self, tmp_path):
        # at gamma x 1e-13 the whole violation lay inside the absolute tolerance
        path = tmp_path / "supermodular.json"
        save_instance(scaled(supermodular_instance(), 1e-13), path)
        res = cli("oracle", "-i", str(path))
        assert res.returncode == 1, res.stderr
        checks = json.loads(res.stdout)["checks"]
        sandwich = next(c for c in checks if c["name"] == "eps_sandwich")
        assert sandwich["witnesses"] == [{"grid_violation": ["submodular", [], 1, 2]}]
