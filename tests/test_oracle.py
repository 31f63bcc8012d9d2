import json
import time
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

from couponcascade import oracle
from couponcascade.cascade import make_utility
from couponcascade.instance import generate_random, save_instance
from couponcascade.objective import cost_exact, f_exact
from couponcascade.oracle import (
    OracleError,
    ProfileTable,
    enumerate_feasible_allocations,
    solve_concave_relaxation,
    solve_optimal_policy,
    verify_concave_dominance,
    verify_eps_sandwich,
)
from couponcascade.polytope_lp import NumericError, solve_generic_lp
from conftest import modular_table, run_cli, table_instance
from reference import oracle_f_at, oracle_f_hstack, solve_concave_relaxation_joint


def enumerated_f(inst, util, profile):
    """f of one coupon profile by enumerating the seed sets of its offered
    users one combination at a time: the reference for `oracle.f_exact`."""
    offered = [v for v in range(1, inst.n + 1) if profile[v - 1]]
    probs = [inst.adoption[v - 1, profile[v - 1] - 1] for v in offered]
    total = 0.0
    for r in range(len(offered) + 1):
        for combo in combinations(range(len(offered)), r):
            chosen = set(combo)
            pr = 1.0
            for i, p in enumerate(probs):
                pr *= p if i in chosen else 1.0 - p
            if pr:
                total += pr * util.value(frozenset(offered[i] for i in chosen))
    return total


class Bad:
    """A fake perturbed utility whose values escape the claimed band."""

    exact = True
    epsilon = 0.1

    def value(self, U):
        return 10.0 if U else 0.0

    @property
    def reference_q(self):
        class Ref:
            exact = True

            def value(self, U):
                return float(len(U))
        return Ref()


class TestBatchedF:
    @pytest.mark.parametrize("model,n,m", [("TABLE", 3, 3), ("IC", 4, 2)])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_matches_enumeration(self, model, n, m, eps):
        inst = generate_random(n, m, model=model, edge_density=0.5, epsilon=eps, seed=81)
        util = make_utility(inst)
        profiles = enumerate_feasible_allocations(inst)
        expected = [enumerated_f(inst, util, p) for p in profiles]
        assert np.allclose(oracle.f_exact(inst, util), expected, rtol=1e-12, atol=0)

    def test_matches_enumeration_at_ten_users(self):
        inst = generate_random(10, 1, model="TABLE", epsilon=0.1, seed=82)
        util = make_utility(inst)
        profiles = enumerate_feasible_allocations(inst)
        values = oracle.f_exact(inst, util)
        assert len(values) == len(profiles) == 1024
        picks = sorted({0, 1, 511, 512, len(profiles) - 1} | set(range(7, len(profiles), 97)))
        expected = [enumerated_f(inst, util, profiles[i]) for i in picks]
        assert np.allclose(values[picks], expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("model", ["TABLE", "IC"])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_grid_matches_hstack(self, model, eps):
        # every n <= 8, m <= 4 within the enumeration limit, against the
        # explicit Pr(U; S) rows of every profile; IC at <= 20 edges is exact
        for n, m in product(range(1, 9), range(1, 5)):
            if (m + 1) ** n > oracle.ENUMERATION_LIMIT:
                continue
            inst = generate_random(n, m, model=model, edge_density=0.25, epsilon=eps,
                                   seed=90 + 10 * n + m)
            util = make_utility(inst)
            profiles = enumerate_feasible_allocations(inst)
            assert np.allclose(oracle.f_exact(inst, util), oracle_f_hstack(inst, util, profiles),
                               rtol=1e-13, atol=0), (n, m)

    def test_grid_matches_hstack_at_thirteen_users(self):
        inst = generate_random(13, 1, model="IC", edge_density=0.06, epsilon=0.1, seed=1)
        util = make_utility(inst)
        profiles = enumerate_feasible_allocations(inst)
        assert np.allclose(oracle.f_exact(inst, util), oracle_f_hstack(inst, util, profiles),
                           rtol=1e-13, atol=0)

    @pytest.mark.parametrize("model,n,m,eps", [("IC", 15, 1, 0.1), ("TABLE", 7, 4, 0.0)])
    def test_grid_bounds_memory(self, model, n, m, eps):
        # gamma as a Python list (32 bytes an entry) and a few float arrays
        # of the larger of gamma and the grid; one Pr(U; S) row per profile
        # would take 8 * 2^n bytes a profile
        inst = generate_random(n, m, model=model, edge_density=0.06, epsilon=eps, seed=1)
        util = make_utility(inst)
        util.value(frozenset())  # the utility's own lazy state is built outside the trace
        tracemalloc.start()
        try:
            values = oracle.f_exact(inst, util)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(values) == (inst.m + 1) ** inst.n
        assert peak <= 64 * max(2 ** inst.n, (inst.m + 1) ** inst.n)

    def test_enumeration_limit_before_any_value(self):
        # 3^15 profiles: the size rule holds before gamma is read or a grid built
        inst = generate_random(15, 2, model="IC", edge_density=0.02, seed=1)
        assert make_utility(inst).exact

        class Unread:
            exact = True

            def value(self, U):
                raise AssertionError("gamma read before the enumeration limit")

        with pytest.raises(OracleError, match="enumeration of 14348907 allocations exceeds "
                                              "the limit 100000"):
            oracle.f_exact(inst, Unread())

    def test_negative_control_utility(self):
        inst = table_instance(modular_table([1.0, 1.0, 1.0]), [[0.5, 0.7], [0.2, 0.4], [0.9, 1.0]])
        profiles = enumerate_feasible_allocations(inst)
        for util in (Bad(), Bad().reference_q):
            expected = [enumerated_f(inst, util, p) for p in profiles]
            assert np.allclose(oracle.f_exact(inst, util), expected, rtol=1e-12, atol=0)

    def test_one_value_per_seed_set(self):
        inst = generate_random(4, 2, model="TABLE", seed=83)
        util = make_utility(inst)
        seen = []

        class Counted:
            exact = True

            def value(self, U):
                seen.append(U)
                return util.value(U)

        oracle.f_exact(inst, Counted())
        assert sorted(map(sorted, seen)) == sorted(
            sorted(c) for r in range(5) for c in combinations(range(1, 5), r))


class TestEnumeration:
    def test_two_users_one_coupon(self):
        inst = table_instance(modular_table([1.0, 1.0]), [[0.5], [0.5]])
        assert len(enumerate_feasible_allocations(inst)) == 4

    def test_one_user_two_coupons(self):
        inst = table_instance(modular_table([1.0]), [[0.5, 0.5]])
        assert len(enumerate_feasible_allocations(inst)) == 3

    def test_distribution_filter(self):
        inst = table_instance(modular_table([1.0, 1.0]), [[0.5], [0.5]],
                              dist_cost=np.array([5.0, 5.0]), budget_K=5.0)
        table = ProfileTable(inst, make_utility(inst))
        assert len(enumerate_feasible_allocations(inst)) == 4
        # empty, {1}, {2}; both together cost 10 > 5
        assert table.profiles[table.within_K].tolist() == [[0, 0], [0, 1], [1, 0]]

    def test_profiles_in_lexicographic_order(self):
        inst = generate_random(4, 2, model="TABLE", seed=84, extension=True)
        affordable = [p for p in product(range(3), repeat=4)
                      if sum(inst.dist_cost[v] for v, d in enumerate(p) if d) <= inst.budget_K]
        assert 0 < len(affordable) < 3 ** 4
        table = ProfileTable(inst, make_utility(inst))
        assert list(map(tuple, table.profiles[table.within_K].tolist())) == affordable
        assert enumerate_feasible_allocations(inst) == list(product(range(3), repeat=4))
        assert table.profiles.tolist() == list(map(list, product(range(3), repeat=4)))

    def test_size_limit(self, monkeypatch):
        inst = table_instance(modular_table([1.0, 1.0]), [[0.5], [0.5]])
        monkeypatch.setattr(oracle, "ENUMERATION_LIMIT", 2)
        with pytest.raises(OracleError, match="enumeration"):
            enumerate_feasible_allocations(inst)


class TestOptimalPolicy:
    def test_affordable_singleton(self):
        inst = table_instance({frozenset(): 0.0, frozenset({1}): 2.0},
                              [[0.5]], budget_B=10.0)
        util = make_utility(inst)
        policy, value = solve_optimal_policy(ProfileTable(inst, util))
        assert value == pytest.approx(0.5 * 2.0)
        assert any(np.count_nonzero(a) == 1 for a, p in policy.support if p > 0.5)

    def test_unaffordable_means_empty(self):
        # cheapest nonempty allocation costs 0.5; budget below that
        inst = table_instance({frozenset(): 0.0, frozenset({1}): 2.0},
                              [[0.5]], budget_B=0.01)
        util = make_utility(inst)
        policy, value = solve_optimal_policy(ProfileTable(inst, util))
        # the only way to spend within budget is heavy mass on the empty set
        assert value == pytest.approx(0.01 / 0.5 * 1.0, rel=1e-9)

    def test_budget_mixture(self):
        # one allocation dominates but exceeds B: optimum mixes with the
        # empty set at theta = B / c(S*)
        inst = table_instance({frozenset(): 0.0, frozenset({1}): 3.0},
                              [[1.0]], coupon_values=np.array([2.0]), budget_B=1.0)
        util = make_utility(inst)
        policy, value = solve_optimal_policy(ProfileTable(inst, util))
        S = [(1,)]
        theta_star = inst.budget_B / cost_exact(inst, S)[0]
        assert value == pytest.approx(theta_star * f_exact(inst, util, S)[0])
        probs = dict(policy.support)
        assert probs[(1,)] == pytest.approx(theta_star)

    def test_support_size_at_most_two(self):
        for seed in range(5):
            inst = generate_random(3, 2, model="TABLE", seed=seed)
            util = make_utility(inst)
            policy, _ = solve_optimal_policy(ProfileTable(inst, util))
            assert len(policy.support) <= 2

    def test_policy_is_feasible(self):
        inst = generate_random(3, 2, model="TABLE", seed=17)
        util = make_utility(inst)
        policy, _ = solve_optimal_policy(ProfileTable(inst, util))
        expected_cost = sum(p * cost_exact(inst, [a])[0] for a, p in policy.support)
        assert expected_cost <= inst.budget_B + 1e-9


    @pytest.mark.parametrize("seed", range(4))
    def test_extended_policy_keeps_to_K(self, seed):
        # the policy LP's columns are the profiles within K, and only those
        inst = generate_random(3, 2, model="TABLE", seed=seed, extension=True)
        util = make_utility(inst)
        policy, value = solve_optimal_policy(ProfileTable(inst, util))
        affordable = [p for p in product(range(3), repeat=3)
                      if sum(inst.dist_cost[v] for v, d in enumerate(p) if d) <= inst.budget_K]
        assert len(affordable) < 3 ** 3
        A = np.vstack([np.ones(len(affordable)), cost_exact(inst, affordable)])
        want = solve_generic_lp(f_exact(inst, util, affordable), A, [1.0, inst.budget_B])
        assert value == pytest.approx(want.objective_value, rel=1e-12)
        assert all(profile in affordable for profile, _ in policy.support)


class TestConcaveRelaxation:
    def test_generous_budget_reaches_best_allocation(self):
        inst = generate_random(3, 2, model="TABLE", seed=18)
        big = table_instance(inst.gamma_table, inst.adoption,
                             coupon_values=inst.coupon_values, budget_B=100.0)
        util = make_utility(big)
        _, value = solve_concave_relaxation(ProfileTable(big, util), "PB")
        best = max(f_exact(big, util, enumerate_feasible_allocations(big)))
        assert value == pytest.approx(best, rel=1e-8)

    @pytest.mark.parametrize("seed", range(6))
    def test_relaxation_dominates_policy(self, seed):
        inst = generate_random(3, 2, model="TABLE", seed=seed,
                               epsilon=0.1 if seed % 2 else 0.0)
        util = make_utility(inst)
        _, policy_value = solve_optimal_policy(ProfileTable(inst, util))
        _, relax_value = solve_concave_relaxation(ProfileTable(inst, util), "PB")
        assert relax_value >= policy_value - 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_scaled_relaxation_lower_bound(self, seed):
        inst = generate_random(3, 2, model="TABLE", seed=seed, extension=True)
        util = make_utility(inst)
        b = 0.25
        _, pb1 = solve_concave_relaxation(ProfileTable(inst, util), "PB1")
        _, pb2 = solve_concave_relaxation(ProfileTable(inst, util), "PB2", b=b)
        assert pb2 >= b * pb1 - 1e-8

    def test_extension_at_integral_point_dominates_f(self):
        inst = generate_random(2, 2, model="TABLE", seed=19)
        util = make_utility(inst)
        y = np.array([[0.0, 1.0], [1.0, 0.0]])
        f_S = f_exact(inst, util, [(2, 1)])[0]
        table = ProfileTable(inst, util)
        assert oracle._extension_lp(table, table.f, y).objective_value >= f_S - 1e-9

    def test_zero_point_is_zero(self):
        inst = generate_random(2, 2, model="TABLE", seed=20)
        table = ProfileTable(inst, make_utility(inst))
        value = oracle._extension_lp(table, table.f, np.zeros((2, 2))).objective_value
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_mode_validation(self):
        inst = generate_random(2, 1, model="TABLE", seed=21)
        util = make_utility(inst)
        with pytest.raises(OracleError, match="budget_K"):
            solve_concave_relaxation(ProfileTable(inst, util), "PB1")
        with pytest.raises(OracleError, match="unknown relaxation"):
            solve_concave_relaxation(ProfileTable(inst, util), "XX")


def joint_y_violation(inst, y, k_bound):
    """Largest excess of y over the joint LP's y rows and the box."""
    excess = [-y.min(), y.max() - 1.0, y.sum(axis=1).max() - 1.0,
              float(np.sum(inst.redemption_weights * y)) - inst.budget_B]
    if k_bound is not None:
        excess.append(float(np.sum(inst.dist_cost[:, None] * y)) - k_bound)
    return max(excess)


class TestRelaxationAgainstJointLp:
    @pytest.mark.parametrize("n,m", [(1, 3), (2, 1), (3, 3), (4, 2), (5, 3)])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    @pytest.mark.parametrize("extension", [False, True])
    @pytest.mark.parametrize("model", ["TABLE", "IC"])
    def test_matches_joint_lp(self, model, extension, eps, n, m):
        inst = generate_random(n, m, model=model, edge_density=0.5, epsilon=eps,
                               seed=91 + 10 * n + m, extension=extension)
        util = make_utility(inst)
        for mode in ("PB", "PB1", "PB2") if extension else ("PB",):
            y_plus, value = solve_concave_relaxation(ProfileTable(inst, util), mode, b=0.25)
            _, joint = solve_concave_relaxation_joint(inst, util, mode, b=0.25)
            assert abs(value - joint) <= 1e-12 * abs(joint), (mode, value, joint)
            k_bound = None if mode == "PB" else inst.budget_K * (0.25 if mode == "PB2" else 1)
            assert y_plus.shape == (n, m)
            assert joint_y_violation(inst, y_plus, k_bound) <= 1e-9

    def test_base_mode_is_the_policy_lp(self):
        for seed in range(3):
            inst = generate_random(4, 2, model="TABLE", seed=seed, epsilon=0.1)
            util = make_utility(inst)
            assert solve_concave_relaxation(ProfileTable(inst, util), "PB")[1] == \
                solve_optimal_policy(ProfileTable(inst, util))[1]


class TestJointCertificate:
    """The lifted certificate rejects a profile-LP optimum that is not the
    joint LP's: here the profile LP loses its distribution-knapsack row."""

    @pytest.fixture
    def binding(self):
        # the distribution knapsack binds in PB2: PB's value is higher
        inst = generate_random(4, 2, model="TABLE", seed=5, extension=True)
        util = make_utility(inst)
        _, pb2 = solve_concave_relaxation(ProfileTable(inst, util), "PB2")
        _, pb = solve_concave_relaxation(ProfileTable(inst, util), "PB")
        assert pb > pb2 * (1 + 1e-6)
        return inst, util, pb2

    def test_dropped_row_fails_the_primal_check(self, binding, monkeypatch):
        inst, util, pb2 = binding
        values = []

        def without_k_row(c, A, b, start=None):
            sol = solve_generic_lp(c, A[:2], b[:2])
            values.append(sol.objective_value)
            # a dual that prices the dropped row at zero passes the dual checks
            sol.dual = np.append(sol.dual, 0.0)
            return sol

        monkeypatch.setattr(oracle, "solve_generic_lp", without_k_row)
        with pytest.raises(NumericError, match="joint LP's rows"):
            solve_concave_relaxation(ProfileTable(inst, util), "PB2")
        assert values[0] > pb2 * (1 + 1e-6)

    def test_unpriced_row_fails_the_dual_check(self, binding, monkeypatch):
        inst, util, _ = binding

        def kappa_zero(c, A, b, start=None):
            sol = solve_generic_lp(c, A, b)
            assert sol.dual[2] > 0
            sol.dual[2] = 0.0
            return sol

        monkeypatch.setattr(oracle, "solve_generic_lp", kappa_zero)
        with pytest.raises(NumericError):
            solve_concave_relaxation(ProfileTable(inst, util), "PB2")


class TestLargeRelaxation:
    """TABLE 7x4, 78,125 profiles: the joint (alpha, y) LP of PB stalled here
    (exit 3 after 268 s); the profile LP takes a few pivots."""

    PB_VALUE = 11.969456458100987

    def test_pb_value(self):
        inst = generate_random(7, 4, model="TABLE", seed=1)
        start = time.perf_counter()
        _, value = solve_concave_relaxation(ProfileTable(inst, make_utility(inst)), "PB")
        assert time.perf_counter() - start < 60
        assert abs(value - self.PB_VALUE) <= 1e-12 * self.PB_VALUE

    def test_oracle_command(self, tmp_path):
        path = tmp_path / "d7.json"
        save_instance(generate_random(7, 4, model="TABLE", seed=1), path)
        start = time.perf_counter()
        res = run_cli("oracle", "-i", str(path), "--points", "1")
        assert time.perf_counter() - start < 60
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["all_ok"] is True


class TestSandwichVerifier:
    def test_eps_zero_trivially_tight(self):
        inst = generate_random(3, 2, model="TABLE", seed=22)
        report = verify_eps_sandwich(ProfileTable(inst, make_utility(inst)))
        assert report["ok"] and report["max_violation"] == 0.0

    def test_perturbed_passes_by_construction(self):
        inst = generate_random(3, 2, model="TABLE", seed=23, epsilon=0.2)
        report = verify_eps_sandwich(ProfileTable(inst, make_utility(inst)))
        assert report["ok"]

    def test_negative_control(self):
        inst = table_instance(modular_table([1.0, 1.0]), [[0.5], [0.5]])
        report = verify_eps_sandwich(ProfileTable(inst, Bad()))
        assert not report["ok"]
        assert report["witnesses"]

    @staticmethod
    def grid(n, m):
        """The sandwich's grid: user v + 1 gets coupon v % m + 1 when bit v
        of the row number is set, else none."""
        offered = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        return offered * (np.arange(n) % m + 1)

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("m", range(1, 4))
    def test_grid_profiles_are_table_rows(self, n, m):
        # profile S sits at row sum_v S_v (m+1)^(n-1-v) of the enumeration
        inst = generate_random(n, m, model="IC", edge_density=0.0, seed=n)
        grid = self.grid(n, m)
        index = grid @ (m + 1) ** (n - 1 - np.arange(n))
        assert np.array_equal(ProfileTable(inst, make_utility(inst)).profiles[index], grid)

    @pytest.mark.parametrize("model", ["TABLE", "IC"])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    @pytest.mark.parametrize("n,m", [(1, 2), (2, 3), (3, 1), (4, 2), (5, 3), (6, 1)])
    def test_grid_values_read_from_the_table(self, monkeypatch, model, eps, n, m):
        # the submodularity check gets, bit for bit, g of the grid's rows of a separate f pass
        seen = []
        original = oracle.check_submodular_monotone
        monkeypatch.setattr(oracle, "check_submodular_monotone",
                            lambda values: seen.append(values) or original(values))
        inst = generate_random(n, m, model=model, edge_density=0.4, epsilon=eps, seed=10 * n + m)
        util = make_utility(inst)
        assert verify_eps_sandwich(ProfileTable(inst, util))["ok"]
        (values,) = seen
        assert np.array_equal(values, oracle_f_at(inst, util.reference_q, self.grid(n, m)))


class TestDominanceVerifier:
    def test_eps_zero_equality(self):
        inst = generate_random(2, 2, model="TABLE", seed=24)
        report = verify_concave_dominance(ProfileTable(inst, make_utility(inst)), points=3)
        assert report["ok"] and report["max_violation"] == 0.0

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
    def test_perturbed_dominated(self, eps):
        inst = generate_random(3, 2, model="TABLE", seed=25, epsilon=eps)
        report = verify_concave_dominance(ProfileTable(inst, make_utility(inst)), points=4)
        assert report["ok"]

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_smaller_reference_fails_at_every_point(self, eps):
        # g at half of f halves its extension, so f+ exceeds (1 + eps) g+
        # wherever f+ > 0, and each point is a witness
        inst = generate_random(3, 2, model="TABLE", seed=25, epsilon=eps)
        table = ProfileTable(inst, make_utility(inst))
        table.__dict__["g"] = 0.5 * table.f
        report = verify_concave_dominance(table, points=3)
        assert report["ok"] is False and len(report["witnesses"]) == 3
        excess = []
        for witness in report["witnesses"]:
            assert witness["f_plus"] > (1 + eps) * witness["g_plus"] > 0
            excess.append(witness["f_plus"] - (1 + eps) * witness["g_plus"])
        assert report["max_violation"] == max(excess) > 0

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.3])
    @pytest.mark.parametrize("seed", range(3))
    def test_reference_lp_warm_starts_from_the_perturbed_one(self, eps, seed):
        # same rows, another objective: the warm start reaches the cold optimum
        inst = generate_random(3, 3, model="TABLE", seed=40 + seed, epsilon=eps)
        table = ProfileTable(inst, make_utility(inst))
        y = np.random.default_rng(seed).random((3, 3)) / 3.0
        f_sol = oracle._extension_lp(table, table.f, y)
        warm = oracle._extension_lp(table, table.g, y, start=f_sol.final)
        cold = oracle._extension_lp(table, table.g, y)
        assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-12)
        assert warm.pivots <= cold.pivots
        if eps == 0.0:  # the reference is the objective itself
            assert warm.pivots == 0
