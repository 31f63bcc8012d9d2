from itertools import combinations, product

import numpy as np
import pytest

from couponcascade import oracle
from couponcascade.cascade import make_utility
from couponcascade.instance import generate_random
from couponcascade.objective import Allocation, cost_exact, f_exact
from couponcascade.oracle import (
    OracleError,
    concave_extension_value,
    enumerate_feasible_allocations,
    solve_concave_relaxation,
    solve_optimal_policy,
    verify_concave_dominance,
    verify_eps_sandwich,
)
from conftest import modular_table, table_instance


def enumerated_f(inst, util, profile):
    """f of one coupon profile by enumerating the seed sets of its offered
    users one combination at a time: the reference for `oracle.f_exact`."""
    offered = [v for v in range(1, inst.n + 1) if profile[v - 1]]
    probs = [inst.p(v, profile[v - 1]) for v in offered]
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
        profiles = enumerate_feasible_allocations(inst, respect_K=False)
        expected = [enumerated_f(inst, util, p) for p in profiles]
        assert np.allclose(oracle.f_exact(inst, util, profiles), expected, rtol=1e-12, atol=0)

    def test_many_row_blocks(self):
        inst = generate_random(10, 1, model="TABLE", epsilon=0.1, seed=82)
        util = make_utility(inst)
        profiles = enumerate_feasible_allocations(inst, respect_K=False)
        rows = oracle.BLOCK_ENTRIES >> inst.n
        assert len(profiles) >= 8 * rows  # the batch spans many blocks
        values = oracle.f_exact(inst, util, profiles)
        picks = sorted({0, rows - 1, rows, rows + 1, 5 * rows + 3, len(profiles) - 1}
                       | set(range(7, len(profiles), 97)))
        expected = [enumerated_f(inst, util, profiles[i]) for i in picks]
        assert np.allclose(values[picks], expected, rtol=1e-12, atol=0)

    def test_negative_control_utility(self):
        inst = table_instance(modular_table([1.0, 1.0, 1.0]), [[0.5, 0.7], [0.2, 0.4], [0.9, 1.0]])
        profiles = enumerate_feasible_allocations(inst)
        for util in (Bad(), Bad().reference_q):
            expected = [enumerated_f(inst, util, p) for p in profiles]
            assert np.allclose(oracle.f_exact(inst, util, profiles), expected,
                               rtol=1e-12, atol=0)

    def test_one_value_per_seed_set(self):
        inst = generate_random(4, 2, model="TABLE", seed=83)
        util = make_utility(inst)
        seen = []

        class Counted:
            exact = True

            def value(self, U):
                seen.append(U)
                return util.value(U)

        oracle.f_exact(inst, Counted(), enumerate_feasible_allocations(inst))
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
        allocs = enumerate_feasible_allocations(inst)
        assert len(allocs) == 3  # empty, {1}, {2}; both together cost 10 > 5

    def test_profiles_in_lexicographic_order(self):
        inst = generate_random(4, 2, model="TABLE", seed=84, extension=True)
        affordable = [p for p in product(range(3), repeat=4)
                      if sum(inst.dist_cost[v] for v, d in enumerate(p) if d) <= inst.budget_K]
        assert 0 < len(affordable) < 3 ** 4
        assert enumerate_feasible_allocations(inst) == affordable
        assert enumerate_feasible_allocations(inst, respect_K=False) == list(
            product(range(3), repeat=4))

    def test_size_limit(self):
        inst = table_instance(modular_table([1.0, 1.0]), [[0.5], [0.5]])
        with pytest.raises(OracleError, match="enumeration"):
            enumerate_feasible_allocations(inst, limit=2)


class TestOptimalPolicy:
    def test_affordable_singleton(self):
        inst = table_instance({frozenset(): 0.0, frozenset({1}): 2.0},
                              [[0.5]], budget_B=10.0)
        util = make_utility(inst)
        policy, value = solve_optimal_policy(inst, util)
        assert value == pytest.approx(0.5 * 2.0)
        assert any(len(a) == 1 for a, p in policy.support if p > 0.5)

    def test_unaffordable_means_empty(self):
        # cheapest nonempty allocation costs 0.5; budget below that
        inst = table_instance({frozenset(): 0.0, frozenset({1}): 2.0},
                              [[0.5]], budget_B=0.01)
        util = make_utility(inst)
        policy, value = solve_optimal_policy(inst, util)
        # the only way to spend within budget is heavy mass on the empty set
        assert value == pytest.approx(0.01 / 0.5 * 1.0, rel=1e-9)

    def test_budget_mixture(self):
        # one allocation dominates but exceeds B: optimum mixes with the
        # empty set at theta = B / c(S*)
        inst = table_instance({frozenset(): 0.0, frozenset({1}): 3.0},
                              [[1.0]], coupon_values=np.array([2.0]), budget_B=1.0)
        util = make_utility(inst)
        policy, value = solve_optimal_policy(inst, util)
        S = Allocation([(1, 1)])
        theta_star = inst.budget_B / cost_exact(inst, S)
        assert value == pytest.approx(theta_star * f_exact(inst, util, S))
        probs = {tuple(sorted(a.pairs)): p for a, p in policy.support}
        assert probs[((1, 1),)] == pytest.approx(theta_star)

    def test_support_size_at_most_two(self):
        for seed in range(5):
            inst = generate_random(3, 2, model="TABLE", seed=seed)
            util = make_utility(inst)
            policy, _ = solve_optimal_policy(inst, util)
            assert len(policy.support) <= 2

    def test_policy_is_feasible(self):
        inst = generate_random(3, 2, model="TABLE", seed=17)
        util = make_utility(inst)
        policy, _ = solve_optimal_policy(inst, util)
        expected_cost = sum(p * cost_exact(inst, a) for a, p in policy.support)
        assert expected_cost <= inst.budget_B + 1e-9


class TestConcaveRelaxation:
    def test_generous_budget_reaches_best_allocation(self):
        inst = generate_random(3, 2, model="TABLE", seed=18)
        big = table_instance(inst.gamma_table, inst.adoption,
                             coupon_values=inst.coupon_values, budget_B=100.0)
        util = make_utility(big)
        _, value = solve_concave_relaxation(big, util, "PB")
        best = max(f_exact(big, util, Allocation.from_profile(p))
                   for p in enumerate_feasible_allocations(big))
        assert value == pytest.approx(best, rel=1e-8)

    @pytest.mark.parametrize("seed", range(6))
    def test_relaxation_dominates_policy(self, seed):
        inst = generate_random(3, 2, model="TABLE", seed=seed,
                               epsilon=0.1 if seed % 2 else 0.0)
        util = make_utility(inst)
        _, policy_value = solve_optimal_policy(inst, util)
        _, relax_value = solve_concave_relaxation(inst, util, "PB")
        assert relax_value >= policy_value - 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_scaled_relaxation_lower_bound(self, seed):
        inst = generate_random(3, 2, model="TABLE", seed=seed, extension=True)
        util = make_utility(inst)
        b = 0.25
        _, pb1 = solve_concave_relaxation(inst, util, "PB1")
        _, pb2 = solve_concave_relaxation(inst, util, "PB2", b=b)
        assert pb2 >= b * pb1 - 1e-8

    def test_extension_at_integral_point_dominates_f(self):
        inst = generate_random(2, 2, model="TABLE", seed=19)
        util = make_utility(inst)
        S = Allocation([(1, 2), (2, 1)])
        y = np.zeros((2, 2))
        for v, d in S.pairs:
            y[v - 1, d - 1] = 1.0
        assert concave_extension_value(inst, util, y) >= f_exact(inst, util, S) - 1e-9

    def test_zero_point_is_zero(self):
        inst = generate_random(2, 2, model="TABLE", seed=20)
        util = make_utility(inst)
        assert concave_extension_value(inst, util, np.zeros((2, 2))) == pytest.approx(0.0, abs=1e-12)

    def test_mode_validation(self):
        inst = generate_random(2, 1, model="TABLE", seed=21)
        util = make_utility(inst)
        with pytest.raises(OracleError, match="budget_K"):
            solve_concave_relaxation(inst, util, "PB1")
        with pytest.raises(OracleError, match="unknown relaxation"):
            solve_concave_relaxation(inst, util, "XX")


class TestSandwichVerifier:
    def test_eps_zero_trivially_tight(self):
        inst = generate_random(3, 2, model="TABLE", seed=22)
        report = verify_eps_sandwich(inst, make_utility(inst))
        assert report.ok and report.max_violation == 0.0

    def test_perturbed_passes_by_construction(self):
        inst = generate_random(3, 2, model="TABLE", seed=23, epsilon=0.2)
        report = verify_eps_sandwich(inst, make_utility(inst))
        assert report.ok

    def test_negative_control(self):
        inst = table_instance(modular_table([1.0, 1.0]), [[0.5], [0.5]])
        report = verify_eps_sandwich(inst, Bad())
        assert not report.ok
        assert report.witnesses


class TestDominanceVerifier:
    def test_eps_zero_equality(self):
        inst = generate_random(2, 2, model="TABLE", seed=24)
        report = verify_concave_dominance(inst, make_utility(inst), points=3)
        assert report.ok and report.max_violation == 0.0

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
    def test_perturbed_dominated(self, eps):
        inst = generate_random(3, 2, model="TABLE", seed=25, epsilon=eps)
        report = verify_concave_dominance(inst, make_utility(inst), points=4)
        assert report.ok
