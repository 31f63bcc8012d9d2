import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

from couponcascade.cascade import make_eps_perturbed, make_utility, CascadeUtility
from couponcascade import objective
from couponcascade.instance import generate_random
from couponcascade.objective import (
    cost_exact,
    f_exact,
    f_mc,
    marginal_omega,
    marginal_omega_exact,
    multilinear_F_exact,
    multilinear_F_mc,
)
from couponcascade.oracle import f_exact as enumerated_f
from conftest import ic_instance, modular_table, table_instance
from reference import Allocation, AllocationError, cost_brute_force, pairs_to_profile, seed_prob


def no_edge_instance(adoption, **kw):
    """gamma(U) = |U|: modular table, no interactions."""
    n = np.asarray(adoption).shape[0]
    return table_instance(modular_table([1.0] * n), adoption, **kw)


class TestAllocation:
    def test_one_coupon_per_user(self):
        with pytest.raises(AllocationError, match="at most one coupon"):
            Allocation([(1, 1), (1, 2)])

    def test_dummy_coupon_rejected(self):
        with pytest.raises(AllocationError, match="1-based"):
            Allocation([(1, 0)])

    def test_profile_roundtrip(self):
        alloc = Allocation([(1, 2), (3, 1)])
        assert alloc.profile(3) == (2, 0, 1)
        assert Allocation.from_profile((2, 0, 1)) == alloc


class TestSeedProb:
    def test_empty_everything(self):
        inst = no_edge_instance([[0.5], [0.5]])
        assert seed_prob(inst, Allocation(()), set()) == 1.0

    def test_single_factor(self):
        inst = no_edge_instance([[0.5]])
        assert seed_prob(inst, Allocation([(1, 1)]), {1}) == 0.5

    def test_product(self):
        inst = no_edge_instance([[0.5], [0.25]])
        S = Allocation([(1, 1), (2, 1)])
        assert seed_prob(inst, S, {1}) == pytest.approx(0.5 * 0.75)

    def test_uncouponed_user_never_seeds(self):
        inst = no_edge_instance([[0.5], [0.5]])
        S = Allocation([(1, 1)])
        assert seed_prob(inst, S, {2}) == 0.0
        assert seed_prob(inst, S, {1, 2}) == 0.0

    @pytest.mark.parametrize("n,m", [(3, 2), (4, 1)])
    def test_normalization(self, n, m, rng):
        inst = generate_random(n, m, model="TABLE", seed=11)
        for profile in product(range(m + 1), repeat=n):
            S = Allocation.from_profile(profile)
            total = sum(
                seed_prob(inst, S, frozenset(c))
                for r in range(n + 1)
                for c in combinations(range(1, n + 1), r)
            )
            assert total == pytest.approx(1.0, abs=1e-12)


class TestFExact:
    def test_empty_allocation(self):
        inst = no_edge_instance([[0.5], [0.5]])
        util = make_utility(inst)
        assert f_exact(inst, util, [(0, 0)])[0] == 0.0

    def test_counting_utility(self):
        # gamma(U) = |U|, p = 0.5 each: expectation 0.25*0+0.25+0.25+0.25*2 = 1
        inst = no_edge_instance([[0.5], [0.5]])
        util = make_utility(inst)
        assert f_exact(inst, util, [(1, 1)])[0] == pytest.approx(1.0)

    def test_submodular_table(self):
        table = {frozenset(): 0.0, frozenset({1}): 1.0,
                 frozenset({2}): 1.0, frozenset({1, 2}): 1.5}
        inst = table_instance(table, [[0.5], [0.5]])
        util = make_utility(inst)
        assert f_exact(inst, util, [(1, 1)])[0] == pytest.approx(0.875)

    def test_monotone_in_allocation(self):
        inst = generate_random(3, 2, model="TABLE", seed=21)
        util = make_utility(inst)
        for profile in product(range(3), repeat=3):
            base = f_exact(inst, util, [profile])[0]
            for v in range(3):
                if profile[v] == 0:
                    lifted = list(profile)
                    lifted[v] = 1
                    bigger = f_exact(inst, util, [lifted])[0]
                    assert bigger >= base - 1e-12

    def test_eps_sandwich_against_reference(self):
        # the epsilon band survives the expectation over seed sets
        inst = generate_random(3, 2, model="TABLE", epsilon=0.15, seed=31)
        util = make_utility(inst)
        ref = util.reference_q
        profiles = list(product(range(3), repeat=3))
        for f, g in zip(f_exact(inst, util, profiles), f_exact(inst, ref, profiles)):
            assert (1 - 0.15) * g - 1e-12 <= f <= (1 + 0.15) * g + 1e-12


    def test_row_blocks_bound_memory(self):
        # unblocked, the fold over 4096 profiles at n = 15 takes about 0.5 GB
        inst = generate_random(15, 1, model="IC", edge_density=0.05, seed=1)
        util = make_utility(inst)
        util.gamma_vector()  # cached, so its build stays outside the traced window
        profiles = (np.arange(4096)[:, None] >> np.arange(15)) & 1
        tracemalloc.start()
        try:
            values = f_exact(inst, util, profiles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * objective.BLOCK_ENTRIES * 8
        rows = objective.BLOCK_ENTRIES >> inst.n
        for i in (0, rows - 1, rows, len(profiles) - 1):
            assert values[i] == f_exact(inst, util, profiles[i:i + 1])[0]


class TestFMc:
    def test_empty(self, rng):
        inst = no_edge_instance([[0.5]])
        util = make_utility(inst)
        assert f_mc(inst, util, (0,), 100, rng) == 0.0

    def test_degenerate_coins(self, rng):
        inst = no_edge_instance([[1.0], [1.0]])
        util = make_utility(inst)
        assert f_mc(inst, util, (1, 1), 10, rng) == util.value({1, 2})

    def test_matches_exact(self):
        inst = generate_random(3, 2, seed=41)
        util = make_utility(inst)
        profile = (2, 1, 2)
        exact = f_exact(inst, util, [profile])[0]
        rng = np.random.default_rng(5)
        est = f_mc(inst, util, profile, 100_000, rng)
        # f is bounded by n=3; a generous 3-sigma envelope
        assert abs(est - exact) <= 3 * 3 / np.sqrt(100_000)


class TestCost:
    def test_empty(self):
        inst = no_edge_instance([[0.5]])
        assert cost_exact(inst, [(0,)])[0] == 0.0

    def test_single_bernoulli(self):
        inst = no_edge_instance([[0.5]], coupon_values=np.array([2.0]))
        assert cost_exact(inst, [(1,)])[0] == pytest.approx(1.0)

    def test_factorization_matches_double_sum(self):
        inst = no_edge_instance([[0.5], [0.25]], coupon_values=np.array([2.0]))
        S = Allocation([(1, 1), (2, 1)])
        cost = cost_exact(inst, [S.profile(2)])[0]
        assert cost == pytest.approx(0.5 * 2 + 0.25 * 2)
        assert cost == pytest.approx(cost_brute_force(inst, S), abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_factorization_random(self, seed):
        inst = generate_random(4, 2, model="TABLE", seed=seed)
        rng = np.random.default_rng(seed)
        profile = tuple(rng.integers(0, 3, size=4).tolist())
        S = Allocation.from_profile(profile)
        assert cost_exact(inst, [profile])[0] == pytest.approx(cost_brute_force(inst, S),
                                                              abs=1e-12)


class TestMultilinear:
    def test_agrees_at_integral_points(self):
        inst = generate_random(3, 2, model="TABLE", seed=51)
        util = make_utility(inst)
        for profile in product(range(3), repeat=3):
            S = Allocation.from_profile(profile)
            y = np.zeros((3, 2))
            for v, d in S.pairs:
                y[v - 1, d - 1] = 1.0
            assert multilinear_F_exact(inst, util, y) == pytest.approx(
                f_exact(inst, util, [profile])[0], abs=1e-12)

    def test_zero_matrix(self):
        inst = generate_random(2, 2, model="TABLE", seed=52)
        util = make_utility(inst)
        assert multilinear_F_exact(inst, util, np.zeros((2, 2))) == 0.0

    def test_single_half_entry(self):
        inst = generate_random(2, 2, model="TABLE", seed=53)
        util = make_utility(inst)
        y = np.zeros((2, 2))
        y[0, 1] = 0.5
        expected = 0.5 * f_exact(inst, util, [(2, 0)])[0]
        assert multilinear_F_exact(inst, util, y) == pytest.approx(expected, abs=1e-12)

    def test_mc_matches_exact(self):
        inst = generate_random(2, 2, seed=54)
        util = make_utility(inst)
        rng = np.random.default_rng(3)
        y = rng.random((2, 2)) * 0.8
        exact = multilinear_F_exact(inst, util, y)
        est = multilinear_F_mc(inst, util, y, 100_000, np.random.default_rng(4))
        assert abs(est - exact) <= 3 * 2 / np.sqrt(100_000)


class TestMarginals:
    def test_at_zero_matches_singletons(self, rng):
        inst = generate_random(3, 2, model="TABLE", seed=61)
        util = make_utility(inst)
        omega = marginal_omega(inst, util, np.zeros((3, 2)), 50, rng)
        for v in range(1, 4):
            for d in range(1, 3):
                single = f_exact(inst, util, [Allocation([(v, d)]).profile(3)])[0]
                assert omega[v - 1, d - 1] == pytest.approx(single, abs=1e-9)

    def test_saturated_entry_is_zero(self, rng):
        inst = generate_random(2, 1, model="TABLE", seed=62)
        util = make_utility(inst)
        y = np.array([[1.0], [0.0]])
        omega = marginal_omega(inst, util, y, 200, rng)
        assert omega[0, 0] == 0.0

    def test_sampled_tracks_exact(self):
        inst = generate_random(2, 1, model="TABLE", seed=63)
        util = make_utility(inst)
        y = np.array([[0.4], [0.6]])
        exact = marginal_omega_exact(inst, util, y)
        est = marginal_omega(inst, util, y, 50_000, np.random.default_rng(7))
        assert np.all(np.abs(est - exact) <= 3 * 2 / np.sqrt(50_000) + 1e-9)


def reference_F(inst, util, y):
    """F(y) by enumerating every entry mask, each f by the oracle's enumeration."""
    entries = [(v, d) for v in range(1, inst.n + 1) for d in range(1, inst.m + 1)]
    weights, profiles = [], []
    for mask in range(1 << len(entries)):
        weight, pairs = 1.0, []
        for i, (v, d) in enumerate(entries):
            if mask >> i & 1:
                weight *= y[v - 1, d - 1]
                pairs.append((v, d))
            else:
                weight *= 1.0 - y[v - 1, d - 1]
        weights.append(weight)
        profiles.append(pairs_to_profile(pairs, inst.n))
    return float(np.dot(weights, enumerated_f(inst, util, profiles)))


def reference_draws(inst, util, y, samples, rng):
    """f of each sampled profile and the lift loop over every (v, d), by enumeration."""
    inclusion = rng.random((samples, inst.n, inst.m)) < y
    profiles = (inclusion * np.arange(1, inst.m + 1)).max(axis=2)
    base = enumerated_f(inst, util, profiles)
    omega = np.zeros((inst.n, inst.m))
    for v in range(inst.n):
        for d in range(1, inst.m + 1):
            lifted = profiles.copy()
            lifted[:, v] = np.maximum(lifted[:, v], d)
            omega[v, d - 1] = sum(enumerated_f(inst, util, lifted) - base)
    return np.mean(base), np.maximum(omega / samples, 0.0)


CLOSED_FORM_CASES = [
    pytest.param("TABLE", eps, id=f"TABLE-eps{eps}") for eps in (0.0, 0.1)
] + [pytest.param("IC", eps, id=f"IC-eps{eps}") for eps in (0.0, 0.1)]


def closed_form_case(model, eps):
    n, m = (3, 3) if model == "TABLE" else (3, 2)
    inst = generate_random(n, m, model=model, edge_density=0.6, epsilon=eps, seed=71)
    y = np.random.default_rng(72).uniform(0.0, 1.0, size=(n, m))
    y[0, -1] = 1.0  # saturated top coupon: every lower entry of user 1 gains nothing
    y[1, 0] = 0.0
    return inst, make_utility(inst), y


# objective.f_exact folds BLOCK_ENTRIES >> n profiles at a time: 256 at
# n = 12, so the 4096 profiles of an n = 12 case span 16 row blocks.
F_EXACT_CASES = [pytest.param(*case.values, 3, id=case.id) for case in CLOSED_FORM_CASES] + [
    pytest.param(model, 0.1, 12, id=f"{model}-eps0.1-n12-row-blocks") for model in ("TABLE", "IC")
]


class TestClosedFormAgainstEnumeration:
    @pytest.mark.parametrize("model,eps,n", F_EXACT_CASES)
    def test_f_exact(self, model, eps, n):
        if n == 3:
            inst, util, _ = closed_form_case(model, eps)
        else:
            inst = generate_random(n, 1, model=model, edge_density=0.1, epsilon=eps, seed=74)
            util = make_utility(inst)
        profiles = list(product(range(inst.m + 1), repeat=inst.n))
        expected = enumerated_f(inst, util, profiles)
        got = f_exact(inst, util, profiles)
        assert got == pytest.approx(expected, abs=1e-12)
        assert np.allclose(got, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("model,eps", CLOSED_FORM_CASES)
    def test_F_and_exact_marginals(self, model, eps):
        inst, util, y = closed_form_case(model, eps)
        base = reference_F(inst, util, y)
        assert multilinear_F_exact(inst, util, y) == pytest.approx(base, abs=1e-12)
        omega = marginal_omega_exact(inst, util, y)
        for v in range(inst.n):
            for d in range(inst.m):
                raised = y.copy()
                raised[v, d] = 1.0
                expected = max(reference_F(inst, util, raised) - base, 0.0)
                assert omega[v, d] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("model,eps", CLOSED_FORM_CASES)
    def test_sampled_over_the_same_draws(self, model, eps):
        inst, util, y = closed_form_case(model, eps)
        F_ref, omega_ref = reference_draws(inst, util, y, 40, np.random.default_rng(73))
        omega = marginal_omega(inst, util, y, 40, np.random.default_rng(73))
        assert np.allclose(omega, omega_ref, rtol=0.0, atol=1e-12)
        F_est = multilinear_F_mc(inst, util, y, 40, np.random.default_rng(73))
        assert F_est == pytest.approx(F_ref, abs=1e-12)
