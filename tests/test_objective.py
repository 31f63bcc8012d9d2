import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

from couponcascade.cascade import make_utility, CascadeUtility
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
from conftest import ic_instance, modular_table, table_instance
from reference import (
    Allocation,
    AllocationError,
    cost_brute_force,
    expected_gamma_unblocked,
    make_eps_perturbed,
    marginal_omega_lifted,
    marginal_omega_paper,
    oracle_f_at,
    pairs_to_profile,
    rounding_G_seed_sets,
    seed_prob,
    seed_probs_cumprod,
    seed_probs_loop,
    slopes_per_user,
)


def gradient_at(inst, util, y):
    """`marginal_omega_exact` at one point, folded as a stack of one."""
    omega, G = marginal_omega_exact(inst, util, np.asarray(y, dtype=float)[None])
    return omega[0], G[0]


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

    @pytest.mark.parametrize("samples", [200, 800])
    def test_sampled_F_row_blocks_bound_memory(self, samples):
        # unblocked, the fold of the draws at n = 15 takes about 50 MiB at
        # 200 draws and 200 MiB at 800
        inst = generate_random(15, 1, model="IC", edge_density=0.05, seed=1)
        util = make_utility(inst)
        util.gamma_vector()
        y = np.full((15, 1), 0.5)
        tracemalloc.start()
        try:
            F = multilinear_F_mc(inst, util, y, samples, np.random.default_rng(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * objective.BLOCK_ENTRIES * 8
        draws = objective._draw_profiles(inst, y, samples, np.random.default_rng(4))
        held = objective._held_probs(inst, draws)
        assert F == float(expected_gamma_unblocked(util.gamma_vector(), held).mean())


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
        omega, F = marginal_omega(inst, util, np.zeros((3, 2)), 50, rng)
        assert F == 0.0
        for v in range(1, 4):
            for d in range(1, 3):
                single = f_exact(inst, util, [Allocation([(v, d)]).profile(3)])[0]
                assert omega[v - 1, d - 1] == pytest.approx(single, abs=1e-9)

    def test_saturated_entry_is_zero(self, rng):
        inst = generate_random(2, 1, model="TABLE", seed=62)
        util = make_utility(inst)
        y = np.array([[1.0], [0.0]])
        omega, _ = marginal_omega(inst, util, y, 200, rng)
        assert omega[0, 0] == 0.0

    def test_sampled_tracks_exact(self):
        inst = generate_random(2, 1, model="TABLE", seed=63)
        util = make_utility(inst)
        y = np.array([[0.4], [0.6]])
        exact, _ = marginal_omega_paper(inst, util, y)
        est, F_est = marginal_omega(inst, util, y, 50_000, np.random.default_rng(7))
        assert np.all(np.abs(est - exact) <= 3 * 2 / np.sqrt(50_000) + 1e-9)
        assert abs(F_est - multilinear_F_exact(inst, util, y)) <= 3 * 2 / np.sqrt(50_000)


def reference_F(inst, util, y):
    """F(y) by enumerating every entry mask, each f read off the oracle's grid."""
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
    return float(np.dot(weights, oracle_f_at(inst, util, profiles)))


def reference_draws(inst, util, y, samples, rng):
    """f of each sampled profile and the lift loop over every (v, d), by the oracle."""
    inclusion = rng.random((samples, inst.n, inst.m)) < y
    profiles = (inclusion * np.arange(1, inst.m + 1)).max(axis=2)
    base = oracle_f_at(inst, util, profiles)
    omega = np.zeros((inst.n, inst.m))
    for v in range(inst.n):
        for d in range(1, inst.m + 1):
            lifted = profiles.copy()
            lifted[:, v] = np.maximum(lifted[:, v], d)
            omega[v, d - 1] = sum(oracle_f_at(inst, util, lifted) - base)
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
        expected = oracle_f_at(inst, util, profiles)
        got = f_exact(inst, util, profiles)
        assert got == pytest.approx(expected, abs=1e-12)
        assert np.allclose(got, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("model,eps", CLOSED_FORM_CASES)
    def test_F_and_exact_marginals(self, model, eps):
        inst, util, y = closed_form_case(model, eps)
        base = reference_F(inst, util, y)
        assert multilinear_F_exact(inst, util, y) == pytest.approx(base, abs=1e-12)
        omega, F = marginal_omega_paper(inst, util, y)
        assert F == pytest.approx(base, abs=1e-12)
        for v in range(inst.n):
            for d in range(inst.m):
                raised = y.copy()
                raised[v, d] = 1.0
                expected = max(reference_F(inst, util, raised) - base, 0.0)
                assert omega[v, d] == pytest.approx(expected, abs=1e-12)
        # the exact ascent's weights: the gradient of G and G, over seed sets
        grad, G = rounding_G_seed_sets(inst, util, y)
        omega, got = gradient_at(inst, util, y)
        assert got == pytest.approx(G, abs=1e-12)
        np.testing.assert_allclose(omega, np.maximum(grad, 0.0), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("model,eps", CLOSED_FORM_CASES)
    def test_sampled_over_the_same_draws(self, model, eps):
        inst, util, y = closed_form_case(model, eps)
        F_ref, omega_ref = reference_draws(inst, util, y, 40, np.random.default_rng(73))
        omega, F_draws = marginal_omega(inst, util, y, 40, np.random.default_rng(73))
        assert np.allclose(omega, omega_ref, rtol=0.0, atol=1e-12)
        F_est = multilinear_F_mc(inst, util, y, 40, np.random.default_rng(73))
        assert F_est == pytest.approx(F_ref, abs=1e-12)
        # the marginals' F is the mean f over their own draws
        assert F_draws == pytest.approx(F_est, rel=1e-12, abs=1e-12)


class TestGradientOfG:
    """The exact ascent's weights are the gradient of G(y) = E[gamma](q^(y)),
    q^_v = sum_d y_vd p_v(d), the extension per-user rounding realises, and
    come with G."""

    @pytest.mark.parametrize("model,eps", CLOSED_FORM_CASES)
    def test_central_differences(self, model, eps):
        # G is affine in each entry, so central differences are exact up to
        # rounding; an entry clamped at zero has a gradient of at most zero
        inst, util, _ = closed_form_case(model, eps)
        y = np.random.default_rng(75).uniform(0.05, 0.3, size=(inst.n, inst.m))
        omega, G = gradient_at(inst, util, y)
        assert G == pytest.approx(objective.rounding_G_exact(inst, util, y), rel=1e-12)
        h = 1e-4
        for v in range(inst.n):
            for d in range(inst.m):
                up, down = y.copy(), y.copy()
                up[v, d] += h
                down[v, d] -= h
                diff = (objective.rounding_G_exact(inst, util, up)
                        - objective.rounding_G_exact(inst, util, down)) / (2 * h)
                if omega[v, d] > 0:
                    assert omega[v, d] == pytest.approx(diff, rel=1e-6)
                else:
                    assert diff <= 1e-9
        assert (omega > 0).sum() >= inst.n * inst.m - 1

    @pytest.mark.parametrize("model,eps", CLOSED_FORM_CASES)
    def test_seed_set_reference_and_stacks(self, model, eps):
        inst, util, _ = closed_form_case(model, eps)
        ys = np.random.default_rng(76).random((5, inst.n, inst.m)) / inst.m
        ys[1] = 0.0
        ys[2, 0] = 0.0
        ys[2, 0, -1] = 1.0
        omega_stack, G_stack = marginal_omega_exact(inst, util, ys)
        assert omega_stack.shape == ys.shape and G_stack.shape == (5,)
        for j, y in enumerate(ys):
            omega, G = gradient_at(inst, util, y)
            assert np.array_equal(omega_stack[j], omega) and G_stack[j] == G
            grad, G_ref = rounding_G_seed_sets(inst, util, y)
            assert G == pytest.approx(G_ref, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(omega, np.maximum(grad, 0.0), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("model,eps", CLOSED_FORM_CASES)
    def test_G_at_integral_points_is_f(self, model, eps):
        inst, util, _ = closed_form_case(model, eps)
        profiles = np.array(list(product(range(inst.m + 1), repeat=inst.n)))
        ys = np.zeros((len(profiles), inst.n, inst.m))
        held = profiles > 0
        rows, users = held.nonzero()
        ys[rows, users, profiles[held] - 1] = 1.0
        f = f_exact(inst, util, profiles)
        _, G = marginal_omega_exact(inst, util, ys)
        np.testing.assert_allclose(G, f, rtol=1e-12, atol=1e-12)
        G = [objective.rounding_G_exact(inst, util, y) for y in ys]
        np.testing.assert_allclose(G, f, rtol=1e-12, atol=1e-12)

    def test_falling_adoption_row_keeps_its_gradient(self):
        # user 1 holds coupon 1 (p = 0.8); raising coupon 2's entry (p = 0.3)
        # lowers F's q_1, so the paper's marginal clamps to zero, while
        # rounding to coupon 2 seeds with p = 0.3 and G's gradient is positive
        inst = table_instance(modular_table([1.0, 1.0]), [[0.8, 0.3], [0.5, 0.6]])
        util = make_utility(inst)
        y = np.array([[1.0, 0.0], [0.2, 0.3]])
        paper, _ = marginal_omega_paper(inst, util, y)
        assert paper[0, 1] == 0.0
        omega, G = gradient_at(inst, util, y)
        np.testing.assert_allclose(omega, inst.adoption, rtol=1e-12)  # every slope is 1
        assert G == pytest.approx(0.8 + 0.2 * 0.5 + 0.3 * 0.6, rel=1e-12)

    def test_only_stacks_are_taken(self):
        # the ascent folds stacks of points only: one (n, m) point is refused
        inst, util, y = closed_form_case("TABLE", 0.0)
        with pytest.raises(objective.FractionalError, match="stack of"):
            marginal_omega_exact(inst, util, y)
        omega, G = marginal_omega_exact(inst, util, y[None])
        assert omega.shape == (1, inst.n, inst.m) and G.shape == (1,)

    def test_negative_slope_is_clamped(self):
        # gamma({1, 2}) = 0: user 1's slope is 1 - 2 q^_2 = -0.6 at q^_2 = 0.8,
        # and user 2's is 1 - 2 q^_1 = 0.44 at q^_1 = 0.28
        table = {frozenset(): 0.0, frozenset({1}): 1.0, frozenset({2}): 1.0,
                 frozenset({1, 2}): 0.0}
        inst = table_instance(table, [[0.5, 0.9], [1.0, 1.0]])
        util = make_utility(inst)
        y = np.array([[0.2, 0.2], [0.4, 0.4]])
        omega, _ = gradient_at(inst, util, y)
        grad, _ = rounding_G_seed_sets(inst, util, y)
        np.testing.assert_allclose(grad[0], [-0.3, -0.54], rtol=1e-12)
        assert omega[0].tolist() == [0.0, 0.0]
        np.testing.assert_allclose(omega[1], [0.44, 0.44], rtol=1e-12)


def utility_gamma(n):
    """The gamma vector of a generated utility on n users (IC at n = 15, where a
    table would be slow to draw)."""
    if n < 15:
        inst = generate_random(n, 1, model="TABLE", epsilon=0.1, seed=81)
    else:
        inst = generate_random(n, 1, model="IC", edge_density=0.05, seed=1)
    return make_utility(inst).gamma_vector()


def with_certain_users(q):
    """q with user 1 never seeding and, when there are two or more users, the
    last always seeding, in every row."""
    q = q.copy()
    q[..., 0] = 0.0
    if q.shape[-1] > 1:
        q[..., -1] = 1.0
    return q


class TestKernelsAgainstReference:
    """The fold-and-back slopes, the loop-free seed probabilities and the
    bincount sampled marginals against the kernels they replaced."""

    @pytest.mark.parametrize("n", [1, 2, 8, 15])
    def test_slopes_one_q(self, n):
        gamma = utility_gamma(n)
        q = with_certain_users(np.random.default_rng(n).random(n))
        got, F = objective._slopes(gamma, q)
        assert got.shape == (n,) and F.shape == ()
        np.testing.assert_allclose(got, slopes_per_user(gamma, q), rtol=1e-12, atol=0)
        np.testing.assert_allclose(F, objective._expected_gamma(gamma, q), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [1, 2, 8, 15])
    def test_slopes_batch(self, n):
        # 40 rows span two row blocks at n = 15 (32 rows each)
        gamma = utility_gamma(n)
        q = np.random.default_rng(n).random((40, n))
        q[:20] = with_certain_users(q[:20])
        q[20:25] = 0.0
        q[25:30] = 1.0
        got, F = objective._slopes(gamma, q)
        assert got.shape == (40, n) and F.shape == (40,)
        np.testing.assert_allclose(got, slopes_per_user(gamma, q), rtol=1e-12, atol=0)
        np.testing.assert_allclose(F, objective._expected_gamma(gamma, q), rtol=1e-12, atol=0)

    def test_slope_row_blocks_bound_memory(self):
        # keeping every level of 200 rows at once takes about 175 MB at n = 15
        n = 15
        gamma = utility_gamma(n)
        q = np.random.default_rng(2).random((200, n))
        tracemalloc.start()
        try:
            slopes, F = objective._slopes(gamma, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * objective.BLOCK_ENTRIES * 8
        rows = objective.BLOCK_ENTRIES >> n
        for i in (0, rows - 1, rows, len(q) - 1):
            one, F_one = objective._slopes(gamma, q[i:i + 1])
            assert np.array_equal(slopes[i], one[0]) and F[i] == F_one[0]
            one, F_one = objective._slopes(gamma, q[i])
            assert np.array_equal(slopes[i], one) and F[i] == F_one

    @pytest.mark.parametrize("m", [1, 3, 100])
    def test_seed_probs(self, m):
        rng = np.random.default_rng(m)
        y = rng.random((6, m)) / m
        y[0] = 0.0
        y[1] = 1.0
        y[2, -1] = 1.0
        y[3, 0] = 1.0
        y[4, ::2] = 0.0
        p = rng.random((6, m))
        q_ref, gain_ref = seed_probs_loop(y, p)
        np.testing.assert_allclose(objective._seed_probs(y, p), q_ref, rtol=1e-12, atol=0)
        q, gain = seed_probs_cumprod(y, p)  # the paper's marginals' form
        np.testing.assert_allclose(q, q_ref, rtol=1e-12, atol=0)
        np.testing.assert_allclose(gain, gain_ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n,m", [(4, 1), (5, 10), (3, 100)])
    def test_sampled_marginals(self, n, m):
        inst = generate_random(n, m, model="TABLE", epsilon=0.1, seed=82)
        util = make_utility(inst)
        y = np.random.default_rng(m).random((n, m)) / m
        y[0, -1] = 1.0
        y[1] = 0.0
        ours, theirs = np.random.default_rng(83), np.random.default_rng(83)
        omega, _ = marginal_omega(inst, util, y, 200, ours)
        expected = marginal_omega_lifted(inst, util, y, 200, theirs)
        np.testing.assert_allclose(omega, expected, rtol=1e-12, atol=0)
        assert ours.random() == theirs.random()
