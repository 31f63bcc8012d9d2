import math

import numpy as np
import pytest

from couponcascade import greedy, polytope_lp
from couponcascade.cascade import make_utility
from couponcascade.greedy import (
    GreedyConfig,
    GreedyError,
    approximation_beta,
    continuous_greedy,
    extension_prefactor,
)
from couponcascade.instance import generate_random
from couponcascade.objective import multilinear_F_exact
from couponcascade.oracle import solve_concave_relaxation
from couponcascade.polytope_lp import PolytopeSpec
from conftest import table_instance


def single_pair_instance(budget_B=1.0):
    table = {frozenset(): 0.0, frozenset({1}): 1.0}
    return table_instance(table, [[1.0]], coupon_values=np.array([1.0]),
                          budget_B=budget_B)


class TestContinuousGreedy:
    def test_single_pair_saturates(self):
        inst = single_pair_instance()
        util = make_utility(inst)
        trace = continuous_greedy(inst, util, GreedyConfig(seed=0))
        assert trace.final.y[0, 0] == pytest.approx(1.0)
        assert trace.iterations[-1].f_estimate == pytest.approx(1.0)

    def test_tiny_budget_pins_y_near_zero(self):
        inst = single_pair_instance(budget_B=1e-6)
        util = make_utility(inst)
        trace = continuous_greedy(inst, util, GreedyConfig(seed=0))
        assert trace.final.y[0, 0] <= 1e-6 + 1e-12
        assert trace.iterations[-1].f_estimate <= 1e-6 + 1e-12

    def test_final_point_feasible(self):
        inst = generate_random(3, 2, model="TABLE", seed=5)
        util = make_utility(inst)
        trace = continuous_greedy(inst, util, GreedyConfig(seed=0))
        PolytopeSpec.from_instance(inst).check_feasible(trace.final.y)

    def test_extended_final_point_feasible(self):
        inst = generate_random(3, 2, model="TABLE", seed=6, extension=True)
        util = make_utility(inst)
        cfg = GreedyConfig(seed=0, mode="extended", b=0.25)
        trace = continuous_greedy(inst, util, cfg)
        PolytopeSpec.from_instance(inst, k_scale=0.25).check_feasible(trace.final.y)

    def test_monotone_progress_with_exact_marginals(self):
        inst = generate_random(3, 2, model="TABLE", seed=7)
        util = make_utility(inst)
        trace = continuous_greedy(inst, util, GreedyConfig(seed=0))
        estimates = [rec.f_estimate for rec in trace.iterations]
        assert all(b >= a - 1e-12 for a, b in zip(estimates, estimates[1:]))

    def test_relaxation_bound_at_eps_zero(self):
        # the ascent reaches at least (1 - 1/e - 0.05) of the relaxation optimum
        inst = generate_random(2, 2, model="TABLE", seed=8)
        util = make_utility(inst)
        trace = continuous_greedy(inst, util, GreedyConfig(seed=0))
        f_final = multilinear_F_exact(inst, util, trace.final.y)
        _, f_plus = solve_concave_relaxation(inst, util, "PB")
        assert f_final >= (1 - 1 / math.e - 0.05) * f_plus

    def test_coarse_delta_still_feasible(self):
        inst = generate_random(3, 2, model="TABLE", seed=9)
        util = make_utility(inst)
        trace = continuous_greedy(inst, util, GreedyConfig(delta=0.3, seed=0))
        PolytopeSpec.from_instance(inst).check_feasible(trace.final.y)
        assert trace.iterations[-1].t == pytest.approx(1.0)

    def test_sampled_marginals_run(self):
        inst = generate_random(3, 2, model="TABLE", seed=10)
        util = make_utility(inst)
        cfg = GreedyConfig(delta=0.1, samples_per_marginal=50, seed=0)
        trace = continuous_greedy(inst, util, cfg)
        PolytopeSpec.from_instance(inst).check_feasible(trace.final.y)

    def test_sampled_marginals_deterministic(self):
        inst = generate_random(3, 2, model="TABLE", seed=10)
        util = make_utility(inst)
        cfg = GreedyConfig(delta=0.2, samples_per_marginal=30, seed=4)
        a = continuous_greedy(inst, util, cfg).final.y
        b = continuous_greedy(inst, util, cfg).final.y
        assert np.array_equal(a, b)

    def test_extended_mode_requires_budget_K(self):
        inst = generate_random(2, 1, model="TABLE", seed=11)
        util = make_utility(inst)
        with pytest.raises(GreedyError, match="budget_K"):
            continuous_greedy(inst, util, GreedyConfig(mode="extended"))

    def test_bad_b_rejected(self):
        inst = generate_random(2, 1, model="TABLE", seed=11, extension=True)
        util = make_utility(inst)
        with pytest.raises(GreedyError, match="b must lie"):
            continuous_greedy(inst, util, GreedyConfig(mode="extended", b=0.9))


class TestWarmStartedAscent:
    """Each step's LP warm-starts from the previous step's optimal basis."""

    CASES = [
        ("TABLE", False, dict(n=3, m=3, seed=1)),
        ("TABLE", True, dict(n=4, m=2, seed=6, epsilon=0.1)),
        ("IC", False, dict(n=4, m=2, seed=2, edge_density=0.6)),
        ("IC", True, dict(n=3, m=3, seed=1, edge_density=0.6)),
    ]

    @staticmethod
    def run(model, extended, kwargs):
        inst = generate_random(model=model, extension=extended, **kwargs)
        cfg = GreedyConfig(seed=0, mode="extended" if extended else "base")
        return continuous_greedy(inst, make_utility(inst), cfg)

    @pytest.mark.parametrize("model,extended,kwargs", CASES)
    def test_same_ascent_as_cold_starts_with_fewer_pivots(self, model, extended, kwargs,
                                                          monkeypatch):
        warm = self.run(model, extended, kwargs)
        monkeypatch.setattr(greedy, "solve_inner_lp",
                            lambda omega, spec, start=None: polytope_lp.solve_inner_lp(omega, spec))
        cold = self.run(model, extended, kwargs)
        assert np.allclose(warm.final.y, cold.final.y, rtol=0, atol=1e-12)
        assert len(warm.iterations) == len(cold.iterations)
        for a, b in zip(warm.iterations, cold.iterations):
            assert a.f_estimate == pytest.approx(b.f_estimate, rel=1e-12, abs=1e-12)
        assert warm.lp_pivots < cold.lp_pivots

    @pytest.mark.parametrize("model,extended,kwargs", CASES)
    def test_direction_changes_count_the_steps_that_pivot(self, model, extended, kwargs,
                                                          monkeypatch):
        solutions = []

        def recording(omega, spec, start=None):
            solutions.append(polytope_lp.solve_inner_lp(omega, spec, start=start))
            return solutions[-1]

        monkeypatch.setattr(greedy, "solve_inner_lp", recording)
        trace = self.run(model, extended, kwargs)
        moved = [sol.pivots > 0 for sol in solutions[1:]]
        assert trace.lp_direction_changes == sum(moved)
        assert 0 < trace.lp_direction_changes < len(trace.iterations) - 1
        for prev, sol, pivoted in zip(solutions, solutions[1:], moved):
            if not pivoted:  # no pivot: the same vertex, so the same direction
                assert np.array_equal(sol.x, prev.x)


class TestBeta:
    def test_limit_at_zero(self):
        for n in (1, 3, 10):
            assert approximation_beta(0.0, n) == pytest.approx(1 - 1 / math.e, abs=1e-12)

    def test_monotone_nonincreasing_in_eps(self):
        grid = np.linspace(0.0, 1.0, 101)
        vals = [approximation_beta(e, 5) for e in grid]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_prefactor_maximized_at_quarter(self):
        assert extension_prefactor(0.25) == pytest.approx(0.125)
        for b in (0.05, 0.1, 0.4, 0.5):
            assert extension_prefactor(b) <= 0.125 + 1e-12

    def test_prefactor_domain(self):
        with pytest.raises(GreedyError):
            extension_prefactor(0.0)
        with pytest.raises(GreedyError):
            extension_prefactor(0.6)
