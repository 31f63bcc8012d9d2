import math
from collections import namedtuple
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couponcascade import cli, greedy, objective, polytope_lp
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
from couponcascade.oracle import ProfileTable, solve_concave_relaxation
from couponcascade.polytope_lp import PolytopeSpec
from conftest import table_instance
import reference


def single_pair_instance(budget_B=1.0):
    table = {frozenset(): 0.0, frozenset({1}): 1.0}
    return table_instance(table, [[1.0]], coupon_values=np.array([1.0]),
                          budget_B=budget_B)


class TestContinuousGreedy:
    def test_single_pair_saturates(self):
        inst = single_pair_instance()
        util = make_utility(inst)
        trace = continuous_greedy(inst, util, GreedyConfig(seed=0))
        assert trace.final[0, 0] == pytest.approx(1.0)
        assert trace.iterations[-1].f_estimate == pytest.approx(1.0)

    def test_tiny_budget_pins_y_near_zero(self):
        inst = single_pair_instance(budget_B=1e-6)
        util = make_utility(inst)
        trace = continuous_greedy(inst, util, GreedyConfig(seed=0))
        assert trace.final[0, 0] <= 1e-6 + 1e-12
        assert trace.iterations[-1].f_estimate <= 1e-6 + 1e-12

    def test_final_point_feasible(self):
        inst = generate_random(3, 2, model="TABLE", seed=5)
        util = make_utility(inst)
        trace = continuous_greedy(inst, util, GreedyConfig(seed=0))
        PolytopeSpec.from_instance(inst).check_feasible(trace.final)

    @pytest.mark.parametrize("b", [0.1, 0.25, 0.5])
    def test_extended_final_point_feasible(self, b):
        # an instance with budget_K runs in extended mode: y meets b*K
        inst = generate_random(3, 2, model="TABLE", seed=6, extension=True)
        util = make_utility(inst)
        trace = continuous_greedy(inst, util, GreedyConfig(seed=0, b=b))
        PolytopeSpec.from_instance(inst, k_scale=b).check_feasible(trace.final)

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
        f_final = multilinear_F_exact(inst, util, trace.final)
        _, f_plus = solve_concave_relaxation(ProfileTable(inst, util), "PB")
        assert f_final >= (1 - 1 / math.e - 0.05) * f_plus

    def test_coarse_delta_still_feasible(self):
        inst = generate_random(3, 2, model="TABLE", seed=9)
        util = make_utility(inst)
        trace = continuous_greedy(inst, util, GreedyConfig(delta=0.3, seed=0))
        PolytopeSpec.from_instance(inst).check_feasible(trace.final)
        assert trace.iterations[-1].t == pytest.approx(1.0)

    def test_sampled_marginals_run(self):
        inst = generate_random(3, 2, model="TABLE", seed=10)
        util = make_utility(inst)
        cfg = GreedyConfig(delta=0.1, samples_per_marginal=50, seed=0)
        trace = continuous_greedy(inst, util, cfg)
        PolytopeSpec.from_instance(inst).check_feasible(trace.final)

    def test_sampled_marginals_deterministic(self):
        inst = generate_random(3, 2, model="TABLE", seed=10)
        util = make_utility(inst)
        cfg = GreedyConfig(delta=0.2, samples_per_marginal=30, seed=4)
        a = continuous_greedy(inst, util, cfg).final
        b = continuous_greedy(inst, util, cfg).final
        assert np.array_equal(a, b)

    def test_bad_b_rejected(self):
        inst = generate_random(2, 1, model="TABLE", seed=11, extension=True)
        util = make_utility(inst)
        with pytest.raises(GreedyError, match="b must lie"):
            continuous_greedy(inst, util, GreedyConfig(b=0.9))

    def test_base_instance_ignores_b(self):
        inst = generate_random(2, 1, model="TABLE", seed=11)
        util = make_utility(inst)
        base = continuous_greedy(inst, util, GreedyConfig()).final
        assert np.array_equal(continuous_greedy(inst, util, GreedyConfig(b=0.9)).final, base)


@pytest.fixture
def paper_marginals(monkeypatch):
    """The exact ascent on the paper's marginals of F (tests/reference.py),
    which switch basis hundreds of times per solve where the gradient of G
    switches a few times: the warm starts, and windows that end at a switch,
    are exercised on them."""
    monkeypatch.setattr(greedy, "marginal_omega_exact", reference.marginal_omega_paper)


def paper_stepwise(inst, util, cfg):
    """The one-step reference on the paper's marginals."""
    return reference.continuous_greedy_stepwise(inst, util, cfg,
                                                marginals=reference.marginal_omega_paper)


@pytest.mark.usefixtures("paper_marginals")
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
        return continuous_greedy(inst, make_utility(inst), GreedyConfig(seed=0))

    @pytest.mark.parametrize("model,extended,kwargs", CASES)
    def test_same_ascent_as_cold_starts_with_fewer_pivots(self, model, extended, kwargs,
                                                          monkeypatch):
        warm = self.run(model, extended, kwargs)
        monkeypatch.setattr(greedy, "solve_inner_lp",
                            lambda omega, spec, start=None:
                            polytope_lp.solve_inner_lp(omega, spec))
        cold = self.run(model, extended, kwargs)
        assert np.allclose(warm.final, cold.final, rtol=0, atol=1e-12)
        assert len(warm.iterations) == len(cold.iterations)
        for a, b in zip(warm.iterations, cold.iterations):
            assert a.f_estimate == pytest.approx(b.f_estimate, rel=1e-12, abs=1e-12)
        assert warm.lp_pivots < cold.lp_pivots

    @pytest.mark.parametrize("model,extended,kwargs", CASES)
    def test_direction_changes_count_the_steps_that_pivot(self, model, extended, kwargs,
                                                          monkeypatch):
        solutions = []

        def recording(omega, spec, start=None):
            steps = polytope_lp.solve_inner_lp(omega, spec, start=start)
            solutions.extend(reference.step_solutions(steps, start))  # one per step taken
            return steps

        monkeypatch.setattr(greedy, "solve_inner_lp", recording)
        trace = self.run(model, extended, kwargs)
        assert len(solutions) == len(trace.iterations)
        moved = [sol.pivots > 0 for sol in solutions[1:]]
        assert trace.lp_direction_changes == sum(moved)
        assert 0 < trace.lp_direction_changes < len(trace.iterations) - 1
        for prev, sol, pivoted in zip(solutions, solutions[1:], moved):
            if not pivoted:  # no pivot: the same vertex, so the same direction
                assert np.array_equal(sol.x, prev.x)


def same_ascent(got, want, rel=1e-14):
    """Windowed and one-step traces agree: y bit for bit, the per-step LP
    values and F to rel, and the LP counters exactly."""
    assert np.array_equal(got.final, want.final)
    assert len(got.iterations) == len(want.iterations)
    for a, b in zip(got.iterations, want.iterations):
        assert a.t == b.t
        for x, z in ((a.lp_value, b.lp_value), (a.f_estimate, b.f_estimate)):
            assert abs(x - z) <= rel * abs(z)
    assert (got.lp_pivots, got.lp_direction_changes, got.lp_fallbacks) == \
        (want.lp_pivots, want.lp_direction_changes, want.lp_fallbacks)


Window = namedtuple("Window", "points steps kept")


def record_windows(monkeypatch):
    """Per window of the ascent: the points folded, the steps taken, and
    the steps kept on the start's basis."""
    windows = []
    fold, solve = greedy.marginal_omega_exact, greedy.solve_inner_lp

    def folding(inst, util, y):
        windows.append(len(y))
        return fold(inst, util, y)

    def solving(omega, spec, start=None):
        steps = solve(omega, spec, start=start)
        taken = len(steps.values)
        # the last step was kept, not solved, when it leaves the start in place and gains
        last_solved = steps.final is not start or steps.values[-1] == 0
        windows[-1] = Window(windows[-1], taken, taken - last_solved)
        return steps

    monkeypatch.setattr(greedy, "marginal_omega_exact", folding)
    monkeypatch.setattr(greedy, "solve_inner_lp", solving)
    return windows


def follow_work_rule(windows, trace, inst):
    """Check the windows against the trace's counters and the window rule of
    an ascent with no zero-gain step: the first step and a last step left on
    its own are one point, and every other window lays out min(left, J)
    points, J = max(16, 2^15 // (2^n + n m))."""
    assert len(windows) == trace.marginal_windows
    assert sum(w.points for w in windows) == trace.points_folded
    assert sum(w.points == 1 for w in windows) == trace.one_point_windows
    assert all(rec.lp_value > 0 for rec in trace.iterations)
    size = max(16, 2 ** 15 // (2 ** inst.n + inst.n * inst.m))
    taken = 0
    for w in windows:
        left = trace.steps - taken
        assert w.points == (1 if not taken or left == 1 else min(size, left))
        taken += w.steps
    assert taken == trace.steps == len(trace.iterations)


@pytest.mark.usefixtures("paper_marginals")
class TestWindowedAscent:
    """The exact path checks windows of steps against a kept basis at once;
    it must take the steps the one-step loop in tests/reference.py takes."""

    FUZZ = [(model, extended, eps, shape, seed)
            for model in ("TABLE", "IC")
            for extended in (False, True)
            for eps in (0.0, 0.1)
            for shape, seed in (((7, 1), 31), ((7, 2), 32))]

    @staticmethod
    def instance(model, extended, eps, shape, seed):
        n, m = shape
        return generate_random(n, m, model=model, epsilon=eps, seed=seed + 10 * extended,
                               extension=extended, edge_density=0.25)

    @pytest.mark.parametrize("model,extended,eps,shape,seed", FUZZ)
    def test_matches_one_step_reference(self, model, extended, eps, shape, seed):
        inst = self.instance(model, extended, eps, shape, seed)
        util = make_utility(inst)
        got = continuous_greedy(inst, util, GreedyConfig(seed=0))
        want = paper_stepwise(inst, util, GreedyConfig(seed=0))
        same_ascent(got, want)
        assert want.marginal_windows == len(want.iterations) == (shape[0] * shape[1]) ** 2
        assert got.marginal_windows < len(got.iterations)  # the windows took several steps

    # The one-step LP zigzags between a few bases: each switch is one pivot
    # that returns to a basis of the last few steps, and ends its window.
    ZIGZAG = [dict(n=5, m=3, model="TABLE", seed=2, extension=True),
              dict(n=4, m=3, model="IC", seed=2, edge_density=11 / 12)]

    @pytest.mark.parametrize("kwargs", ZIGZAG)
    def test_zigzag_replays_its_pivots(self, kwargs):
        inst = generate_random(**kwargs)
        assert inst.model == "TABLE" or len(inst.edges) == 11
        util = make_utility(inst)
        got = continuous_greedy(inst, util, GreedyConfig(seed=0))
        want = paper_stepwise(inst, util, GreedyConfig(seed=0))
        same_ascent(got, want)  # the one-step loop's pivots, switch for switch
        # a window ends at each switch, so each takes at most one
        assert got.lp_direction_changes < got.marginal_windows < len(got.iterations)

    @pytest.mark.parametrize("delta,steps", [(0.3, 4), (0.095, 11), (0.45, 3)])
    @pytest.mark.parametrize("case", FUZZ[1::5])
    def test_explicit_step_and_clipped_windows(self, case, delta, steps):
        # 1/delta is not integral, so the last step is clipped, and the last
        # window is cut short at the last step
        inst = self.instance(*case)
        util = make_utility(inst)
        cfg = GreedyConfig(delta=delta)
        got = continuous_greedy(inst, util, cfg)
        same_ascent(got, paper_stepwise(inst, util, cfg))
        assert len(got.iterations) == steps and got.iterations[-1].t == pytest.approx(1.0)

    @pytest.mark.parametrize("case", FUZZ[::3])
    def test_sampled_path_takes_one_step_per_window(self, case):
        inst = self.instance(*case)
        util = make_utility(inst)
        cfg = GreedyConfig(delta=0.05, samples_per_marginal=40, seed=3)
        got = continuous_greedy(inst, util, cfg)
        want = reference.continuous_greedy_stepwise(inst, util, cfg)
        same_ascent(got, want)
        assert got.marginal_windows == len(got.iterations) == 20

    # TABLE 4x4 at eps 0.1 changes basis at almost every step of its tail,
    # by switches of 2-4 pivots; TABLE 5x3 extended repeats cycles of such
    # switches, and IC 6x2 meets both
    SWITCHING = [dict(n=4, m=4, model="TABLE", seed=5, epsilon=0.1),
                 dict(n=5, m=3, model="TABLE", seed=2, extension=True),
                 dict(n=6, m=2, model="IC", seed=1, edge_density=0.4)]

    @pytest.mark.parametrize("kwargs", SWITCHING)
    def test_window_after_a_switch_keeps_its_size(self, kwargs, monkeypatch):
        # the size rule holds whatever the last window kept
        inst = generate_random(**kwargs)
        windows = record_windows(monkeypatch)
        trace = continuous_greedy(inst, make_utility(inst), GreedyConfig(seed=0))
        follow_work_rule(windows, trace, inst)
        wide = windows[1:-1]
        assert any(0 < w.kept < w.points for w in wide)
        assert any(w.kept == 0 and w.points > 1 for w in wide)

    def test_zero_marginals_from_the_first_step(self):
        inst = table_instance({frozenset(): 0.0, frozenset({1}): 0.0, frozenset({2}): 0.0,
                               frozenset({1, 2}): 0.0}, [[1.0, 1.0], [0.5, 0.7]])
        util = make_utility(inst)
        cfg = GreedyConfig(delta=0.1)
        got = continuous_greedy(inst, util, cfg)
        same_ascent(got, paper_stepwise(inst, util, cfg))
        assert not got.final.any() and got.lp_pivots == 0
        assert all(rec.lp_value == 0.0 for rec in got.iterations)

    def test_zero_marginals_in_the_middle_of_a_run(self):
        # gamma({1, 2}) = 0 makes each user's slope 1 - 2 q of the other:
        # once both seed with probability 1/2 every marginal clamps to zero
        # and y stops, while the kept basis passes on
        inst = table_instance({frozenset(): 0.0, frozenset({1}): 1.0, frozenset({2}): 1.0,
                               frozenset({1, 2}): 0.0}, [[1.0], [1.0]])
        util = make_utility(inst)
        cfg = GreedyConfig(delta=0.05)
        got = continuous_greedy(inst, util, cfg)
        same_ascent(got, paper_stepwise(inst, util, cfg))
        values = [rec.lp_value for rec in got.iterations]
        first_zero = values.index(0.0)
        assert 0 < first_zero < len(values) - 1 and not any(values[first_zero:])
        assert values[0] > 0 and got.final[0, 0] == pytest.approx(0.55)

    def test_zero_step_takes_a_one_point_window(self):
        # after a step whose LP gained nothing y stands still: each later
        # window folds the one point it keeps
        inst = table_instance({frozenset(): 0.0, frozenset({1}): 1.0, frozenset({2}): 1.0,
                               frozenset({1, 2}): 0.0}, [[1.0], [1.0]])
        util = make_utility(inst)
        sizes = []

        def recording(inst, util, y):
            sizes.append(len(y))
            return objective.marginal_omega_exact(inst, util, y)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(greedy, "marginal_omega_exact", recording)
            got = continuous_greedy(inst, util, GreedyConfig(delta=0.05))
        zero_steps = sum(rec.lp_value == 0.0 for rec in got.iterations)
        assert zero_steps == 9
        # the window after the cold step reaches to the last step, and the
        # first zero step ends it; every later zero step is a window of one
        assert sizes == [1, 19] + [1] * (zero_steps - 1)
        assert sum(sizes) == got.points_folded == 28


def ladder_row(n, m, model, seed, epsilon=0.0, extended=False, edges=None):
    """An instance as bench/ladders.py generates it for one ladder slot."""
    density = edges / (n * (n - 1)) if edges is not None else 0.3
    return generate_random(n, m, edge_density=density, model=model, epsilon=epsilon,
                           seed=seed, extension=extended)


class TestGradientAscent:
    """The exact ascent climbs G by its gradient.  On the rows of the exact
    benchmark ladders and on two scale rows it takes the one-step loop's
    steps, bit for bit, and its LP changes basis a few times at most."""

    LADDER = [
        (3, 3, "TABLE", 1), (4, 3, "TABLE", 6, 0.1, True), (2, 8, "TABLE", 7, 0.1, True),
        (3, 5, "TABLE", 4), (5, 3, "TABLE", 2, 0.0, True), (4, 4, "TABLE", 5, 0.1),
        (6, 2, "TABLE", 3, 0.1),
        (4, 3, "IC", 2, 0.0, False, 11), (5, 2, "IC", 7, 0.0, True, 12),
        (4, 4, "IC", 6, 0.0, True, 11), (5, 2, "IC", 3, 0.0, False, 14),
        (6, 2, "IC", 1, 0.0, False, 12),
    ]

    @pytest.mark.parametrize("row", LADDER)
    def test_ladder_row_matches_one_step_reference(self, row, monkeypatch):
        inst = ladder_row(*row)
        util = make_utility(inst)
        windows = record_windows(monkeypatch)
        got = continuous_greedy(inst, util, GreedyConfig(seed=0))
        follow_work_rule(windows, got, inst)
        want = reference.continuous_greedy_stepwise(inst, util, GreedyConfig(seed=0))
        same_ascent(got, want)
        assert (got.F, got.G) == (want.F, want.G)
        assert got.lp_direction_changes <= 1
        assert got.marginal_windows <= 10

    @pytest.mark.parametrize("model,windows", [("TABLE", 15), ("IC", 11)])
    def test_ladder_marginal_windows(self, model, windows):
        # the caps of the traced benchmark smoke run, met exactly
        total = 0
        for row in self.LADDER:
            if row[2] == model:
                inst = ladder_row(*row)
                trace = continuous_greedy(inst, make_utility(inst), GreedyConfig())
                total += trace.marginal_windows
        assert total == windows

    @pytest.mark.parametrize("kwargs,windows,folded", [
        (dict(n=10, m=4, model="TABLE", seed=1), 58, 1692),
        (dict(n=8, m=4, model="TABLE", seed=1, extension=True), 11, 1024),
    ])
    def test_scale_row_matches_one_step_reference(self, kwargs, windows, folded,
                                                  monkeypatch):
        inst = generate_random(**kwargs)
        util = make_utility(inst)
        recorded = record_windows(monkeypatch)
        got = continuous_greedy(inst, util, GreedyConfig())
        follow_work_rule(recorded, got, inst)
        want = reference.continuous_greedy_stepwise(inst, util, GreedyConfig())
        same_ascent(got, want)
        assert (got.F, got.G) == (want.F, want.G)
        assert (got.marginal_windows, got.points_folded) == (windows, folded)


class TestStepCount:
    def test_canonical_step_count_for_every_nm(self):
        # 1/(1/49) rounds to 49.00000000000001, whose ceiling is one step too many
        for nm in range(1, 400):
            assert greedy._step_count(1.0 / nm ** 2) == nm ** 2

    @pytest.mark.parametrize("delta,steps", [(0.3, 4), (0.05, 20), (0.1, 10), (1.0, 1),
                                             (1 / 3 - 1e-6, 4)])
    def test_explicit_steps(self, delta, steps):
        assert greedy._step_count(delta) == steps

    @pytest.mark.parametrize("n,m", [(7, 1), (7, 2), (7, 4)])
    def test_nm_where_the_ceiling_overshoots(self, n, m):
        inst = generate_random(n, m, model="TABLE", seed=1)
        trace = continuous_greedy(inst, make_utility(inst), GreedyConfig(seed=0))
        times = [rec.t for rec in trace.iterations]
        assert len(times) == (n * m) ** 2
        assert all(b > a for a, b in zip(times, times[1:]))
        assert abs(times[-1] - 1.0) <= 1e-12


class TestStepLimit:
    """`GreedyConfig.step` refuses a step that takes more than MAX_STEPS
    ascent steps, so the library meets the CLI's limit."""

    def test_explicit_step_past_the_limit(self):
        inst = generate_random(2, 1, model="TABLE", seed=1)
        with pytest.raises(greedy.StepCountError) as err:
            GreedyConfig(delta=1e-9).step(inst)
        assert str(err.value) == ("the step 1e-09 would take 1000000000 ascent steps, "
                                  "more than 1000000")

    def test_default_step_past_the_limit(self):
        inst = generate_random(1, 1001, model="TABLE", seed=1)
        with pytest.raises(greedy.StepCountError) as err:
            GreedyConfig().step(inst)
        assert str(err.value) == ("n*m = 1001: the default step 1/(nm)^2 would take 1002001 "
                                  "ascent steps, more than 1000000; give --delta")

    @pytest.mark.parametrize("n,m,delta", [(1, 1001, None), (2, 1, 1e-9)])
    def test_ascent_refuses_before_its_first_fold(self, n, m, delta, monkeypatch):
        def folded(*args):
            raise AssertionError("the ascent took marginals")

        monkeypatch.setattr(greedy, "marginal_omega_exact", folded)
        monkeypatch.setattr(greedy, "marginal_omega", folded)
        inst = generate_random(n, m, model="TABLE", seed=1)
        for samples in (None, 10):
            with pytest.raises(greedy.StepCountError):
                continuous_greedy(inst, make_utility(inst),
                                  GreedyConfig(delta=delta, samples_per_marginal=samples))

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 500),
           delta=st.floats(1e-7, 1.0) | st.none())
    def test_step_raises_exactly_past_the_limit(self, n, m, delta):
        inst = SimpleNamespace(n=n, m=m)  # `step` reads only the sizes
        cfg = GreedyConfig(delta=delta)
        steps = greedy._step_count(delta if delta is not None else 1.0 / (n * m) ** 2)
        if steps > greedy.MAX_STEPS:
            with pytest.raises(greedy.StepCountError):
                cfg.step(inst)
        else:
            assert cfg.step(inst) == (delta if delta is not None else 1.0 / (n * m) ** 2)
        if delta is not None and delta >= cli.STEP.min:
            assert steps <= greedy.MAX_STEPS  # every --delta the CLI accepts runs


class TestFFromTheFold:
    """Each step's value comes from the next step's marginals: G on the
    exact path, F over the draws on the sampled one.  Only the last step
    evaluates its own, and the final y's F is one multilinear_F_exact or
    multilinear_F_mc call."""

    @pytest.mark.parametrize("model,extended,kwargs", TestWarmStartedAscent.CASES)
    def test_every_record_is_G_at_its_y(self, model, extended, kwargs, monkeypatch):
        # the one-step reference takes each step's marginals at the y the
        # step before it reached, and reaches the same points bit for bit
        points = []

        def recording(inst, util, y):
            points.append(y[0].copy())  # the reference folds a stack of one point
            return objective.marginal_omega_exact(inst, util, y)

        monkeypatch.setattr(reference, "marginal_omega_exact", recording)
        inst = generate_random(model=model, extension=extended, **kwargs)
        util = make_utility(inst)
        trace = TestWarmStartedAscent.run(model, extended, kwargs)
        stepwise = reference.continuous_greedy_stepwise(inst, util, GreedyConfig(seed=0))
        assert np.array_equal(stepwise.final, trace.final)
        reached = points[1:] + [trace.final]  # the y each step moved to
        assert len(reached) == len(trace.iterations)
        for rec, y in zip(trace.iterations, reached):
            assert rec.f_estimate is not None
            G = objective.rounding_G_exact(inst, util, np.clip(y, 0.0, 1.0))
            assert rec.f_estimate == pytest.approx(G, rel=1e-12, abs=0)
        assert trace.iterations[-1].f_estimate == trace.G
        assert trace.G == objective.rounding_G_exact(inst, util, trace.final)
        assert trace.F == multilinear_F_exact(inst, util, trace.final)

    @staticmethod
    def count_calls(monkeypatch, name):
        calls = []
        original = getattr(greedy, name)

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(greedy, name, counting)
        return calls

    def test_exact_ascent_evaluates_F_once(self, monkeypatch):
        exact_calls = self.count_calls(monkeypatch, "multilinear_F_exact")
        sampled_calls = self.count_calls(monkeypatch, "multilinear_F_mc")
        inst = generate_random(3, 2, model="TABLE", seed=7)
        trace = continuous_greedy(inst, make_utility(inst), GreedyConfig(seed=0))
        assert len(trace.iterations) == 36
        assert len(exact_calls) == 1 and not sampled_calls

    def test_sampled_ascent_evaluates_F_once(self, monkeypatch):
        exact_calls = self.count_calls(monkeypatch, "multilinear_F_exact")
        sampled_calls = self.count_calls(monkeypatch, "multilinear_F_mc")
        inst = generate_random(3, 2, model="TABLE", seed=10)
        cfg = GreedyConfig(delta=0.1, samples_per_marginal=50, seed=0)
        trace = continuous_greedy(inst, make_utility(inst), cfg)
        assert len(trace.iterations) == 10
        assert len(sampled_calls) == 1 and not exact_calls
        assert all(isinstance(rec.f_estimate, float) for rec in trace.iterations)
        assert trace.F == trace.iterations[-1].f_estimate and trace.G is None

    def test_sampled_records_are_F_over_the_next_steps_draws(self, monkeypatch):
        # each record's F is the mean f over the draws of the next step's
        # marginals, the last one from samples_per_marginal draws of its own
        inst = generate_random(3, 2, model="TABLE", seed=10)
        util = make_utility(inst)
        cfg = GreedyConfig(delta=0.1, samples_per_marginal=50, seed=0)
        draws = []
        draw = objective._draw_profiles

        def recording(inst, y, samples, rng):
            draws.append(draw(inst, y, samples, rng))
            return draws[-1]

        monkeypatch.setattr(objective, "_draw_profiles", recording)
        trace = continuous_greedy(inst, util, cfg)
        assert len(draws) == len(trace.iterations) + 1
        assert all(len(profiles) == 50 for profiles in draws)
        for rec, profiles in zip(trace.iterations, draws[1:]):
            F = objective.f_exact(inst, util, profiles).mean()
            assert rec.f_estimate == pytest.approx(F, rel=1e-12, abs=0)


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
