from itertools import combinations

import numpy as np
import pytest

from couponcascade import polytope_lp
from couponcascade.instance import generate_random
from couponcascade.polytope_lp import (
    LpError,
    NumericError,
    PolytopeSpec,
    UnboundedError,
    solve_generic_lp,
    solve_inner_lp,
)
from reference import (
    certify_wrappers,
    check_feasible_wrappers,
    inner_weights_guard_wrappers,
    simplex_input_guards_wrappers,
    solve_one,
    step_solutions,
)


def mckp_fractional_oracle(profit, weight, budget):
    """LP optimum of the fractional multiple-choice knapsack, by greedy.

    Per user, LP-dominated items are pruned to a concave profit/weight
    frontier anchored at (0, 0); the frontier increments have decreasing
    density, so filling the budget by global density order is optimal.
    """
    increments = []
    for v in range(profit.shape[0]):
        items = sorted(
            ((weight[v, d], profit[v, d]) for d in range(profit.shape[1])),
            key=lambda t: (t[0], -t[1]),
        )
        hull = [(0.0, 0.0)]
        for w, p in items:
            if p <= hull[-1][1]:
                continue
            while len(hull) >= 2:
                w1, p1 = hull[-2]
                w2, p2 = hull[-1]
                if (p - p2) * (w2 - w1) >= (p2 - p1) * (w - w2):
                    hull.pop()
                else:
                    break
            hull.append((w, p))
        for (w1, p1), (w2, p2) in zip(hull, hull[1:]):
            increments.append((p2 - p1, w2 - w1))
    increments.sort(key=lambda t: t[0] / t[1], reverse=True)
    value, spent = 0.0, 0.0
    for dp, dw in increments:
        take = min(1.0, (budget - spent) / dw)
        if take <= 0:
            break
        value += take * dp
        spent += take * dw
    return value


def vertex_enumeration_oracle(c, A, b):
    """Brute-force LP optimum: check every basic point of {x>=0, Ax<=b}."""
    n = A.shape[1]
    rows = np.vstack([A, -np.eye(n)])
    rhs = np.concatenate([b, np.zeros(n)])
    best = None
    for idx in combinations(range(len(rows)), n):
        sub = rows[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, rhs[list(idx)])
        if np.all(rows @ x <= rhs + 1e-9):
            val = float(c @ x)
            if best is None or val > best:
                best = val
    return best


class TestSimplex:
    def test_single_bound(self):
        sol = solve_generic_lp([1.0], np.array([[1.0]]), np.array([1.0]))
        assert sol.objective_value == pytest.approx(1.0)

    def test_degenerate_optimum_value_unique(self):
        sol = solve_generic_lp([1.0, 1.0], np.array([[1.0, 1.0]]), np.array([1.0]))
        assert sol.objective_value == pytest.approx(1.0)

    def test_unbounded_detected(self):
        with pytest.raises(UnboundedError):
            solve_generic_lp([1.0, 0.0], np.array([[0.0, 1.0]]), np.array([1.0]))

    def test_negative_rhs_rejected(self):
        with pytest.raises(LpError, match="nonnegative"):
            solve_generic_lp([1.0], np.array([[1.0]]), np.array([-1.0]))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_lp_matches_vertex_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 5, 4
        A = rng.uniform(0.1, 1.0, size=(m, n))
        b = rng.uniform(0.5, 2.0, size=m)
        c = rng.uniform(0.0, 1.0, size=n)
        sol = solve_generic_lp(c, A, b)
        brute = vertex_enumeration_oracle(c, A, b)
        assert sol.objective_value == pytest.approx(brute, rel=1e-9, abs=1e-9)
        assert sol.duality_gap <= 1e-8 * (1 + abs(sol.objective_value))

    # Beale's example (Naval Res. Logist. Q. 1955): Dantzig's rule with a
    # lowest-index ratio tie-break cycles through degenerate bases at the origin.
    BEALE = ([0.75, -20.0, 0.5, -6.0],
             np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]]),
             np.array([0.0, 0.0, 1.0]))

    def test_beale_cycling_example_solves(self):
        sol = solve_generic_lp(*self.BEALE)  # certified by strong duality
        assert sol.objective_value == pytest.approx(1.25, abs=1e-12)
        assert sol.x == pytest.approx([1.0, 0.0, 1.0, 0.0], abs=1e-12)
        assert sol.fell_back and sol.pivots > polytope_lp.DEGENERATE_RUN

    def test_beale_cycles_without_fallback(self, monkeypatch):
        # The fallback is what ends the cycle: pure Dantzig exhausts the limit.
        monkeypatch.setattr(polytope_lp, "DEGENERATE_RUN", polytope_lp.MAX_PIVOTS + 1)
        monkeypatch.setattr(polytope_lp, "MAX_PIVOTS", 500)
        with pytest.raises(NumericError, match="pivot limit"):
            solve_generic_lp(*self.BEALE)

    def test_reports_pivots_without_fallback(self):
        sol = solve_generic_lp([2.0, 1.0], np.array([[1.0, 1.0], [1.0, 0.0]]),
                               np.array([2.0, 1.0]))
        assert sol.objective_value == pytest.approx(3.0)
        assert sol.pivots == 2 and not sol.fell_back

    def test_overflowing_pivot_is_not_certified(self):
        # the ratio 1e308 / 0.5 overflows: x = [0, inf, 0] at value inf
        # passed a tolerance of 1e-8 (1 + |value|), which is inf there
        with pytest.raises(NumericError, match="duality gap inf exceeds tolerance"):
            solve_generic_lp([0.0, 1e-300, 1e-300], [[0.0, 0.5, 0.5]], [1e308])

    def test_nan_ratio_raises_numeric_error(self):
        # the first pivot leaves inf and NaN in the tableau, so the second
        # ratio test meets a NaN: it raised a bare "argmin of an empty sequence"
        with pytest.raises(NumericError, match="NaN in the simplex's ratio test"):
            solve_generic_lp([1e300, 1e300], [[0.5, 1e-300], [0.0, 1.0]], [1e308, 1.0])

    @pytest.mark.parametrize("seed", range(30))
    def test_degenerate_lp_matches_vertex_enumeration(self, seed):
        # Small-integer data with zero right-hand sides: many ties and
        # degenerate vertices.  The all-ones row keeps the LP bounded.
        rng = np.random.default_rng(500 + seed)
        n = 4
        A = np.vstack([rng.integers(-2, 4, size=(3, n)), np.ones(n)]).astype(float)
        b = np.concatenate([rng.integers(0, 2, size=3), [3]]).astype(float)
        c = rng.integers(-2, 4, size=n).astype(float)
        sol = solve_generic_lp(c, A, b)
        brute = vertex_enumeration_oracle(c, A, b)
        assert sol.objective_value == pytest.approx(brute, rel=1e-9, abs=1e-9)
        assert sol.duality_gap <= 1e-8 * (1 + abs(sol.objective_value))


class TestInnerLp:
    def spec(self, n, m, weights, B, dist=None, K=None):
        return PolytopeSpec(n, m, np.asarray(weights, dtype=float), B,
                            None if dist is None else np.asarray(dist, dtype=float), K)

    def test_knapsack_binds(self):
        # p=0.5, value=2 => weight 1; B=0.5 caps y at 0.5
        spec = self.spec(1, 1, [[1.0]], 0.5)
        sol = solve_one(np.array([[1.0]]), spec)
        assert sol.x[0] == pytest.approx(0.5)
        assert sol.objective_value == pytest.approx(0.5)

    def test_box_binds(self):
        spec = self.spec(1, 1, [[1.0]], 10.0)
        sol = solve_one(np.array([[1.0]]), spec)
        assert sol.x[0] == pytest.approx(1.0)

    def test_picks_heavier_weight_first(self):
        # two users, unit costs, B=1: all budget on the omega=3 user
        spec = self.spec(2, 1, [[1.0], [1.0]], 1.0)
        sol = solve_one(np.array([[3.0], [1.0]]), spec)
        assert sol.matrix(2, 1)[:, 0] == pytest.approx([1.0, 0.0])
        assert sol.objective_value == pytest.approx(3.0)

    def test_row_cap_enforced(self):
        spec = self.spec(1, 2, [[0.1, 0.1]], 10.0)
        sol = solve_one(np.array([[1.0, 1.0]]), spec)
        assert sol.matrix(1, 2).sum() == pytest.approx(1.0)

    def test_all_zero_weights(self):
        spec = self.spec(2, 2, np.full((2, 2), 0.5), 1.0)
        sol = solve_one(np.zeros((2, 2)), spec)
        assert np.all(sol.x == 0.0) and sol.objective_value == 0.0

    def test_negative_weights_rejected(self):
        spec = self.spec(1, 1, [[1.0]], 1.0)
        with pytest.raises(LpError, match="nonnegative"):
            solve_one(np.array([[-1.0]]), spec)

    def test_distribution_knapsack(self):
        spec = self.spec(2, 1, [[0.1], [0.1]], 10.0, dist=[1.0, 1.0], K=1.0)
        sol = solve_one(np.array([[2.0], [1.0]]), spec)
        # only one unit of distribution budget: all of it on user 1
        assert sol.matrix(2, 1)[:, 0] == pytest.approx([1.0, 0.0])

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_mckp_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, m = 4, 3
        weights = rng.uniform(0.1, 1.5, size=(n, m))
        omega = rng.uniform(0.0, 2.0, size=(n, m))
        B = rng.uniform(0.3, 2.5)
        spec = self.spec(n, m, weights, B)
        sol = solve_one(omega, spec)
        oracle = mckp_fractional_oracle(omega, weights, B)
        assert sol.objective_value == pytest.approx(oracle, rel=1e-8)

    def test_feasibility_check(self):
        spec = self.spec(2, 2, np.full((2, 2), 0.5), 1.5)
        sol = solve_one(np.ones((2, 2)), spec)
        spec.check_feasible(sol.matrix(2, 2))

    def test_rows_have_no_box_and_are_built_once(self):
        spec = self.spec(3, 2, np.full((3, 2), 0.5), 1.0, dist=[1.0, 1.0, 1.0], K=2.0)
        A, b = spec.constraint_rows
        assert A.shape == (3 + 2, 6) and b.shape == (5,)
        assert spec.constraint_rows[0] is A
        assert len(solve_one(np.zeros((3, 2)), spec).dual) == len(b)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 4), (2, 2), (4, 1), (3, 1)])
    @pytest.mark.parametrize("seed", range(6))
    def test_extended_matches_vertex_enumeration_with_box(self, shape, seed):
        # The oracle sees the full row set, box rows y <= 1 included, so a
        # box bound the solver relies on being implied would show here.
        n, m = shape
        rng = np.random.default_rng(700 + 10 * seed + n)
        weights = rng.uniform(0.1, 1.5, size=(n, m))
        dist = rng.uniform(0.5, 2.0, size=n)
        spec = self.spec(n, m, weights, rng.uniform(0.3, 2.5), dist=dist,
                         K=rng.uniform(0.4, 1.0) * dist.sum())
        omega = rng.uniform(0.0, 2.0, size=(n, m))
        sol = solve_one(omega, spec)
        rows, bounds = [], []
        for v in range(n):
            cap = np.zeros((n, m))
            cap[v] = 1.0
            rows.append(cap.reshape(-1))
            bounds.append(1.0)
        rows += [weights.reshape(-1), np.repeat(dist, m)]
        bounds += [spec.budget_B, spec.budget_K]
        rows.extend(np.eye(n * m))
        bounds += [1.0] * (n * m)
        brute = vertex_enumeration_oracle(omega.reshape(-1), np.array(rows), np.array(bounds))
        assert sol.objective_value == pytest.approx(brute, rel=1e-9, abs=1e-12)
        spec.check_feasible(sol.matrix(n, m))


class TestCheckFeasible:
    @pytest.mark.parametrize("y", [[[np.nan, 0.0], [0.2, 0.3]], [[0.2, 0.3], [0.1, np.nan]]])
    def test_nan_entry_refused(self, y):
        # a NaN compares False with every bound, so no violation test caught it
        spec = PolytopeSpec.from_instance(generate_random(2, 2, model="TABLE", seed=1))
        with pytest.raises(NumericError, match="box constraint violated"):
            spec.check_feasible(np.array(y))
        with pytest.raises(NumericError, match="box constraint violated"):
            spec.check_feasible(np.array(y)[None])  # a stack of one point


class TestFromInstance:
    """`PolytopeSpec.from_instance` adds the distribution row at k_scale*K
    exactly when the instance has a budget_K."""

    @staticmethod
    def assert_same(spec, want):
        A, b = spec.constraint_rows
        want_A, want_b = want.constraint_rows
        assert np.array_equal(A, want_A) and np.array_equal(b, want_b)
        assert spec.budget_K == want.budget_K

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_base_instance_has_no_distribution_row(self, seed):
        inst = generate_random(3, 2, model="TABLE", seed=seed)
        want = PolytopeSpec(inst.n, inst.m, inst.redemption_weights, inst.budget_B)
        for k_scale in (0.1, 1.0):
            self.assert_same(PolytopeSpec.from_instance(inst, k_scale), want)
        self.assert_same(PolytopeSpec.from_instance(inst), want)
        assert PolytopeSpec.from_instance(inst).constraint_rows[0].shape == (inst.n + 1, 6)

    @pytest.mark.parametrize("seed", [6, 7])
    def test_extended_instance_row_at_k_scale_K(self, seed):
        inst = generate_random(3, 2, model="TABLE", seed=seed, extension=True)
        dist = np.asarray(inst.dist_cost, dtype=float)
        for b in (0.1, 0.25, 0.5):
            want = PolytopeSpec(inst.n, inst.m, inst.redemption_weights, inst.budget_B,
                                dist, b * inst.budget_K)
            self.assert_same(PolytopeSpec.from_instance(inst, b), want)
        A, bounds = PolytopeSpec.from_instance(inst).constraint_rows
        assert np.array_equal(A[-1], np.repeat(dist, inst.m))
        assert bounds[-1] == inst.budget_K  # the default row is K itself, PB1's polytope


class TestWarmStart:
    """Ascent LPs share (A, b) and warm-start from the previous optimal basis."""

    @staticmethod
    def specs():
        rng = np.random.default_rng(900)
        n, m = 4, 3
        weights = rng.uniform(0.1, 1.5, size=(n, m))
        dist = rng.uniform(0.5, 2.0, size=n)
        base = PolytopeSpec(n, m, weights, 0.4 * weights.sum() / m)
        extended = PolytopeSpec(n, m, weights, 0.4 * weights.sum() / m, dist, 0.5 * dist.sum())
        return {"base": base, "extended": extended}

    @pytest.mark.parametrize("kind", ["base", "extended"])
    @pytest.mark.parametrize("seed", range(5))
    def test_random_sequence_matches_cold_solves(self, kind, seed):
        spec = self.specs()[kind]
        A, b = spec.constraint_rows
        rng = np.random.default_rng(seed)
        sol, warm_pivots, cold_pivots = None, 0, 0
        for _ in range(30):
            omega = rng.uniform(0.0, 2.0, size=(spec.n, spec.m))
            sol = solve_one(omega, spec, start=None if sol is None else sol.final)
            cold = solve_one(omega, spec)
            assert sol.objective_value == pytest.approx(cold.objective_value, rel=1e-9)
            polytope_lp._certify(omega.reshape(-1), A, b, sol.objective_value, sol.dual)
            spec.check_feasible(sol.matrix(spec.n, spec.m))
            warm_pivots += sol.pivots
            cold_pivots += cold.pivots
        assert warm_pivots < cold_pivots

    @pytest.mark.parametrize("kind", ["base", "extended"])
    def test_scaled_objective_keeps_the_basis(self, kind):
        spec = self.specs()[kind]
        omega = np.random.default_rng(3).uniform(0.0, 2.0, size=(spec.n, spec.m))
        first = solve_one(omega, spec)
        assert first.pivots > 0
        for scale in (1.0, 0.25, 7.0):
            again = solve_one(scale * omega, spec, start=first.final)
            assert again.pivots == 0 and not again.fell_back
            assert np.array_equal(again.x, first.x)
            assert again.objective_value == pytest.approx(scale * first.objective_value, rel=1e-12)

    def test_start_is_not_modified(self):
        spec = self.specs()["base"]
        rng = np.random.default_rng(4)
        first = solve_one(rng.uniform(0.0, 2.0, size=(spec.n, spec.m)), spec)
        tableau, basis = first.final[0].copy(), first.final[1].copy()
        solve_one(rng.uniform(0.0, 2.0, size=(spec.n, spec.m)), spec, start=first.final)
        assert np.array_equal(first.final[0], tableau) and np.array_equal(first.final[1], basis)

    def test_zero_weights_pass_the_start_on(self):
        spec = self.specs()["base"]
        first = solve_one(np.ones((spec.n, spec.m)), spec)
        idle = solve_one(np.zeros((spec.n, spec.m)), spec, start=first.final)
        assert idle.objective_value == 0.0 and idle.final is first.final

    def test_mismatched_start_rejected(self):
        small = PolytopeSpec(1, 1, np.array([[1.0]]), 0.5)
        spec = self.specs()["base"]
        start = solve_one(np.array([[1.0]]), small).final
        with pytest.raises(LpError, match="start tableau"):
            solve_one(np.ones((spec.n, spec.m)), spec, start=start)

    @pytest.mark.parametrize("kind", ["base", "extended"])
    @pytest.mark.parametrize("seed", range(4))
    def test_degenerate_sequence_terminates_through_bland(self, kind, seed, monkeypatch):
        # Half-integer costs, small-integer omega with many zeros and ties:
        # degenerate vertices everywhere.  With Bland's rule taking over at
        # the first degenerate pivot, the fallback runs from warm starts.
        monkeypatch.setattr(polytope_lp, "DEGENERATE_RUN", 1)
        rng = np.random.default_rng(40 + seed)
        n, m = 4, 3
        weights = 0.5 * rng.integers(1, 3, size=(n, m))
        dist = np.ones(n) if kind == "extended" else None
        spec = PolytopeSpec(n, m, weights, float(rng.integers(1, 4)), dist,
                            2.0 if kind == "extended" else None)
        sol, fallbacks = None, 0
        for _ in range(40):
            omega = rng.integers(0, 3, size=(n, m)).astype(float)
            omega[rng.random((n, m)) < 0.4] = 0.0
            sol = solve_one(omega, spec, start=None if sol is None else sol.final)
            fallbacks += sol.fell_back
            if kind == "base":
                expected = mckp_fractional_oracle(omega, weights, spec.budget_B)
            else:
                expected = solve_one(omega, spec).objective_value
            assert sol.objective_value == pytest.approx(expected, rel=1e-9, abs=1e-12)
            spec.check_feasible(sol.matrix(n, m))
        assert fallbacks > 0

    def test_beale_from_a_warm_start_falls_back_and_solves(self):
        # A zero objective makes no pivot, so its final tableau is the slack
        # basis; Beale's objective from there cycles under Dantzig's rule
        # until the fallback, whose degenerate-run counter starts afresh.
        c, A, b = TestSimplex.BEALE
        idle = solve_generic_lp(np.zeros(4), A, b)
        assert idle.pivots == 0
        sol = solve_generic_lp(c, A, b, start=idle.final)
        assert sol.objective_value == pytest.approx(1.25, abs=1e-12)
        assert sol.fell_back and sol.pivots > polytope_lp.DEGENERATE_RUN
        again = solve_generic_lp(c, A, b, start=sol.final)
        assert again.pivots == 0 and not again.fell_back


class TestStackedInnerLp:
    """solve_inner_lp on a (J, n, m) stack: the leading rows the start's basis
    still solves are kept without a pivot, the first row it fails is solved
    from the start, and the rows after it are dropped."""

    specs = staticmethod(TestWarmStart.specs)

    @pytest.mark.parametrize("kind", ["base", "extended"])
    @pytest.mark.parametrize("seed", range(3))
    def test_rows_match_single_warm_solves(self, kind, seed):
        spec = self.specs()[kind]
        rng = np.random.default_rng(60 + seed)
        omega = rng.uniform(0.0, 2.0, size=(spec.n, spec.m))
        first = solve_one(omega, spec)
        other = rng.uniform(0.0, 2.0, size=(spec.n, spec.m))
        stack = np.stack([omega, 0.5 * omega, 3.0 * omega, other, omega, omega])
        single = [solve_one(w, spec, start=first.final) for w in stack[:4]]
        assert [sol.pivots for sol in single[:3]] == [0, 0, 0] and single[3].pivots > 0
        kept = step_solutions(solve_inner_lp(stack, spec, start=first.final), first.final)
        assert len(kept) == 4
        for got, want in zip(kept[:3], single):
            assert got.pivots == 0 and not got.fell_back and got.final is first.final
            assert np.array_equal(got.x, first.x)
            assert got.objective_value == pytest.approx(want.objective_value, rel=1e-14)
            assert np.allclose(got.dual, want.dual, rtol=1e-14, atol=1e-15)
        last = kept[3]
        assert (last.pivots, last.objective_value) == (single[3].pivots, single[3].objective_value)
        assert np.array_equal(last.x, single[3].x)

    def test_zero_row_ends_the_run(self):
        spec = self.specs()["base"]
        omega = np.random.default_rng(7).uniform(0.0, 2.0, size=(spec.n, spec.m))
        first = solve_one(omega, spec)
        stack = np.stack([omega, np.zeros_like(omega), omega])
        kept = step_solutions(solve_inner_lp(stack, spec, start=first.final), first.final)
        assert len(kept) == 2 and kept[0].pivots == 0
        assert kept[1].objective_value == 0.0 and not kept[1].x.any()
        assert kept[1].final is first.final

    def test_without_start_solves_the_first_row(self):
        spec = self.specs()["extended"]
        stack = np.random.default_rng(8).uniform(0.0, 2.0, size=(3, spec.n, spec.m))
        (sol,) = step_solutions(solve_inner_lp(stack, spec), None)
        cold = solve_one(stack[0], spec)
        assert sol.objective_value == cold.objective_value and np.array_equal(sol.x, cold.x)

    def test_kept_rows_come_as_one_record(self):
        spec = self.specs()["extended"]
        omega = np.random.default_rng(9).uniform(0.0, 2.0, size=(spec.n, spec.m))
        first = solve_one(omega, spec)
        scales = np.array([1.0, 0.5, 3.0, 2.0])
        kept = solve_inner_lp(scales[:, None, None] * omega, spec, start=first.final)
        assert kept.final is first.final and (kept.pivots, kept.fell_back) == (0, False)
        assert np.array_equal(kept.x, first.x)
        assert kept.values.shape == (4,) and kept.duals.shape == (4, len(first.dual))
        assert len(kept.gaps) == 4
        assert np.allclose(kept.values, scales * first.objective_value, rtol=1e-14)

    def test_mismatched_start_rejected(self):
        small = PolytopeSpec(1, 1, np.array([[1.0]]), 0.5)
        spec = self.specs()["base"]
        start = solve_one(np.array([[1.0]]), small).final
        with pytest.raises(LpError, match="start tableau"):
            solve_inner_lp(np.ones((4, spec.n, spec.m)), spec, start=start)
        tableau, basis = solve_one(np.ones((spec.n, spec.m)), spec).final
        with pytest.raises(LpError, match="start tableau"):
            solve_inner_lp(np.ones((4, spec.n, spec.m)), spec, start=(tableau, basis[:-1]))

    def test_weight_guard_covers_every_row(self):
        spec = self.specs()["base"]
        stack = np.ones((3, spec.n, spec.m))
        stack[2, 0, 0] = -1.0
        with pytest.raises(LpError, match="nonnegative"):
            solve_inner_lp(stack, spec)
        with pytest.raises(LpError, match="weights must be"):
            solve_inner_lp(np.ones((3, spec.m, spec.n + 1)), spec)

    def test_only_stacks_are_taken(self):
        # the ascent passes stacks only: one (n, m) matrix, or no rows, is refused
        spec = self.specs()["base"]
        first = solve_one(np.ones((spec.n, spec.m)), spec)
        for weights in (np.ones((spec.n, spec.m)), np.ones((0, spec.n, spec.m))):
            for start in (None, first.final):
                with pytest.raises(LpError, match="weights must be a stack"):
                    solve_inner_lp(weights, spec, start=start)


class TestStackedCertify:
    """_certify on stacked c, values and duals: every row with the single-LP
    tolerances, and the message of the single certificate of the row that
    fails."""

    @staticmethod
    def rows(seed, count=3):
        rng = np.random.default_rng(seed)
        A, b = rng.uniform(0.1, 1.0, (3, 5)), rng.uniform(0.5, 1.0, 3)
        C = rng.uniform(0.1, 1.0, (count, 5))
        sols = [solve_generic_lp(c, A, b) for c in C]
        return (C, A, b, np.array([sol.objective_value for sol in sols]),
                np.array([sol.dual for sol in sols]))

    @pytest.mark.parametrize("seed", range(3))
    def test_clean_rows_return_each_gap(self, seed):
        C, A, b, values, duals = self.rows(70 + seed)
        gaps = polytope_lp._certify(C, A, b, values, duals)
        for j in range(len(C)):
            single = polytope_lp._certify(C[j], A, b, float(values[j]), duals[j])
            assert gaps[j] == pytest.approx(single, abs=1e-15)

    @pytest.mark.parametrize("row", [1, 2])
    @pytest.mark.parametrize("fault", ["dual", "reduced cost", "gap"])
    def test_a_later_row_fails_with_the_single_message(self, row, fault):
        C, A, b, values, duals = self.rows(80 + row)
        if fault == "dual":
            duals[row, 1] = -1e-6
        elif fault == "reduced cost":
            C[row, np.argmin(duals[row] @ A - C[row])] += 1e-3  # a column with zero slack
        else:
            values[row] += 1e-3 * (1.0 + values[row])
        with pytest.raises(NumericError) as single:
            polytope_lp._certify(C[row], A, b, float(values[row]), duals[row])
        with pytest.raises(NumericError) as stacked:
            polytope_lp._certify(C, A, b, values, duals)
        assert str(stacked.value) == str(single.value)
        polytope_lp._certify(C[:row], A, b, values[:row], duals[:row])  # the rows before pass


def outcome(fn, *args):
    """("passed", result) or the (class, message) of what fn raised.

    Non-finite data may make the arithmetic warn; both sides see the same
    arithmetic, so warnings are silenced and only the outcome is compared.
    """
    try:
        with np.errstate(all="ignore"):
            return "passed", repr(fn(*args))
    except Exception as exc:  # the class is compared, so catch them all
        return type(exc), str(exc)


def ulps(x):
    """x and its two floating-point neighbours."""
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


SPECIAL = [np.nan, np.inf, -np.inf, -1.0, -5e-324, -0.0, 0.0]


class TestGuardsAgainstWrappers:
    """The LP guards written with ndarray methods against copies that use
    the np.any / np.all / np.sum wrappers (tests/reference.py): each input
    passes both or makes both raise the same class with the same message."""

    TOL = 1e-9

    @staticmethod
    def spec(rng, n, m, extended):
        dist = rng.uniform(0.5, 2.0, size=n) if extended else None
        return PolytopeSpec(n, m, rng.uniform(0.1, 1.5, size=(n, m)), rng.uniform(0.3, 2.5),
                            dist, rng.uniform(0.3, 1.0) * dist.sum() if extended else None)

    def feasible_cases(self, rng, spec):
        """y arrays on and around every threshold check_feasible compares with."""
        n, m, tol = spec.n, spec.m, self.TOL
        cases = [rng.uniform(0.0, 1.0 / m, size=(n, m)) for _ in range(20)]
        cases += [rng.uniform(-2 * tol, 1.0, size=(n, m)) for _ in range(10)]
        base = rng.uniform(0.0, 0.5 / m, size=(n, m))
        for edge in ulps(-tol) + ulps(1 + tol):
            y = base.copy()
            y[rng.integers(n), rng.integers(m)] = edge
            cases.append(y)
        for v in range(n):  # row v sums to 1 + tol, then one ulp either side
            y = base.copy()
            y[v, -1] = 0.0
            y[v, -1] = 1 + tol - y[v].sum()
            for last in ulps(y[v, -1]):
                y = y.copy()
                y[v, -1] = last
                cases.append(y)
        for row in cases[:5]:  # entries that are not finite, alone and beside a violation
            for value in SPECIAL[:3]:
                y = row.copy()
                y[rng.integers(n), rng.integers(m)] = value
                cases.append(y)
                y = y.copy()
                y[rng.integers(n), rng.integers(m)] = -1.0
                cases.append(y)
        return cases

    @staticmethod
    def at_budget(spec, y, weights, field, tol, **fixed):
        """Specs whose knapsack `field` puts the spend of y exactly at, and one
        ulp around, the check's own threshold: budget (1 + tol)."""
        spend = float(np.sum(weights * y))
        specs = []
        for budget in ulps(spend / (1 + tol)):
            values = dict(spec.__dict__, **fixed)
            values.pop("constraint_rows", None)
            values[field] = budget
            specs.append(PolytopeSpec(**values))
        return specs

    @pytest.mark.parametrize("extended", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_check_feasible(self, extended, seed):
        rng = np.random.default_rng(900 + seed)
        spec = self.spec(rng, 3, 2, extended)
        pairs = [(spec, y) for y in self.feasible_cases(rng, spec)]
        y = rng.uniform(0.0, 0.5 / spec.m, size=(spec.n, spec.m))
        pairs += [(s, y) for s in self.at_budget(spec, y, spec.redemption_weights,
                                                  "budget_B", self.TOL)]
        if extended:  # with room in the redemption knapsack
            pairs += [(s, y) for s in self.at_budget(spec, y, spec.dist_cost[:, None],
                                                      "budget_K", self.TOL, budget_B=1e9)]
        seen = set()
        for spec_i, y in pairs:
            got = outcome(spec_i.check_feasible, y)
            assert got == outcome(check_feasible_wrappers, spec_i, y)
            seen.add(got[1] if got[0] != "passed" else "passed")
        assert "passed" in seen and "box constraint violated" in seen
        assert "per-user cap violated" in seen and "redemption knapsack violated" in seen
        if extended:
            assert "distribution knapsack violated" in seen

    @pytest.mark.parametrize("seed", range(4))
    def test_inner_lp_weight_guard(self, seed):
        rng = np.random.default_rng(950 + seed)
        spec = self.spec(rng, 3, 2, extended=bool(seed % 2))
        cases = [rng.uniform(0.0, 2.0, size=(3, 2)), np.zeros((3, 2)), np.zeros((2, 3)),
                 [[1.0, 2.0]] * 3, np.ones(6)]
        for value in SPECIAL:
            for count in (1, 2):
                w = rng.uniform(0.0, 2.0, size=(3, 2))
                w.flat[rng.choice(6, size=count, replace=False)] = value
                cases.append(w)
        w = rng.uniform(0.0, 2.0, size=(3, 2))
        w[0, 0], w[1, 1] = np.nan, -1.0
        cases.append(w)
        seen = set()
        for w in cases:
            stack = np.asarray(w, dtype=float)[None]
            ref = outcome(inner_weights_guard_wrappers, stack, spec)
            got = outcome(solve_inner_lp, stack, spec)
            assert (got[0] == "passed") == (ref[0] == "passed")
            if ref[0] != "passed":
                assert got == ref
            seen.add(ref[0])
        assert seen == {"passed", LpError}

    @pytest.mark.parametrize("seed", range(4))
    def test_simplex_input_guards(self, seed):
        # A > 0 keeps every LP that passes the guards bounded, so the
        # simplex itself raises nothing
        rng = np.random.default_rng(980 + seed)
        cases = []
        for _ in range(10):
            c, A, b = rng.normal(size=3), rng.uniform(0.1, 1.0, (2, 3)), rng.uniform(0, 1, 2)
            cases.append((c, A, b))
            for target in range(3):
                for value in SPECIAL:
                    data = [c.copy(), A.copy(), b.copy()]
                    data[target].flat[rng.integers(data[target].size)] = value
                    cases.append(tuple(data))
                    b_neg = data[2].copy()
                    b_neg[rng.integers(2)] = -rng.uniform(0, 1)  # a negative rhs beside it
                    cases.append((data[0], data[1], b_neg))
        seen = set()
        for c, A, b in cases:
            ref = outcome(simplex_input_guards_wrappers, c, A, b)
            got = outcome(solve_generic_lp, c, A, b)
            assert (got[0] == "passed") == (ref[0] == "passed")
            if ref[0] != "passed":
                assert got == ref
            seen.add(ref[0])
        assert seen == {"passed", LpError, NumericError}

    @pytest.mark.parametrize("seed", range(4))
    def test_certify(self, seed):
        rng = np.random.default_rng(990 + seed)
        c, A, b = rng.uniform(0.1, 1.0, 4), rng.uniform(0.1, 1.0, (3, 4)), rng.uniform(0.5, 1, 3)
        sol = solve_generic_lp(c, A, b)
        args = [(c, A, b, sol.objective_value, sol.dual)]
        for _ in range(10):
            dual = sol.dual.copy()
            i = rng.integers(len(dual))
            for value in ulps(-1e-8) + SPECIAL[:3]:
                dual[i] = value
                args.append((c, A, b, sol.objective_value, dual.copy()))
            args.append((c, A, b, sol.objective_value + rng.normal() * 1e-7, sol.dual))
            c_bad = c.copy()
            c_bad[rng.integers(len(c))] += rng.choice([1e-3, np.nan, np.inf])
            args.append((c_bad, A, b, sol.objective_value, sol.dual))
            args.append((c, A, b, rng.choice([np.nan, np.inf]), sol.dual))
        seen = set()
        for a in args:
            got = outcome(polytope_lp._certify, *a)
            assert got == outcome(certify_wrappers, *a)
            seen.add(got[1] if got[0] != "passed" else "passed")
        assert {"passed", "dual infeasible: negative multiplier",
                "dual infeasible: reduced cost below zero",
                "duality gap nan exceeds tolerance"} <= seen  # a NaN dual entry
        assert any("duality gap" in message for message in seen)
