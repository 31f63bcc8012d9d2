from itertools import combinations

import numpy as np
import pytest

from couponcascade import polytope_lp
from couponcascade.polytope_lp import (
    LpError,
    NumericError,
    PolytopeSpec,
    UnboundedError,
    simplex_maximize,
    solve_generic_lp,
    solve_inner_lp,
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
            simplex_maximize([1.0, 0.0], np.array([[0.0, 1.0]]), np.array([1.0]))

    def test_negative_rhs_rejected(self):
        with pytest.raises(LpError, match="nonnegative"):
            simplex_maximize([1.0], np.array([[1.0]]), np.array([-1.0]))

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
        sol = solve_inner_lp(np.array([[1.0]]), spec)
        assert sol.x[0] == pytest.approx(0.5)
        assert sol.objective_value == pytest.approx(0.5)

    def test_box_binds(self):
        spec = self.spec(1, 1, [[1.0]], 10.0)
        sol = solve_inner_lp(np.array([[1.0]]), spec)
        assert sol.x[0] == pytest.approx(1.0)

    def test_picks_heavier_weight_first(self):
        # two users, unit costs, B=1: all budget on the omega=3 user
        spec = self.spec(2, 1, [[1.0], [1.0]], 1.0)
        sol = solve_inner_lp(np.array([[3.0], [1.0]]), spec)
        assert sol.matrix(2, 1)[:, 0] == pytest.approx([1.0, 0.0])
        assert sol.objective_value == pytest.approx(3.0)

    def test_row_cap_enforced(self):
        spec = self.spec(1, 2, [[0.1, 0.1]], 10.0)
        sol = solve_inner_lp(np.array([[1.0, 1.0]]), spec)
        assert sol.matrix(1, 2).sum() == pytest.approx(1.0)

    def test_all_zero_weights(self):
        spec = self.spec(2, 2, np.full((2, 2), 0.5), 1.0)
        sol = solve_inner_lp(np.zeros((2, 2)), spec)
        assert np.all(sol.x == 0.0) and sol.objective_value == 0.0

    def test_negative_weights_rejected(self):
        spec = self.spec(1, 1, [[1.0]], 1.0)
        with pytest.raises(LpError, match="nonnegative"):
            solve_inner_lp(np.array([[-1.0]]), spec)

    def test_distribution_knapsack(self):
        spec = self.spec(2, 1, [[0.1], [0.1]], 10.0, dist=[1.0, 1.0], K=1.0)
        sol = solve_inner_lp(np.array([[2.0], [1.0]]), spec)
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
        sol = solve_inner_lp(omega, spec)
        oracle = mckp_fractional_oracle(omega, weights, B)
        assert sol.objective_value == pytest.approx(oracle, rel=1e-8)

    def test_feasibility_check(self):
        spec = self.spec(2, 2, np.full((2, 2), 0.5), 1.5)
        sol = solve_inner_lp(np.ones((2, 2)), spec)
        spec.check_feasible(sol.matrix(2, 2))

    def test_rows_have_no_box_and_are_built_once(self):
        spec = self.spec(3, 2, np.full((3, 2), 0.5), 1.0, dist=[1.0, 1.0, 1.0], K=2.0)
        A, b = spec.constraint_rows
        assert A.shape == (3 + 2, 6) and b.shape == (5,)
        assert spec.constraint_rows[0] is A
        assert len(solve_inner_lp(np.zeros((3, 2)), spec).dual) == len(b)

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
        sol = solve_inner_lp(omega, spec)
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
