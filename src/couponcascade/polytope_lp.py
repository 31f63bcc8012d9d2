"""Small dense LP solver for the inner ascent step and the exact oracles.

Problems are maximizations of a linear objective over {x >= 0, Ax <= b}
with b >= 0, which covers every LP in this package: the per-iteration
ascent direction (per-user caps and knapsacks) and the oracle LPs over
policy or convex-combination weights.  The origin is always feasible, so a
single primal simplex phase suffices.  It prices by Dantzig's rule and
falls back to Bland's rule after a run of degenerate pivots, so every solve
terminates; every optimal solve is certified by the dual solution read off
the final tableau.  Any basis of {Ax <= b} stays primal feasible when only
c changes, so an LP may warm-start from the final tableau of an earlier
solve over the same (A, b): the ascent's per-step LPs do.

No LP carries box rows y <= 1: with y >= 0, each user's cap
sum_d y_vd <= 1 already bounds every entry of its row by 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from couponcascade.instance import Instance


MAX_PIVOTS = 50_000
DEGENERATE_RUN = 50  # consecutive degenerate pivots before Bland's rule takes over


class LpError(RuntimeError):
    pass


class UnboundedError(LpError):
    pass


class NumericError(LpError):
    pass


@dataclass
class PolytopeSpec:
    """The ascent polytope: row caps, redemption knapsack, optional distribution knapsack."""

    n: int
    m: int
    redemption_weights: np.ndarray  # (n, m), p_v(d) * value(d)
    budget_B: float
    dist_cost: np.ndarray | None = None  # (n,), per-user a_v
    budget_K: float | None = None

    @staticmethod
    def from_instance(inst: Instance, k_scale: float | None = None) -> "PolytopeSpec":
        """Build the constraint polytope; with k_scale, bound the distribution knapsack by k_scale*K."""
        budget_K = None
        dist = None
        if k_scale is not None:
            if inst.budget_K is None:
                raise LpError("instance has no distribution budget")
            budget_K = k_scale * inst.budget_K
            dist = np.asarray(inst.dist_cost, dtype=float)
        return PolytopeSpec(inst.n, inst.m, inst.redemption_weights,
                            inst.budget_B, dist, budget_K)

    @cached_property
    def constraint_rows(self):
        """(A, b) for {y flat >= 0, A y <= b}: per-user caps, knapsack(s).

        Built once per spec.  The box y <= 1 follows from the caps and y >= 0.
        """
        rows = [np.kron(np.eye(self.n), np.ones(self.m)),
                self.redemption_weights.reshape(1, -1)]
        bounds = [np.ones(self.n), [self.budget_B]]
        if self.budget_K is not None:
            rows.append(np.repeat(self.dist_cost, self.m)[None])
            bounds.append([self.budget_K])
        return np.vstack(rows), np.concatenate(bounds)

    def check_feasible(self, y: np.ndarray, tol: float = 1e-9) -> None:
        if np.any(y < -tol) or np.any(y > 1 + tol):
            raise NumericError("box constraint violated")
        if np.any(y.sum(axis=1) > 1 + tol):
            raise NumericError("per-user cap violated")
        if float(np.sum(self.redemption_weights * y)) > self.budget_B + tol * (1 + self.budget_B):
            raise NumericError("redemption knapsack violated")
        if self.budget_K is not None:
            spend = float(np.sum(self.dist_cost[:, None] * y))
            if spend > self.budget_K + tol * (1 + self.budget_K):
                raise NumericError("distribution knapsack violated")


@dataclass
class LpSolution:
    x: np.ndarray
    objective_value: float
    status: str  # "optimal" (infeasible cannot occur: the origin is feasible)
    dual: np.ndarray
    duality_gap: float
    pivots: int = 0
    fell_back: bool = False  # Bland's rule took over from Dantzig's
    final: tuple | None = None  # (tableau, basis); the `start` of a later LP over the same (A, b)

    def matrix(self, n: int, m: int) -> np.ndarray:
        return self.x.reshape(n, m)


def simplex_maximize(c, A, b, tol: float = 1e-10, start=None):
    """Primal simplex from the slack basis or `start`; Dantzig pricing, Bland fallback.

    Maximize c.x subject to A x <= b, x >= 0, with b >= 0.  The entering
    column has the most negative reduced cost (Dantzig); the leaving row has
    the smallest ratio, ties going to the lowest basic index.  Dantzig's
    rule can cycle on degenerate vertices (Beale's example), so after
    DEGENERATE_RUN consecutive pivots that leave the objective unchanged the
    rest of the solve enters the lowest-index improving column instead,
    which is Bland's rule and terminates from any basis (Bland, Math. Oper.
    Res. 1977).  Each pivot is one rank-1 update of the dense tableau.

    `start` is the final (tableau, basis) of an earlier solve over the same
    A and b.  Its constraint rows B^-1 [A I b] are kept and only the
    objective row is rebuilt for c, as c_B B^-1 [A I b] - [c 0 0]; the
    pivot limit and the degenerate-run counter apply to this solve alone.

    Returns (x, value, dual, pivots, fell_back, final), where final is the
    (tableau, basis) to pass as a later `start`.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n_rows, n_vars = A.shape
    if np.any(b < 0):
        raise LpError("right-hand sides must be nonnegative (origin-feasible form)")
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise NumericError("non-finite LP data")

    if start is None:
        T = np.zeros((n_rows + 1, n_vars + n_rows + 1))
        T[:n_rows, :n_vars] = A
        T[:n_rows, n_vars:n_vars + n_rows] = np.eye(n_rows)
        T[:n_rows, -1] = b
        T[-1, :n_vars] = -c
        basis = np.arange(n_vars, n_vars + n_rows)
    else:
        T, basis = start[0].copy(), start[1].copy()
        if T.shape != (n_rows + 1, n_vars + n_rows + 1) or basis.shape != (n_rows,):
            raise LpError("start tableau does not match the LP's shape")
        costs = np.zeros(n_vars + n_rows)
        costs[:n_vars] = c
        T[-1] = costs[basis] @ T[:n_rows]
        T[-1, :n_vars] -= c

    update = np.empty_like(T)  # the rank-1 term, reused by every pivot
    degenerate, bland = 0, False
    for pivots in range(MAX_PIVOTS):
        reduced = T[-1, :-1]
        improving = reduced < -tol
        if not improving.any():
            break
        enter = int(np.argmax(improving)) if bland else int(np.argmin(reduced))
        col = T[:n_rows, enter]
        rows = np.flatnonzero(col > tol)
        if not rows.size:
            raise UnboundedError("LP is unbounded")
        ratios = T[rows, -1] / col[rows]
        ties = rows[ratios == ratios.min()]
        leave = ties[np.argmin(basis[ties])]
        degenerate = degenerate + 1 if T[leave, -1] <= tol else 0
        bland = bland or degenerate >= DEGENERATE_RUN
        pivot_row = T[leave] / T[leave, enter]
        T -= np.multiply.outer(T[:, enter], pivot_row, out=update)
        T[leave] = pivot_row
        basis[leave] = enter
    else:
        raise NumericError("pivot limit exceeded")

    x = np.zeros(n_vars + n_rows)
    x[basis] = T[:n_rows, -1]
    dual = T[-1, n_vars:n_vars + n_rows].copy()
    return x[:n_vars], float(T[-1, -1]), dual, pivots, bland, (T, basis)


def _certify(c, A, b, x, value, dual):
    """Strong-duality certificate; raises NumericError when it fails."""
    scale = 1.0 + abs(value)
    if np.any(dual < -1e-8):
        raise NumericError("dual infeasible: negative multiplier")
    slack = A.T @ dual - c
    if np.any(slack < -1e-8 * scale):
        raise NumericError("dual infeasible: reduced cost below zero")
    gap = abs(float(b @ dual) - value)
    if gap > 1e-8 * scale:
        raise NumericError(f"duality gap {gap:.3e} exceeds tolerance")
    return gap


def solve_generic_lp(c, A, b, start=None) -> LpSolution:
    """Maximize c.x over {x >= 0, A x <= b} with certificate."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    x, value, dual, pivots, fell_back, final = simplex_maximize(c, A, b, start=start)
    gap = _certify(c, A, b, x, value, dual)
    return LpSolution(x, value, "optimal", dual, gap, pivots, fell_back, final)


def solve_inner_lp(weights: np.ndarray, spec: PolytopeSpec, start=None) -> LpSolution:
    """The ascent-direction LP: maximize sum omega_vd y_vd over the polytope.

    `start` is the `final` of an earlier solution over the same spec; the
    solve warm-starts from its basis.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (spec.n, spec.m):
        raise LpError(f"weights must be {spec.n}x{spec.m}")
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise LpError("weights must be finite and nonnegative (clamp before solving)")
    A, b = spec.constraint_rows
    if not weights.any():
        # Any feasible point is optimal; zero is the canonical choice.
        # The start's basis passes on to the next solve.
        return LpSolution(np.zeros(A.shape[1]), 0.0, "optimal", np.zeros(len(b)), 0.0,
                          final=start)
    sol = solve_generic_lp(weights.reshape(-1), A, b, start)
    spec.check_feasible(sol.matrix(spec.n, spec.m))
    return sol

