"""Small dense LP solver for the inner ascent step and the exact oracles.

Problems are maximizations of a linear objective over {x >= 0, Ax <= b}
with b >= 0, which covers every LP in this package: the per-iteration
ascent direction (per-user caps and knapsacks) and the oracle LPs over
policy or convex-combination weights.  The origin is always feasible, so a
single primal simplex phase suffices.  It prices by Dantzig's rule and
falls back to Bland's rule after a run of degenerate pivots, so every solve
terminates; every optimal solve is certified by the dual solution read off
the final tableau.  Pricing is relative: a reduced cost enters only below
-1e-10 times the largest |entry| of its objective, so no pivot depends on
the objective's unit (gamma's, in the ascent's and the oracle's LPs).  Any
basis of {Ax <= b} stays primal feasible when only c changes, so an LP may
warm-start from the final tableau of an earlier solve over the same
(A, b): the ascent's per-step LPs do, and so do the oracle's extension
LPs.  The ascent's (A, b) are checked once per `PolytopeSpec`, so its many
solves check only their objectives.

`solve_inner_lp` takes only a stack of weights: the ascent checks a
window of several steps' objectives at once against the basis it starts
from.  One product gives every row's objective row on that basis; the
leading rows with no negative reduced cost are solved by it and kept
together, and the first row that is not kept is solved by the simplex from
the start and ends the window.  The steps it takes come back as one
`AscentSteps` record: per step the value, dual and gap, and for the last
step its direction and the basis the next solve starts from.

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
    def from_instance(inst: Instance, k_scale: float = 1.0) -> "PolytopeSpec":
        """Build the constraint polytope; an instance with a budget_K gets the
        distribution knapsack at k_scale*K (b*K in the extended ascent)."""
        if inst.budget_K is None:
            return PolytopeSpec(inst.n, inst.m, inst.redemption_weights, inst.budget_B)
        return PolytopeSpec(inst.n, inst.m, inst.redemption_weights, inst.budget_B,
                            np.asarray(inst.dist_cost, dtype=float), k_scale * inst.budget_K)

    @cached_property
    def constraint_rows(self):
        """(A, b) for {y flat >= 0, A y <= b}: per-user caps, knapsack(s).

        Built and checked as `solve_generic_lp` checks its data, once per
        spec, so the ascent's solves need not check them again.  The box
        y <= 1 follows from the caps and y >= 0.
        """
        rows = [np.kron(np.eye(self.n), np.ones(self.m)),
                self.redemption_weights.reshape(1, -1)]
        bounds = [np.ones(self.n), [self.budget_B]]
        if self.budget_K is not None:
            rows.append(np.repeat(self.dist_cost, self.m)[None])
            bounds.append([self.budget_K])
        A, b = np.vstack(rows), np.concatenate(bounds)
        _check_rows(A, b)
        return A, b

    def check_feasible(self, y: np.ndarray) -> None:
        """Raise NumericError unless y, an (n, m) point or a (J, n, m) stack
        of them, lies in the polytope up to rounding: 1e-9 on the box and
        the caps, and 1e-9 of its budget on each knapsack, whatever the
        unit of the costs."""
        # ndarray methods, not the np.any / np.sum wrappers: the ascent runs
        # this every window, and at desk scale the wrappers cost as much as
        # the arithmetic.  A NaN passes neither bound, so it is refused.
        if not ((y >= -1e-9).all() and (y <= 1 + 1e-9).all()):
            raise NumericError("box constraint violated")
        if (y.sum(axis=-1) > 1 + 1e-9).any():
            raise NumericError("per-user cap violated")
        redeemed = (self.redemption_weights * y).sum(axis=(-2, -1))
        if (redeemed > self.budget_B * (1 + 1e-9)).any():
            raise NumericError("redemption knapsack violated")
        if self.budget_K is not None:
            spend = (self.dist_cost[:, None] * y).sum(axis=(-2, -1))
            if (spend > self.budget_K * (1 + 1e-9)).any():
                raise NumericError("distribution knapsack violated")


@dataclass
class LpSolution:
    x: np.ndarray
    objective_value: float
    dual: np.ndarray
    duality_gap: float
    pivots: int = 0
    fell_back: bool = False  # Bland's rule took over from Dantzig's
    final: tuple | None = None  # (tableau, basis); the `start` of a later LP over the same (A, b)


@dataclass
class AscentSteps:
    """The steps one `solve_inner_lp` call takes, in order: per step the LP
    value, dual and duality gap, and for the last step its direction x, the
    (tableau, basis) a later solve starts from, and its simplex's pivots and
    fallback.  Every step before the last keeps the start's basis, so it
    moves along the start's vertex without a pivot."""

    values: np.ndarray  # (k,)
    duals: np.ndarray  # (k, constraint rows)
    gaps: list[float]
    x: np.ndarray
    final: tuple | None
    pivots: int = 0
    fell_back: bool = False


def _check_rows(A, b, c=()):
    """The input guards of the simplex, on one LP's data or on constant
    (A, b) checked once for many objectives."""
    if (b < 0).any():
        raise LpError("right-hand sides must be nonnegative (origin-feasible form)")
    if not (np.isfinite(c).all() and np.isfinite(A).all() and np.isfinite(b).all()):
        raise NumericError("non-finite LP data")


def _simplex(c, A, b, start):
    """Primal simplex from the slack basis or `start`; Dantzig pricing, Bland fallback.

    Maximize c.x subject to A x <= b, x >= 0, with b >= 0, on float arrays
    that passed `_check_rows`; its callers certify the result.  The
    entering column has the most negative reduced cost (Dantzig); the
    leaving row has the smallest ratio, ties going to the lowest basic
    index.  Dantzig's rule can cycle on degenerate vertices (Beale's
    example), so after DEGENERATE_RUN consecutive pivots that leave the
    objective unchanged the rest of the solve enters the lowest-index
    improving column instead, which is Bland's rule and terminates from any
    basis (Bland, Math. Oper. Res. 1977).  Each pivot is one rank-1 update
    of the dense tableau.

    `start` is the final (tableau, basis) of an earlier solve over the same
    A and b.  Its constraint rows B^-1 [A I b] are kept and only the
    objective row is rebuilt for c, as c_B B^-1 [A I b] - [c 0 0]; the
    pivot limit and the degenerate-run counter apply to this solve alone.

    Returns (x, value, dual, pivots, fell_back, final), where final is the
    (tableau, basis) to pass as a later `start`.
    """
    n_rows, n_vars = A.shape
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
    reduced = T[-1, :-1]  # a view: every pivot updates it in place
    # pricing in c's unit: 1e-10 times its largest |entry|, or 1e-10 for c = 0
    tol = -1e-10 * (np.abs(c).max(initial=0.0) or 1.0)
    for pivots in range(MAX_PIVOTS):
        if bland:
            improving = reduced < tol
            if not improving.any():
                break
            enter = int(improving.argmax())
        else:  # the most negative reduced cost, unless none is negative
            enter = int(reduced.argmin())
            if not reduced[enter] < tol:
                break
        step = _pivot(T, basis, enter, update)
        degenerate = degenerate + 1 if step <= 1e-10 else 0
        bland = bland or degenerate >= DEGENERATE_RUN
    else:
        raise NumericError("pivot limit exceeded")

    dual = T[-1, n_vars:n_vars + n_rows].copy()
    return basis_vertex((T, basis), n_vars), float(T[-1, -1]), dual, pivots, bland, (T, basis)


def _pivot(T, basis, enter: int, update):
    """One simplex pivot of (T, basis) in place, entering column `enter`.

    The ratio test picks the leaving row: the smallest ratio of right-hand
    side to a positive entry of the column, ties going to the lowest basic
    index.  The pivot is one rank-1 update of the dense tableau, built in
    `update`, a buffer of T's shape.  Returns the leaving row's right-hand
    side before the pivot, zero for a degenerate pivot, which does not move
    the vertex.  Overflows leave an inf or NaN in T without a warning: a
    NaN ratio raises NumericError, and the certificate refuses the rest.
    """
    col = T[:-1, enter]
    rows = (col > 1e-10).nonzero()[0]
    if not rows.size:
        raise UnboundedError("LP is unbounded")
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = T[rows, -1] / col[rows]
        ties = rows[ratios == ratios.min()]  # none when a ratio, and so the min, is NaN
        if not ties.size:
            raise NumericError("NaN in the simplex's ratio test")
        leave = ties[basis[ties].argmin()]
        step = T[leave, -1]
        pivot_row = T[leave] / T[leave, enter]
        T -= np.multiply(T[:, enter, None], pivot_row, out=update)
    T[leave] = pivot_row
    basis[leave] = enter
    return step


def basis_vertex(final, n_vars: int) -> np.ndarray:
    """The first n_vars coordinates of the vertex of a (tableau, basis) pair:
    the basic variables read off the right-hand column, the rest zero."""
    T, basis = final
    x = np.zeros(T.shape[1] - 1)
    x[basis] = T[:-1, -1]
    return x[:n_vars]


def _certify(c, A, b, value, dual):
    """Strong-duality certificate; raises NumericError when it fails.

    c, value and dual may carry a leading axis: a stack of LPs over the same
    (A, b), every row certified with the same tolerances and the message of
    the first row that fails.  Returns the gap, or a list of one per row.
    A gap that is not finite fails; it is whenever the value or a dual
    entry is, and the scaled test alone would pass a NaN or an inf value.
    """
    scale = 1.0 + np.abs(value)
    if (dual < -1e-8).any():
        raise NumericError("dual infeasible: negative multiplier")
    with np.errstate(over="ignore", invalid="ignore"):
        slack = np.einsum("...r,rn->...n", dual, A) - c
        gap = np.abs(dual @ b - value)
    if (slack < -1e-8 * np.reshape(scale, (-1, 1))).any():
        raise NumericError("dual infeasible: reduced cost below zero")
    wide = np.atleast_1d(gap)[~np.atleast_1d(np.isfinite(gap) & (gap <= 1e-8 * scale))]
    if wide.size:
        raise NumericError(f"duality gap {wide[0]:.3e} exceeds tolerance")
    return gap.tolist()


def solve_generic_lp(c, A, b, start=None) -> LpSolution:
    """Maximize c.x over {x >= 0, A x <= b} with certificate."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_rows(A, b, c)
    x, value, dual, pivots, fell_back, final = _simplex(c, A, b, start)
    return LpSolution(x, value, dual, _certify(c, A, b, value, dual), pivots, fell_back, final)


def solve_inner_lp(weights: np.ndarray, spec: PolytopeSpec, start=None) -> AscentSteps:
    """The ascent-direction LP: maximize sum omega_vd y_vd over the polytope.

    `start` is the `final` of an earlier solution over the same spec; the
    solve warm-starts from its basis.

    weights is a (J, n, m) stack, the objectives of J successive ascent
    steps.  The leading rows that the start's basis solves (a nonzero
    objective with no reduced cost below the simplex's own stopping rule)
    are kept without a pivot and certified together; the first row that
    fails is solved by the simplex from `start`, and the rows after it are
    dropped.  A stack of one row, as every sampled step passes, goes to the
    warm simplex alone: the kept-basis check first made the sampled-wide
    benchmark 2.6-4.1 % slower.  Returns the `AscentSteps` of the rows kept
    and the row solved after them, if any.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 3 or not len(weights) or weights.shape[1:] != (spec.n, spec.m):
        raise LpError(f"weights must be a stack of {spec.n}x{spec.m} matrices")
    if not np.isfinite(weights).all() or (weights < 0).any():
        raise LpError("weights must be finite and nonnegative (clamp before solving)")
    A, b = spec.constraint_rows
    C = weights.reshape(len(weights), -1)
    n_vars = A.shape[1]
    values, duals = (_kept_basis(C, A, start) if start is not None and len(C) > 1
                     else (np.empty(0), np.empty((0, len(b)))))
    kept, gaps, x = len(values), [], None
    if kept:  # certified together, at the start's vertex
        gaps = _certify(C[:kept], A, b, values, duals)
        x = basis_vertex(start, n_vars)
        spec.check_feasible(x.reshape(spec.n, spec.m))
    if kept == len(C):
        return AscentSteps(values, duals, gaps, x, start)
    c = C[kept]
    if c.any():  # (A, b) were checked with the spec
        x, value, dual, pivots, fell_back, final = _simplex(c, A, b, start)
        gap = _certify(c, A, b, value, dual)
        spec.check_feasible(x.reshape(spec.n, spec.m))
    else:
        # Any feasible point is optimal; zero is the canonical choice.
        # The start's basis passes on to the next solve.
        x, value, dual, gap = np.zeros(n_vars), 0.0, np.zeros(len(b)), 0.0
        pivots, fell_back, final = 0, False, start
    return AscentSteps(np.concatenate((values, [value])), np.concatenate((duals, dual[None])),
                       gaps + [gap], x, final, pivots, fell_back)


def _kept_basis(C, A, start):
    """The values and duals of the leading rows of C that the start's basis
    solves, as (k,) and (k, constraint rows) arrays; k may be 0."""
    n_rows, n_vars = A.shape
    T, basis = start
    if T.shape != (n_rows + 1, n_vars + n_rows + 1) or basis.shape != (n_rows,):
        raise LpError("start tableau does not match the LP's shape")
    costs = np.zeros((len(C), n_vars + n_rows))
    costs[:, :n_vars] = C
    # Every row's objective row on the start's basis.  einsum, not @: a
    # matrix product would make OpenBLAS map its gemm buffer, a quarter MB
    # of resident memory that no other LP here needs.
    objective = np.einsum("jr,rc->jc", costs[:, basis], T[:n_rows])
    objective[:, :n_vars] -= C
    # the simplex's pricing per row; C >= 0, and a zero row is not kept anyway
    tol = -1e-10 * C.max(axis=1, keepdims=True)
    ok = C.any(axis=1) & ~(objective[:, :-1] < tol).any(axis=1)
    kept = len(C) if ok.all() else int(ok.argmin())
    return objective[:kept, -1], objective[:kept, n_vars:n_vars + n_rows]
