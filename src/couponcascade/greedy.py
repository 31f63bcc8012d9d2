"""Continuous greedy ascent over the constrained matroid-knapsack polytope.

Starting from y = 0, each of the ceil(1/delta) iterations (N of them when
1/delta is within rounding of an integer N) estimates the multilinear
marginals, solves the linear ascent problem over the polytope
(with the distribution knapsack scaled to b*K in extended mode) and moves
y by delta times the optimal direction.  Only the objective of that LP
changes from step to step, so each step warm-starts from the previous
step's optimal basis.  The per-step increment keeps every intermediate y
inside the t-scaled polytope, and the final y inside the full polytope.

Most steps keep the previous basis, and so move along the same direction;
where the direction does change, the LP often zigzags, one pivot at a time,
among a few bases.  The exact path therefore takes the steps in windows.
Each step's basis is recorded, with the column its LP's one pivot entered.
When the bases of the last 2p steps repeat with a period p <= MAX_PERIOD
and every step of that cycle kept its basis or took one pivot, the window
plans the cycle onwards: `replay_pivots` builds each planned step's
(tableau, basis) from the one before with the simplex's own pivot.
Otherwise every step of the window keeps the last basis.  The window lays
out its points along the planned vertices, takes all their marginals in one
batched fold, and hands the stack to one `solve_inner_lp` call, which keeps
the leading steps whose LP the simplex would solve exactly as planned and
solves the first one it would not.  The points after that step are dropped
and the next window starts where it ended.  Each kept point is the one the
one-step loop would reach, bit for bit.

A window starts at WINDOW points and one that keeps every step doubles the
next, up to MAX_WINDOW; the first step that fails the plan resets it to
WINDOW.  So a long kept run, or a cycle that holds, costs few folds, while
after a failure speculation backs off to WINDOW points and their replayed
pivots; where no cycle shows, nothing is replayed.  A step whose LP gained nothing
(value 0) leaves y where it was, so the next window is one step.  The
sampled path runs windows of one step: speculative draws from its
generator would shift every later one.

Each step records F at the y it reached.  Both kinds of marginals return F
at the y they are taken at, exactly or over their own draws, so a step's F
comes from the next step's marginals; only the last step evaluates F itself.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from couponcascade.cascade import CascadeUtility
from couponcascade.instance import Instance
from couponcascade.objective import (
    marginal_omega,
    marginal_omega_exact,
    multilinear_F_exact,
    multilinear_F_mc,
)
from couponcascade.polytope_lp import (
    NumericError,
    PolytopeSpec,
    basis_vertex,
    replay_pivots,
    solve_inner_lp,
)


WINDOW = 8  # exact-path steps whose marginals one batched fold takes at first
MAX_WINDOW = 64  # a window that keeps every step doubles the next, up to this
MAX_PERIOD = 6  # the longest cycle of bases a window replays


class GreedyError(ValueError):
    pass


@dataclass
class GreedyConfig:
    """Knobs of the ascent.

    delta=None means the canonical 1/(nm)^2 step.  samples_per_marginal=None
    requests exact marginals and exact F; otherwise both are sampled, each
    step's marginals and F from the same draws.  Either way the utility's
    gamma vector (`CascadeUtility.gamma_vector`) must exist, so n <= 15.
    An instance with a budget_K runs in extended mode, which scales the
    distribution knapsack to b*K; any other instance ignores b.
    """

    delta: float | None = None
    samples_per_marginal: int | None = None
    seed: int = 0
    b: float = 0.25

    def step(self, inst: Instance) -> float:
        delta = self.delta if self.delta is not None else 1.0 / (inst.n * inst.m) ** 2
        if not 0 < delta <= 1:
            raise GreedyError("step size must lie in (0,1]")
        return delta

    def validate(self, inst: Instance) -> None:
        if inst.budget_K is not None and not 0 < self.b <= 0.5:
            raise GreedyError("scaling factor b must lie in (0, 1/2]")


@dataclass
class IterationRecord:
    t: float
    lp_value: float
    f_estimate: float


@dataclass
class GreedyTrace:
    """Per-step records and the final (n, m) array y; the LP counters and the
    seconds spent in marginals, F and ascent LPs stay out of the JSON.

    `F_s` is the one final F on both paths: every other step's F comes from
    the marginals and is counted in `marginals_s`.
    """

    iterations: list[IterationRecord] = field(default_factory=list)
    final: np.ndarray | None = None
    lp_pivots: int = 0
    lp_fallbacks: int = 0  # ascent LPs that fell back to Bland's rule
    lp_max_gap: float = 0.0
    lp_direction_changes: int = 0  # steps after the first whose LP left the previous basis
    marginal_windows: int = 0  # marginal evaluations, each for a window of steps
    points_folded: int = 0  # points those evaluations took, kept or not
    planned_windows: int = 0  # windows laid out along a replayed pivot cycle
    planned_steps_kept: int = 0  # steps of those windows kept as planned, without a simplex solve
    marginals_s: float = 0.0
    F_s: float = 0.0
    lp_s: float = 0.0

    def to_jsonable(self) -> dict:
        return {
            "iterations": [
                {"t": rec.t, "lp_value": rec.lp_value, "f_estimate": rec.f_estimate}
                for rec in self.iterations
            ],
            "final_y": self.final.tolist(),
        }


def _step_count(delta: float) -> int:
    """ceil(1/delta), except that a 1/delta within rounding of an integer N
    gives N steps: 1/(1/49) is 49.00000000000001 in floating point."""
    ratio = 1.0 / delta
    near = round(ratio)
    return near if abs(ratio - near) <= 1e-12 * ratio else math.ceil(ratio)


def continuous_greedy(inst: Instance, util: CascadeUtility, cfg: GreedyConfig) -> GreedyTrace:
    """Run the ascent and return the per-iteration trace with the final y."""
    cfg.validate(inst)
    delta = cfg.step(inst)
    steps = _step_count(delta)
    spec = PolytopeSpec.from_instance(
        inst, k_scale=None if inst.budget_K is None else cfg.b
    )
    exact = cfg.samples_per_marginal is None
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    y = np.zeros((inst.n, inst.m))
    trace = GreedyTrace()
    t = 0.0
    start = None  # the basis of the last solve, which the next one starts from
    moved = False  # whether the last step's LP had anything to gain
    size = WINDOW
    history = deque(maxlen=2 * MAX_PERIOD)  # (basis, its one entering column) per step
    while len(trace.iterations) < steps:
        window = min(size if exact and moved else 1, steps - len(trace.iterations))
        cycle = _pivot_cycle(history) if window > 1 else None
        path = ([start] * window if cycle is None else
                replay_pivots(start, [cycle[j % len(cycle)] for j in range(window)]))
        points = _layout(y, t, delta, path)
        t0 = time.perf_counter()
        if exact:
            omega, f_at = marginal_omega_exact(inst, util, points)
        else:
            omega, f_here = marginal_omega(inst, util, y, cfg.samples_per_marginal, rng)
            omega, f_at = omega[None], [f_here]
        t1 = time.perf_counter()
        solutions = solve_inner_lp(omega, spec, start=start, path=path)
        t2 = time.perf_counter()
        trace.marginal_windows += 1
        trace.points_folded += window
        trace.planned_windows += cycle is not None
        trace.marginals_s += t1 - t0
        trace.lp_s += t2 - t1
        for j, sol in enumerate(solutions):
            if trace.iterations:  # F at the y the previous step reached
                trace.iterations[-1].f_estimate = float(f_at[j])
            # Clip the last step so the total time is exactly 1 even when
            # 1/delta is not integral; otherwise the row caps would be overshot.
            h = min(delta, 1.0 - t)
            trace.lp_direction_changes += start is not None and sol.pivots > 0
            trace.lp_pivots += sol.pivots
            trace.lp_fallbacks += sol.fell_back
            trace.lp_max_gap = max(trace.lp_max_gap, sol.duality_gap)
            trace.planned_steps_kept += cycle is not None and sol.planned
            y = y + h * sol.matrix(inst.n, inst.m)
            t += h
            # the next step's marginals, or the final F, fill in f_estimate
            trace.iterations.append(IterationRecord(t, sol.objective_value, None))
        if exact:  # sampled windows take one step and plan nothing
            befores = [start] + [sol.final for sol in solutions[:-1]]
            for before, sol in zip(befores[-history.maxlen:], solutions[-history.maxlen:]):
                history.append(_history_entry(before, sol))
        start = solutions[-1].final
        moved = solutions[-1].objective_value != 0
        kept_all = len(solutions) == window and solutions[-1].planned
        size = min(2 * size, MAX_WINDOW) if kept_all else WINDOW
    row_excess = y.sum(axis=1) - 1.0
    if np.any(row_excess > 1e-9):
        raise NumericError("ascent left the per-user cap; step accounting is broken")
    y = np.clip(y, 0.0, 1.0)
    t0 = time.perf_counter()
    trace.iterations[-1].f_estimate = (
        multilinear_F_exact(inst, util, y) if exact
        else multilinear_F_mc(inst, util, y, cfg.samples_per_marginal, rng))
    trace.F_s = time.perf_counter() - t0
    trace.final = y
    return trace


def _layout(y, t, delta, path):
    """The points a window reaches if each step ends on its planned final:
    y at time t, then each point one step along the vertex of the final
    before it.  One accumulate adds the steps in the one-step loop's order,
    so each point is the one that loop reaches, bit for bit."""
    moves = np.empty((len(path),) + y.shape)
    moves[0] = y
    if len(path) == 1:
        return moves
    lengths, ahead = [], t
    for _ in path[1:]:
        h = min(delta, 1.0 - ahead)  # the clipped last step, as in the loop
        lengths.append(h)
        ahead += h
    vertices, rows = [basis_vertex(path[0], y.size)], [0]
    for before, after in zip(path, path[1:-1]):
        if after is not before:
            vertices.append(basis_vertex(after, y.size))
        rows.append(len(vertices) - 1)
    np.multiply(np.array(lengths)[:, None], np.array(vertices)[rows],
                out=moves[1:].reshape(len(path) - 1, -1))
    return np.add.accumulate(moves, axis=0)


def _history_entry(start, sol):
    """A step's basis, as bytes, and the column its LP's one warm pivot
    entered: None when it kept its start's basis, -1 after a cold solve or
    several pivots."""
    if sol.final is None:
        return None, -1
    basis = sol.final[1]
    if sol.pivots == 0:
        return basis.tobytes(), None
    if start is None or sol.pivots > 1:
        return basis.tobytes(), -1
    return basis.tobytes(), int(basis[(basis != start[1]).argmax()])


def _pivot_cycle(history):
    """The entering columns of the next steps when the last 2p steps ended
    on bases that repeat with period p <= MAX_PERIOD, and every step of the
    cycle kept its basis or took one pivot; None otherwise.  The longest
    period that repeats wins: it rests on the most steps."""
    keys = [key for key, _ in history]
    for p in range(len(keys) // 2, 0, -1):
        if keys[-p:] == keys[-2 * p:-p]:
            cycle = [enter for _, enter in history][-p:]
            return None if -1 in cycle or cycle.count(None) == p else cycle
    return None


def approximation_beta(epsilon: float, n: int) -> float:
    """The guaranteed fraction of the relaxation optimum after rounding.

    Tends to 1 - 1/e as the perturbation magnitude vanishes.
    """
    if epsilon < 0:
        raise GreedyError("epsilon must be nonnegative")
    front = (1.0 - epsilon) / (1.0 + epsilon)
    rate = 1.0 + 2.0 * epsilon * n / (1.0 + epsilon)
    return front * (1.0 - math.exp(-rate)) * (1.0 - epsilon) / (1.0 + (2 * n + 1) * epsilon)


def extension_prefactor(b: float) -> float:
    """The (1-2b)*b factor the conflict-resolution stage costs on top of beta."""
    if not 0 < b <= 0.5:
        raise GreedyError("scaling factor b must lie in (0, 1/2]")
    return (1.0 - 2.0 * b) * b
