"""Continuous greedy ascent over the constrained matroid-knapsack polytope.

Starting from y = 0, each of the ceil(1/delta) iterations (N of them when
1/delta is within rounding of an integer N) estimates the multilinear
marginals, solves the linear ascent problem over the polytope
(with the distribution knapsack scaled to b*K in extended mode) and moves
y by delta times the optimal direction.  Only the objective of that LP
changes from step to step, so each step warm-starts from the previous
step's optimal basis.  The per-step increment keeps every intermediate y
inside the t-scaled polytope, and the final y inside the full polytope.

Most steps keep the previous basis, and so move along the same direction.
The exact path therefore takes the steps in windows: from a kept basis it
lays out the next WINDOW points along that basis's direction, takes all
their marginals in one batched fold, and hands the stack to one
`solve_inner_lp` call, which keeps the leading steps the basis is still
optimal for and solves the first one it is not.  The points after that
step are dropped and the next window starts where it ended.  Each kept
point is the one the one-step loop would reach, bit for bit.  A step whose
LP gained nothing (value 0) leaves y where it was, so the next window is
one step.  The sampled path runs windows of one step: speculative draws
from its generator would shift every later one.

Each step records F at the y it reached.  Both kinds of marginals return F
at the y they are taken at, exactly or over their own draws, so a step's F
comes from the next step's marginals; only the last step evaluates F itself.
"""

from __future__ import annotations

import math
import time
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
from couponcascade.polytope_lp import NumericError, PolytopeSpec, basis_vertex, solve_inner_lp


WINDOW = 8  # exact-path steps whose marginals one batched fold takes at once


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
    while len(trace.iterations) < steps:
        window = min(WINDOW if exact and moved else 1, steps - len(trace.iterations))
        points = np.empty((window, inst.n, inst.m))
        points[0] = y
        if window > 1:  # the points the window reaches if the basis holds
            direction = basis_vertex(start, spec.n * spec.m).reshape(inst.n, inst.m)
            ahead = t
            for j in range(1, window):
                h = min(delta, 1.0 - ahead)
                points[j] = points[j - 1] + h * direction
                ahead += h
        t0 = time.perf_counter()
        if exact:
            omega, f_at = marginal_omega_exact(inst, util, points)
        else:
            omega, f_here = marginal_omega(inst, util, y, cfg.samples_per_marginal, rng)
            omega, f_at = omega[None], [f_here]
        t1 = time.perf_counter()
        solutions = solve_inner_lp(omega, spec, start=start)
        t2 = time.perf_counter()
        trace.marginal_windows += 1
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
            y = y + h * sol.matrix(inst.n, inst.m)
            t += h
            # the next step's marginals, or the final F, fill in f_estimate
            trace.iterations.append(IterationRecord(t, sol.objective_value, None))
        start = solutions[-1].final
        moved = solutions[-1].objective_value != 0
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
