"""Continuous greedy ascent over the constrained matroid-knapsack polytope.

Starting from y = 0, each of the ceil(1/delta) iterations estimates the
multilinear marginals, solves the linear ascent problem over the polytope
(with the distribution knapsack scaled to b*K in extended mode) and moves
y by delta times the optimal direction.  Only the objective of that LP
changes from step to step, so each step warm-starts from the previous
step's optimal basis.  The per-step increment keeps every intermediate y
inside the t-scaled polytope, and the final y inside the full polytope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from couponcascade.cascade import CascadeUtility
from couponcascade.instance import Instance
from couponcascade.objective import (
    FractionalSolution,
    marginal_omega,
    marginal_omega_exact,
    multilinear_F_exact,
    multilinear_F_mc,
)
from couponcascade.polytope_lp import NumericError, PolytopeSpec, solve_inner_lp


F_ESTIMATE_SAMPLES = 200  # profile draws per sampled F in the trace


class GreedyError(ValueError):
    pass


@dataclass
class GreedyConfig:
    """Knobs of the ascent.

    delta=None means the canonical 1/(nm)^2 step.  samples_per_marginal=None
    requests exact marginals and exact F; otherwise both are sampled, with
    common random numbers for the marginals.  Either way the utility's
    gamma vector (`CascadeUtility.gamma_vector`) must exist, so n <= 15.
    Extended mode scales the distribution knapsack to b*K.
    """

    delta: float | None = None
    samples_per_marginal: int | None = None
    seed: int = 0
    b: float = 0.25
    mode: str = "base"

    def step(self, inst: Instance) -> float:
        delta = self.delta if self.delta is not None else 1.0 / (inst.n * inst.m) ** 2
        if not 0 < delta <= 1:
            raise GreedyError("step size must lie in (0,1]")
        return delta

    def validate(self, inst: Instance) -> None:
        if self.mode not in ("base", "extended"):
            raise GreedyError(f"unknown mode {self.mode!r}")
        if self.mode == "extended":
            if inst.budget_K is None:
                raise GreedyError("extended mode needs an instance with budget_K")
            if not 0 < self.b <= 0.5:
                raise GreedyError("scaling factor b must lie in (0, 1/2]")


@dataclass
class IterationRecord:
    t: float
    lp_value: float
    f_estimate: float


@dataclass
class GreedyTrace:
    """Per-step records and the final y; the LP counters stay out of the JSON."""

    iterations: list[IterationRecord] = field(default_factory=list)
    final: FractionalSolution | None = None
    lp_pivots: int = 0
    lp_fallbacks: int = 0  # ascent LPs that fell back to Bland's rule
    lp_max_gap: float = 0.0
    lp_direction_changes: int = 0  # steps after the first whose LP left the previous basis

    def to_jsonable(self) -> dict:
        return {
            "iterations": [
                {"t": rec.t, "lp_value": rec.lp_value, "f_estimate": rec.f_estimate}
                for rec in self.iterations
            ],
            "final_y": self.final.y.tolist(),
        }


def continuous_greedy(inst: Instance, util: CascadeUtility, cfg: GreedyConfig) -> GreedyTrace:
    """Run the ascent and return the per-iteration trace with the final y."""
    cfg.validate(inst)
    delta = cfg.step(inst)
    steps = math.ceil(1.0 / delta)
    spec = PolytopeSpec.from_instance(
        inst, k_scale=cfg.b if cfg.mode == "extended" else None
    )
    exact = cfg.samples_per_marginal is None
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    y = np.zeros((inst.n, inst.m))
    trace = GreedyTrace()
    t = 0.0
    sol = None
    for k in range(steps):
        # Clip the last step so the total time is exactly 1 even when 1/delta
        # is not integral; otherwise the row caps would be overshot.
        h = min(delta, 1.0 - t)
        if exact:
            omega = marginal_omega_exact(inst, util, y)
        else:
            omega = marginal_omega(inst, util, y, cfg.samples_per_marginal, rng)
        start = None if sol is None else sol.final
        sol = solve_inner_lp(omega, spec, start=start)
        trace.lp_direction_changes += start is not None and sol.pivots > 0
        trace.lp_pivots += sol.pivots
        trace.lp_fallbacks += sol.fell_back
        trace.lp_max_gap = max(trace.lp_max_gap, sol.duality_gap)
        y = y + h * sol.matrix(inst.n, inst.m)
        t += h
        if exact:
            f_est = multilinear_F_exact(inst, util, np.clip(y, 0.0, 1.0))
        else:
            f_est = multilinear_F_mc(
                inst, util, np.clip(y, 0.0, 1.0), F_ESTIMATE_SAMPLES, rng
            )
        trace.iterations.append(IterationRecord(t, sol.objective_value, f_est))
    row_excess = y.sum(axis=1) - 1.0
    if np.any(row_excess > 1e-9):
        raise NumericError("ascent left the per-user cap; step accounting is broken")
    y = np.clip(y, 0.0, 1.0)
    trace.final = FractionalSolution(y)
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
