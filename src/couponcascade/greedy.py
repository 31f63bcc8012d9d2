"""Continuous greedy ascent over the constrained matroid-knapsack polytope.

Starting from y = 0, each of the ceil(1/delta) iterations (N of them when
1/delta is within rounding of an integer N) takes the ascent's weights,
solves the linear ascent problem over the polytope
(with the distribution knapsack scaled to b*K in extended mode) and moves
y by delta times the optimal direction.  Only the objective of that LP
changes from step to step, so each step warm-starts from the previous
step's optimal basis.  The per-step increment keeps every intermediate y
inside the t-scaled polytope, and the final y inside the full polytope.

The weights depart from the paper on the exact path.  The paper steps
along the multilinear marginals of F; the exact path steps along the
gradient of G, the extension the per-user categorical rounding realises
(`objective`).  That is the Frank-Wolfe continuous greedy for monotone
DR-submodular functions, which reaches G(y) >= (1 - 1/e) OPT - O(delta)
at eps = 0 (Bian, Mirzasoleiman, Buhmann and Krause, AISTATS 2017).  At
eps > 0 the paper's beta(eps) was derived for its own ascent; every
gradient entry is p_v(d) times a difference of two averages of the
perturbed f, as each of the paper's marginals is, but that argument is not
written out here, and the oracle's ratio checks the result instead.  The
sampled path keeps the paper's sampled marginals of F.

Most steps keep the previous basis, and so move along the same direction:
the ascent on G changes basis a few times per solve.  The exact path
therefore takes the steps in windows along the basis of the previous
solve.  A window lays out its points along that basis's vertex, takes all
their marginals in one batched fold, and hands the stack to one
`solve_inner_lp` call.  That call keeps the leading steps whose LP the
basis still solves and solves the first one it does not; the points after
that step are dropped and the next window starts where it ended.  Each kept
point is the one the one-step loop would reach, bit for bit.

A window lays out J = min(steps left, max(16, WINDOW_WORK // (2^n + n*m)))
points, where 2^n + n*m is one point's work in the fold and in the
kept-basis check: J is large where a point is cheap, so an ascent that
keeps its basis takes few windows.  The steps the call takes come back as
one `AscentSteps` record, which the window books in one block; every
step's length and time are laid out once, before the first window
(`_schedule`).  The cold first step, a last step left on its own, and the
step after one whose LP gained nothing (value 0, which leaves y where it
was) are windows of one point, solved by the plain warm simplex.  The
sampled path runs windows of one point: speculative draws from its
generator would shift every later one.

Each step records the value the ascent climbs at the y it reached: G on
the exact path, F over the draws on the sampled one.  Both kinds of
weights return that value at the y they are taken at, so a step's value
comes from the next step's weights; only the last step evaluates it
itself.  The final y also gets the paper's F, exactly or over draws.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from couponcascade.cascade import CascadeUtility
from couponcascade.instance import Instance
from couponcascade.objective import (
    marginal_omega,
    marginal_omega_exact,
    multilinear_F_exact,
    multilinear_F_mc,
    rounding_G_exact,
)
from couponcascade.polytope_lp import (
    NumericError,
    PolytopeSpec,
    basis_vertex,
    solve_inner_lp,
)


WINDOW_WORK = 2**15  # a window's points times one point's work, 2^n + n*m; 16 points at least
MAX_STEPS = 10**6  # the most ascent steps a step size may take


class GreedyError(ValueError):
    pass


class StepCountError(ValueError):
    """The step would take more than MAX_STEPS ascent steps."""


@dataclass
class GreedyConfig:
    """Knobs of the ascent.

    delta=None means the canonical 1/(nm)^2 step, for n*m <= 1000: `step`
    refuses one of more than MAX_STEPS steps.  samples_per_marginal=None
    requests exact marginals and exact F, exact given the gamma vector,
    which is itself sampled for LT and IC above 20 edges; otherwise both are
    sampled, each step's marginals and F from the same draws.  Either way
    the utility's gamma vector (`CascadeUtility.gamma_vector`) must exist,
    so n <= 15.
    An instance with a budget_K runs in extended mode, which scales the
    distribution knapsack to b*K; any other instance ignores b.
    """

    delta: float | None = None
    samples_per_marginal: int | None = None
    seed: int = 0
    b: float = 0.25

    def step(self, inst: Instance) -> float:
        nm = inst.n * inst.m
        delta = self.delta if self.delta is not None else 1.0 / nm ** 2
        if not 0 < delta <= 1:
            raise GreedyError("step size must lie in (0,1]")
        steps = _step_count(delta)
        if steps > MAX_STEPS and self.delta is None:
            raise StepCountError(f"n*m = {nm}: the default step 1/(nm)^2 would take {steps} "
                                 f"ascent steps, more than {MAX_STEPS}; give --delta")
        if steps > MAX_STEPS:
            raise StepCountError(f"the step {delta} would take {steps} ascent steps, "
                                 f"more than {MAX_STEPS}")
        return delta

    def validate(self, inst: Instance) -> None:
        if inst.budget_K is not None:
            extension_prefactor(self.b)


@dataclass
class IterationRecord:
    t: float
    lp_value: float
    f_estimate: float


@dataclass
class GreedyTrace:
    """Per-step records, the final (n, m) array y, and the paper's F and the
    rounding's G at it; the LP counters and the seconds spent in marginals,
    F and ascent LPs stay out of the JSON.

    Each record's `f_estimate` is the value the ascent climbs at that
    step's y: G on the exact path, F over draws on the sampled one.  `G` is
    None on the sampled path.  `F_s` is the final F, and G, on both paths:
    every other step's value comes from the marginals and is counted in
    `marginals_s`.
    """

    iterations: list[IterationRecord] = field(default_factory=list)
    final: np.ndarray | None = None
    F: float | None = None
    G: float | None = None
    lp_pivots: int = 0
    lp_direction_changes: int = 0  # steps after the first whose LP left the previous basis
    lp_fallbacks: int = 0  # ascent LPs that fell back to Bland's rule
    lp_max_gap: float = 0.0
    steps: int = 0  # the ascent steps delta implies, one per record
    marginal_windows: int = 0  # marginal evaluations, each for a window of steps
    points_folded: int = 0  # points those evaluations took, kept or not
    one_point_windows: int = 0  # windows of one point, solved by the plain warm simplex
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

    def counters(self) -> dict:
        """The LP counters and layer seconds, by field name, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("iterations", "final", "F", "G")}


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
    spec = PolytopeSpec.from_instance(inst, cfg.b)
    exact = cfg.samples_per_marginal is None
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    y = np.zeros((inst.n, inst.m))
    trace = GreedyTrace(steps=steps)
    lengths, times = _schedule(delta, steps)
    start = None  # the basis of the last solve, which the next one starts from
    moved = False  # whether the last step's LP had anything to gain
    window = max(16, WINDOW_WORK // (2 ** inst.n + inst.n * inst.m))
    records = trace.iterations
    while len(records) < steps:
        done = len(records)
        count = min(window, steps - done) if exact and moved else 1
        # one point, by the plain warm simplex, or a window along start's vertex
        points = y[None] if count == 1 else _layout(y, lengths[done:done + count - 1], start)
        t0 = time.perf_counter()
        if exact:
            omega, f_at = marginal_omega_exact(inst, util, points)
            f_at = f_at.tolist()
        else:
            omega, f_here = marginal_omega(inst, util, y, cfg.samples_per_marginal, rng)
            omega, f_at = omega[None], [f_here]
        t1 = time.perf_counter()
        taken = solve_inner_lp(omega, spec, start=start)
        t2 = time.perf_counter()
        values = taken.values.tolist()
        k = len(values)
        trace.marginal_windows += 1
        trace.points_folded += count
        trace.one_point_windows += count == 1
        trace.marginals_s += t1 - t0
        trace.lp_s += t2 - t1
        trace.lp_pivots += taken.pivots
        trace.lp_direction_changes += start is not None and taken.pivots > 0
        trace.lp_fallbacks += taken.fell_back
        trace.lp_max_gap = max(trace.lp_max_gap, *taken.gaps)
        if records:  # the climbed value at the y the previous step reached
            records[-1].f_estimate = f_at[0]
        # the next window's marginals, or the final G or F, fill in the last
        records.extend(map(IterationRecord, times[done:done + k], values, f_at[1:k] + [None]))
        y = points[k - 1] + lengths[done + k - 1] * taken.x.reshape(inst.n, inst.m)
        start = taken.final
        moved = values[-1] != 0
    row_excess = y.sum(axis=1) - 1.0
    if np.any(row_excess > 1e-9):
        raise NumericError("ascent left the per-user cap; step accounting is broken")
    y = np.clip(y, 0.0, 1.0)
    t0 = time.perf_counter()
    if exact:
        trace.F = multilinear_F_exact(inst, util, y)
        trace.G = trace.iterations[-1].f_estimate = rounding_G_exact(inst, util, y)
    else:
        trace.F = trace.iterations[-1].f_estimate = multilinear_F_mc(
            inst, util, y, cfg.samples_per_marginal, rng)
    trace.F_s = time.perf_counter() - t0
    trace.final = y
    return trace


def _schedule(delta, steps):
    """Every step's length, and the time it reaches as a list of floats.
    The one-step loop takes h = min(delta, 1 - t), then t += h: the min
    clips the last step so that the total time is exactly 1 when 1/delta is
    not integral, as the row caps require.  It clips only at the end of the
    ascent, so one accumulate of delta-long steps gives the loop's times,
    bit for bit, up to the first step it clips, and the loop's own
    arithmetic takes the steps from there."""
    lengths = np.full(steps, delta)
    times = np.add.accumulate(np.concatenate(([0.0], lengths)))
    clipped = (1.0 - times[:-1] < delta).nonzero()[0]
    for k in range(clipped[0] if clipped.size else steps, steps):
        lengths[k] = min(delta, 1.0 - times[k])
        times[k + 1] = times[k] + lengths[k]
    return lengths, times[1:].tolist()


def _layout(y, lengths, start):
    """The points a window reaches if every step keeps the basis of `start`:
    y, then each point one step of `lengths` further along that basis's
    vertex.  One accumulate adds the steps in the one-step loop's order, so
    each point is the one that loop reaches, bit for bit."""
    moves = np.empty((len(lengths) + 1,) + y.shape)
    moves[0] = y
    np.multiply(lengths[:, None], basis_vertex(start, y.size),
                out=moves[1:].reshape(len(lengths), -1))
    return np.add.accumulate(moves, axis=0)


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
