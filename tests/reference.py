"""Independent references on pair-set allocations, for the tests only.

The program represents an allocation as a coupon profile.  These references
follow the paper's definitions over sets of user-coupon pairs instead: seed
probabilities and the double-sum cost by enumerating seed sets, and scalar
rounders that draw one user at a time (the per-user categorical draw and
merge-based swap rounding) with cost-ordered conflict resolution.  Tests
compare the program's batched, profile-based code against them.  The
module also keeps earlier forms of the program's kernels, the joint
(alpha, y) LP of the concave relaxation solved as one LP, the LP input
and output guards written with the np.any / np.all wrappers, and the
continuous greedy loop that takes one step, with one marginal evaluation
and one ascent LP, at a time, the fold of the gamma vector over a whole
batch at once, the oracle's earlier f, an explicit sum over seed sets
that grows each block with `np.hstack`, `oracle_f_at`, which reads the
oracle's f grid at given profiles, `make_eps_perturbed`, which wraps a
utility in an eps-band for the tests of the perturbation, and the
submodularity check that walks every pair X within Y of a frozenset table.
It keeps the paper's exact marginals of F, which the exact ascent took
before it climbed the rounding's extension G, and a sum over seed sets
for G and its gradient.  `step_solutions` unpacks the record of a stacked
ascent LP into one `StepSolution` per step it takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from couponcascade.cascade import CascadeUtility, UtilityError, _seed_set_count
from couponcascade.greedy import (
    GreedyTrace,
    IterationRecord,
    _step_count,
)
from couponcascade.instance import Instance
from couponcascade.objective import _as_matrix as _as_fractional
from couponcascade.objective import (
    _draw_profiles,
    _held_probs,
    _slopes,
    marginal_omega,
    marginal_omega_exact,
    multilinear_F_exact,
    multilinear_F_mc,
    rounding_G_exact,
)
from couponcascade.oracle import OracleError, ProfileTable, f_exact
from couponcascade.polytope_lp import (
    LpError,
    LpSolution,
    NumericError,
    PolytopeSpec,
    basis_vertex,
    solve_generic_lp,
    solve_inner_lp,
)
from couponcascade.rounding import RoundingError, _as_matrix


def make_eps_perturbed(base: CascadeUtility, epsilon: float, perturb_seed: int) -> CascadeUtility:
    """Wrap an exactly submodular utility in a deterministic eps-band."""
    if base.epsilon != 0:
        raise UtilityError("base utility must be unperturbed")
    if epsilon < 0:
        raise UtilityError("epsilon must be nonnegative")
    return CascadeUtility(
        base.kind, base.n, base.edges, base.table,
        epsilon=epsilon, perturb_seed=perturb_seed, mc_samples=base.mc_samples,
    )


def check_submodular_monotone(table: dict[frozenset, float], n: int):
    """Exhaustively check a tabulated set function on {1..n}.

    Returns None when the table is monotone and submodular, else a witness:
    ("monotone", X, x) when h(X+x) < h(X), or ("submodular", X, Y, x) when
    the diminishing-returns inequality fails for X subset of Y, each by more
    than 1e-12 times the largest |value|.
    """
    users = list(range(1, n + 1))
    sets = []
    for r in range(n + 1):
        sets.extend(frozenset(c) for c in combinations(users, r))
    for s in sets:
        if s not in table:
            raise UtilityError(f"gamma table is missing subset {sorted(s)}")
    tol = 1e-12 * max(abs(value) for value in table.values())
    for X in sets:
        for x in users:
            if x in X:
                continue
            if table[X | {x}] < table[X] - tol:
                return ("monotone", X, x)
    for Y in sets:
        for X in sets:
            if not X <= Y:
                continue
            for x in users:
                if x in Y:
                    continue
                gain_x = table[X | {x}] - table[X]
                gain_y = table[Y | {x}] - table[Y]
                if gain_x < gain_y - tol:
                    return ("submodular", X, Y, x)
    return None


class AllocationError(ValueError):
    pass


@dataclass(frozen=True)
class Allocation:
    """A set of user-coupon pairs with at most one coupon per user."""

    pairs: frozenset

    def __init__(self, pairs):
        pairs = frozenset((int(v), int(d)) for v, d in pairs)
        users = [v for v, _ in pairs]
        if len(users) != len(set(users)):
            raise AllocationError("a user may hold at most one coupon")
        if any(d < 1 for _, d in pairs):
            raise AllocationError("coupon indices are 1-based; 0 is the rounding dummy")
        object.__setattr__(self, "pairs", pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)

    def coupon_of(self, v: int):
        for user, d in self.pairs:
            if user == v:
                return d
        return None

    def profile(self, n: int) -> tuple:
        prof = [0] * n
        for v, d in self.pairs:
            prof[v - 1] = d
        return tuple(prof)

    @staticmethod
    def from_profile(profile) -> "Allocation":
        return Allocation((v + 1, d) for v, d in enumerate(profile) if d)


def pairs_to_profile(pairs, n: int) -> tuple:
    """Each user's highest coupon among the pairs, 0 for none."""
    prof = [0] * n
    for v, d in pairs:
        if d > prof[v - 1]:
            prof[v - 1] = d
    return tuple(prof)


def seed_prob(inst: Instance, S, U) -> float:
    """Probability that exactly the users in U accept their offers.

    A user with no coupon never seeds (p_v(none) = 0).
    """
    pairs = S.pairs if isinstance(S, Allocation) else S
    prof = pairs_to_profile(pairs, inst.n)
    prob = 1.0
    U = frozenset(U)
    for v in range(1, inst.n + 1):
        p = inst.adoption[v - 1, prof[v - 1] - 1] if prof[v - 1] else 0.0
        prob *= p if v in U else 1.0 - p
    return prob


def cost_brute_force(inst: Instance, S) -> float:
    """The double-sum definition of c(S): E over seed sets of the redeemed values.

    Independent oracle for `objective.cost_exact`; enumerates all 2^n seed sets.
    """
    pairs = S.pairs if isinstance(S, Allocation) else S
    prof = pairs_to_profile(pairs, inst.n)
    users = list(range(1, inst.n + 1))
    total = 0.0
    for r in range(inst.n + 1):
        for combo in combinations(users, r):
            U = frozenset(combo)
            pr = seed_prob(inst, pairs, U)
            redeemed = sum(inst.coupon_values[prof[u - 1] - 1] for u in U if prof[u - 1])
            total += pr * redeemed
    return total


@dataclass
class RoundingOutcome:
    """Final allocation T, the pre-resolution draw I, and what was dropped."""

    allocation: Allocation
    pre_resolution: Allocation
    discarded: list


def round_partition(y, rng: np.random.Generator) -> Allocation:
    """Independently per user, draw coupon d with probability y_vd (dummy otherwise)."""
    y = _as_matrix(y)
    pairs = []
    for v in range(1, y.shape[0] + 1):
        cum = np.cumsum(y[v - 1])
        r = rng.random()
        d = int(np.searchsorted(cum, r, side="right")) + 1
        if d <= y.shape[1]:
            pairs.append((v, d))
    return Allocation(pairs)


def swap_round_merge(y, rng: np.random.Generator) -> Allocation:
    """Merge-based swap rounding; distributionally identical to round_partition.

    Per user, two fractional entries are repeatedly merged into one carrying
    their combined mass (the survivor chosen proportionally); the last entry
    is then kept with probability equal to the row mass.
    """
    y = _as_matrix(y)
    pairs = []
    for v in range(1, y.shape[0] + 1):
        entries = [(d, y[v - 1, d - 1]) for d in range(1, y.shape[1] + 1) if y[v - 1, d - 1] > 0]
        while len(entries) > 1:
            (d1, m1), (d2, m2) = entries[0], entries[1]
            keep = d1 if rng.random() < m1 / (m1 + m2) else d2
            entries = [(keep, m1 + m2)] + entries[2:]
        if entries:
            d, mass = entries[0]
            if rng.random() < mass:
                pairs.append((v, d))
    return Allocation(pairs)


def _cost_order(inst: Instance, pairs):
    return sorted(pairs, key=lambda vd: (inst.dist_cost[vd[0] - 1], vd[0]))


def resolve_conflicts(I: Allocation, inst: Instance, K: float | None = None) -> RoundingOutcome:
    """Keep pairs of I in nondecreasing distribution-cost order while the
    cumulative cost stays within the hard budget K; drop the rest."""
    K = inst.budget_K if K is None else K
    if K is None:
        raise RoundingError("conflict resolution needs a distribution budget")
    kept, discarded, spent = [], [], 0.0
    for v, d in _cost_order(inst, I.pairs):
        cost = float(inst.dist_cost[v - 1])
        if spent + cost <= K + 1e-12:
            kept.append((v, d))
            spent += cost
        else:
            discarded.append((v, d))
    return RoundingOutcome(Allocation(kept), I, discarded)


def round_extended(y, inst: Instance, rng: np.random.Generator,
                   K: float | None = None) -> RoundingOutcome:
    """Dummy-coupon rounding followed by conflict resolution (extended model)."""
    I = round_partition(y, rng)
    return resolve_conflicts(I, inst, K)


def expected_gamma_unblocked(gamma: np.ndarray, q: np.ndarray):
    """E[gamma(U)] when user v seeds independently with probability q[..., v - 1].

    gamma is indexed by user bitmask (bit v - 1 for user v); q may carry
    leading batch axes, all folded at once, and may have no users.  Folds
    out one user at a time, highest bit first.
    """
    g = gamma
    for v in reversed(range(q.shape[-1])):
        half = 1 << v
        qv = q[..., v, None]
        g = g[..., :half] * (1.0 - qv) + g[..., half:] * qv
    return g[..., 0]


def slopes_per_user(gamma: np.ndarray, q: np.ndarray) -> np.ndarray:
    """E[gamma | q_v = 1] - E[gamma | q_v = 0] for every user v, shaped like q."""
    out = np.empty(q.shape)
    for v in range(q.shape[-1]):
        split = gamma.reshape(-1, 2, 1 << v)
        rise = (split[:, 1] - split[:, 0]).ravel()  # gamma(U + v) - gamma(U), U without v
        out[..., v] = expected_gamma_unblocked(rise, np.delete(q, v, axis=-1))
    return out


# Largest Pr(U; S) block `oracle_f_hstack` builds at once, in entries: rows
# of 2^n seed-set probabilities, as many profiles as fit.
HSTACK_BLOCK_ENTRIES = 1 << 16


def oracle_f_hstack(inst: Instance, util, profiles) -> np.ndarray:
    """f of each profile as the explicit sum over seed sets U of Pr(U; S) *
    gamma(U): the reference for `oracle.f_exact`'s contraction.  Each
    block's Pr(U; S) rows are grown by n `np.hstack` calls."""
    n = inst.n
    profiles = np.asarray(profiles, dtype=int).reshape(-1, n)
    gamma = np.array([util.value(frozenset(v + 1 for v in range(n) if mask >> v & 1))
                      for mask in range(_seed_set_count(n))])
    held = np.hstack([np.zeros((n, 1)), inst.adoption])[np.arange(n), profiles]
    rows = max(1, HSTACK_BLOCK_ENTRIES >> n)
    out = np.empty(len(profiles))
    for start in range(0, len(profiles), rows):
        p = held[start:start + rows]
        pr = np.ones((len(p), 1))
        for v in range(n):  # user v + 1 is the next bit of the seed-set index
            pr = np.hstack([pr * (1.0 - p[:, v, None]), pr * p[:, v, None]])
        out[start:start + rows] = pr @ gamma
    return out


def oracle_f_at(inst: Instance, util, profiles) -> np.ndarray:
    """`oracle.f_exact` of each given profile, read off the profile grid:
    profile S sits at row sum_v S_v (m+1)^(n-1-v)."""
    n = inst.n
    profiles = np.asarray(profiles, dtype=int).reshape(-1, n)
    return f_exact(inst, util)[profiles @ (inst.m + 1) ** np.arange(n - 1, -1, -1)]


def seed_probs_loop(y: np.ndarray, p: np.ndarray):
    """q_v(y), and the change in q_v from raising each entry y_vd to 1.

    Raising y_vd to 1 matters only when no higher coupon is drawn, and then
    it replaces what the coupons below d give (probability `below`) by
    p_v(d) whenever d itself was not drawn.
    """
    n, m = y.shape
    below = np.zeros((n, m))
    q = np.zeros(n)
    for d in range(m):
        below[:, d] = q
        q = y[:, d] * p[:, d] + (1.0 - y[:, d]) * q
    none_above = np.hstack([np.cumprod((1.0 - y)[:, :0:-1], axis=1)[:, ::-1], np.ones((n, 1))])
    return q, (1.0 - y) * (p - below) * none_above


def seed_probs_cumprod(y: np.ndarray, p: np.ndarray):
    """`seed_probs_loop` by cumulative products and sums; y may be a stack
    of matrices.

    Coupon d is v's highest with probability y_vd * prod_{k>d} (1 - y_vk);
    `top` weighs that by p_v(d), and q_v sums it.  Raising y_vd to 1 makes d
    the highest whenever no coupon from d up was drawn (`none_from`), and
    takes away what the coupons below d gave.
    """
    none_from = np.cumprod((1.0 - y)[..., ::-1], axis=-1)[..., ::-1]
    none_above = np.concatenate([none_from[..., 1:], np.ones(y.shape[:-1] + (1,))], axis=-1)
    top = p * y * none_above
    upto = np.cumsum(top, axis=-1)
    return upto[..., -1], none_from * p - (upto - top)


def marginal_omega_paper(inst: Instance, util, y):
    """The paper's exact marginals F(y with y_vd raised to 1) - F(y),
    clamped at zero, and F(y), both from one fold: each marginal is the
    change in q_v times v's slope at q(y).  y may also be a (J, n, m)
    stack of points; then the marginals come as a stack and F as a
    J-vector.  The exact ascent took these before it climbed G."""
    y = _as_fractional(y, inst, stacked=np.ndim(y) == 3)
    q, gain = seed_probs_cumprod(y, inst.adoption)
    slopes, F = _slopes(util.gamma_vector(), q)
    omega = np.maximum(gain * slopes[..., None], 0.0)
    return (omega, F) if y.ndim == 3 else (omega, float(F))


def rounding_G_seed_sets(inst: Instance, util, y):
    """G(y) = sum over seed sets U of Pr(U; q^) gamma(U), where user v seeds
    independently with probability q^_v = sum_d y_vd p_v(d), and its
    gradient p_v(d) (E[gamma | v seeds] - E[gamma | v does not]), not
    clamped; gamma is read through `util.value`, one seed set at a time."""
    n = inst.n
    y = np.asarray(y, dtype=float)
    q = (y * inst.adoption).sum(axis=1)
    users = range(1, n + 1)

    def pr(U, among):
        return float(np.prod([q[u - 1] if u in U else 1.0 - q[u - 1] for u in among]))

    G = 0.0
    for r in range(n + 1):
        for U in combinations(users, r):
            G += pr(U, users) * util.value(frozenset(U))
    slope = np.zeros(n)
    for v in users:
        others = [u for u in users if u != v]
        for r in range(n):
            for U in combinations(others, r):
                rise = util.value(frozenset(U) | {v}) - util.value(frozenset(U))
                slope[v - 1] += pr(U, others) * rise
    return inst.adoption * slope[:, None], G


def marginal_omega_lifted(inst: Instance, util, y, samples: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Sampled marginals E[f(R + [vd])] - E[f(R)], common random numbers.

    The same R-draws serve all nm entries, which cancels most of the noise
    in the differences.  Adding [vd] to R moves only q_v, from p_v(R_v) to
    p_v(max(R_v, d)), so each difference is that gain times the draw's
    slope for v.  Negative estimates are clamped to zero so the ascent LP
    never chases sampling noise downhill.
    """
    profiles = _draw_profiles(inst, _as_fractional(y, inst), samples, rng)
    held = _held_probs(inst, profiles)
    lifted = _held_probs(inst, np.maximum(profiles[:, None, :], np.arange(1, inst.m + 1)[:, None]))
    slopes = slopes_per_user(util.gamma_vector(), held)
    omega = np.einsum("sdv,sv->vd", lifted - held[:, None, :], slopes) / samples
    return np.maximum(omega, 0.0)


def survival_loop(pre: np.ndarray, kept: np.ndarray, n: int, m: int) -> dict:
    """Per drawn (v, d): how often conflict resolution kept it, pairs with draws only."""
    survival = {}
    for v in range(1, n + 1):
        for d in range(1, m + 1):
            in_pre = pre[:, v - 1] == d
            if in_pre.sum() == 0:
                continue
            surv = float((kept[in_pre, v - 1] == d).mean())
            survival[f"{v},{d}"] = {"draws": int(in_pre.sum()), "rate": surv}
    return survival


def solve_concave_relaxation_joint(inst: Instance, util, mode: str = "PB", b: float = 0.25):
    """Exact optimum of the fractional relaxation: maximize the concave
    extension over the polytope.

    mode "PB" is the base polytope; "PB1" adds the distribution knapsack at
    its full budget K; "PB2" at the scaled budget b*K.  Solved as one joint
    LP in the combination weights alpha and the matrix y.

    Returns (y_plus, value).
    """
    if mode not in ("PB", "PB1", "PB2"):
        raise OracleError(f"unknown relaxation mode {mode!r}")
    if mode != "PB" and inst.budget_K is None:
        raise OracleError(f"mode {mode} needs an instance with budget_K")
    table = ProfileTable(inst, util)
    k, n, m = len(table.profiles), inst.n, inst.m
    nm = n * m
    # Columns are alpha (k) then y flat (v, d).  Rows: alpha mass <= 1,
    # coupling alpha-membership <= y, per-user caps, then the knapsacks.
    # No y <= 1 rows: y >= 0 and the per-user caps imply them.
    y_rows = [np.kron(np.eye(n), np.ones(m)), inst.redemption_weights.reshape(1, -1)]
    bounds = [[1.0], np.zeros(nm), np.ones(n), [inst.budget_B]]
    if mode in ("PB1", "PB2"):
        y_rows.append(np.repeat(inst.dist_cost, m)[None])
        bounds.append([float(inst.budget_K) * (b if mode == "PB2" else 1.0)])
    y_rows = np.vstack(y_rows)
    A = np.block([[np.ones((1, k)), np.zeros((1, nm))],
                  [table.coupling, -np.eye(nm)],
                  [np.zeros((len(y_rows), k)), y_rows]])
    c = np.concatenate([table.f, np.zeros(nm)])
    sol = solve_generic_lp(c, A, np.concatenate(bounds))
    y_plus = sol.x[k:].reshape(n, m)
    return y_plus, float(sol.objective_value)


def check_feasible_wrappers(spec, y: np.ndarray, tol: float = 1e-9) -> None:
    """`PolytopeSpec.check_feasible` with the np.any / np.sum wrappers."""
    if np.any(y < -tol) or np.any(y > 1 + tol):
        raise NumericError("box constraint violated")
    if np.any(y.sum(axis=1) > 1 + tol):
        raise NumericError("per-user cap violated")
    if float(np.sum(spec.redemption_weights * y)) > spec.budget_B * (1 + tol):
        raise NumericError("redemption knapsack violated")
    if spec.budget_K is not None:
        spend = float(np.sum(spec.dist_cost[:, None] * y))
        if spend > spec.budget_K * (1 + tol):
            raise NumericError("distribution knapsack violated")


class StepSolution(LpSolution):
    """One step of a stacked ascent LP, in the fields of an `LpSolution`."""

    def matrix(self, n: int, m: int) -> np.ndarray:
        return self.x.reshape(n, m)


def step_solutions(steps, start) -> list[StepSolution]:
    """The `AscentSteps` that `solve_inner_lp` returns from `start`, as one
    solution per step it takes: each step before the last at the start's
    vertex, with no pivot and the start as its final, then the last step."""
    *earlier, last = zip(steps.values.tolist(), steps.duals, steps.gaps, strict=True)
    kept = [StepSolution(basis_vertex(start, len(steps.x)), *row, final=start)
            for row in earlier]
    return kept + [StepSolution(steps.x, *last, steps.pivots, steps.fell_back, steps.final)]


def solve_one(weights, spec, start=None) -> StepSolution:
    """`solve_inner_lp` on a stack of one objective: its one solution."""
    stack = np.asarray(weights, dtype=float)[None]
    (sol,) = step_solutions(solve_inner_lp(stack, spec, start=start), start)
    return sol


def inner_weights_guard_wrappers(weights, spec) -> None:
    """The weight guard of `solve_inner_lp`, with the np.any / np.all wrappers."""
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 3 or not len(weights) or weights.shape[1:] != (spec.n, spec.m):
        raise LpError(f"weights must be a stack of {spec.n}x{spec.m} matrices")
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise LpError("weights must be finite and nonnegative (clamp before solving)")


def simplex_input_guards_wrappers(c, A, b) -> None:
    """The input guards of `solve_generic_lp`, with the np.any / np.all wrappers."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(b < 0):
        raise LpError("right-hand sides must be nonnegative (origin-feasible form)")
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise NumericError("non-finite LP data")


def certify_wrappers(c, A, b, value, dual):
    """`polytope_lp._certify` with the np.any wrappers."""
    scale = 1.0 + abs(value)
    if np.any(dual < -1e-8):
        raise NumericError("dual infeasible: negative multiplier")
    slack = A.T @ dual - c
    if np.any(slack < -1e-8 * scale):
        raise NumericError("dual infeasible: reduced cost below zero")
    gap = np.abs(dual @ b - value)
    if gap > 1e-8 * scale:
        raise NumericError(f"duality gap {gap:.3e} exceeds tolerance")
    return gap.tolist()


def continuous_greedy_stepwise(inst: Instance, util, cfg, marginals=None) -> GreedyTrace:
    """`greedy.continuous_greedy` one step at a time: each step takes its own
    marginals and solves its own ascent LP, warm-started from the previous
    step's basis.  A step's value comes from the next step's marginals, and
    the last one from rounding_G_exact, or from multilinear_F_mc over
    samples_per_marginal draws; the final y's F from multilinear_F_exact,
    or from those draws.  `marginals` replaces the exact path's
    `marginal_omega_exact`, as patching `greedy.marginal_omega_exact`
    replaces it in the windowed ascent."""
    exact_marginals = marginals or marginal_omega_exact
    cfg.validate(inst)
    delta = cfg.step(inst)
    steps = _step_count(delta)
    spec = PolytopeSpec.from_instance(inst, cfg.b)
    exact = cfg.samples_per_marginal is None
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    y = np.zeros((inst.n, inst.m))
    trace = GreedyTrace(steps=steps)
    t = 0.0
    sol = None
    for _ in range(steps):
        h = min(delta, 1.0 - t)
        if exact:  # the marginals of a stack of one point
            omega, f_here = exact_marginals(inst, util, y[None])
            f_here = float(f_here[0])
        else:
            omega, f_here = marginal_omega(inst, util, y, cfg.samples_per_marginal, rng)
            omega = omega[None]
        if trace.iterations:
            trace.iterations[-1].f_estimate = f_here
        start = None if sol is None else sol.final
        sol = solve_one(omega[0], spec, start=start)
        trace.marginal_windows += 1
        trace.lp_direction_changes += start is not None and sol.pivots > 0
        trace.lp_pivots += sol.pivots
        trace.lp_fallbacks += sol.fell_back
        trace.lp_max_gap = max(trace.lp_max_gap, sol.duality_gap)
        y = y + h * sol.matrix(inst.n, inst.m)
        t += h
        trace.iterations.append(IterationRecord(t, sol.objective_value, None))
    if np.any(y.sum(axis=1) - 1.0 > 1e-9):
        raise NumericError("ascent left the per-user cap; step accounting is broken")
    y = np.clip(y, 0.0, 1.0)
    if exact:
        trace.F = multilinear_F_exact(inst, util, y)
        trace.G = trace.iterations[-1].f_estimate = rounding_G_exact(inst, util, y)
    else:
        trace.F = trace.iterations[-1].f_estimate = multilinear_F_mc(
            inst, util, y, cfg.samples_per_marginal, rng)
    trace.final = y
    return trace
