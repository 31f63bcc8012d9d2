"""Brute-force ground truth for tiny instances.

Enumerates every feasible allocation, solves the exact policy LP, the
exact concave-extension relaxations, and certifies numerically that the
perturbed objective stays inside its submodular sandwich and that the
relaxations dominate in the expected directions.  Everything here is
independent of the solver path: it goes through exhaustive enumeration and
the generic LP solver only.  In particular f is evaluated by enumerating
the seed sets of the offered users (`f_exact` below), not by the closed
form over the gamma vector that the solver uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from couponcascade.cascade import CascadeUtility, UtilityError, check_submodular_monotone
from couponcascade.instance import Instance
from couponcascade.objective import Allocation, cost_exact, pairs_to_profile
from couponcascade.polytope_lp import solve_generic_lp


class OracleError(ValueError):
    pass


def f_exact(inst: Instance, util: CascadeUtility, S, cache: dict | None = None) -> float:
    """f(S) = sum over seed sets U of Pr(U;S) * gamma(U), by enumerating the
    seed sets of the offered users; `cache` memoizes f by coupon profile."""
    if not util.exact:
        raise UtilityError("f_exact needs an exactly evaluable utility")
    pairs = S.pairs if isinstance(S, Allocation) else S
    profile = pairs_to_profile(pairs, inst.n)
    if cache is not None and profile in cache:
        return cache[profile]
    offered = [v for v in range(1, inst.n + 1) if profile[v - 1]]
    probs = [inst.p(v, profile[v - 1]) for v in offered]
    total = 0.0
    for r in range(len(offered) + 1):
        for combo in combinations(range(len(offered)), r):
            chosen = set(combo)
            pr = 1.0
            for i, p in enumerate(probs):
                pr *= p if i in chosen else 1.0 - p
            if pr:
                total += pr * util.value(frozenset(offered[i] for i in chosen))
    if cache is not None:
        cache[profile] = total
    return total


@dataclass
class Policy:
    """A finite distribution over allocations."""

    support: list  # (Allocation, probability) with probability > 0

    def __post_init__(self):
        total = sum(p for _, p in self.support)
        if abs(total - 1.0) > 1e-9:
            raise OracleError(f"policy probabilities sum to {total}, not 1")

    def expected_value(self, values: dict) -> float:
        return sum(p * values[alloc] for alloc, p in self.support)


def enumerate_feasible_allocations(inst: Instance, respect_K: bool = True,
                                   limit: int = 100_000) -> list[Allocation]:
    """All allocations with at most one coupon per user, optionally filtered
    by the hard distribution budget."""
    count = (inst.m + 1) ** inst.n
    if count > limit:
        raise OracleError(f"enumeration of {count} allocations exceeds the limit {limit}")
    allocations = []
    for profile in product(range(inst.m + 1), repeat=inst.n):
        if respect_K and inst.budget_K is not None:
            spend = sum(inst.dist_cost[v] for v, d in enumerate(profile) if d)
            if spend > inst.budget_K + 1e-12:
                continue
        allocations.append(Allocation.from_profile(profile))
    return allocations


def _values(inst: Instance, util: CascadeUtility, allocations, cache=None):
    cache = {} if cache is None else cache
    f_vals = np.array([f_exact(inst, util, S, cache) for S in allocations])
    c_vals = np.array([cost_exact(inst, S) for S in allocations])
    return f_vals, c_vals


def solve_optimal_policy(inst: Instance, util: CascadeUtility, cache=None):
    """Exact optimum of the policy problem: the LP over allocation probabilities.

    Returns (Policy, optimal value).  The support of a basic optimum has at
    most two allocations: only the mass and budget rows can bind.  `cache`
    is `f_exact`'s.
    """
    allocations = enumerate_feasible_allocations(inst)
    f_vals, c_vals = _values(inst, util, allocations, cache)
    k = len(allocations)
    # Mass <= 1 instead of == 1: padding with the empty allocation (f=c=0)
    # restores equality without changing the optimum.
    A = np.vstack([np.ones(k), c_vals])
    b = np.array([1.0, inst.budget_B])
    sol = solve_generic_lp(f_vals, A, b)
    theta = sol.x
    support = [(allocations[i], float(theta[i])) for i in range(k) if theta[i] > 1e-12]
    slack = 1.0 - sum(p for _, p in support)
    if slack > 1e-12:
        empty = Allocation(())
        for i, (alloc, p) in enumerate(support):
            if len(alloc) == 0:
                support[i] = (alloc, p + slack)
                break
        else:
            support.append((empty, slack))
    return Policy(support), float(sol.objective_value)


def _coupling_rows(inst: Instance, allocations) -> np.ndarray:
    """alpha-membership indicator rows, one per user-coupon pair in (v, d) order."""
    rows = np.zeros((inst.n * inst.m, len(allocations)))
    for i, S in enumerate(allocations):
        for v, d in S.pairs:
            rows[(v - 1) * inst.m + d - 1, i] = 1.0
    return rows


def concave_extension_value(inst: Instance, util: CascadeUtility, y,
                            use_reference: bool = False, cache=None) -> float:
    """The concave extension at a fixed fractional point, by exact LP.

    With use_reference=True, evaluates the extension of the unperturbed
    submodular objective instead.
    """
    y = np.asarray(y, dtype=float)
    allocations = enumerate_feasible_allocations(inst, respect_K=False)
    base_util = util.reference_q if use_reference else util
    f_vals, _ = _values(inst, base_util, allocations, cache)
    A = np.vstack([np.ones(len(allocations)), _coupling_rows(inst, allocations)])
    sol = solve_generic_lp(f_vals, A, np.concatenate([[1.0], y.reshape(-1)]))
    return float(sol.objective_value)


def solve_concave_relaxation(inst: Instance, util: CascadeUtility, mode: str = "PB",
                             b: float = 0.25, cache=None):
    """Exact optimum of the fractional relaxation: maximize the concave
    extension over the polytope.

    mode "PB" is the base polytope; "PB1" adds the distribution knapsack at
    its full budget K; "PB2" at the scaled budget b*K.  Solved as one joint
    LP in the combination weights alpha and the matrix y.  `cache` is `f_exact`'s.

    Returns (y_plus, value).
    """
    if mode not in ("PB", "PB1", "PB2"):
        raise OracleError(f"unknown relaxation mode {mode!r}")
    if mode != "PB" and inst.budget_K is None:
        raise OracleError(f"mode {mode} needs an instance with budget_K")
    allocations = enumerate_feasible_allocations(inst, respect_K=False)
    f_vals, _ = _values(inst, util, allocations, cache)
    k, n, m = len(allocations), inst.n, inst.m
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
                  [_coupling_rows(inst, allocations), -np.eye(nm)],
                  [np.zeros((len(y_rows), k)), y_rows]])
    c = np.concatenate([f_vals, np.zeros(nm)])
    sol = solve_generic_lp(c, A, np.concatenate(bounds))
    y_plus = sol.x[k:].reshape(n, m)
    return y_plus, float(sol.objective_value)


@dataclass
class VerifierReport:
    name: str
    ok: bool
    max_violation: float
    witnesses: list = field(default_factory=list)
    details: dict = field(default_factory=dict)


def verify_eps_sandwich(inst: Instance, util: CascadeUtility) -> VerifierReport:
    """Check (1-eps) g(S) <= f(S) <= (1+eps) g(S) over every feasible
    allocation, g built from the unperturbed reference; also check that g is
    monotone submodular along a fixed coupon-per-user grid."""
    reference = util.reference_q
    eps = util.epsilon
    allocations = enumerate_feasible_allocations(inst, respect_K=False)
    cache_f, cache_g = {}, {}
    worst = 0.0
    witnesses = []
    for S in allocations:
        f_val = f_exact(inst, util, S, cache_f)
        g_val = f_exact(inst, reference, S, cache_g)
        low, high = (1 - eps) * g_val, (1 + eps) * g_val
        violation = max(low - f_val, f_val - high, 0.0)
        if violation > 1e-9:
            witnesses.append({"allocation": sorted(S.pairs), "f": f_val, "g": g_val})
        worst = max(worst, violation)
    # g restricted to one fixed coupon per user is a set function of the
    # offered-user set; it must inherit monotone submodularity.
    grid_coupon = [((v - 1) % inst.m) + 1 for v in range(1, inst.n + 1)]
    table = {}
    for mask in range(1 << inst.n):
        users = frozenset(v for v in range(1, inst.n + 1) if mask >> (v - 1) & 1)
        pairs = frozenset((v, grid_coupon[v - 1]) for v in users)
        table[users] = f_exact(inst, reference, pairs, cache_g)
    grid_witness = check_submodular_monotone(table, inst.n)
    ok = worst <= 1e-9 and grid_witness is None
    details = {"epsilon": eps}
    if grid_witness is not None:
        details["grid_violation"] = [sorted(s) if isinstance(s, frozenset) else s
                                     for s in grid_witness]
    return VerifierReport("eps_sandwich", ok, worst, witnesses, details)


def verify_concave_dominance(inst: Instance, util: CascadeUtility,
                             points: int = 5, seed: int = 0) -> VerifierReport:
    """Check that the extension of the perturbed objective never exceeds
    (1+eps) times the extension of its submodular reference, on random
    row-feasible fractional points."""
    eps = util.epsilon
    rng = np.random.default_rng(seed)
    cache_f, cache_g = {}, {}
    worst = 0.0
    witnesses = []
    for _ in range(points):
        y = rng.random((inst.n, inst.m))
        rows = y.sum(axis=1)
        y = y / np.maximum(rows, 1.0)[:, None]
        f_plus = concave_extension_value(inst, util, y, cache=cache_f)
        g_plus = concave_extension_value(inst, util, y, use_reference=True, cache=cache_g)
        violation = f_plus - (1 + eps) * g_plus
        if violation > 1e-8:
            witnesses.append({"y": y.tolist(), "f_plus": f_plus, "g_plus": g_plus})
        worst = max(worst, violation)
    return VerifierReport("concave_dominance", worst <= 1e-8, max(worst, 0.0), witnesses,
                          {"epsilon": eps, "points": points})
