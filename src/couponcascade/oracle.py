"""Brute-force ground truth for tiny instances.

Works on coupon profiles: a profile is a tuple holding each user's coupon,
0 for none.  Enumerates every feasible profile, solves the exact policy LP,
the exact concave-extension relaxations, and certifies numerically that the
perturbed objective stays inside its submodular sandwich and that the
relaxations dominate in the expected directions.  Everything here is
independent of the solver path: it goes through exhaustive enumeration and
the generic LP solver only.  In particular f is a sum over explicit seed
sets (`f_exact` below): every profile's Pr(U; S) for all 2^n seed sets U,
times gamma(U) read through `value`, not the solver's fold over the gamma
vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from couponcascade.cascade import CascadeUtility, UtilityError
from couponcascade.instance import Instance
from couponcascade.polytope_lp import solve_generic_lp

# Largest Pr(U; S) block f_exact builds at once, in entries: rows of 2^n
# seed-set probabilities, as many profiles as fit.
BLOCK_ENTRIES = 1 << 16

# Largest (m+1)^n profile count the suite enumerates, and the largest n whose
# set pairs the submodularity check walks.
ENUMERATION_LIMIT = 100_000
SUBMODULAR_CHECK_MAX_N = 12


class OracleError(ValueError):
    pass


def check_size(inst: Instance) -> None:
    """Raise OracleError unless every check of the suite can enumerate inst."""
    count = (inst.m + 1) ** inst.n
    if count > ENUMERATION_LIMIT:
        raise OracleError(f"enumeration of {count} allocations exceeds the limit "
                          f"{ENUMERATION_LIMIT}")
    if inst.n > SUBMODULAR_CHECK_MAX_N:
        raise OracleError(f"exhaustive check limited to n <= {SUBMODULAR_CHECK_MAX_N}")


def f_exact(inst: Instance, util: CascadeUtility, profiles) -> np.ndarray:
    """f(S) = sum over seed sets U of Pr(U;S) * gamma(U) for every coupon profile S.

    gamma(U) of all 2^n seed sets is read once through `util.value`; Pr(U;S)
    is a product over users, one at a time, in blocks of BLOCK_ENTRIES.
    """
    if not util.exact:
        raise UtilityError("f_exact needs an exactly evaluable utility")
    n = inst.n
    profiles = np.asarray(profiles, dtype=int).reshape(-1, n)
    gamma = np.array([util.value(frozenset(v + 1 for v in range(n) if mask >> v & 1))
                      for mask in range(1 << n)])
    held = np.hstack([np.zeros((n, 1)), inst.adoption])[np.arange(n), profiles]
    rows = max(1, BLOCK_ENTRIES >> n)
    out = np.empty(len(profiles))
    for start in range(0, len(profiles), rows):
        p = held[start:start + rows]
        pr = np.ones((len(p), 1))
        for v in range(n):  # user v + 1 is the next bit of the seed-set index
            pr = np.hstack([pr * (1.0 - p[:, v, None]), pr * p[:, v, None]])
        out[start:start + rows] = pr @ gamma
    return out


def check_submodular_monotone(table: dict[frozenset, float], n: int):
    """Exhaustively check a tabulated set function on {1..n}.

    Returns None when the table is monotone and submodular, else a witness:
    ("monotone", X, x) when h(X+x) < h(X), or ("submodular", X, Y, x) when
    the diminishing-returns inequality fails for X subset of Y.
    """
    if n > SUBMODULAR_CHECK_MAX_N:
        raise OracleError(f"exhaustive check limited to n <= {SUBMODULAR_CHECK_MAX_N}")
    users = list(range(1, n + 1))
    sets = []
    for r in range(n + 1):
        sets.extend(frozenset(c) for c in combinations(users, r))
    for s in sets:
        if s not in table:
            raise UtilityError(f"gamma table is missing subset {sorted(s)}")
    for X in sets:
        for x in users:
            if x in X:
                continue
            if table[X | {x}] < table[X] - 1e-12:
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
                if gain_x < gain_y - 1e-12:
                    return ("submodular", X, Y, x)
    return None


@dataclass
class Policy:
    """A finite distribution over allocations."""

    support: list  # (coupon profile tuple, probability) with probability > 0

    def __post_init__(self):
        total = sum(p for _, p in self.support)
        if abs(total - 1.0) > 1e-9:
            raise OracleError(f"policy probabilities sum to {total}, not 1")


def enumerate_feasible_allocations(inst: Instance, respect_K: bool = True,
                                   limit: int = ENUMERATION_LIMIT) -> list[tuple]:
    """Every coupon profile (at most one coupon per user), in lexicographic
    order, optionally filtered by the hard distribution budget."""
    count = (inst.m + 1) ** inst.n
    if count > limit:
        raise OracleError(f"enumeration of {count} allocations exceeds the limit {limit}")
    profiles = np.indices((inst.m + 1,) * inst.n).reshape(inst.n, -1).T
    if respect_K and inst.budget_K is not None:
        profiles = profiles[(profiles > 0) @ inst.dist_cost <= inst.budget_K + 1e-12]
    return [tuple(row) for row in profiles.tolist()]


def _costs(inst: Instance, profiles) -> np.ndarray:
    """Expected redemption cost of each profile: p_v(d) * value(d) summed over users."""
    pay = np.hstack([np.zeros((inst.n, 1)), inst.adoption * inst.coupon_values])
    return pay[np.arange(inst.n), np.asarray(profiles)].sum(axis=1)


def solve_optimal_policy(inst: Instance, util: CascadeUtility):
    """Exact optimum of the policy problem: the LP over allocation probabilities.

    Returns (Policy, optimal value).  The support of a basic optimum has at
    most two allocations: only the mass and budget rows can bind.
    """
    profiles = enumerate_feasible_allocations(inst)
    k = len(profiles)
    # Mass <= 1 instead of == 1: padding with the empty allocation (f=c=0)
    # restores equality without changing the optimum.
    A = np.vstack([np.ones(k), _costs(inst, profiles)])
    b = np.array([1.0, inst.budget_B])
    sol = solve_generic_lp(f_exact(inst, util, profiles), A, b)
    theta = sol.x
    support = [(profiles[i], float(theta[i])) for i in range(k) if theta[i] > 1e-12]
    slack = 1.0 - sum(p for _, p in support)
    if slack > 1e-12:
        empty = (0,) * inst.n
        for i, (profile, p) in enumerate(support):
            if profile == empty:
                support[i] = (profile, p + slack)
                break
        else:
            support.append((empty, slack))
    return Policy(support), float(sol.objective_value)


def _coupling_rows(inst: Instance, profiles) -> np.ndarray:
    """alpha-membership indicator rows, one per user-coupon pair in (v, d) order."""
    held = np.asarray(profiles).T[:, None, :] == np.arange(1, inst.m + 1)[:, None]
    return held.reshape(inst.n * inst.m, -1).astype(float)


def concave_extension_value(inst: Instance, util: CascadeUtility, y) -> float:
    """The concave extension at a fixed fractional point, by exact LP."""
    profiles = enumerate_feasible_allocations(inst, respect_K=False)
    return _extension_lp(inst, profiles, f_exact(inst, util, profiles), y)


def _extension_lp(inst: Instance, profiles, f_vals: np.ndarray, y) -> float:
    """max sum_S alpha_S f(S) over alpha >= 0 with mass <= 1 and membership <= y."""
    A = np.vstack([np.ones(len(profiles)), _coupling_rows(inst, profiles)])
    b = np.concatenate([[1.0], np.asarray(y, dtype=float).reshape(-1)])
    return float(solve_generic_lp(f_vals, A, b).objective_value)


def solve_concave_relaxation(inst: Instance, util: CascadeUtility, mode: str = "PB",
                             b: float = 0.25):
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
    profiles = enumerate_feasible_allocations(inst, respect_K=False)
    k, n, m = len(profiles), inst.n, inst.m
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
                  [_coupling_rows(inst, profiles), -np.eye(nm)],
                  [np.zeros((len(y_rows), k)), y_rows]])
    c = np.concatenate([f_exact(inst, util, profiles), np.zeros(nm)])
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
    profiles = enumerate_feasible_allocations(inst, respect_K=False)
    f_vals = f_exact(inst, util, profiles)
    g_vals = f_exact(inst, reference, profiles)
    violation = np.maximum(np.maximum((1 - eps) * g_vals - f_vals, f_vals - (1 + eps) * g_vals),
                           0.0)
    worst = float(violation.max())
    witnesses = [{"allocation": [(v + 1, d) for v, d in enumerate(profiles[i]) if d],
                  "f": float(f_vals[i]), "g": float(g_vals[i])}
                 for i in np.flatnonzero(violation > 1e-9)]
    # g restricted to one fixed coupon per user is a set function of the
    # offered-user set; it must inherit monotone submodularity.
    offered = (np.arange(1 << inst.n)[:, None] >> np.arange(inst.n)) & 1
    grid_g = f_exact(inst, reference, offered * (np.arange(inst.n) % inst.m + 1))
    table = {frozenset(v + 1 for v in range(inst.n) if mask >> v & 1): float(g)
             for mask, g in enumerate(grid_g)}
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
    profiles = enumerate_feasible_allocations(inst, respect_K=False)
    f_vals = f_exact(inst, util, profiles)
    g_vals = f_exact(inst, util.reference_q, profiles)
    worst = 0.0
    witnesses = []
    for _ in range(points):
        y = rng.random((inst.n, inst.m))
        rows = y.sum(axis=1)
        y = y / np.maximum(rows, 1.0)[:, None]
        f_plus = _extension_lp(inst, profiles, f_vals, y)
        g_plus = _extension_lp(inst, profiles, g_vals, y)
        violation = f_plus - (1 + eps) * g_plus
        if violation > 1e-8:
            witnesses.append({"y": y.tolist(), "f_plus": f_plus, "g_plus": g_plus})
        worst = max(worst, violation)
    return VerifierReport("concave_dominance", worst <= 1e-8, max(worst, 0.0), witnesses,
                          {"epsilon": eps, "points": points})
