"""Brute-force ground truth for tiny instances.

Works on coupon profiles: a profile is a tuple holding each user's coupon,
0 for none.  Enumerates every profile, solves the exact policy LP and the
exact concave-extension relaxations, and certifies numerically that the
perturbed objective stays inside its submodular sandwich and that the
relaxations dominate in the expected directions.  `certification_checks`
returns the suite's checks as the `oracle` command reports them, each a
dict with its name and `ok`; `reference_values` gives the LP optima that
`solve` reports.  Every LP and check of a run reads one `ProfileTable`,
so a run evaluates f over every profile once, and once more for the
reference g when eps > 0.  Its only size rule of its own is
ENUMERATION_LIMIT on the profile count; f reads gamma of all
2^n seed sets, so n <= 15 comes from the gamma vector's rule.  Every
relaxation is solved as a profile LP over the combination weights alone,
and its optimum is certified against the joint LP in the weights and y by
a lifted dual.  Everything here is independent of the solver path: it goes
through exhaustive enumeration and the generic LP solver only.  In
particular f is the product form over the profile grid (`f_exact` below):
gamma(U) read through `value`, contracted one user at a time with that
user's seed probabilities, not the solver's fold over the gamma vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from couponcascade.cascade import CascadeUtility, UtilityError, _seed_set_count
from couponcascade.instance import Instance
from couponcascade.polytope_lp import LpSolution, NumericError, _certify, solve_generic_lp

# Largest (m+1)^n profile count the suite enumerates.
ENUMERATION_LIMIT = 100_000


class OracleError(ValueError):
    pass


def _check_profile_count(inst: Instance) -> None:
    count = (inst.m + 1) ** inst.n
    if count > ENUMERATION_LIMIT:
        raise OracleError(f"enumeration of {count} allocations exceeds the limit "
                          f"{ENUMERATION_LIMIT}")


def f_exact(inst: Instance, util: CascadeUtility) -> np.ndarray:
    """f(S) = sum over seed sets U of Pr(U;S) * gamma(U) for every coupon
    profile S, in the order of `enumerate_feasible_allocations`.

    gamma(U) of all 2^n seed sets is read once through `util.value`.  Pr(U;S)
    is a product over users, so f over the (m+1)^n profile grid is gamma, as
    a 2 x ... x 2 tensor, with each user's bit axis contracted against
    [1 - p_v(d), p_v(d)], p_v(0) = 0: one broadcast multiply-add per user.
    """
    if not util.exact:
        raise UtilityError("f_exact needs an exactly evaluable utility")
    _check_profile_count(inst)
    n = inst.n
    held = np.hstack([np.zeros((n, 1)), inst.adoption])
    f = np.array([util.value(frozenset(v + 1 for v in range(n) if mask >> v & 1))
                  for mask in range(_seed_set_count(n))]).reshape((2,) * n)
    for v in reversed(range(n)):  # axis 0 is the highest bit left: user v + 1
        f = f[0, ..., None] * (1.0 - held[v]) + f[1, ..., None] * held[v]
    return f.transpose().ravel()  # user 1's coupon the most significant digit


def check_submodular_monotone(values):
    """Check a set function on {1..n}, given as its 2^n values indexed by
    user bitmask (bit v-1 for user v).

    Returns None when it is monotone and submodular, else a witness:
    ("monotone", X, x) when h(X+x) < h(X), or ("submodular", X, x, y) when
    h(X+x) + h(X+y) < h(X+x+y) + h(X) for x, y not in X.  That local
    inequality is equivalent to diminishing returns on every X within Y
    (Schrijver, Combinatorial Optimization, Thm 44.1).  The monotone test's
    tolerance is 1e-12 times the largest |value|, so a verdict does not
    depend on the function's unit; the local test's is that over n: a chain
    from X to Y takes at most n - 1 local steps, so a gain that falls by
    more than the monotone tolerance from X to Y is flagged.
    """
    h = np.asarray(values, dtype=float)
    n = len(h).bit_length() - 1
    if len(h) != 1 << max(n, 0):
        raise UtilityError(f"a set function needs 2^n values, one per subset; got {len(h)}")
    masks = np.arange(len(h))
    tol = 1e-12 * np.abs(h).max()

    def users(mask):
        return frozenset(v + 1 for v in range(n) if mask >> v & 1)

    for x in range(n):
        X = masks[masks >> x & 1 == 0]
        bad = X[h[X | 1 << x] < h[X] - tol]
        if len(bad):
            return ("monotone", users(bad[0]), x + 1)
    for x in range(n):
        for y in range(x + 1, n):
            X = masks[(masks >> x | masks >> y) & 1 == 0]
            bad = X[h[X | 1 << x] + h[X | 1 << y] < h[X | 1 << x | 1 << y] + h[X] - tol / n]
            if len(bad):
                return ("submodular", users(bad[0]), x + 1, y + 1)
    return None


@dataclass
class Policy:
    """A finite distribution over allocations."""

    support: list  # (coupon profile tuple, probability) with probability > 0

    def __post_init__(self):
        total = sum(p for _, p in self.support)
        if abs(total - 1.0) > 1e-9:
            raise OracleError(f"policy probabilities sum to {total}, not 1")


def enumerate_feasible_allocations(inst: Instance) -> list[tuple]:
    """Every coupon profile (at most one coupon per user), in lexicographic order."""
    _check_profile_count(inst)
    return list(map(tuple, np.indices((inst.m + 1,) * inst.n).reshape(inst.n, -1).T.tolist()))


@dataclass(eq=False)
class ProfileTable:
    """Every coupon profile of one instance, as a (k, n) array in
    lexicographic order, and what the oracle's LPs and checks read off them,
    each computed on first use: one table serves a whole oracle run.  A
    table past ENUMERATION_LIMIT is refused when built, before any f."""

    inst: Instance
    util: CascadeUtility

    def __post_init__(self):
        _check_profile_count(self.inst)

    @cached_property
    def profiles(self) -> np.ndarray:
        return np.array(enumerate_feasible_allocations(self.inst))

    @cached_property
    def f(self) -> np.ndarray:
        return f_exact(self.inst, self.util)

    @cached_property
    def g(self) -> np.ndarray:
        """f of the unperturbed reference utility: f itself at eps = 0."""
        reference = self.util.reference_q
        return self.f if reference is self.util else f_exact(self.inst, reference)

    @cached_property
    def coupling(self) -> np.ndarray:
        """alpha-membership indicator rows, one per user-coupon pair in (v, d) order."""
        held = self.profiles.T[:, None, :] == np.arange(1, self.inst.m + 1)[:, None]
        return held.reshape(self.inst.n * self.inst.m, -1).astype(float)

    @cached_property
    def within_K(self) -> np.ndarray:
        """The profiles within the hard distribution budget K: all without one."""
        return self.inst.fits_K((self.profiles > 0) @ self.inst.dist_cost)


def _profile_rows(table: ProfileTable, k_bound: float | None = None):
    """(A, b) of the LP over profile weights alpha >= 0: mass <= 1 and
    expected redemption cost <= B; with k_bound, also expected distribution
    cost, sum_S alpha_S a(S) <= k_bound, where a(S) is the dist_cost of the
    users S offers to.  A cost past the float range is inf, without a
    warning; the LP's input guard then refuses it."""
    inst, profiles = table.inst, table.profiles
    pay = np.hstack([np.zeros((inst.n, 1)), inst.redemption_weights])
    with np.errstate(over="ignore"):
        cost = pay[np.arange(inst.n), profiles].sum(axis=1)
    rows = [np.ones(len(profiles)), cost]
    bounds = [1.0, inst.budget_B]
    if k_bound is not None:
        rows.append((profiles > 0) @ inst.dist_cost)
        bounds.append(k_bound)
    return np.vstack(rows), np.array(bounds)


def solve_optimal_policy(table: ProfileTable):
    """Exact optimum of the policy problem: the LP over probabilities of allocations within K.

    Returns (Policy, optimal value).  The support of a basic optimum has at
    most two allocations: only the mass and budget rows can bind.
    """
    keep = np.flatnonzero(table.within_K)
    A, b = _profile_rows(table)
    # Mass <= 1 instead of == 1: padding with the empty allocation (f=c=0),
    # the first profile, restores equality without changing the optimum.
    sol = solve_generic_lp(table.f[keep], A[:, keep], b)
    sol.x[0] += max(0.0, 1.0 - sol.x.sum())
    support = [(tuple(table.profiles[i].tolist()), float(p))
               for i, p in zip(keep, sol.x) if p > 1e-12]
    return Policy(support), float(sol.objective_value)


def _extension_lp(table: ProfileTable, f_vals: np.ndarray, y, start=None) -> LpSolution:
    """max sum_S alpha_S f(S) over alpha >= 0 with mass <= 1 and membership <= y.

    `start` is the `final` of an earlier extension LP at the same y: the
    rows are the same, so the solve warm-starts from its basis.
    """
    A = np.vstack([np.ones(len(f_vals)), table.coupling])
    b = np.concatenate([[1.0], np.asarray(y, dtype=float).reshape(-1)])
    return solve_generic_lp(f_vals, A, b, start)


def solve_concave_relaxation(table: ProfileTable, mode: str = "PB", b: float = 0.25):
    """Exact optimum of the fractional relaxation: maximize the concave
    extension over the polytope.

    mode "PB" is the base polytope; "PB1" adds the distribution knapsack at
    its full budget K; "PB2" at the scaled budget b*K.  The relaxation is a
    joint LP in the combination weights alpha and the matrix y, but y only
    has to cover the coupling of alpha: every y row (caps, knapsacks) has
    nonnegative coefficients, and the caps hold because sum alpha <= 1.  So
    it is solved as the profile LP over alpha alone, with the rows of
    `_profile_rows`; in base mode that is the policy LP itself.  The optimum
    is then certified against the joint LP (`_certify_joint`).

    Returns (y_plus, value), y_plus the coupling of the optimal alpha.
    """
    inst = table.inst
    if mode not in ("PB", "PB1", "PB2"):
        raise OracleError(f"unknown relaxation mode {mode!r}")
    if mode != "PB" and inst.budget_K is None:
        raise OracleError(f"mode {mode} needs an instance with budget_K")
    k_bound = None if mode == "PB" else float(inst.budget_K) * (b if mode == "PB2" else 1.0)
    sol = solve_generic_lp(table.f, *_profile_rows(table, k_bound))
    y_plus = table.coupling @ sol.x
    _certify_joint(inst, table.coupling, table.f, k_bound, sol, y_plus)
    return y_plus.reshape(inst.n, inst.m), float(sol.objective_value)


def _certify_joint(inst: Instance, coupling, f_vals, k_bound, sol, y_plus) -> None:
    """Certify a profile-LP optimum as the optimum of the joint LP in (alpha, y).

    The joint LP has columns alpha (k) then y flat (v, d), and rows: alpha
    mass <= 1, coupling alpha-membership <= y, per-user caps, then the
    knapsacks (no y <= 1 rows: y >= 0 and the caps imply them).  Its primal
    is (alpha, coupling(alpha)), checked against A x <= b.  Its dual is lifted
    from the profile LP's duals (lambda, mu, kappa): the coupling rows get
    pi_vd = mu * w_vd + kappa * a_v, the caps get zero.  Raises NumericError
    when either fails.
    """
    k, n, m = len(f_vals), inst.n, inst.m
    nm = n * m
    y_rows = [np.kron(np.eye(n), np.ones(m)), inst.redemption_weights.reshape(1, -1)]
    bounds = [[1.0], np.zeros(nm), np.ones(n), [inst.budget_B]]
    if k_bound is not None:
        y_rows.append(np.repeat(inst.dist_cost, m)[None])
        bounds.append([k_bound])
    y_rows = np.vstack(y_rows)
    A = np.block([[np.ones((1, k)), np.zeros((1, nm))],
                  [coupling, -np.eye(nm)],
                  [np.zeros((len(y_rows), k)), y_rows]])
    b = np.concatenate(bounds)
    c = np.concatenate([f_vals, np.zeros(nm)])
    x = np.concatenate([sol.x, y_plus])
    if np.any(x < -1e-9) or np.any(A @ x > b + 1e-9 * (1 + b)):
        raise NumericError("relaxation optimum violates the joint LP's rows")
    dual = np.concatenate([sol.dual[:1], y_rows[n:].T @ sol.dual[1:], np.zeros(n), sol.dual[1:]])
    _certify(c, A, b, float(c @ x), dual)


def verify_eps_sandwich(table: ProfileTable) -> dict:
    """Check (1-eps) g(S) <= f(S) <= (1+eps) g(S) over every allocation, g
    built from the unperturbed reference; also check that g is monotone
    submodular along a fixed coupon-per-user grid, whose profiles are rows
    of the table.  The sandwich's tolerance is 1e-9 times the largest |f| or
    |g|.  A grid failure adds its `grid_violation` witness."""
    inst, eps = table.inst, table.util.epsilon
    f_vals, g_vals = table.f, table.g
    violation = np.maximum(np.maximum((1 - eps) * g_vals - f_vals, f_vals - (1 + eps) * g_vals),
                           0.0)
    worst = float(violation.max())
    tol = 1e-9 * np.abs([f_vals, g_vals]).max()
    witnesses = [{"allocation": [(v + 1, d) for v, d in enumerate(table.profiles[i]) if d],
                  "f": float(f_vals[i]), "g": float(g_vals[i])}
                 for i in np.flatnonzero(violation > tol)]
    # g restricted to one fixed coupon per user is a set function of the
    # offered-user set; it must inherit monotone submodularity.  Grid
    # profile S is row sum_v S_v (m+1)^(n-1-v) of the table.
    users = np.arange(inst.n)
    grid = (np.arange(1 << inst.n)[:, None] >> users & 1) * (users % inst.m + 1)
    grid_witness = check_submodular_monotone(g_vals[grid @ (inst.m + 1) ** (inst.n - 1 - users)])
    if grid_witness is not None:
        witnesses.append({"grid_violation": [sorted(s) if isinstance(s, frozenset) else s
                                             for s in grid_witness]})
    return {"name": "eps_sandwich", "ok": worst <= tol and grid_witness is None,
            "max_violation": worst, "witnesses": witnesses}


def verify_concave_dominance(table: ProfileTable, points: int = 5, seed: int = 0) -> dict:
    """Check that the extension of the perturbed objective never exceeds
    (1+eps) times the extension of its submodular reference, on random
    row-feasible fractional points.  At each point both extension LPs
    share their rows, so the reference's warm-starts from the perturbed
    one's final tableau.  A point fails when f+ exceeds (1+eps) g+ by more
    than 1e-8 times the larger of the two (`_at_least`)."""
    inst, eps = table.inst, table.util.epsilon
    rng = np.random.default_rng(seed)
    f_vals, g_vals = table.f, table.g
    worst = 0.0
    witnesses = []
    for _ in range(points):
        y = rng.random((inst.n, inst.m))
        rows = y.sum(axis=1)
        y = y / np.maximum(rows, 1.0)[:, None]
        f_sol = _extension_lp(table, f_vals, y)
        g_sol = _extension_lp(table, g_vals, y, start=f_sol.final)
        # Both values as c.x at the optimal vertex: with eps = 0 the warm
        # start keeps f's vertex, and f and g compare equal bit for bit.
        f_plus, g_plus = float(f_vals @ f_sol.x), float(g_vals @ g_sol.x)
        if not _at_least((1 + eps) * g_plus, f_plus):
            witnesses.append({"y": y.tolist(), "f_plus": f_plus, "g_plus": g_plus})
        worst = max(worst, f_plus - (1 + eps) * g_plus)
    return {"name": "concave_dominance", "ok": not witnesses,
            "max_violation": max(worst, 0.0), "witnesses": witnesses}


def _at_least(value: float, bound: float) -> bool:
    """value >= bound up to 1e-8 times the larger of |value| and |bound|: a
    verdict that does not depend on the unit of gamma."""
    return value >= bound - 1e-8 * max(abs(value), abs(bound))


def reference_values(table: ProfileTable, b: float) -> dict:
    """The optimum of the policy LP and of each relaxation the instance
    has: PB, and in extended mode PB1 and PB2 at scale b."""
    if table.inst.budget_K is None:
        # Without a distribution budget the policy LP and PB are one LP over
        # the same profiles and rows: solve it once.
        _, value = solve_concave_relaxation(table, "PB")
        return {"policy_value": value, "relaxation_PB": value}
    values = {"policy_value": solve_optimal_policy(table)[1]}
    for mode in ("PB", "PB1", "PB2"):
        _, values[f"relaxation_{mode}"] = solve_concave_relaxation(table, mode, b=b)
    return values


def certification_checks(table: ProfileTable, b: float, points: int,
                         seed: int) -> list[dict]:
    """Every check of the suite, as the `oracle` report lists them: the
    sandwich, the dominance of the reference extension, the relaxation
    over the policy optimum, and in extended mode PB2 >= b * PB1."""
    checks = [verify_eps_sandwich(table), verify_concave_dominance(table, points, seed)]
    values = reference_values(table, b)
    policy_value, pb_value = values["policy_value"], values["relaxation_PB"]
    checks.append({"name": "relaxation_dominates_policy",
                   "ok": _at_least(pb_value, policy_value),
                   "policy_value": policy_value, "relaxation_value": pb_value})
    if table.inst.budget_K is not None:
        pb1, pb2 = values["relaxation_PB1"], values["relaxation_PB2"]
        checks.append({"name": "scaled_relaxation_lower_bound", "ok": _at_least(pb2, b * pb1),
                       "b": b, "full_value": pb1, "scaled_value": pb2})
    return checks
