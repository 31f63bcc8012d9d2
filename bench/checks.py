"""Output checks on one solve report, computed apart from the program.

Everything here works from the instance file the program read and from the
report it returned, with numpy only: the perturbed utility is rebuilt from
the instance format's definition (tabulated values or live-edge worlds,
times the blake2b-keyed (1 +- eps) factor), and F is taken in closed form
over seed sets instead of over coupon profiles:

    F(y) = sum_U prod_{v in U} q_v prod_{v not in U} (1 - q_v) gamma(U).

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

TOL = 1e-9
F_REL_TOL = 1e-9
Z_LIMIT = 5.0  # standard errors allowed between f_mean and its exact expectation
RATIO_SLACK = 0.07  # acceptance property 1's slack on the achieved ratio
RATIO_STDERRS = 3.0


def perturb_factor(seed: int, users, epsilon: float) -> float:
    if not users or epsilon == 0:
        return 1.0
    key = f"{seed}|{','.join(str(u) for u in sorted(users))}".encode()
    unit = int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big") / 2**64
    return 1.0 + epsilon * (2.0 * unit - 1.0)


def _users(mask: int, n: int) -> list[int]:
    return [v + 1 for v in range(n) if mask >> v & 1]


def _ic_spread(n: int, edges) -> np.ndarray:
    """Expected reach of every seed set, over all 2^E live-edge worlds."""
    k = len(edges)
    worlds = np.arange(1 << k, dtype=np.int64)
    prob = np.ones(len(worlds))
    live = []
    for i, (_, _, w) in enumerate(edges):
        on = (worlds >> i & 1).astype(bool)
        prob *= np.where(on, w, 1.0 - w)
        live.append(on)
    # reach[:, v] is the bitmask of nodes reachable from v in each world.
    reach = np.tile(np.int64(1) << np.arange(n, dtype=np.int64), (len(worlds), 1))
    for _ in range(n):
        for i, (u, v, _) in enumerate(edges):
            reach[:, u - 1] |= np.where(live[i], reach[:, v - 1], 0)
    spread = np.zeros(1 << n)
    for mask in range(1, 1 << n):
        covered = np.zeros(len(worlds), dtype=np.int64)
        for v in _users(mask, n):
            covered |= reach[:, v - 1]
        spread[mask] = prob @ np.bitwise_count(covered)
    return spread


def gamma_vector(doc: dict) -> np.ndarray:
    """The perturbed utility of every seed set, indexed by user bitmask."""
    n = doc["n"]
    if doc["model"] == "TABLE":
        table = doc["gamma_table"]
        base = np.array([table[",".join(str(u) for u in _users(mask, n))]
                         for mask in range(1 << n)], dtype=float)
    elif doc["model"] == "IC":
        base = _ic_spread(n, doc.get("edges", []))
    else:
        raise ValueError(f"no exact reference for model {doc['model']!r}")
    factors = [perturb_factor(doc["perturb_seed"], _users(mask, n), doc["epsilon"])
               for mask in range(1 << n)]
    return base * np.array(factors)


def closed_form_F(q: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """F for per-user seed probabilities q (shape (..., n)), exactly."""
    n = q.shape[-1]
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1  # (2^n, n)
    weights = np.prod(np.where(bits, q[..., None, :], 1.0 - q[..., None, :]), axis=-1)
    return weights @ gamma


def seed_prob_independent(y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """q_v when every entry y_vd is drawn independently (the multilinear extension)."""
    above = np.cumprod((1.0 - y)[:, ::-1], axis=1)[:, ::-1]  # prod over k >= d
    none_above = np.hstack([above[:, 1:], np.ones((y.shape[0], 1))])
    return (y * none_above * p).sum(axis=1)


def rounded_expectation(doc: dict, y: np.ndarray, gamma: np.ndarray) -> float:
    """Exact E[f] of per-user categorical rounding, and in extended mode of the
    cost-ordered conflict resolution applied after it."""
    p = np.asarray(doc["adoption"], dtype=float)
    mass = np.clip(y.sum(axis=1), 0.0, 1.0)
    offered_q = (y * p).sum(axis=1)  # E[p_v(d) 1{v offered}]
    if doc.get("budget_K") is None:
        return float(closed_form_F(offered_q, gamma))
    # Given the set O of users that drew a coupon, resolution keeps a fixed
    # prefix of O in (cost, user) order, and f is multilinear in the
    # independent per-user draws, so E[f | O] = F(E[q | O]).
    n = doc["n"]
    cost = np.asarray(doc["dist_cost"], dtype=float)
    order = sorted(range(n), key=lambda v: (cost[v], v))
    total = 0.0
    for mask in range(1 << n):
        prob = 1.0
        for v in range(n):
            prob *= mass[v] if mask >> v & 1 else 1.0 - mass[v]
        if prob <= 0.0:
            continue
        q = np.zeros(n)
        spent = 0.0
        for v in order:
            if mask >> v & 1:
                if spent + cost[v] <= doc["budget_K"] + 1e-12:
                    spent += cost[v]
                    q[v] = offered_q[v] / mass[v]
        total += prob * float(closed_form_F(q, gamma))
    return total


def approximation_beta(epsilon: float, n: int) -> float:
    front = (1.0 - epsilon) / (1.0 + epsilon)
    rate = 1.0 + 2.0 * epsilon * n / (1.0 + epsilon)
    return front * (1.0 - math.exp(-rate)) * (1.0 - epsilon) / (1.0 + (2 * n + 1) * epsilon)


def check_report(report: dict, doc: dict, b: float, gamma: np.ndarray, workload) -> list[str]:
    """Every independent check on one solve; returns the failures."""
    bad = []
    extended = doc.get("budget_K") is not None
    y = np.asarray(report["fractional"]["y"], dtype=float)
    p = np.asarray(doc["adoption"], dtype=float)
    values = np.asarray(doc["coupon_values"], dtype=float)

    if report["config"]["marginals"] != workload.marginals:
        bad.append(f"marginals {report['config']['marginals']!r}, expected {workload.marginals!r}")
    if (report["oracle"] is not None) != workload.oracle:
        bad.append(f"oracle block present={report['oracle'] is not None}, expected {workload.oracle}")

    if y.shape != (doc["n"], doc["m"]) or y.min() < -TOL or y.max() > 1 + TOL:
        bad.append("y leaves the box")
    if np.any(y.sum(axis=1) > 1 + TOL):
        bad.append("a row of y sums above 1")
    spend = float((y * p * values).sum())
    if spend > doc["budget_B"] + TOL * (1 + doc["budget_B"]):
        bad.append(f"redemption knapsack {spend} > B {doc['budget_B']}")
    if extended:
        dist = float(np.asarray(doc["dist_cost"]) @ y.sum(axis=1))
        cap = b * doc["budget_K"]
        if dist > cap + TOL * (1 + cap):
            bad.append(f"distribution knapsack {dist} > bK {cap}")

    if report["config"]["marginals"] == "exact":
        F_ref = float(closed_form_F(seed_prob_independent(y, p), gamma))
        F = report["fractional"]["F"]
        if F is None or abs(F - F_ref) > F_REL_TOL * max(1.0, abs(F_ref)):
            bad.append(f"fractional.F {F} != closed form {F_ref}")

    rnd = report["rounding"]
    expected = rounded_expectation(doc, y, gamma)
    allowed = Z_LIMIT * rnd["f_stderr"] + TOL * (1 + abs(expected))
    if abs(rnd["f_mean"] - expected) > allowed:
        bad.append(f"rounding.f_mean {rnd['f_mean']} is {abs(rnd['f_mean'] - expected)} from "
                   f"its exact expectation {expected} (allowed {allowed})")
    if rnd["dist_budget_violations"] != 0:
        bad.append(f"{rnd['dist_budget_violations']} draws break the distribution budget")

    guarantee = approximation_beta(doc["epsilon"], doc["n"])
    if extended:
        guarantee *= (1.0 - 2.0 * b) * b
    if abs(report["theory"]["guarantee"] - guarantee) > 1e-12:
        bad.append(f"theory.guarantee {report['theory']['guarantee']} != {guarantee}")
    if report["oracle"] is not None:
        ratio = report["ratio"]
        if ratio is None:
            bad.append("oracle ran but no ratio was reported")
        elif ratio["achieved"] < guarantee - RATIO_SLACK - RATIO_STDERRS * ratio["stderr"]:
            bad.append(f"ratio {ratio['achieved']} below guarantee {guarantee}")
        policy = report["oracle"]["policy_value"]
        if report["oracle"]["relaxation_PB"] < policy - TOL * (1 + abs(policy)):
            bad.append("relaxation_PB below policy_value")
    return bad


def canonical(report: dict) -> str:
    """The report as sorted JSON text, for byte-identical replay checks."""
    return json.dumps(report, sort_keys=True, default=lambda x: x.item())
