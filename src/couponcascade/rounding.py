"""Randomized rounding of fractional solutions into coupon profiles.

A coupon profile holds each user's coupon, 0 for none; a batch of draws is
a (draws, n) array of them.  For the one-coupon-per-user constraint, swap
rounding degenerates to an independent per-user categorical draw: user v
receives coupon d with probability y_vd and nothing with the leftover
mass.  The extended model adds a conflict-resolution pass that restores the
hard distribution budget by keeping offers in nondecreasing
distribution-cost order.
"""

from __future__ import annotations

import numpy as np

from couponcascade.instance import Instance
from couponcascade.objective import FractionalSolution


class RoundingError(ValueError):
    pass


def _as_matrix(y) -> np.ndarray:
    y = y.y if isinstance(y, FractionalSolution) else np.asarray(y, dtype=float)
    if np.any(y < -1e-9):
        raise RoundingError("negative fractional entry")
    if np.any(y.sum(axis=1) > 1 + 1e-9):
        raise RoundingError("per-user mass above 1; not a matroid polytope point")
    return np.clip(y, 0.0, None)


def round_partition_batch(y, draws: int, rng: np.random.Generator) -> np.ndarray:
    """(draws, n) matrix of selected coupons, 0 meaning no coupon."""
    y = _as_matrix(y)
    n, m = y.shape
    cum = np.cumsum(y, axis=1)
    r = rng.random((draws, n))
    selected = np.zeros((draws, n), dtype=int)
    for v in range(n):
        d = np.searchsorted(cum[v], r[:, v], side="right") + 1
        selected[:, v] = np.where(d <= m, d, 0)
    return selected


def resolve_conflicts_batch(selected: np.ndarray, inst: Instance,
                            K: float | None = None) -> np.ndarray:
    """Conflict resolution over a batch of rounded draws, one profile per row.

    Keeps each draw's offers in nondecreasing distribution-cost order, ties
    by user, while the cumulative cost stays within the hard budget K; the
    rest are set to 0.  The keep/drop order depends only on per-user costs, so the scan order is
    fixed across draws and the prefix sums vectorize.
    """
    K = inst.budget_K if K is None else K
    if K is None:
        raise RoundingError("conflict resolution needs a distribution budget")
    n = selected.shape[1]
    order = sorted(range(n), key=lambda i: (inst.dist_cost[i], i))
    costs = np.asarray(inst.dist_cost, dtype=float)[order]
    alloc = selected[:, order] > 0
    cum = np.cumsum(alloc * costs, axis=1)
    keep_sorted = alloc & (cum <= K + 1e-12)
    kept = np.zeros_like(selected)
    for pos, i in enumerate(order):
        kept[:, i] = np.where(keep_sorted[:, pos], selected[:, i], 0)
    return kept
