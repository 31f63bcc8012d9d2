"""Independent references on pair-set allocations, for the tests only.

The program represents an allocation as a coupon profile.  These references
follow the paper's definitions over sets of user-coupon pairs instead: seed
probabilities and the double-sum cost by enumerating seed sets, and scalar
rounders that draw one user at a time (the per-user categorical draw and
merge-based swap rounding) with cost-ordered conflict resolution.  Tests
compare the program's batched, profile-based code against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from couponcascade.instance import Instance
from couponcascade.rounding import RoundingError, _as_matrix


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
        p = inst.p(v, prof[v - 1]) if prof[v - 1] else 0.0
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
            redeemed = sum(inst.value_of(prof[u - 1]) for u in U if prof[u - 1])
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
