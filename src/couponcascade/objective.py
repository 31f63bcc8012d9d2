"""The cascade objective: seed probabilities, f, costs and the multilinear extension.

An allocation S offers at most one coupon per user; each offered user
independently accepts and becomes a seed.  f(S) is the expected cascade
over the random seed set, c(S) its expected redemption cost, and F(y) the
multilinear extension of f over fractional user-coupon matrices.

Coupon values are strictly increasing, so f depends only on each user's
highest coupon, and user v seeds independently: with probability p_v(d_v)
under an allocation, and with q_v(y) = sum_d y_vd prod_{k>d} (1 - y_vk)
p_v(d) when the entries y_vd are drawn independently.  f, F and their
marginals are therefore contractions of the utility's gamma vector
(`CascadeUtility.gamma_vector`) with per-user seed probabilities q, which
are affine in each q_v: a marginal is the change in q_v times the slope
E[gamma | q_v = 1] - E[gamma | q_v = 0].
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from couponcascade.cascade import CascadeUtility, UtilityError
from couponcascade.instance import Instance


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


@dataclass
class FractionalSolution:
    """An n x m matrix of inclusion probabilities y_vd in [0, 1]."""

    y: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        if np.any(self.y < -1e-9) or np.any(self.y > 1 + 1e-9):
            raise AllocationError("fractional entries must lie in [0,1]")


def highest_coupon(pairs, v: int):
    """The highest coupon offered to v, or None.

    Accepts unvalidated multi-coupon pair sets; with strictly increasing
    coupon values the highest index carries the highest value.
    """
    best = None
    for user, d in pairs:
        if user == v and (best is None or d > best):
            best = d
    return best


def pairs_to_profile(pairs, n: int) -> tuple:
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


def _expected_gamma(gamma: np.ndarray, q: np.ndarray):
    """E[gamma(U)] when user v seeds independently with probability q[..., v - 1].

    gamma is indexed by user bitmask (bit v - 1 for user v); q may carry
    leading batch axes.  Folds out one user at a time, highest bit first.
    """
    g = gamma
    for v in reversed(range(q.shape[-1])):
        half = 1 << v
        qv = q[..., v, None]
        g = g[..., :half] * (1.0 - qv) + g[..., half:] * qv
    return g[..., 0]


def _slopes(gamma: np.ndarray, q: np.ndarray) -> np.ndarray:
    """E[gamma | q_v = 1] - E[gamma | q_v = 0] for every user v, shaped like q."""
    out = np.empty(q.shape)
    for v in range(q.shape[-1]):
        split = gamma.reshape(-1, 2, 1 << v)
        rise = (split[:, 1] - split[:, 0]).ravel()  # gamma(U + v) - gamma(U), U without v
        out[..., v] = _expected_gamma(rise, np.delete(q, v, axis=-1))
    return out


def _held_probs(inst: Instance, profiles: np.ndarray) -> np.ndarray:
    """q_v = p_v(highest coupon), 0 for none, for profiles of shape (..., n)."""
    return np.hstack([np.zeros((inst.n, 1)), inst.adoption])[np.arange(inst.n), profiles]


def f_exact(inst: Instance, util: CascadeUtility, S) -> float:
    """f(S) = sum over seed sets U of Pr(U;S) * gamma(U), exactly."""
    pairs = S.pairs if isinstance(S, Allocation) else S
    profile = np.array(pairs_to_profile(pairs, inst.n))
    return float(_expected_gamma(util.gamma_vector(), _held_probs(inst, profile)))


def f_mc(inst: Instance, util: CascadeUtility, S, samples: int,
         rng: np.random.Generator) -> float:
    """Unbiased estimate of f(S): sample seed sets by independent coins and
    read each one's gamma from the utility's vector."""
    if samples < 1:
        raise UtilityError("need at least one sample")
    pairs = S.pairs if isinstance(S, Allocation) else S
    prof = pairs_to_profile(pairs, inst.n)
    offered = [v for v in range(1, inst.n + 1) if prof[v - 1]]
    if not offered:
        return 0.0
    probs = np.array([inst.p(v, prof[v - 1]) for v in offered])
    coins = rng.random((samples, len(offered))) < probs
    masks = coins @ (1 << (np.array(offered) - 1))
    return float(util.gamma_vector()[masks].sum() / samples)


def cost_exact(inst: Instance, S) -> float:
    """Expected redemption cost: sum of p_v(d) * value(d) over offered pairs."""
    pairs = S.pairs if isinstance(S, Allocation) else S
    prof = pairs_to_profile(pairs, inst.n)
    return sum(
        inst.p(v, d) * inst.value_of(d)
        for v, d in enumerate(prof, start=1) if d
    )


def cost_brute_force(inst: Instance, S) -> float:
    """The double-sum definition of c(S): E over seed sets of the redeemed values.

    Independent oracle for cost_exact; enumerates all 2^n seed sets.
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


def _as_matrix(y, inst: Instance) -> np.ndarray:
    y = y.y if isinstance(y, FractionalSolution) else np.asarray(y, dtype=float)
    if y.shape != (inst.n, inst.m):
        raise AllocationError(f"expected a {inst.n}x{inst.m} matrix, got {y.shape}")
    return y


def _seed_probs(y: np.ndarray, p: np.ndarray):
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


def _draw_profiles(inst: Instance, y: np.ndarray, samples: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Highest coupon per user, shape (samples, n), over independent entry draws."""
    if samples < 1:
        raise UtilityError("need at least one sample")
    inclusion = rng.random((samples, inst.n, inst.m)) < y
    return (inclusion * np.arange(1, inst.m + 1)).max(axis=2)


def multilinear_F_exact(inst: Instance, util: CascadeUtility, y) -> float:
    """F(y): expectation of f over independent entry inclusion, exactly."""
    q, _ = _seed_probs(_as_matrix(y, inst), inst.adoption)
    return float(_expected_gamma(util.gamma_vector(), q))


def multilinear_F_mc(inst: Instance, util: CascadeUtility, y, samples: int,
                     rng: np.random.Generator) -> float:
    """Sampled F(y): average f over random pair sets with marginals y."""
    profiles = _draw_profiles(inst, _as_matrix(y, inst), samples, rng)
    return float(_expected_gamma(util.gamma_vector(), _held_probs(inst, profiles)).mean())


def marginal_omega(inst: Instance, util: CascadeUtility, y, samples: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Sampled marginals E[f(R + [vd])] - E[f(R)], common random numbers.

    The same R-draws serve all nm entries, which cancels most of the noise
    in the differences.  Adding [vd] to R moves only q_v, from p_v(R_v) to
    p_v(max(R_v, d)), so each difference is that gain times the draw's
    slope for v.  Negative estimates are clamped to zero so the ascent LP
    never chases sampling noise downhill.
    """
    profiles = _draw_profiles(inst, _as_matrix(y, inst), samples, rng)
    held = _held_probs(inst, profiles)
    lifted = _held_probs(inst, np.maximum(profiles[:, None, :], np.arange(1, inst.m + 1)[:, None]))
    slopes = _slopes(util.gamma_vector(), held)
    omega = np.einsum("sdv,sv->vd", lifted - held[:, None, :], slopes) / samples
    return np.maximum(omega, 0.0)


def marginal_omega_exact(inst: Instance, util: CascadeUtility, y) -> np.ndarray:
    """Exact marginals F(y with y_vd raised to 1) - F(y), clamped at zero."""
    q, gain = _seed_probs(_as_matrix(y, inst), inst.adoption)
    return np.maximum(gain * _slopes(util.gamma_vector(), q)[:, None], 0.0)
