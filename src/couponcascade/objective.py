"""The cascade objective: f, expected costs and the multilinear extension.

An allocation is a coupon profile: an n-vector holding each user's coupon,
0 for none.  Each offered user v independently accepts, with probability
p_v(d_v), and becomes a seed.  f(S) is the expected cascade over the random
seed set, c(S) its expected redemption cost, and F(y) the multilinear
extension of f over fractional user-coupon matrices.  f and c take a batch
of profiles as the rows of a (k, n) array.

F draws the entries y_vd independently, so a draw may offer a user several
coupons.  Coupon values are strictly increasing, so only the highest one
counts, and user v seeds with probability q_v(y) = sum_d y_vd prod_{k>d}
(1 - y_vk) p_v(d).  f, F and their marginals are therefore contractions of
the utility's gamma vector (`CascadeUtility.gamma_vector`) with per-user
seed probabilities q, which are affine in each q_v: a marginal is the
change in q_v times the slope E[gamma | q_v = 1] - E[gamma | q_v = 0].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from couponcascade.cascade import CascadeUtility, UtilityError
from couponcascade.instance import Instance

# Largest block of the fold f_exact makes at once, in entries: rows of 2^n
# gamma values, as many profiles as fit.
BLOCK_ENTRIES = 1 << 20


class FractionalError(ValueError):
    pass


@dataclass
class FractionalSolution:
    """An n x m matrix of inclusion probabilities y_vd in [0, 1]."""

    y: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        if np.any(self.y < -1e-9) or np.any(self.y > 1 + 1e-9):
            raise FractionalError("fractional entries must lie in [0,1]")


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
    """q_v = p_v(coupon), 0 for none, for profiles of shape (..., n)."""
    return np.hstack([np.zeros((inst.n, 1)), inst.adoption])[np.arange(inst.n), profiles]


def f_exact(inst: Instance, util: CascadeUtility, profiles) -> np.ndarray:
    """f(S) for every coupon profile S, a row of the (k, n) array `profiles`.

    Each f is the gamma vector folded with the profile's seed
    probabilities, BLOCK_ENTRIES at a time.
    """
    gamma = util.gamma_vector()
    held = _held_probs(inst, np.asarray(profiles, dtype=int))
    rows = max(1, BLOCK_ENTRIES >> inst.n)
    out = np.empty(len(held))
    for start in range(0, len(held), rows):
        out[start:start + rows] = _expected_gamma(gamma, held[start:start + rows])
    return out


def f_mc(inst: Instance, util: CascadeUtility, profile, samples: int,
         rng: np.random.Generator) -> float:
    """Unbiased estimate of f for one coupon profile: sample seed sets by
    independent coins and read each one's gamma from the utility's vector."""
    if samples < 1:
        raise UtilityError("need at least one sample")
    profile = np.asarray(profile, dtype=int)
    offered = np.flatnonzero(profile)
    if not len(offered):
        return 0.0
    probs = inst.adoption[offered, profile[offered] - 1]
    coins = rng.random((samples, len(offered))) < probs
    masks = coins @ (1 << offered)
    return float(util.gamma_vector()[masks].sum() / samples)


def cost_exact(inst: Instance, profiles) -> np.ndarray:
    """Expected redemption cost of each coupon profile, a row of the (k, n)
    array `profiles`: p_v(d) * value(d) summed over the offered users."""
    pay = np.hstack([np.zeros((inst.n, 1)), inst.redemption_weights])
    return pay[np.arange(inst.n), np.asarray(profiles, dtype=int)].sum(axis=1)


def _as_matrix(y, inst: Instance) -> np.ndarray:
    y = y.y if isinstance(y, FractionalSolution) else np.asarray(y, dtype=float)
    if y.shape != (inst.n, inst.m):
        raise FractionalError(f"expected a {inst.n}x{inst.m} matrix, got {y.shape}")
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
