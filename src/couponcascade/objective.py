"""The cascade objective: f, expected costs and two extensions of f.

An allocation is a coupon profile: an n-vector holding each user's coupon,
0 for none.  Each offered user v independently accepts, with probability
p_v(d_v), and becomes a seed.  f(S) is the expected cascade over the random
seed set, c(S) its expected redemption cost.  f and c take a batch of
profiles as the rows of a (k, n) array.  Both extensions below are
contractions of the utility's gamma vector (`CascadeUtility.gamma_vector`)
with per-user seed probabilities, and affine in each of them: a change in
user v's seed probability moves E[gamma] by that change times the slope
E[gamma | v seeds] - E[gamma | v does not].

F(y), the paper's multilinear extension over fractional user-coupon
matrices, draws the entries y_vd independently, so a draw may offer a user
several coupons.  Coupon values are strictly increasing, so only the
highest one counts, and user v seeds with probability q_v(y) = sum_d y_vd
prod_{k>d} (1 - y_vk) p_v(d).

G(y) is what the rounding realises: per-user categorical rounding offers
user v coupon d with probability y_vd, so v seeds with probability
q^_v(y) = sum_d y_vd p_v(d), and in base mode E[f(rounded y)] = G(y) =
E[gamma](q^(y)).  G equals f at every integral allocation, and q^ is linear
with nonnegative coefficients, so G is monotone and DR-submodular on the
ascent polytope when gamma is monotone submodular.  Its gradient is
dG/dy_vd = p_v(d) * slope_v(q^).  This departs from the paper, whose ascent
steps along the marginals F(y with y_vd raised to 1) - F(y): the exact
ascent climbs G by its gradient instead, which is the Frank-Wolfe
continuous greedy for monotone DR-submodular functions (Bian,
Mirzasoleiman, Buhmann and Krause, AISTATS 2017).  The sampled marginals
keep the paper's.

E[gamma] folds the users out of the vector one at a time, highest bit
first.  All n slopes come from that fold and one pass back, as in
reverse-mode differentiation: the fold keeps the difference between the
halves of each level, and the pass back carries the seed-set distribution
of the users below v and dots it with level v's difference.  That is
O(2^n) work for all n slopes, against O(n 2^n) for a fold per user.  The
fold ends at E[gamma] itself, so the exact gradient returns G(y), and the
sampled marginals F(y) over their draws, at no extra cost.  The exact
gradient takes a (J, n, m) stack of points, as the ascent's windows pass
them, and folds them as one batch.  Every value here is linear in gamma,
so it carries gamma's unit.
"""

from __future__ import annotations

import numpy as np

from couponcascade.cascade import CascadeUtility, UtilityError
from couponcascade.instance import Instance

# Largest block of a fold of the gamma vector at once, in entries: rows of
# 2^n gamma values, as many rows of seed probabilities as fit.
BLOCK_ENTRIES = 1 << 20


class FractionalError(ValueError):
    pass


def _expected_gamma(gamma: np.ndarray, q: np.ndarray):
    """E[gamma(U)] when user v seeds independently with probability q[..., v - 1],
    shaped like q without its last axis.

    gamma is indexed by user bitmask (bit v - 1 for user v); q is one
    n-vector or a (k, n) batch, taken BLOCK_ENTRIES >> n rows at a time.
    Folds out one user at a time, highest bit first.
    """
    n = q.shape[-1]
    rows = q.reshape(-1, n)
    out = np.empty(len(rows))
    step = max(1, BLOCK_ENTRIES >> n)
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        g = gamma[None]
        for v in reversed(range(n)):
            half = 1 << v
            qv = block[:, v, None]
            g = g[:, :half] * (1.0 - qv) + g[:, half:] * qv
        out[start:start + step] = g[:, 0]
    return out.reshape(q.shape[:-1])


def _slopes(gamma: np.ndarray, q: np.ndarray):
    """E[gamma | q_v = 1] - E[gamma | q_v = 0] for every user v, shaped like q,
    and E[gamma], shaped like q without its last axis.

    q is one n-vector or a (k, n) batch, taken BLOCK_ENTRIES >> n rows at a
    time, each by the fold and pass back of the module docstring: O(2^n)
    work per row, and a row's results do not depend on its block.  E[gamma]
    is where the fold ends.
    """
    n = q.shape[-1]
    rows = q.reshape(-1, n)
    out = np.empty(rows.shape)
    expected = np.empty(len(rows))
    step = max(1, BLOCK_ENTRIES >> n)
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        coins = np.empty((len(block), 2, n, 1))  # coins[:, 1, v] = q_v, coins[:, 0, v] = 1 - q_v
        coins[:, 1, :, 0] = block
        coins[:, 0, :, 0] = 1.0 - block
        g = gamma[None]
        rises = []
        for v in reversed(range(n)):
            half = 1 << v
            rise = g[:, half:] - g[:, :half]
            rises.append(rise)
            g = g[:, :half] + rise * coins[:, 1, v]
        expected[start:start + step] = g[:, 0]
        below = np.ones((len(block), 1))  # Pr[each seed set among the users below v]
        for v, rise in enumerate(reversed(rises)):
            if v:
                below = (coins[:, :, v - 1] * below[:, None]).reshape(len(block), -1)
            # a plain row sum: einsum's sum of a long row changes with the row count
            out[start:start + step, v] = (below * rise).sum(axis=1)
    return out.reshape(q.shape), expected.reshape(q.shape[:-1])


def _held_probs(inst: Instance, profiles: np.ndarray) -> np.ndarray:
    """q_v = p_v(coupon), 0 for none, for profiles of shape (..., n)."""
    return np.hstack([np.zeros((inst.n, 1)), inst.adoption])[np.arange(inst.n), profiles]


def f_exact(inst: Instance, util: CascadeUtility, profiles) -> np.ndarray:
    """f(S) for every coupon profile S, a row of the (k, n) array `profiles`:
    the gamma vector folded with the profile's seed probabilities."""
    return _expected_gamma(util.gamma_vector(), _held_probs(inst, np.asarray(profiles, dtype=int)))


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
    array `profiles`: p_v(d) * value(d) summed over the offered users.  A
    sum past the float range is inf, without a warning."""
    pay = np.hstack([np.zeros((inst.n, 1)), inst.redemption_weights])
    with np.errstate(over="ignore"):
        return pay[np.arange(inst.n), np.asarray(profiles, dtype=int)].sum(axis=1)


def _as_matrix(y, inst: Instance, stacked: bool = False) -> np.ndarray:
    """y as an (n, m) float matrix; with `stacked`, a (J, n, m) stack of them."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 + stacked or y.shape[-2:] != (inst.n, inst.m):
        what = "stack of" if stacked else "a"
        raise FractionalError(f"expected {what} {inst.n}x{inst.m} matrix, got {y.shape}")
    return y


def _seed_probs(y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """q_v(y), the seed probability under F's independent entry draws.

    Coupon d is v's highest with probability y_vd * prod_{k>d} (1 - y_vk),
    and q_v sums that weighed by p_v(d).
    """
    none_above = np.ones_like(y)
    none_above[:, :-1] = np.cumprod((1.0 - y)[:, :0:-1], axis=1)[:, ::-1]
    return (p * y * none_above).sum(axis=1)


def _rounded_probs(y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """q^_v(y) = sum_d y_vd p_v(d), the seed probability under per-user
    categorical rounding; y may be a stack of matrices."""
    return (y * p).sum(axis=-1)


def _draw_profiles(inst: Instance, y: np.ndarray, samples: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Highest coupon per user, shape (samples, n), over independent entry draws."""
    if samples < 1:
        raise UtilityError("need at least one sample")
    inclusion = rng.random((samples, inst.n, inst.m)) < y
    return (inclusion * np.arange(1, inst.m + 1)).max(axis=2)


def multilinear_F_exact(inst: Instance, util: CascadeUtility, y) -> float:
    """F(y): expectation of f over independent entry inclusion, exactly."""
    q = _seed_probs(_as_matrix(y, inst), inst.adoption)
    return float(_expected_gamma(util.gamma_vector(), q))


def rounding_G_exact(inst: Instance, util: CascadeUtility, y) -> float:
    """G(y): expectation of f over per-user categorical rounding, exactly."""
    q = _rounded_probs(_as_matrix(y, inst), inst.adoption)
    return float(_expected_gamma(util.gamma_vector(), q))


def multilinear_F_mc(inst: Instance, util: CascadeUtility, y, samples: int,
                     rng: np.random.Generator) -> float:
    """Sampled F(y): average f over random pair sets with marginals y."""
    profiles = _draw_profiles(inst, _as_matrix(y, inst), samples, rng)
    return float(_expected_gamma(util.gamma_vector(), _held_probs(inst, profiles)).mean())


def marginal_omega(inst: Instance, util: CascadeUtility, y, samples: int,
                   rng: np.random.Generator):
    """Sampled marginals E[f(R + [vd])] - E[f(R)], common random numbers,
    and F(y) as the mean f over the same draws, where their folds end.

    The same R-draws serve all nm entries, which cancels most of the noise
    in the differences.  Adding [vd] to R moves only q_v, and only in draws
    whose coupon r for v lies below d, from p_v(r) to p_v(d); so each
    difference is that gain times the draw's slope for v.  With W_vr the
    slopes summed over the draws holding r for v, omega_vd = sum_{r<d}
    W_vr (p_v(d) - p_v(r)) / samples.  Negative estimates are clamped to
    zero so the ascent LP never chases sampling noise downhill.
    """
    n, m = inst.n, inst.m
    profiles = _draw_profiles(inst, _as_matrix(y, inst), samples, rng)
    slopes, f_draws = _slopes(util.gamma_vector(), _held_probs(inst, profiles))
    keys = np.arange(n) * (m + 1) + profiles  # (v, the coupon r the draw holds for v)
    held = np.bincount(keys.ravel(), weights=slopes.ravel(), minlength=n * (m + 1))
    held = held.reshape(n, m + 1)  # W_vr
    p_held = np.hstack([np.zeros((n, 1)), inst.adoption])  # p_v(r), 0 for none
    below = np.cumsum(held, axis=1)[:, :m]  # sum_{r<d} W_vr
    below_paid = np.cumsum(held * p_held, axis=1)[:, :m]  # sum_{r<d} W_vr p_v(r)
    omega = (inst.adoption * below - below_paid) / samples
    return np.maximum(omega, 0.0), float(f_draws.mean())


def marginal_omega_exact(inst: Instance, util: CascadeUtility, y):
    """The gradient of G, p_v(d) * slope_v(q^(y)), clamped at zero, and
    G(y), both from one fold.

    The paper's ascent takes the marginals F(y with y_vd raised to 1) - F(y)
    here; the exact ascent climbs G instead (module docstring).  A slope is
    negative only where gamma is not monotone, as an eps-perturbed gamma
    may be; clamping keeps the ascent LP's weights nonnegative.  y is a
    (J, n, m) stack of points; the gradients come as a stack and G as a
    J-vector, from one batched fold.
    """
    y = _as_matrix(y, inst, stacked=True)
    slopes, G = _slopes(util.gamma_vector(), _rounded_probs(y, inst.adoption))
    return np.maximum(inst.adoption * slopes[..., None], 0.0), G
