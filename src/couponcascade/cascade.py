"""Seed-set utilities: live-edge cascade spread and perturbed set functions.

The utility gamma(U) is the expected number of influenced users when U is
the seed set.  It reads a table or, for Independent Cascade and Linear
Threshold, gets the spread of every seed set from one pass over live-edge
worlds: all of them for IC with few edges, otherwise a seeded sample.  A
deterministic multiplicative perturbation turns an exactly submodular
utility into one that is only approximately submodular, while keeping the
submodular reference around for certification.
"""

from __future__ import annotations

import hashlib

import numpy as np

from couponcascade.instance import Instance, lt_in_weights


class UtilityError(ValueError):
    pass


# Live-edge worlds per numpy pass; the pass's working arrays grow linearly
# with it.
_WORLD_CHUNK = 1024

# IC with at most this many edges enumerates its 2^E worlds; more edges, and
# LT, sample them.
EXACT_EDGE_LIMIT = 20


def _seed_set_count(n: int) -> int:
    """2^n, the length of a vector over all seed sets; n is capped at 15."""
    if n > 15:
        raise UtilityError("gamma vectors limited to n <= 15")
    return 1 << n


def _live_edge_spread(n: int, edges, worlds) -> np.ndarray:
    """Spread of every seed set over chunks (live, weight) of live-edge worlds:
    (E, k) 0/1 edge states of k worlds and their k weights, summing to 1.

    User v is reached unless its ancestor set A_v (itself and every user
    with a live path to it) misses U.  So with H[A] the expected number of
    users whose ancestor set is A, and G[S] the sum of H[A] over A within
    S, the spread of U is n - G[complement of U].
    """
    size = _seed_set_count(n)
    tails = [u - 1 for u, _, _ in edges]
    heads = [v - 1 for _, v, _ in edges]
    own = (1 << np.arange(n))[:, None]
    hist = np.zeros(size)
    for live, weight in worlds:
        gate = -live  # all ones where the edge is live, else 0
        anc = np.repeat(own, live.shape[1], axis=1)  # (n, k) ancestor bitmasks
        for _ in range(n):
            before = anc.copy()
            for i in range(len(edges)):
                anc[heads[i]] |= anc[tails[i]] & gate[i]
            if np.array_equal(anc, before):
                break
        hist += np.bincount(anc.ravel(), weights=np.tile(weight, n), minlength=size)
    for bit in range(n):  # subset-sum (zeta) transform
        view = hist.reshape(-1, 2, 1 << bit)
        view[:, 1] += view[:, 0]
    gamma = n - hist[::-1]
    gamma[0] = 0.0
    return gamma


def gamma_ic_exact(n: int, edges) -> np.ndarray:
    """Exact IC spread of every seed set, indexed by user bitmask (bit v-1 for user v).

    Every subset of edges is "live" with its product probability, and the
    spread of U is the expected number of users reachable from U over live
    edges (Kempe, Kleinberg and Tardos, KDD 2003).  All 2^E worlds are
    visited once, in chunks, whatever the number of seed sets.
    """
    edges = list(edges)
    n_edges = len(edges)
    if n_edges > EXACT_EDGE_LIMIT:
        raise UtilityError(
            f"exact IC enumeration limited to {EXACT_EDGE_LIMIT} edges, got {n_edges}"
        )
    weights = np.array([w for _, _, w in edges], dtype=float)[:, None]
    shifts = np.arange(n_edges)[:, None]
    chunk = min(_WORLD_CHUNK, 1 << n_edges)

    def worlds():
        for start in range(0, 1 << n_edges, chunk):
            live = (np.arange(start, start + chunk) >> shifts) & 1  # (E, chunk) edge bits
            yield live, np.where(live == 1, weights, 1.0 - weights).prod(axis=0)

    return _live_edge_spread(n, edges, worlds())


def gamma_sampled(n: int, edges, model: str, samples: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Spread of every seed set over `samples` random live-edge worlds of
    weight 1/samples each, indexed like `gamma_ic_exact`.

    IC: each edge is live with its weight.  LT: each user keeps at most one
    in-edge, (u, v) with probability w_uv, which spreads like random
    thresholds (Kempe, Kleinberg and Tardos, KDD 2003); one uniform per
    head picks the edge whose slice of its cumulative in-weights holds it.
    """
    if samples < 1:
        raise UtilityError("need at least one sample")
    edges = list(edges)
    weights = np.array([w for _, _, w in edges], dtype=float)[:, None]
    if model == "LT":
        validate_lt_weights(n, edges)
        heads = [v - 1 for _, v, _ in edges]
        low = np.zeros_like(weights)
        filled = np.zeros(n)
        for i, head in enumerate(heads):
            low[i] = filled[head]
            filled[head] += weights[i, 0]

    def worlds():
        for start in range(0, samples, _WORLD_CHUNK):
            k = min(_WORLD_CHUNK, samples - start)
            if model == "IC":
                live = rng.random((len(edges), k)) < weights
            else:
                draw = rng.random((n, k))[heads]
                live = (low <= draw) & (draw < low + weights)
            yield live.astype(np.int64), np.full(k, 1.0 / samples)

    return _live_edge_spread(n, edges, worlds())


def validate_lt_weights(n: int, edges) -> None:
    """Guard for callers that pass raw edges; `instance.validate` checks the same."""
    bad = np.flatnonzero(lt_in_weights(n, edges) > 1 + 1e-12)
    if bad.size:
        raise UtilityError(f"LT incoming weights of user {bad[0]} sum above 1")


def perturb_factor(seed: int, U, epsilon: float) -> float:
    """Deterministic pseudorandom factor in [1-eps, 1+eps], keyed by (seed, U).

    The empty set always maps to 1 so gamma(empty) stays 0.
    """
    U = frozenset(U)
    if not U or epsilon == 0:
        return 1.0
    key = f"{seed}|{','.join(str(u) for u in sorted(U))}".encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    unit = int.from_bytes(digest, "big") / 2**64
    return 1.0 + epsilon * (2.0 * unit - 1.0)


class CascadeUtility:
    """Evaluable seed-set utility gamma, optionally an eps-perturbation.

    When built as a perturbation of an exactly submodular base, the base is
    kept as reference_q so the (1-eps)q <= gamma <= (1+eps)q sandwich can be
    certified.  IC_mc and LT_mc average `mc_samples` live-edge worlds,
    drawn once per utility from a stream keyed by `perturb_seed`.
    """

    def __init__(self, kind, n, edges=(), table=None, epsilon=0.0, perturb_seed=0,
                 mc_samples=10_000):
        self.kind = kind
        self.n = n
        self.edges = tuple(edges)
        self.table = table
        self.epsilon = float(epsilon)
        self.perturb_seed = int(perturb_seed)
        self.mc_samples = mc_samples
        self._spread: np.ndarray | None = None
        self._gamma: np.ndarray | None = None
        if kind not in ("IC_exact", "IC_mc", "LT_mc", "TABLE"):
            raise UtilityError(f"unknown utility kind {kind!r}")

    @property
    def exact(self) -> bool:
        return self.kind in ("IC_exact", "TABLE")

    @property
    def reference_q(self):
        """The unperturbed submodular utility; this utility itself when eps is 0.

        The reference shares this utility's spread vector, which is the same
        unperturbed gamma, so the live-edge pass runs once for both.
        """
        if self.epsilon == 0:
            return self
        ref = CascadeUtility(
            self.kind, self.n, self.edges, self.table,
            epsilon=0.0, perturb_seed=self.perturb_seed, mc_samples=self.mc_samples,
        )
        if self.kind != "TABLE":
            ref._spread = self._spread_vector()
        return ref

    def _spread_vector(self) -> np.ndarray:
        """Unperturbed spread of all 2^n seed sets, from one live-edge pass."""
        if self._spread is None:
            if self.kind == "IC_exact":
                self._spread = gamma_ic_exact(self.n, self.edges)
            else:
                # SeedSequence takes nonnegative entropy; the spawn key keeps
                # this stream apart from default_rng(perturb_seed).
                seq = np.random.SeedSequence(self.perturb_seed % 2**64, spawn_key=(1,))
                self._spread = gamma_sampled(self.n, self.edges, self.kind[:2],
                                             self.mc_samples, np.random.default_rng(seq))
        return self._spread

    def base_value(self, U) -> float:
        """gamma before perturbation."""
        U = frozenset(U)
        if not U:
            return 0.0
        if self.kind == "TABLE":
            if U not in self.table:
                raise UtilityError(f"gamma table is missing subset {sorted(U)}")
            return float(self.table[U])
        return float(self._spread_vector()[sum(1 << (v - 1) for v in U)])

    def value(self, U) -> float:
        """gamma(U), the perturbed base value."""
        U = frozenset(U)
        if not U:
            return 0.0
        return perturb_factor(self.perturb_seed, U, self.epsilon) * self.base_value(U)

    def gamma_vector(self) -> np.ndarray:
        """gamma(U) of all 2^n seed sets, indexed by user bitmask (bit v-1 for user v).

        Built once per utility from value(); n <= 15 only.
        """
        if self._gamma is None:
            self._gamma = np.array([
                self.value(frozenset(v for v in range(1, self.n + 1) if mask >> (v - 1) & 1))
                for mask in range(_seed_set_count(self.n))
            ])
            self._gamma.setflags(write=False)
        return self._gamma


def make_utility(inst: Instance, mc_samples: int = 10_000) -> CascadeUtility:
    """Build the utility the instance describes, exact whenever possible."""
    if inst.model == "TABLE":
        kind, table = "TABLE", inst.gamma_table
    elif inst.model == "IC" and len(inst.edges) <= EXACT_EDGE_LIMIT:
        kind, table = "IC_exact", None
    elif inst.model == "IC":
        kind, table = "IC_mc", None
    else:
        kind, table = "LT_mc", None
    return CascadeUtility(
        kind, inst.n, inst.edges, table,
        epsilon=inst.epsilon, perturb_seed=inst.perturb_seed, mc_samples=mc_samples,
    )


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
