"""Seed-set utilities: cascade simulation and perturbed set functions.

The utility gamma(U) is the expected number of influenced users when U is
the seed set.  Exact evaluation enumerates live-edge worlds (Independent
Cascade) or reads a table; Monte-Carlo evaluation simulates IC or Linear
Threshold cascades.  A deterministic multiplicative perturbation turns an
exactly submodular utility into one that is only approximately submodular,
while keeping the submodular reference around for certification.
"""

from __future__ import annotations

import hashlib
from itertools import combinations

import numpy as np

from couponcascade.instance import Instance


class UtilityError(ValueError):
    pass


def _reachable(n: int, adj: dict[int, list[int]], seeds: frozenset) -> int:
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        u = stack.pop()
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen)


def gamma_ic_exact(n: int, edges, U, edge_limit: int = 20) -> float:
    """Exact IC spread of seed set U by enumerating live-edge worlds.

    Every subset of edges is "live" with its product probability; the spread
    is the expected number of nodes reachable from U over live edges.
    """
    U = frozenset(U)
    if not U:
        return 0.0
    edges = list(edges)
    if len(edges) > edge_limit:
        raise UtilityError(
            f"exact IC enumeration limited to {edge_limit} edges, got {len(edges)}"
        )
    total = 0.0
    for mask in range(1 << len(edges)):
        prob = 1.0
        adj: dict[int, list[int]] = {}
        for i, (u, v, w) in enumerate(edges):
            if mask >> i & 1:
                prob *= w
                adj.setdefault(u, []).append(v)
            else:
                prob *= 1.0 - w
        total += prob * _reachable(n, adj, U)
    return total


def simulate_ic(n: int, edges, U, rng: np.random.Generator) -> int:
    """One IC cascade: each edge fires once when its tail activates."""
    active = set(U)
    frontier = list(U)
    out: dict[int, list[tuple[int, float]]] = {}
    for u, v, w in edges:
        out.setdefault(u, []).append((v, w))
    while frontier:
        nxt = []
        for u in frontier:
            for v, w in out.get(u, ()):
                if v not in active and rng.random() < w:
                    active.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(active)


def simulate_lt(n: int, edges, U, rng: np.random.Generator) -> int:
    """One LT cascade: node activates when incoming active weight >= threshold."""
    thresholds = rng.random(n + 1)
    incoming: dict[int, list[tuple[int, float]]] = {}
    for u, v, w in edges:
        incoming.setdefault(v, []).append((u, w))
    active = set(U)
    changed = True
    while changed:
        changed = False
        for v in range(1, n + 1):
            if v in active:
                continue
            weight = sum(w for u, w in incoming.get(v, ()) if u in active)
            if weight >= thresholds[v]:
                active.add(v)
                changed = True
    return len(active)


def validate_lt_weights(n: int, edges) -> None:
    in_sum = np.zeros(n + 1)
    for _, v, w in edges:
        in_sum[v] += w
    bad = np.nonzero(in_sum > 1 + 1e-12)[0]
    if bad.size:
        raise UtilityError(f"LT incoming weights of user {bad[0]} sum above 1")


def gamma_mc(n, edges, U, model: str, samples: int, rng: np.random.Generator) -> float:
    """Monte-Carlo spread estimate; unbiased mean over cascade simulations."""
    if samples < 1:
        raise UtilityError("need at least one sample")
    U = frozenset(U)
    if not U:
        return 0.0
    if model == "LT":
        validate_lt_weights(n, edges)
        sim = simulate_lt
    elif model == "IC":
        sim = simulate_ic
    else:
        raise UtilityError(f"unknown cascade model {model!r}")
    return sum(sim(n, edges, U, rng) for _ in range(samples)) / samples


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
    certified.
    """

    def __init__(self, kind, n, edges=(), table=None, epsilon=0.0, perturb_seed=0,
                 mc_samples=10_000, exact_edge_limit=20):
        self.kind = kind
        self.n = n
        self.edges = tuple(edges)
        self.table = table
        self.epsilon = float(epsilon)
        self.perturb_seed = int(perturb_seed)
        self.mc_samples = mc_samples
        self.exact_edge_limit = exact_edge_limit
        self._cache: dict[frozenset, float] = {}
        self._gamma: np.ndarray | None = None
        if kind == "LT_mc":
            validate_lt_weights(n, edges)
        if kind not in ("IC_exact", "IC_mc", "LT_mc", "TABLE"):
            raise UtilityError(f"unknown utility kind {kind!r}")

    @property
    def exact(self) -> bool:
        return self.kind in ("IC_exact", "TABLE")

    @property
    def reference_q(self):
        """The unperturbed submodular utility; this utility itself when eps is 0."""
        if self.epsilon == 0:
            return self
        return CascadeUtility(
            self.kind, self.n, self.edges, self.table,
            epsilon=0.0, perturb_seed=self.perturb_seed,
            mc_samples=self.mc_samples, exact_edge_limit=self.exact_edge_limit,
        )

    def base_value(self, U) -> float:
        """gamma before perturbation."""
        U = frozenset(U)
        if not U:
            return 0.0
        if U in self._cache:
            return self._cache[U]
        if self.kind == "IC_exact":
            val = gamma_ic_exact(self.n, self.edges, U, self.exact_edge_limit)
        elif self.kind == "TABLE":
            if U not in self.table:
                raise UtilityError(f"gamma table is missing subset {sorted(U)}")
            val = float(self.table[U])
        else:
            raise UtilityError("Monte-Carlo utility needs an rng; use value(U, rng)")
        self._cache[U] = val
        return val

    def value(self, U, rng: np.random.Generator | None = None) -> float:
        """gamma(U); Monte-Carlo kinds need an explicit seeded stream."""
        U = frozenset(U)
        if not U:
            return 0.0
        factor = perturb_factor(self.perturb_seed, U, self.epsilon)
        if self.exact:
            return factor * self.base_value(U)
        if rng is None:
            raise UtilityError("Monte-Carlo utility evaluation needs an rng")
        est = gamma_mc(self.n, self.edges, U, self.kind.split("_")[0], self.mc_samples, rng)
        return factor * est

    def gamma_vector(self) -> np.ndarray:
        """gamma(U) of all 2^n seed sets, indexed by user bitmask (bit v-1 for user v).

        Built once per utility from value(); exact kinds with n <= 15 only.
        """
        if not self.exact:
            raise UtilityError("the gamma vector needs an exactly evaluable utility")
        if self.n > 15:
            raise UtilityError("exact evaluation limited to n <= 15")
        if self._gamma is None:
            self._gamma = np.array([
                self.value(frozenset(v for v in range(1, self.n + 1) if mask >> (v - 1) & 1))
                for mask in range(1 << self.n)
            ])
            self._gamma.setflags(write=False)
        return self._gamma


def make_utility(inst: Instance, mc_samples: int = 10_000, exact_edge_limit: int = 20) -> CascadeUtility:
    """Build the utility the instance describes, exact whenever possible."""
    if inst.model == "TABLE":
        kind, table = "TABLE", inst.gamma_table
    elif inst.model == "IC" and len(inst.edges) <= exact_edge_limit:
        kind, table = "IC_exact", None
    elif inst.model == "IC":
        kind, table = "IC_mc", None
    else:
        kind, table = "LT_mc", None
    return CascadeUtility(
        kind, inst.n, inst.edges, table,
        epsilon=inst.epsilon, perturb_seed=inst.perturb_seed,
        mc_samples=mc_samples, exact_edge_limit=exact_edge_limit,
    )


def make_eps_perturbed(base: CascadeUtility, epsilon: float, perturb_seed: int) -> CascadeUtility:
    """Wrap an exactly submodular utility in a deterministic eps-band."""
    if base.epsilon != 0:
        raise UtilityError("base utility must be unperturbed")
    if epsilon < 0:
        raise UtilityError("epsilon must be nonnegative")
    return CascadeUtility(
        base.kind, base.n, base.edges, base.table,
        epsilon=epsilon, perturb_seed=perturb_seed,
        mc_samples=base.mc_samples, exact_edge_limit=base.exact_edge_limit,
    )


def check_submodular_monotone(table: dict[frozenset, float], n: int):
    """Exhaustively check a tabulated set function on {1..n}.

    Returns None when the table is monotone and submodular, else a witness:
    ("monotone", X, x) when h(X+x) < h(X), or ("submodular", X, Y, x) when
    the diminishing-returns inequality fails for X subset of Y.
    """
    if n > 12:
        raise UtilityError("exhaustive check limited to n <= 12")
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
