"""Problem instances: the datum for one coupon-allocation problem.

An instance bundles the user set, the coupon menu with its values, the
per-user adoption probabilities, the budgets, the propagation graph (or a
tabulated utility), and the perturbation parameters of the utility.  User
and coupon indices are 1-based throughout the public API; coupon index 0
is reserved for the "no coupon" dummy used during rounding.

Instances are immutable after construction and are (de)serialized to a
strict JSON format; unknown keys are rejected.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np


class InstanceFormatError(ValueError):
    """The on-disk representation is malformed (not our JSON grammar)."""


class InstanceValidationError(ValueError):
    """The parsed data violates an instance invariant."""


_ALLOWED_KEYS = {
    "n", "m", "coupon_values", "adoption", "dist_cost", "budget_B",
    "budget_K", "edges", "model", "gamma_table", "epsilon", "perturb_seed",
}

_MODELS = ("IC", "LT", "TABLE")


@dataclass(frozen=True, eq=False)
class Instance:
    """A validated coupon-allocation problem.

    Attributes:
        n: number of users (users are 1..n).
        m: number of coupon types (coupons are 1..m).
        coupon_values: strictly increasing positive values, one per coupon.
        adoption: (n, m) matrix, adoption[v-1, d-1] = p_v(d) in (0, 1].
        dist_cost: length-n distribution costs a_v >= 0 (all zero => base model).
        budget_B: expected-redemption budget, > 0.
        budget_K: hard distribution budget, > 0, or None for the base model.
        edges: directed weighted edges (u, v, w), 1-based, w in (0, 1].
        model: "IC", "LT" or "TABLE".
        gamma_table: for model "TABLE", map frozenset-of-users -> utility.
        epsilon: magnitude of the multiplicative utility perturbation, in [0, 1).
        perturb_seed: seed of the deterministic perturbation.
    """

    n: int
    m: int
    coupon_values: np.ndarray
    adoption: np.ndarray
    budget_B: float
    dist_cost: np.ndarray = None
    budget_K: float | None = None
    edges: tuple[tuple[int, int, float], ...] = ()
    model: str = "IC"
    gamma_table: dict[frozenset, float] | None = None
    epsilon: float = 0.0
    perturb_seed: int = 0

    def __post_init__(self):
        cv = np.asarray(self.coupon_values, dtype=float)
        ad = np.asarray(self.adoption, dtype=float)
        dc = self.dist_cost
        # Sized from adoption: a huge n must not allocate before validate() rejects it.
        dc = np.zeros(ad.shape[:1]) if dc is None else np.asarray(dc, dtype=float)
        for name, arr in (("coupon_values", cv), ("adoption", ad), ("dist_cost", dc)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "edges", tuple(
            (_whole(u, "edge endpoint"), _whole(v, "edge endpoint"), float(w)) for u, v, w in self.edges))
        object.__setattr__(self, "perturb_seed", _whole(self.perturb_seed, "perturb_seed"))
        validate(self)

    # numpy fields break the generated __eq__; compare the abstract value.
    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and np.array_equal(self.coupon_values, other.coupon_values)
            and np.array_equal(self.adoption, other.adoption)
            and np.array_equal(self.dist_cost, other.dist_cost)
            and self.budget_B == other.budget_B
            and self.budget_K == other.budget_K
            and self.edges == other.edges
            and self.model == other.model
            and self.gamma_table == other.gamma_table
            and self.epsilon == other.epsilon
            and self.perturb_seed == other.perturb_seed
        )

    def value_of(self, d: int) -> float:
        """Monetary value of coupon d (1-based)."""
        return float(self.coupon_values[d - 1])

    def p(self, v: int, d: int) -> float:
        """Adoption probability p_v(d) (both 1-based)."""
        return float(self.adoption[v - 1, d - 1])

    @property
    def redemption_weights(self) -> np.ndarray:
        """(n, m) matrix of expected redemption cost p_v(d) * value(d)."""
        return self.adoption * self.coupon_values[None, :]

    def digest(self) -> str:
        """Stable content hash of the instance."""
        payload = json.dumps(_to_jsonable(self), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


def validate(inst: Instance) -> None:
    """Raise InstanceValidationError on the first violated invariant."""
    if inst.n < 1 or inst.m < 1:
        raise InstanceValidationError("need at least one user and one coupon type")
    if inst.model not in _MODELS:
        raise InstanceValidationError(f"unknown propagation model {inst.model!r}")
    for name in ("coupon_values", "adoption", "dist_cost"):
        if not np.all(np.isfinite(getattr(inst, name))):
            raise InstanceValidationError(f"{name} must be finite")
    if inst.coupon_values.shape != (inst.m,):
        raise InstanceValidationError("coupon_values must have length m")
    if np.any(inst.coupon_values <= 0):
        raise InstanceValidationError("coupon values must be strictly positive")
    if np.any(np.diff(inst.coupon_values) <= 0):
        raise InstanceValidationError("coupon values must be strictly increasing")
    if inst.adoption.shape != (inst.n, inst.m):
        raise InstanceValidationError("adoption matrix must be n x m")
    if np.any(inst.adoption <= 0) or np.any(inst.adoption > 1):
        raise InstanceValidationError("adoption probability out of (0,1]")
    if inst.dist_cost.shape != (inst.n,):
        raise InstanceValidationError("dist_cost must have length n")
    if np.any(inst.dist_cost < 0):
        raise InstanceValidationError("distribution costs must be nonnegative")
    if not (math.isfinite(inst.budget_B) and inst.budget_B > 0):
        raise InstanceValidationError("budget_B must be finite and positive")
    if inst.budget_K is not None:
        if not (math.isfinite(inst.budget_K) and inst.budget_K > 0):
            raise InstanceValidationError("budget_K must be finite and positive")
        bad = np.nonzero(inst.dist_cost > inst.budget_K)[0]
        if bad.size:
            raise InstanceValidationError(
                f"user never allocatable: dist_cost of user {bad[0] + 1} exceeds budget_K"
            )
    for u, v, w in inst.edges:
        if not (1 <= u <= inst.n and 1 <= v <= inst.n):
            raise InstanceValidationError(f"edge ({u},{v}) references an unknown user")
        if u == v:
            raise InstanceValidationError(f"self-loop on user {u}")
        if not (0 < w <= 1):
            raise InstanceValidationError(f"edge weight {w} out of (0,1]")
    if inst.model == "LT":
        heavy = np.flatnonzero(lt_in_weights(inst.n, inst.edges) > 1 + 1e-12)
        if heavy.size:
            raise InstanceValidationError(f"LT incoming weights of user {heavy[0]} sum above 1")
    if inst.model == "TABLE":
        if inst.gamma_table is None:
            raise InstanceValidationError("model TABLE requires gamma_table")
        for key, val in inst.gamma_table.items():
            if not all(1 <= u <= inst.n for u in key):
                raise InstanceValidationError("gamma_table key references an unknown user")
            if not math.isfinite(val) or val < 0:
                raise InstanceValidationError("gamma_table values must be finite and nonnegative")
        if len(inst.gamma_table) != 1 << inst.n:
            raise InstanceValidationError(f"gamma_table must list all 2^{inst.n} subsets")
    elif inst.gamma_table is not None:
        raise InstanceValidationError("gamma_table only allowed with model TABLE")
    if not 0 <= inst.epsilon < 1:
        raise InstanceValidationError("epsilon must lie in [0, 1)")


def _to_jsonable(inst: Instance) -> dict:
    doc = {
        "n": inst.n,
        "m": inst.m,
        "coupon_values": [float(x) for x in inst.coupon_values],
        "adoption": [[float(x) for x in row] for row in inst.adoption],
        "dist_cost": [float(x) for x in inst.dist_cost],
        "budget_B": float(inst.budget_B),
        "model": inst.model,
        "epsilon": float(inst.epsilon),
        "perturb_seed": int(inst.perturb_seed),
    }
    if inst.budget_K is not None:
        doc["budget_K"] = float(inst.budget_K)
    if inst.edges:
        doc["edges"] = [[u, v, w] for u, v, w in inst.edges]
    if inst.gamma_table is not None:
        doc["gamma_table"] = {
            ",".join(str(u) for u in sorted(key)): float(val)
            for key, val in inst.gamma_table.items()
        }
    return doc


def _parse_table_key(key: str) -> frozenset:
    if key == "":
        return frozenset()
    try:
        return frozenset(int(part) for part in key.split(","))
    except ValueError as exc:
        raise InstanceFormatError(f"bad gamma_table key {key!r}") from exc


def _whole(value, name: str) -> int:
    """An integer field: an integer, or a float with no fractional part."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InstanceValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _integer(value, name: str) -> int:
    """An integer field of the JSON form; anything else is malformed data."""
    try:
        return _whole(value, name)
    except InstanceValidationError as exc:
        raise InstanceFormatError(f"malformed instance data: {exc}") from None


def from_dict(doc: dict) -> Instance:
    """Build a validated Instance from the JSON object form."""
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance file must contain a JSON object")
    unknown = set(doc) - _ALLOWED_KEYS
    if unknown:
        raise InstanceFormatError(f"unknown keys: {sorted(unknown)}")
    for key in ("n", "m", "coupon_values", "adoption", "budget_B"):
        if key not in doc:
            raise InstanceFormatError(f"missing required key {key!r}")
    table = doc.get("gamma_table")
    if table is not None and not isinstance(table, dict):
        raise InstanceFormatError("gamma_table must be an object")
    try:
        if table is not None:
            table = {_parse_table_key(k): float(v) for k, v in table.items()}
        return Instance(
            n=_integer(doc["n"], "n"),
            m=_integer(doc["m"], "m"),
            coupon_values=doc["coupon_values"],
            adoption=doc["adoption"],
            dist_cost=doc.get("dist_cost"),
            budget_B=float(doc["budget_B"]),
            budget_K=None if doc.get("budget_K") is None else float(doc["budget_K"]),
            edges=tuple((_integer(u, "edge endpoint"), _integer(v, "edge endpoint"), float(w))
                        for u, v, w in doc.get("edges", [])),
            model=doc.get("model", "IC"),
            gamma_table=table,
            epsilon=float(doc.get("epsilon", 0.0)),
            perturb_seed=_integer(doc.get("perturb_seed", 0), "perturb_seed"),
        )
    except (InstanceFormatError, InstanceValidationError):
        raise
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        raise InstanceFormatError(f"malformed instance data: {exc}") from exc


def load_instance(path) -> Instance:
    """Load and validate an instance from a JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from exc
    return from_dict(doc)


def save_instance(inst: Instance, path) -> None:
    """Write an instance as JSON; load_instance(path) reproduces it exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_to_jsonable(inst), fh, indent=2)
        fh.write("\n")


def generate_random(
    n: int,
    m: int,
    edge_density: float = 0.3,
    model: str = "IC",
    epsilon: float = 0.0,
    seed: int = 0,
    extension: bool = False,
) -> Instance:
    """Generate a random desk-scale instance, deterministically from the seed.

    With extension=True, draws distribution costs and a hard budget K so the
    instance exercises the distribution-cost model.
    """
    if n < 1 or m < 1:
        raise InstanceValidationError("need at least one user and one coupon type")
    if not 0 <= edge_density <= 1:
        raise InstanceValidationError("edge_density must be in [0,1]")
    rng = np.random.default_rng(seed)
    coupon_values = np.round(np.cumsum(rng.uniform(0.3, 1.2, size=m)), 6)
    adoption = np.round(rng.uniform(0.15, 0.95, size=(n, m)), 6)

    edges: list[tuple[int, int, float]] = []
    gamma_table = None
    if model == "TABLE":
        gamma_table = _random_coverage_table(n, rng)
    else:
        for u in range(1, n + 1):
            for v in range(1, n + 1):
                if u != v and rng.random() < edge_density:
                    edges.append((u, v, float(np.round(rng.uniform(0.1, 0.9), 6))))
        if model == "LT":
            edges = _rescale_lt_weights(n, edges)

    # Budget at a fraction of the cost of giving everyone the top coupon,
    # so the knapsack is active but not strangling.
    full_cost = float(np.sum(adoption[:, -1]) * coupon_values[-1])
    budget_B = float(np.round(rng.uniform(0.35, 0.75) * full_cost, 6))

    dist_cost = None
    budget_K = None
    if extension:
        dist_cost = np.round(rng.uniform(0.5, 2.0, size=n), 6)
        # A share of the total, but never below one user's cost: a smaller K
        # would leave that user unallocatable, which validate() rejects.
        budget_K = float(np.round(rng.uniform(0.6, 0.95) * float(np.sum(dist_cost)), 6))
        budget_K = max(budget_K, float(dist_cost.max()))

    return Instance(
        n=n,
        m=m,
        coupon_values=coupon_values,
        adoption=adoption,
        dist_cost=dist_cost,
        budget_B=budget_B,
        budget_K=budget_K,
        edges=tuple(edges),
        model=model,
        gamma_table=gamma_table,
        epsilon=float(epsilon),
        perturb_seed=int(seed),
    )


def _random_coverage_table(n: int, rng: np.random.Generator) -> dict[frozenset, float]:
    """Complete table of a random coverage function (monotone submodular)."""
    if n > 12:
        raise InstanceValidationError("tabulated utilities limited to n <= 12")
    universe = 2 * n
    covers = [
        frozenset(rng.choice(universe, size=rng.integers(1, n + 2), replace=False).tolist())
        for _ in range(n)
    ]
    table = {}
    for mask in range(1 << n):
        users = frozenset(v + 1 for v in range(n) if mask >> v & 1)
        covered = frozenset().union(*(covers[v - 1] for v in users)) if users else frozenset()
        table[users] = float(len(covered))
    return table


def lt_in_weights(n: int, edges) -> np.ndarray:
    """Sum of incoming edge weights per user, indexed 1..n (index 0 unused)."""
    heads = [v for _, v, _ in edges]
    return np.bincount(heads, weights=[w for _, _, w in edges], minlength=n + 1)


def _rescale_lt_weights(n: int, edges: list) -> list:
    """Scale incoming weights so each node's in-weight sum stays <= 1."""
    in_sum = lt_in_weights(n, edges)
    scale = {v: 0.99 / in_sum[v] for v in range(1, n + 1) if in_sum[v] > 1}
    return [
        (u, v, float(np.round(w * scale.get(v, 1.0), 6)))
        for u, v, w in edges
    ]
