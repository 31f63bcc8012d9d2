from itertools import product

import numpy as np
import pytest

from couponcascade import cascade
from couponcascade.cascade import (
    CascadeUtility,
    UtilityError,
    gamma_ic_exact,
    gamma_sampled,
    make_utility,
    perturb_factor,
)
from couponcascade.oracle import check_submodular_monotone
from conftest import ic_instance, modular_table
from reference import check_submodular_monotone as reference_check
from reference import make_eps_perturbed


def all_subsets(n):
    for mask in range(1 << n):
        yield frozenset(v + 1 for v in range(n) if mask >> v & 1)


def _reachable(adj: dict[int, list[int]], seeds: frozenset) -> int:
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        u = stack.pop()
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen)


def reference_ic_spread(edges, U) -> float:
    """Exact IC spread of one seed set, by a DFS in every live-edge world."""
    U = frozenset(U)
    if not U:
        return 0.0
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
        total += prob * _reachable(adj, U)
    return total


def spread(n, edges, users):
    return gamma_ic_exact(n, edges)[sum(1 << (v - 1) for v in users)]


def random_ic_graph(seed):
    """n <= 5 users and E <= 10 edges, with an isolated user, a parallel
    duplicate edge and a weight-1.0 edge."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6))
    isolated = int(rng.integers(1, n + 1))
    linked = [v for v in range(1, n + 1) if v != isolated]
    edges = []
    for _ in range(int(rng.integers(1, 9))):
        u, v = rng.choice(linked, size=2, replace=False)
        edges.append((int(u), int(v), float(np.round(rng.uniform(0.05, 0.95), 6))))
    edges.append(edges[int(rng.integers(len(edges)))])
    u, v = rng.choice(linked, size=2, replace=False)
    edges.insert(int(rng.integers(len(edges) + 1)), (int(u), int(v), 1.0))
    return n, ic_instance(n, edges, [[0.5]] * n).edges


class TestIcExact:
    def test_certain_activation(self):
        assert spread(2, [(1, 2, 1.0)], {1}) == 2.0

    def test_half_edge(self):
        # two live-edge worlds: 0.5 * 2 + 0.5 * 1
        assert spread(2, [(1, 2, 0.5)], {1}) == pytest.approx(1.5)

    def test_deterministic_path(self):
        assert spread(3, [(1, 2, 1.0), (2, 3, 1.0)], {1}) == 3.0

    def test_half_path(self):
        # four worlds: 1 + 0.5 + 0.25
        assert spread(3, [(1, 2, 0.5), (2, 3, 0.5)], {1}) == pytest.approx(1.75)

    def test_full_seed_set(self):
        edges = [(1, 2, 0.3), (2, 3, 0.7)]
        assert spread(3, edges, {1, 2, 3}) == 3.0

    def test_empty_seed_set(self):
        assert spread(3, [(1, 2, 0.5)], set()) == 0.0

    def test_unit_weights_equal_reachability(self):
        edges = [(1, 2, 1.0), (2, 3, 1.0), (4, 5, 1.0)]
        assert spread(5, edges, {1}) == 3.0
        assert spread(5, edges, {4}) == 2.0

    def test_edge_limit(self):
        edges = [(1, 2, 0.5)] * 21
        with pytest.raises(UtilityError, match="limited to 20 edges"):
            gamma_ic_exact(2, edges)

    def test_user_limit(self):
        with pytest.raises(UtilityError, match="n <= 15"):
            gamma_ic_exact(16, [(1, 2, 0.5)])

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_per_set_reference(self, seed):
        n, edges = random_ic_graph(seed)
        gamma = gamma_ic_exact(n, edges)
        assert gamma.shape == (1 << n,)
        assert gamma[0] == 0.0
        for mask, U in enumerate(all_subsets(n)):
            assert abs(gamma[mask] - reference_ic_spread(edges, U)) <= 1e-12

    def test_one_pass_per_utility(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return gamma_ic_exact(*args, **kwargs)

        monkeypatch.setattr(cascade, "gamma_ic_exact", counted)
        n, edges = random_ic_graph(3)
        util = CascadeUtility("IC_exact", n, edges, epsilon=0.2, perturb_seed=4)
        ref = util.reference_q
        ref.value({1})  # the two utilities first ask for different sets
        util.value({2})
        for U in all_subsets(n):
            util.value(U)
            ref.value(U)
        util.gamma_vector()
        util.reference_q.gamma_vector()
        assert len(calls) == 1
        for mask, U in enumerate(all_subsets(n)):
            assert ref.base_value(U) == util.base_value(U) == gamma_ic_exact(n, edges)[mask]


def simulate_lt(n, edges, U, rng) -> int:
    """One LT cascade: a user activates once the weight of its active
    in-neighbours reaches its uniform random threshold."""
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


def reference_lt_spread(n, edges, U) -> float:
    """Exact LT spread of one seed set: every user keeps one of its in-edges,
    edge (u, v) with probability w_uv, or none; enumerate those choices."""
    U = frozenset(U)
    if not U:
        return 0.0
    options = []
    for v in range(1, n + 1):
        ins = [(u, w) for u, head, w in edges if head == v]
        options.append([(None, 1.0 - sum(w for _, w in ins))] + ins)
    total = 0.0
    for choice in product(*options):
        prob = float(np.prod([w for _, w in choice]))
        adj: dict[int, list[int]] = {}
        for v, (u, _) in enumerate(choice, start=1):
            if u is not None:
                adj.setdefault(u, []).append(v)
        total += prob * _reachable(adj, U)
    return total


def spread_bound(n, samples):
    """Four standard errors of a sampled spread: a per-world spread lies in
    [0, n], so its standard deviation is at most n / 2."""
    return 4 * (n / 2) / np.sqrt(samples)


# Four users with a cycle, a shared head and in-weights summing below 1.
LT_EDGES = [(1, 2, 0.6), (3, 2, 0.3), (2, 3, 0.5), (3, 1, 0.4), (4, 1, 0.45), (2, 4, 0.9)]


class TestMonteCarlo:
    def test_empty_seed_set_is_zero(self, rng):
        for model in ("IC", "LT"):
            assert gamma_sampled(3, [(1, 2, 0.5)], model, 10, rng)[0] == 0.0

    def test_deterministic_edge(self, rng):
        for model in ("IC", "LT"):
            gamma = gamma_sampled(3, [(1, 2, 1.0), (2, 3, 1.0)], model, 50, rng)
            assert gamma[0b001] == 3.0
            assert gamma[0b111] == 3.0

    @pytest.mark.parametrize("samples", [1000, 10_000, 100_000])
    def test_ic_converges_to_exact(self, samples):
        one = gamma_sampled(2, [(1, 2, 0.5)], "IC", samples, np.random.default_rng(77))
        # per-world std is 0.5; allow 3 standard errors
        assert abs(one[0b01] - 1.5) <= 3 * 0.5 / np.sqrt(samples)
        n, edges = random_ic_graph(5)
        est = gamma_sampled(n, edges, "IC", samples, np.random.default_rng(77))
        assert np.all(np.abs(est - gamma_ic_exact(n, edges)) <= spread_bound(n, samples))

    def test_lt_rejects_heavy_in_weights(self, rng):
        heavy = [(1, 2, 0.7), (1, 2, 0.5)]
        with pytest.raises(UtilityError, match="sum above 1"):
            gamma_sampled(2, heavy, "LT", 10, rng)
        with pytest.raises(UtilityError, match="sum above 1"):
            CascadeUtility("LT_mc", 2, heavy).value({1})

    def test_lt_certain_activation(self, rng):
        # the one in-edge of user 2 has weight 1, so it is live in every world
        assert gamma_sampled(2, [(1, 2, 1.0)], "LT", 20, rng)[0b01] == 2.0

    def test_lt_matches_in_edge_enumeration(self):
        n, samples = 4, 100_000
        est = gamma_sampled(n, LT_EDGES, "LT", samples, np.random.default_rng(78))
        for mask, U in enumerate(all_subsets(n)):
            assert abs(est[mask] - reference_lt_spread(n, LT_EDGES, U)) <= spread_bound(n, samples)

    def test_lt_matches_threshold_simulation(self):
        n, runs, samples = 4, 4000, 100_000
        est = gamma_sampled(n, LT_EDGES, "LT", samples, np.random.default_rng(79))
        sim_rng = np.random.default_rng(80)
        bound = np.hypot(spread_bound(n, runs), spread_bound(n, samples))
        for mask, U in enumerate(all_subsets(n)):
            if U:
                sim = np.mean([simulate_lt(n, LT_EDGES, U, sim_rng) for _ in range(runs)])
                assert abs(est[mask] - sim) <= bound

    @pytest.mark.parametrize("kind", ["IC_mc", "LT_mc"])
    def test_seeded_utility_is_deterministic(self, kind):
        def vector(seed):
            return CascadeUtility(kind, 4, LT_EDGES, perturb_seed=seed, mc_samples=500).gamma_vector()

        assert np.array_equal(vector(3), vector(3))
        assert not np.array_equal(vector(3), vector(4))

    @pytest.mark.parametrize("kind", ["IC_mc", "LT_mc"])
    def test_one_pass_per_utility(self, kind, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return gamma_sampled(*args, **kwargs)

        monkeypatch.setattr(cascade, "gamma_sampled", counted)
        util = CascadeUtility(kind, 4, LT_EDGES, epsilon=0.2, perturb_seed=4, mc_samples=500)
        ref = util.reference_q
        util.gamma_vector()
        ref.gamma_vector()
        assert len(calls) == 1
        for U in all_subsets(4):
            assert ref.base_value(U) == util.base_value(U)
            assert 0.8 * ref.value(U) <= util.value(U) <= 1.2 * ref.value(U)


class TestPerturbation:
    def test_zero_eps_is_identity(self):
        base = CascadeUtility("TABLE", 3, table=modular_table([1.0, 2.0, 0.5]))
        pert = make_eps_perturbed(base, 0.0, perturb_seed=9)
        for U in all_subsets(3):
            assert pert.value(U) == base.value(U)

    def test_sandwich_by_construction(self):
        base = CascadeUtility("TABLE", 4, table=modular_table([1.0, 2.0, 0.5, 3.0]))
        pert = make_eps_perturbed(base, 0.1, perturb_seed=5)
        for U in all_subsets(4):
            q = base.value(U)
            assert 0.9 * q - 1e-12 <= pert.value(U) <= 1.1 * q + 1e-12

    def test_deterministic(self):
        assert perturb_factor(3, {1, 2}, 0.2) == perturb_factor(3, {2, 1}, 0.2)
        assert perturb_factor(3, {1, 2}, 0.2) != perturb_factor(4, {1, 2}, 0.2)

    def test_empty_set_unperturbed(self):
        assert perturb_factor(3, set(), 0.5) == 1.0
        base = CascadeUtility("TABLE", 2, table=modular_table([1.0, 1.0]))
        assert make_eps_perturbed(base, 0.5, 1).value(frozenset()) == 0.0

    def test_reference_q_strips_perturbation(self):
        base = CascadeUtility("TABLE", 3, table=modular_table([1.0, 2.0, 0.5]))
        pert = make_eps_perturbed(base, 0.3, perturb_seed=2)
        ref = pert.reference_q
        for U in all_subsets(3):
            assert ref.value(U) == base.value(U)


def subset_vector(table, n):
    """The values of a frozenset-keyed table, indexed by user bitmask."""
    return np.array([table[U] for U in all_subsets(n)])


def local_violation(h, witness):
    """How far a witness of `check_submodular_monotone` breaks its inequality,
    less its tolerance (1e-12 times the largest |value|, over n for a local
    inequality): positive for a real violation."""
    n = len(h).bit_length() - 1
    tol = 1e-12 * np.abs(h).max()
    X = sum(1 << (v - 1) for v in witness[1])
    if witness[0] == "monotone":
        x = 1 << (witness[2] - 1)
        return (h[X] - tol) - h[X | x]
    x, y = (1 << (v - 1) for v in witness[2:])
    return (h[X | x | y] + h[X] - tol / n) - (h[X | x] + h[X | y])


class TestSubmodularCheck:
    def test_coverage_ok(self):
        covers = [{1, 2}, {2, 3}, {4}]
        table = {}
        for U in all_subsets(3):
            table[U] = float(len(set().union(*(covers[v - 1] for v in U)) if U else set()))
        assert check_submodular_monotone(subset_vector(table, 3)) is None

    def test_supermodular_pair_detected(self):
        witness = check_submodular_monotone([0.0, 0.0, 0.0, 1.0])
        assert witness is not None and witness[0] == "submodular"

    def test_modular_ok(self):
        assert check_submodular_monotone(subset_vector(modular_table([1.0, 3.0, 2.0]), 3)) is None

    def test_incomplete_table_rejected(self):
        with pytest.raises(UtilityError, match="2\\^n values"):
            check_submodular_monotone([0.0, 1.0, 1.0])

    def test_nonmonotone_detected(self):
        witness = check_submodular_monotone([0.0, 1.0, 1.0, 0.5])
        assert witness is not None and witness[0] == "monotone"

    def test_agrees_with_the_pair_walk(self):
        """The local check flags every table the X-within-Y walk flags, with
        the same witness kind, and each witness it returns is real.  Tables
        with one raised entry break local inequalities by a little more or
        less than the local tolerance, 1e-12 times the largest |value| over
        n, which the walk's tolerance (that times n) lets through: only the
        raised ones are flagged."""
        rng = np.random.default_rng(2021)
        flagged = {"monotone": 0, "submodular": 0}
        for i in range(3000):
            family = i % 4
            n = int(rng.integers(2 if family == 3 else 1, 8))
            bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
            if family == 2:  # sorted random values: monotone, rarely submodular
                h = np.sort(rng.random(1 << n))
            elif family == 3:  # modular, then one entry raised
                h = bits @ rng.uniform(0.05, 0.25, n)
                top = rng.choice([Z for Z in range(1 << n) if Z.bit_count() >= 2])
                tol = 1e-12 * np.abs(h).max() / n
                raised = i % 8 == 3
                h[top] += tol * (rng.uniform(1.1, 2.0) if raised else rng.uniform(0.5, 0.9))
            else:  # coverage, times random factors in family 1
                covers = rng.random((n, n + 2)) < 0.4
                h = ((bits @ covers) > 0) @ rng.random(n + 2)
                if family == 1:
                    h *= rng.uniform(0.9, 1.1, 1 << n)
            witness = check_submodular_monotone(h)
            walk = reference_check({U: h[mask] for mask, U in enumerate(all_subsets(n))}, n)
            if walk is not None:
                flagged[walk[0]] += 1
                assert witness is not None and witness[0] == walk[0], (i, walk, witness)
            if witness is not None:
                assert local_violation(h, witness) > 0, (i, witness)
            if family == 3:
                assert walk is None
                assert (witness is not None) == raised, (i, witness)
                assert witness is None or witness[0] == "submodular"
        assert min(flagged.values()) >= 100, flagged


def test_make_utility_picks_exact_ic():
    import couponcascade as cc
    inst = cc.generate_random(3, 2, edge_density=0.3, seed=1)
    util = make_utility(inst)
    assert util.kind == "IC_exact" and util.exact


def test_table_missing_subset_errors():
    util = CascadeUtility("TABLE", 2, table={frozenset({1}): 1.0})
    with pytest.raises(UtilityError, match="missing subset"):
        util.value(frozenset({2}))


def test_make_utility_samples_lt_and_large_ic():
    import couponcascade as cc
    lt = make_utility(cc.generate_random(4, 2, model="LT", seed=2), mc_samples=300)
    dense = cc.generate_random(6, 2, edge_density=0.8, seed=3)
    assert len(dense.edges) > cascade.EXACT_EDGE_LIMIT
    ic = make_utility(dense, mc_samples=300)
    assert (lt.kind, ic.kind) == ("LT_mc", "IC_mc")
    for util in (lt, ic):
        assert not util.exact
        assert [util.value(U) for U in all_subsets(util.n)] == util.gamma_vector().tolist()


def test_gamma_vector_indexed_by_user_bitmask():
    table = {frozenset(): 0.0, frozenset({1}): 1.0, frozenset({2}): 2.0,
             frozenset({1, 2}): 2.5}
    util = CascadeUtility("TABLE", 2, table=table)
    assert util.gamma_vector().tolist() == [0.0, 1.0, 2.0, 2.5]
    assert util.gamma_vector() is util.gamma_vector()


def test_gamma_vector_every_kind_and_n_cap():
    edges = [(1, 2, 0.5)]
    for kind in ("IC_exact", "IC_mc", "LT_mc"):
        assert CascadeUtility(kind, 2, edges, mc_samples=100).gamma_vector().shape == (4,)
    for kind in ("TABLE", "IC_exact", "IC_mc", "LT_mc"):
        with pytest.raises(UtilityError, match="n <= 15"):
            CascadeUtility(kind, 16, edges, table={}).gamma_vector()
