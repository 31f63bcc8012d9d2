import numpy as np
import pytest

from couponcascade.cascade import (
    CascadeUtility,
    UtilityError,
    check_submodular_monotone,
    gamma_ic_exact,
    gamma_mc,
    make_eps_perturbed,
    make_utility,
    perturb_factor,
)
from conftest import modular_table


def all_subsets(n):
    for mask in range(1 << n):
        yield frozenset(v + 1 for v in range(n) if mask >> v & 1)


class TestIcExact:
    def test_certain_activation(self):
        assert gamma_ic_exact(2, [(1, 2, 1.0)], {1}) == 2.0

    def test_half_edge(self):
        # two live-edge worlds: 0.5 * 2 + 0.5 * 1
        assert gamma_ic_exact(2, [(1, 2, 0.5)], {1}) == pytest.approx(1.5)

    def test_deterministic_path(self):
        assert gamma_ic_exact(3, [(1, 2, 1.0), (2, 3, 1.0)], {1}) == 3.0

    def test_half_path(self):
        # four worlds: 1 + 0.5 + 0.25
        assert gamma_ic_exact(3, [(1, 2, 0.5), (2, 3, 0.5)], {1}) == pytest.approx(1.75)

    def test_full_seed_set(self):
        edges = [(1, 2, 0.3), (2, 3, 0.7)]
        assert gamma_ic_exact(3, edges, {1, 2, 3}) == 3.0

    def test_empty_seed_set(self):
        assert gamma_ic_exact(3, [(1, 2, 0.5)], set()) == 0.0

    def test_unit_weights_equal_reachability(self):
        edges = [(1, 2, 1.0), (2, 3, 1.0), (4, 5, 1.0)]
        assert gamma_ic_exact(5, edges, {1}) == 3.0
        assert gamma_ic_exact(5, edges, {4}) == 2.0

    def test_edge_limit(self):
        edges = [(1, 2, 0.5)] * 21
        with pytest.raises(UtilityError, match="limited to 20 edges"):
            gamma_ic_exact(2, edges, {1})


class TestMonteCarlo:
    def test_empty_seed_set_is_zero(self, rng):
        assert gamma_mc(3, [(1, 2, 0.5)], set(), "IC", 10, rng) == 0.0

    def test_deterministic_edge(self, rng):
        assert gamma_mc(2, [(1, 2, 1.0)], {1}, "IC", 50, rng) == 2.0

    @pytest.mark.parametrize("samples", [1000, 10_000, 100_000])
    def test_ic_converges_to_exact(self, samples):
        edges = [(1, 2, 0.5)]
        rng = np.random.default_rng(77)
        est = gamma_mc(2, edges, {1}, "IC", samples, rng)
        # per-sample std is 0.5; allow 3 standard errors
        assert abs(est - 1.5) <= 3 * 0.5 / np.sqrt(samples)

    def test_lt_rejects_heavy_in_weights(self, rng):
        with pytest.raises(UtilityError, match="sum above 1"):
            gamma_mc(2, [(1, 2, 0.7), (1, 2, 0.5)], {1}, "LT", 10, rng)

    def test_lt_certain_activation(self, rng):
        # threshold in [0,1) is always <= incoming weight 1.0
        assert gamma_mc(2, [(1, 2, 1.0)], {1}, "LT", 20, rng) == 2.0


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


class TestSubmodularCheck:
    def test_coverage_ok(self):
        covers = [{1, 2}, {2, 3}, {4}]
        table = {}
        for U in all_subsets(3):
            table[U] = float(len(set().union(*(covers[v - 1] for v in U)) if U else set()))
        assert check_submodular_monotone(table, 3) is None

    def test_supermodular_pair_detected(self):
        table = {frozenset(): 0.0, frozenset({1}): 0.0,
                 frozenset({2}): 0.0, frozenset({1, 2}): 1.0}
        witness = check_submodular_monotone(table, 2)
        assert witness is not None and witness[0] == "submodular"

    def test_modular_ok(self):
        assert check_submodular_monotone(modular_table([1.0, 3.0, 2.0]), 3) is None

    def test_incomplete_table_rejected(self):
        with pytest.raises(UtilityError, match="missing subset"):
            check_submodular_monotone({frozenset(): 0.0}, 2)

    def test_nonmonotone_detected(self):
        table = {frozenset(): 0.0, frozenset({1}): 1.0,
                 frozenset({2}): 1.0, frozenset({1, 2}): 0.5}
        witness = check_submodular_monotone(table, 2)
        assert witness is not None and witness[0] == "monotone"


def test_make_utility_picks_exact_ic():
    import couponcascade as cc
    inst = cc.generate_random(3, 2, edge_density=0.3, seed=1)
    util = make_utility(inst)
    assert util.kind == "IC_exact" and util.exact


def test_table_missing_subset_errors():
    util = CascadeUtility("TABLE", 2, table={frozenset({1}): 1.0})
    with pytest.raises(UtilityError, match="missing subset"):
        util.value(frozenset({2}))


def test_mc_utility_requires_rng():
    util = CascadeUtility("IC_mc", 2, edges=[(1, 2, 0.5)])
    with pytest.raises(UtilityError, match="needs an rng"):
        util.value(frozenset({1}))


def test_gamma_vector_indexed_by_user_bitmask():
    table = {frozenset(): 0.0, frozenset({1}): 1.0, frozenset({2}): 2.0,
             frozenset({1, 2}): 2.5}
    util = CascadeUtility("TABLE", 2, table=table)
    assert util.gamma_vector().tolist() == [0.0, 1.0, 2.0, 2.5]
    assert util.gamma_vector() is util.gamma_vector()


def test_gamma_vector_exact_kinds_and_n_cap():
    with pytest.raises(UtilityError, match="exactly evaluable"):
        CascadeUtility("IC_mc", 2, edges=[(1, 2, 0.5)]).gamma_vector()
    with pytest.raises(UtilityError, match="n <= 15"):
        CascadeUtility("TABLE", 16, table={}).gamma_vector()
