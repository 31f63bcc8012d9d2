import numpy as np
import pytest

from couponcascade.cascade import make_utility
from couponcascade.instance import generate_random
from couponcascade.objective import f_exact, multilinear_F_exact
from couponcascade.rounding import RoundingError, resolve_conflicts_batch, round_partition_batch
from conftest import table_instance, modular_table
from reference import (
    Allocation,
    resolve_conflicts,
    round_extended,
    round_partition,
    swap_round_merge,
)


class TestRoundPartition:
    def test_integral_point_is_deterministic(self, rng):
        y = np.array([[0.0, 1.0], [0.0, 0.0]])
        for _ in range(20):
            assert round_partition(y, rng) == Allocation([(1, 2)])

    def test_zero_matrix(self, rng):
        assert round_partition(np.zeros((3, 2)), rng) == Allocation(())

    def test_full_row_categorical(self, rng):
        y = np.array([[0.3, 0.7]])
        counts = {1: 0, 2: 0, None: 0}
        draws = 100_000
        sel = round_partition_batch(y, draws, rng)
        counts[1] = int((sel[:, 0] == 1).sum())
        counts[2] = int((sel[:, 0] == 2).sum())
        counts[None] = int((sel[:, 0] == 0).sum())
        assert counts[None] == 0
        assert abs(counts[1] / draws - 0.3) <= 0.01
        assert abs(counts[2] / draws - 0.7) <= 0.01

    def test_overfull_row_rejected(self, rng):
        with pytest.raises(RoundingError, match="per-user mass"):
            round_partition(np.array([[0.8, 0.4]]), rng)

    @pytest.mark.parametrize("y,message", [
        ([[np.nan, 0.0], [0.2, 0.3]], "non-finite fractional entry"),
        ([[0.2, np.inf], [0.2, 0.3]], "non-finite fractional entry"),
        ([[0.2, 0.3], [0.2, -np.inf]], "non-finite fractional entry"),
        ([0.2, 0.3], r"expected an \(n, m\) matrix"),
        ([[[0.2, 0.3]]], r"expected an \(n, m\) matrix"),
    ])
    def test_malformed_y_rejected(self, rng, y, message):
        # a NaN entry passes every bound comparison, and would draw coupon 1 every time
        with pytest.raises(RoundingError, match=message):
            round_partition_batch(np.array(y), 1000, rng)

    def test_marginals_preserved(self, rng):
        y = np.array([[0.25, 0.5], [0.1, 0.0], [0.0, 0.9]])
        draws = 100_000
        sel = round_partition_batch(y, draws, rng)
        for v in range(3):
            for d in range(2):
                emp = (sel[:, v] == d + 1).mean()
                se = np.sqrt(max(y[v, d] * (1 - y[v, d]), 1e-6) / draws)
                assert abs(emp - y[v, d]) <= 3 * se + 1e-9

    def test_batch_and_single_agree_in_distribution(self):
        y = np.array([[0.4, 0.3]])
        draws = 50_000
        rng1, rng2 = np.random.default_rng(1), np.random.default_rng(2)
        sel = round_partition_batch(y, draws, rng1)
        singles = [round_partition(y, rng2).coupon_of(1) or 0 for _ in range(draws)]
        for d in (0, 1, 2):
            assert abs((sel[:, 0] == d).mean() - np.mean(np.array(singles) == d)) <= 0.015


class TestSwapRoundMerge:
    def test_single_fractional_entry(self):
        y = np.array([[0.4]])
        rng = np.random.default_rng(3)
        hits = sum(len(swap_round_merge(y, rng)) for _ in range(100_000))
        assert abs(hits / 100_000 - 0.4) <= 0.01

    def test_symmetric_row(self):
        y = np.array([[0.5, 0.5]])
        rng = np.random.default_rng(4)
        draws = 100_000
        counts = np.zeros(3)
        for _ in range(draws):
            d = swap_round_merge(y, rng).coupon_of(1) or 0
            counts[d] += 1
        assert counts[0] == 0
        assert abs(counts[1] / draws - 0.5) <= 0.01

    def test_total_variation_vs_partition(self):
        y = np.array([[0.3, 0.45], [0.2, 0.6]])
        draws = 100_000
        sel = round_partition_batch(y, draws, np.random.default_rng(5))
        rng = np.random.default_rng(6)
        merge_counts = np.zeros((2, 3))
        for _ in range(draws):
            alloc = swap_round_merge(y, rng)
            for v in (1, 2):
                merge_counts[v - 1, alloc.coupon_of(v) or 0] += 1
        for v in range(2):
            part = np.array([(sel[:, v] == d).mean() for d in (0, 1, 2)])
            merge = merge_counts[v] / draws
            assert 0.5 * np.abs(part - merge).sum() <= 0.02


class TestConflictResolution:
    def make_inst(self, dist, K):
        n = len(dist)
        return table_instance(modular_table([1.0] * n), [[0.5]] * n,
                              dist_cost=np.array(dist, dtype=float), budget_K=float(K))

    def test_under_budget_keeps_all(self):
        inst = self.make_inst([1.0, 1.0], 3.0)
        I = Allocation([(1, 1), (2, 1)])
        out = resolve_conflicts(I, inst)
        assert out.allocation == I and out.discarded == []

    def test_prefix_rule(self):
        inst = self.make_inst([1.0, 2.0, 3.0], 3.0)
        I = Allocation([(1, 1), (2, 1), (3, 1)])
        out = resolve_conflicts(I, inst)
        assert out.allocation == Allocation([(1, 1), (2, 1)])
        assert out.discarded == [(3, 1)]

    def test_equal_costs_tie_break_by_user(self):
        inst = self.make_inst([2.0, 2.0], 3.0)
        I = Allocation([(1, 1), (2, 1)])
        out = resolve_conflicts(I, inst)
        assert out.allocation == Allocation([(1, 1)])
        assert out.discarded == [(2, 1)]

    def test_batch_matches_scalar(self):
        inst = self.make_inst([1.5, 0.5, 2.0], 2.5)
        y = np.array([[0.5], [0.5], [0.5]])
        rng = np.random.default_rng(7)
        sel = round_partition_batch(y, 2000, rng)
        kept = resolve_conflicts_batch(sel, inst)
        for row_sel, row_kept in zip(sel, kept):
            I = Allocation.from_profile(tuple(int(x) for x in row_sel))
            out = resolve_conflicts(I, inst)
            assert Allocation.from_profile(tuple(int(x) for x in row_kept)) == out.allocation

    def test_requires_budget(self):
        inst = table_instance(modular_table([1.0]), [[0.5]])
        with pytest.raises(RoundingError, match="distribution budget"):
            resolve_conflicts(Allocation([(1, 1)]), inst)


class TestRoundExtended:
    def test_zero_costs_pass_through(self, rng):
        inst = table_instance(modular_table([1.0, 1.0]), [[0.5], [0.5]],
                              dist_cost=np.zeros(2), budget_K=1.0)
        y = np.array([[0.6], [0.6]])
        out = round_extended(y, inst, rng)
        assert out.allocation == out.pre_resolution
        assert out.discarded == []

    def test_result_satisfies_hard_budget(self, rng):
        inst = generate_random(3, 2, model="TABLE", seed=13, extension=True)
        y = np.full((3, 2), 0.4)
        for _ in range(200):
            out = round_extended(y, inst, rng)
            spend = sum(inst.dist_cost[v - 1] for v, _ in out.allocation.pairs)
            assert spend <= inst.budget_K + 1e-9


def test_expected_value_not_below_extension(rng):
    # swap rounding does not lose expected value for submodular objectives
    inst = generate_random(3, 2, model="TABLE", seed=14)
    util = make_utility(inst)
    y = np.array([[0.3, 0.4], [0.5, 0.2], [0.0, 0.8]])
    draws = 40_000
    sel = round_partition_batch(y, draws, rng)
    vals = f_exact(inst, util, sel)
    F = multilinear_F_exact(inst, util, y)
    assert vals.mean() >= F - 3 * vals.std(ddof=1) / np.sqrt(draws)
