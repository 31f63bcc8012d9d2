"""End-to-end acceptance suite.

Each test certifies one headline property of the pipeline against an
independent oracle and prints a single summary line.  Tolerances are
pinned; a failure here means a real regression, not noise.
"""

import json
import math
import time
from itertools import combinations, product

import numpy as np
import pytest

from couponcascade.cascade import make_utility
from couponcascade.greedy import GreedyConfig, approximation_beta, continuous_greedy, extension_prefactor
from couponcascade.instance import generate_random, save_instance
from couponcascade.objective import cost_exact, f_exact, multilinear_F_exact, multilinear_F_mc
from couponcascade.oracle import (
    f_exact as enumerated_f,
    solve_concave_relaxation,
    solve_optimal_policy,
    verify_concave_dominance,
    verify_eps_sandwich,
)
from couponcascade.polytope_lp import PolytopeSpec, solve_inner_lp
from couponcascade.rounding import resolve_conflicts_batch, round_partition_batch
from conftest import modular_table, run_cli, table_instance
from reference import Allocation, cost_brute_force, seed_prob, swap_round_merge
from test_polytope_lp import mckp_fractional_oracle

ONE_MINUS_1_OVER_E = 1.0 - 1.0 / math.e


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def _profiles(n: int, m: int):
    return product(range(m + 1), repeat=n)


def _rounded_f_mean(inst, util, y, draws, rng, extended=False):
    """Mean f over `draws` roundings, plus per-draw costs and selections."""
    sel = round_partition_batch(y, draws, rng)
    kept = resolve_conflicts_batch(sel, inst) if extended else sel
    codes = kept @ ((inst.m + 1) ** np.arange(inst.n))
    uniq, inverse = np.unique(codes, return_inverse=True)
    first = np.zeros(len(uniq), dtype=int)
    first[inverse] = np.arange(len(codes))
    vals = f_exact(inst, util, kept[first])
    return float(vals[inverse].mean()), sel, kept


class TestApproximationRatio:
    def test_base_pipeline_ratio(self):
        """Ascent + rounding recovers at least the 1 - 1/e reference share."""
        t0 = time.perf_counter()
        ratios = []
        for seed in range(20):
            n, m = (2, 2) if seed % 3 == 0 else (3, 2 if seed % 2 else 1)
            inst = generate_random(n, m, model="TABLE", seed=300 + seed)
            util = make_utility(inst)
            trace = continuous_greedy(inst, util, GreedyConfig(seed=0))
            rng = np.random.default_rng(seed)
            f_mean, _, _ = _rounded_f_mean(inst, util, trace.final.y, 2000, rng)
            _, reference = solve_concave_relaxation(inst, util, "PB")
            ratios.append(f_mean / reference)
        ratios = np.array(ratios)
        elapsed = time.perf_counter() - t0
        ok = (ratios.min() >= ONE_MINUS_1_OVER_E - 0.07
              and ratios.mean() >= ONE_MINUS_1_OVER_E - 0.02
              and elapsed < 300)
        _verdict(
            "1 approximation ratio, base pipeline", ok,
            f"min {ratios.min():.4f} >= {ONE_MINUS_1_OVER_E - 0.07:.4f}, "
            f"mean {ratios.mean():.4f} >= {ONE_MINUS_1_OVER_E - 0.02:.4f}, "
            f"{elapsed:.1f}s over 20 instances",
        )


class TestExtensionRatio:
    def test_extended_pipeline_ratio_and_survival(self):
        """With distribution costs: hard budget always met, pairs survive
        conflict resolution at the guaranteed rate, and the scaled bound holds."""
        b = 0.25
        draws = 100_000
        worst_survival = 1.0
        worst_margin = np.inf
        violations_total = 0
        for seed in range(5):
            inst = generate_random(3, 2, model="TABLE", seed=400 + seed,
                                   extension=True)
            util = make_utility(inst)
            cfg = GreedyConfig(seed=0, mode="extended", b=b)
            trace = continuous_greedy(inst, util, cfg)
            rng = np.random.default_rng(1000 + seed)
            f_mean, sel, kept = _rounded_f_mean(
                inst, util, trace.final.y, draws, rng, extended=True)

            spend = ((kept > 0) * np.asarray(inst.dist_cost)).sum(axis=1)
            violations_total += int(np.sum(spend > inst.budget_K + 1e-9))
            for v in range(inst.n):
                for d in range(1, inst.m + 1):
                    pre = sel[:, v] == d
                    if pre.sum():
                        worst_survival = min(
                            worst_survival, float((kept[pre, v] == d).mean()))

            _, pb1 = solve_concave_relaxation(inst, util, "PB1")
            bound = (1 - 2 * b) * b * approximation_beta(inst.epsilon, inst.n) * pb1
            worst_margin = min(worst_margin, f_mean - bound)
        ok = (violations_total == 0
              and worst_survival >= 1 - 2 * b - 0.03
              and worst_margin >= 0.0)
        _verdict(
            "2 extension ratio and survival", ok,
            f"budget violations {violations_total}, "
            f"min survival {worst_survival:.4f} >= {1 - 2 * b - 0.03:.2f}, "
            f"min margin over scaled bound {worst_margin:.4f}",
        )


class TestLemmaSuite:
    def test_structural_properties_hold_on_random_suite(self):
        """Sandwich band, relaxation dominance over policies, dominance of the
        reference extension, and the scaled-budget lower bound: 50 instances."""
        t0 = time.perf_counter()
        violations = 0
        eps_grid = [0.0, 0.05, 0.1, 0.2]
        for k in range(50):
            eps = eps_grid[k % 4]
            extended = k % 3 == 0
            inst = generate_random(3, 2, model="TABLE", seed=500 + k,
                                   epsilon=eps, extension=extended)
            util = make_utility(inst)
            if not verify_eps_sandwich(inst, util).ok:
                violations += 1
            _, policy_value = solve_optimal_policy(inst, util)
            _, pb = solve_concave_relaxation(inst, util, "PB")
            if pb < policy_value - 1e-8:
                violations += 1
            if not verify_concave_dominance(inst, util, points=3, seed=k).ok:
                violations += 1
            if extended:
                _, pb1 = solve_concave_relaxation(inst, util, "PB1")
                _, pb2 = solve_concave_relaxation(inst, util, "PB2", b=0.25)
                if pb2 < 0.25 * pb1 - 1e-8:
                    violations += 1
        elapsed = time.perf_counter() - t0

        # negative control: a utility escaping its claimed band must be caught
        class Escapes:
            exact = True
            epsilon = 0.1

            def value(self, U, rng=None):
                return 10.0 * len(U)

            @property
            def reference_q(self):
                class Ref:
                    exact = True

                    def value(self, U, rng=None):
                        return float(len(U))
                return Ref()

        control = table_instance(modular_table([1.0, 1.0]), [[0.5], [0.5]])
        bad_report = verify_eps_sandwich(control, Escapes())
        controls_caught = (not bad_report.ok) and bool(bad_report.witnesses)

        # negative control: a supermodular table must trip the sandwich check
        supermod = table_instance(
            {frozenset(): 0.0, frozenset({1}): 0.0, frozenset({2}): 0.0,
             frozenset({1, 2}): 1.0},
            [[0.5], [0.5]],
        )
        supermod_report = verify_eps_sandwich(supermod, make_utility(supermod))
        controls_caught = controls_caught and not supermod_report.ok

        ok = violations == 0 and controls_caught and elapsed < 120
        _verdict(
            "3 structural property suite", ok,
            f"{violations} violations over 50 instances, "
            f"negative controls caught: {controls_caught}, {elapsed:.1f}s",
        )


class TestExtensionConsistency:
    def test_multilinear_agrees_with_set_function(self):
        """F at an indicator equals f(S), as the oracle's seed-set enumeration
        computes it; the sampled F tracks the exact F."""
        max_err = 0.0
        for n, m, seed in [(3, 3, 1), (3, 2, 2), (2, 2, 3)]:
            inst = generate_random(n, m, model="TABLE", seed=600 + seed)
            util = make_utility(inst)
            profiles = list(_profiles(n, m))
            for profile, f_S in zip(profiles, enumerated_f(inst, util, profiles)):
                S = Allocation.from_profile(profile)
                y = np.zeros((n, m))
                for v, d in S.pairs:
                    y[v - 1, d - 1] = 1.0
                err = abs(multilinear_F_exact(inst, util, y) - f_S)
                max_err = max(max_err, err)
        indicator_ok = max_err <= 1e-12

        inst = generate_random(3, 2, model="TABLE", seed=610)
        util = make_utility(inst)
        samples = 100_000
        mc_ok = True
        worst_sigmas = 0.0
        rng_y = np.random.default_rng(611)
        for k in range(10):
            raw = rng_y.uniform(0.0, 1.0, size=(3, 2))
            y = raw / np.maximum(raw.sum(axis=1, keepdims=True), 1.0)
            exact = multilinear_F_exact(inst, util, y)
            est = multilinear_F_mc(inst, util, y, samples, np.random.default_rng(620 + k))
            # conservative per-draw spread bound: f ranges within [0, f(full)]
            f_full = f_exact(inst, util, [(2, 2, 2)])[0]
            se_bound = (f_full / 2.0) / math.sqrt(samples)
            sigmas = abs(est - exact) / se_bound
            worst_sigmas = max(worst_sigmas, sigmas)
            mc_ok = mc_ok and sigmas <= 3.0
        ok = indicator_ok and mc_ok
        _verdict(
            "4 multilinear extension consistency", ok,
            f"max indicator error {max_err:.2e} <= 1e-12, "
            f"sampled F within {worst_sigmas:.2f} conservative std-errors",
        )


class TestRoundingMarginals:
    def test_both_rounders_match_marginals(self):
        draws = 100_000
        y = np.array([[0.25, 0.5], [0.1, 0.0], [0.35, 0.55]])
        n, m = y.shape

        sel = round_partition_batch(y, draws, np.random.default_rng(700))
        part_emp = np.zeros((n, m + 1))
        for v in range(n):
            for d in range(m + 1):
                part_emp[v, d] = (sel[:, v] == d).mean()

        merge_emp = np.zeros((n, m + 1))
        rng = np.random.default_rng(701)
        for _ in range(draws):
            alloc = swap_round_merge(y, rng)
            for v in range(1, n + 1):
                merge_emp[v - 1, alloc.coupon_of(v) or 0] += 1
        merge_emp /= draws

        part_err = float(np.abs(part_emp[:, 1:] - y).max())
        merge_err = float(np.abs(merge_emp[:, 1:] - y).max())
        tv = float(0.5 * np.abs(part_emp - merge_emp).sum(axis=1).max())
        ok = part_err <= 0.01 and merge_err <= 0.01 and tv <= 0.02
        _verdict(
            "5 rounding marginals", ok,
            f"max marginal error {max(part_err, merge_err):.4f} <= 0.01, "
            f"max row total-variation {tv:.4f} <= 0.02 at {draws} draws",
        )


class TestLpCorrectness:
    def test_inner_lp_matches_knapsack_oracle(self):
        worst_rel = 0.0
        worst_gap = 0.0
        for seed in range(100):
            rng = np.random.default_rng(800 + seed)
            n, m = 4, 3
            weights = rng.uniform(0.1, 1.5, size=(n, m))
            omega = rng.uniform(0.0, 2.0, size=(n, m))
            B = rng.uniform(0.3, 2.5)
            spec = PolytopeSpec(n, m, weights, B, None, None)
            sol = solve_inner_lp(omega, spec)
            oracle_val = mckp_fractional_oracle(omega, weights, B)
            rel = abs(sol.objective_value - oracle_val) / max(1.0, abs(oracle_val))
            worst_rel = max(worst_rel, rel)
            worst_gap = max(
                worst_gap,
                sol.duality_gap / (1e-8 * (1 + abs(sol.objective_value))))
        ok = worst_rel <= 1e-8 and worst_gap <= 1.0
        _verdict(
            "6 inner LP vs knapsack oracle", ok,
            f"worst relative objective error {worst_rel:.2e} <= 1e-8 over "
            f"100 instances, duality certificate satisfied on every solve",
        )


class TestProbabilityNormalization:
    def test_seed_distribution_sums_to_one_and_cost_definition(self):
        worst = 0.0
        inst3 = generate_random(3, 2, model="TABLE", seed=900)
        for profile in _profiles(3, 2):
            S = Allocation.from_profile(profile)
            total = sum(
                seed_prob(inst3, S, U)
                for r in range(4)
                for U in combinations(range(1, 4), r)
            )
            worst = max(worst, abs(total - 1.0))

        inst10 = generate_random(10, 2, model="IC", edge_density=0.1, seed=901)
        rng = np.random.default_rng(902)
        for _ in range(20):
            profile = tuple(rng.integers(0, 3, size=10).tolist())
            S = Allocation.from_profile(profile)
            total = sum(
                seed_prob(inst10, S, U)
                for r in range(11)
                for U in combinations(range(1, 11), r)
            )
            worst = max(worst, abs(total - 1.0))

        worst_cost = 0.0
        for n in range(2, 9):
            inst = generate_random(n, 2, model="TABLE" if n <= 4 else "IC",
                                   edge_density=0.1, seed=910 + n)
            rng = np.random.default_rng(920 + n)
            for _ in range(10):
                profile = tuple(rng.integers(0, 3, size=n).tolist())
                S = Allocation.from_profile(profile)
                worst_cost = max(
                    worst_cost,
                    abs(cost_exact(inst, [profile])[0] - cost_brute_force(inst, S)))
        ok = worst <= 1e-12 and worst_cost <= 1e-12
        _verdict(
            "7 probability normalization", ok,
            f"max |sum Pr(U;S) - 1| = {worst:.2e}, "
            f"max cost-definition mismatch {worst_cost:.2e}, both <= 1e-12",
        )


class TestApproximationFactorFormula:
    def test_beta_limit_and_monotonicity(self):
        limit_err = max(
            abs(approximation_beta(0.0, n) - ONE_MINUS_1_OVER_E)
            for n in (1, 2, 5, 20, 100)
        )
        monotone = True
        for n in (1, 3, 10):
            vals = [approximation_beta(e, n) for e in np.linspace(0.0, 1.0, 201)]
            monotone = monotone and all(
                later <= earlier + 1e-12 for earlier, later in zip(vals, vals[1:]))
        ok = limit_err <= 1e-12 and monotone
        _verdict(
            "8 approximation factor formula", ok,
            f"|beta(0) - (1 - 1/e)| = {limit_err:.2e} <= 1e-12, "
            f"nonincreasing on the sampled grid: {monotone}",
        )


class TestDeterminism:
    def test_cli_replay_is_byte_identical(self, tmp_path):
        base = tmp_path / "base.json"
        ext = tmp_path / "ext.json"
        save_instance(generate_random(3, 2, model="TABLE", seed=950), base)
        save_instance(
            generate_random(3, 2, model="TABLE", seed=951, extension=True,
                            epsilon=0.1),
            ext,
        )
        identical = True
        for path, extra in [(base, []), (ext, ["--b", "0.25"])]:
            outs = []
            for rep in range(2):
                res = run_cli("solve", "-i", str(path), "--rounds", "500", "--seed", "7",
                              "--trace", *extra)
                assert res.returncode == 0, res.stderr
                outs.append(res.stdout)
            identical = identical and outs[0] == outs[1]
            json.loads(outs[0])
        _verdict(
            "9 deterministic replay", identical,
            "repeated solve with the same seed produced byte-identical reports"
            if identical else "reports differed between replays",
        )
