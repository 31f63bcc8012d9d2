"""Coupon allocation over social networks.

Solves the budgeted coupon-allocation problem: pick at most one coupon per
user, subject to an expected-redemption budget and (optionally) a hard
distribution budget, so that the expected influence cascade is maximized.
The solver runs a continuous greedy ascent on the multilinear extension of
the cascade objective and rounds the fractional result to concrete
allocations.  Brute-force oracles for tiny instances certify the
approximation guarantees.
"""

from couponcascade.instance import Instance, generate_random, load_instance, save_instance
from couponcascade.greedy import GreedyConfig, continuous_greedy, approximation_beta

__all__ = [
    "Instance",
    "generate_random",
    "load_instance",
    "save_instance",
    "GreedyConfig",
    "continuous_greedy",
    "approximation_beta",
]
