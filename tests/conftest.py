import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import couponcascade
from couponcascade.instance import Instance

# Child processes import the package this process imports, also when pytest
# found it through its pythonpath setting rather than through PYTHONPATH.
_SRC = str(Path(couponcascade.__file__).resolve().parents[1])


def run_cli(*args, env=None):
    """Run `python -m couponcascade.cli ARGS` on the package under test."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "couponcascade.cli", *args],
        capture_output=True, text=True, env=env,
    )


def table_instance(table, adoption, coupon_values=None, budget_B=10.0, **kw):
    """Instance with a tabulated utility; table keyed by frozensets of users."""
    adoption = np.asarray(adoption, dtype=float)
    n, m = adoption.shape
    if coupon_values is None:
        coupon_values = np.arange(1.0, m + 1)
    return Instance(
        n=n, m=m, coupon_values=coupon_values, adoption=adoption,
        budget_B=budget_B, model="TABLE", gamma_table=dict(table), **kw,
    )


def ic_instance(n, edges, adoption, coupon_values=None, budget_B=10.0, **kw):
    adoption = np.asarray(adoption, dtype=float)
    m = adoption.shape[1]
    if coupon_values is None:
        coupon_values = np.arange(1.0, m + 1)
    return Instance(
        n=n, m=m, coupon_values=coupon_values, adoption=adoption,
        budget_B=budget_B, model="IC", edges=tuple(edges), **kw,
    )


def modular_table(weights):
    """Additive (hence submodular) table over users 1..len(weights)."""
    n = len(weights)
    table = {}
    for mask in range(1 << n):
        users = frozenset(v + 1 for v in range(n) if mask >> v & 1)
        table[users] = float(sum(weights[v - 1] for v in users))
    return table


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
