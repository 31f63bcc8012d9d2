"""Per-layer timing by wrapping the program's public functions from outside.

Each wrapper replaces the name the caller looks up at call time: `greedy`,
`cli` and `oracle` import several functions by name, so those are wrapped
in the importing module, not where they are defined.  A wrapper counts its
calls and adds the time spent inside them to its layer; times are
inclusive, and self times are derived from them afterwards.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

from couponcascade import cascade, cli, greedy, instance, oracle, rounding

# layer -> (owner, attribute) bindings that feed it
BINDINGS = {
    "instance.generate": [(instance, "generate_random")],
    "instance.load": [(cli, "load_instance")],
    "cascade.value": [(cascade.CascadeUtility, "value")],
    "cascade.base_value": [(cascade.CascadeUtility, "base_value")],
    "cascade.gamma_ic": [(cascade, "gamma_ic_exact")],
    "objective.marginals": [(greedy, "marginal_omega_exact"), (greedy, "marginal_omega")],
    "objective.F": [(greedy, "multilinear_F_exact"), (greedy, "multilinear_F_mc")],
    "objective.f_rounding": [(cli, "f_exact"), (cli, "f_mc")],
    "objective.f_oracle": [(oracle, "f_exact")],
    "polytope_lp.inner": [(greedy, "solve_inner_lp")],
    "polytope_lp.generic": [(oracle, "solve_generic_lp")],
    "greedy": [(greedy, "continuous_greedy")],
    "rounding.draw": [(rounding, "round_partition_batch"),
                      (rounding, "resolve_conflicts_batch")],
    "oracle": [(oracle, "solve_optimal_policy"), (oracle, "solve_concave_relaxation")],
    "oracle.enumerate": [(oracle, "enumerate_feasible_allocations")],
}

# Layers every traced solve of every workload must reach.  Workloads list
# the ones they must not reach; a layer that is expected to see calls and
# sees none means its wrapper sits on a binding nobody looks up.
SOLVE_LAYERS = [layer for layer in BINDINGS if layer != "instance.generate"]


class Tracer:
    """Counts and inclusive seconds per layer, while `active` is set."""

    def __init__(self):
        self.active = False
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.items: Counter = Counter()  # sizes of returned lists
        self._saved = []

    def install(self):
        for layer, bindings in BINDINGS.items():
            for owner, attr in bindings:
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(layer, original))
                self._saved.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.seconds[layer] += time.perf_counter() - start
                tracer.calls[layer] += 1
            if isinstance(result, list):
                tracer.items[layer] += len(result)
            return result

        return wrapper

    def take(self) -> tuple[Counter, Counter, Counter]:
        """Return and reset what was recorded since the last take."""
        out = (self.calls, self.seconds, self.items)
        self.calls, self.seconds, self.items = Counter(), Counter(), Counter()
        return out


def solve_metrics(calls: Counter, seconds: Counter, items: Counter, solve_s: float) -> dict:
    """The per-layer metrics of one traced solve; self times from inclusive ones."""
    greedy_children = (seconds["objective.marginals"] + seconds["objective.F"]
                       + seconds["polytope_lp.inner"])
    cli_children = (seconds["instance.load"] + seconds["greedy"] + seconds["rounding.draw"]
                    + seconds["objective.f_rounding"] + seconds["oracle"])
    return {
        "instance.load_s": seconds["instance.load"],
        "cascade.value_calls": calls["cascade.value"],
        "cascade.value_s": seconds["cascade.value"],
        "cascade.gamma_ic_calls": calls["cascade.gamma_ic"],
        "cascade.gamma_ic_s": seconds["cascade.gamma_ic"],
        "cascade.base_value_calls": calls["cascade.base_value"],
        "objective.marginals_calls": calls["objective.marginals"],
        "objective.marginals_s": seconds["objective.marginals"],
        "objective.F_calls": calls["objective.F"],
        "objective.F_s": seconds["objective.F"],
        "objective.f_calls": calls["objective.f_rounding"] + calls["objective.f_oracle"],
        "objective.f_s": seconds["objective.f_rounding"] + seconds["objective.f_oracle"],
        "polytope_lp.inner_calls": calls["polytope_lp.inner"],
        "polytope_lp.inner_s": seconds["polytope_lp.inner"],
        "polytope_lp.generic_calls": calls["polytope_lp.generic"],
        "polytope_lp.generic_s": seconds["polytope_lp.generic"],
        "greedy.steps": calls["objective.marginals"],
        "greedy.s": seconds["greedy"],
        "greedy.self_s": seconds["greedy"] - greedy_children,
        "rounding.draw_s": seconds["rounding.draw"],
        "rounding.profiles": calls["objective.f_rounding"],
        "oracle.s": seconds["oracle"],
        "oracle.allocations": items["oracle.enumerate"],
        "cli.self_s": solve_s - cli_children,
        "trace.solve_s": solve_s,
    }


def missing_layers(calls: Counter, zero_layers) -> list[str]:
    """Layers whose call count contradicts the workload's expectation."""
    wrong = []
    for layer in SOLVE_LAYERS:
        if layer in zero_layers:
            if calls[layer]:
                wrong.append(f"{layer}: {calls[layer]} calls, expected none")
        elif not calls[layer]:
            wrong.append(f"{layer}: no calls, expected some")
    return wrong
