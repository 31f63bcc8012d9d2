"""The three workload ladders and the instance files they are written to.

Every ladder instance comes from `generate_random` with a fixed generator
seed, so a ladder is the same set of problems in every run.  The workload
seed given on the command line is the `--seed` of every solve: it draws the
rounding samples on every workload and, on `sampled-wide`, the sampled
marginals and F estimates as well.  The generator's own draws are kept
fixed because they change the cost of one solve by 15-65 % (the number of
fractional entries the exact enumeration meets depends on them), and
because some generated instances make the oracle LP fail.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from couponcascade import instance

# Solve settings shared by every workload; they are the CLI defaults.
MC_SAMPLES = 10_000
MARGINAL_SAMPLES = 200
ROUNDS = 1000
B_SCALE = 0.25


@dataclass(frozen=True)
class Slot:
    """One ladder instance: generator arguments plus its explicit step."""

    n: int
    m: int
    model: str
    gen_seed: int
    epsilon: float = 0.0
    extended: bool = False
    edges: int | None = None  # IC: the edge count the generator seed gives
    delta: float | None = None  # None: the default 1/(nm)^2

    @property
    def name(self) -> str:
        mode = "ext" if self.extended else "base"
        edges = f"-E{self.edges}" if self.edges is not None else ""
        return f"{self.model}-{self.n}x{self.m}{edges}-eps{self.epsilon:g}-{mode}-g{self.gen_seed}"

    def generate(self):
        density = self.edges / (self.n * (self.n - 1)) if self.edges is not None else 0.3
        inst = instance.generate_random(
            self.n, self.m, edge_density=density, model=self.model,
            epsilon=self.epsilon, seed=self.gen_seed, extension=self.extended,
        )
        if self.edges is not None and len(inst.edges) != self.edges:
            raise RuntimeError(f"{self.name}: generator gave {len(inst.edges)} edges")
        return inst


@dataclass(frozen=True)
class Workload:
    name: str
    slots: tuple[Slot, ...]
    marginals: str  # the evaluator every solve must report using
    oracle: bool  # whether every solve must carry the brute-force oracle block
    zero_layers: frozenset  # traced layers that must see no call; all others must


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "table-exact",
            (
                Slot(3, 3, "TABLE", 1),
                Slot(4, 3, "TABLE", 6, epsilon=0.1, extended=True),
                Slot(2, 8, "TABLE", 7, epsilon=0.1, extended=True),
                Slot(3, 5, "TABLE", 4),
                Slot(5, 3, "TABLE", 2, extended=True),
                Slot(4, 4, "TABLE", 5, epsilon=0.1),
                Slot(6, 2, "TABLE", 3, epsilon=0.1),
            ),
            marginals="exact",
            oracle=True,
            zero_layers=frozenset({"cascade.gamma_ic"}),
        ),
        Workload(
            "ic-exact",
            (
                Slot(4, 3, "IC", 2, edges=11),
                Slot(5, 2, "IC", 7, edges=12, extended=True),
                Slot(4, 4, "IC", 6, edges=11, extended=True),
                Slot(5, 2, "IC", 3, edges=14),
                Slot(6, 2, "IC", 1, edges=12),
            ),
            marginals="exact",
            oracle=True,
            zero_layers=frozenset(),
        ),
        Workload(
            "sampled-wide",
            (
                Slot(4, 10, "TABLE", 3, delta=0.05),
                Slot(5, 10, "TABLE", 5, extended=True, delta=0.05),
                Slot(3, 50, "TABLE", 4, delta=0.1),
                Slot(4, 20, "TABLE", 2, delta=0.05),
                Slot(3, 100, "TABLE", 1, delta=0.1),
            ),
            marginals="sampled",
            oracle=False,
            zero_layers=frozenset({"cascade.gamma_ic", "polytope_lp.generic", "oracle",
                                    "oracle.enumerate", "objective.f_oracle"}),
        ),
    )
}


def write_ladder(workload: Workload, directory: str) -> list[str]:
    """Generate every instance of the ladder and write it as an instance file."""
    paths = []
    for i, slot in enumerate(workload.slots):
        path = os.path.join(directory, f"{i:02d}-{slot.name}.json")
        instance.save_instance(slot.generate(), path)
        paths.append(path)
    return paths
