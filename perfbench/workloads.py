"""The benchmark's workloads: fixed instances of the paper, as CLI commands.

Every workload is a list of ``dbcayley`` commands (``verify`` or ``export``).
The instances are fixed; a run's seed only permutes the order in which the
commands of one pass execute, so no output may depend on it.  README.md
records why each workload was chosen and which instances were left out.
"""

from __future__ import annotations

import random
from typing import NamedTuple

EXPORT_FORMATS = ("edge-list", "dot", "adjacency")


class Command(NamedTuple):
    kind: str  # "verify" or "export"
    spec: str
    fmt: str | None = None  # export format; None for verify

    @property
    def id(self) -> str:
        return " ".join(part for part in (self.kind, self.spec, self.fmt) if part)


def thm1_grid(max_order: int = 10**6) -> list[str]:
    """The ``thm1`` specs with k in {4, 5, 6} and every valid d of order <= max_order.

    Order is (k-1) * t**(k-1) with t = d - k + 3 >= 2.
    """
    specs = []
    for k in (4, 5, 6):
        t = 2
        while (k - 1) * t ** (k - 1) <= max_order:
            specs.append(f"thm1:k={k},d={t + k - 3}")
            t += 1
    return specs


WORKLOADS: dict[str, list[Command]] = {
    # one 9,961,472-vertex t = 2 instance: the XOR neighbour path
    "bfs-t2": [Command("verify", "thm3:k=3,l=8,t=2,m=3")],
    # 99 instances, nearly all t > 2: the digit-table path and per-instance costs
    "bfs-digits": [Command("verify", spec) for spec in thm1_grid()],
    # 40,000 vertices, degree 21, undirected, three formats: per-arc export, no BFS
    "export-40k": [Command("export", "thm2:k=5,d=21", fmt) for fmt in EXPORT_FORMATS],
    # self-test only: the 24-vertex instances, done in about a second
    "smoke": [
        Command("verify", "thm1:k=4,d=3"),
        Command("verify", "thm2:k=4,d=5"),
        Command("verify", "thm4:k=2,l=2,t=2,m=1"),
        *(Command("export", "thm2:k=4,d=5", fmt) for fmt in EXPORT_FORMATS),
    ],
}


def commands(workload: str, seed: int) -> list[Command]:
    """The workload's commands in the order the seed gives them."""
    cmds = list(WORKLOADS[workload])
    random.Random(seed).shuffle(cmds)
    return cmds
