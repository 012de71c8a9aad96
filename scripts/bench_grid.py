"""Record the thm1 grid: total build and BFS seconds, peak RSS and a
histogram digest, paired against the base tree.

    python3 scripts/bench_grid.py

Verifies every ``thm1`` instance with k in {4, 5, 6} and order at most
10**6 (99 instances, 24,011,655 vertices) by one BFS from the identity
each, the whole grid in each of five pairs of fresh child processes.  The
children import ``dbcayley`` alternately from this checkout's ``src/`` and
from the base tree's: HEAD when ``src/`` differs from it, else HEAD's
parent, extracted with ``git archive`` into a temporary directory.  The
grid is the benchmark's ``bfs-digits`` workload, read from
``perfbench/workloads.py`` so that the two cannot drift apart.  Appends one
point to ``BENCH_grid.json`` at the repository root: the commit, whether
``src/`` differs from it, a digest of the package source, the machine, the
grid's size, the base commit, the sha256 of its histograms (which every run
must agree on), per side each run's total wall seconds of the 99 ``build``
calls (``build_s``, parsing not included) and of the BFS (``bfs_s``) and
each child's peak RSS with their medians, and how many pairs this
checkout was faster in, counted for ``build_s`` and ``bfs_s`` each, so a
change to one layer is judged on that layer.  Points recorded before
both were counted hold one count, on ``bfs_s``.  Takes about five
seconds.
"""

from __future__ import annotations

import json
import os
import sys

from benchpoint import ROOT, append, run_pairs, stamp

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import thm1_grid  # noqa: E402

PAIRS = 5

# the whole grid in a fresh interpreter; the histograms are digested as the
# JSON list of [spec, histogram] pairs in grid order
CHILD = """
import hashlib, json, resource, sys, time
from dbcayley import bfs_from_identity, build, parse_spec
specs = sys.argv[1:]
parsed = [parse_spec(spec) for spec in specs]
started = time.perf_counter()
sets = [build(spec) for spec in parsed]
build_s = time.perf_counter() - started
histograms, bfs_s = [], 0.0
for spec, gens in zip(specs, sets):
    started = time.perf_counter()
    result = bfs_from_identity(gens)
    bfs_s += time.perf_counter() - started
    histograms.append([spec, result.histogram])
print(json.dumps({
    "vertices": sum(gens.params.order() for gens in sets),
    "histograms_sha256": hashlib.sha256(json.dumps(histograms).encode()).hexdigest(),
    "build_s": round(build_s, 6),
    "bfs_s": round(bfs_s, 4),
    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
}))
"""


def main() -> None:
    specs = thm1_grid()
    point = {
        "instances": len(specs),
        **run_pairs(CHILD, specs, PAIRS, ("vertices", "histograms_sha256"),
                    ("build_s", "bfs_s")),
    }
    print(json.dumps(point), flush=True)
    append("BENCH_grid.json", {**stamp(), "grid": point})


if __name__ == "__main__":
    main()
