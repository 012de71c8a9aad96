"""Record the corollary BFS: histogram, BFS seconds and peak RSS, paired
against the base tree.

    python3 scripts/bench_corollary.py

Verifies ``cor:k=3`` (44,040,192 vertices) and ``cor:k=3,l=10``
(402,653,184 vertices) by one BFS from the identity each, every run in a
fresh child process.  The children import ``dbcayley`` alternately from
this checkout's ``src/`` and from the base tree's, five pairs per instance:
the base is HEAD when ``src/`` differs from it, else HEAD's parent,
extracted with ``git archive`` into a temporary directory.  Appends one
point to ``BENCH_corollary.json`` at the repository root: the commit,
whether ``src/`` differs from it, a digest of the package source, the
machine, the base commit, and per instance the histogram (which every run
must agree on) and per side each run's BFS wall seconds and each child's
peak RSS with their medians, and how many pairs this checkout's BFS was
faster in.  Takes about two minutes; ``cor:k=3,l=10`` needs about 0.5 GB.
"""

from __future__ import annotations

import json

from benchpoint import append, run_pairs, stamp

INSTANCES = ("cor:k=3", "cor:k=3,l=10")
PAIRS = 5

# one BFS in a fresh interpreter; the cap is the order, so nothing is refused
CHILD = """
import json, resource, sys, time
from dbcayley import bfs_from_identity, build, parse_spec
gens = build(parse_spec(sys.argv[1]))
started = time.perf_counter()
result = bfs_from_identity(gens, cap=gens.params.order())
bfs_s = time.perf_counter() - started
print(json.dumps({
    "order": gens.params.order(),
    "degree": len(gens.elements),
    "histogram": result.histogram,
    "bfs_s": round(bfs_s, 4),
    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
}))
"""


def main() -> None:
    instances = {}
    for spec in INSTANCES:
        instances[spec] = run_pairs(
            CHILD, [spec], PAIRS, ("order", "degree", "histogram"), "bfs_s"
        )
        print(spec, json.dumps(instances[spec]), flush=True)
    append("BENCH_corollary.json", {**stamp(), "instances": instances})


if __name__ == "__main__":
    main()
