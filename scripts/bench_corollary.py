"""Record the corollary BFS: histogram, BFS seconds and peak RSS per source.

    python3 scripts/bench_corollary.py

Verifies ``cor:k=3`` (44,040,192 vertices) and ``cor:k=3,l=10``
(402,653,184 vertices) by one BFS from the identity each, three times,
every run in a fresh child process that imports ``dbcayley`` from this
checkout's ``src/``.  Appends one point to ``BENCH_corollary.json`` at the
repository root: the commit, whether ``src/`` differs from it, a digest of
the package source, the machine, and per instance the histogram, each
run's BFS wall seconds and each child's peak RSS.  Takes about a minute;
``cor:k=3,l=10`` needs about 0.5 GB.
"""

from __future__ import annotations

import json

from benchpoint import append, run_child, stamp

INSTANCES = ("cor:k=3", "cor:k=3,l=10")
RUNS = 3

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
        runs = [run_child(CHILD, spec) for _ in range(RUNS)]
        histograms = {json.dumps(run["histogram"]) for run in runs}
        if len(histograms) != 1:
            raise SystemExit(f"{spec}: runs disagree on the histogram: {histograms}")
        instances[spec] = {
            "order": runs[0]["order"],
            "degree": runs[0]["degree"],
            "histogram": runs[0]["histogram"],
            "bfs_s": [run["bfs_s"] for run in runs],
            "peak_rss_mb": [run["peak_rss_mb"] for run in runs],
        }
        print(spec, json.dumps(instances[spec]), flush=True)
    append("BENCH_corollary.json", {**stamp(), "instances": instances})


if __name__ == "__main__":
    main()
