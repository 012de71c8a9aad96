"""Record the support route on corollary sets: build and BFS seconds, peak
RSS and a histogram digest, paired against the base tree.

    python3 scripts/bench_certify.py

Counts the levels of ``cor:k=3`` (44,040,192 vertices), ``cor:k=3,l=10``
(402,653,184), ``cor:k=3,l=12`` (3.2·10^10 vertices), ``cor:k=3,l=13``
and ``cor:k=4`` (2.8·10^11 each) and ``cor:k=5`` (6.6·10^15) through the
public ``bfs_from_identity`` with the cap set to the order, every run in a
fresh child process.  The set must take the support route
(``method == "supports"``): the child replaces ``cayley.bfs_from``, the
dense fallback, with a refusal, so a set the route declines stops the
script instead of allocating a level map of the order.  The children
import ``dbcayley`` alternately from this checkout's ``src/`` and from the
base tree's, five pairs per instance: the base is HEAD when ``src/``
differs from it, else HEAD's parent, extracted with ``git archive`` into a
temporary directory.  Appends one point to ``BENCH_certify.json`` at the
repository root: the commit, whether ``src/`` differs from it, a digest of
the package source, the machine, the base commit, and per instance the
histogram and its sha256 (which every run must agree on) and per side each
run's ``seconds`` (build and the first BFS together), its ``repeat_s``,
each child's peak RSS and CPU seconds, with their medians, and how many
pairs this checkout was faster in.  A child times its first call, then calls
``bfs_from_identity`` again until 0.25 s have passed or 25 calls have run,
at least once, and records the median call as ``repeat_s``: one first call
cannot resolve the millisecond instances.  Points from the one that
introduced ``repeat_s`` on count wins on ``repeat_s``; earlier points
count them on ``seconds``.  Takes about a minute, most of it ``cor:k=5``;
each child stays under 100 MB.
"""

from __future__ import annotations

import json

from benchpoint import append, run_pairs, stamp

INSTANCES = ("cor:k=3", "cor:k=3,l=10", "cor:k=3,l=12", "cor:k=3,l=13", "cor:k=4", "cor:k=5")
PAIRS = 5

# build and the first BFS in a fresh interpreter, timed together, then the
# median of repeated BFS calls
CHILD = """
import hashlib, json, resource, statistics, sys, time
from dbcayley import bfs_from_identity, build, cayley, parse_spec
spec = sys.argv[1]

def refused(*args, **kwargs):
    raise SystemExit(f"{spec}: the support route refused the set")

cayley.bfs_from = refused
started = time.perf_counter()
gens = build(parse_spec(spec))
order = gens.params.order()
result = bfs_from_identity(gens, cap=order)
seconds = time.perf_counter() - started
if result.method != "supports":
    refused()
calls = []
while not calls or (sum(calls) < 0.25 and len(calls) < 25):
    call_started = time.perf_counter()
    bfs_from_identity(gens, cap=order)
    calls.append(time.perf_counter() - call_started)
print(json.dumps({
    "order": order,
    "degree": len(gens.elements),
    "histogram": result.histogram,
    "histogram_sha256": hashlib.sha256(json.dumps(result.histogram).encode()).hexdigest(),
    "seconds": round(seconds, 4),
    "repeat_s": round(statistics.median(calls), 6),
    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
}))
"""


def main() -> None:
    instances = {}
    for spec in INSTANCES:
        instances[spec] = run_pairs(
            CHILD, [spec], PAIRS, ("order", "degree", "histogram", "histogram_sha256"),
            ("repeat_s",),
        )
        print(spec, json.dumps(instances[spec]), flush=True)
    append("BENCH_certify.json", {**stamp(), "instances": instances})


if __name__ == "__main__":
    main()
