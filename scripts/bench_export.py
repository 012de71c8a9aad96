"""Record the 40,000-vertex export: seconds, bytes, digest, faults, peak RSS,
paired against the base tree.

    python3 scripts/bench_export.py

Runs ``dbcayley export thm2:k=5,d=21 FORMAT --out FILE`` (40,000 vertices,
degree 21, undirected) in each format, every run in a fresh child process
that calls the command-line entry point.  The children import ``dbcayley``
alternately from this checkout's ``src/`` and from the base tree's, five
pairs per format: the base is HEAD when ``src/`` differs from it, else
HEAD's parent, extracted with ``git archive`` into a temporary directory.
Appends one point to ``BENCH_export.json`` at the repository root: the
commit, whether ``src/`` differs from it, a digest of the package source,
the machine, the base commit, and per format the file's size and sha256
(which every run must agree on) and per side each run's export wall seconds,
minor page faults (``ru_minflt`` over the command alone), each child's
peak RSS and CPU seconds (the whole process, imports included) with their
medians, and how many pairs this checkout's export was faster in.  Takes
about half a minute.
"""

from __future__ import annotations

import json
import os
import tempfile

from benchpoint import append, run_pairs, stamp

SPEC = "thm2:k=5,d=21"
FORMATS = ("edge-list", "dot", "adjacency")
PAIRS = 5

# one export in a fresh interpreter, timed around the command alone; the
# file is digested and removed by the child
CHILD = """
import hashlib, json, os, resource, sys, time
from dbcayley.cli import main
spec, fmt, path = sys.argv[1:]
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
started = time.perf_counter()
code = main(["export", spec, fmt, "--out", path])
seconds = time.perf_counter() - started
usage = resource.getrusage(resource.RUSAGE_SELF)
with open(path, "rb") as handle:
    data = handle.read()
os.remove(path)
print(json.dumps({
    "code": code,
    "bytes": len(data),
    "sha256": hashlib.sha256(data).hexdigest(),
    "seconds": round(seconds, 4),
    "minflt": usage.ru_minflt - before,
    "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
}))
"""


def main() -> None:
    formats = {}
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "graph.out")
        for fmt in FORMATS:
            formats[fmt] = run_pairs(
                CHILD, [SPEC, fmt, path], PAIRS, ("code", "bytes", "sha256"), ("seconds",)
            )
            if formats[fmt]["code"] != 0:
                raise SystemExit(f"export {SPEC} {fmt} exited {formats[fmt]['code']}")
            print(fmt, json.dumps(formats[fmt]), flush=True)
    append("BENCH_export.json", {**stamp(), "instance": SPEC, "formats": formats})


if __name__ == "__main__":
    main()
