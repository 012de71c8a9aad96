"""Record the 40,000-vertex export: seconds, bytes, digest, faults, peak RSS.

    python3 scripts/bench_export.py

Runs ``dbcayley export thm2:k=5,d=21 FORMAT --out FILE`` (40,000 vertices,
degree 21, undirected) in each format, three times, every run in a fresh
child process that imports ``dbcayley`` from this checkout's ``src/`` and
calls the command-line entry point.  Appends one point to
``BENCH_export.json`` at the repository root: the commit, whether ``src/``
differs from it, a digest of the package source, the machine, and per
format the file's size and sha256, each run's export wall seconds and
minor page faults (``ru_minflt`` over the command alone) and each child's
peak RSS.  Takes a few seconds.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

from benchpoint import append, run_child, stamp

SPEC = "thm2:k=5,d=21"
FORMATS = ("edge-list", "dot", "adjacency")
RUNS = 3

# one export in a fresh interpreter, timed around the command alone
CHILD = """
import json, resource, sys, time
from dbcayley.cli import main
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
started = time.perf_counter()
code = main(["export", *sys.argv[1:]])
seconds = time.perf_counter() - started
usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({
    "code": code,
    "seconds": round(seconds, 4),
    "minflt": usage.ru_minflt - before,
    "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
}))
"""


def _export(fmt: str, path: str) -> dict:
    run = run_child(CHILD, SPEC, fmt, "--out", path)
    if run["code"] != 0:
        raise SystemExit(f"export {SPEC} {fmt} exited {run['code']}")
    with open(path, "rb") as handle:
        data = handle.read()
    os.remove(path)
    return {**run, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def main() -> None:
    formats = {}
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "graph.out")
        for fmt in FORMATS:
            runs = [_export(fmt, path) for _ in range(RUNS)]
            outputs = {(run["bytes"], run["sha256"]) for run in runs}
            if len(outputs) != 1:
                raise SystemExit(f"{fmt}: runs disagree on the output: {outputs}")
            formats[fmt] = {
                "bytes": runs[0]["bytes"],
                "sha256": runs[0]["sha256"],
                "seconds": [run["seconds"] for run in runs],
                "minflt": [run["minflt"] for run in runs],
                "peak_rss_mb": [run["peak_rss_mb"] for run in runs],
            }
            print(fmt, json.dumps(formats[fmt]), flush=True)
    append("BENCH_export.json", {**stamp(), "instance": SPEC, "formats": formats})


if __name__ == "__main__":
    main()
