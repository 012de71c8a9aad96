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

import hashlib
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RECORD = os.path.join(ROOT, "BENCH_corollary.json")
INSTANCES = ("cor:k=3", "cor:k=3,l=10")
RUNS = 3

# one BFS in a fresh interpreter; the cap is the order, so nothing is refused
CHILD = """
import json, resource, sys, time
import numpy as np
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
    "numpy": np.__version__,
}))
"""


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def _source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "dbcayley")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def _run(spec: str) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", CHILD, spec], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def main() -> None:
    instances = {}
    numpy_version = None
    for spec in INSTANCES:
        runs = [_run(spec) for _ in range(RUNS)]
        histograms = {json.dumps(run["histogram"]) for run in runs}
        if len(histograms) != 1:
            raise SystemExit(f"{spec}: runs disagree on the histogram: {histograms}")
        numpy_version = runs[0]["numpy"]
        instances[spec] = {
            "order": runs[0]["order"],
            "degree": runs[0]["degree"],
            "histogram": runs[0]["histogram"],
            "bfs_s": [run["bfs_s"] for run in runs],
            "peak_rss_mb": [run["peak_rss_mb"] for run in runs],
        }
        print(spec, json.dumps(instances[spec]), flush=True)
    point = {
        "commit": _git("rev-parse", "HEAD"),
        "src_modified": bool(_git("status", "--porcelain", "--", "src")),
        "src_sha256": _source_digest(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": {
            "cpus": os.cpu_count(),
            "processor": platform.processor() or platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy_version,
        },
        "instances": instances,
    }
    record = []
    if os.path.exists(RECORD):
        with open(RECORD, encoding="utf-8") as handle:
            record = json.load(handle)
    record.append(point)
    with open(RECORD, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")


if __name__ == "__main__":
    main()
