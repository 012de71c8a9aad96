"""What every ``scripts/bench_*.py`` point records besides its measurements.

A point names the commit it ran at, whether ``src/`` differed from that
commit, a digest of the package source and the machine; ``append`` adds it
to a ``BENCH_<topic>.json`` record at the repository root.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


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


def run_child(code: str, *args: str) -> dict:
    """Run ``code`` in a fresh interpreter that imports this checkout's
    ``dbcayley``; its last stdout line is one JSON object."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def stamp() -> dict:
    """The commit, source and machine fields of a point."""
    return {
        "commit": _git("rev-parse", "HEAD"),
        "src_modified": bool(_git("status", "--porcelain", "--", "src")),
        "src_sha256": _source_digest(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": {
            "cpus": os.cpu_count(),
            "processor": platform.processor() or platform.machine(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
        },
    }


def append(name: str, point: dict) -> None:
    """Append ``point`` to the JSON list in ``name`` at the repository root."""
    path = os.path.join(ROOT, name)
    record = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
    record.append(point)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
