"""What every ``scripts/bench_*.py`` point records besides its measurements.

A point names the commit it ran at, whether ``src/`` differed from that
commit, a digest of the package source and the machine; ``append`` adds it
to a ``BENCH_<topic>.json`` record at the repository root.  A paired point
(``run_pairs``) also runs the same child on the base tree, the code this
checkout changes, alternately with this checkout, stores both sides and
counts the pairs this checkout won on each timed field it is given.
Every child run (``run_child``) also records its process's CPU seconds,
imports included, as ``cpu_s``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
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


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_child(code: str, *args: str, src: str = SRC) -> dict:
    """Run ``code`` in a fresh interpreter that imports ``dbcayley`` from
    ``src``, by default this checkout's; its last stdout line is one JSON
    object, returned with ``cpu_s`` added: the child's user plus system CPU
    seconds, from start to exit."""
    env = dict(os.environ, PYTHONPATH=src)
    before = _children_cpu_s()
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    # the only child reaped since ``before``: children run one at a time
    cpu_s = _children_cpu_s() - before
    return {**json.loads(out.splitlines()[-1]), "cpu_s": round(cpu_s, 4)}


def _src_modified() -> bool:
    return bool(_git("status", "--porcelain", "--", "src"))


@contextlib.contextmanager
def _base_tree():
    """Yield the base commit and its ``src/``, extracted with ``git archive``
    into a temporary directory: HEAD when ``src/`` differs from it, else
    HEAD's parent."""
    commit = _git("rev-parse", "HEAD" if _src_modified() else "HEAD^")
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit, "src"], cwd=ROOT, capture_output=True,
        check=True,
    ).stdout
    with tempfile.TemporaryDirectory() as scratch:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(scratch, filter="data")
        yield commit, os.path.join(scratch, "src")


def count_wins(runs: dict[str, list[dict]], timed: tuple[str, ...]) -> dict[str, int]:
    """For each field in ``timed``, the number of pairs in which this
    checkout's run (``runs["change"]``) is lower than the base's run of the
    same pair (``runs["base"]``)."""
    pairs = list(zip(runs["base"], runs["change"]))
    return {key: sum(change[key] < base[key] for base, change in pairs) for key in timed}


def run_pairs(code: str, args: list[str], pairs: int, same: tuple[str, ...],
              timed: tuple[str, ...]) -> dict:
    """Run ``code`` with ``args`` on the base tree and on this checkout
    alternately, ``pairs`` times each, the base first in even pairs.

    Every run must agree on the fields named in ``same``, which are stored
    once.  Each other field of a run's JSON object is stored per side as a
    list, one entry a run, with its median.  ``change_wins`` maps each field
    named in ``timed`` to the number of pairs in which this checkout's value
    is lower than the base's (:func:`count_wins`); points recorded before
    it took several fields hold one count, on one field, there.
    """
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    with _base_tree() as (commit, base_src):
        for pair in range(pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_child(code, *args, src=base_src if side == "base" else SRC))
    every = runs["base"] + runs["change"]
    for key in same:
        if len({json.dumps(run[key]) for run in every}) != 1:
            raise SystemExit(f"{' '.join(args)}: runs disagree on {key}")
    point: dict = {"base_commit": commit, **{key: every[0][key] for key in same}}
    for side, side_runs in runs.items():
        point[side] = {}
        for key in [key for key in side_runs[0] if key not in same]:
            values = [run[key] for run in side_runs]
            point[side][key] = values
            point[side][f"median_{key}"] = statistics.median(values)
    point["change_wins"] = count_wins(runs, timed)
    point["pairs"] = pairs
    return point


def stamp() -> dict:
    """The commit, source and machine fields of a point."""
    return {
        "commit": _git("rev-parse", "HEAD"),
        "src_modified": _src_modified(),
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
