"""Each ``scripts/bench_*.py`` child still runs against the package.

A recorder runs its child on this checkout and on the base tree, so an API
change that breaks a child would otherwise surface only at the next
recording.  Each child runs once here, in a fresh interpreter through
``benchpoint.run_child``, on a tiny instance, and its output is checked
against the package run in process.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from dbcayley import bfs_from_identity, build, export_graph, parse_spec

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture(scope="module")
def scripts():
    # bench_grid adds perfbench/ to the path as well; both entries go after
    saved = sys.path[:]
    sys.path.insert(0, str(SCRIPTS))
    try:
        import bench_certify
        import bench_export
        import bench_grid
        import benchpoint
        yield benchpoint, bench_grid, bench_certify, bench_export
    finally:
        sys.path[:] = saved


def test_grid_child_digests_the_histograms(scripts):
    benchpoint, bench_grid, _, _ = scripts
    spec = "thm1:k=4,d=3"
    point = benchpoint.run_child(bench_grid.CHILD, spec)
    histograms = [[spec, bfs_from_identity(build(parse_spec(spec))).histogram]]
    assert point["vertices"] == 24
    assert point["histograms_sha256"] == hashlib.sha256(
        json.dumps(histograms).encode()).hexdigest()
    assert point["build_s"] > 0
    assert point["bfs_s"] >= 0 and point["peak_rss_mb"] > 0 and point["cpu_s"] > 0


def test_certify_child_takes_the_support_route(scripts):
    benchpoint, _, bench_certify, _ = scripts
    point = benchpoint.run_child(bench_certify.CHILD, "cor:k=3")
    histogram = [1, 671, 381576, 43657944]
    assert point["order"] == sum(histogram) == 44_040_192
    assert point["degree"] == 671
    assert point["histogram"] == histogram
    assert point["histogram_sha256"] == hashlib.sha256(
        json.dumps(histogram).encode()).hexdigest()
    assert point["repeat_s"] > 0


def test_export_child_writes_the_export_bytes(scripts, tmp_path):
    benchpoint, _, _, bench_export = scripts
    spec, fmt = "thm2:k=4,d=5", "edge-list"
    path = tmp_path / "graph.out"
    point = benchpoint.run_child(bench_export.CHILD, spec, fmt, str(path))
    data = export_graph(build(parse_spec(spec)), fmt)
    assert point["code"] == 0
    assert point["bytes"] == len(data)
    assert point["sha256"] == hashlib.sha256(data).hexdigest()
    assert not path.exists()  # the child removes its file
