"""Self-tests of the benchmark itself; about ten seconds.

    python3 perfbench/selftest.py

1. BENCHMARK.json names the metrics, units and workloads the code has.
2. The smoke workload (the 24-vertex instances) runs plain and traced,
   passes its output gate and prints the metrics the contract names.
3. A synthetic span tree checks the self-time arithmetic and the
   per-layer metrics derived from it.
4. A deliberately wrong pinned digest must give failed > 0, correct false
   and a non-zero exit.
5. A copy of the benchmark with no dbcayley sources next to it must exit
   non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

from run import END_TO_END_UNITS, HERE, PINS, ROOT
from spans import PER_LAYER_UNITS, layer_metrics, self_times
from workloads import WORKLOADS

failures: list[str] = []


def load_pins() -> dict:
    with open(PINS, encoding="ascii") as handle:
        return json.load(handle)


def check(condition: bool, what: str) -> None:
    print(("ok      " if condition else "FAILED  ") + what)
    if not condition:
        failures.append(what)


def bench(*args: str, cwd: str = ROOT, script: str = os.path.join(HERE, "run.py")):
    proc = subprocess.run(
        [sys.executable, script, "--workload", "smoke", "--seed", "7", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result


def smoke() -> None:
    rc, result = bench("--trace", "0")
    check(rc == 0 and result is not None and result["correct"], "smoke: plain run passes the gate")
    wanted = {name for name in END_TO_END_UNITS if name != "fail_ratio"}
    check(result is not None and set(result["metrics"]) == wanted, "smoke: end-to-end metrics")
    check(result is not None and result["failed"] == 0 and result["attempted"] >= 6,
          "smoke: every command attempted and none failed")

    rc, result = bench("--trace", "1")
    check(rc == 0 and result is not None and result["correct"], "smoke: traced run passes the gate")
    metrics = result["metrics"] if result else {}
    check(set(metrics) == set(PER_LAYER_UNITS), "smoke: per-layer metrics")
    check(metrics.get("cayley.bfs_calls", {}).get("value") == 3, "smoke: three BFS calls")
    pins = load_pins()["export"]
    pinned_bytes = sum(pin["bytes"] for key, pin in pins.items() if key.startswith("thm2:k=4,d=5 "))
    check(metrics.get("cayley.export_bytes", {}).get("value") == pinned_bytes,
          "smoke: traced export bytes equal the pinned bytes")


def benchmark_file() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    check(end_to_end == {k: v for k, v in END_TO_END_UNITS.items() if k != "fail_ratio"},
          "BENCHMARK.json: end-to-end names and units match run.py")
    check({m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER_UNITS,
          "BENCHMARK.json: per-layer names and units match spans.py")
    check({w["name"] for w in bench["workloads"]} <= set(WORKLOADS),
          "BENCHMARK.json: every workload is defined in workloads.py")


def span(i, name, start, end, parent=None, instance="verify x", **attrs):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent,
            "instance": instance, "attrs": attrs}


def span_arithmetic() -> None:
    # overlapping children, a child running past its parent, a grandchild
    tree = [
        span(0, "root", 0.0, 10.0),
        span(1, "a", 1.0, 4.0, 0),
        span(2, "b", 3.0, 6.0, 0),
        span(3, "c", 8.0, 12.0, 0),
        span(4, "a1", 2.0, 3.0, 1),
    ]
    own = self_times(tree)
    expected = {0: 10 - (5 + 2), 1: 3 - 1, 2: 3, 3: 4, 4: 1}
    check(all(math.isclose(own[i], v) for i, v in expected.items()),
          f"spans: self times {own} == {expected}")

    verify = [
        span(0, "cli.main", 0.0, 10.0),
        span(1, "generators.parse_spec", 0.5, 1.0, 0),
        span(2, "cayley.verify_construction", 1.0, 9.0, 0),
        span(3, "generators.build", 1.0, 1.5, 2, spec="s", degree=7),
        span(4, "cayley.bfs_from_identity", 2.0, 8.0, 2, order=100, last_level=60,
             rss_growth_mb=4.0),
        span(5, "bounds.moore_bound", 8.0, 8.25, 2),
        span(6, "cli.report_to_dict", 9.0, 9.5, 0),
        span(7, "cli.main", 10.0, 13.0, instance="export x dot"),
        span(8, "cayley.export_graph", 10.5, 12.5, 7, instance="export x dot", format="dot",
             arcs=1000, bytes=5000, rss_growth_mb=1.0),
    ]
    m = layer_metrics(verify)
    expected = {
        "generators.parse_s": 0.5, "generators.build_s": 0.5, "generators.degree": 7,
        "cayley.bfs_s": 6.0, "cayley.bfs_vertices_per_s": 100 / 6, "cayley.bfs_calls": 1,
        "cayley.last_level_share": 0.6, "cayley.bfs_rss_mb": 4.0,
        "cayley.export_s": 2.0, "cayley.export_s.dot": 2.0, "cayley.export_s.edge-list": 0.0,
        "cayley.export_arcs_per_s": 500.0, "cayley.export_bytes": 5000,
        "bounds.moore_s": 0.25,
        # cli self time: 10 - 0.5 - 8 - 0.5 plus report_to_dict's 0.5; export: 3 - 2
        "cli.render_s": 1.5, "cli.write_s": 1.0,
    }
    bad = {k: (m[k], v) for k, v in expected.items() if not math.isclose(m[k], v)}
    check(not bad, f"spans: per-layer metrics of a synthetic pass (mismatches: {bad})")


def wrong_digest() -> None:
    work = os.path.join(HERE, "_work", f"selftest-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        pins = load_pins()
        pins["export"]["thm2:k=4,d=5 dot"]["sha256"] = "0" * 64
        bad_pins = os.path.join(work, "pins.json")
        with open(bad_pins, "w", encoding="ascii") as handle:
            json.dump(pins, handle)
        rc, result = bench("--trace", "0", "--pins", bad_pins)
        check(rc != 0, "wrong digest: non-zero exit")
        check(result is not None and not result["correct"] and result["failed"] > 0,
              "wrong digest: correct is false and fail_ratio > 0")

        bare = os.path.join(work, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        rc, result = bench("--trace", "0", cwd=bare,
                           script=os.path.join(bare, "perfbench", "run.py"))
        check(rc != 0 and result is None, "no sources: non-zero exit and no result")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    benchmark_file()
    smoke()
    span_arithmetic()
    wrong_digest()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    sys.exit(1 if failures else 0)
