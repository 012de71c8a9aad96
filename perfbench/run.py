"""Benchmark of dbcayley's ``verify`` and ``export`` commands, end to end.

    python3 perfbench/run.py --workload bfs-t2 --seed 1 --seconds 40 --trace 0

A closed loop with one client: each pass of the workload is one fresh
child process (child.py) that runs the workload's commands one after
another through ``dbcayley.cli.main``.  Passes repeat while another one
like the last still ends within ``--seconds`` (at least one runs).
Extra set-up-only children give ``setup_s`` more samples.  With ``--trace 1`` untraced and traced passes
alternate, and the per-layer metrics are reported instead.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  The exit
code is 0 only when every command's output matched its pinned value.
The benchmark drops no caches and touches no cgroup: it measures only
its own child processes.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from spans import PER_LAYER_UNITS, layer_metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
PINS = os.path.join(HERE, "pins.json")
SETUP_ONLY_CHILDREN = 15
RUN_DEADLINE_S = 170.0
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

END_TO_END_UNITS = {
    "wall_s": "s",
    "arcs_per_s": "arcs/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "fail_ratio": "failed/attempted",
}


class ChildFailed(RuntimeError):
    """A child process died or printed no result; nothing was measured."""


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8", errors="replace") as handle:
            return handle.read().strip()
    except OSError:
        return None


def _git_commit() -> str:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(os.path.join(ROOT, ".git", ref))
    if direct:
        return direct
    for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def environment(seed: int | None, trace: bool) -> dict:
    """What a result must carry so that runs from different boxes are not mixed."""
    cpu_model = "unknown"
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.partition(":")[2].strip()
            break
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else ():
        base = os.path.join(cache_dir, index)
        level, kind = _read(os.path.join(base, "level")), _read(os.path.join(base, "type"))
        if level and kind:
            caches[f"L{level} {kind}"] = _read(os.path.join(base, "size"))
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _git_commit(),
        "seed": seed,
        "trace": trace,
    }


def spawn(config: dict, deadline: float) -> dict:
    """Run one child to completion; add its set-up time, CPU time and peak RSS."""
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD, json.dumps(config)], stdout=subprocess.PIPE, cwd=ROOT
    )
    timer = threading.Timer(max(deadline - started, 1.0), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{config['mode']} child exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result.pop("setup_end") - started
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    return result


def summarize(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    ordered = sorted(samples)
    n = len(ordered)
    summary = {"median": statistics.median(ordered), "n": n, "percentile": None}
    for p in PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            summary["percentile"] = {"p": p, "value": ordered[rank - 1]}
            break
    return summary


def _line(name: str, unit: str, summary: dict) -> str:
    pct = summary["percentile"]
    tail = f"p{pct['p']:g}={pct['value']:.6g}" if pct else "no percentile (< 11 samples)"
    return f"{name:28s} {summary['median']:<14.6g} {unit:16s} median, {tail}, n={summary['n']}"


def measure(workload: str, seed: int, seconds: float, trace: bool, pins: str) -> dict:
    run_started = time.monotonic()
    deadline = run_started + RUN_DEADLINE_S
    work_dir = os.path.join(HERE, "_work", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    base = {"root": ROOT, "workload": workload, "seed": seed, "work_dir": work_dir,
            "pins": os.path.abspath(pins)}
    setups, untraced, traced = [], [], []
    try:
        for _ in range(SETUP_ONLY_CHILDREN):
            setups.append(spawn({**base, "mode": "setup", "trace": False}, deadline)["setup_s"])
        loop_started = time.monotonic()
        while True:
            round_started = time.monotonic()
            untraced.append(spawn({**base, "mode": "pass", "trace": False}, deadline))
            if trace:
                traced.append(spawn({**base, "mode": "pass", "trace": True}, deadline))
            # start another round only if one like the last still ends in time
            now = time.monotonic()
            if now - loop_started + (now - round_started) > seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    passes = untraced + traced
    setups += [p["setup_s"] for p in passes]
    commands = [c for p in passes for c in p["commands"]]
    failed = sum(not c["ok"] for c in commands)
    samples = {
        "wall_s": [p["wall_s"] for p in untraced],
        "arcs_per_s": [sum(c["arcs"] for c in p["commands"]) / p["wall_s"] for p in untraced],
        "cpu_s": [p["cpu_s"] for p in untraced],
        "peak_rss_mb": [p["peak_rss_mb"] for p in untraced],
        "setup_s": setups,
        "fail_ratio": [failed / len(commands)],
    }
    end_to_end = {name: summarize(values) for name, values in samples.items()}
    command_s = summarize([c["seconds"] for p in untraced for c in p["commands"]])

    per_layer = {}
    if traced:
        layer_samples: dict[str, list[float]] = {}
        for p in traced:
            metrics = layer_metrics(p["spans"])
            metrics["group.arc_ops_per_s"] = p["arc_ops_per_s"]
            metrics["trace.wall_s"] = p["wall_s"]
            for name, value in metrics.items():
                layer_samples.setdefault(name, []).append(value)
        per_layer = {name: summarize(values) for name, values in layer_samples.items()}
        overhead = per_layer["trace.wall_s"]["median"] - end_to_end["wall_s"]["median"]
        per_layer["trace.overhead_s"] = {"median": overhead, "n": len(traced),
                                         "percentile": None}
    return {
        "workload": workload,
        "attempted": len(commands),
        "failed": failed,
        "elapsed_s": time.monotonic() - run_started,
        "end_to_end": end_to_end,
        "command_s": command_s,
        "per_layer": per_layer,
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in untraced],
        "traced_passes": traced,
    }


def exit_on_signal(signum, frame):
    # unwinds through spawn(), which kills and reaps the running child
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pins", default=PINS, help="pinned outputs (default: pins.json)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dbcayley", "__init__.py")):
        print(f"error: no dbcayley sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, exit_on_signal)
    stamp = environment(args.seed, bool(args.trace))
    print("environment " + json.dumps(stamp))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.pins)
    except ChildFailed as exc:
        print(f"error: {exc}; no result", file=sys.stderr)
        return 1

    print(f"workload {args.workload}: {result['attempted']} commands, "
          f"{result['failed']} failed, {result['elapsed_s']:.1f} s in all")
    for name, summary in result["end_to_end"].items():
        print(_line(name, END_TO_END_UNITS[name], summary))
    print(_line("command_s", "s", result["command_s"]))
    for name, summary in result["per_layer"].items():
        print(_line(name, PER_LAYER_UNITS[name], summary))

    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    record = os.path.join(
        results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(record, "w", encoding="utf-8") as handle:
        json.dump({"environment": stamp, **result}, handle, indent=1)

    if args.trace:
        chosen = {name: (result["per_layer"][name]["median"], unit)
                  for name, unit in PER_LAYER_UNITS.items()}
    else:
        chosen = {name: (result["end_to_end"][name]["median"], unit)
                  for name, unit in END_TO_END_UNITS.items() if name != "fail_ratio"}
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
