"""Steadiness check: do two independent sets of runs agree within the bounds?

    python3 perfbench/steady.py                      # 2 sets x 10 runs, every workload
    python3 perfbench/steady.py --workloads bfs-t2 --runs 5 --sets 1
    python3 perfbench/steady.py --runs 1 --sets 1   # one run of every workload

Each run is one ``run.py --trace 0`` invocation with its own seed (set s,
run i uses seed 1000*s + i + 1) and BENCHMARK.json's run_seconds; the
workloads take turns within a set.  For every end-to-end metric and
workload it reports each set's median and quartiles
(``statistics.quantiles(n=4)``), the spread (q3 - q1) / median, and the
verdict:

* spread: every set's spread is within the metric's bound (not required
  of setup_s), and below a third of it for "steady";
* agree: the last set's median is not worse than the first set's by more
  than the bound.

``--out FILE`` writes all of it, with the environment stamp, as JSON.
Exits 0 when every metric passes both checks.  With ``--runs 1`` it only
prints each run's metrics, with units and fail_ratio, and exits 0 when
every run passed its output gate.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

from run import HERE, ROOT, environment, exit_on_signal
from workloads import WORKLOADS


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def one_run(workload: str, seed: int, seconds: int) -> dict | None:
    with subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=180)
        except BaseException:
            # SIGTERM, unlike SIGKILL, lets run.py stop its own child first
            proc.terminate()
            proc.wait()
            raise
    if proc.returncode != 0:
        sys.stderr.write(err)
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None  # no result: the run failed before its output gate


def stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "q1": q1, "median": median, "q3": q3,
            "spread": (q3 - q1) / median}


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, exit_on_signal)
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]),
                        help="comma-separated (default: the workloads of BENCHMARK.json)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    if args.runs < 1 or args.sets < 1 or not set(workloads) <= set(WORKLOADS):
        parser.error("need --runs >= 1, --sets >= 1 and workloads from workloads.py")

    samples = {w: [{m["name"]: [] for m in bench["end_to_end"]} for _ in range(args.sets)]
               for w in workloads}
    failed_runs = 0
    for s in range(args.sets):
        for i in range(args.runs):
            for w in workloads:
                seed = 1000 * s + i + 1
                result = one_run(w, seed, bench["run_seconds"])
                head = f"set {s + 1} run {i + 1} {w} seed {seed}:"
                if result is None:
                    failed_runs += 1
                    print(f"{head} FAILED, no result", flush=True)
                    continue
                shown = " ".join(f"{k}={v['value']:.5g} {v['unit']}"
                                 for k, v in result["metrics"].items())
                print(f"{head} {shown} fail_ratio={result['failed']}/{result['attempted']}",
                      flush=True)
                if not result["correct"]:
                    failed_runs += 1
                    continue
                for name, metric in result["metrics"].items():
                    samples[w][s][name].append(metric["value"])
    if args.runs == 1:
        return 0 if failed_runs == 0 else 1

    report = {"environment": environment(seed=None, trace=False), "runs": args.runs,
              "sets": args.sets, "run_seconds": bench["run_seconds"], "failed_runs": failed_runs,
              "workloads": {}}
    ok = failed_runs == 0
    print(f"\n{'workload':12s} {'metric':12s} {'bound':>6s} "
          + " ".join(f"{'median' + str(s + 1):>12s} {'spread' + str(s + 1):>8s}"
                     for s in range(args.sets))
          + f" {'worse':>7s}  verdict")
    for w in workloads:
        report["workloads"][w] = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [stats(samples[w][s][name]) for s in range(args.sets)
                    if len(samples[w][s][name]) >= 2]
            if len(sets) < args.sets:
                ok = False
                print(f"{w:12s} {name:12s} too few successful runs")
                continue
            first, last = sets[0]["median"], sets[-1]["median"]
            worse = (last - first) / first * (1 if metric["better"] == "lower" else -1)
            spread_ok = name == "setup_s" or all(st["spread"] <= bound for st in sets)
            steady = all(st["spread"] < bound / 3 for st in sets)
            agree = worse <= bound
            verdict = ("steady" if steady else "within bound" if spread_ok else "SPREAD") + (
                ", agree" if agree else ", DISAGREE")
            ok = ok and spread_ok and agree
            report["workloads"][w][name] = {"unit": metric["unit"], "bound": bound,
                                            "sets": sets, "worse": worse, "verdict": verdict}
            print(f"{w:12s} {name:12s} {bound:6.3f} "
                  + " ".join(f"{st['median']:12.6g} {st['spread']:8.4f}" for st in sets)
                  + f" {worse:7.4f}  {verdict}")
    report["ok"] = ok
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    print("all metrics agree within their bounds" if ok else "NOT steady within the bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
