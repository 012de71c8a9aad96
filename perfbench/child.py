"""One pass of a workload in a fresh process; started by run.py, not by hand.

Usage: python3 child.py '<json config>' with keys root, workload, seed,
mode ("setup" or "pass"), trace, work_dir and pins.

Set-up imports dbcayley from ``<root>/src`` and parses, builds and
validates every spec of the workload.  A "setup" child stops there.  A
"pass" child then runs the timed phase, every command of the workload
through ``dbcayley.cli.main``, checks each output against the pinned
value, and prints one JSON line with its timings and verdicts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
import traceback

from workloads import commands


def _import_dbcayley(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import dbcayley
    import dbcayley.cli

    package_dir = os.path.dirname(os.path.abspath(dbcayley.__file__))
    if os.path.dirname(package_dir) != os.path.abspath(src):
        raise SystemExit(f"dbcayley was imported from {package_dir}, not from {src}")
    return dbcayley


def _check(cmd, rc, stdout, out_path, pins) -> str | None:
    """None when the command's output matches the pinned value, else why not."""
    if rc != 0:
        return f"exit code {rc}"
    if cmd.kind == "verify":
        pin = pins["verify"][cmd.spec]
        report = json.loads(stdout)
        histogram = report["histogram"]
        if histogram != pin["histogram"]:
            return f"histogram {histogram} != pinned {pin['histogram']}"
        if report["diameter"] != pin["k"] or len(histogram) - 1 != pin["k"]:
            return f"diameter {report['diameter']} != k = {pin['k']}"
        if sum(histogram) != report["order"] or report["order"] != pin["order"]:
            return f"histogram sums to {sum(histogram)}, order {report['order']}"
        return None
    pin = pins["export"][f"{cmd.spec} {cmd.fmt}"]
    with open(out_path, "rb") as handle:
        data = handle.read()
    digest = hashlib.sha256(data).hexdigest()
    if len(data) != pin["bytes"] or digest != pin["sha256"]:
        return f"{len(data)} bytes, sha256 {digest}; pinned {pin['bytes']} bytes, {pin['sha256']}"
    return None


def _arc_ops_per_s(dbcayley, samples: int = 2000) -> float:
    """decode -> mul -> encode over a fixed vertex sample of the export
    instance, times every generator: the group layer's per-arc cost."""
    gens = dbcayley.build(dbcayley.parse_spec("thm2:k=5,d=21"))
    params = gens.params
    n = params.order()
    vertices = range(0, n, n // samples)
    started = time.perf_counter()
    for u in vertices:
        g = params.decode(u)
        for s in gens.elements:
            params.encode(params.mul(g, s))
    return len(vertices) * len(gens.elements) / (time.perf_counter() - started)


def main(config: dict) -> None:
    dbcayley = _import_dbcayley(config["root"])
    cmds = commands(config["workload"], config["seed"])
    sizes = {}
    for spec in dict.fromkeys(cmd.spec for cmd in cmds):
        gens = dbcayley.build(dbcayley.parse_spec(spec))
        if not dbcayley.validate(gens).ok:
            raise SystemExit(f"{spec}: generator set fails validation")
        sizes[spec] = (gens.params.order(), len(gens.elements))
    result = {"setup_end": time.monotonic()}
    if config["mode"] == "setup":
        print(json.dumps(result))
        return

    with open(config["pins"], encoding="ascii") as handle:
        pins = json.load(handle)
    tracer = None
    if config["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    main_fn = dbcayley.cli.main

    runs = []
    started = time.perf_counter()
    for cmd in cmds:
        out_path = None
        argv = [cmd.kind, cmd.spec]
        if cmd.kind == "export":
            out_path = os.path.join(config["work_dir"], f"{cmd.fmt}.out")
            argv += [cmd.fmt, "--out", out_path]
        buf = io.StringIO()
        span = None
        if tracer:
            tracer.instance = cmd.id
            span = tracer.open("cli.main")
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = main_fn(argv)
        except (Exception, SystemExit):
            traceback.print_exc()
            rc = None
        t1 = time.perf_counter()
        if span:
            tracer.close(span)
        runs.append((cmd, rc, buf.getvalue(), out_path, t1 - t0))
    wall = time.perf_counter() - started

    checked = []
    for cmd, rc, stdout, out_path, seconds in runs:
        try:
            problem = _check(cmd, rc, stdout, out_path, pins)
        except (KeyError, ValueError, OSError) as exc:
            problem = f"cannot check output: {exc!r}"
        if problem:
            print(f"FAILED {cmd.id}: {problem}", file=sys.stderr)
        order, degree = sizes[cmd.spec]
        checked.append({"id": cmd.id, "seconds": seconds, "arcs": order * degree,
                        "ok": problem is None})
    result.update(wall_s=wall, commands=checked)
    if tracer:
        result["spans"] = tracer.spans
        result["arc_ops_per_s"] = _arc_ops_per_s(dbcayley)
    print(json.dumps(result))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
