"""Spans recorded around dbcayley's public calls, and the per-layer metrics.

A traced pass replaces each public function listed in ``TRACED`` with a
wrapper in every dbcayley module that has it bound, so the calls ``cli``
makes (and the calls ``verify_construction`` makes in turn) are recorded
in the order they happen.  The program itself is not changed.  Spans stay
in memory and are handed back when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import resource
import time

# the modules whose bindings are replaced; the package namespace is left
# alone, so the benchmark's own calls through ``dbcayley.*`` are not traced
MODULES = ("dbcayley.cli", "dbcayley.cayley", "dbcayley.generators", "dbcayley.bounds")

# (defining module, function, span name)
TRACED = (
    ("dbcayley.generators", "parse_spec", "generators.parse_spec"),
    ("dbcayley.generators", "build", "generators.build"),
    ("dbcayley.generators", "validate", "generators.validate"),
    ("dbcayley.cayley", "verify_construction", "cayley.verify_construction"),
    ("dbcayley.cayley", "bfs_from_identity", "cayley.bfs_from_identity"),
    ("dbcayley.cayley", "export_graph", "cayley.export_graph"),
    ("dbcayley.bounds", "moore_bound", "bounds.moore_bound"),
    ("dbcayley.cli", "report_to_dict", "cli.report_to_dict"),
)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Collects spans: name, start, end, parent, instance id and attributes."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.instance: str | None = None

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "instance": self.instance,
            "attrs": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            rss_before = _maxrss_mb()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            _annotate(span, name, args, kwargs, result, rss_before)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a dbcayley module binds it."""
        modules = [importlib.import_module(name) for name in MODULES]
        for home, attr, span_name in TRACED:
            original = getattr(importlib.import_module(home), attr)
            wrapper = self.wrap(original, span_name)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)


def _annotate(span, name, args, kwargs, result, rss_before) -> None:
    attrs = span["attrs"]
    if name == "generators.build":
        attrs["spec"] = args[0].canonical()
        attrs["degree"] = len(result.elements)
    elif name == "cayley.bfs_from_identity":
        attrs["order"] = sum(result.histogram)
        attrs["last_level"] = result.histogram[-1]
        attrs["rss_growth_mb"] = _maxrss_mb() - rss_before
    elif name == "cayley.export_graph":
        gens = args[0]
        attrs["format"] = args[1] if len(args) > 1 else kwargs["fmt"]
        attrs["arcs"] = gens.params.order() * len(gens.elements)
        attrs["bytes"] = len(result)
        attrs["rss_growth_mb"] = _maxrss_mb() - rss_before


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        reach = start
        for child in sorted(children.get(span["id"], ()), key=lambda s: s["start"]):
            lo, hi = max(child["start"], reach), min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span["id"]] = (end - start) - covered
    return result


PER_LAYER_UNITS = {
    "generators.parse_s": "s",
    "generators.build_s": "s",
    "generators.validate_s": "s",
    "generators.degree": "count",
    "cayley.bfs_s": "s",
    "cayley.bfs_vertices_per_s": "vertices/s",
    "cayley.bfs_calls": "count",
    "cayley.bfs_rss_mb": "MB",
    "cayley.last_level_share": "share",
    "cayley.export_s": "s",
    "cayley.export_s.edge-list": "s",
    "cayley.export_s.dot": "s",
    "cayley.export_s.adjacency": "s",
    "cayley.export_arcs_per_s": "arcs/s",
    "cayley.export_bytes": "count",
    "cayley.export_rss_mb": "MB",
    "group.arc_ops_per_s": "ops/s",
    "cli.render_s": "s",
    "cli.write_s": "s",
    "bounds.moore_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but the trace.* ones).

    ``cli.render_s`` is the cli layer's self time on verify commands
    (argument parsing, ``report_to_dict``, ``json.dumps``, the stdout
    write); ``cli.write_s`` is its self time on export commands (argument
    parsing and writing the ``--out`` file).
    """
    own = self_times(spans)

    def total(name, where=lambda s: True):
        return sum(own[s["id"]] for s in spans if s["name"] == name and where(s))

    def named(name):
        return [s for s in spans if s["name"] == name]

    bfs = named("cayley.bfs_from_identity")
    exports = named("cayley.export_graph")
    bfs_s = total("cayley.bfs_from_identity")
    export_s = total("cayley.export_graph")
    bfs_vertices = sum(s["attrs"].get("order", 0) for s in bfs)
    export_arcs = sum(s["attrs"].get("arcs", 0) for s in exports)

    def cli_self(kind):
        return sum(
            own[s["id"]] for s in spans
            if s["name"].startswith("cli.") and (s["instance"] or "").startswith(kind)
        )

    metrics = {
        "generators.parse_s": total("generators.parse_spec"),
        "generators.build_s": total("generators.build"),
        "generators.validate_s": total("generators.validate"),
        "generators.degree": sum(
            {s["attrs"]["spec"]: s["attrs"]["degree"]
             for s in named("generators.build") if s["attrs"]}.values()
        ),
        "cayley.bfs_s": bfs_s,
        "cayley.bfs_vertices_per_s": bfs_vertices / bfs_s if bfs_s else 0.0,
        "cayley.bfs_calls": len(bfs),
        "cayley.bfs_rss_mb": sum(s["attrs"].get("rss_growth_mb", 0.0) for s in bfs),
        "cayley.last_level_share": (
            sum(s["attrs"].get("last_level", 0) for s in bfs) / bfs_vertices if bfs_vertices else 0.0
        ),
        "cayley.export_s": export_s,
        "cayley.export_arcs_per_s": export_arcs / export_s if export_s else 0.0,
        "cayley.export_bytes": sum(s["attrs"].get("bytes", 0) for s in exports),
        "cayley.export_rss_mb": sum(s["attrs"].get("rss_growth_mb", 0.0) for s in exports),
        "cli.render_s": cli_self("verify"),
        "cli.write_s": cli_self("export"),
        "bounds.moore_s": total("bounds.moore_bound"),
    }
    for fmt in ("edge-list", "dot", "adjacency"):
        metrics[f"cayley.export_s.{fmt}"] = total(
            "cayley.export_graph", lambda s: s["attrs"].get("format") == fmt
        )
    return metrics
