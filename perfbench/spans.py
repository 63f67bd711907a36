"""Layer spans recorded from outside the program.

The tracer replaces names that one ``hierdp`` module imported from
another (``hierdp.evaluation.project_rows`` and the like) with timing
wrappers, so every call across a layer boundary becomes a span: name,
start, end, parent span, run id, plus counts taken from the call's
arguments or result. Nothing inside ``hierdp`` changes. A boundary
name that no longer exists is listed as absent instead of failing.

Spans stay in memory until :meth:`Tracer.write`. A span's self time is
its duration minus the time its child spans cover (calls nest, so
children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path


def _n(result, args, kwargs):
    return len(result), 0


def _size(result, args, kwargs):
    return int(result.size), 0


def _elements(result, args, kwargs):
    return len(args[0]), 0


def _stats_elements(result, args, kwargs):
    return sum(len(c) for c in args[0].counts), 0


def _distinct(result, args, kwargs):
    return len(result.vals), 0


def _released_nodes(result, args, kwargs):
    return len(result.values), 0


def _node_reps(result, args, kwargs):
    replicates = args[2] if len(args) > 2 else kwargs["replicates"]
    return len(args[0]) * replicates, 0


def _kept(result, args, kwargs):
    return (result.replicates_used,
            result.replicates_used + result.excluded_replicates)


def _mc_name(args, kwargs):
    with_hier = kwargs.get("with_hier", args[4] if len(args) > 4 else False)
    return "evaluation.mc_with_hier" if with_hier else "evaluation.mc_no_hier"


# (module, imported name, span name or function of the call, counts);
# a count function returns (count, second count) for the span
BOUNDARIES = [
    ("hierdp.cli", "parse_hierarchy", "hierarchy.parse", _n),
    ("hierdp.cli", "level_stats", "hierarchy.level_stats", None),
    ("hierdp.downstream", "level_stats", "hierarchy.level_stats", None),
    ("hierdp.release", "serialize_hierarchy", "hierarchy.serialize", None),
    ("hierdp.release", "node_keys", "rng.node_keys", _n),
    ("hierdp.evaluation", "node_keys", "rng.node_keys", _n),
    ("hierdp.release", "centered_uniforms", "rng.uniforms", _size),
    ("hierdp.evaluation", "centered_uniform_matrix", "rng.uniforms", _size),
    ("hierdp.allocator", "mse_sum", "analytics.pass", _elements),
    ("hierdp.allocator", "mse_deps_sum", "analytics.pass", _elements),
    ("hierdp.allocator", "mse_deps2_sum", "analytics.pass", _elements),
    ("hierdp.allocator", "weighted_total_mse", "analytics.pass", _stats_elements),
    ("hierdp.allocator", "_Level", "allocator.level", _distinct),
    ("hierdp.cli", "allocate_fixed_budget", "allocator.fixed", None),
    ("hierdp.evaluation", "allocate_fixed_budget", "allocator.fixed", None),
    ("hierdp.downstream", "allocate_fixed_budget", "allocator.fixed", None),
    ("hierdp.cli", "allocate_target_mse", "allocator.target", None),
    ("hierdp.cli", "release_no_hier", "release.noise", _released_nodes),
    ("hierdp.downstream", "release_no_hier", "release.noise", _released_nodes),
    ("hierdp.cli", "enforce_consistency", "release.consistency", None),
    ("hierdp.downstream", "enforce_consistency", "release.consistency", None),
    ("hierdp.evaluation", "project_rows", "release.project_rows", None),
    ("hierdp.evaluation", "monte_carlo_moments", _mc_name, _node_reps),
    ("hierdp.cli", "analytic_total_mse", "evaluation.analytic", None),
    ("hierdp.evaluation", "analytic_total_mse", "evaluation.analytic", None),
    ("hierdp.cli", "compare_allocations", "evaluation.compare", None),
    ("hierdp.downstream", "misallocation_stats", "downstream.misalloc", _kept),
    ("hierdp.cli", "compare_misallocation", "downstream.compare", None),
]


def _layer(name) -> str:
    # the Monte Carlo span is named per call and belongs to evaluation
    return name.split(".")[0] if isinstance(name, str) else "evaluation"


def absent_layers(absent: list[str]) -> list[str]:
    """Layers none of whose boundary names exist any more."""
    gone = set(absent)
    present = {_layer(name) for module, attr, name, _ in BOUNDARIES
               if f"{module}.{attr}" not in gone}
    return sorted({_layer(name) for _, _, name, _ in BOUNDARIES} - present)


class Tracer:
    """Installs the boundary wrappers and keeps the spans they record.

    Spans are columns of flat arrays rather than one object each: tens
    of thousands of live span objects would make the garbage collector
    slow down the very program being traced.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.count = array("d")
        self.count2 = array("d")
        self.raised = array("b")
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def __len__(self) -> int:
        return len(self.names)

    def install(self) -> None:
        self.absent = []
        for module_name, attr, name, count in BOUNDARIES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals = []

    def _wrap(self, fn, name, count):
        names, start, end, parent = self.names, self.start, self.end, self.parent
        count1, count2, raised = self.count, self.count2, self.raised
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name(args, kwargs) if callable(name) else name)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            count1.append(0.0)
            count2.append(0.0)
            raised.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if count is not None:
                try:
                    count1[i], count2[i] = count(result, args, kwargs)
                except (AttributeError, TypeError, KeyError, IndexError):
                    # the program changed shape; keep the span, drop the count
                    pass
            return result

        return wrapper

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, name in enumerate(self.names):
                f.write(json.dumps({
                    "run": self.run_id, "id": i, "name": name,
                    "start": self.start[i], "end": self.end[i],
                    "parent": self.parent[i], "count": self.count[i],
                    "count2": self.count2[i], "raised": bool(self.raised[i]),
                }) + "\n")

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive and self seconds, raised
        calls and summed counts. ``release.*`` spans called from the
        downstream layer also count under ``downstream.release.*``."""
        child_time = defaultdict(float)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            p = self.parent[i]
            keys = [name]
            if name.startswith("release.") and p >= 0 \
                    and self.names[p].startswith("downstream."):
                keys.append("downstream." + name)
            dur = self.end[i] - self.start[i]
            for key in keys:
                agg = out.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                           "raised": 0, "count": 0.0, "count2": 0.0})
                agg["calls"] += 1
                agg["s"] += dur
                agg["self_s"] += dur - child_time[i]
                agg["raised"] += self.raised[i]
                agg["count"] += self.count[i]
                agg["count2"] += self.count2[i]
        return out


def layer_metrics(agg: dict, parse_rss_bytes: float, import_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run from :meth:`Tracer.aggregate`.
    A layer that did not run reads 0."""

    def get(name, key="s"):
        entry = agg.get(name)
        return 0.0 if entry is None else float(entry[key])

    def rate(num, den):
        return num / den if den > 0 else 0.0

    nodes = get("hierarchy.parse", "count")
    solves = get("allocator.fixed", "calls") + get("allocator.target", "calls")
    m = {
        "hierarchy.parse_s": get("hierarchy.parse"),
        "hierarchy.level_stats_s": get("hierarchy.level_stats"),
        "hierarchy.serialize_s": get("hierarchy.serialize"),
        "hierarchy.nodes": nodes,
        "hierarchy.parse_nodes_per_s": rate(nodes, get("hierarchy.parse")),
        "hierarchy.rss_bytes_per_node": rate(parse_rss_bytes, nodes),
        "rng.node_keys_s": get("rng.node_keys"),
        "rng.uniforms_s": get("rng.uniforms"),
        "rng.draws": get("rng.uniforms", "count"),
        "analytics.passes": get("analytics.pass", "calls"),
        "analytics.elements": get("analytics.pass", "count"),
        "analytics.s": get("analytics.pass"),
        "allocator.fixed_s": get("allocator.fixed"),
        "allocator.target_s": get("allocator.target"),
        "allocator.solves": solves,
        "allocator.distinct_values": rate(get("allocator.level", "count"), solves),
        "allocator.fail": get("allocator.fixed", "raised") + get("allocator.target", "raised"),
        "release.noise_s": get("release.noise"),
        "release.consistency_s": get("release.consistency"),
        "release.project_rows_s": get("release.project_rows"),
        "release.project_rows_calls": get("release.project_rows", "calls"),
        "release.nodes": get("release.noise", "count"),
        "evaluation.mc_no_hier_s": get("evaluation.mc_no_hier"),
        "evaluation.mc_with_hier_s": get("evaluation.mc_with_hier"),
        "evaluation.self_s": get("evaluation.mc_no_hier", "self_s")
        + get("evaluation.mc_with_hier", "self_s"),
        "evaluation.node_reps": get("evaluation.mc_no_hier", "count")
        + get("evaluation.mc_with_hier", "count"),
        "evaluation.analytic_s": get("evaluation.analytic"),
        "downstream.misalloc_s": get("downstream.misalloc"),
        "downstream.release_calls": get("downstream.release.noise", "calls"),
        "downstream.release_s": get("downstream.release.noise")
        + get("downstream.release.consistency"),
        "downstream.kept_frac": rate(get("downstream.misalloc", "count"),
                                     get("downstream.misalloc", "count2")),
        "cli.import_s": import_s,
    }
    m["rng.draws_per_s"] = rate(m["rng.draws"], m["rng.uniforms_s"])
    m["analytics.elements_per_s"] = rate(m["analytics.elements"], m["analytics.s"])
    return m
