"""Span tracing of crossbound's layers from outside the package.

``Tracer.install`` replaces the public functions of each layer, and
``networkx.check_planarity`` as the crossbound modules reach it, with
wrappers that record a span (name, start, end, parent span, item id) and
a count. It patches the module attributes that callers look up, so the
package source is untouched; ``uninstall`` restores every attribute.

A span's self time is its duration minus the time its child spans cover.
Aggregates are kept per pass; the spans of one pass are kept in memory
and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path, layer). A dotted path names a class attribute.
# Public functions called only from their own layer are left unwrapped: their
# time counts as their caller's self time either way.
TARGETS = (
    ("crossbound.graph", "Graph.to_networkx", "graph"),
    ("crossbound.generators", "complete", "generators"),
    ("crossbound.generators", "complete_bipartite", "generators"),
    ("crossbound.generators", "named", "generators"),
    ("crossbound.generators", "random_maximal_planar", "generators"),
    ("crossbound.generators", "planar_plus", "generators"),
    ("crossbound.embedding", "RotationEmbedding.__init__", "embedding"),
    ("crossbound.embedding", "is_planar", "embedding"),
    ("crossbound.embedding", "embed", "embedding"),
    ("crossbound.embedding", "dual", "embedding"),
    ("crossbound.embedding", "triangulate", "embedding"),
    ("crossbound.skewness", "skewness_exact", "skewness"),
    ("crossbound.oracle", "planarize_config", "oracle"),
    ("crossbound.oracle", "cr_at_most", "oracle"),
    ("crossbound.oracle", "crossing_number", "oracle"),
    ("crossbound.lightcycle", "light_cycle_general", "lightcycle"),
    ("crossbound.router", "insert_edge", "router"),
    ("crossbound.router", "build_drawing", "router"),
    ("crossbound.router", "render", "router"),
    ("crossbound.bounds", "is_k_crossing_critical", "bounds"),
    ("crossbound.bounds", "certify_critical_bounds", "bounds"),
)
CLI_COMMANDS = ("analyze", "draw", "oracle", "critical")
LAYERS = ("cli", "graph", "generators", "embedding", "planarity", "skewness",
          "oracle", "lightcycle", "router", "bounds")

# name -> unit, in the order BENCHMARK.json lists them
METRICS = {
    "planarity.yesno_calls": "count",
    "planarity.witness_calls": "count",
    "planarity.self_s": "s",
    "skewness.calls": "count",
    "skewness.self_s": "s",
    "skewness.search_nodes": "count",
    "skewness.exact_ratio": "ratio",
    "oracle.calls": "count",
    "oracle.self_s": "s",
    "oracle.configs": "count",
    "oracle.hit_ratio": "ratio",
    "oracle.budget_errors": "count",
    "bounds.critical_s": "s",
    "bounds.critical_oracle_calls": "count",
    "embedding.embed_calls": "count",
    "embedding.embed_s": "s",
    "embedding.rotation_builds": "count",
    "embedding.triangulate_calls": "count",
    "embedding.triangulate_s": "s",
    "embedding.fill_edges": "count",
    "router.build_drawing_s": "s",
    "router.insert_edge_calls": "count",
    "router.insert_edge_s": "s",
    "router.render_json_s": "s",
    "router.render_svg_s": "s",
    "router.crossings_total": "count",
    "lightcycle.calls": "count",
    "lightcycle.self_s": "s",
    "lightcycle.fallbacks": "count",
    "graph.to_networkx_calls": "count",
    "graph.to_networkx_s": "s",
    "generators.self_s": "s",
    "cli.self_s": "s",
}
# Work counts: a fixed corpus must give identical values on every pass.
WORK_COUNTS = tuple(name for name, unit in METRICS.items() if unit == "count")


class _PassStats:
    def __init__(self):
        self.count = Counter()      # span name -> calls
        self.incl = defaultdict(float)   # span name -> time, outermost spans only
        self.self_s = defaultdict(float)  # layer -> self time
        self.events = Counter()     # derived counts (witness calls, hits, ...)


class Tracer:
    def __init__(self):
        self.active = False
        self.item = None
        self.spans = []             # spans of the last recorded pass
        self.recording = False
        self._stack = []            # [name, layer, start, child_time, span index]
        self._open = Counter()
        self._patches = []
        self.stats = _PassStats()

    # -- span bookkeeping --------------------------------------------------

    def begin_pass(self, record: bool):
        """Reset the per-pass aggregates; ``record`` keeps this pass's spans."""
        self.stats = _PassStats()
        self.recording = record
        if record:
            self.spans = []

    def _enter(self, name, layer):
        parent = self._stack[-1][4] if self._stack else -1
        idx = -1
        if self.recording:
            idx = len(self.spans)
            self.spans.append([name, parent, self.item, 0.0, 0.0])
        self.stats.count[name] += 1
        self._open[name] += 1
        start = time.perf_counter()
        self._stack.append([name, layer, start, 0.0, idx])
        if idx >= 0:
            self.spans[idx][3] = start

    def _exit(self):
        end = time.perf_counter()
        name, layer, start, child, idx = self._stack.pop()
        dur = end - start
        self.stats.self_s[layer] += dur - child
        self._open[name] -= 1
        if not self._open[name]:
            self.stats.incl[name] += dur
        if self._stack:
            self._stack[-1][3] += dur
        if idx >= 0:
            self.spans[idx][4] = end

    def parent_layer(self):
        return self._stack[-1][1] if self._stack else None

    def is_open(self, name) -> bool:
        return self._open[name] > 0

    def _wrap(self, fn, name, layer, observe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = name(args, kwargs) if callable(name) else name
            if observe is not None:
                observe.before(tracer, span, args, kwargs)
            tracer._enter(span, layer)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if observe is not None:
                    observe.error(tracer, span, exc)
                raise
            finally:
                tracer._exit()
            if observe is not None:
                observe.after(tracer, span, args, kwargs, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        """Wrap every target at each place the crossbound modules look it up."""
        import networkx

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "crossbound" or n.startswith("crossbound.")]
        for modname, path, layer in TARGETS:
            owner = sys.modules[modname]
            *cls_path, attr = path.split(".")
            span = f"{layer}.{attr}"
            if cls_path:
                cls = getattr(owner, cls_path[0])
                if attr == "__init__":
                    span = f"{layer}.{cls_path[0]}"
                self._set(cls, attr, self._wrap(getattr(cls, attr), span, layer,
                                                _OBSERVERS.get(span)))
                continue
            original = getattr(owner, attr)
            if attr == "render":
                span = _render_name
            wrapped = self._wrap(original, span, layer, _OBSERVERS.get(span))
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._set(mod, attr, wrapped)
        check = self._wrap(networkx.check_planarity, "planarity.check", "planarity",
                           _PlanarityObserver())
        view = _NetworkxView(networkx, check)
        for mod in modules:
            if getattr(mod, "nx", None) is networkx:
                self._set(mod, "nx", view)
        cli = sys.modules["crossbound.cli"]
        for cmd in CLI_COMMANDS:
            command = getattr(cli, cmd)
            self._set(command, "callback",
                      self._wrap(command.callback, f"cli.{cmd}", "cli"))

    def uninstall(self):
        while self._patches:
            obj, attr, value = self._patches.pop()
            setattr(obj, attr, value)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the current pass, as name -> value."""
        s = self.stats
        c, ev = s.count, s.events
        configs = c["oracle.planarize_config"]
        sk_calls = c["skewness.skewness_exact"]
        return {
            "planarity.yesno_calls": ev["planarity.yesno"],
            "planarity.witness_calls": ev["planarity.witness"],
            "planarity.self_s": s.self_s["planarity"],
            "skewness.calls": sk_calls,
            "skewness.self_s": s.self_s["skewness"],
            "skewness.search_nodes": ev["skewness.search_nodes"],
            "skewness.exact_ratio": ev["skewness.exact"] / sk_calls if sk_calls else 0.0,
            "oracle.calls": c["oracle.crossing_number"] + c["oracle.cr_at_most"],
            "oracle.self_s": s.self_s["oracle"],
            "oracle.configs": configs,
            "oracle.hit_ratio": ev["oracle.hits"] / configs if configs else 0.0,
            "oracle.budget_errors": ev["oracle.budget_errors"],
            "bounds.critical_s": s.incl["bounds.is_k_crossing_critical"],
            "bounds.critical_oracle_calls": ev["bounds.critical_oracle_calls"],
            "embedding.embed_calls": c["embedding.embed"],
            "embedding.embed_s": s.incl["embedding.embed"],
            "embedding.rotation_builds": c["embedding.RotationEmbedding"],
            "embedding.triangulate_calls": c["embedding.triangulate"],
            "embedding.triangulate_s": s.incl["embedding.triangulate"],
            "embedding.fill_edges": ev["embedding.fill_edges"],
            "router.build_drawing_s": s.incl["router.build_drawing"],
            "router.insert_edge_calls": c["router.insert_edge"],
            "router.insert_edge_s": s.incl["router.insert_edge"],
            "router.render_json_s": s.incl["router.render_json"],
            "router.render_svg_s": s.incl["router.render_svg"],
            "router.crossings_total": ev["router.crossings"],
            "lightcycle.calls": c["lightcycle.light_cycle_general"],
            "lightcycle.self_s": s.self_s["lightcycle"],
            "lightcycle.fallbacks": ev["lightcycle.fallbacks"],
            "graph.to_networkx_calls": c["graph.to_networkx"],
            "graph.to_networkx_s": s.incl["graph.to_networkx"],
            "generators.self_s": s.self_s["generators"],
            "cli.self_s": s.self_s["cli"],
        }

    def layer_self_times(self) -> dict:
        return {layer: self.stats.self_s[layer] for layer in LAYERS}

    def write_spans(self, path):
        """Write the recorded spans as JSON lines: one object per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as out:
            for i, (name, parent, item, start, end) in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": name, "parent": parent,
                                      "item": item, "start": start, "end": end}) + "\n")


class _NetworkxView:
    """The networkx module as crossbound sees it, with check_planarity traced."""

    def __init__(self, module, check_planarity):
        self._module = module
        self.check_planarity = check_planarity

    def __getattr__(self, name):
        return getattr(self._module, name)


def _render_name(args, kwargs):
    fmt = args[1] if len(args) > 1 else kwargs.get("fmt", "json")
    return f"router.render_{fmt}"


class _Observer:
    def before(self, tracer, span, args, kwargs):
        pass

    def after(self, tracer, span, args, kwargs, result):
        pass

    def error(self, tracer, span, exc):
        pass


class _PlanarityObserver(_Observer):
    def before(self, tracer, span, args, kwargs):
        ev = tracer.stats.events
        witness = kwargs.get("counterexample", args[1] if len(args) > 1 else False)
        if witness:
            ev["planarity.witness"] += 1
            if tracer.is_open("skewness.skewness_exact"):
                ev["skewness.search_nodes"] += 1
        else:
            ev["planarity.yesno"] += 1

    def after(self, tracer, span, args, kwargs, result):
        # the planarity span has closed, so the innermost open span is the caller
        if tracer.parent_layer() == "oracle" and result[0]:
            tracer.stats.events["oracle.hits"] += 1


class _OracleObserver(_Observer):
    def before(self, tracer, span, args, kwargs):
        if tracer.is_open("bounds.is_k_crossing_critical"):
            tracer.stats.events["bounds.critical_oracle_calls"] += 1

    def error(self, tracer, span, exc):
        from crossbound.errors import BudgetExceededError

        if isinstance(exc, BudgetExceededError):
            tracer.stats.events["oracle.budget_errors"] += 1


class _ResultObserver(_Observer):
    def __init__(self, event, value):
        self.event, self.value = event, value

    def after(self, tracer, span, args, kwargs, result):
        tracer.stats.events[self.event] += self.value(result)


_OBSERVERS = {
    "oracle.crossing_number": _OracleObserver(),
    "oracle.cr_at_most": _OracleObserver(),
    "skewness.skewness_exact": _ResultObserver("skewness.exact", lambda r: int(r.exact)),
    "lightcycle.light_cycle_general": _ResultObserver(
        "lightcycle.fallbacks", lambda r: int(r.fallback)),
    "embedding.triangulate": _ResultObserver("embedding.fill_edges", lambda r: len(r[1])),
    "router.build_drawing": _ResultObserver("router.crossings", lambda r: r.crossing_count),
}
