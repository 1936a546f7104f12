"""In-memory span tracing of the domdensity layers, from outside the package.

``Tracer.install()`` wraps every public function of the traced modules (and
the ``GammaCache`` methods) and rebinds each wrapper under every name that
held the original in any ``domdensity`` module, because the package imports
with ``from .x import y``.  A span records its name, start, end, the span
that was open when it began, and the request (CLI command) it belongs to.
A generator function gets one span per resumption, so the time a consumer
spends between two items is not charged to the generator.

Self time is a span's duration minus the part of it its child spans cover.
Per-layer metrics are sums and counts over spans, see ``layer_metrics``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass, field

TRACED_MODULES = ("graphs", "domination", "density", "criteria",
                  "enumeration", "rankcheck", "transform", "cli")
CACHE_METHODS = ("__init__", "get", "put")
# Bit-level helpers called inside inner loops are not layer boundaries; their
# time stays with the caller.
HELPERS = frozenset({"graphs.iter_bits", "graphs.bit_list", "graphs.max_degree",
                     "domination.closed_neighborhoods"})


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    request: int = -1
    attrs: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def _graph_identity(g) -> int:
    return hash((g.n, g.neighbors))


# Attributes read from a call after its span has closed, so their cost is
# not charged to the layer.  Each takes (args, kwargs, result).
_ATTRS = {
    "domination.GammaCache.__init__": lambda a, k, r: {"entries": len(a[0])},
    "domination.GammaCache.get": lambda a, k, r: {"hit": r is not None},
    "domination.gamma_value": lambda a, k, r: {"graph": _graph_identity(a[0])},
    "transform.iterate_leaves": lambda a, k, r: {"rounds": len(r.rounds)},
}


class Tracer:
    """Records spans while installed; ``request`` tags spans with a command."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.request = -1

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1,
                    request=self.request)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        attrs = _ATTRS.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        span = self._open(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            span.attrs["yielded"] = False
                            return
                        finally:
                            self._close(span)
                        span.attrs["yielded"] = True
                        yield item
                finally:
                    inner.close()
            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the package's public functions and rebind them everywhere."""
        prefix = package.__name__ + "."
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package.__name__ or n.startswith(prefix))]
        wrapped: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[prefix + short]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and f"{short}.{attr}" not in HELPERS):
                    wrapped[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        cache_cls = sys.modules[prefix + "domination"].GammaCache
        for attr in CACHE_METHODS:
            original = vars(cache_cls)[attr]
            self._undo.append((cache_cls, attr, original))
            setattr(cache_cls, attr,
                    self.wrap(f"domination.GammaCache.{attr}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    @contextlib.contextmanager
    def installed(self, package):
        self.install(package)
        try:
            yield self
        finally:
            self.uninstall()

    def dump(self, path, phase: str) -> None:
        """Append the spans as JSON lines (times relative to the first span)."""
        base = self.spans[0].start if self.spans else 0.0
        with open(path, "a") as fh:
            for i, (s, own) in enumerate(zip(self.spans, self_times(self.spans))):
                fh.write(json.dumps({
                    "phase": phase, "id": i, "name": s.name, "parent": s.parent,
                    "request": s.request, "start": s.start - base,
                    "end": s.end - base, "self": own, **s.attrs}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# Each layer's metrics and the end-to-end metric and workload they should move.
LAYERS = {
    "enumeration": {
        "metrics": ["enumeration.key_calls", "enumeration.classes",
                    "enumeration.keep_ratio", "enumeration.key_s",
                    "enumeration.generate_s", "enumeration.rekey_calls",
                    "enumeration.record_s"],
        "moves": "run_s and cmd_s.max on scan-n7"},
    "domination": {
        "metrics": ["domination.value_calls", "domination.value_s",
                    "domination.witness_s", "domination.solves_per_graph"],
        "moves": "run_s on products-cold"},
    "cache": {
        "metrics": ["cache.load_s", "cache.entries", "cache.hits", "cache.misses",
                    "cache.hit_ratio", "cache.key_s", "cache.put_s", "cache.writes"],
        "moves": "run_s on products-warm; setup_s on products-warm for writes"},
    "graphs": {
        "metrics": ["graphs.product_calls", "graphs.product_s", "graphs.parse_s"],
        "moves": "cmd_s.p50 on products-cold and products-warm"},
    "rankcheck": {
        "metrics": ["rankcheck.rank_s", "rankcheck.cover_s", "rankcheck.calls"],
        "moves": "run_s on scan-n7"},
    "transform/density/criteria": {
        "metrics": ["transform.hypothesis_calls", "transform.hypothesis_s",
                    "transform.rounds", "density.check_s", "criteria.s"],
        "moves": "cmd_s.p50 on products-cold"},
    "cli": {
        "metrics": ["cli.self_s", "cli.startup_s"],
        "moves": "cmd_s.p50 on products-warm"},
    "trace": {
        "metrics": ["trace.pass_s", "trace.overhead_ratio"],
        "moves": "none"},
}

# Which spans each time metric sums the self time of; a name ending in "."
# stands for every span of that module.
SELF_TIME = {
    "enumeration.key_s": ("enumeration.canonical_key",),
    "enumeration.generate_s": ("enumeration.enumerate_kreg",),
    "enumeration.record_s": ("enumeration.class_record", "enumeration.to_graph",
                             "enumeration.is_unique_form"),
    "domination.value_s": ("domination.gamma_value",),
    "domination.witness_s": ("domination.gamma_exact",),
    "cache.load_s": ("domination.GammaCache.__init__",),
    "cache.key_s": ("graphs.graph_key", "graphs.emit_graph6"),
    "cache.put_s": ("domination.GammaCache.put",),
    "graphs.product_s": ("graphs.cartesian_product",),
    "graphs.parse_s": ("graphs.parse_edge_list", "graphs.parse_graph6",
                       "enumeration.parse_biadjacency", "cli.load_graph_text"),
    "rankcheck.rank_s": ("rankcheck.biadjacency_rank", "rankcheck.rank_exact"),
    "rankcheck.cover_s": ("rankcheck.disjoint_row_cover",),
    "transform.hypothesis_s": ("transform.evaluate_hypothesis",
                               "transform.minimum_dominating_sets",
                               "transform.m_star"),
    "density.check_s": ("density.",),
    "criteria.s": ("criteria.",),
    "cli.self_s": ("cli.",),
}

# Metrics taken over set-up and pass together: cache writes land in set-up.
SETUP_AND_PASS = ("cache.put_s", "cache.writes")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _matches(name: str, patterns) -> bool:
    return any(name.startswith(p) if p.endswith(".") else name == p
               for p in patterns)


def layer_metrics(spans: list[Span], setup_spans: list[Span] = ()) -> dict[str, float]:
    """Every per-layer metric that the spans of one traced pass give."""
    setup_spans = list(setup_spans)
    own = self_times(spans)
    setup_own = self_times(setup_spans)
    out: dict[str, float] = {}
    for metric, patterns in SELF_TIME.items():
        pools = [(spans, own)]
        if metric in SETUP_AND_PASS:
            pools.append((setup_spans, setup_own))
        out[metric] = sum(t for pool, times in pools for s, t in zip(pool, times)
                          if _matches(s.name, patterns))

    def named(name, pool=spans):
        return [s for s in pool if s.name == name]

    keys = named("enumeration.canonical_key")
    generator = {i for i, s in enumerate(spans)
                 if s.name == "enumeration.enumerate_kreg"}
    classes = sum(1 for s in named("enumeration.enumerate_kreg")
                  if s.attrs.get("yielded"))
    out["enumeration.key_calls"] = len(keys)
    out["enumeration.classes"] = classes
    out["enumeration.keep_ratio"] = _ratio(classes, len(keys))
    out["enumeration.rekey_calls"] = sum(1 for s in keys if s.parent not in generator)

    values = named("domination.gamma_value")
    gets = named("domination.GammaCache.get")
    hit_parents = {s.parent for s in gets if s.attrs.get("hit")}
    value_ids = [i for i, s in enumerate(spans) if s.name == "domination.gamma_value"]
    searches = sum(1 for i in value_ids if i not in hit_parents)
    graphs = {s.attrs["graph"] for s in values}
    out["domination.value_calls"] = len(values)
    out["domination.solves_per_graph"] = _ratio(searches, len(graphs))

    loads = named("domination.GammaCache.__init__")
    hits = sum(1 for s in gets if s.attrs.get("hit"))
    out["cache.entries"] = max((s.attrs["entries"] for s in loads), default=0)
    out["cache.hits"] = hits
    out["cache.misses"] = len(gets) - hits
    out["cache.hit_ratio"] = _ratio(hits, len(gets))
    out["cache.writes"] = (len(named("domination.GammaCache.put"))
                           + len(named("domination.GammaCache.put", setup_spans)))

    out["graphs.product_calls"] = len(named("graphs.cartesian_product"))
    out["rankcheck.calls"] = len(named("rankcheck.obstruction_report"))
    out["transform.hypothesis_calls"] = len(named("transform.evaluate_hypothesis"))
    out["transform.rounds"] = sum(s.attrs["rounds"]
                                  for s in named("transform.iterate_leaves"))
    return out
