"""Outside-in per-layer tracing of shapelab.

The tracer wraps public functions and methods of the shapelab modules
from outside the package, so no source file changes.  A function is
replaced under every module attribute bound to it, so ``from .x import f``
bindings are traced too (``counter_uniform`` is bound in four modules).
A method is replaced on its class and on every subclass that overrides it.

Each wrapper records a span.  A layer's self time is its span time minus
the time of the spans directly inside it, so the self times of all layers
add up to the time of the outermost span (``cli``).  Counting wrappers
(``schrodinger.one_step``, ``cocycle.generator``) record no span: their
time stays with the enclosing layer.

A target that a later version renames or removes is listed in
``Tracer.missing`` and its metrics are left out; it never raises.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


class _Frame:
    __slots__ = ("layer", "child_s", "graph_calls", "edges", "graph_edges")

    def __init__(self, layer: str, tracer: "Tracer"):
        self.layer = layer
        self.child_s = 0.0
        self.graph_calls = tracer.calls["percolation.graph_build"]
        self.edges = tracer.qty["environment.edge_weights.edges"]
        self.graph_edges = 0


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _sparse_edges(graph) -> int | None:
    for value in vars(graph).values():
        if hasattr(value, "nnz"):
            return int(value.nnz)
    return None


# measures: called after a span closes, with the closed frame


def _m_sites(t, frame, args, kwargs, result):
    t.qty[frame.layer + ".sites"] += len(result)


def _m_edges(t, frame, args, kwargs, result):
    t.qty[frame.layer + ".edges"] += len(result)


def _m_rows(t, frame, args, kwargs, result):
    t.qty[frame.layer + ".rows"] += len(result)


def _m_graph(t, frame, args, kwargs, result):
    graph = args[0]
    t.qty[frame.layer + ".sites"] += len(graph.sites)
    # the stored edge count of the finished graph; falls back to the
    # edges hashed while building it
    edges = _sparse_edges(graph)
    if edges is None:
        edges = t.qty["environment.edge_weights.edges"] - frame.edges
    for outer in reversed(t.stack):
        if outer.layer == "shape.refine":
            outer.graph_edges = edges
            break


def _m_refine(t, frame, args, kwargs, result):
    t.qty["shape.refine.rounds"] += (t.calls["percolation.graph_build"]
                                     - frame.graph_calls)
    t.qty["shape.refine.final_edges"] += frame.graph_edges
    t.qty["shape.refine.hashed_edges"] += (
        t.qty["environment.edge_weights.edges"] - frame.edges)


def _m_embed(t, frame, args, kwargs, result):
    t.qty[frame.layer + ".rounds"] += (t.calls["percolation.graph_build"]
                                       - frame.graph_calls)


def _m_steps(t, frame, args, kwargs, result):
    t.qty[frame.layer + ".steps"] += abs(int(_arg(args, kwargs, 1, "n")))


def _m_family(t, frame, args, kwargs, result):
    t.qty[frame.layer + ".families"] += 1


# (module, function or Class.method, layer, measure)
SPANS = [
    ("shapelab.cli", "main", "cli", None),
    ("shapelab.lattice", "BoxRegion.sites", "lattice.box_sites", _m_sites),
    ("shapelab.percolation", "BoxGraph.__init__", "percolation.graph_build",
     _m_graph),
    ("shapelab.percolation", "BoxGraph.distances_from",
     "percolation.dijkstra", _m_sites),
    ("shapelab.percolation", "structure_embed", "percolation.structure_embed",
     _m_embed),
    ("shapelab.environment", "Environment.edge_weights",
     "environment.edge_weights", _m_edges),
    ("shapelab.environment", "Environment.sample_field",
     "environment.sample_field", _m_edges),
    ("shapelab.environment", "counter_uniform", "environment.counter_uniform",
     _m_rows),
    ("shapelab.shape", "directional_constant", "shape.directional_constant",
     None),
    ("shapelab.shape", "_direction_profile", "shape.refine", _m_refine),
    ("shapelab.shape", "maximal_function", "shape.maximal_function", None),
    ("shapelab.lorentz", "lorentz_norm", "lorentz.norm", None),
    ("shapelab.schrodinger", "lyapunov", "schrodinger.lyapunov", None),
    ("shapelab.schrodinger", "transfer_product_scaled",
     "schrodinger.transfer_product", _m_steps),
    ("shapelab.cocycle", "HilbertCocycle.evaluate", "cocycle.evaluate", None),
    ("shapelab.cocycle", "drift_map", "cocycle.drift_map", None),
    ("shapelab.cocycle", "kingman_decompose", "cocycle.kingman", None),
    ("shapelab.cocycle", "spectral_rate", "cocycle.spectral_rate", None),
    ("shapelab.lattice", "build_path_family", "lattice.path_family",
     _m_family),
    ("shapelab.lattice", "audit_family", "lattice.audit", _m_family),
    ("shapelab.rkhs", "random_walk", "rkhs.walk", None),
    ("shapelab.rkhs", "large_scale_compare", "rkhs.walk", None),
]

# (module, Class.method, layer): counted, no span
COUNTS = [
    ("shapelab.schrodinger", "TransferCocycle.one_step", "schrodinger.one_step"),
]

# factories whose returned generator f(dynamics, offset, axis) is counted;
# a generator built from others (add_generators) counts once per call
GENERATOR_FACTORIES = [
    ("shapelab.cocycle", name, "cocycle.generator") for name in (
        "constant_generator", "fourier_generator", "coboundary_generator",
        "add_generators", "axis_field_generator",
        "twisted_coboundary_generator")
]


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out += _subclasses(sub)
    return out


class Tracer:
    """Per-layer call counts, quantities and self times of one traced
    stretch of work.  ``install`` wraps the targets; ``uninstall`` puts
    the originals back."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.qty: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.stack: list[_Frame] = []
        self.missing: list[str] = []
        self.layers: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []
        self._generator_depth = 0

    def counts(self) -> dict[str, int]:
        """Every nonzero call count and quantity."""
        return {k: v for k, v in {**self.calls, **self.qty}.items() if v}

    # -- wrappers

    def _span(self, layer, fn, measure):
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = _Frame(layer, self)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1].child_s += dt
                self.calls[layer] += 1
                self.self_s[layer] += dt - frame.child_s
                self.total_s[layer] += dt
            if measure is not None:
                measure(self, frame, args, kwargs, result)
            return result

        return traced

    def _count(self, layer, fn, measure):
        def counted(*args, **kwargs):
            self.calls[layer] += 1
            return fn(*args, **kwargs)

        return counted

    def _generator(self, layer, fn):
        def counted(*args, **kwargs):
            if self._generator_depth == 0:
                self.calls[layer] += 1
            self._generator_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._generator_depth -= 1

        return counted

    def _factory(self, layer, fn, measure):
        def factory(*args, **kwargs):
            return self._generator(layer, fn(*args, **kwargs))

        return factory

    # -- installation

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, module_name, target, layer, make, measure):
        module = sys.modules.get(module_name)
        if "." in target:
            cls_name, meth = target.split(".")
            cls = getattr(module, cls_name, None)
            owners = [c for c in (_subclasses(cls) if cls else [])
                      if meth in vars(c)]
            if not owners:
                self.missing.append(f"{module_name}.{target}")
                return
            for c in owners:
                self._replace(c, meth, make(layer, vars(c)[meth], measure))
        else:
            orig = getattr(module, target, None)
            if orig is None:
                self.missing.append(f"{module_name}.{target}")
                return
            wrapper = make(layer, orig, measure)
            for mod in list(sys.modules.values()):
                if mod is None or not (mod.__name__ == "shapelab" or
                                       mod.__name__.startswith("shapelab.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(mod, attr, wrapper)
        self.layers.add(layer)

    def install(self) -> None:
        for module_name, target, layer, measure in SPANS:
            self._wrap(module_name, target, layer, self._span, measure)
        for module_name, target, layer in COUNTS:
            self._wrap(module_name, target, layer, self._count, None)
        for module_name, target, layer in GENERATOR_FACTORIES:
            self._wrap(module_name, target, layer, self._factory, None)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)
