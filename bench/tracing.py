"""Per-layer tracing from outside the engine.

A layer is a module of ``mclab``.  ``Tracer.install`` wraps every public
function of every ``mclab.*`` module and rebinds the wrapper under each name
that holds the original in any ``mclab`` namespace, because modules call
each other through names bound by ``from .x import f``.  ``uninstall`` puts
the originals back.  It also counts ``FiniteCategory`` constructions.

Every wrapped call is counted.  A call that crosses into a layer from
another one (or from the benchmark) is a span: name, start, end and parent
span, kept in memory and written out by ``write_spans``.  The own-layer
time of a call is its duration minus the time of the spans it encloses.
``<layer>.self_s`` sums it over the layer's spans; a function's ``self_s``
sums it over that function's calls that are not nested in itself.
Generator functions are counted but get no span: their work runs in the
caller's span while it iterates.
"""

from __future__ import annotations

import array
import gzip
import inspect
import statistics
import sys
import time

LAYERS = (
    "fincat", "lifting", "premodel", "homotopy", "saturate", "localize", "classify",
    "olschok", "parser", "run", "report", "cli", "fixtures",
)

CALLS = {
    "fincat.initial_terminal.calls": ("fincat.initial_object", "fincat.terminal_object"),
    "fincat.colimit.calls": ("fincat.colimit",),
    "fincat.opposite.calls": ("fincat.opposite",),
    "fincat.validate_category.calls": ("fincat.validate_category",),
    "lifting.llp.calls": ("lifting.llp",),
    # llp enumerates squares only when its memo misses
    "lifting.llp.computed": ("lifting.squares_between",),
    "lifting.complement.calls": ("lifting.complement_llp", "lifting.complement_rlp"),
    "lifting.factor.calls": ("lifting.factor",),
    "lifting.verify_wfs.calls": ("lifting.verify_wfs",),
    "premodel.object_status.calls": ("premodel.is_cofibrant", "premodel.is_fibrant"),
    "premodel.acyclic.calls": ("premodel.acyclic_cofibrations", "premodel.acyclic_fibrations"),
    "premodel.verify_premodel.calls": ("premodel.verify_premodel",),
    "premodel.saturation_flags.calls": ("premodel.saturation_flags",),
    "premodel.dualize.calls": ("premodel.dualize",),
    "homotopy.find_cylinder.calls": ("homotopy.find_cylinder",),
    "homotopy.verify_weak_model.calls": ("homotopy.verify_weak_model",),
    "homotopy.is_equivalence.calls": ("homotopy.is_equivalence",),
    "classify.classify_full.calls": ("classify.classify_full",),
    "classify.compute_WL_WR.calls": ("classify.compute_WL", "classify.compute_WR"),
    "classify.quillen_check.calls": ("classify.quillen_check",),
    "saturate.saturate.calls": ("saturate.saturate",),
    "localize.left_bousfield.calls": ("localize.left_bousfield",),
    "localize.right_bousfield.calls": ("localize.right_bousfield",),
    "localize.nabla.calls": ("localize.nabla",),
    "olschok.olschok_model.calls": ("olschok.olschok_model",),
    "run.execute.calls": ("run.execute",),
}
SELF = {
    "lifting.complement.self_s": ("lifting.complement_llp", "lifting.complement_rlp"),
    "parser.load.self_s": ("parser.load",),
    "run.execute.self_s": ("run.execute",),
    "report.render.self_s": ("report.to_text", "report.to_machine"),
    "cli.main.self_s": ("cli.main",),
}
# name -> (numerator, denominator, numerator counts non-None results)
RATIOS = {
    "lifting.factor.found_ratio": ("lifting.factor", "lifting.factor", True),
    "homotopy.find_cylinder.found_ratio": ("homotopy.find_cylinder", "homotopy.find_cylinder", True),
    "classify.weak_model_per_classify": ("homotopy.verify_weak_model", "classify.classify_full", False),
}


def metric_units():
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units[layer + ".calls"] = "count"
        units[layer + ".self_s"] = "s"
    units.update({k: "count" for k in CALLS})
    units["fincat.categories_built"] = "count"
    units["lifting.llp.hit_ratio"] = "ratio"
    units.update({k: "ratio" for k in RATIOS})
    units.update({k: "s" for k in SELF})
    units["trace.spans"] = "count"
    return units


class Tracer:
    """Wraps the currently imported ``mclab`` modules; see the module docstring."""

    def __init__(self):
        self.fincat = sys.modules["mclab.fincat"]
        self.modules = [m for n, m in sys.modules.items() if n == "mclab" or n.startswith("mclab.")]
        self.names, self.layer_of, originals = [], [], []
        for mod in self.modules:
            if mod.__name__ == "mclab":
                continue
            layer = mod.__name__.split(".", 1)[1]
            for attr, fn in sorted(vars(mod).items()):
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    self.names.append("%s.%s" % (layer, fn.__name__))
                    self.layer_of.append(layer)
                    originals.append(fn)
        self.originals = originals
        self.passes = []
        self.spans = None
        self._patches = []

    def _reset(self):
        n = len(self.names)
        self.calls = [0] * n
        self.found = [0] * n
        self.fn_self = [0.0] * n
        self.layer_self = {}
        self.built = 0
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")

    def _wrap(self, fn, idx):
        calls = self.calls
        if inspect.isgeneratorfunction(fn):
            def counted(*args, **kwargs):
                calls[idx] += 1
                return fn(*args, **kwargs)

            return counted

        found, fn_self, layer_self = self.found, self.fn_self, self.layer_self
        layer = self.layer_of[idx]
        layer_self.setdefault(layer, 0.0)
        stack = self._stack
        s_name, s_parent, s_start, s_end = (
            self.span_name, self.span_parent, self.span_start, self.span_end,
        )
        perf = time.perf_counter

        def traced(*args, **kwargs):
            calls[idx] += 1
            parent = stack[-1] if stack else None
            # Only calls that cross into this layer are stored as spans; the
            # frame of any other call points at its nearest stored ancestor.
            boundary = parent is None or parent[2] != layer
            if boundary:
                sid = len(s_name)
                s_name.append(idx)
                s_parent.append(parent[0] if parent else -1)
                s_start.append(0.0)
                s_end.append(0.0)
            else:
                sid = parent[0]
            frame = [sid, idx, layer, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
                if out is not None:
                    found[idx] += 1
                return out
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                own = d - frame[3]
                if parent is None or parent[1] != idx:
                    fn_self[idx] += own
                if boundary:
                    s_start[sid] = t0
                    s_end[sid] = t1
                    layer_self[layer] += own
                    if parent is not None:
                        parent[3] += d
                else:
                    parent[3] += frame[3]

        return traced

    def install(self):
        self._reset()
        self._stack = []
        wrappers = {fn: self._wrap(fn, i) for i, fn in enumerate(self.originals)}
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        cls = self.fincat.FiniteCategory
        init = cls.__init__

        def counted_init(obj, *args, **kwargs):
            self.built += 1
            init(obj, *args, **kwargs)

        self._patches.append((cls, "__init__", init))
        cls.__init__ = counted_init

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)
        self.passes.append(self._pass_metrics())
        if self.spans is None:
            self.spans = (self.span_name, self.span_parent, self.span_start, self.span_end)

    def _pass_metrics(self):
        index = {n: i for i, n in enumerate(self.names)}

        def calls(names):
            return sum(self.calls[index[n]] for n in names if n in index)

        out = {}
        for layer in LAYERS:
            out[layer + ".calls"] = sum(
                c for c, l in zip(self.calls, self.layer_of) if l == layer
            )
            out[layer + ".self_s"] = self.layer_self.get(layer, 0.0)
        for key, names in CALLS.items():
            out[key] = calls(names)
        out["fincat.categories_built"] = self.built
        llp = calls(("lifting.llp",))
        out["lifting.llp.hit_ratio"] = 1.0 - calls(("lifting.squares_between",)) / llp if llp else 0.0
        for key, (num, den, non_none) in RATIOS.items():
            d = calls((den,))
            n = self.found[index[num]] if non_none and num in index else calls((num,))
            out[key] = n / d if d else 0.0
        for key, names in SELF.items():
            out[key] = sum(self.fn_self[index[n]] for n in names if n in index)
        out["trace.spans"] = len(self.span_name)
        return out

    def metrics(self):
        """Median over traced passes of each per-layer metric, with units."""
        return {
            k: (statistics.median(p[k] for p in self.passes), u) for k, u in metric_units().items()
        }

    def write_spans(self, path):
        """The first traced pass's spans: id, name, parent id, start, end."""
        name, parent, start, end = self.spans
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tparent\tstart\tend\n")
            for i in range(len(name)):
                fh.write("%d\t%s\t%d\t%.9f\t%.9f\n" % (i, self.names[name[i]], parent[i], start[i], end[i]))
