"""Spans around every public toricgh function, installed from outside the package.

``Tracer.install()`` wraps each public function and public method defined
in the layer modules below and rebinds it at every import site: the
defining module, every other ``toricgh`` module that imported the name
(``toricgh.localization.exact_rank``, ``toricgh.cli.facet_enumeration``)
and the package namespace.  Methods are wrapped on their class, which all
importers share.  ``uninstall()`` puts the originals back.

A span records its inclusive time and its self time, which is the
inclusive time minus the time spent in child spans.  Self times of all
spans plus the time no span covers add up to the traced wall time.
``polynomial`` and ``cli`` are deliberately not wrapped: polynomial
arithmetic runs millions of times and lands in its caller's self time,
and the cli functions are what the benchmark itself stands in for.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = (
    "lattice", "toric", "verma", "geometry", "shelling", "rigidity",
    "localization", "catalog",
)

# Groups whose outermost call is what a metric counts: face() calls
# interval() and nullspace() calls rref(), which must not count twice.
GROUPS = {
    "sublattice": {
        "lattice.FaceLattice.interval", "lattice.FaceLattice.face",
        "lattice.FaceLattice.quotient", "lattice.FaceLattice.dual",
    },
    "kernel": {
        "geometry.exact_rank", "geometry.kernel_dimension",
        "geometry.nullspace", "geometry.rref", "geometry.solve",
    },
    "facet_enumeration": {"geometry.facet_enumeration"},
}

# Import sites the metrics depend on.  A refactor may remove any of them;
# the run then reports the name as absent and its metrics read 0.
EXPECTED_BINDINGS = (
    "toricgh.lattice.FaceLattice.build",
    "toricgh.lattice.FaceLattice.from_vertex_facets",
    "toricgh.lattice.FaceLattice.from_json",
    "toricgh.lattice.FaceLattice.interval",
    "toricgh.lattice.FaceLattice.face",
    "toricgh.lattice.FaceLattice.quotient",
    "toricgh.lattice.FaceLattice.dual",
    "toricgh.toric.flag_vector",
    "toricgh.toric.check_kalai_identity",
    "toricgh.toric.face_g",
    "toricgh.toric.quotient_g",
    "toricgh.verma.polar_g",
    "toricgh.verma.check_reciprocity",
    "toricgh.verma.quotient_g",
    "toricgh.geometry.facet_enumeration",
    "toricgh.geometry.exact_rank",
    "toricgh.geometry.kernel_dimension",
    "toricgh.geometry.nullspace",
    "toricgh.geometry.rref",
    "toricgh.geometry.solve",
    "toricgh.catalog.facet_enumeration",
    "toricgh.catalog.cyclic_facets",
    "toricgh.cli.facet_enumeration",
    "toricgh.shelling.line_shelling",
    "toricgh.shelling.shelling_decomposition",
    "toricgh.shelling.face_g",
    "toricgh.rigidity.build_framework",
    "toricgh.rigidity.exact_rank",
    "toricgh.rigidity.kernel_dimension",
    "toricgh.localization.classify_faces",
    "toricgh.localization.sample_directions",
    "toricgh.localization.exact_rank",
    "toricgh.localization.nullspace",
)


def _size(args):
    rows = args[0] if args else ()
    return len(rows) * len(rows[0]) if len(rows) else 0


# Work counters read off a call's result, per span key.
COUNTERS = {
    "lattice.FaceLattice.build": ("faces_built", lambda r: len(r.faces)),
    "geometry.facet_enumeration": ("facets_found", lambda r: len(r.facets)),
    "rigidity.build_framework": ("bars", lambda r: r.n_edges),
    "localization.sample_directions": ("directions", lambda r: len(r)),
}


class Tracer:
    """Collects span statistics; one instance per traced process."""

    def __init__(self):
        self.restore = []          # (owner, attribute, original)
        self.wrapped = {}          # id(module-level function) -> wrapper
        self.absent = []
        self.stack = []            # open spans: [child_s] each
        self.reset()

    def reset(self):
        self.stats = {}            # key -> [calls, inclusive_s, self_s]
        self.outer = {g: [0, 0.0] for g in GROUPS}   # outermost calls, inclusive_s
        self.counts = {}
        self.kernel_under_enumeration = 0     # kernel calls inside facet_enumeration
        self.kernel_under_localization = 0
        self.kernel_s_under_rigidity = 0.0
        self.depth = {g: 0 for g in GROUPS}
        self.layer_depth = {layer: 0 for layer in LAYERS}

    # -- installation -------------------------------------------------

    def install(self):
        mods = {layer: importlib.import_module(f"toricgh.{layer}") for layer in LAYERS}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    self._wrap_function(f"{layer}.{name}", layer, obj)
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not issubclass(obj, BaseException)):
                    self._wrap_class(layer, obj)
        # rebind every import site of every wrapped function
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "toricgh" or modname.startswith("toricgh.")):
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = self.wrapped.get(id(obj))
                if wrapper is not None:
                    self.restore.append((mod, name, obj))
                    setattr(mod, name, wrapper)
        self.absent = [b for b in EXPECTED_BINDINGS if not self._is_wrapped(b)]

    def uninstall(self):
        for owner, name, original in reversed(self.restore):
            setattr(owner, name, original)
        self.restore = []
        self.wrapped = {}

    def _wrap_class(self, layer, cls):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(raw, staticmethod):
                wrapper = staticmethod(self._span(f"{layer}.{cls.__name__}.{name}", layer, raw.__func__))
            elif isinstance(raw, classmethod):
                wrapper = classmethod(self._span(f"{layer}.{cls.__name__}.{name}", layer, raw.__func__))
            elif inspect.isfunction(raw):
                wrapper = self._span(f"{layer}.{cls.__name__}.{name}", layer, raw)
            else:
                continue            # properties, constants, dataclass fields
            self.restore.append((cls, name, raw))
            setattr(cls, name, wrapper)

    def _wrap_function(self, key, layer, fn):
        self.wrapped[id(fn)] = self._span(key, layer, fn)

    def _is_wrapped(self, dotted):
        parts = dotted.split(".")
        try:
            obj = importlib.import_module(".".join(parts[:2]))
            for attr in parts[2:]:
                obj = inspect.getattr_static(obj, attr)
        except (ImportError, AttributeError):
            return False
        if isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
        return getattr(obj, "_span_key", None) is not None

    # -- the span -----------------------------------------------------

    def _span(self, key, layer, fn):
        groups = tuple(g for g, members in GROUPS.items() if key in members)
        counter = COUNTERS.get(key)
        kernel = key in GROUPS["kernel"]
        clock = time.perf_counter
        stack = self.stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stats = self.stats.get(key)
            if stats is None:
                stats = self.stats[key] = [0, 0.0, 0.0]
            outermost = tuple(g for g in groups if self.depth[g] == 0)
            if kernel and outermost:
                self._kernel_entry(args)
            for g in groups:
                self.depth[g] += 1
            self.layer_depth[layer] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self.layer_depth[layer] -= 1
                for g in groups:
                    self.depth[g] -= 1
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                for g in outermost:
                    self.outer[g][0] += 1
                    self.outer[g][1] += dt
                if kernel and outermost and self.layer_depth["rigidity"]:
                    self.kernel_s_under_rigidity += dt
            if counter is not None:
                name, read = counter
                self.counts[name] = self.counts.get(name, 0) + read(result)
            return result

        span._span_key = key
        return span

    def _kernel_entry(self, args):
        self.counts["rank_entries"] = self.counts.get("rank_entries", 0) + _size(args)
        if self.depth["facet_enumeration"]:
            self.kernel_under_enumeration += 1
        if self.layer_depth["localization"]:
            self.kernel_under_localization += 1

    # -- metrics ------------------------------------------------------

    def _key(self, key, field):
        return self.stats.get(key, (0, 0.0, 0.0))[field]

    def _layer(self, layer, field):
        prefix = layer + "."
        return sum(s[field] for k, s in self.stats.items() if k.startswith(prefix))

    def covered_s(self):
        """Time inside some span: the sum of every span's self time."""
        return sum(s[2] for s in self.stats.values())

    def layer_metrics(self):
        """The per-layer metrics of one traced pass, by name."""
        k, lay, c = self._key, self._layer, self.counts.get
        kernel_calls, kernel_s = self.outer["kernel"]
        under_enum = self.kernel_under_enumeration
        facets = c("facets_found", 0)
        return {
            "lattice.build_calls": k("lattice.FaceLattice.build", 0),
            "lattice.build_self_s": k("lattice.FaceLattice.build", 2),
            "lattice.faces_built": c("faces_built", 0),
            "lattice.sublattice_calls": self.outer["sublattice"][0],
            "lattice.sublattice_s": self.outer["sublattice"][1],
            "lattice.from_vertex_facets_s": k("lattice.FaceLattice.from_vertex_facets", 1),
            "toric.calls": lay("toric", 0),
            "toric.self_s": lay("toric", 2),
            "toric.flag_vector_s": k("toric.flag_vector", 1),
            "toric.kalai_s": k("toric.check_kalai_identity", 1),
            "verma.calls": lay("verma", 0),
            "verma.self_s": lay("verma", 2),
            "verma.polar_g_calls": k("verma.polar_g", 0),
            "verma.polar_g_s": k("verma.polar_g", 1),
            "verma.reciprocity_s": k("verma.check_reciprocity", 1),
            "geometry.facet_enumeration_calls": self.outer["facet_enumeration"][0],
            "geometry.facet_enumeration_s": self.outer["facet_enumeration"][1],
            "geometry.facet_enumeration_self_s": k("geometry.facet_enumeration", 2),
            "geometry.facets_found": facets,
            "geometry.kernel_calls": kernel_calls,
            "geometry.kernel_s": kernel_s,
            "geometry.rank_entries": c("rank_entries", 0),
            "geometry.facet_yield": facets / under_enum if under_enum else 0.0,
            "shelling.shellings": k("shelling.line_shelling", 0),
            "shelling.line_shelling_s": k("shelling.line_shelling", 1),
            "shelling.decomposition_s": k("shelling.shelling_decomposition", 1),
            "rigidity.bars": c("bars", 0),
            "rigidity.framework_s": k("rigidity.build_framework", 1),
            "rigidity.rank_s": self.kernel_s_under_rigidity,
            "localization.directions": c("directions", 0),
            "localization.classify_s": k("localization.classify_faces", 1),
            "localization.rank_calls": self.kernel_under_localization,
            "catalog.lattice_self_s": lay("catalog", 2),
        }

    def layer_calls(self):
        return {layer: self._layer(layer, 0) for layer in LAYERS}

    def layer_self(self):
        return {layer: self._layer(layer, 2) for layer in LAYERS}
