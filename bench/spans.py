"""In-process tracing of qvbench's layers for the benchmark's traced run.

`install(tracer)` wraps the public functions of each qvbench module, from
outside the package.  Every wrapped call records a span (layer, start, end,
parent) in memory, and some also bump a work count.  Self time per layer is
derived afterwards from the span tree.

`from .core import f` copies `f` into the importing module, so a wrapper
replaces every binding of the original in every loaded qvbench module, and a
method is replaced on its class.  `eval_term` and `FiniteAlgebra.apply` run
millions of times per pass and get no per-call span; their time shows in the
layer that calls them.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

PASS = "pass"  # root span of one command; its self time is unattributed


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.active = Counter()  # layer -> open spans of that layer
        self.counts = Counter()

    def layer_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.layers)
            self.layers.append(name)
        return self._ids[name]

    def open(self, layer: int) -> int:
        i = len(self.start)
        self.layer.append(layer)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(self.clock())
        self.end.append(0.0)
        self.stack.append(i)
        self.active[layer] += 1
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        self.stack.pop()
        self.active[self.layer[i]] -= 1

    def spans(self) -> list[tuple]:
        """(layer name, start, end, parent index) per recorded span."""
        return [
            (self.layers[l], s, e, p)
            for l, s, e, p in zip(self.layer, self.start, self.end, self.parent)
        ]


def self_times(spans) -> dict[str, float]:
    """Self time per layer: each span's duration minus the part of its
    interval that its child spans cover, summed by layer name."""
    children: dict[int, list] = {}
    for i, (_, s, e, p) in enumerate(spans):
        if p >= 0:
            children.setdefault(p, []).append((s, e))
    out: dict[str, float] = {}
    for i, (name, s, e, _) in enumerate(spans):
        covered, reach = 0.0, s
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, reach), min(ce, e)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out[name] = out.get(name, 0.0) + (e - s) - covered
    return out


def call_tree(spans) -> dict[str, list]:
    """Spans aggregated by their path of layer names from the root:
    path -> [spans, total seconds]."""
    paths: list[str] = []
    tree: dict[str, list] = {}
    for name, s, e, p in spans:  # a parent is recorded before its children
        path = f"{paths[p]}/{name}" if p >= 0 else name
        paths.append(path)
        entry = tree.setdefault(path, [0, 0.0])
        entry[0] += 1
        entry[1] += e - s
    return tree


# ---------------------------------------------------------------------------
# Layers and counts


# A count function gets the tracer, the call's arguments, its result and
# whether an lru_cache answered it.


def _calls(key):
    def count(t, args, result, hit):
        t.counts[key] += 1
    return count


def _sized(key, size):
    def count(t, args, result, hit):
        t.counts[key] += size(result)
    return count


def _subuniverses(t, args, result, hit):
    t.counts["core.subuniverses.found"] += len(result)


def _registry_add(t, args, result, hit):
    kept = int(result[1])
    t.counts["core.iso.adds"] += 1
    t.counts["core.iso.kept"] += kept
    if t.active[t.layer_id("quasivariety.axiomatic")]:
        t.counts["quasivariety.axiomatic.models"] += 1
        t.counts["quasivariety.axiomatic.kept"] += kept


def _hom(t, args, result, hit):
    t.counts["core.hom.calls"] += 1
    t.counts["core.hom.maps"] += len(result) if isinstance(result, list) else int(result is not None)


def _members(t, args, result, hit):
    if not args[0].is_generated:
        return
    if hit:
        t.counts["quasivariety.members.cache_hits"] += 1
    else:
        t.counts["quasivariety.members.classes"] += len(result)


def _induced(t, args, result, hit):
    if hit:
        t.counts["implicit.induced.cache_hits"] += 1
    else:
        t.counts["implicit.induced.entries"] += len(getattr(result, "graph", ()))


def _free_extension(t, args, result, hit):
    if not hit:
        t.counts["adjunction.free_extension.factors"] += result.factor_count


def _member_layer(args) -> str:
    return "quasivariety.members" if args[0].is_generated else "quasivariety.axiomatic"


# (module, attribute, layer or function of the call's arguments, count)
TARGETS = (
    ("parser", "parse_workspace", "parser", _calls("parser.calls")),
    ("cli", "emit_report", "cli.emit", _sized("cli.report_bytes", len)),
    ("core", "closure", "core.closure", _calls("core.closure.calls")),
    ("core", "closure_extend", "core.closure", _calls("core.closure.calls")),
    ("core", "generated_subalgebra", "core.closure", None),
    ("core", "all_subuniverses", "core.closure", _subuniverses),
    ("core", "subalgebra", "core.subalgebra", _calls("core.subalgebra.calls")),
    ("core", "IsoRegistry.add", "core.iso", _registry_add),
    ("core", "canonical_tables", "core.iso", None),
    ("core", "fingerprint", "core.iso", None),
    ("core", "are_isomorphic", "core.iso", None),
    ("core", "enumerate_homomorphisms", "core.hom", _hom),
    ("core", "enumerate_embeddings", "core.hom", _hom),
    ("core", "find_isomorphism", "core.hom", _hom),
    ("core", "direct_product", "core.product", _sized("core.product.elements", lambda r: r.size)),
    ("quasivariety", "members_up_to", "quasivariety.members", None),
    ("quasivariety", "enumerate_members", "quasivariety.members", None),
    ("quasivariety", "_member_classes", _member_layer, _members),
    ("quasivariety", "_axiomatic_models", "quasivariety.axiomatic", None),
    ("quasivariety", "generate_in_product", "quasivariety.generate",
     _sized("quasivariety.generate.elements", lambda r: len(r.elements))),
    ("quasivariety", "free_algebra", "quasivariety.generate", None),
    ("quasivariety", "membership", "quasivariety.membership", None),
    ("quasivariety", "relative_congruence", "quasivariety.membership", None),
    ("logic", "check_quasiequation", "logic.quasiequation", None),
    ("logic", "satisfies_pp", "logic.pp", _calls("logic.pp.calls")),
    ("implicit", "induced_partial_op", "implicit.induced", _induced),
    ("implicit", "check_extendable", "implicit", None),
    ("implicit", "check_totalizable", "implicit", None),
    ("implicit", "check_unique_witnesses", "implicit", None),
    ("implicit", "check_preservation", "implicit", None),
    ("implicit", "bounded_pp_definability_search", "implicit", None),
    ("adjunction", "free_extension", "adjunction.free_extension", _free_extension),
    ("adjunction", "expand_algebra", "adjunction", None),
    ("adjunction", "counit", "adjunction", None),
    ("adjunction", "check_unit_mono", "adjunction", None),
    ("adjunction", "check_counit_iso", "adjunction", None),
    ("adjunction", "pp_expansion_membership", "adjunction", None),
    ("adjunction", "universal_property_check", "adjunction", None),
    ("beth", "apply_translation", "beth", None),
    ("beth", "expansion_members", "beth", None),
    ("beth", "check_simple", "beth", None),
    ("beth", "check_interpolation_criterion", "beth", None),
    ("beth", "check_beth_companion", "beth", None),
    ("beth", "check_regular_mono", "beth", None),
    ("beth", "check_mono_reflective", "beth", None),
    ("beth", "unit_counit_verdict", "beth", None),
    ("beth", "check_faithful_term_equivalence", "beth", None),
    ("beth", "cross_validate_main_theorem", "beth", None),
    ("beth", "check_simplicity_transfer", "beth", None),
)

# Layers whose self time the benchmark reports, and every count it reports.
LAYERS = (
    "parser", "cli.emit", "core.closure", "core.subalgebra", "core.iso", "core.hom",
    "core.product", "quasivariety.members", "quasivariety.axiomatic",
    "quasivariety.generate", "quasivariety.membership", "logic.quasiequation",
    "logic.pp", "implicit.induced", "implicit", "adjunction.free_extension",
    "adjunction", "beth",
)
COUNTS = (
    "parser.calls", "cli.report_bytes", "core.closure.calls", "core.subuniverses.found",
    "core.subalgebra.calls", "core.iso.adds", "core.hom.calls", "core.hom.maps",
    "core.product.elements", "quasivariety.members.classes", "quasivariety.members.cache_hits",
    "quasivariety.axiomatic.models", "quasivariety.generate.elements", "logic.pp.calls",
    "implicit.induced.entries", "implicit.induced.cache_hits", "adjunction.free_extension.factors",
)


def _wrap(tracer: Tracer, fn, layer, count, cached: bool):
    fixed = None if callable(layer) else tracer.layer_id(layer)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        hits = fn.cache_info().hits if cached else 0
        i = tracer.open(fixed if fixed is not None else tracer.layer_id(layer(args)))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if count is not None:
            count(tracer, args, result, cached and fn.cache_info().hits > hits)
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every target in every loaded qvbench module."""
    loaded = [m for name, m in sys.modules.items() if name == "qvbench" or name.startswith("qvbench.")]
    for module, attr, layer, count in TARGETS:
        owner = sys.modules[f"qvbench.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, _wrap(tracer, getattr(cls, meth), layer, count, False))
            continue
        original = getattr(owner, attr)
        wrapped = _wrap(tracer, original, layer, count, hasattr(original, "cache_info"))
        for m in loaded:
            for name, value in list(vars(m).items()):
                if value is original:
                    setattr(m, name, wrapped)


def layer_metrics(tracer: Tracer, scale: float) -> dict:
    """Self time per named layer and the unattributed remainder, each times
    `scale` (the host-speed factor of the pass), and every count."""
    selfs = self_times(tracer.spans())
    out = {f"{name}.self_s": selfs.get(name, 0.0) * scale for name in LAYERS}
    out["trace.unattributed_s"] = selfs.get(PASS, 0.0) * scale
    c = tracer.counts
    out.update({k: c[k] for k in COUNTS})
    # Classes kept per IsoRegistry.add: low means most candidates were copies.
    out["core.iso.kept_ratio"] = c["core.iso.kept"] / max(c["core.iso.adds"], 1)
    out["quasivariety.axiomatic.kept_ratio"] = (
        c["quasivariety.axiomatic.kept"] / max(c["quasivariety.axiomatic.models"], 1)
    )
    return out
