"""Span tracing for the benchmark's traced runs.

Wrappers go around the public functions of fusionaudit's modules, from
outside the package: nothing under src/ changes.  A wrapper is rebound in
every fusionaudit.* namespace that holds the original function object,
because audit, functors and internal bind names with ``from .gvec import
...``.  The exact-rational kernels are wrapped on the kernel module that
``Matrix`` looks up at call time.

Each call records a span (name, parent span, start, end) in memory.  A
span's self time is its duration minus the time its child spans cover;
``layer_times`` sums self time per layer, so the layers add up to the
covered part of the traced wall time.
"""

import sys
from time import perf_counter

# (module, function, layer).  A layer's self time is the time spent in its
# functions minus the time spent in nested wrapped calls, so unwrapped
# helpers count towards the nearest wrapped caller.
TARGETS = (
    ("fusionaudit.groupoid", "groupoid_from_spec", "groupoid.build"),
    ("fusionaudit.corpus", "algebra_corpus", "corpus.build"),
    ("fusionaudit.grothendieck", "ring_report", "grothendieck.ring"),
    ("fusionaudit.grothendieck", "fusion_iff_separable_check",
     "grothendieck.ring"),
    ("fusionaudit.grothendieck", "is_zplus_ring", "grothendieck.ring"),
    ("fusionaudit.grothendieck", "is_based_ring", "grothendieck.ring"),
    ("fusionaudit.grothendieck", "is_fusion_ring", "grothendieck.ring"),
    ("fusionaudit.gvec", "tensor_mor", "gvec.tensor_mor"),
    ("fusionaudit.gvec", "tensor_obj", "gvec.tensor_mor"),
    ("fusionaudit.gvec", "compose", "gvec.compose"),
    ("fusionaudit.gvec", "kernel", "gvec.kernel"),
    ("fusionaudit.gvec", "cokernel", "gvec.kernel"),
    ("fusionaudit.gvec", "is_mono", "gvec.kernel"),
    ("fusionaudit.gvec", "is_epi", "gvec.kernel"),
    ("fusionaudit.gvec", "is_iso", "gvec.kernel"),
    ("fusionaudit.exactlin._kernels", "matmul", "exactlin.kernels"),
    ("fusionaudit.exactlin._kernels", "kron", "exactlin.kernels"),
    ("fusionaudit.exactlin._kernels", "rref", "exactlin.kernels"),
    ("fusionaudit.functors", "separability_verdict", "functors.separability"),
    ("fusionaudit.functors", "coseparability_verdict",
     "functors.separability"),
    ("fusionaudit.functors", "is_faithful_tensor", "functors.faithful"),
    ("fusionaudit.functors", "is_faithful_cotensor", "functors.faithful"),
    ("fusionaudit.functors", "reflection_checks", "functors.reflection"),
    ("fusionaudit.functors", "coreflection_checks", "functors.reflection"),
    ("fusionaudit.functors", "check_inclusion_frobenius",
     "functors.subset_functors"),
    ("fusionaudit.functors", "check_projection_lax_colax",
     "functors.subset_functors"),
    ("fusionaudit.functors", "frobenius_pair_check",
     "functors.subset_functors"),
    ("fusionaudit.functors", "check_rj_algebra", "functors.subset_functors"),
    ("fusionaudit.functors", "idempotent_e", "functors.idempotent"),
    ("fusionaudit.internal", "restriction_data", "internal.restriction"),
    ("fusionaudit.morphcalc", "find_retraction", "morphcalc.solve"),
    ("fusionaudit.morphcalc", "find_section", "morphcalc.solve"),
)


def _corpus_sizes(algebras):
    mults = [m for a in algebras for m in a.carrier.mult.values()]
    return len(algebras), sum(mults), max(mults, default=0)


def _found(morphism):
    return morphism is not None


# What the benchmark keeps from return values: corpus sizes, and whether a
# retraction or section search found one.
OBSERVE = {
    "fusionaudit.corpus.algebra_corpus": _corpus_sizes,
    "fusionaudit.morphcalc.find_retraction": _found,
    "fusionaudit.morphcalc.find_section": _found,
}

SERIALISE = "audit.serialise"

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TARGETS)) \
    + (SERIALISE,)


def _resolve(path):
    """Module object for a dotted path; ``fusionaudit.exactlin._kernels`` is
    the kernel module the package selected at import."""
    obj = sys.modules["fusionaudit"]
    for part in path.split(".")[1:]:
        obj = getattr(obj, part)
    return obj


class Tracer:
    """In-memory span recorder.

    ``spans`` holds one (function, parent index, start, end) tuple per
    finished call, stored at the index the call was given when it started;
    the parent index is -1 for a span that no other span encloses.
    """

    def __init__(self):
        self.spans = []
        self.results = {}
        self._stack = []
        self._installed = []

    def span(self, name, fn, observe=None):
        """Return fn wrapped so that each call records a span called name.
        With observe, ``observe(return value)`` is kept in
        ``results[name]``."""
        spans, stack = self.spans, self._stack
        kept = self.results.setdefault(name, []) if observe else None

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, parent, start, end)
            if kept is not None:
                kept.append(observe(out))
            return out

        return traced

    def install(self):
        """Wrap every TARGETS function in every fusionaudit namespace that
        holds it.  The modules must already be imported."""
        namespaces = [m for n, m in sys.modules.items()
                      if n == "fusionaudit" or n.startswith("fusionaudit.")]
        for modname, attr, _ in TARGETS:
            original = getattr(_resolve(modname), attr)
            name = modname + "." + attr
            wrapped = self.span(name, original, OBSERVE.get(name))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapped)
                        self._installed.append((ns, key, original))

    def uninstall(self):
        for ns, key, original in reversed(self._installed):
            setattr(ns, key, original)
        self._installed.clear()

    def summary(self):
        """A JSON-ready digest of the spans: per function [calls, self
        seconds], the seconds covered by spans that no other span encloses,
        and the counts kept from return values."""
        child = [0.0] * len(self.spans)
        covered = 0.0
        for name, parent, start, end in self.spans:
            if parent < 0:
                covered += end - start
            else:
                child[parent] += end - start
        per = {}
        for (name, _, start, end), inner in zip(self.spans, child):
            entry = per.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += end - start - inner
        sizes = self.results.get("fusionaudit.corpus.algebra_corpus", [])
        found = [x for name in ("fusionaudit.morphcalc.find_retraction",
                                "fusionaudit.morphcalc.find_section")
                 for x in self.results.get(name, [])]
        counts = {
            "corpus.algebras": sum(s[0] for s in sizes),
            "corpus.carrier_total": sum(s[1] for s in sizes),
            "corpus.max_grade_mult": max((s[2] for s in sizes), default=0),
            "morphcalc.found": sum(found),
            "morphcalc.searched": len(found),
        }
        return {"functions": per, "covered_s": covered, "counts": counts}


def layer_times(per_function):
    """Self seconds per layer from a summary's function table."""
    layer_of = {m + "." + f: layer for m, f, layer in TARGETS}
    out = dict.fromkeys(LAYERS, 0.0)
    for name, (_, self_s) in per_function.items():
        out[layer_of.get(name, name)] += self_s
    return out


def merge(summaries):
    """One summary for several, such as those of a pass's child processes."""
    out = {"functions": {}, "covered_s": 0.0, "counts": {}}
    for s in summaries:
        for name, (calls, self_s) in s["functions"].items():
            entry = out["functions"].setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        out["covered_s"] += s["covered_s"]
        for key, value in s["counts"].items():
            if key == "corpus.max_grade_mult":
                out["counts"][key] = max(out["counts"].get(key, 0), value)
            else:
                out["counts"][key] = out["counts"].get(key, 0) + value
    return out
