"""Every public function is reached by the reports or kept for a reason.

A function a module lists in __all__ either runs on the census run
(conftest.census: the audit, gr and check-algebra reports built
in-process) or is named in KEPT with one line saying why it stays: a
test oracle, a reader an open ROADMAP item adds, or a name the benchmark
binds.  A public function that is neither is a candidate for deletion,
and a KEPT name the census reaches has a stale reason.
"""

import importlib
import inspect
import pkgutil

import fusionaudit

KEPT = {
    "fusionaudit.audit.reverify_witness":
        "reserved for ROADMAP item 7 (verify replays a report's witnesses)",
    "fusionaudit.gvec.morphism_from_spec":
        "reserved for ROADMAP item 7; imported by perfbench/verify.py",
    "fusionaudit.functors.free_module":
        "reserved for ROADMAP item 5 (module categories)",
    "fusionaudit.functors.induce_mor":
        "reserved for ROADMAP item 5 (module categories)",
    "fusionaudit.functors.validate_module":
        "reserved for ROADMAP item 5 (module categories)",
    "fusionaudit.functors.is_module_morphism":
        "reserved for ROADMAP item 5 (module categories)",
    "fusionaudit.grothendieck.is_zplus_ring":
        "benchmark-bound: a span target of perfbench/spans.py",
    "fusionaudit.grothendieck.is_based_ring":
        "benchmark-bound: a span target of perfbench/spans.py",
    "fusionaudit.grothendieck.is_fusion_ring":
        "benchmark-bound: a span target of perfbench/spans.py",
    "fusionaudit.exactlin.kron":
        "goes with the kron family once perfbench drops its _kernels.kron "
        "span (ROADMAP item 1b)",
    "fusionaudit.fixtures.fixture_spec":
        "benchmark-bound: perfbench/run.py reads fixture specs through it",
    "fusionaudit.fixtures.load_fixture":
        "test oracle input: the tests load their fixtures through it",
    "fusionaudit.trace.trace_table":
        "test oracle: the trace table tests/test_trace.py checks",
    "fusionaudit.gvec.dual_morphism":
        "test oracle: dualize_algebra's maps are checked against it; "
        "dualization-contravariant-involutive (trace, reached=False)",
    "fusionaudit.morphcalc.weak_inverse":
        "test oracle: every-morphism-regular (trace, reached=False)",
    "fusionaudit.functors.check_section_identity":
        "test oracle: section-identity-is-natural-retraction (trace, "
        "reached=False)",
    "fusionaudit.functors.check_cosection_identity":
        "test oracle: a test section-identity-is-natural-retraction cites",
    "fusionaudit.internal.dualize_coalgebra":
        "test oracle: the double dual of dualize_algebra",
    "fusionaudit.internal.validate_coalgebra":
        "test oracle: the coalgebra axioms of dualized algebras",
}


def _public_functions():
    for info in pkgutil.walk_packages(fusionaudit.__path__, "fusionaudit."):
        if info.name.endswith(".__main__"):
            continue  # running it is the CLI, not an import
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                yield "%s.%s" % (module.__name__, name), obj


def test_every_public_function_is_reached_or_kept(census):
    functions = dict(_public_functions())
    assert set(KEPT) <= set(functions), sorted(set(KEPT) - set(functions))
    unreached = {name for name, f in functions.items()
                 if f.__code__ not in census}
    assert unreached - set(KEPT) == set(), "reached by no report, not kept"
    assert set(KEPT) - unreached == set(), "kept, but the reports reach it"
