"""Every public function and method is reached by the reports or kept for
a reason.

A function a module lists in __all__, or a method defined in the body of
a class it lists there, either runs on the census run (conftest.census:
the audit, gr and check-algebra reports built in-process) or is named in
KEPT with one line saying why it stays: a test oracle, a failure path, a
reader an open ROADMAP item adds, or a name the benchmark binds.  One
that is neither is a candidate for deletion, and a KEPT name the census
reaches has a stale reason.
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
    "fusionaudit.grothendieck.grothendieck_ring":
        "test oracle: the ring the general checks decide, against which "
        "ring_report's verdicts are held",
    # methods
    "fusionaudit.errors.GroupoidError.__init__":
        "failure path: every invalid groupoid spec raises it",
    "fusionaudit.exactlin.Matrix.__setattr__":
        "keeps matrices immutable: any assignment raises",
    "fusionaudit.exactlin.Matrix.entries":
        "test oracle: the dense view the sparse kernels are checked against",
    "fusionaudit.exactlin.Matrix.__getitem__":
        "test oracle: a dense view the sparse storage is checked against",
    "fusionaudit.exactlin.Matrix.tolist":
        "test oracle: a dense view the sparse storage is checked against",
    "fusionaudit.exactlin.Matrix.__hash__":
        "goes with __eq__, so that equal matrices hash equal",
    "fusionaudit.exactlin.Matrix.__repr__":
        "failure path: names the matrix in a failing assertion",
    "fusionaudit.exactlin.Matrix.scale":
        "failure path: GradedMorphism.scale under validate_algebra's "
        "mismatch message",
    "fusionaudit.exactlin.Matrix.kron":
        "goes with the kron family once perfbench drops its _kernels.kron "
        "span (ROADMAP item 1b)",
    "fusionaudit.functors.ModuleObject.__init__":
        "reserved for ROADMAP item 5 (module categories)",
    "fusionaudit.functors.ModuleObject.__eq__":
        "reserved for ROADMAP item 5 (module categories)",
    "fusionaudit.functors.ModuleObject.__hash__":
        "reserved for ROADMAP item 5 (module categories)",
    "fusionaudit.grothendieck.BasedRingData.__init__":
        "test oracle: the checking constructor grothendieck_ring and the "
        "mutation tests build through",
    "fusionaudit.grothendieck.BasedRingData.rank":
        "test oracle: the rank of a ring the general checks decide",
    "fusionaudit.grothendieck.BasedRingData.entries":
        "test oracle: the constants tests expand to the dense rank^3 array",
    "fusionaudit.groupoid.Groupoid.__eq__":
        "structural equality; objects over equal but distinct groupoids "
        "compare through it",
    "fusionaudit.groupoid.Groupoid.__hash__":
        "goes with __eq__; GradedObject.__hash__ hashes its groupoid",
    "fusionaudit.groupoid.Groupoid.__repr__":
        "failure path: names the groupoid in a failing assertion",
    "fusionaudit.gvec.GradedObject.__init__":
        "refuses the public constructor: objects come from the producers",
    "fusionaudit.gvec.GradedObject.__hash__":
        "goes with __eq__, so that equal objects hash equal",
    "fusionaudit.gvec.GradedObject.__repr__":
        "failure path: names the object in a failing assertion",
    "fusionaudit.gvec.GradedMorphism.__hash__":
        "goes with __eq__, so that equal morphisms hash equal",
    "fusionaudit.gvec.GradedMorphism.__repr__":
        "failure path: names the morphism in a failing assertion",
    "fusionaudit.gvec.GradedMorphism.__sub__":
        "failure path: validate_algebra's mismatch message",
    "fusionaudit.gvec.GradedMorphism.scale":
        "failure path: validate_algebra's mismatch message",
    "fusionaudit.internal.InternalAlgebra.__eq__":
        "test oracle: only tests compare algebras",
    "fusionaudit.internal.InternalAlgebra.__hash__":
        "goes with __eq__, so that equal algebras hash equal",
    "fusionaudit.internal.InternalAlgebra.__repr__":
        "failure path: names the algebra in a failing assertion",
    "fusionaudit.internal.InternalCoalgebra.__init__":
        "test oracle: the checking constructor the coalgebra tests use",
    "fusionaudit.internal.InternalCoalgebra.comult":
        "test oracle: the audit reads counits only; the coalgebra tests "
        "read the comultiplication",
    "fusionaudit.internal.InternalCoalgebra.__repr__":
        "failure path: names the coalgebra in a failing assertion",
}


def _methods(module, cls):
    """The functions defined in cls's body in module's source, a
    property by its getter: not those a base or a factory such as
    namedtuple supplies."""
    for name, attr in vars(cls).items():
        if isinstance(attr, property):
            attr = attr.fget
        attr = getattr(attr, "__func__", attr)  # classmethod, staticmethod
        if inspect.isfunction(attr) and \
                attr.__code__.co_filename == module.__file__:
            yield "%s.%s.%s" % (module.__name__, cls.__name__, name), attr


def _public_functions():
    for info in pkgutil.walk_packages(fusionaudit.__path__, "fusionaudit."):
        if info.name.endswith(".__main__"):
            continue  # running it is the CLI, not an import
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield "%s.%s" % (module.__name__, name), obj
            elif inspect.isclass(obj):
                yield from _methods(module, obj)


def test_every_public_function_is_reached_or_kept(census):
    functions = dict(_public_functions())
    assert set(KEPT) <= set(functions), sorted(set(KEPT) - set(functions))
    unreached = {name for name, f in functions.items()
                 if f.__code__ not in census}
    assert unreached - set(KEPT) == set(), "reached by no report, not kept"
    assert set(KEPT) - unreached == set(), "kept, but the reports reach it"
