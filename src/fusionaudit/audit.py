"""End-to-end audit of the fifteen-way equivalence.

A run builds the category from a spec, generates the seeded algebra
corpus (and its dual coalgebra corpus), evaluates every condition of the
equivalence, re-proves the structural theorems (support, corner algebras,
inclusion/projection functors, idempotents, ring predicates), and emits a
deterministic JSON report.  Every false condition embeds a witness that
re-verifies when fed back through the library.

The equivalence is a theorem, so all of conditions (2)-(15) must agree
with condition (1); a report where they do not is raised as an internal
consistency error, never returned as a finding.
"""

import itertools
import random

from .corpus import algebra_corpus, random_object, random_morphism
from .errors import ConsistencyError, SpecError
from .functors import (
    check_inclusion_frobenius, check_projection_lax_colax, check_rj_algebra,
    coreflection_checks, coseparability_verdict, frobenius_pair_check,
    idempotent_e, is_faithful_cotensor, is_faithful_tensor,
    reflection_checks, separability_verdict)
from .grothendieck import fusion_iff_separable_check, ring_report
from .groupoid import Groupoid, _spec_ints, groupoid_from_spec
from .gvec import (
    GradedMorphism, cokernel, compose, identity_mor, is_epi, is_iso, is_mono,
    kernel, morphism_from_spec, morphism_to_spec, restriction_inclusion,
    restriction_projection, simple_object, tensor_mor, tensor_obj,
    unit_object, unit_summand)
from .internal import (
    algebra_from_spec, algebra_to_spec, dualize_algebra, restriction_data,
    support, validate_algebra)
from .morphcalc import find_retraction, find_section

__all__ = ["CONDITIONS", "run_audit", "render_report",
           "check_algebra_report", "gr_report", "reverify_witness"]

SCHEMA = 3  # version of the audit and gr report formats

# Largest corpus_size and samples that run_audit and gr_report take; a
# larger value is a SpecError (exit 2) before any corpus is built.  An
# audit's work grows linearly in both, and the bundled tests and benchmark
# use at most corpus 8 and samples 12.
MAX_CORPUS_SIZE = 100
MAX_SAMPLES = 1000

CONDITIONS = {
    1: "the unit object is simple",
    2: "tensoring by any non-zero algebra is separable",
    3: "tensoring by any non-zero coalgebra is separable",
    4: "tensoring by any non-zero algebra is faithful",
    5: "tensoring by any non-zero coalgebra is faithful",
    6: "tensoring by any non-zero algebra reflects split monos",
    7: "tensoring by any non-zero coalgebra reflects split monos",
    8: "tensoring by any non-zero algebra reflects split epis",
    9: "tensoring by any non-zero coalgebra reflects split epis",
    10: "tensoring by any non-zero algebra reflects isomorphisms",
    11: "tensoring by any non-zero coalgebra reflects isomorphisms",
    12: "the unit of any non-zero algebra is mono",
    13: "the counit of any non-zero coalgebra is epi",
    14: "any non-zero algebra morphism from 1 is mono",
    15: "any non-zero coalgebra morphism to 1 is epi",
}


def _corpus_labels(cat, corpus_size):
    labels = ["unit_summand %d" % i for i in range(cat.object_count)]
    labels.append("groupoid_algebra all")
    labels.extend(["groupoid_algebra sample"] * 2)
    labels.extend(["internal_end sample"] * corpus_size)
    labels.extend(["direct_sum sample"] * corpus_size)
    return labels


def _object_subsets(cat, rng):
    """Nonempty object subsets to exercise the inclusion/projection pair:
    all of them when there are at most seven, and otherwise all objects
    and six seeded samples."""
    n = cat.object_count
    if 2 ** n - 1 <= 7:
        subs = [set(c) for k in range(1, n + 1)
                for c in itertools.combinations(range(n), k)]
    else:
        subs = [set(range(n))]
        for _ in range(6):
            k = rng.randrange(1, n + 1)
            subs.append(set(rng.sample(range(n), k)))
    return subs


def _hold(holds, witness=None):
    return {"holds": holds, "witness": witness, "method": "exact"}


def _require_ints(**args):
    """Each argument must be an int, by the rule spec fields follow: a
    bool, a float or a string is a SpecError."""
    for key in args:
        _spec_ints(args, key, 0, nullable=False)


def _require_count(name, value, cap):
    if value < 1:
        raise SpecError("%s must be at least 1" % name)
    if value > cap:
        raise SpecError("%s must be at most %d" % (name, cap))


def _per_algebra(fn):
    """fn memoised on the identity of its one argument, for the length of
    one run_audit or gr_report call.  algebra_corpus lets equal draws
    share one object, so each deterministic fact is decided once per
    distinct algebra and read at every corpus index that holds it.  The
    memo keeps each argument alive, so no id is reused while it lives."""
    memo = {}

    def once(x):
        hit = memo.get(id(x))
        if hit is None:
            hit = memo[id(x)] = (x, fn(x))
        return hit[1]
    return once


def _corner(a):
    """(j, data, mono, split) for the corner of a over its support j:
    data is restriction_data(a, j), and mono and split say whether the
    restricted unit 1_J -> A_J is mono and has a retraction.
    restriction_data raises unless the inclusion is an algebra morphism
    (the unit equation is checked: the unit lies inside the support)."""
    j = sorted(support(a))
    data = restriction_data(a, j)
    unit_j = data["restricted_unit"]
    return j, data, is_mono(unit_j), find_retraction(unit_j) is not None


def _first_failure(pairs, predicate):
    for idx, item in pairs:
        failed = predicate(idx, item)
        if failed is not None:
            return failed
    return None


def run_audit(category, seed=1, corpus_size=2, samples=6):
    """The audit report of a groupoid (or spec) at one seed.  corpus_size
    and samples run from 1 to MAX_CORPUS_SIZE and MAX_SAMPLES.

    Every rng-consuming check runs once per corpus index, in index order.
    Every deterministic one (the duals, the separability verdicts, the
    (co)unit checks of (12)-(15) and the structural suite's corners and
    unit idempotents) runs once per distinct corpus algebra (see
    _per_algebra) and is read at each index that holds it."""
    _require_ints(seed=seed, corpus_size=corpus_size, samples=samples)
    _require_count("corpus_size", corpus_size, MAX_CORPUS_SIZE)
    _require_count("samples", samples, MAX_SAMPLES)
    if isinstance(category, dict):
        cat = groupoid_from_spec(category)
    elif isinstance(category, Groupoid):
        cat = category
    else:
        raise SpecError("category must be a groupoid or a spec document")
    rng = random.Random(seed)
    algebras = algebra_corpus(cat, rng, corpus_size)
    coalgebras = list(map(_per_algebra(dualize_algebra), algebras))
    live = [(i, a) for i, a in enumerate(algebras) if not a.is_zero()]
    live_co = [(i, coalgebras[i]) for i, _ in live]

    unit_simple = cat.object_count == 1
    if (len(cat.identity_grades) == 1) != unit_simple:
        raise ConsistencyError("unit decomposition disagrees with the "
                               "object count")
    conditions = {1: _hold(unit_simple, None if unit_simple else
                           {"kind": "unit_decomposition",
                            "identity_grades": list(cat.identity_grades)})}

    def alg_witness(idx, a, reason, **extra):
        w = {"kind": "algebra", "corpus_index": idx, "reason": reason,
             "spec": algebra_to_spec(a)}
        w.update(extra)
        return w

    def coalg_witness(idx, reason, **extra):
        w = {"kind": "coalgebra", "corpus_index": idx, "reason": reason,
             "dual_of": algebra_to_spec(algebras[idx])}
        w.update(extra)
        return w

    # (2), (3): separability of the tensor functors; each live algebra's
    # verdict is decided here once and read again by the structural suite
    sep_of = _per_algebra(lambda a: separability_verdict(a)["separable"])
    separable = {i: sep_of(a) for i, a in live}
    fail = _first_failure(live, lambda i, a: None if separable[i]
                          else alg_witness(i, a, "unit has no retraction"))
    conditions[2] = _hold(fail is None, fail)
    cosep_of = _per_algebra(
        lambda c: coseparability_verdict(c)["separable"])
    fail = _first_failure(live_co, lambda i, c: None if cosep_of(c)
                          else coalg_witness(i, "counit has no section"))
    conditions[3] = _hold(fail is None, fail)

    # (4), (5): faithfulness via the dead-simple criterion
    def faith_fail(i, a):
        rep = is_faithful_tensor(a, rng=rng, samples=samples)
        if rep["faithful"]:
            return None
        return alg_witness(i, a, "simple dies under tensoring",
                           simple_grade=rep["witness"]["simple_grade"],
                           morphism=morphism_to_spec(
                               rep["witness"]["morphism"]))
    fail = _first_failure(live, faith_fail)
    conditions[4] = _hold(fail is None, fail)

    def cofaith_fail(i, c):
        rep = is_faithful_cotensor(c, rng=rng, samples=samples)
        if rep["faithful"]:
            return None
        return coalg_witness(i, "simple dies under tensoring",
                             simple_grade=rep["witness"]["simple_grade"],
                             morphism=morphism_to_spec(
                                 rep["witness"]["morphism"]))
    fail = _first_failure(live_co, cofaith_fail)
    conditions[5] = _hold(fail is None, fail)

    # (6)-(11): the reflection properties, algebra and coalgebra sides
    refl = {i: reflection_checks(a, rng=rng, samples=samples)
            for i, a in live}
    corefl = {i: coreflection_checks(c, rng=rng, samples=samples)
              for i, c in live_co}
    for cond, key in ((6, "maschke"), (8, "dual_maschke"),
                      (10, "conservative")):
        fail = _first_failure(live, lambda i, a, k=key: None
                              if refl[i][k]["holds"]
                              else alg_witness(i, a, "reflection fails",
                                               morphism=morphism_to_spec(
                                                   refl[i][k]["witness"])))
        conditions[cond] = _hold(fail is None, fail)
    for cond, key in ((7, "maschke"), (9, "dual_maschke"),
                      (11, "conservative")):
        fail = _first_failure(live_co, lambda i, c, k=key: None
                              if corefl[i][k]["holds"]
                              else coalg_witness(i, "reflection fails",
                                                 morphism=morphism_to_spec(
                                                     corefl[i][k]["witness"])))
        conditions[cond] = _hold(fail is None, fail)

    # (12), (13): unit mono / counit epi, with (co)kernel evidence
    unit_mono = _per_algebra(lambda a: is_mono(a.unit))
    counit_epi = _per_algebra(lambda c: is_epi(c.counit))
    fail = _first_failure(live, lambda i, a: None if unit_mono(a)
                          else alg_witness(i, a, "unit has a kernel",
                                           morphism=morphism_to_spec(a.unit),
                                           kernel=morphism_to_spec(
                                               kernel(a.unit)[1])))
    conditions[12] = _hold(fail is None, fail)
    fail = _first_failure(live_co, lambda i, c: None if counit_epi(c)
                          else coalg_witness(i, "counit has a cokernel",
                                             morphism=morphism_to_spec(
                                                 c.counit),
                                             cokernel=morphism_to_spec(
                                                 cokernel(c.counit)[1])))
    conditions[13] = _hold(fail is None, fail)

    # (14), (15), decided exactly: a non-zero morphism out of (into) a
    # simple 1 is mono (epi), so with one object u (c) decides.  With more,
    # u e_i for the idempotent e_i of End(1) on object i is multiplicative
    # and, where non-zero, not mono; dually e_i c.  u stays the first
    # candidate, so it stays the witness.
    one = unit_object(cat)
    singles = [compose(restriction_inclusion(one, {g}),
                       restriction_projection(one, {g}))
               for g in cat.identity_of] if cat.object_count > 1 else []

    @_per_algebra
    def non_mono_from_one(a):
        for f in [a.unit] + [compose(a.unit, e) for e in singles]:
            if not f.is_zero() and not is_mono(f):
                return f
        return None

    def unit_mor_fail(i, a):
        f = non_mono_from_one(a)
        if f is None:
            return None
        return alg_witness(i, a, "non-zero morphism from 1 with kernel",
                           morphism=morphism_to_spec(f),
                           kernel=morphism_to_spec(kernel(f)[1]))
    fail = _first_failure(live, unit_mor_fail)
    conditions[14] = _hold(fail is None, fail)

    @_per_algebra
    def non_epi_to_one(c):
        for f in [c.counit] + [compose(e, c.counit) for e in singles]:
            if not f.is_zero() and not is_epi(f):
                return f
        return None

    def counit_mor_fail(i, c):
        f = non_epi_to_one(c)
        if f is None:
            return None
        return coalg_witness(i, "non-zero morphism to 1 with cokernel",
                             morphism=morphism_to_spec(f),
                             cokernel=morphism_to_spec(cokernel(f)[1]))
    fail = _first_failure(live_co, counit_mor_fail)
    conditions[15] = _hold(fail is None, fail)

    structural = _structural_suite(cat, rng, live, separable, samples,
                                   unit_simple)

    consistency = all(conditions[c]["holds"] == unit_simple
                      for c in range(2, 16))
    if not consistency:
        bad = [c for c in range(2, 16)
               if conditions[c]["holds"] != unit_simple]
        raise ConsistencyError(
            "conditions %s disagree with unit simplicity" % bad)

    report = {
        "schema": SCHEMA,
        "category": {
            "fingerprint": cat.fingerprint(),
            "objects": cat.object_count,
            "morphisms": cat.morphism_count,
            "spec": cat.spec,
        },
        "unit_simple": unit_simple,
        "conditions": {str(k): conditions[k] for k in sorted(conditions)},
        "structural": structural,
        "corpus": {
            "seed": seed,
            "corpus_size": corpus_size,
            "samples": samples,
            "generators": _corpus_labels(cat, corpus_size),
            "algebras": _corpus_entries(algebras),
        },
        "consistency": consistency,
    }
    return report


def _corpus_entries(algebras):
    """The corpus section's entry for each index.  An index that holds
    the same algebra object as an earlier one (algebra_corpus shares
    equal draws) names the first such index, and its facts are read
    there."""
    first, out = {}, []
    for i, a in enumerate(algebras):
        j = first.setdefault(id(a), i)
        if j != i:
            out.append({"index": i, "same_as": j})
            continue
        zero = a.is_zero()
        out.append({"index": i, "zero": zero,
                    "support": [] if zero else sorted(support(a)),
                    "total_multiplicity": sum(a.carrier.mult.values())})
    return out


def _structural_suite(cat, rng, live, separable, samples, unit_simple):
    # algebra_corpus puts the unit summand 1_i at corpus index i, so its
    # verdict is already in separable; the carrier check keeps a change of
    # corpus order from reading another algebra's verdict
    summands = []
    for i in range(cat.object_count):
        if live[i][0] != i or live[i][1].carrier != unit_summand(cat, {i}):
            raise ConsistencyError(
                "corpus index %d is not the unit summand 1_%d" % (i, i))
        sep = separable[i]
        summands.append({"object": i, "separable": sep})
        if sep != unit_simple:
            raise ConsistencyError(
                "unit summand %d separability disagrees with simplicity" % i)

    # each distinct algebra is restricted once, first at its first index
    restrict = _per_algebra(_corner)
    corner = []
    restricted = {}  # one (a, j, data) per distinct algebra
    for idx, a in live:
        j, data, mono, sep = restrict(a)
        restricted[id(a)] = (a, j, data)
        corner.append({"index": idx, "support": j,
                       "inclusion_is_algebra_morphism": True,
                       "restricted_unit_mono": mono,
                       "restricted_separable": sep})
        if not (mono and sep):
            raise ConsistencyError(
                "corner algebra theorems fail for corpus index %d" % idx)

    functors = []
    for objs in _object_subsets(cat, rng):
        entry = {
            "objects": sorted(objs),
            "inclusion_frobenius":
                check_inclusion_frobenius(cat, objs, rng, samples=samples),
            "projection_lax_colax":
                check_projection_lax_colax(cat, objs, rng, samples=samples),
            "frobenius_pair":
                frobenius_pair_check(cat, objs, rng, samples=samples),
        }
        if not all(entry[k] for k in ("inclusion_frobenius",
                                      "projection_lax_colax",
                                      "frobenius_pair")):
            raise ConsistencyError(
                "functor axioms fail on objects %s" % sorted(objs))
        functors.append(entry)

    rj_alg = all(check_rj_algebra(a, j, data)
                 for a, j, data in restricted.values())
    if not rj_alg:
        raise ConsistencyError("lax image disagrees with corner restriction")

    idem = []
    one = unit_object(cat)
    # e_M = id_M (x) e_1 on the nose, so e_1 is computed once per algebra
    unit_idempotent = _per_algebra(lambda a: idempotent_e(a, one))
    for idx, a in live:
        sep = separable[idx]
        e1 = unit_idempotent(a)
        all_id = True
        for k in range(samples):
            m = one if k == 0 else random_object(cat, rng, max_total=3)
            e = tensor_mor(identity_mor(m), e1)
            if compose(e, e) != e:
                raise ConsistencyError("e_M is not idempotent")
            m2 = random_object(cat, rng, max_total=3)
            f = random_morphism(m, m2, rng)
            if compose(tensor_mor(identity_mor(m2), e1), f) != compose(f, e):
                raise ConsistencyError("e_M is not natural")
            if e != identity_mor(m):
                all_id = False
        if all_id != sep:
            raise ConsistencyError(
                "idempotent triviality disagrees with separability")
        idem.append({"index": idx, "trivial": all_id, "separable": sep})

    ring = ring_report(cat, constants=False)
    fus = fusion_iff_separable_check(ring["fusion"]["holds"],
                                     list(separable.values()))
    if ring["fusion"]["holds"] != unit_simple:
        raise ConsistencyError("fusion ring verdict disagrees with "
                               "unit simplicity")

    return {
        "unit_summands": summands,
        "corner_algebras": corner,
        "subset_functors": functors,
        "lax_image_matches_corner": rj_alg,
        "idempotents": idem,
        "grothendieck": ring,
        "fusion_iff_separable": fus,
    }


def render_report(report):
    """Human-readable table; one line per condition."""
    lines = []
    cat = report["category"]
    lines.append("category: %d object(s), %d morphism(s), fingerprint %s"
                 % (cat["objects"], cat["morphisms"], cat["fingerprint"]))
    lines.append("unit simple: %s" % ("yes" if report["unit_simple"]
                                      else "no"))
    lines.append("")
    for k in range(1, 16):
        cond = report["conditions"][str(k)]
        status = "holds" if cond["holds"] else "fails"
        extra = ""
        if cond["witness"] is not None and "reason" in cond["witness"]:
            extra = "  [%s]" % cond["witness"]["reason"]
        lines.append("(%2d) %-55s %s%s"
                     % (k, CONDITIONS[k], status, extra))
    lines.append("")
    s = report["structural"]
    lines.append("corner algebras checked: %d" % len(s["corner_algebras"]))
    lines.append("object subsets checked:  %d" % len(s["subset_functors"]))
    lines.append("ring: rank %d, based %s, fusion %s"
                 % (s["grothendieck"]["rank"],
                    s["grothendieck"]["based"]["holds"],
                    s["grothendieck"]["fusion"]["holds"]))
    lines.append("consistency: %s" % report["consistency"])
    return "\n".join(lines) + "\n"


def check_algebra_report(cat, algebra_doc):
    """Single-algebra drill-down: validation, support, separability,
    corner restriction."""
    a = algebra_from_spec(cat, algebra_doc)
    validation = validate_algebra(a)
    doc = {"category": {"fingerprint": cat.fingerprint(),
                        "objects": cat.object_count,
                        "morphisms": cat.morphism_count},
           "validation": validation}
    if not validation["ok"] or validation["zero"]:
        return doc
    v = separability_verdict(a)
    j, data, mono, split = _corner(a)
    doc["support"] = j
    doc["separability"] = {
        "separable": v["separable"],
        "naturally_full": v["naturally_full"],
        "semiseparable": v["semiseparable"],
        "idempotent_trivial": v["idempotent_trivial"],
        "retraction": None if v["retraction"] is None
        else morphism_to_spec(v["retraction"]),
        "section": None if v["section"] is None
        else morphism_to_spec(v["section"]),
    }
    doc["unit_mono"] = is_mono(a.unit)
    doc["faithful"] = is_faithful_tensor(a)["faithful"]
    doc["restricted_unit_mono"] = mono
    doc["restricted_separable"] = split
    doc["corner_spec"] = algebra_to_spec(data["algebra"])
    return doc


def reverify_witness(cat, cond, witness):
    """True when witness, as a report carries it for condition cond
    (2..15), shows that the condition fails.  The witness's algebra and
    morphisms are parsed back from their specs, and its claim is checked
    with library calls, independently of how the audit found it.  A
    witness that is not a JSON object, or that lacks a key its condition
    reads, is a SpecError, as a bad spec inside it is, and so is a
    simple_grade that is not an int grade of cat.  A kernel that does not
    end at the morphism's source, or a cokernel that does not start at its
    target, shows nothing: the result is False.  An algebra, or an odd
    condition's dual_of algebra, must validate.  The morphism of (14) must
    be an algebra morphism 1 -> A, m (f (x) f) = f m_1, and that of (15) a
    coalgebra morphism C -> 1, (f (x) f) comult = Delta_1 f, where m_1 and
    Delta_1 are the identity of 1 (x) 1 = 1; its blocks are read on the
    carrier's slots, grade by grade, as the unit comparison of (12) and
    (13) reads them.  Only (15) builds the dual's comultiplication."""
    if not 2 <= cond <= 15:
        raise ValueError("conditions 2..15 carry witnesses, not %r" % cond)

    def field(key):
        if not isinstance(witness, dict) or key not in witness:
            raise SpecError("condition %d witness has no %r" % (cond, key))
        return witness[key]
    one = unit_object(cat)
    if cond % 2 == 0:
        a = algebra_from_spec(cat, field("spec"))
        if a.is_zero() or not validate_algebra(a)["ok"]:
            return False
        carrier, unit_map = a.carrier, a.unit
    else:
        a = algebra_from_spec(cat, field("dual_of"))
        if a.is_zero() or not validate_algebra(a)["ok"]:
            return False
        c = dualize_algebra(a)
        carrier, unit_map = c.carrier, c.counit
    if cond == 2:
        return find_retraction(unit_map) is None
    if cond == 3:
        return find_section(unit_map) is None
    f = morphism_from_spec(cat, field("morphism"))
    if cond in (4, 5):
        g = field("simple_grade")
        if type(g) is not int or not 0 <= g < cat.morphism_count:
            raise SpecError("simple_grade %r is not a grade" % (g,))
        dead = tensor_obj(simple_object(cat, g), carrier)
        return (not f.is_zero() and dead.is_zero()
                and tensor_mor(f, identity_mor(carrier)).is_zero())
    if cond <= 11:
        ff = tensor_mor(f, identity_mor(carrier))
        if cond in (6, 7):
            return (find_retraction(f) is None
                    and find_retraction(ff) is not None)
        if cond in (8, 9):
            return find_section(f) is None and find_section(ff) is not None
        return not is_iso(f) and is_iso(ff)
    if cond in (12, 14):
        k = morphism_from_spec(cat, field("kernel"))
        if not (k.target == f.source == one
                and not f.is_zero() and not is_mono(f)
                and not k.is_zero() and is_mono(k)
                and compose(f, k).is_zero()):
            return False
        if cond == 12:
            return f == unit_map
        if f.target != carrier:
            return False
        f = GradedMorphism._of(one, carrier, f.blocks)
        return compose(a.mult, tensor_mor(f, f)) == f
    q = morphism_from_spec(cat, field("cokernel"))
    if not (q.source == f.target == one
            and not f.is_zero() and not is_epi(f)
            and not q.is_zero() and is_epi(q) and compose(q, f).is_zero()):
        return False
    if cond == 13:
        return f == unit_map
    if f.source != carrier:
        return False
    f = GradedMorphism._of(carrier, one, f.blocks)
    return compose(tensor_mor(f, f), c.comult) == f


def gr_report(cat, seed=1, corpus_size=2):
    """The Grothendieck ring report, with the fusion-iff-separable check
    over the corpus at seed; corpus_size runs from 1 to MAX_CORPUS_SIZE.
    Each distinct corpus algebra's separability is decided once."""
    _require_ints(seed=seed, corpus_size=corpus_size)
    _require_count("corpus_size", corpus_size, MAX_CORPUS_SIZE)
    rng = random.Random(seed)
    corpus = algebra_corpus(cat, rng, corpus_size)
    doc = ring_report(cat)
    doc["schema"] = SCHEMA
    sep_of = _per_algebra(lambda a: separability_verdict(a)["separable"])
    doc["fusion_iff_separable"] = fusion_iff_separable_check(
        doc["fusion"]["holds"],
        [sep_of(a) for a in corpus if not a.is_zero()])
    doc["corpus"] = {"seed": seed, "corpus_size": corpus_size,
                     "generators": _corpus_labels(cat, corpus_size)}
    return doc
