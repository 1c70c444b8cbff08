import copy
import hashlib
import json
import random
import subprocess
import sys

import pytest

from conftest import (
    COERCED_GENERATOR_SPECS, cli_env, symmetric_group_spec)
from fusionaudit import audit, cli, functors, grothendieck
from fusionaudit.audit import (
    CONDITIONS, check_algebra_report, gr_report, render_report,
    reverify_witness, run_audit)
from fusionaudit.corpus import algebra_corpus
from fusionaudit.errors import ConsistencyError, SpecError
from fusionaudit.fixtures import FIXTURE_NAMES, fixture_spec, load_fixture
from fusionaudit.groupoid import groupoid_from_spec
from fusionaudit.gvec import (
    GradedObject, cokernel, compose, hom_basis, identity_mor, is_epi,
    is_iso, is_mono, kernel, morphism_from_spec, morphism_to_spec,
    restrict_grades, restriction_inclusion, restriction_projection,
    simple_object, tensor_mor, unit_object, zero_mor)
from fusionaudit.internal import (
    algebra_from_spec, dualize_algebra, groupoid_algebra, algebra_to_spec,
    validate_algebra)
from fusionaudit.morphcalc import find_retraction, find_section

SIMPLE_UNIT = ("vec", "vec_z2", "vec_s3")
MULTI_UNIT = ("pair2", "pair3", "union_z2_z2")


def test_conditions_table_is_complete():
    assert sorted(CONDITIONS) == list(range(1, 16))


@pytest.mark.parametrize("name", SIMPLE_UNIT)
def test_audit_simple_unit(name):
    rep = run_audit(load_fixture(name), seed=1)
    assert rep["unit_simple"] is True
    for k in range(1, 16):
        cond = rep["conditions"][str(k)]
        assert cond["holds"] is True
        assert cond["witness"] is None
    assert rep["consistency"] is True


@pytest.mark.parametrize("name", MULTI_UNIT)
def test_audit_multi_unit(name):
    rep = run_audit(load_fixture(name), seed=1)
    assert rep["unit_simple"] is False
    assert rep["conditions"]["1"]["holds"] is False
    for k in range(2, 16):
        cond = rep["conditions"][str(k)]
        assert cond["holds"] is False
        assert cond["witness"] is not None
    assert rep["consistency"] is True


def test_reports_carry_schema_3_and_exact_methods():
    """Schema 3: the audit states the ring's constants by their count
    and their match with the composition table, which category.spec
    lists; gr, the ring's own report, lists them."""
    for name in ("vec_z2", "pair2"):
        rep = run_audit(load_fixture(name), samples=2)
        assert rep["schema"] == 3
        assert {c["method"] for c in rep["conditions"].values()} == {"exact"}
        ring = rep["structural"]["grothendieck"]
        assert "structure_constants" not in ring
        assert ring["constants_match_composition"] is True
        doc = gr_report(load_fixture(name))
        assert doc["schema"] == 3
        assert "nonzero_constants" not in doc and doc["structure_constants"]


@pytest.mark.parametrize("name", ["vec_z2", "pair2", "s4"])
def test_corpus_section_states_each_algebra_once(monkeypatch, name):
    """An index holding the same algebra object as an earlier one is
    {"index": i, "same_as": j}, j the first such index; the others keep
    their facts.  On a one-object groupoid indices 2 and 3 are index 1's
    kG."""
    kept = _kept_corpus(monkeypatch)
    rep = run_audit(_category(name), seed=1)
    (corpus,) = kept
    entries = rep["corpus"]["algebras"]
    assert [e["index"] for e in entries] == list(range(len(corpus)))
    for i, (e, a) in enumerate(zip(entries, corpus)):
        first = next(j for j, b in enumerate(corpus) if b is a)
        if first < i:
            assert e == {"index": i, "same_as": first}
        else:
            assert e["zero"] is a.is_zero()
            assert e["total_multiplicity"] == sum(a.carrier.mult.values())
    if name != "pair2":
        assert entries[2] == {"index": 2, "same_as": 1}
        assert entries[3] == {"index": 3, "same_as": 1}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_unit_morphism_conditions_are_exact(name):
    """(14)/(15) are decided exactly by u and the u e_i.  With one object
    End(1) is the scalars, so u is the only candidate up to a scalar and
    mono exactly when non-zero.  With more, every live algebra has some
    u e_i that is non-zero, multiplicative and not mono, and dually some
    e_i c that is non-zero, comultiplicative and not epi."""
    cat = load_fixture(name)
    one = unit_object(cat)
    if cat.object_count == 1:
        assert len(hom_basis(one, one)) == 1
        return
    idems = [compose(restriction_inclusion(one, {g}),
                     restriction_projection(one, {g}))
             for g in cat.identity_of]
    for a in algebra_corpus(cat, random.Random(14)):
        if a.is_zero():
            continue
        c = dualize_algebra(a)
        assert any(not f.is_zero() and not is_mono(f)
                   and compose(a.mult, tensor_mor(f, f)) == f
                   for f in (compose(a.unit, e) for e in idems))
        assert any(not g.is_zero() and not is_epi(g)
                   and compose(tensor_mor(g, g), c.comult) == g
                   for g in (compose(e, c.counit) for e in idems))


def test_witnesses_reverify_pair2():
    cat = load_fixture("pair2")
    rep = run_audit(cat, seed=1)
    w = {k: rep["conditions"][str(k)]["witness"] for k in range(2, 16)}

    def alg_of(witness):
        return algebra_from_spec(cat, witness["spec"])

    def coalg_of(witness):
        return dualize_algebra(algebra_from_spec(cat, witness["dual_of"]))

    a2 = alg_of(w[2])
    assert validate_algebra(a2)["ok"]
    assert find_retraction(a2.unit) is None

    c3 = coalg_of(w[3])
    assert find_section(c3.counit) is None

    f4 = morphism_from_spec(cat, w[4]["morphism"])
    assert not f4.is_zero()
    assert tensor_mor(f4, identity_mor(alg_of(w[4]).carrier)).is_zero()

    f5 = morphism_from_spec(cat, w[5]["morphism"])
    assert tensor_mor(f5, identity_mor(coalg_of(w[5]).carrier)).is_zero()

    f6 = morphism_from_spec(cat, w[6]["morphism"])
    t6 = tensor_mor(f6, identity_mor(alg_of(w[6]).carrier))
    assert is_mono(t6) and not is_mono(f6)
    assert compose(find_retraction(t6), t6) == identity_mor(t6.source)
    assert find_retraction(f6) is None

    f7 = morphism_from_spec(cat, w[7]["morphism"])
    t7 = tensor_mor(f7, identity_mor(coalg_of(w[7]).carrier))
    assert is_mono(t7) and not is_mono(f7)
    assert compose(find_retraction(t7), t7) == identity_mor(t7.source)
    assert find_retraction(f7) is None

    f8 = morphism_from_spec(cat, w[8]["morphism"])
    t8 = tensor_mor(f8, identity_mor(alg_of(w[8]).carrier))
    assert is_epi(t8) and not is_epi(f8)
    assert compose(t8, find_section(t8)) == identity_mor(t8.target)
    assert find_section(f8) is None

    f9 = morphism_from_spec(cat, w[9]["morphism"])
    t9 = tensor_mor(f9, identity_mor(coalg_of(w[9]).carrier))
    assert is_epi(t9) and not is_epi(f9)
    assert compose(t9, find_section(t9)) == identity_mor(t9.target)
    assert find_section(f9) is None

    f10 = morphism_from_spec(cat, w[10]["morphism"])
    t10 = tensor_mor(f10, identity_mor(alg_of(w[10]).carrier))
    assert is_iso(t10) and not is_iso(f10)

    f11 = morphism_from_spec(cat, w[11]["morphism"])
    t11 = tensor_mor(f11, identity_mor(coalg_of(w[11]).carrier))
    assert is_iso(t11) and not is_iso(f11)

    u12 = morphism_from_spec(cat, w[12]["morphism"])
    k12 = morphism_from_spec(cat, w[12]["kernel"])
    assert not is_mono(u12)
    assert not k12.source.is_zero()
    assert is_mono(k12)
    assert compose(u12, k12).is_zero()

    e13 = morphism_from_spec(cat, w[13]["morphism"])
    q13 = morphism_from_spec(cat, w[13]["cokernel"])
    assert not is_epi(e13)
    assert not q13.target.is_zero()
    assert is_epi(q13)
    assert compose(q13, e13).is_zero()

    f14 = morphism_from_spec(cat, w[14]["morphism"])
    assert f14.source == unit_object(cat)
    assert not f14.is_zero() and not is_mono(f14)

    f15 = morphism_from_spec(cat, w[15]["morphism"])
    assert f15.target == unit_object(cat)
    assert not f15.is_zero() and not is_epi(f15)


def test_reverify_witness_rejects_swapped_morphisms():
    """Every pair2 witness re-verifies, and none does once its morphism is
    swapped for one that shows nothing: the zero map for the faithfulness
    conditions (4), (5), an identity for the others.  Nor does one whose
    kernel does not end at the morphism's source, or whose cokernel does
    not start at its target (an identity of the morphism's other end):
    those raised ShapeError "composition endpoint mismatch"."""
    cat = load_fixture("pair2")
    rep = run_audit(cat, seed=1)
    for k in range(2, 16):
        w = rep["conditions"][str(k)]["witness"]
        assert reverify_witness(cat, k, w), k
        if k < 4:
            continue
        f = morphism_from_spec(cat, w["morphism"])
        g = zero_mor(f.source, f.target) if k < 6 else identity_mor(f.source)
        swapped = dict(w, morphism=morphism_to_spec(g))
        assert not reverify_witness(cat, k, swapped), k
        if k >= 12:
            key, end = (("kernel", f.target) if k % 2 == 0
                        else ("cokernel", f.source))
            astray = dict(w, **{key: morphism_to_spec(identity_mor(end))})
            assert not reverify_witness(cat, k, astray), k
    with pytest.raises(ValueError):
        reverify_witness(cat, 1, rep["conditions"]["1"]["witness"])


def test_reverify_witness_bad_documents_are_spec_errors():
    """A witness that is not an object, or lacks a key its condition
    reads, is a SpecError; {"morphism": {}} for condition 6 raised
    KeyError: 'spec'.  So is a simple_grade that is not an int grade:
    out of range it raised ShapeError, and a list or a dict TypeError.
    So is a morphism whose "blocks" key is missing or misspelled "block":
    it parsed as the zero map, and the witness was judged on that."""
    cat = load_fixture("vec_z2")
    alg = {"gen": "unit_summand", "i": 0}
    idspec = morphism_to_spec(identity_mor(unit_object(cat)))
    for cond, witness in ((6, {"morphism": {}}), (6, []), (6, None),
                          (3, {"spec": alg}), (6, {"spec": alg}),
                          (6, {"spec": alg, "morphism": {}}),
                          (4, {"spec": alg, "morphism": idspec}),
                          (12, {"spec": alg, "morphism": idspec}),
                          (13, {"dual_of": alg, "morphism": idspec})):
        with pytest.raises(SpecError):
            reverify_witness(cat, cond, witness)
    pair2 = load_fixture("pair2")
    rep = run_audit(pair2, seed=1)
    for cond in (4, 5):
        w = rep["conditions"][str(cond)]["witness"]
        assert reverify_witness(pair2, cond, w)
        for bad in (99, -1, 10 ** 6, [], {}, True, 1.5, "1", None):
            with pytest.raises(SpecError):
                reverify_witness(pair2, cond, dict(w, simple_grade=bad))
        f = w["morphism"]
        assert f["blocks"]
        unblocked = {k: v for k, v in f.items() if k != "blocks"}
        for bad, key in ((dict(unblocked, block=f["blocks"]), "'block'"),
                         (unblocked, "has no 'blocks'")):
            with pytest.raises(SpecError, match=key):
                reverify_witness(pair2, cond, dict(w, morphism=bad))
        assert not reverify_witness(pair2, cond,
                                    dict(w, morphism=dict(f, blocks=None)))


def test_reverify_witness_rejects_an_invalid_dual_of():
    """An odd condition's dual_of algebra must validate: pair2's
    condition-3 witness with its dual_of multiplication zeroed broke the
    unit laws and still re-verified True, while the same spec under
    condition 2 re-verified False."""
    cat = load_fixture("pair2")
    rep = run_audit(cat, seed=1)
    for cond in (3, 5, 7, 9, 11, 13, 15):
        w = rep["conditions"][str(cond)]["witness"]
        assert reverify_witness(cat, cond, w), cond
        zeroed = dict(w["dual_of"], mult=None)
        assert not validate_algebra(algebra_from_spec(cat, zeroed))["ok"]
        assert not reverify_witness(cat, cond, dict(w, dual_of=zeroed)), cond
    w = rep["conditions"]["3"]["witness"]
    assert not reverify_witness(cat, 2, {"spec": dict(w["dual_of"],
                                                      mult=None)})


def _structure_map_probes(cond, key, cut):
    """pair2's (14) or (15) witness, with the probes that re-verified
    True before the morphism was checked to be an algebra (coalgebra)
    morphism: the witness morphism scaled by 2, which keeps its kernel
    (cokernel) key, and the idempotent of End(1) on object 0, a map
    1 -> 1 off the carrier, with its own."""
    cat = load_fixture("pair2")
    w = run_audit(cat, seed=1)["conditions"][str(cond)]["witness"]
    assert reverify_witness(cat, cond, w)
    f = morphism_from_spec(cat, w["morphism"])
    one = unit_object(cat)
    e = compose(restriction_inclusion(one, {cat.identity_of[0]}),
                restriction_projection(one, {cat.identity_of[0]}))
    return cat, [dict(w, morphism=morphism_to_spec(f.scale(2))),
                 dict(w, morphism=morphism_to_spec(e),
                      **{key: morphism_to_spec(cut(e)[1])})]


def test_reverify_witness_rejects_a_non_multiplicative_morphism_from_one():
    """(14) quantifies over algebra morphisms 1 -> A: m (2f (x) 2f) = 4f,
    and a map 1 -> 1 does not end at the carrier."""
    cat, probes = _structure_map_probes(14, "kernel", kernel)
    for w in probes:
        assert not reverify_witness(cat, 14, w)


def test_reverify_witness_rejects_a_non_comultiplicative_morphism_to_one():
    """(15) quantifies over coalgebra morphisms C -> 1:
    (2f (x) 2f) comult = 4f, and a map 1 -> 1 does not start at the
    carrier."""
    cat, probes = _structure_map_probes(15, "cokernel", cokernel)
    for w in probes:
        assert not reverify_witness(cat, 15, w)


_MUTANTS = (None, True, False, 1.5, "x", "1", -1, 0, 2, 99, 10 ** 6, [], {})


def _leaf_paths(doc, path=()):
    """The key paths of doc's leaves: scalars and empty containers."""
    if isinstance(doc, (dict, list)) and doc:
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        for key, value in items:
            yield from _leaf_paths(value, path + (key,))
    else:
        yield path


def test_reverify_witness_sweep_of_mutated_witnesses():
    """Each leaf of each pair2 witness set to four seeded values (568
    witnesses): reverify_witness returns a bool or raises SpecError,
    nothing else.  The sweep met four escapes before they were mended:
    ShapeError and TypeError from simple_grade, and ShapeError from a
    kernel and from a cokernel whose ends miss the morphism's."""
    cat = load_fixture("pair2")
    rep = run_audit(cat, seed=1)
    rng = random.Random(7)
    outcomes = set()
    for k in range(2, 16):
        witness = rep["conditions"][str(k)]["witness"]
        for path in _leaf_paths(witness):
            for value in rng.sample(_MUTANTS, 4):
                mutant = json.loads(json.dumps(witness))
                node = mutant
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = value
                try:
                    outcomes.add(reverify_witness(cat, k, mutant))
                except SpecError:
                    outcomes.add(SpecError)
    assert outcomes == {True, False, SpecError}


def test_corpus_carriers_fit_object_specs(monkeypatch):
    """Every carrier an audit builds, at any corpus size, fits an object
    spec, so each witness parses back.  With the cap set to the largest
    carrier of pair2's corpus at size 3 (a direct sum, as the largest
    carrier always is), every corpus algebra and unit map parses back
    from its spec and every witness reverifies.  With one slot less the
    corpus draws that pair again, and the audit still runs, with every
    carrier under the cap and every witness reverifying; a sum spec over
    the cap is input, and still a SpecError."""
    from fusionaudit import gvec, internal
    cat = load_fixture("pair2")
    corpus = algebra_corpus(cat, random.Random(1), internal_ends=3, sums=3)
    top = max(gvec.total_mult(a.carrier) for a in corpus)
    for cap in (top, top - 1):
        for mod in (gvec, internal):
            monkeypatch.setattr(mod, "MAX_TOTAL_MULT", cap)
        for a in algebra_corpus(cat, random.Random(1), internal_ends=3,
                                sums=3):
            assert gvec.total_mult(a.carrier) <= cap
            assert algebra_from_spec(
                cat, algebra_to_spec(a)).carrier == a.carrier
            assert morphism_from_spec(
                cat, morphism_to_spec(a.unit)) == a.unit
        rep = run_audit(cat, seed=1, corpus_size=3)
        witnesses = {k: rep["conditions"][str(k)]["witness"]
                     for k in range(2, 16)}
        assert all(witnesses.values())
        for k, witness in witnesses.items():
            assert reverify_witness(cat, k, witness), k
    parts = [{"gen": "unit_summand", "i": 0}] * top
    with pytest.raises(SpecError, match="direct sum carrier of %d" % top):
        algebra_from_spec(cat, {"gen": "sum", "parts": parts})


def test_no_state_outlives_an_audit():
    """Audits of one groupoid object, at seeds 1, 2 and 1 again, write
    the reports that fresh groupoids write and leave every attribute of
    the groupoid as it was: nothing one audit makes reaches the next."""
    spec = symmetric_group_spec(4, 1)
    want = {seed: run_audit(groupoid_from_spec(spec), seed=seed)
            for seed in (1, 2)}
    cat = groupoid_from_spec(spec)
    before = copy.deepcopy(vars(cat))
    for seed in (1, 2, 1):
        assert run_audit(cat, seed=seed) == want[seed]
        assert vars(cat) == before


def test_report_structural_section():
    rep = run_audit(load_fixture("pair2"), seed=1)
    s = rep["structural"]
    assert all(not e["separable"] for e in s["unit_summands"])
    assert all(e["restricted_separable"] and e["restricted_unit_mono"]
               and e["inclusion_is_algebra_morphism"]
               for e in s["corner_algebras"])
    assert s["lax_image_matches_corner"] is True
    assert all(e["trivial"] == e["separable"] for e in s["idempotents"])
    assert s["grothendieck"]["fusion"]["holds"] is False
    assert s["grothendieck"]["based"]["holds"] is True
    assert s["fusion_iff_separable"] is False
    assert {tuple(e["objects"]) for e in s["subset_functors"]} \
        == {(0,), (1,), (0, 1)}

    rep = run_audit(load_fixture("vec_z2"), seed=1)
    s = rep["structural"]
    assert s["unit_summands"] == [{"object": 0, "separable": True}]
    assert s["fusion_iff_separable"] is True


def test_audit_deterministic_and_seed_sensitive():
    rep1 = run_audit(load_fixture("pair2"), seed=7)
    rep2 = run_audit(load_fixture("pair2"), seed=7)
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
    rep3 = run_audit(load_fixture("pair2"), seed=8)
    assert rep3["consistency"] is True


def test_audit_input_validation():
    with pytest.raises(SpecError):
        run_audit(load_fixture("vec"), corpus_size=0)
    with pytest.raises(SpecError):
        run_audit(load_fixture("vec"), samples=0)
    with pytest.raises(SpecError):
        run_audit(42)
    rep = run_audit(fixture_spec("vec_z2"), seed=1)
    assert rep["unit_simple"] is True


@pytest.mark.parametrize("bad", [
    {"corpus_size": audit.MAX_CORPUS_SIZE + 1},
    {"corpus_size": 10 ** 20},
    {"samples": audit.MAX_SAMPLES + 1},
    {"samples": 10 ** 20},
])
def test_audit_and_gr_cap_corpus_and_samples(monkeypatch, bad):
    """A corpus_size or samples above its cap is a SpecError raised before
    any corpus is built (10**20 of either used to run until killed)."""
    def no_corpus(*args, **kwargs):
        raise AssertionError("corpus built")

    monkeypatch.setattr(audit, "algebra_corpus", no_corpus)
    cat = load_fixture("vec_z2")
    key = next(iter(bad))
    with pytest.raises(SpecError, match="%s must be at most" % key):
        run_audit(cat, **bad)
    if key == "corpus_size":
        with pytest.raises(SpecError, match="corpus_size must be at most"):
            gr_report(cat, **bad)


@pytest.mark.parametrize("bad", [
    {"seed": 1.5}, {"seed": "x"}, {"seed": True}, {"seed": None},
    {"corpus_size": True}, {"corpus_size": 2.5}, {"corpus_size": "2"},
    {"samples": True}, {"samples": 2.0}, {"samples": "6"},
])
def test_audit_and_gr_take_integer_arguments(bad):
    """seed, corpus_size and samples follow the spec rule for integers:
    a bool, a float, a string or null is a SpecError, not coerced."""
    cat = load_fixture("vec")
    with pytest.raises(SpecError):
        run_audit(cat, **bad)
    if "samples" not in bad:
        with pytest.raises(SpecError):
            gr_report(cat, **bad)


def test_render_report_lines():
    text = render_report(run_audit(load_fixture("vec"), seed=1))
    lines = text.splitlines()
    for k in range(1, 16):
        assert any(line.startswith("(%2d)" % k) for line in lines)
    assert "consistency: True" in text


def test_check_algebra_report_generator_and_explicit():
    p2 = load_fixture("pair2")
    doc = check_algebra_report(p2, {"gen": "unit_summand", "i": 0})
    assert doc["validation"]["ok"]
    assert doc["support"] == [0]
    assert doc["separability"]["separable"] is False
    assert doc["separability"]["retraction"] is None
    assert doc["restricted_separable"] is True
    assert doc["unit_mono"] is False
    corner = algebra_from_spec(p2, doc["corner_spec"])
    assert validate_algebra(corner)["ok"]

    z2 = load_fixture("vec_z2")
    spec = algebra_to_spec(groupoid_algebra(z2, [0]))
    doc = check_algebra_report(z2, spec)
    assert doc["validation"]["ok"]
    assert doc["separability"]["separable"] is True
    assert doc["faithful"] is True

    bad = json.loads(json.dumps(spec))
    bad["mult"]["1"] = [["1", "2"]]
    doc = check_algebra_report(z2, bad)
    assert not doc["validation"]["ok"]
    assert doc["validation"]["failures"]


def test_gr_report_fixtures():
    doc = gr_report(load_fixture("vec_z2"))
    assert doc["fusion"]["holds"] and doc["fusion_iff_separable"]
    doc = gr_report(load_fixture("union_z2_z2"))
    assert doc["based"]["holds"] and not doc["fusion"]["holds"]
    assert doc["unit_coeffs"].count(1) == 2
    assert doc["fusion_iff_separable"] is False


def test_audit_and_gr_build_one_ring_each(monkeypatch):
    """The audit and gr each derive the ring once, and build no ring
    object: the fusion cross-check reads ring_report's verdict."""
    calls = []
    original = grothendieck._derive

    def counted(cat):
        calls.append(cat)
        return original(cat)

    def forbidden(cat):
        raise AssertionError("a report built a ring object")

    monkeypatch.setattr(grothendieck, "_derive", counted)
    monkeypatch.setattr(grothendieck, "grothendieck_ring", forbidden)
    cat = load_fixture("pair2")
    run_audit(cat, samples=2)
    assert len(calls) == 1
    gr_report(cat)
    assert len(calls) == 2


def _unit_without_first_identity(original):
    """unit_object, except that its first identity grade is dropped."""
    def unit_object(cat):
        one = original(cat)
        return restrict_grades(one, one.grades()[1:])
    return unit_object


def _duals_swapped(original, cat):
    """dual_obj, except that the simples at the first and the last grade
    take each other's duals."""
    last = cat.morphism_count - 1
    swap = {0: last, last: 0}

    def dual_obj(v):
        if v.mult in ({0: 1}, {last: 1}):
            v = simple_object(cat, swap[v.grades()[0]])
        return original(v)
    return dual_obj


@pytest.mark.parametrize("name", ["vec_z2", "pair2"])
@pytest.mark.parametrize("mutation", ["unit", "duals"])
def test_ring_unit_and_duals_are_checked(monkeypatch, tmp_path, capsys,
                                         name, mutation):
    """The class of 1 must be the identity grades and the involution the
    inverse: a unit object that misses an identity grade, or duals of two
    simples swapped so that they still form an involutive permutation of
    the basis, make the audit and gr raise and the CLI audit exit 3."""
    cat = load_fixture(name)
    if mutation == "unit":
        monkeypatch.setattr(grothendieck, "unit_object",
                            _unit_without_first_identity(
                                grothendieck.unit_object))
    else:
        dual = _duals_swapped(grothendieck.dual_obj, cat)
        star = [dual(simple_object(cat, g)).grades()[0]
                for g in range(cat.morphism_count)]
        assert sorted(star) == list(range(cat.morphism_count))
        assert [star[g] for g in star] == list(range(cat.morphism_count))
        assert tuple(star) != cat.inverse_of
        monkeypatch.setattr(grothendieck, "dual_obj", dual)
    with pytest.raises(ConsistencyError):
        run_audit(cat, samples=2)
    with pytest.raises(ConsistencyError):
        gr_report(cat)
    spec = tmp_path / "cat.json"
    spec.write_text(json.dumps(fixture_spec(name)))
    assert cli.main(["audit", "--category", str(spec)]) == 3
    assert "consistency violation" in capsys.readouterr().err


def _misgrading_tensor_obj(original):
    """tensor_obj, except that the regular object's square has the
    first slot of its first grade moved to its second grade: one pair
    misgraded, every other slot where the engine put it."""
    def tensor_obj(v, w):
        out = original(v, w)
        (h, codes), (h2, codes2) = list(out.layout.items())[:2]
        layout = dict(out.layout)
        layout[h], layout[h2] = codes[1:], tuple(sorted(codes2 + codes[:1]))
        mult = {g: len(c) for g, c in layout.items() if c}
        return GradedObject._of(out.cat, mult, out.seq,
                                {g: layout[g] for g in mult})
    return tensor_obj


@pytest.mark.parametrize("name", ["vec_z2", "pair2", "vec_s3"])
def test_misgraded_ring_constant_raises(monkeypatch, name):
    """The ring's constants are read off the engine's tensor product and
    checked against the composition table: a tensor product that puts one
    pair at the wrong grade makes the audit and gr raise."""
    cat = load_fixture(name)
    monkeypatch.setattr(grothendieck, "tensor_obj", _misgrading_tensor_obj(
        grothendieck.tensor_obj))
    with pytest.raises(ConsistencyError, match="composition table"):
        run_audit(cat, samples=2)
    with pytest.raises(ConsistencyError, match="composition table"):
        gr_report(cat)


def test_audit_counts_the_constants_gr_lists():
    """nonzero_constants is the length of gr's structure_constants on the
    fixtures, S4 and pair4."""
    cats = [load_fixture(name) for name in FIXTURE_NAMES] + [
        groupoid_from_spec(symmetric_group_spec(4, 1)),
        groupoid_from_spec({"kind": "pair", "objects": 4})]
    for cat in cats:
        ring = run_audit(cat, samples=2)["structural"]["grothendieck"]
        entries = gr_report(cat)["structure_constants"]
        assert ring["nonzero_constants"] == len(entries)
        assert ring["constants_match_composition"] is True
        assert len(entries) == sum(
            k is not None for row in cat.compose_table for k in row)


def _run_cli(args, tmp_path):
    return subprocess.run([sys.executable, "-m", "fusionaudit"] + args,
                          capture_output=True, text=True, cwd=str(tmp_path),
                          env=cli_env())


def _write_spec(tmp_path, name):
    path = tmp_path / ("%s.json" % name)
    path.write_text(json.dumps(fixture_spec(name)))
    return str(path)


def test_cli_audit_deterministic(tmp_path):
    spec = _write_spec(tmp_path, "pair2")
    outs = []
    for i in (1, 2):
        rep = tmp_path / ("r%d.json" % i)
        res = _run_cli(["audit", "--category", spec, "--seed", "3",
                        "--report", str(rep)], tmp_path)
        assert res.returncode == 0, res.stderr
        outs.append((res.stdout, rep.read_bytes()))
    assert outs[0] == outs[1]
    report = json.loads(outs[0][1])
    assert report["consistency"] is True
    assert report["unit_simple"] is False


def test_cli_check_algebra_and_gr_deterministic(tmp_path):
    spec = _write_spec(tmp_path, "vec_z2")
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps({"gen": "groupoid_algebra", "objects": [0]}))
    runs = [_run_cli(["check-algebra", "--category", spec,
                      "--algebra", str(alg)], tmp_path) for _ in (1, 2)]
    assert all(r.returncode == 0 for r in runs)
    assert runs[0].stdout == runs[1].stdout
    doc = json.loads(runs[0].stdout)
    assert doc["separability"]["separable"] is True

    runs = [_run_cli(["gr", "--category", spec], tmp_path) for _ in (1, 2)]
    assert all(r.returncode == 0 for r in runs)
    assert runs[0].stdout == runs[1].stdout


def test_cli_error_codes(tmp_path):
    res = _run_cli(["audit", "--category", "missing.json"], tmp_path)
    assert res.returncode == 2
    assert "input error" in res.stderr

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = _run_cli(["audit", "--category", str(bad)], tmp_path)
    assert res.returncode == 2

    spec = _write_spec(tmp_path, "vec")
    res = _run_cli(["audit", "--category", spec, "--corpus", "0"], tmp_path)
    assert res.returncode == 2

    # an empty --report path is refused before the audit runs (it once
    # exited 0 with the JSON report on standard output)
    res = _run_cli(["audit", "--category", spec, "--report", ""], tmp_path)
    assert res.returncode == 2
    assert "input error" in res.stderr and "empty" in res.stderr
    assert res.stdout == ""

    malformed = tmp_path / "cat.json"
    malformed.write_text(json.dumps({"kind": "group", "table": [[0, 1]]}))
    res = _run_cli(["audit", "--category", str(malformed)], tmp_path)
    assert res.returncode == 2

    explicit = tmp_path / "explicit.json"
    explicit.write_text(json.dumps({
        "kind": "explicit", "objects": 1, "morphisms": [[0, 0]],
        "identities": [0], "inverses": [0], "compose": [[5]]}))
    res = _run_cli(["audit", "--category", str(explicit)], tmp_path)
    assert res.returncode == 2
    assert "input error" in res.stderr

    # counts that are not JSON integers (each of these exited 0 before)
    pair = tmp_path / "pair.json"
    for count in (True, 2.5, "2"):
        pair.write_text(json.dumps({"kind": "pair", "objects": count}))
        res = _run_cli(["audit", "--category", str(pair)], tmp_path)
        assert res.returncode == 2, count
        assert "input error" in res.stderr
    explicit.write_text(json.dumps({
        "kind": "explicit", "objects": True, "morphisms": [[0, 0]],
        "identities": [0], "inverses": [0], "compose": [[0]]}))
    res = _run_cli(["audit", "--category", str(explicit)], tmp_path)
    assert res.returncode == 2
    assert "input error" in res.stderr

    # integer fields that are not JSON integers (each of these exited 0)
    for doc in (
            {"kind": "explicit", "objects": 1, "morphisms": [[0.7, False]],
             "identities": [0.2], "inverses": ["0"], "compose": [[False]]},
            {"kind": "group", "table": [[0.0, 1], [True, 0]]}):
        explicit.write_text(json.dumps(doc))
        res = _run_cli(["audit", "--category", str(explicit)], tmp_path)
        assert res.returncode == 2, doc
        assert "input error" in res.stderr

    res = _run_cli(["gr", "--category", spec, "--corpus", "0"], tmp_path)
    assert res.returncode == 2
    assert "input error" in res.stderr

    # one over each cap (each ran until killed at 10**20)
    for args in (["audit", "--corpus", str(audit.MAX_CORPUS_SIZE + 1)],
                 ["audit", "--samples", str(audit.MAX_SAMPLES + 1)],
                 ["gr", "--corpus", str(audit.MAX_CORPUS_SIZE + 1)]):
        res = _run_cli(args + ["--category", spec], tmp_path)
        assert res.returncode == 2, args
        assert "input error" in res.stderr and "at most" in res.stderr

    z2 = _write_spec(tmp_path, "vec_z2")
    alg = tmp_path / "zero_den.json"
    alg.write_text(json.dumps({"carrier": {"mult": {"0": 1}},
                               "mult": {"0": [["1/0"]]},
                               "unit": {"0": [["1"]]}}))
    res = _run_cli(["check-algebra", "--category", z2, "--algebra", str(alg)],
                   tmp_path)
    assert res.returncode == 2
    assert "input error" in res.stderr

    # entries not in rat_str form (each of these exited 0; the exponent
    # took seconds to expand), and a block at a grade Z/2 lacks
    vec = _write_spec(tmp_path, "vec")
    for unit, why in (({"0": [[True]]}, "True"), ({"0": [[1.0]]}, "1.0"),
                      ({"0": [["1e2000000"]]}, "1e2000000"),
                      ({"0": [["1.5"]]}, "1.5"),
                      ({"9": [["1"]]}, "grade 9 out of range")):
        alg.write_text(json.dumps({"carrier": {"mult": {"0": 1}},
                                   "mult": {"0": [["1"]]}, "unit": unit}))
        res = _run_cli(["check-algebra", "--category", vec,
                        "--algebra", str(alg)], tmp_path)
        assert res.returncode == 2, unit
        assert "input error" in res.stderr and why in res.stderr, res.stderr

    # a missing or misspelled key (a missing mult was read as zero, and
    # check-algebra exited 0 reporting that the unit laws fail)
    z2_mult = {"0": [["1", "1"]], "1": [["1", "1"]]}
    for doc, key in (({"carrier": {"mult": {"0": 1, "1": 1}},
                       "mul": z2_mult, "unit": {"0": [["1"]]}}, "'mul'"),
                     ({"carrier": {"mult": {"0": 1, "1": 1}},
                       "unit": {"0": [["1"]]}}, "'mult'"),
                     ({"carrier": {"mult": {"0": 1, "1": 1}},
                       "mult": z2_mult}, "'unit'")):
        alg.write_text(json.dumps(doc))
        res = _run_cli(["check-algebra", "--category", z2,
                        "--algebra", str(alg)], tmp_path)
        assert res.returncode == 2, doc
        assert "input error" in res.stderr and key in res.stderr, res.stderr

    # grade keys not in str(g) form (int() read each as another key's grade)
    for doc in ({"carrier": {"mult": {"0": 1, "00": 1}},
                 "mult": {"0": [["1"]]}, "unit": {"0": [["1"]]}},
                {"carrier": {"mult": {"0": 1}},
                 "mult": {"0": [["1"]]}, "unit": {"+0": [["1"]]}}):
        alg.write_text(json.dumps(doc))
        res = _run_cli(["check-algebra", "--category", vec,
                        "--algebra", str(alg)], tmp_path)
        assert res.returncode == 2, doc
        assert "input error" in res.stderr and "canonical" in res.stderr

    # nesting too deep for json.load (exited 4 on a RecursionError)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    for args in (["audit", "--category", str(deep)],
                 ["check-algebra", "--category", vec, "--algebra", str(deep)]):
        res = _run_cli(args, tmp_path)
        assert res.returncode == 2, args
        assert "input error" in res.stderr and "deeply" in res.stderr


def test_cli_generator_spec_with_unknown_key_exits_2(tmp_path):
    """check-algebra parsed this spec as the summand at object 0, with
    its "objects" and "typo" unread, and exited 0."""
    spec = _write_spec(tmp_path, "pair2")
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps(
        {"gen": "unit_summand", "i": 0, "objects": [1], "typo": 3}))
    res = _run_cli(["check-algebra", "--category", spec,
                    "--algebra", str(alg)], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "input error" in res.stderr and "'objects'" in res.stderr


@pytest.mark.parametrize("doc", COERCED_GENERATOR_SPECS)
def test_cli_coerced_generator_spec_exits_2(tmp_path, doc):
    spec = _write_spec(tmp_path, "pair2")
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps(doc))
    res = _run_cli(["check-algebra", "--category", spec,
                    "--algebra", str(alg)], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "input error" in res.stderr


def test_oversized_specs_exit_2(tmp_path, capsys):
    """One morphism or one multiplicity unit over its cap is an input
    error, exit 2, for the groupoid spec, an internal_end generator's
    object and a witness's morphism; run in process."""
    from fusionaudit import groupoid
    from fusionaudit.gvec import MAX_TOTAL_MULT, object_from_spec
    cat = tmp_path / "cat.json"
    cat.write_text(json.dumps({"kind": "group",
                               "table": [[0]] * (groupoid.MAX_MORPHISMS + 1)}))
    assert cli.main(["audit", "--category", str(cat)]) == 2
    assert "more than the %d" % groupoid.MAX_MORPHISMS \
        in capsys.readouterr().err
    z2 = load_fixture("vec_z2")
    cat.write_text(json.dumps(fixture_spec("vec_z2")))
    alg = tmp_path / "alg.json"
    big = {"mult": {"0": MAX_TOTAL_MULT, "1": 1}}
    alg.write_text(json.dumps({"gen": "internal_end", "object": big}))
    assert cli.main(["check-algebra", "--category", str(cat),
                     "--algebra", str(alg)]) == 2
    assert "more than the %d" % MAX_TOTAL_MULT in capsys.readouterr().err
    with pytest.raises(SpecError, match="total multiplicity"):
        reverify_witness(z2, 6, {"spec": {"gen": "unit_summand", "i": 0},
                                 "morphism": {"source": big, "target": big}})
    assert object_from_spec(z2, {"mult": {"0": MAX_TOTAL_MULT}}).mult \
        == {0: MAX_TOTAL_MULT}


def test_corpus_at_the_morphism_cap_redraws_oversize_sums(tmp_path, capsys):
    """Z1024, at the MAX_MORPHISMS cap, at seed 25 and corpus 4 draws a
    direct-sum pair of 4,098 slots, more than the MAX_TOTAL_MULT (4,096)
    an object spec takes.  The corpus draws that pair again, so the audit
    exits 0 with every carrier within the cap; its unit is simple, so
    every condition holds and no witness is written."""
    from fusionaudit.groupoid import MAX_MORPHISMS
    from fusionaudit.gvec import MAX_TOTAL_MULT
    n = MAX_MORPHISMS
    cat, out = tmp_path / "z1024.json", tmp_path / "report.json"
    cat.write_text(json.dumps({"kind": "group", "table": [
        [(i + j) % n for j in range(n)] for i in range(n)]}))
    assert cli.main(["audit", "--category", str(cat), "--seed", "25",
                     "--corpus", "4", "--report", str(out)]) == 0
    capsys.readouterr()
    rep = json.loads(out.read_text())
    assert rep["consistency"] and rep["unit_simple"]
    assert all(c["holds"] and c["witness"] is None
               for c in rep["conditions"].values())
    sizes = [e["total_multiplicity"] for e in rep["corpus"]["algebras"]
             if "total_multiplicity" in e]
    assert len(rep["corpus"]["algebras"]) == 12
    assert max(sizes) <= MAX_TOTAL_MULT


def test_oversized_algebra_products_exit_2(tmp_path, layout_calls, capsys):
    """An algebra spec whose carrier's tensor cube would have one slot
    more than gvec.MAX_PRODUCT_SLOTS is an input error, exit 2, in the
    explicit and internal_end forms, raised before any slot is laid out:
    _tensor_layout is patched to raise, so a build that lays out slots
    exits 4 instead of allocating.  At the cap itself the build starts,
    and its validation lays out slots: the explicit form has a non-zero
    unit, so its unit laws tensor two non-zero maps.  Run in process on
    two one-object groups, grades 0 and 1, where a carrier of
    multiplicities n and 1 has a cube of n**3 + 1 slots; the sum and
    groupoid_algebra forms are refused the same way."""
    from fusionaudit import gvec
    from fusionaudit.groupoid import groupoid_from_spec, make_group

    layout_calls.refusal = RuntimeError("slots laid out")
    cap = gvec.MAX_PRODUCT_SLOTS
    side = round(cap ** (1 / 3))
    root = round(side ** 0.5)
    assert side ** 3 == cap and root ** 2 == side
    trivial = {"kind": "group", "table": [[0]]}
    cat = tmp_path / "cat.json"
    cat.write_text(json.dumps({"kind": "union",
                               "parts": [trivial, trivial]}))
    alg = tmp_path / "alg.json"

    def check(doc):
        alg.write_text(json.dumps(doc))
        code = cli.main(["check-algebra", "--category", str(cat),
                         "--algebra", str(alg)])
        return code, capsys.readouterr().err

    def explicit(mult):
        unit = [["1"]] + [["0"]] * (mult["0"] - 1)
        return {"carrier": {"mult": mult}, "mult": {}, "unit": {"0": unit}}

    def end(mult):
        return {"gen": "internal_end", "object": {"mult": mult}}

    for doc in (explicit({"0": side, "1": 1}), end({"0": root, "1": 1})):
        code, err = check(doc)
        assert code == 2, err
        assert "would lay out %d slots, more than the %d" % (cap + 1, cap) \
            in err
    for doc in (explicit({"0": side}), end({"0": root})):
        assert check(doc) == (
            4, "internal error: RuntimeError: slots laid out\n")
    # side + 1 copies of 1_0, and the group algebra of Z/(side + 1)
    n = side + 1
    with pytest.raises(SpecError, match="%d slots" % n ** 3):
        algebra_from_spec(groupoid_from_spec(json.loads(cat.read_text())),
                          {"gen": "sum",
                           "parts": [{"gen": "unit_summand", "i": 0}] * n})
    cyclic = make_group([[(i + j) % n for j in range(n)] for i in range(n)])
    with pytest.raises(SpecError, match="%d slots" % n ** 3):
        algebra_from_spec(cyclic, {"gen": "groupoid_algebra", "objects": [0]})


def test_cli_internal_error_exits_4(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("corpus\nbroke")

    monkeypatch.setattr(audit, "algebra_corpus", broken)
    spec = _write_spec(tmp_path, "vec")
    assert cli.main(["audit", "--category", spec]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: corpus broke\n"


def test_cli_unwritable_report_exits_2(tmp_path, monkeypatch, capsys):
    """--report to a path that cannot be written, in a missing directory
    or a directory itself, is an input error, exit 2, raised before the
    audit starts (both exited 4 as internal errors, then 2 only after a
    whole audit).  Checking a writable path creates no file: a bad
    category spec or a bad --samples still leaves none."""
    spec = _write_spec(tmp_path, "vec")

    def no_audit(*args, **kwargs):
        pytest.fail("the audit started")

    monkeypatch.setattr(cli, "run_audit", no_audit)
    for path in (tmp_path / "missing" / "report.json", tmp_path):
        assert cli.main(["audit", "--category", spec,
                         "--report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: cannot write %s: " % path), err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "group", "table": [[0, 1]]}))
    report = tmp_path / "report.json"
    assert cli.main(["audit", "--category", str(bad),
                     "--report", str(report)]) == 2
    monkeypatch.undo()
    assert cli.main(["audit", "--category", spec, "--samples", "0",
                     "--report", str(report)]) == 2
    assert capsys.readouterr().err.count("input error") == 2
    assert not report.exists()
    assert cli.main(["audit", "--category", spec,
                     "--report", str(report)]) == 0
    assert report.read_text().startswith("{")


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_cli_audit_all_fixtures_exit_zero(tmp_path, name):
    spec = _write_spec(tmp_path, name)
    res = _run_cli(["audit", "--category", spec], tmp_path)
    assert res.returncode == 0, res.stderr
    assert "consistency: True" in res.stdout


# sha256 of each fixture's report at the defaults, serialised as the CLI does.
# An intentional report change updates these digests with a CHANGES.md note.
GOLDEN_REPORTS = {
    "vec": "390a6c84e90eb80f7cf907d74bab214d11a108a8a177d2ed527c11290ac3df48",
    "vec_z2":
        "99f4f26e482bac6c64fe83e94a22efcc00f82522daa47fd1da3b32eab1429ae5",
    "vec_s3":
        "158e8e553f8b39e8274dca30edfb78efa7a18a65aca02961dbd4782b819cc559",
    "pair2":
        "7713494664cb6d3ea01494f4671025b02102d268201f78aa8d6574bccda072d7",
    "pair3":
        "ecad75d8348a59a55952a60cf33d241434e05404c50ad9517da5a84d6c76daea",
    "union_z2_z2":
        "04377c055cda2e76c2f01273cddd8ac9d021e2ccb6c2131ebf7c8474a23ba4d4",
}


def test_fixture_reports_golden():
    assert sorted(GOLDEN_REPORTS) == sorted(FIXTURE_NAMES)
    for name in FIXTURE_NAMES:
        text = json.dumps(run_audit(fixture_spec(name)), sort_keys=True,
                          indent=2) + "\n"
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == GOLDEN_REPORTS[name], name


# sha256 of the S4 audit report (element order from seed 1; audit seed 1,
# corpus 2, samples 6), serialised as the CLI does.  Its 24 grades exercise
# the per-grade paths that the fixtures, with at most 9 grades, barely reach.
GOLDEN_S4_REPORT = \
    "1d9f18882fe7f543b246a0017fa4641d63e5335b91b5d8e862e6d6e16bcfca10"


def test_s4_report_golden():
    report = run_audit(symmetric_group_spec(4, 1), seed=1, corpus_size=2,
                       samples=6)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() \
        == GOLDEN_S4_REPORT


# sha256 of the pair4 audit report (audit seed 1, corpus 2, samples 6),
# serialised as the CLI does.  Its direct-sum carriers tensor left factors
# whose grades' slots are split into several runs by other grades' slots,
# on a groupoid where most grade pairs do not compose.
GOLDEN_PAIR4_REPORT = \
    "16d6c52c12d13e781aac0870e581d79f057db669aebcf949227b8e6ea1e938c4"


def test_pair4_report_golden():
    report = run_audit({"kind": "pair", "objects": 4}, seed=1,
                       corpus_size=2, samples=6)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() \
        == GOLDEN_PAIR4_REPORT


# name -> (live corpus indices, distinct live algebra objects) at audit
# seed 1, corpus 2.  On a one-object groupoid corpus indices 1-3 all draw
# kG, which algebra_corpus builds once, so each deterministic fact is
# decided once per distinct object: 6 times on vec_z2 and S4, not 8.
DISTINCT_LIVE = {"vec_z2": (8, 6), "pair3": (10, 10), "s4": (8, 6)}


def _category(name):
    if name == "s4":
        return symmetric_group_spec(4, 1)
    return load_fixture(name)


def _kept_corpus(monkeypatch):
    """Make run_audit's corpus visible: returns the list that each
    algebra_corpus call's result is appended to."""
    kept = []
    original = audit.algebra_corpus

    def keep(cat, rng, **kwargs):
        out = original(cat, rng, **kwargs)
        kept.append(out)
        return out

    monkeypatch.setattr(audit, "algebra_corpus", keep)
    return kept


def _assert_once_per_distinct(calls, corpora, name):
    live, distinct = DISTINCT_LIVE[name]
    (corpus,) = corpora
    objs = [a for a in corpus if not a.is_zero()]
    assert len(objs) == live
    assert len({id(a) for a in objs}) == distinct
    # every distinct live algebra exactly once, and nothing else
    assert len(calls) == distinct
    assert {id(a) for a in calls} == {id(a) for a in objs}


@pytest.mark.parametrize("name", sorted(DISTINCT_LIVE))
def test_audit_restricts_each_live_algebra_once(monkeypatch, name):
    import fusionaudit.audit
    import fusionaudit.internal
    calls = []
    original = fusionaudit.internal.restriction_data

    def counted(a, objs):
        calls.append(a)
        return original(a, objs)

    for mod in (fusionaudit.audit, fusionaudit.internal):
        monkeypatch.setattr(mod, "restriction_data", counted)
    corpora = _kept_corpus(monkeypatch)
    rep = run_audit(_category(name))
    assert len(rep["structural"]["corner_algebras"]) \
        == DISTINCT_LIVE[name][0]
    _assert_once_per_distinct(calls, corpora, name)


@pytest.mark.parametrize("name", sorted(DISTINCT_LIVE))
def test_audit_decides_each_separability_once(monkeypatch, name):
    # condition (2), the unit-summand check, the idempotent suite and the
    # fusion cross-check share one verdict per distinct live algebra (the
    # unit summands are the corpus's first algebras)
    calls = []
    original = functors.separability_verdict

    def counted(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(audit, "separability_verdict", counted)
    monkeypatch.setattr(functors, "separability_verdict", counted)
    corpora = _kept_corpus(monkeypatch)
    run_audit(_category(name), samples=2)
    _assert_once_per_distinct(calls, corpora, name)


def test_consecutive_audits_share_no_corpus_or_verdict(monkeypatch):
    # every memo lives inside one run_audit call: a second audit of the
    # same groupoid builds its own corpus and decides its facts again
    calls = []
    original = functors.separability_verdict

    def counted(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(audit, "separability_verdict", counted)
    corpora = _kept_corpus(monkeypatch)
    cat = load_fixture("vec_z2")
    reports = [run_audit(cat, samples=2) for _ in range(2)]
    assert reports[0] == reports[1]
    first, second = corpora
    assert not {id(a) for a in first} & {id(a) for a in second}
    assert len(calls) == 2 * DISTINCT_LIVE["vec_z2"][1]
    assert {id(a) for a in calls} == {id(a) for a in first + second}


def test_audit_refuses_a_corpus_without_the_unit_summands_first(monkeypatch):
    # the unit-summand check reads separable[i] for corpus index i, so a
    # corpus that does not start with 1_0, ..., 1_{n-1} must be refused
    # rather than read another algebra's verdict
    original = audit.algebra_corpus

    def swapped(cat, rng, **kwargs):
        out = original(cat, rng, **kwargs)
        out[0], out[1] = out[1], out[0]
        return out

    monkeypatch.setattr(audit, "algebra_corpus", swapped)
    with pytest.raises(ConsistencyError, match="not the unit summand 1_0"):
        run_audit(load_fixture("pair2"), samples=2)


@pytest.mark.parametrize("name", sorted(DISTINCT_LIVE))
def test_audit_computes_each_unit_idempotent_once(monkeypatch, name):
    # e_M = id_M (x) e_1, so the idempotent suite needs e_1 once per
    # distinct live algebra, not twice per sample nor once per index
    import fusionaudit.audit
    calls = []
    original = fusionaudit.audit.idempotent_e

    def counted(a, m):
        calls.append(a)
        return original(a, m)

    monkeypatch.setattr(fusionaudit.audit, "idempotent_e", counted)
    corpora = _kept_corpus(monkeypatch)
    rep = run_audit(_category(name), samples=4)
    assert len(rep["structural"]["idempotents"]) == DISTINCT_LIVE[name][0]
    _assert_once_per_distinct(calls, corpora, name)


def _count_forced(monkeypatch):
    """Count the reads of InternalAlgebra.mult and InternalCoalgebra.comult
    that run a builder: returns the list that each forced (kind, owner,
    builder's qualified name) is appended to."""
    from fusionaudit.internal import InternalAlgebra, InternalCoalgebra
    forced = []
    for cls, name in ((InternalAlgebra, "mult"),
                      (InternalCoalgebra, "comult")):
        read = getattr(cls, name).fget

        def counted(self, read=read, name=name):
            build = getattr(self, "_" + name)
            if callable(build):
                forced.append((name, self, build.__qualname__))
            return read(self)
        monkeypatch.setattr(cls, name, property(counted))
    return forced


@pytest.mark.parametrize("name", ["s4", "vec_s3"])
def test_audit_builds_no_structure_map_on_one_object(monkeypatch, name):
    """The conditions, the corners and the lax image read units, counits
    and carriers only, and a one-object groupoid has no witness: an audit
    builds no kG or direct-sum multiplication and no dual
    comultiplication, though the corpus holds all three kinds lazily."""
    forced = _count_forced(monkeypatch)
    corpora = _kept_corpus(monkeypatch)
    rep = run_audit(_category(name), samples=4)
    assert rep["unit_simple"] and forced == []
    (corpus,) = corpora
    lazy = [a for a in corpus if callable(a._mult)]
    assert len(lazy) >= 2  # kG and a direct sum at least


@pytest.mark.parametrize("name", MULTI_UNIT)
def test_audit_builds_no_dual_comultiplication(monkeypatch, name):
    """No condition reads a dual comultiplication, and on multi-object
    groupoids every witness is corpus entry 0, a unit summand whose maps
    are built up front: an audit, and check-algebra on each witness's
    algebra, build no kG, direct-sum or dual structure map."""
    forced = _count_forced(monkeypatch)
    cat = _category(name)
    rep = run_audit(cat, samples=4)
    assert not rep["unit_simple"]
    witnesses = [c["witness"] for c in rep["conditions"].values()
                 if c["witness"] and c["witness"]["kind"] in
                 ("algebra", "coalgebra")]
    assert witnesses
    for w in witnesses:
        assert w["corpus_index"] == 0
        doc = check_algebra_report(cat, w.get("spec") or w["dual_of"])
        assert doc["validation"]["ok"]
    # a corner on the support only hands on its algebra's multiplication
    assert {builder for _, _, builder in forced} \
        <= {"restriction_data.<locals>.mult_j"}
