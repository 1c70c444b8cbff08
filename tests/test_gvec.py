"""Graded objects and morphisms: strict monoidal structure, abelian
operations, duality, serialization."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _small_groupoids, symmetric_group_spec
from fusionaudit import gvec, slotcodes
from fusionaudit.audit import run_audit
from fusionaudit.corpus import (
    _below, algebra_corpus, random_morphism, random_object)
from fusionaudit.errors import (
    CategoryMismatch, ConsistencyError, ShapeError, SpecError)
from fusionaudit.exactlin import Matrix
from fusionaudit.fixtures import FIXTURE_NAMES, load_fixture
from fusionaudit.functors import ProjectionFunctor
from fusionaudit.groupoid import MAX_MORPHISMS, groupoid_from_spec
from fusionaudit.gvec import (
    GradedMorphism, GradedObject, _same_cat, _tensor_layout, compose, cokernel,
    direct_sum_obj, direct_sum_with_maps, dual_morphism, dual_obj,
    graded_object, hom_basis, identity_mor, image_factorization, is_epi,
    is_iso, is_mono, kernel, left_dual, morphism_from_spec, morphism_to_spec,
    object_from_spec, object_to_spec, restrict_grades, restriction_inclusion,
    restriction_projection, simple_object, tensor_mor, tensor_obj,
    total_mult, unit_object, unit_summand, zero_mor, zero_object)
from fusionaudit.internal import (
    InternalAlgebra, InternalCoalgebra, direct_sum_algebra, dualize_algebra,
    dualize_coalgebra, groupoid_algebra, internal_end, restriction_data,
    support, unit_summand_algebra)
from fusionaudit.morphcalc import find_retraction, find_section
from slotwords import (
    bisected_pos, from_words, seq_parts, slot_words, sorted_tensor_words)

Z2 = load_fixture("vec_z2")
S3 = load_fixture("vec_s3")
P2 = load_fixture("pair2")
P3 = load_fixture("pair3")
U22 = load_fixture("union_z2_z2")
CATS = [Z2, S3, P2, P3, U22]
S4 = groupoid_from_spec(symmetric_group_spec(4, 1))


def words(v):
    """v's slot words per grade, in layout order."""
    return list(slot_words(v).items())


def check_layout(v):
    """Structural invariants of the slot codes and of the words they stand
    for: per grade a strictly increasing tuple of codes below the radix of
    the factor sequence, whose words are strictly increasing too and all
    as long as the sequence."""
    assert v.layout.keys() == v.mult.keys()
    radix = slotcodes.radix(v.seq)
    ws = slot_words(v)
    assert list(ws) == list(v.layout)
    for g, m in v.mult.items():
        codes = v.layout[g]
        assert type(codes) is tuple and len(codes) == m
        assert list(codes) == sorted(set(codes))
        assert all(type(c) is int and 0 <= c < radix for c in codes)
        assert list(ws[g]) == sorted(set(ws[g]))
        assert all(len(w) == len(v.seq) for w in ws[g])


def test_tensor_multiplicities_z2():
    v = graded_object(Z2, {0: 1, 1: 2})
    w = graded_object(Z2, {0: 1, 1: 1})
    assert tensor_obj(v, w).mult == {0: 3, 1: 3}
    assert tensor_obj(w, v).mult == {0: 3, 1: 3}


def test_tensor_grading_follows_composition():
    # pair groupoid: (0 -> 1) tensor (1 -> 0) lands in (0 -> 0)
    x = simple_object(P2, 1)
    y = simple_object(P2, 2)
    assert tensor_obj(x, y).mult == {0: 1}
    assert tensor_obj(y, x).mult == {3: 1}
    # incomposable grades contribute nothing
    assert tensor_obj(x, x).is_zero()


def test_unit_laws_are_identities():
    rng = random.Random(401)
    for cat in CATS:
        unit = unit_object(cat)
        assert tensor_obj(unit, unit) == unit
        assert slot_words(tensor_obj(unit, unit)) == slot_words(unit)
        for _ in range(5):
            v = random_object(cat, rng)
            for prod in (tensor_obj(unit, v), tensor_obj(v, unit)):
                assert prod == v
                assert slot_words(prod) == slot_words(v)
                assert prod.seq == v.seq and prod.layout == v.layout
            w = random_object(cat, rng)
            f = random_morphism(v, w, rng)
            uid = identity_mor(unit)
            assert tensor_mor(uid, f) == f
            assert tensor_mor(f, uid) == f


def test_tensor_associative_on_objects_and_morphisms():
    rng = random.Random(402)
    for cat in CATS:
        for _ in range(8):
            v = [random_object(cat, rng, max_total=3) for _ in range(3)]
            w = [random_object(cat, rng, max_total=3) for _ in range(3)]
            lhs_obj = tensor_obj(tensor_obj(v[0], v[1]), v[2])
            rhs_obj = tensor_obj(v[0], tensor_obj(v[1], v[2]))
            assert lhs_obj == rhs_obj
            assert slot_words(lhs_obj) == slot_words(rhs_obj)
            assert lhs_obj.seq == rhs_obj.seq
            assert lhs_obj.layout == rhs_obj.layout
            check_layout(lhs_obj)
            f = [random_morphism(v[i], w[i], rng) for i in range(3)]
            lhs = tensor_mor(tensor_mor(f[0], f[1]), f[2])
            rhs = tensor_mor(f[0], tensor_mor(f[1], f[2]))
            assert lhs == rhs


def test_tensor_interchange():
    rng = random.Random(403)
    for cat in CATS:
        for _ in range(6):
            a, b, c = (random_object(cat, rng, max_total=3)
                       for _ in range(3))
            d, e, k = (random_object(cat, rng, max_total=3)
                       for _ in range(3))
            f2, f1 = random_morphism(a, b, rng), random_morphism(b, c, rng)
            h2, h1 = random_morphism(d, e, rng), random_morphism(e, k, rng)
            lhs = tensor_mor(compose(f1, f2), compose(h1, h2))
            rhs = compose(tensor_mor(f1, h1), tensor_mor(f2, h2))
            assert lhs == rhs
            assert tensor_mor(identity_mor(a), identity_mor(d)) \
                == identity_mor(tensor_obj(a, d))


def test_hom_basis_dimension_and_order():
    v = graded_object(Z2, {0: 2})
    w = graded_object(Z2, {0: 3})
    basis = hom_basis(v, w)
    assert len(basis) == 6
    for k, f in enumerate(basis):
        r, c = divmod(k, 2)
        assert f.blocks[0][r, c] == 1
        assert sum(1 for x in f.blocks[0].entries if x) == 1
    # mixed support: only shared grades contribute
    v = graded_object(S3, {0: 2, 1: 1, 3: 2})
    w = graded_object(S3, {1: 2, 3: 1, 5: 4})
    assert len(hom_basis(v, w)) == 1 * 2 + 2 * 1


def test_kernel_frozen_example():
    v = graded_object(Z2, {0: 2})
    w = graded_object(Z2, {0: 1})
    f = GradedMorphism(v, w, {0: Matrix.from_rows([[1, 1]])})
    ker, incl = kernel(f)
    assert ker.mult == {0: 1}
    assert incl.blocks[0] == Matrix.from_rows([[-1], [1]])
    assert compose(f, incl).is_zero()


def test_image_factorization_frozen_example():
    v = graded_object(Z2, {0: 1})
    w = graded_object(Z2, {0: 2})
    f = GradedMorphism(v, w, {0: Matrix.from_rows([[1], [1]])})
    psi, phi = image_factorization(f)
    assert psi.target.mult == {0: 1}
    assert psi.blocks[0] == Matrix.from_rows([[1]])
    assert phi.blocks[0] == Matrix.from_rows([[1], [1]])
    cok, proj = cokernel(f)
    assert cok.mult == {0: 1}
    assert compose(proj, f).is_zero()


def test_abelian_operations_random():
    rng = random.Random(404)
    for cat in CATS:
        for _ in range(6):
            v = random_object(cat, rng)
            w = random_object(cat, rng)
            f = random_morphism(v, w, rng)
            ker, incl = kernel(f)
            assert is_mono(incl)
            assert compose(f, incl).is_zero()
            cok, proj = cokernel(f)
            assert is_epi(proj)
            assert compose(proj, f).is_zero()
            psi, phi = image_factorization(f)
            assert is_epi(psi) and is_mono(phi)
            assert compose(phi, psi) == f
            # rank-nullity per grade, summed
            assert total_mult(ker) + total_mult(psi.target) == total_mult(v)
            assert total_mult(cok) + total_mult(psi.target) == total_mult(w)


def test_kernel_of_zero_and_identity():
    v = graded_object(S3, {0: 2, 4: 1})
    zk, _ = kernel(zero_mor(v, zero_object(S3)))
    assert zk == v
    ik, _ = kernel(identity_mor(v))
    assert ik.is_zero()
    assert cokernel(identity_mor(v))[0].is_zero()


def test_dual_simple_pair_groupoid():
    x = simple_object(P2, 1)
    d, ev, coev = left_dual(x)
    assert d == simple_object(P2, 2)
    assert ev.source.mult == {3: 1}
    assert ev.blocks[3] == Matrix.from_rows([[1]])
    assert coev.target.mult == {0: 1}
    assert coev.blocks[0] == Matrix.from_rows([[1]])


def test_zigzag_identities():
    rng = random.Random(405)
    for cat in CATS:
        for _ in range(5):
            v = random_object(cat, rng)
            d, ev, coev = left_dual(v)
            idv, idd = identity_mor(v), identity_mor(d)
            left = compose(tensor_mor(idv, ev), tensor_mor(coev, idv))
            assert left == idv
            right = compose(tensor_mor(ev, idd), tensor_mor(idd, coev))
            assert right == idd


def test_dual_strictness_on_objects():
    rng = random.Random(406)
    for cat in CATS:
        unit = unit_object(cat)
        du = dual_obj(unit)
        assert du == unit and slot_words(du) == slot_words(unit)
        for _ in range(5):
            v = random_object(cat, rng)
            w = random_object(cat, rng)
            dd = dual_obj(dual_obj(v))
            assert dd == v and slot_words(dd) == slot_words(v)
            lhs = dual_obj(tensor_obj(v, w))
            rhs = tensor_obj(dual_obj(w), dual_obj(v))
            assert lhs == rhs and slot_words(lhs) == slot_words(rhs)


def test_dual_morphism_contravariant_functor():
    rng = random.Random(407)
    for cat in CATS:
        for _ in range(5):
            a, b, c = (random_object(cat, rng, max_total=3)
                       for _ in range(3))
            g = random_morphism(a, b, rng)
            f = random_morphism(b, c, rng)
            assert dual_morphism(identity_mor(a)) == identity_mor(dual_obj(a))
            assert dual_morphism(compose(f, g)) \
                == compose(dual_morphism(g), dual_morphism(f))
            assert dual_morphism(dual_morphism(g)) == g
            h = random_morphism(c, a, rng)
            assert dual_morphism(tensor_mor(g, h)) \
                == tensor_mor(dual_morphism(h), dual_morphism(g))


def test_dual_morphism_via_evaluation():
    # dual f is the unique map making the standard ev/coev square commute:
    # ev_b ((dual f) (x) id_b) == ev_a (id_(dual a) (x) f) on dual(b) (x) a
    rng = random.Random(408)
    for cat in CATS[:3]:
        a = random_object(cat, rng)
        b = random_object(cat, rng)
        f = random_morphism(a, b, rng)
        da, ev_a, _ = left_dual(a)
        db, ev_b, _ = left_dual(b)
        fd = dual_morphism(f)
        lhs = compose(ev_b, tensor_mor(identity_mor(db), f))
        rhs = compose(ev_a, tensor_mor(fd, identity_mor(a)))
        assert lhs == rhs


def test_direct_sum_maps():
    rng = random.Random(409)
    for cat in CATS:
        v = random_object(cat, rng)
        w = random_object(cat, rng)
        s, iv, iw, pv, pw = direct_sum_with_maps(v, w)
        assert s == direct_sum_obj(v, w)
        check_layout(s)
        # atomic, and v's slot a at g is the slot with word ((g, a),)
        assert words(s) == list(_ref_atomic(
            {g: v.m(g) + w.m(g) for g in set(v.mult) | set(w.mult)}).items())
        assert all(iv.blocks[g].sparse[:m] == Matrix.identity(m).sparse
                   for g, m in v.mult.items())
        assert compose(pv, iv) == identity_mor(v)
        assert compose(pw, iw) == identity_mor(w)
        assert compose(pv, iw).is_zero()
        assert compose(pw, iv).is_zero()
        assert compose(iv, pv) + compose(iw, pw) == identity_mor(s)


def test_mono_epi_iso():
    v1 = graded_object(Z2, {0: 1})
    v2 = graded_object(Z2, {0: 2})
    col = GradedMorphism(v1, v2, {0: Matrix.from_rows([[1], [1]])})
    row = GradedMorphism(v2, v1, {0: Matrix.from_rows([[1, 1]])})
    assert is_mono(col) and not is_epi(col)
    assert is_epi(row) and not is_mono(row)
    assert not is_iso(col) and not is_iso(row)
    assert is_iso(identity_mor(v2))
    assert not is_iso(zero_mor(v2, v2))
    # iso needs equal multiplicities, not just equal totals
    w = graded_object(Z2, {1: 2})
    assert not is_iso(zero_mor(v2, w))


@st.composite
def _morphisms_near_square(draw):
    """Morphisms whose source and target multiplicities are equal half the
    time, with entries in {-1, 0, 1}, so singular, zero and non-square
    blocks all occur."""
    cat = draw(_small_groupoids())
    grades = st.integers(0, cat.morphism_count - 1)
    mults = st.dictionaries(grades, st.integers(1, 3), max_size=3)
    src = draw(mults)
    tgt = dict(src) if draw(st.booleans()) else draw(mults)
    blocks = {}
    for g in set(src) & set(tgt):
        size = tgt[g] * src[g]
        entries = draw(st.lists(st.integers(-1, 1), min_size=size,
                                max_size=size))
        blocks[g] = Matrix(tgt[g], src[g], [Fraction(x) for x in entries])
    return GradedMorphism(graded_object(cat, src), graded_object(cat, tgt),
                          blocks)


@settings(max_examples=200, deadline=None)
@given(_morphisms_near_square())
def test_is_iso_agrees_with_mono_and_epi(f):
    assert is_iso(f) == (is_mono(f) and is_epi(f))


def test_unit_summand_acts_as_graded_restriction():
    rng = random.Random(410)
    one_j = unit_summand(P3, {0, 2})
    assert one_j.mult == {0: 1, 8: 1}
    for _ in range(5):
        x = random_object(P3, rng, max_total=5)
        left = tensor_obj(one_j, x)
        keep_src = {g for g in x.mult if P3.morphisms[g][0] in {0, 2}}
        expect = restrict_grades(x, keep_src)
        assert left == expect and slot_words(left) == slot_words(expect)
        right = tensor_obj(x, one_j)
        keep_tgt = {g for g in x.mult if P3.morphisms[g][1] in {0, 2}}
        expect = restrict_grades(x, keep_tgt)
        assert right == expect and slot_words(right) == slot_words(expect)
    assert tensor_obj(one_j, one_j) == one_j


def test_scalar_arithmetic():
    rng = random.Random(411)
    v = random_object(S3, rng)
    w = random_object(S3, rng)
    f = random_morphism(v, w, rng)
    g = random_morphism(v, w, rng)
    assert (f + g) - g == f
    assert f.scale(2) == f + f
    assert f.scale(0).is_zero()
    assert f.scale(-1) + f == zero_mor(v, w)
    assert f.scale(Fraction(1, 3)).scale(3) == f


def test_object_spec_roundtrip():
    v = graded_object(S3, {0: 2, 5: 1})
    assert object_from_spec(S3, object_to_spec(v)) == v
    with pytest.raises(SpecError):
        object_from_spec(S3, {"mult": {"9": 1}})
    with pytest.raises(SpecError):
        object_from_spec(S3, {"mult": {"0": -1}})
    with pytest.raises(SpecError):
        object_from_spec(S3, {})
    # multiplicities are JSON integers; grade keys are decimal strings
    for m in (1.9, True, "1", None):
        with pytest.raises(SpecError):
            object_from_spec(S3, {"mult": {"0": m}})
    assert object_from_spec(S3, {"mult": {"5": 1, "0": 2}}) == v


@pytest.mark.parametrize("bad", (True, 1.0, 1.9, "1", None))
def test_public_object_constructors_take_ints_only(bad):
    # int() would coerce each of these into a different, valid object
    with pytest.raises(SpecError):
        graded_object(Z2, {0: bad})
    with pytest.raises(SpecError):
        graded_object(Z2, {bad: 1})
    with pytest.raises(SpecError):
        simple_object(Z2, bad)
    assert graded_object(Z2, {0: 2, 1: 0}).mult == {0: 2}
    assert simple_object(Z2, 1).mult == {1: 1}


def test_morphism_spec_roundtrip():
    rng = random.Random(412)
    for cat in (Z2, P2):
        v = random_object(cat, rng)
        w = random_object(cat, rng)
        f = random_morphism(v, w, rng)
        doc = morphism_to_spec(f)
        assert morphism_from_spec(cat, doc) == f
    bad = {"source": {"mult": {"0": 1}}, "target": {"mult": {"0": 1}},
           "blocks": {"0": [[1, 2]]}}
    with pytest.raises(SpecError):
        morphism_from_spec(Z2, bad)
    for entry in (True, 1.0, "1e2", "0.5", "+1"):
        bad["blocks"] = {"0": [[entry]]}
        with pytest.raises(SpecError):
            morphism_from_spec(Z2, bad)
    # grade keys other than str(g): int() read "01" as 1 (so {"1": 2,
    # "01": 3} became {1: 3}), let "00" overwrite the block at "0", and
    # took " 1", "+0" and a full-width digit
    one = {"mult": {"0": 1}}
    for key in ("01", "00", " 1", "1 ", "+0", "-0", "\uff11", "1_0", ""):
        with pytest.raises(SpecError, match="canonical"):
            object_from_spec(Z2, {"mult": {key: 1}})
        doc = {"source": one, "target": one,
               "blocks": {"0": [["1"]], key: [["2"]]}}
        with pytest.raises(SpecError, match="canonical"):
            morphism_from_spec(Z2, doc)
    with pytest.raises(SpecError, match="canonical"):
        object_from_spec(Z2, {"mult": {"1": 2, "01": 3}})
    # a missing endpoint or a document that is not an object raised
    # KeyError or TypeError
    for doc in ({}, {"source": one}, {"target": one}, [], None, "source"):
        with pytest.raises(SpecError):
            morphism_from_spec(Z2, doc)
    assert object_from_spec(Z2, {"mult": {"1": 2, "0": 3}}).mult \
        == {0: 3, 1: 2}


@pytest.mark.parametrize("grade", ("9", "2", "-1"))
def test_out_of_range_block_grade_is_named(grade):
    """A block at a grade the groupoid lacks is named as such, not
    reported as a shape mismatch against an empty grade."""
    doc = {"source": {"mult": {"0": 1}}, "target": {"mult": {"0": 1}},
           "blocks": {grade: [["1"]]}}
    with pytest.raises(SpecError, match="^grade %s out of range$" % grade):
        morphism_from_spec(Z2, doc)
    v = graded_object(Z2, {0: 1})
    with pytest.raises(ShapeError, match="out of range"):
        GradedMorphism(v, v, {int(grade): Matrix.identity(1)})


def test_block_shape_validation():
    v = graded_object(Z2, {0: 2})
    w = graded_object(Z2, {0: 1})
    with pytest.raises(ShapeError):
        GradedMorphism(v, w, {0: Matrix.identity(2)})
    with pytest.raises(ShapeError):
        compose(zero_mor(v, v), zero_mor(w, w))


def test_object_boundary_validation():
    """The public constructors reject a grade outside 0..m-1 and a negative
    multiplicity, and drop a zero multiplicity: its grade gets no slot and
    feeds no tensor product."""
    for bad in (-1, Z2.morphism_count):
        for build in (lambda: graded_object(Z2, {bad: 1}),
                      lambda: simple_object(Z2, bad)):
            with pytest.raises(ShapeError):
                build()
    with pytest.raises(ShapeError):
        graded_object(Z2, {0: -1})
    v = graded_object(Z2, {0: 1, 1: 0})
    assert v.mult == {0: 1} and list(v.layout) == [0]
    assert tensor_obj(v, v).mult == {0: 1}


def test_layout_grades_must_match_multiplicities():
    """A layout with a grade outside mult used to be accepted, and its
    stray slots then entered tensor products.  Every object has exactly
    the grades of mult in its layout, with mult[g] slots at g: a zero
    multiplicity leaves no grade behind on any path that builds objects,
    and a grade with no slot words is rejected."""
    a, b = ((0, 0),), ((0, 1),)
    with pytest.raises(ShapeError):
        from_words(Z2, {0: (a,), 1: ()})
    built = [graded_object(Z2, {0: 1, 1: 0}),
             object_from_spec(Z2, {"mult": {"0": 1, "1": 0}}),
             from_words(Z2, {0: (a, b)})]
    for v in built:
        assert v.layout.keys() == v.mult.keys()
        assert all(m > 0 and len(v.layout[g]) == m
                   for g, m in v.mult.items())
        check_layout(v)
    v = built[0]
    assert v.mult == {0: 1} and built[1] == v
    assert tensor_obj(v, v).mult == {0: 1}
    assert list(tensor_obj(v, v).layout) == [0]


def test_object_boundary_validates_slot_words():
    """The tensor enumeration takes each factor's words at a grade as
    sorted, distinct and of one length, and every letter as atomic;
    from_words, which builds the word-form references, rejects a layout
    that breaks that, an old (0, g, a) or side-tagged direct-sum letter
    included."""
    a, b = ((0, 0),), ((0, 1),)
    bad_layouts = [
        {0: (b, a)}, {0: (a, a)}, {0: (a,), 1: (((0, 0), (1, 0)),)},
        {0: (a,), 1: ()}, {2: (a,)}, {-1: (a,)}, {0: ([(0, 0)],)},
        *({0: ((letter,),)} for letter in (
            (0, 0, 0), (1, 0, a), (2, 0), (0, -1),
            (True, 0), (0, 1.0), [0, 0], 0))]
    for layout in bad_layouts:
        with pytest.raises(ShapeError):
            from_words(Z2, layout)
    v = from_words(Z2, {0: (a, b)})
    assert slot_words(tensor_obj(v, v))[0] == (a + a, a + b, b + a, b + b)


def test_words_sit_at_their_grade_and_no_public_constructor_takes_words():
    """Equal words at different grades break _tensor_layout's no-tie
    argument: the word-form constructor once accepted this Z2 object, and
    its square had two equal codes at one grade.  from_words rejects a
    word whose letters do not compose to its grade and an empty word off
    the identity grades, and GradedObject itself takes no arguments."""
    a = ((0, 0),)
    for cat, layout in ((Z2, {0: (a,), 1: (a,)}), (Z2, {1: ((),)}),
                        (Z2, {0: (((1, 0),),)}),
                        (Z2, {1: (((1, 0), (1, 0)),)}),
                        (P2, {0: (((1, 0), (1, 0)),)})):
        with pytest.raises(ShapeError, match="does not sit at grade"):
            from_words(cat, layout)
    with pytest.raises(TypeError):
        GradedObject(Z2, {0: 1}, {0: (a,)})
    v = from_words(Z2, {0: (((1, 0), (1, 0)),),
                        1: (((0, 0), (1, 0)), ((1, 0), (0, 0)))})
    assert v.mult == {0: 1, 1: 2}
    assert from_words(P2, {0: ((),), 3: ((),)}) == unit_object(P2)


def test_graded_object_has_no_public_constructor():
    """GradedObject() raises TypeError with or without arguments, so no
    object without multiplicities or codes can be made; _of still builds
    one, equal to the atomic object it codes."""
    for args in ((), (Z2,), (Z2, {0: 1})):
        with pytest.raises(TypeError, match="no public constructor"):
            GradedObject(*args)
    ref = graded_object(Z2, {0: 2, 1: 1})
    v = GradedObject._of(Z2, dict(ref.mult), ref.seq, dict(ref.layout))
    assert v == ref and words(v) == words(ref)
    assert repr(v) == "GradedObject({0: 2, 1: 1})"


def _check_revalidates(x):
    """x equals its rebuild through a validating constructor, with the
    same grades in the same order, so the constructor's checks pass and
    its normalisation changes nothing: from_words for an object (so every
    slot word sits at its grade), GradedMorphism(...) for a morphism,
    whose blocks are each in canonical sparse form."""
    if isinstance(x, GradedObject):
        y = from_words(x.cat, slot_words(x))
        assert list(y.mult.items()) == list(x.mult.items())
        assert words(y) == words(x)
        check_layout(x)
        return
    _check_revalidates(x.source)
    _check_revalidates(x.target)
    y = GradedMorphism(x.source, x.target, dict(x.blocks))
    assert list(y.blocks.items()) == list(x.blocks.items())
    for b in x.blocks.values():
        assert b.sparse == Matrix.from_rows(b.tolist()).sparse


@settings(max_examples=60, deadline=None)
@given(_small_groupoids(), st.integers(0, 2**32 - 1))
def test_unchecked_producers_match_validating_constructors(cat, seed):
    """Every producer that builds through GradedObject._of or
    GradedMorphism._of keeps their invariant, including the compositions,
    sums and scalings whose blocks cancel to zero."""
    rng = random.Random(seed)
    x = random_object(cat, rng, max_total=3)
    y = random_object(cat, rng, max_total=3)
    grades = {g for g in range(cat.morphism_count) if rng.random() < 0.5}
    f = random_morphism(x, y, rng, zero_weight=rng.choice((1, 3)))
    g = random_morphism(y, x, rng, zero_weight=rng.choice((1, 3)))
    fg = tensor_mor(f, g)
    ker, cok = kernel(f)[1], cokernel(f)[1]
    epi, mono = image_factorization(f)
    objs = set(rng.sample(range(cat.object_count),
                          rng.randrange(1, cat.object_count + 1)))
    rj = ProjectionFunctor(cat, objs)
    match = rj.match(x, y)
    kg = groupoid_algebra(cat, objs)
    ds = direct_sum_algebra(kg, internal_end(x))
    values = [
        x, zero_object(cat), unit_object(cat), tensor_obj(x, y),
        dual_obj(x), direct_sum_obj(x, y), restrict_grades(x, grades),
        identity_mor(x), zero_mor(x, y), compose(g, f), compose(f, g),
        compose(cok, f), compose(f, ker), fg, tensor_mor(ker, cok),
        *direct_sum_with_maps(x, y)[1:],
        restriction_inclusion(x, grades), restriction_projection(x, grades),
        ker, cok, epi, mono, *hom_basis(x, y), *left_dual(x)[1:],
        dual_morphism(f), dual_morphism(fg), f + f, f - f, f.scale(0),
        f.scale(Fraction(-2, 3)),
        find_retraction(mono), find_section(epi),
        rj.mor(fg), rj.phi(match), rj.psi(match), rj.phi0(), rj.psi0(),
        kg.mult, kg.unit, ds.mult, ds.unit,
    ]
    # every algebra and coalgebra producer builds through the unchecked
    # _of; each result passes the checking constructor, and its maps
    # revalidate
    i = min(objs)
    end = internal_end(x)
    co = dualize_algebra(ds)
    algebras = [kg, ds, end, unit_summand_algebra(cat, i),
                dualize_coalgebra(co), restriction_data(ds, objs)["algebra"],
                restriction_data(end, support(end))["algebra"]]
    coalgebras = [co, dualize_algebra(end),
                  dualize_algebra(unit_summand_algebra(cat, i))]
    for a in algebras:
        InternalAlgebra(a.carrier, a.mult, a.unit)
        values += [a.carrier, a.mult, a.unit]
    for c in coalgebras:
        InternalCoalgebra(c.carrier, c.comult, c.counit)
        values += [c.carrier, c.comult, c.counit]
    for v in values:
        _check_revalidates(v)
    assert (f - f).is_zero() and compose(cok, f).is_zero()


def test_hot_producers_skip_validation(monkeypatch):
    """tensor_mor, compose, restrict_grades, dual_morphism, the projection
    functor's phi and psi, and the samplers random_object and
    random_morphism build their values unchecked: none calls
    _normalize_blocks, which GradedMorphism(...) calls, Matrix(...), which
    coerces every entry, or _spec_ints, which graded_object calls."""
    rng = random.Random(424)
    x = random_object(P3, rng)
    y = random_object(P3, rng)
    f = random_morphism(x, y, rng, zero_weight=1)
    g = random_morphism(y, x, rng, zero_weight=1)
    rj = ProjectionFunctor(P3, {0, 1})
    match = rj.match(x, y)
    calls = []
    normalize, matrix_init = gvec._normalize_blocks, Matrix.__init__
    spec_ints = gvec._spec_ints

    def counted_normalize(*args):
        calls.append("normalize")
        return normalize(*args)

    def counted_matrix_init(*args):
        calls.append("Matrix")
        return matrix_init(*args)

    def counted_spec_ints(*args):
        calls.append("spec_ints")
        return spec_ints(*args)

    monkeypatch.setattr(gvec, "_normalize_blocks", counted_normalize)
    monkeypatch.setattr(Matrix, "__init__", counted_matrix_init)
    monkeypatch.setattr(gvec, "_spec_ints", counted_spec_ints)
    built = [tensor_mor(f, g), compose(g, f), restrict_grades(x, {0, 1}),
             dual_morphism(f), rj.phi(match), rj.psi(match),
             random_morphism(x, y, rng, zero_weight=1),
             random_object(P3, rng)]
    assert calls == []
    assert not any(built[i].is_zero() for i in (0, 1, 3, 4, 5, 6))
    GradedMorphism(x, x, {})
    Matrix(1, 1, [1])
    graded_object(P3, {0: 1})
    assert calls == ["normalize", "Matrix", "spec_ints"]


# The samplers as they were first written, through the validating
# constructors, with the draws that the golden reports pin.

def _validating_rational(rng, zero_weight):
    if rng.randrange(zero_weight + 3) < zero_weight:
        return Fraction(0)
    num = rng.choice([-3, -2, -1, 1, 1, 2, 3])
    den = rng.choice([1, 1, 1, 2, 3])
    return Fraction(num, den)


def _validating_object(cat, rng, max_total=4, allow_zero=False):
    total = rng.randrange(0 if allow_zero else 1, max_total + 1)
    mult = {}
    for _ in range(total):
        g = rng.randrange(cat.morphism_count)
        mult[g] = mult.get(g, 0) + 1
    return graded_object(cat, mult)


def _validating_morphism(v, w, rng, zero_weight=2):
    """(morphism, number of all-zero blocks dropped)."""
    blocks = {}
    for g in set(v.mult) & set(w.mult):
        tm, sm = w.mult[g], v.mult[g]
        blocks[g] = Matrix(tm, sm, [_validating_rational(rng, zero_weight)
                                    for _ in range(tm * sm)])
    f = GradedMorphism(v, w, blocks)
    return f, len(blocks) - len(f.blocks)


def _same_object(x, y):
    assert list(x.mult.items()) == list(y.mult.items())
    assert seq_parts(x.seq) == seq_parts(y.seq) and x.layout == y.layout


def _same_morphism(f, g):
    _same_object(f.source, g.source)
    _same_object(f.target, g.target)
    assert list(f.blocks.items()) == list(g.blocks.items())
    for b in f.blocks.values():
        assert all(type(x) is Fraction for row in b.sparse for _, x in row)


def _compare_samplers(cat, seed, zero_weight):
    """Draw the same samples unchecked and through the validating path
    from two rngs of one seed; return the number of all-zero blocks
    dropped."""
    fast, slow = random.Random(seed), random.Random(seed)
    dropped = 0
    for max_total, allow_zero in ((4, False), (3, True), (2, False)):
        v = random_object(cat, fast, max_total, allow_zero)
        _same_object(v, _validating_object(cat, slow, max_total, allow_zero))
        w = random_object(cat, fast, max_total, allow_zero)
        _same_object(w, _validating_object(cat, slow, max_total, allow_zero))
        for a, b in ((v, w), (w, v), (v, v)):
            f = random_morphism(a, b, fast, zero_weight)
            g, zeros = _validating_morphism(a, b, slow, zero_weight)
            _same_morphism(f, g)
            dropped += zeros
        assert fast.getstate() == slow.getstate()
    return dropped


@settings(max_examples=40, deadline=None)
@given(_small_groupoids(), st.integers(0, 2**32 - 1))
def test_samplers_match_validating_path(cat, seed):
    """random_object and random_morphism, which build unchecked, give the
    values of the validating constructors from the same draws, and leave
    the rng in the same state."""
    for zero_weight in (1, 3):
        _compare_samplers(cat, seed, zero_weight)


def test_below_is_randrange_and_choice():
    """_below(rng, n) draws what rng.randrange(n), randrange(1, n + 1) and
    choice on n items draw, and leaves the rng in the same state, for
    every n up to 64, around each power of two from 128 up to the grade
    cap, and at S6's 720 grades: the samplers' contract rests on
    getrandbits alone, and this holds it to randrange's draws on every
    Python that runs it."""
    sizes = list(range(1, 65)) + [127, 128, 129, 255, 256, 257, 511, 512,
                                  513, 720, 1023, MAX_MORPHISMS]
    for n in sizes:
        items = range(n)
        for seed in range(4):
            ours, ref = random.Random(seed), random.Random(seed)
            for _ in range(8):
                assert _below(ours, n) == ref.randrange(n)
                assert 1 + _below(ours, n) == ref.randrange(1, n + 1)
                assert _below(ours, n) == ref.choice(items)
            assert ours.getstate() == ref.getstate()


# Groupoids of 1, 2, 4, 6 and 9 grades: 1 and 4 are the rejection loop's
# edge cases (n = 1 draws one bit, n = 4 draws three and rejects half).
_SAMPLER_CATS = {1: groupoid_from_spec({"kind": "group", "table": [[0]]}),
                 2: Z2, 4: P2, 6: S3, 9: P3}


def _randrange_entry(rng, zero_weight):
    """One random_morphism entry as rng.randrange draws it."""
    if rng.randrange(zero_weight + 3) < zero_weight:
        return Fraction(0)
    num = (-3, -2, -1, 1, 1, 2, 3)[rng.randrange(7)]
    return Fraction(num, (1, 1, 1, 2, 3)[rng.randrange(5)])


@pytest.mark.parametrize("zero_weight", [0, 2, 5])
@pytest.mark.parametrize("grades", sorted(_SAMPLER_CATS))
def test_samplers_draw_as_randrange(grades, zero_weight):
    """random_object and random_morphism, which draw in rejection loops of
    their own, give the values of a reference built on rng.randrange:
    multiplicities in drawing order, then every block's dense rows, blocks
    in set(v.mult) & set(w.mult) order, all-zero blocks dropped; and they
    leave an equal rng.getstate()."""
    cat = _SAMPLER_CATS[grades]
    assert cat.morphism_count == grades
    for seed in range(6):
        ours, ref = random.Random(seed), random.Random(seed)
        objs = []
        for max_total, allow_zero in ((4, False), (3, True), (1, False),
                                      (6, False)):
            v = random_object(cat, ours, max_total, allow_zero)
            mult = {}
            for _ in range(ref.randrange(0 if allow_zero else 1,
                                         max_total + 1)):
                g = ref.randrange(grades)
                mult[g] = mult.get(g, 0) + 1
            assert list(v.mult.items()) == list(mult.items())
            objs.append(v)
        for v in objs:
            for w in objs:
                f = random_morphism(v, w, ours, zero_weight)
                want = {}
                for g in set(v.mult) & set(w.mult):
                    rows = [[_randrange_entry(ref, zero_weight)
                             for _ in range(v.mult[g])]
                            for _ in range(w.mult[g])]
                    if any(map(any, rows)):
                        want[g] = rows
                assert [(g, [list(b.row(i)) for i in range(b.rows)])
                        for g, b in f.blocks.items()] == list(want.items())
        assert ours.getstate() == ref.getstate()


def test_random_morphism_rejects_empty_zero_range_before_drawing():
    rng = random.Random(8)
    state = rng.getstate()
    v = unit_object(Z2)
    for zero_weight in (-3, -4):
        with pytest.raises(ValueError):
            random_morphism(v, v, rng, zero_weight)
    assert rng.getstate() == state


@pytest.mark.parametrize("n", [0, -1, -8])
def test_below_rejects_empty_range_before_drawing(n):
    rng = random.Random(8)
    state = rng.getstate()
    with pytest.raises(ValueError):
        _below(rng, n)
    assert rng.getstate() == state


def test_samplers_drop_all_zero_blocks():
    dropped = sum(_compare_samplers(cat, seed, zero_weight)
                  for cat in CATS for seed in range(4)
                  for zero_weight in (1, 3))
    assert dropped > 0


def test_random_morphism_mismatch_draws_nothing():
    """A pair over different groupoids raises CategoryMismatch before any
    draw, even when their grades overlap."""
    rng = random.Random(425)
    v, w = graded_object(P2, {0: 2, 1: 1}), graded_object(P3, {0: 1, 1: 2})
    state = rng.getstate()
    for a, b in ((v, w), (w, v)):
        with pytest.raises(CategoryMismatch):
            random_morphism(a, b, rng)
        assert rng.getstate() == state


def test_layout_invariants_everywhere():
    rng = random.Random(413)
    for cat in CATS:
        for _ in range(4):
            v = random_object(cat, rng)
            w = random_object(cat, rng)
            for obj in (v, unit_object(cat), tensor_obj(v, w),
                        direct_sum_obj(v, w), dual_obj(v),
                        tensor_obj(dual_obj(w), tensor_obj(v, w))):
                check_layout(obj)
            f = random_morphism(v, w, rng)
            check_layout(kernel(f)[0])
            check_layout(cokernel(f)[0])
            check_layout(image_factorization(f)[0].target)


# Reference oracle for the sparse tensor_mor: the dense block build it
# replaced, kept verbatim (slot metadata sorted by word, both sides
# enumerated by tensor_obj and again by _tensor_slots, rows x cols filled
# per grade).

def _dense_tensor_obj(v, w):
    cat = _same_cat(v, w)
    vl, wl = slot_words(v), slot_words(w)
    layout = {}
    for g1 in v.mult:
        ws1 = vl[g1]
        row = cat.compose_table[g1]
        for g2 in w.mult:
            h = row[g2]
            if h is None:
                continue
            layout.setdefault(h, []).extend(
                w1 + w2 for w1 in ws1 for w2 in wl[g2])
    layout = {h: tuple(sorted(ws)) for h, ws in layout.items()}
    return from_words(cat, layout)


def _dense_tensor_slots(v, w):
    """Per grade: slot metadata (word, g1, i, g2, j) of v (x) w, in slot
    order (sorted by word)."""
    cat = _same_cat(v, w)
    vl, wl = slot_words(v), slot_words(w)
    per = {}
    for g1 in v.mult:
        row = cat.compose_table[g1]
        for g2 in w.mult:
            h = row[g2]
            if h is None:
                continue
            dst = per.setdefault(h, [])
            for i, w1 in enumerate(vl[g1]):
                for j, w2 in enumerate(wl[g2]):
                    dst.append((w1 + w2, g1, i, g2, j))
    for h in per:
        per[h].sort(key=lambda t: t[0])
    return per


def _dense_tensor_mor(f, h):
    src = _dense_tensor_obj(f.source, h.source)
    tgt = _dense_tensor_obj(f.target, h.target)
    src_slots = _dense_tensor_slots(f.source, h.source)
    tgt_slots = _dense_tensor_slots(f.target, h.target)
    blocks = {}
    for g, rows in tgt_slots.items():
        cols = src_slots.get(g)
        if not cols:
            continue
        # group columns by the factor grades; only matching grades couple
        colclass = {}
        for cpos, (_, g1, i, g2, j) in enumerate(cols):
            colclass.setdefault((g1, g2), []).append((cpos, i, j))
        data = [[Fraction(0)] * len(cols) for _ in range(len(rows))]
        touched = False
        for rpos, (_, g1, i, g2, j) in enumerate(rows):
            fb = f.blocks.get(g1)
            hb = h.blocks.get(g2)
            if fb is None or hb is None:
                continue
            row = data[rpos]
            for cpos, ci, cj in colclass.get((g1, g2), ()):
                x = fb[i, ci] * hb[j, cj]
                if x:
                    row[cpos] = x
                    touched = True
        if touched:
            blocks[g] = Matrix.from_rows(data)
    return GradedMorphism(src, tgt, blocks)


def _assert_same_tensor(f, h):
    """Sparse and dense f (x) h agree exactly: blocks (grade order and
    Fractions included), multiplicities and both slot layouts."""
    got, ref = tensor_mor(f, h), _dense_tensor_mor(f, h)
    assert list(got.blocks.items()) == list(ref.blocks.items())
    for side in ("source", "target"):
        a, b = getattr(got, side), getattr(ref, side)
        assert list(a.mult.items()) == list(b.mult.items())
        assert slot_words(a) == slot_words(b)
    obj = tensor_obj(f.source, h.source)
    assert obj == ref.source and slot_words(obj) == slot_words(ref.source)


def _differential_factors(cat, rng):
    """Morphisms of every kind the audit tensors: random ones with zero
    blocks and zero endpoints, identities, restriction inclusions and
    projections, and maps between tensor products, direct sums, duals and
    the unit (non-atomic slot words).  Two endomorphisms test the identity
    fast paths of tensor_mor: a hand-built identity, which must take the
    general path, and an idempotent whose blocks are the interned identity
    at some grades only."""
    x = random_object(cat, rng, max_total=2, allow_zero=True)
    y = random_object(cat, rng, max_total=2)
    objs = [zero_object(cat), unit_object(cat),
            random_object(cat, rng, max_total=3),
            tensor_obj(x, y), direct_sum_obj(x, y), dual_obj(y),
            tensor_obj(dual_obj(y), direct_sum_obj(y, x))]
    out = []
    for v in objs:
        out.append(identity_mor(v))
        grades = {g for g in v.mult if rng.random() < 0.5}
        out.append(restriction_inclusion(v, grades))
        out.append(restriction_projection(v, grades))
        w = rng.choice(objs)
        out.append(random_morphism(v, w, rng, zero_weight=rng.choice((1, 8))))
        out.append(zero_mor(v, w))
    _, ev, coev = left_dual(y)
    _, inj, _, _, proj = direct_sum_with_maps(x, y)
    v = objs[-1]
    grades = {g for g in v.mult if rng.random() < 0.5}
    idem = compose(restriction_inclusion(v, grades),
                   restriction_projection(v, grades))
    out.extend((ev, coev, inj, proj, _hand_built_identity(v), idem))
    return out


def _hand_built_identity(v):
    """identity_mor(v) with equal blocks that are not the interned
    Matrix.identity, so tensor_mor takes its general path on them."""
    f = GradedMorphism(v, v, {
        g: Matrix.from_rows([[int(i == j) for j in range(m)]
                             for i in range(m)])
        for g, m in v.mult.items()})
    assert f == identity_mor(v)
    assert not any(b.is_interned_identity() for b in f.blocks.values())
    return f


def test_sparse_tensor_mor_matches_dense_reference():
    rng = random.Random(419)
    cases = 0
    for name in FIXTURE_NAMES:
        cat = load_fixture(name)
        factors = _differential_factors(cat, rng)
        for f in factors:
            for h in rng.sample(factors, 12):
                _assert_same_tensor(f, h)
                cases += 1
    assert cases == 6 * 41 * 12


@settings(max_examples=60, deadline=None)
@given(_small_groupoids(), st.integers(0, 2**32 - 1))
def test_sparse_tensor_mor_matches_dense_on_random_groupoids(cat, seed):
    rng = random.Random(seed)
    factors = _differential_factors(cat, rng)
    for _ in range(30):
        _assert_same_tensor(rng.choice(factors), rng.choice(factors))


def _skipped_pairs(f, h):
    """The composable pairs (g1, g2) at which both endpoints of f have
    slots at g1 and both of h at g2, one block is zero and the other is
    not: the pairs tensor_mor's loop over non-zero blocks never visits,
    though their rows and columns exist.  Each comes with the number of
    pairs feeding its grade in the product of the targets."""
    table = f.source.cat.compose_table
    feeds = {}
    for g1 in f.target.mult:
        for g2 in h.target.mult:
            g = table[g1][g2]
            if g is not None:
                feeds[g] = feeds.get(g, 0) + 1
    out = []
    for g1 in set(f.source.mult) & set(f.target.mult):
        for g2 in set(h.source.mult) & set(h.target.mult):
            g = table[g1][g2]
            if g is not None and (g1 in f.blocks) != (g2 in h.blocks):
                out.append(((g1, g2), feeds[g]))
    return out


def test_tensor_mor_with_zero_blocks_matches_dense_reference():
    """Zero blocks at grades where both endpoints have slots: tensor_mor
    visits only the composable pairs of non-zero blocks, and the pairs it
    skips, a zero block against a non-zero one, leave zero rows that the
    dense reference computes entry by entry.  Products of sums, duals and
    the unit put some of the skipped pairs in grades fed by several
    pairs, among slots that the visited pairs fill."""
    rng = random.Random(432)
    skipped = several = 0
    for cat in CATS + [S4]:
        objs = _layout_objects(cat, rng)
        for _ in range(40):
            f, h = (random_morphism(rng.choice(objs), rng.choice(objs), rng,
                                    zero_weight=1) for _ in range(2))
            if max(sum(gvec.tensor_mult(f.source, h.source).values()),
                   sum(gvec.tensor_mult(f.target, h.target).values())) > 64:
                continue
            f, h = (GradedMorphism(x.source, x.target,
                                   {g: b for g, b in x.blocks.items()
                                    if rng.random() < 0.5})
                    for x in (f, h))
            _assert_same_tensor(f, h)
            pairs = _skipped_pairs(f, h)
            skipped += len(pairs)
            several += sum(n > 1 for _, n in pairs)
    assert skipped and several


def test_tensor_mor_keeps_target_grade_order():
    """A factor whose target lays out its source's words with the grades in
    another order does not share the source's enumeration: the target of
    f (x) h keeps the grade order that tensor_obj gives it."""
    v = graded_object(S3, {2: 1, 1: 1})
    w = graded_object(S3, {1: 1, 2: 1})
    assert slot_words(v) == slot_words(w) and list(v.layout) != list(w.layout)
    swap = GradedMorphism(v, w, {1: Matrix.identity(1),
                                 2: Matrix.identity(1)})
    unit = identity_mor(unit_object(S3))
    for f, h in ((unit, swap), (swap, unit), (swap, swap)):
        _assert_same_tensor(f, h)
        assert list(tensor_mor(f, h).target.mult) == list(
            tensor_obj(f.target, h.target).mult)


def test_equal_multiplicities_lay_out_their_own_words():
    """Equal multiplicities do not make equal layouts: the grade-1 word of
    this product sorts before its grade-0 word, so the slots of its square
    interleave the other way round, and the bisected positions of each
    square equal the word-sorted ranks."""
    atomic = graded_object(Z2, {0: 1, 1: 1})
    product = tensor_obj(simple_object(Z2, 1), atomic)
    assert product == atomic and slot_words(product) != slot_words(atomic)
    for v, at_0 in ((atomic, {(0, 0): [0], (1, 1): [1]}),
                    (product, {(0, 0): [1], (1, 1): [0]})):
        obj = _tensor_layout(v, v)
        ref, ref_pos = _sorted_tensor_layout(v, v)
        assert slot_words(obj) == slot_words(ref)
        assert bisected_pos(v, v, obj) == ref_pos and ref_pos[0] == at_0
        ws = slot_words(v)
        assert set(slot_words(obj)[0]) == {ws[0][0] * 2, ws[1][0] * 2}


# Reference oracle for _tensor_layout: the enumeration it replaced, kept
# verbatim (each grade's words concatenated pair by pair and sorted, the
# ranks sliced per pair; see slotwords.sorted_tensor_words).

def _sorted_tensor_layout(v, w):
    cat = _same_cat(v, w)
    layout, pos = sorted_tensor_words(cat, slot_words(v), slot_words(w))
    return from_words(cat, layout), pos


def _layout_objects(cat, rng):
    """Objects whose products reach each way _tensor_layout takes its
    left runs (grades in order, grades sorted, slots sorted): atomic
    ones, corpus carriers, the unit (the same empty word at every
    identity grade), unit (+) unit, nested direct sums, and duals of
    tensor products."""
    x = random_object(cat, rng, max_total=3)
    y = random_object(cat, rng, max_total=3)
    unit = unit_object(cat)
    twice = direct_sum_obj(unit, unit)
    nested = direct_sum_obj(direct_sum_obj(x, twice), direct_sum_obj(y, x))
    carriers = [a.carrier for a in algebra_corpus(cat, rng)
                if not a.is_zero()]
    return [x, y, unit, twice, nested, tensor_obj(x, y),
            dual_obj(tensor_obj(x, y)), dual_obj(tensor_obj(nested, y)),
            tensor_obj(dual_obj(y), direct_sum_obj(y, x)), *carriers[:3]]


def _assert_same_layout(v, w):
    """_tensor_layout, computed afresh, equals the sort-based reference:
    multiplicities, slot words and grade order, and the position of every
    slot that _slot_starts finds by bisection equals its rank among the
    sorted words.  Returns the grades fed by one pair and those fed by
    several, how many of the latter interleave the pairs' slots, and how
    many pairs are split into several runs."""
    obj = _tensor_layout(v, w)
    pos = bisected_pos(v, w, obj)
    ref, ref_pos = _sorted_tensor_layout(v, w)
    assert list(obj.mult.items()) == list(ref.mult.items())
    assert list(slot_words(obj).items()) == list(slot_words(ref).items())
    assert list(pos) == list(ref_pos)
    single = several = interleaved = split = 0
    for h, pairs in ref_pos.items():
        assert list(pos[h]) == list(pairs)
        for pair, slots in pairs.items():
            assert pos[h][pair] == slots
            split += slots != list(range(slots[0], slots[0] + len(slots)))
        if len(pairs) == 1:
            single += 1
        else:
            several += 1
            flat = [p for slots in pairs.values() for p in slots]
            interleaved += flat != sorted(flat)
    return single, several, interleaved, split


def test_tensor_layout_matches_sorted_reference():
    """The enumeration agrees with the reference on grades fed by one
    pair and by several, including pairs whose left grade's slots are
    split into several runs by the slots of other grades (their
    positions are not one contiguous range)."""
    rng = random.Random(424)
    counts = [0, 0, 0, 0]
    for cat in [load_fixture(name) for name in FIXTURE_NAMES] + [S4]:
        objs = _layout_objects(cat, rng)
        for v in objs:
            for w in objs:
                counts = [a + b for a, b in
                          zip(counts, _assert_same_layout(v, w))]
    assert all(counts)


@settings(max_examples=40, deadline=None)
@given(_small_groupoids(), st.integers(0, 2**32 - 1))
def test_tensor_layout_matches_sorted_reference_on_random_groupoids(cat,
                                                                    seed):
    rng = random.Random(seed)
    objs = _layout_objects(cat, rng)
    for _ in range(30):
        _assert_same_layout(rng.choice(objs), rng.choice(objs))


def _one_run_per_grade(v):
    """Whether v's grades hold ranges of codes that do not overlap, so
    that in code order each grade's slots form one run.  Grades may share
    an end code: the unit's grades all hold code 0, and such tied slots
    never feed one grade of a product."""
    spans = sorted((codes[0], codes[-1]) for codes in v.layout.values())
    return all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


def test_single_pair_grades_skip_the_sort(monkeypatch):
    """_tensor_layout sorts none of v's slots when each grade of v is one
    run of consecutive codes, and sorts them once otherwise; the only
    other sort it makes is one of v's grades by first code.  All three
    cases occur: no sort, v's grades only, v's slots.  Both factors are
    read first, since an atomic object sorts its multiplicities when its
    slots are first read."""
    rng = random.Random(425)
    cases = [(v, w) for cat in CATS + [S4]
             for objs in [_layout_objects(cat, rng)]
             for v in objs for w in objs]
    sorts = []

    def counted(items, **kwargs):
        items = list(items)
        sorts.append(items)
        return sorted(items, **kwargs)

    monkeypatch.setattr(gvec, "sorted", counted, raising=False)
    kinds = set()
    for v, w in cases:
        v.layout, w.layout  # lay out atomic factors before counting
        sorts.clear()
        _tensor_layout(v, w)
        slots = sorted((c, g) for g, codes in v.layout.items()
                       for c in codes)
        of_slots = [items for items in sorts if sorted(items) == slots]
        of_grades = [items for items in sorts
                     if sorted(g for g, _ in items) == sorted(v.layout)]
        assert len(of_slots) + len(of_grades) == len(sorts) <= 2
        assert len(of_grades) <= 1
        assert len(of_slots) == (0 if _one_run_per_grade(v) else 1)
        kinds.add((len(of_grades), len(of_slots)))
    assert {(0, 0), (1, 0), (1, 1)} <= kinds


def test_split_left_runs_match_sorted_reference():
    """Left factors whose grades are not each one run of codes take the
    sort of their slots: a tensor product whose grades interleave, and a
    dual of one.  The unit of a multi-object groupoid, code 0 at every
    identity grade, ties across grades and is walked in its grade order.
    Each product with them, on either side, equals the word-sorted
    reference, grade order included."""
    rng = random.Random(426)
    for cat in (P2, P3, U22, S3):
        x = graded_object(cat, {g: 1 + g % 2
                                for g in range(cat.morphism_count)})
        y = random_object(cat, rng, max_total=3)
        product = tensor_obj(x, x)
        lefts = [product, dual_obj(product)]
        for v in lefts:
            assert not _one_run_per_grade(v)
        unit = unit_object(cat)
        if len(unit.layout) > 1:
            assert set(unit.layout.values()) == {(0,)}
            lefts.append(unit)
        for v in lefts:
            for w in (x, y, product, unit, dual_obj(x)):
                _assert_same_layout(v, w)
                _assert_same_layout(w, v)


@settings(max_examples=40, deadline=None)
@given(_small_groupoids(), st.integers(0, 2**32 - 1))
def test_tensor_mult_matches_tensor_obj(cat, seed):
    """tensor_mult gives tensor_obj's multiplicities, as _tensor_layout
    enumerates them, without a slot."""
    rng = random.Random(seed)
    objs = _layout_objects(cat, rng) + [zero_object(cat)]
    for _ in range(30):
        v, w = rng.choice(objs), rng.choice(objs)
        assert gvec.tensor_mult(v, w) == _tensor_layout(v, w).mult


def test_tensor_of_identities_builds_no_row(monkeypatch):
    """tensor_mor of two identity_mor values is identity_mor of the
    product: every block is the interned identity and no Matrix is built.
    The interned identity from v into a distinct object with v's sequence
    and ordered layout, and hand-built identities, give the same morphism
    by the general path."""
    rng = random.Random(427)
    cases = []
    for cat in CATS + [S4]:
        x = random_object(cat, rng, max_total=3)
        y = tensor_obj(random_object(cat, rng, max_total=2),
                       direct_sum_obj(x, unit_object(cat)))
        cases += [(x, y), (y, x), (unit_object(cat), y),
                  (zero_object(cat), x)]
    for v, w in cases:
        vw = tensor_obj(v, w)
        f, h = identity_mor(v), identity_mor(w)
        twin = GradedObject._of(v.cat, dict(v.mult), v.seq, dict(v.layout))
        into_twin = GradedMorphism._of(v, twin, f.blocks)
        for m in vw.mult.values():
            Matrix.identity(m)
        built = []
        make = Matrix._of.__func__

        def counted(cls, *args):
            built.append(1)
            return make(cls, *args)

        monkeypatch.setattr(Matrix, "_of", classmethod(counted))
        got = tensor_mor(f, h)
        assert built == []
        monkeypatch.undo()
        assert tensor_mor(into_twin, h) == got
        assert got.source is got.target
        assert slot_words(got.source) == slot_words(vw)
        assert got.blocks.keys() == vw.mult.keys()
        for g, b in got.blocks.items():
            assert b is Matrix.identity(vw.mult[g])
        slow = tensor_mor(_hand_built_identity(v), _hand_built_identity(w))
        assert list(slow.blocks.items()) == list(got.blocks.items())
        assert got == _dense_tensor_mor(f, h)


def test_identity_blocks_skip_arithmetic(monkeypatch):
    """A factor pair with the interned identity on one side re-indexes the
    other side's rows: tensor_mor compares and multiplies no Fraction.  A
    hand-built identity takes the general path, which does both."""
    rng = random.Random(428)
    cases = []
    for cat in CATS + [S4]:
        x = random_object(cat, rng, max_total=3)
        y = tensor_obj(x, random_object(cat, rng, max_total=2))
        h = random_morphism(y, direct_sum_obj(y, x), rng, zero_weight=1)
        sub = {g for g in x.mult if rng.random() < 0.5}
        for f in (identity_mor(x), restriction_inclusion(x, sub),
                  restriction_projection(y, sub)):
            cases += [(f, h, False), (h, f, False)]
        cases.append((_hand_built_identity(x), h, True))
    refs = [_dense_tensor_mor(f, h) for f, h, _ in cases]
    calls = []
    for op in ("__eq__", "__mul__"):
        def counted(a, b, op=getattr(Fraction, op)):
            calls.append(1)
            return op(a, b)
        monkeypatch.setattr(Fraction, op, counted)
    got = []
    for f, h, general in cases:
        calls.clear()
        got.append(tensor_mor(f, h))
        assert bool(calls) == (general and not got[-1].is_zero())
    monkeypatch.undo()
    assert sum(not g.is_zero() for g in got) > len(got) // 2
    for a, b in zip(got, refs):
        assert list(a.blocks.items()) == list(b.blocks.items())


def test_tensor_mor_enumerates_endomorphism_pairs_once(layout_calls):
    """tensor_mor enumerates one product for both sides when both factors
    are endomorphisms, and one per side otherwise: a target that is a
    twin of its source, the same words over its own sequence, takes a
    second enumeration as a target with other words does.  A zero factor
    reads no slot, so its product enumerates nothing.  The factors'
    endpoints, some of them lazy products, are laid out before counting,
    so only tensor_mor's own enumerations are counted."""
    rng = random.Random(426)
    cases = []
    for cat in CATS:
        x = random_object(cat, rng, max_total=3)
        y = tensor_obj(random_object(cat, rng, max_total=2),
                       direct_sum_obj(x, unit_object(cat)))
        twin = from_words(cat, slot_words(y))
        other = tensor_obj(direct_sum_obj(x, unit_object(cat)), x)
        cases += [(random_morphism(x, x, rng), random_morphism(y, y, rng), 1),
                  (identity_mor(y), random_morphism(y, twin, rng), 2),
                  (random_morphism(x, x, rng),
                   random_morphism(y, other, rng), 2)]
    zero = [f.is_zero() or h.is_zero() for f, h, _ in cases]
    assert any(zero)
    # Every kind of case has non-zero factors.
    assert {i % 3 for i, z in enumerate(zero) if not z} == {0, 1, 2}
    for f, h, _ in cases:
        for end in (f.source, f.target, h.source, h.target):
            end.layout
    for (f, h, want), z in zip(cases, zero):
        layout_calls.clear()
        got = tensor_mor(f, h)
        assert len(layout_calls) == (0 if z else want)
        assert got == _dense_tensor_mor(f, h)


def _no_slot_products(cat, rng):
    """Factor pairs whose tensor_mor reads no slot: zero factors (zero
    maps, endomorphisms among them, and random maps, which can be zero)
    and identity_mor pairs, over the zero object, the unit, atomic
    objects, sums, products and duals."""
    x = random_object(cat, rng, max_total=3)
    y = random_object(cat, rng, max_total=2)
    objs = [zero_object(cat), unit_object(cat), x, direct_sum_obj(x, y),
            tensor_obj(x, y), dual_obj(tensor_obj(y, x))]
    out = []
    for _ in range(10):
        v, w, v2, w2 = (rng.choice(objs) for _ in range(4))
        out += [(zero_mor(v, w), random_morphism(v2, w2, rng)),
                (random_morphism(v2, w2, rng), zero_mor(v, v)),
                (identity_mor(v), identity_mor(w))]
    return out


@settings(max_examples=40, deadline=None)
@given(_small_groupoids(), st.integers(0, 2**32 - 1))
def test_lazy_endpoints_lay_out_as_tensor_obj(cat, seed):
    """A product that reads no slot gets endpoints that are laid out on
    first read; an endomorphism pair gets one endpoint, as source and
    target.  An endpoint is not a plain GradedObject before its first read
    and is one after.  Once read, each endpoint has tensor_obj's
    multiplicities in its grade order, its sequence, its layout in its
    grade order and its slot words, and the product equals the dense
    reference."""
    rng = random.Random(seed)
    for f, h in _no_slot_products(cat, rng):
        got = tensor_mor(f, h)
        if f.source is f.target and h.source is h.target:
            assert got.source is got.target
        assert type(got.source) is not GradedObject
        assert type(got.target) is not GradedObject
        for end, v, w in ((got.source, f.source, h.source),
                          (got.target, f.target, h.target)):
            ref = _tensor_layout(v, w)
            assert end.seq == ref.seq
            assert type(end) is GradedObject
            assert list(end.layout.items()) == list(ref.layout.items())
            assert list(end.mult.items()) == list(ref.mult.items())
            assert slot_words(end) == slot_words(ref)
        assert got == _dense_tensor_mor(f, h)


def test_zero_factor_lays_out_nothing_until_read(layout_calls):
    """tensor_mor with a zero factor enumerates no slot, and mono_epi,
    is_zero and == on its result enumerate none either.  The first read
    of an endpoint's layout enumerates it once; later reads of its layout
    and sequence enumerate nothing.  The factor y = x (x) dual(x) is laid
    out before counting, so the endpoint's read is its one enumeration."""
    rng = random.Random(429)
    calls = layout_calls
    for cat in CATS + [S4]:
        x = random_object(cat, rng, max_total=3)
        y = tensor_obj(x, dual_obj(x))
        y.layout
        h = random_morphism(y, direct_sum_obj(y, x), rng, zero_weight=0)
        assert not h.is_zero()
        for f, k in ((zero_mor(x, y), h), (h, zero_mor(y, x))):
            calls.clear()
            got = tensor_mor(f, k)
            assert gvec.mono_epi(got) == (not got.source.mult,
                                          not got.target.mult)
            assert got.is_zero() and got == tensor_mor(f, k)
            assert calls == []
            layout = got.source.layout
            assert len(calls) == 1
            assert got.source.layout is layout and got.source.seq is not None
            assert len(calls) == 1


def test_zero_sample_tensor_looks_nothing_up(monkeypatch):
    """A sampled f (x) id_A with f zero, as the conditions re-verify on
    S4, decides mono and epi without building an alphabet or a product's
    multiplicities: the sampled objects are laid out only on first read
    and the product's endpoints only answer is_zero."""
    rng = random.Random(430)
    c = groupoid_algebra(S4, range(S4.object_count)).carrier
    calls = []

    def refused(*args):
        calls.append(args)
        raise AssertionError("called")

    cases = []
    for _ in range(20):
        v = random_object(S4, rng, allow_zero=True)
        w = random_object(S4, rng, allow_zero=True)
        with monkeypatch.context() as m:
            for owner in (gvec, slotcodes):
                m.setattr(owner, "Alphabet", refused)
            m.setattr(gvec, "_mult_product", refused)
            got = gvec.mono_epi(tensor_mor(zero_mor(v, w), identity_mor(c)))
        cases.append((v, w, got))
    assert calls == []
    assert {got for _, _, got in cases} > {(False, False)}
    for v, w, got in cases:
        assert got == (not gvec.tensor_mult(v, c), not gvec.tensor_mult(w, c))


def _eager_atomic(v):
    """The atomic object of v's multiplicities, built from its words: the
    layout an atomic object had when it was laid out as it was made."""
    return from_words(v.cat, {g: tuple(((g, a),) for a in range(m))
                              for g, m in v.mult.items()})


@settings(max_examples=40, deadline=None)
@given(_small_groupoids(), st.integers(0, 2**32 - 1))
def test_lazy_objects_read_as_eager_ones(cat, seed):
    """Atomic objects (samples, sums, kernels, cokernels, images) and the
    endpoints of products that read no slot are not plain GradedObjects
    until read.  Once read, each is one, with the eager construction's
    multiplicities in their grade order, sequence, layout in its grade
    order and slot words.  A product's is_zero before the read is
    tensor_mult's emptiness, also on pair groupoids and unions, where
    products vanish."""
    rng = random.Random(seed)
    x = random_object(cat, rng, max_total=3)
    y = random_object(cat, rng, max_total=3)
    f = random_morphism(x, direct_sum_obj(x, y), rng)
    atomic = [random_object(cat, rng, max_total=3), direct_sum_obj(y, x),
              kernel(f)[0], cokernel(f)[0], image_factorization(f)[0].target]
    objs = [zero_object(cat), unit_object(cat), x, y,
            tensor_obj(x, dual_obj(y))]
    products = []
    for _ in range(6):
        v, w = rng.choice(objs), rng.choice(objs)
        got = tensor_mor(zero_mor(v, v), identity_mor(w))
        assert got.source.is_zero() == (not gvec.tensor_mult(v, w))
        products.append((got.source, _tensor_layout(v, w)))
        got = tensor_mor(identity_mor(v), identity_mor(w))
        products.append((got.source, _tensor_layout(v, w)))
    pairs = [(v, _eager_atomic(v)) for v in atomic] + products
    assert all(type(v) is not GradedObject for v, ref in pairs if ref.mult)
    for v, ref in pairs:
        assert slot_words(v) == slot_words(ref)
        assert type(v) is GradedObject
        assert seq_parts(v.seq) == seq_parts(ref.seq)
        assert list(v.mult.items()) == list(ref.mult.items())
        assert list(v.layout.items()) == list(ref.layout.items())
        check_layout(v)


def _product_factors(cat, rng):
    """Objects of every kind tensor_obj takes: the unit and its summands,
    atomic objects, an internal_end carrier, direct sums, duals,
    restrictions that drop grades (one of a lazy product), and lazy
    products, one of them with a lazy factor; none of the lazy ones read."""
    x = random_object(cat, rng, max_total=3)
    y = random_object(cat, rng, max_total=2)
    s, dy = direct_sum_obj(x, y), dual_obj(y)
    p, kept = tensor_obj(x, dy), set(list(gvec.tensor_mult(x, dy))[::2])
    return [unit_object(cat), *(unit_summand(cat, {i})
                                for i in range(cat.object_count)),
            zero_object(cat), x, y, internal_end(y).carrier, s,
            dual_obj(s), restrict_grades(s, list(s.mult)[1:]),
            restrict_grades(tensor_obj(x, dy), kept), p,
            tensor_obj(p, tensor_obj(y, x))]


@settings(max_examples=40, deadline=None)
@given(_small_groupoids(), st.integers(0, 2**32 - 1))
def test_lazy_tensor_obj_reads_as_eager_layout(cat, seed):
    """tensor_obj(v, w) enumerates nothing when built, and reads as the
    eager _tensor_layout(v, w): is_zero before any read, which sizes
    nothing; mult with its key order, whether mult or layout is read
    first; the alphabets' parts of seq; layout with its key order; is_zero
    again.  Once read it is a plain GradedObject.  Factors are drawn from
    _product_factors, built anew for each first read so that lazy ones
    are still unread, and from the products of at most 16 slots already
    drawn, read and unread, so products of lazy products are covered."""
    for first in ("mult", "layout"):
        objs = _product_factors(cat, random.Random(seed))
        pick = random.Random(seed + 1)
        for _ in range(10):
            v, w = pick.choice(objs), pick.choice(objs)
            got = tensor_obj(v, w)
            zero = got.is_zero()
            assert type(got) is gvec._Unsized
            read = getattr(got, first)
            ref = _tensor_layout(v, w)
            assert zero == ref.is_zero() == (not ref.mult)
            if first == "mult":
                assert list(read.items()) == list(ref.mult.items())
            assert list(got.mult.items()) == list(ref.mult.items())
            assert seq_parts(got.seq) == seq_parts(ref.seq)
            assert list(got.layout.items()) == list(ref.layout.items())
            assert got.is_zero() == zero and got == ref
            assert type(got) is GradedObject
            if total_mult(ref) <= 16:  # keeps nested products small
                objs += [got, tensor_obj(v, w)]


def test_s4_audit_lays_out_few_products(layout_calls):
    """One S4 audit enumerates at most half of the 379 layouts it stored
    when every tensor_mor enumerated both its endpoints: the sampled
    f (x) id_A with a zero factor and the unit idempotents of separable
    algebras lay out nothing."""
    run_audit(S4)
    assert len(layout_calls) <= 379 // 2


def test_dual_layout_stars_each_letter_once(monkeypatch):
    """_dual_layout equals the per-slot starring reference, and stars each
    letter once: each alphabet of its object is starred once, and a second
    dual of the same object stars nothing."""
    rng = random.Random(427)
    starred = []
    original = slotcodes._star

    def counted(cat, a):
        if a.star is None:
            starred.append(a)
        return original(cat, a)

    monkeypatch.setattr(slotcodes, "_star", counted)
    longest = 0
    for cat in CATS + [S4]:
        x = random_object(cat, rng, max_total=2)
        y = random_object(cat, rng, max_total=2)
        s = direct_sum_obj(x, y)
        nested = direct_sum_obj(direct_sum_obj(s, x), unit_object(cat))
        for v in (x, s, nested, tensor_obj(nested, dual_obj(nested)),
                  dual_obj(tensor_obj(s, nested)),
                  direct_sum_obj(tensor_obj(y, nested), nested),
                  tensor_obj(tensor_obj(s, dual_obj(x)), y)):
            got, rank = gvec._dual_layout(v)
            assert len(starred) == len(set(map(id, starred)))
            assert all(a.star is not None for a in v.seq)
            starred.clear()
            assert gvec._dual_layout(v)[0].layout == got.layout
            assert starred == []
            ref = _starred_dual_obj(v)
            assert list(got.mult.items()) == list(ref.mult.items())
            assert slot_words(got) == slot_words(ref)
            d = slot_words(got)
            for g, ws in slot_words(v).items():
                dg = d[cat.inverse_of[g]]
                assert [dg[p] for p in rank[g]] == [
                    _reference_star_word(cat, w) for w in ws]
                longest = max([longest] + [len(w) for w in ws])
    assert longest >= 3


def _reference_star_word(cat, word):
    """A word starred as first written: reversed, and each letter starred
    afresh."""
    return tuple((cat.inverse_of[g], a) for g, a in reversed(word))


def _starred_dual_obj(v):
    """dual_obj as it was first written: star each word, sort per grade."""
    cat = v.cat
    inv = cat.inverse_of
    ws = slot_words(v)
    return from_words(cat, {inv[g]: tuple(sorted(_reference_star_word(cat, w)
                                                for w in ws[g]))
                            for g in v.mult})


def _dense_dual_morphism(f):
    """dual_morphism as it was written densely: every entry of the dual
    block is read from f's block through the word -> slot dicts."""
    cat = f.source.cat
    ds, dt = _starred_dual_obj(f.source), _starred_dual_obj(f.target)
    inv = cat.inverse_of
    blocks = {}
    for g in ds.mult:
        if dt.m(g) == 0:
            continue
        b = f.block(inv[g])
        if b is None:
            continue
        src_pos = {w: i for i, w in enumerate(slot_words(f.source)[inv[g]])}
        tgt_pos = {w: i for i, w in enumerate(slot_words(f.target)[inv[g]])}
        blocks[g] = Matrix.from_rows(
            [[b[tgt_pos[_reference_star_word(cat, wc)],
                src_pos[_reference_star_word(cat, wr)]]
              for wc in slot_words(dt)[g]]
             for wr in slot_words(ds)[g]])
    return GradedMorphism(dt, ds, blocks)


def _composite_sources(cat, rng):
    """Morphisms out of tensor products and direct sums: their slot words
    have length 2, or length 1 over summed multiplicities."""
    x = random_object(cat, rng, max_total=2)
    y = random_object(cat, rng, max_total=2)
    s = direct_sum_obj(x, y)
    sources = (tensor_obj(x, y), s, tensor_obj(s, s),
               direct_sum_obj(tensor_obj(x, y), dual_obj(x)))
    return [random_morphism(v, w, rng, zero_weight=1)
            for v in sources for w in sources]


def test_dual_morphism_matches_dense_reference():
    rng = random.Random(420)
    lengths = set()
    for name in FIXTURE_NAMES:
        cat = load_fixture(name)
        for f in _differential_factors(cat, rng) + _composite_sources(cat, rng):
            got, ref = dual_morphism(f), _dense_dual_morphism(f)
            assert got == ref
            assert slot_words(got.source) == slot_words(ref.source)
            assert slot_words(got.target) == slot_words(ref.target)
            assert slot_words(dual_obj(f.source)) == slot_words(ref.target)
            for ws in slot_words(f.source).values():
                lengths.update(map(len, ws))
    assert 2 in lengths


def test_sparse_builders_read_no_dense_view(monkeypatch):
    """tensor_mor, dual_morphism and hom_basis work on the stored sparse
    rows: on the six fixtures' sample morphisms none of them reads a dense
    view of a Matrix (row, tolist, m[i, j] or entries)."""
    rng = random.Random(421)
    samples = [_differential_factors(load_fixture(name), rng)
               for name in FIXTURE_NAMES]
    reads = []

    def counted(view, original):
        def wrapper(self, *args):
            reads.append(view)
            return original(self, *args)
        return wrapper

    for view in ("row", "tolist", "__getitem__"):
        monkeypatch.setattr(Matrix, view,
                            counted(view, getattr(Matrix, view)))
    monkeypatch.setattr(Matrix, "entries",
                        property(counted("entries", Matrix.entries.fget)))
    built = 0
    for factors in samples:
        for f in factors:
            for h in rng.sample(factors, 6):
                built += not tensor_mor(f, h).is_zero()
            built += not dual_morphism(f).is_zero()
            built += len(hom_basis(f.source, f.target))
    assert built > 1000
    assert reads == []


# Slot codes against word-form references.  Every reference below builds
# words by the rules the module docstring states, from the reference words
# of its operands, never from codes.

def _ref_atomic(mult):
    return {g: tuple(((g, a),) for a in range(m)) for g, m in mult.items()}


def _ref_sum(vl, wl):
    """The atomic words of the summed multiplicities, in union grade
    order."""
    return _ref_atomic({g: len(vl.get(g, ())) + len(wl.get(g, ()))
                        for g in set(vl) | set(wl)})


def _ref_dual(cat, vl):
    """(words of the dual, rank) as _dual_layout returns them."""
    layout, rank = {}, {}
    for g, ws in vl.items():
        starred = [_reference_star_word(cat, w) for w in ws]
        order = sorted(range(len(starred)), key=starred.__getitem__)
        layout[cat.inverse_of[g]] = tuple(starred[i] for i in order)
        rank[g] = [order.index(i) for i in range(len(order))]
    return layout, rank


def _random_tree(cat, rng, depth, seen):
    """(object, reference words) of a random expression: leaves are atomic
    objects, possibly zero, the unit, and kernel and image objects; inner
    nodes are tensor products, direct sums, duals and restrictions.  Each
    node's codes are checked against its reference words, and each tensor
    and dual also by its bisected positions or rank, as the node is
    built.  seen counts
    the node kinds."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.choice(("atomic", "unit", "kernel", "image"))
        seen[kind] += 1
        if kind == "atomic":
            x = random_object(cat, rng, max_total=2, allow_zero=True)
            return x, _ref_atomic(x.mult)
        if kind == "unit":
            return unit_object(cat), {e: ((),) for e in cat.identity_grades}
        f = random_morphism(random_object(cat, rng, max_total=2),
                            random_object(cat, rng, max_total=2), rng,
                            zero_weight=1)
        x = kernel(f)[0] if kind == "kernel" else \
            image_factorization(f)[0].target
        return x, _ref_atomic(x.mult)
    a, al = _random_tree(cat, rng, depth - 1, seen)
    ops = ["sum", "dual", "restrict"]
    b, bl = _random_tree(cat, rng, depth - 1, seen)
    if sum(gvec.tensor_mult(a, b).values()) <= 48:
        ops.append("tensor")
    op = rng.choice(ops)
    seen[op] += 1
    if op == "tensor":
        v = _tensor_layout(a, b)
        ref, ref_pos = sorted_tensor_words(cat, al, bl)
        pos = bisected_pos(a, b, v)
        assert pos == ref_pos
        assert [list(per) for per in pos.values()] \
            == [list(per) for per in ref_pos.values()]
    elif op == "sum":
        v, ref = direct_sum_obj(a, b), _ref_sum(al, bl)
    elif op == "dual":
        v, rank = gvec._dual_layout(a)
        ref, ref_rank = _ref_dual(cat, al)
        assert rank == ref_rank
    else:
        grades = {g for g in range(cat.morphism_count) if rng.random() < 0.5}
        v = restrict_grades(a, grades)
        ref = {g: ws for g, ws in al.items() if g in grades}
    assert words(v) == list(ref.items())
    check_layout(v)
    return v, ref


@settings(max_examples=30, deadline=None)
@given(_small_groupoids(), st.integers(0, 2**32 - 1))
def test_slot_codes_match_word_references(cat, seed):
    """Random expression trees: every node's words, grade order included,
    each tensor's bisected positions and each dual's rank equal the
    word-form references; from_words codes a node's words to an object
    with the same words; and tensor_mor and dual_morphism between nodes
    equal the dense word-based references."""
    rng = random.Random(seed)
    seen = dict.fromkeys(("atomic", "unit", "kernel", "image", "tensor",
                          "sum", "dual", "restrict"), 0)
    nodes = [_random_tree(cat, rng, 3, seen) for _ in range(4)]
    for v, ref in nodes:
        again = from_words(cat, ref)
        assert words(again) == words(v) == list(ref.items())
    objs = [v for v, _ in nodes]
    for _ in range(4):
        f = random_morphism(rng.choice(objs), rng.choice(objs), rng,
                            zero_weight=1)
        h = random_morphism(rng.choice(objs), rng.choice(objs), rng,
                            zero_weight=1)
        if sum(gvec.tensor_mult(f.source, h.source).values()) <= 64:
            _assert_same_tensor(f, h)
        assert dual_morphism(f) == _dense_dual_morphism(f)


def test_slot_code_trees_reach_every_node_kind():
    """The tree builder of the property test above reaches every kind of
    node on the fixtures, so the property covers them all."""
    rng = random.Random(431)
    seen = dict.fromkeys(("atomic", "unit", "kernel", "image", "tensor",
                          "sum", "dual", "restrict"), 0)
    for cat in CATS:
        for _ in range(6):
            _random_tree(cat, rng, 3, seen)
    assert all(seen.values()), seen


def _word_rows(small, big):
    """match's rows from words: the slot of big with each word of small."""
    bw = slot_words(big)
    return {h: [bw[h].index(w) for w in ws]
            for h, ws in slot_words(small).items()}


def test_projection_match_against_words():
    """match(x, y) pairs each slot of R(x) (x) R(y) with the slot of
    R(x (x) y) that has its word, comparing codes: both objects are coded
    over x.seq + y.seq, for atomic x and y, products, sums, duals and the
    unit alike, whether or not a grade of x lies outside J."""
    rj = ProjectionFunctor(P3, {0, 2})
    inside = [g for g in range(P3.morphism_count) if g in rj.grades]
    outside = [g for g in range(P3.morphism_count) if g not in rj.grades]
    a = graded_object(P3, {inside[0]: 2, outside[0]: 1, inside[1]: 1})
    b = graded_object(P3, {g: 1 for g in range(P3.morphism_count)})
    c = graded_object(P3, {inside[2]: 1, inside[0]: 1})
    cases = [(a, b), (b, a), (c, c), (a, unit_object(P3)),
             (tensor_obj(a, b), c), (direct_sum_obj(b, unit_object(P3)), a),
             (dual_obj(tensor_obj(c, b)), direct_sum_obj(a, c))]
    for x, y in cases:
        small, big, rows = rj.match(x, y)
        assert small.seq == big.seq == x.seq + y.seq
        assert rows == _word_rows(small, big)
        assert any(rows.values())
    # slots of R(x (x) y) through an object outside J are left unmatched
    small, big, rows = rj.match(b, b)
    assert sum(map(len, rows.values())) < sum(big.mult.values())


def test_projection_match_on_one_object_groupoids():
    """On a one-object groupoid R keeps every object whole, so match finds
    R(x) (x) R(y) and R(x (x) y) to be one object and returns identity
    rows, lists equal to the word-form rows, with nothing bisected."""
    rng = random.Random(433)
    for cat in (load_fixture("vec"), Z2, S3, S4):
        rj = ProjectionFunctor(cat, {0})
        x = random_object(cat, rng, max_total=3)
        y = random_object(cat, rng, max_total=3)
        cases = [(x, y), (y, x), (x, unit_object(cat)),
                 (tensor_obj(x, y), y), (direct_sum_obj(x, y), dual_obj(x)),
                 (dual_obj(tensor_obj(y, x)), unit_object(cat))]
        for a, b in cases:
            assert rj.obj(a) is a
            small, big, rows = rj.match(a, b)
            assert small is big
            assert all(type(r) is list for r in rows.values())
            assert rows == _word_rows(small, big)


def test_restrict_grades_to_every_grade_is_the_object():
    """restrict_grades returns its argument when no grade is dropped, for
    any grade set holding v's grades, and a new object otherwise."""
    x = graded_object(P3, {0: 2, 4: 1})
    v = tensor_obj(x, dual_obj(x))
    for w in (x, v, unit_object(P3), zero_object(P3)):
        assert restrict_grades(w, set(w.mult)) is w
        assert restrict_grades(w, range(P3.morphism_count)) is w
    part = restrict_grades(v, {0})
    assert part is not v and part.mult == {0: v.mult[0]}
    assert part.seq == v.seq and part.layout[0] == v.layout[0]


@pytest.mark.parametrize("shift", [1, -10 ** 6])
def test_projection_match_rejects_codes_it_cannot_find(shift):
    """A code of R(x) (x) R(y) that R(x (x) y) lacks is a
    ConsistencyError, not the slot bisection lands on: codes shifted by 1
    land on a neighbour's slot, and codes shifted far down put every slot
    past the end."""
    class Shifted(ProjectionFunctor):
        def obj(self, v):
            r = super().obj(v)
            if len(r.seq) < 2:  # R(x); only R(x (x) x) has two factors
                return r
            return GradedObject._of(r.cat, r.mult, r.seq,
                                    {h: tuple(c + shift for c in cs)
                                     for h, cs in r.layout.items()})

    rj = Shifted(P3, {0, 2})
    x = graded_object(P3, {g: 1 for g in range(P3.morphism_count)})
    with pytest.raises(ConsistencyError, match="not a slot"):
        rj.match(x, x)


def test_same_slots_across_sequences():
    """Equal words coded over different sequences, with their grades in
    the same order or not: tensor_mor enumerates each side on its own, and
    its target keeps the grade order tensor_obj gives.  A shortcut blind to
    grade order once gave a tensor_mor target the source's grade order
    (see test_tensor_mor_keeps_target_grade_order)."""
    x = graded_object(S3, {1: 1, 2: 2, 4: 1})
    d = dual_obj(dual_obj(tensor_obj(x, unit_object(S3))))
    assert slot_words(d) == slot_words(x)
    # a restriction of a non-atomic object keeps its wider alphabet
    v = restrict_grades(d, {1, 2})
    w = graded_object(S3, {1: 1, 2: 2})
    assert v.seq != w.seq and slot_words(v) == slot_words(w)
    assert list(v.layout) == list(w.layout)
    # the same words with the grades in the other order
    w2 = graded_object(S3, {2: 2, 1: 1})
    assert slot_words(w2) == slot_words(v)
    assert list(w2.layout) != list(v.layout)
    # from_words codes words over the letters it is given
    u = from_words(S3, slot_words(v))
    assert slot_words(u) == slot_words(v) and u.seq != v.seq
    # same grades and sizes, other words
    z = from_words(S3, {1: (((1, 1),),), 2: (((2, 0),), ((2, 1),))})
    assert slot_words(z) != slot_words(w) and list(z.layout) == list(w.layout)
    for src, tgt in ((v, w), (w, v), (v, w2), (u, v), (w, u), (z, w)):
        f = GradedMorphism(src, tgt, {1: Matrix.identity(1),
                                      2: Matrix.identity(2)})
        for h in (identity_mor(x), f):
            _assert_same_tensor(f, h)
            assert list(tensor_mor(f, h).target.layout) \
                == list(tensor_obj(f.target, h.target).layout)
