"""Graded objects and morphisms: strict monoidal structure, abelian
operations, duality, serialization."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _small_groupoids, symmetric_group_spec
from fusionaudit import gvec
from fusionaudit.audit import run_audit
from fusionaudit.corpus import (
    algebra_corpus, random_morphism, random_object)
from fusionaudit.errors import ShapeError, SpecError
from fusionaudit.exactlin import Matrix
from fusionaudit.fixtures import FIXTURE_NAMES, load_fixture
from fusionaudit.functors import ProjectionFunctor
from fusionaudit.groupoid import groupoid_from_spec
from fusionaudit.gvec import (
    GradedMorphism, GradedObject, _same_cat, _tensor_layout, compose, cokernel,
    direct_sum_obj, direct_sum_with_maps, dual_morphism, dual_obj,
    graded_object, hom_basis, identity_mor, image_factorization, is_epi,
    is_iso, is_mono, kernel, left_dual, morphism_from_spec, morphism_to_spec,
    object_from_spec, object_to_spec, restrict_grades, restriction_inclusion,
    restriction_projection, simple_object, tensor_mor, tensor_obj,
    total_mult, unit_object, unit_summand, zero_mor, zero_object)
from fusionaudit.internal import (
    direct_sum_algebra, groupoid_algebra, internal_end)
from fusionaudit.morphcalc import find_retraction, find_section

Z2 = load_fixture("vec_z2")
S3 = load_fixture("vec_s3")
P2 = load_fixture("pair2")
P3 = load_fixture("pair3")
U22 = load_fixture("union_z2_z2")
CATS = [Z2, S3, P2, P3, U22]
S4 = groupoid_from_spec(symmetric_group_spec(4, 1))


def check_layout(v):
    """Structural invariants of the slot-word bookkeeping."""
    lengths = set()
    for g, m in v.mult.items():
        words = v.layout[g]
        assert len(words) == m
        assert list(words) == sorted(words)
        assert len(set(words)) == m
        lengths.update(len(w) for w in words)
    assert len(lengths) <= 1


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
        assert tensor_obj(unit, unit).layout == unit.layout
        for _ in range(5):
            v = random_object(cat, rng)
            for prod in (tensor_obj(unit, v), tensor_obj(v, unit)):
                assert prod == v
                assert prod.layout == v.layout
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
        assert du == unit and du.layout == unit.layout
        for _ in range(5):
            v = random_object(cat, rng)
            w = random_object(cat, rng)
            dd = dual_obj(dual_obj(v))
            assert dd == v and dd.layout == v.layout
            lhs = dual_obj(tensor_obj(v, w))
            rhs = tensor_obj(dual_obj(w), dual_obj(v))
            assert lhs == rhs and lhs.layout == rhs.layout


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
        assert left == expect and left.layout == expect.layout
        right = tensor_obj(x, one_j)
        keep_tgt = {g for g in x.mult if P3.morphisms[g][1] in {0, 2}}
        expect = restrict_grades(x, keep_tgt)
        assert right == expect and right.layout == expect.layout
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
    assert (-f) + f == zero_mor(v, w)
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
    """The public constructors reject a grade outside 0..m-1, a negative
    multiplicity and a layout of the wrong size."""
    for bad in (-1, Z2.morphism_count):
        word = (((0, bad, 0),),)
        for build in (lambda: graded_object(Z2, {bad: 1}),
                      lambda: simple_object(Z2, bad),
                      lambda: GradedObject(Z2, {bad: 1}, {bad: word})):
            with pytest.raises(ShapeError):
                build()
    with pytest.raises(ShapeError):
        graded_object(Z2, {0: -1})
    with pytest.raises(ShapeError):
        GradedObject(Z2, {0: -1}, {0: ()})
    with pytest.raises(ShapeError):
        GradedObject(Z2, {0: 2}, {0: (((0, 0, 0),),)})


def test_object_boundary_validates_slot_words():
    """The tensor enumeration takes each factor's words at a grade as
    sorted, distinct and of one length; the public constructor rejects a
    layout that breaks that."""
    a, b = ((0, 0, 0),), ((0, 0, 1),)
    for words in ((b, a), (a, a)):
        with pytest.raises(ShapeError):
            GradedObject(Z2, {0: 2}, {0: words})
    with pytest.raises(ShapeError):
        GradedObject(Z2, {0: 1, 1: 1}, {0: (a,), 1: (((0, 1, 0),) * 2,)})
    v = GradedObject(Z2, {0: 2}, {0: (a, b)})
    assert tensor_obj(v, v).layout[0] == (a + a, a + b, b + a, b + b)


def test_layout_grades_must_match_multiplicities():
    """A layout with a grade outside mult used to be accepted, and its
    stray slots then entered tensor products."""
    with pytest.raises(ShapeError):
        GradedObject(Z2, {0: 1}, {0: (((0, 0, 0),),), 1: (((0, 1, 0),),)})
    with pytest.raises(ShapeError):
        GradedObject(Z2, {0: 1, 1: 0}, {0: (((0, 0, 0),),), 1: ()})
    with pytest.raises(ShapeError):
        GradedObject(Z2, {0: 1, 1: 1}, {0: (((0, 0, 0),),)})
    v = GradedObject(Z2, {0: 1, 1: 0}, {0: (((0, 0, 0),),)})
    assert v.mult == {0: 1}
    assert tensor_obj(v, v).mult == {0: 1}


def _check_revalidates(x):
    """x equals its rebuild through the public validating constructor, with
    the same grades in the same order, so the constructor's checks pass and
    its normalisation changes nothing; every block is in canonical sparse
    form."""
    if isinstance(x, GradedObject):
        y = GradedObject(x.cat, dict(x.mult), dict(x.layout))
        assert list(y.mult.items()) == list(x.mult.items())
        assert list(y.layout) == list(x.layout)
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
    for v in values:
        _check_revalidates(v)
    assert (f - f).is_zero() and compose(cok, f).is_zero()


def test_hot_producers_skip_validation(monkeypatch):
    """tensor_mor, compose, restrict_grades, dual_morphism and the
    projection functor's phi and psi build their values unchecked: none
    calls GradedObject.__init__ or _normalize_blocks."""
    rng = random.Random(424)
    x = random_object(P3, rng)
    y = random_object(P3, rng)
    f = random_morphism(x, y, rng, zero_weight=1)
    g = random_morphism(y, x, rng, zero_weight=1)
    rj = ProjectionFunctor(P3, {0, 1})
    match = rj.match(x, y)
    calls = []
    init, normalize = GradedObject.__init__, gvec._normalize_blocks

    def counted_init(self, *args):
        calls.append("init")
        init(self, *args)

    def counted_normalize(*args):
        calls.append("normalize")
        return normalize(*args)

    monkeypatch.setattr(GradedObject, "__init__", counted_init)
    monkeypatch.setattr(gvec, "_normalize_blocks", counted_normalize)
    monkeypatch.setattr(gvec, "_layout_memo", {})
    built = [tensor_mor(f, g), compose(g, f), restrict_grades(x, {0, 1}),
             dual_morphism(f), rj.phi(match), rj.psi(match)]
    assert calls == []
    assert not any(built[i].is_zero() for i in (0, 1, 3, 4, 5))
    graded_object(P3, {0: 1})
    GradedMorphism(x, x, {})
    assert calls == ["init", "normalize"]


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
    layout = {}
    for g1 in v.mult:
        ws1 = v.layout[g1]
        row = cat.compose_table[g1]
        for g2 in w.mult:
            h = row[g2]
            if h is None:
                continue
            layout.setdefault(h, []).extend(
                w1 + w2 for w1 in ws1 for w2 in w.layout[g2])
    layout = {h: tuple(sorted(ws)) for h, ws in layout.items()}
    return GradedObject(cat, {h: len(ws) for h, ws in layout.items()}, layout)


def _dense_tensor_slots(v, w):
    """Per grade: slot metadata (word, g1, i, g2, j) of v (x) w, in slot
    order (sorted by word)."""
    cat = _same_cat(v, w)
    per = {}
    for g1 in v.mult:
        row = cat.compose_table[g1]
        for g2 in w.mult:
            h = row[g2]
            if h is None:
                continue
            dst = per.setdefault(h, [])
            for i, w1 in enumerate(v.layout[g1]):
                for j, w2 in enumerate(w.layout[g2]):
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
        assert a.layout == b.layout
    obj = tensor_obj(f.source, h.source)
    assert obj == ref.source and obj.layout == ref.source.layout


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


def test_tensor_mor_keeps_target_grade_order():
    """A factor whose target lays out its source's words with the grades in
    another order does not share the source's enumeration: the target of
    f (x) h keeps the grade order that tensor_obj gives it."""
    v = graded_object(S3, {2: 1, 1: 1})
    w = graded_object(S3, {1: 1, 2: 1})
    assert v.layout == w.layout and list(v.layout) != list(w.layout)
    swap = GradedMorphism(v, w, {1: Matrix.identity(1),
                                 2: Matrix.identity(1)})
    unit = identity_mor(unit_object(S3))
    for f, h in ((unit, swap), (swap, unit), (swap, swap)):
        _assert_same_tensor(f, h)
        assert list(tensor_mor(f, h).target.mult) == list(
            tensor_obj(f.target, h.target).mult)


def test_layout_memo_keys_on_slot_words(monkeypatch):
    """Equal multiplicities do not share a memoised layout: the grade-1
    word of this product sorts before its grade-0 word, so the slots of
    its square interleave the other way round."""
    atomic = graded_object(Z2, {0: 1, 1: 1})
    product = tensor_obj(simple_object(Z2, 1), atomic)
    assert product == atomic and product.layout != atomic.layout
    fresh = {}
    for v in (atomic, product):
        monkeypatch.setattr(gvec, "_layout_memo", {})
        fresh[v.layout[0]] = _tensor_layout(v, v)
    monkeypatch.setattr(gvec, "_layout_memo", {})
    def lists(pos):
        return {h: {pair: list(slots) for pair, slots in per.items()}
                for h, per in pos.items()}

    for v in (atomic, product, atomic, product):
        obj, pos = _tensor_layout(v, v)
        ref_obj, ref_pos = fresh[v.layout[0]]
        assert obj.layout == ref_obj.layout and lists(pos) == lists(ref_pos)
        assert set(obj.layout[0]) == {v.layout[0][0] * 2,
                                      v.layout[1][0] * 2}
    assert lists(fresh[atomic.layout[0]][1])[0] == {(0, 0): [0],
                                                    (1, 1): [1]}
    assert lists(fresh[product.layout[0]][1])[0] == {(0, 0): [1],
                                                     (1, 1): [0]}


# Reference oracle for _tensor_layout: the enumeration it replaced, kept
# verbatim apart from the memo (each grade's words concatenated pair by
# pair and sorted, the ranks sliced per pair).

def _sorted_tensor_layout(v, w):
    cat = _same_cat(v, w)
    words, starts = {}, {}
    for g1, ws1 in v.layout.items():
        row = cat.compose_table[g1]
        for g2, ws2 in w.layout.items():
            h = row[g2]
            if h is None:
                continue
            dst = words.setdefault(h, [])
            starts.setdefault(h, []).append(
                (g1, g2, len(dst), len(ws1) * len(ws2)))
            dst.extend(w1 + w2 for w1 in ws1 for w2 in ws2)
    layout, pos = {}, {}
    for h, ws in words.items():
        order = sorted(range(len(ws)), key=ws.__getitem__)
        layout[h] = tuple(map(ws.__getitem__, order))
        rank = [0] * len(ws)
        for p, k in enumerate(order):
            rank[k] = p
        pos[h] = {(g1, g2): rank[k:k + n] for g1, g2, k, n in starts[h]}
    mult = {h: len(ws) for h, ws in layout.items()}
    return GradedObject(cat, mult, layout), pos


def _layout_objects(cat, rng):
    """Objects whose products reach both enumeration paths: atomic ones,
    corpus carriers, the unit and unit (+) unit (the same words at every
    identity grade), nested direct sums, and duals of tensor products."""
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
    multiplicities, slot words and grade order, and every position list.
    Returns the grades fed by one pair and those fed by several, and how
    many of the latter interleave the pairs' slots."""
    gvec._layout_memo.clear()
    obj, pos = _tensor_layout(v, w)
    ref, ref_pos = _sorted_tensor_layout(v, w)
    assert list(obj.mult.items()) == list(ref.mult.items())
    assert list(obj.layout.items()) == list(ref.layout.items())
    assert list(pos) == list(ref_pos)
    single = several = interleaved = split = 0
    for h, pairs in ref_pos.items():
        assert list(pos[h]) == list(pairs)
        for pair, slots in pairs.items():
            assert list(pos[h][pair]) == slots
            split += slots != list(range(slots[0], slots[0] + len(slots)))
        if len(pairs) == 1:
            single += 1
        else:
            several += 1
            flat = [p for slots in pairs.values() for p in slots]
            interleaved += flat != sorted(flat)
    return single, several, interleaved, split


def test_tensor_layout_matches_sorted_reference():
    """Both enumeration paths agree with the reference, including pairs
    whose left grade's slots are split into several runs by the slots of
    other grades (their positions are not one contiguous range)."""
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


def test_single_pair_grades_skip_the_sort(monkeypatch):
    """_tensor_layout sorts nothing when every grade is fed by one factor
    pair, and otherwise sorts once, the left factor's slots, however many
    grades are fed by several pairs."""
    rng = random.Random(425)
    cases = [(v, w) for cat in CATS + [S4]
             for objs in [_layout_objects(cat, rng)]
             for v in objs for w in objs]
    several = [sum(len(pairs) > 1
                   for pairs in _sorted_tensor_layout(v, w)[1].values())
               for v, w in cases]
    sorts = []

    def counted(*args, **kwargs):
        sorts.append(1)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(gvec, "sorted", counted, raising=False)
    got = []
    for v, w in cases:
        gvec._layout_memo.clear()
        sorts.clear()
        _tensor_layout(v, w)
        got.append(len(sorts))
    assert got == [min(n, 1) for n in several]
    assert 0 in got and max(several) > 1


@settings(max_examples=40, deadline=None)
@given(_small_groupoids(), st.integers(0, 2**32 - 1))
def test_tensor_mult_matches_tensor_obj(cat, seed):
    """tensor_mult gives tensor_obj's multiplicities without a slot."""
    rng = random.Random(seed)
    objs = _layout_objects(cat, rng) + [zero_object(cat)]
    for _ in range(30):
        v, w = rng.choice(objs), rng.choice(objs)
        assert gvec.tensor_mult(v, w) == tensor_obj(v, w).mult


def test_tensor_of_identities_builds_no_row(monkeypatch):
    """tensor_mor of two identity_mor values is identity_mor of the
    product: every block is the interned identity and no Matrix is built.
    Hand-built identities give the same morphism by the general path."""
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
        assert got.source is got.target
        assert got.source.layout == vw.layout
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


def test_tensor_mor_enumerates_equal_layouts_once(monkeypatch):
    """When each factor's target lays out the same words as its source,
    tensor_mor makes one _tensor_layout call, not two."""
    rng = random.Random(426)
    cases = []
    for cat in CATS:
        x = random_object(cat, rng, max_total=3)
        y = tensor_obj(random_object(cat, rng, max_total=2),
                       direct_sum_obj(x, unit_object(cat)))
        twin = GradedObject(cat, dict(y.mult), dict(y.layout))
        other = tensor_obj(direct_sum_obj(x, unit_object(cat)), x)
        cases += [(random_morphism(x, x, rng), random_morphism(y, y, rng), 1),
                  (identity_mor(y), random_morphism(y, twin, rng), 1),
                  (random_morphism(x, x, rng),
                   random_morphism(y, other, rng), 2)]
    calls = []
    original = gvec._tensor_layout

    def counted(v, w):
        calls.append(1)
        return original(v, w)

    monkeypatch.setattr(gvec, "_tensor_layout", counted)
    for f, h, want in cases:
        calls.clear()
        got = tensor_mor(f, h)
        assert len(calls) == want
        assert got == _dense_tensor_mor(f, h)


def _letters(words):
    """Every distinct letter of words, those inside side tags included."""
    out = set()
    for w in words:
        for l in w:
            out.add(l)
            if l[0] == 1:
                out |= _letters((l[2],))
    return out


def _depth(word):
    return max((1 + _depth(l[2]) if l[0] == 1 else 1 for l in word),
               default=0)


def test_dual_layout_stars_each_letter_once(monkeypatch):
    """_dual_layout equals the per-slot starring reference, and stars each
    distinct letter of its object once, nested letters included."""
    rng = random.Random(427)
    starred = []
    original = gvec._star_letter

    def counted(cat, letter, table):
        starred.append(letter)
        return original(cat, letter, table)

    monkeypatch.setattr(gvec, "_star_letter", counted)
    deepest = 0
    for cat in CATS + [S4]:
        x = random_object(cat, rng, max_total=2)
        y = random_object(cat, rng, max_total=2)
        s = direct_sum_obj(x, y)
        nested = direct_sum_obj(direct_sum_obj(s, x), unit_object(cat))
        for v in (x, s, nested, tensor_obj(nested, dual_obj(nested)),
                  dual_obj(tensor_obj(s, nested)),
                  direct_sum_obj(tensor_obj(y, nested), nested)):
            starred.clear()
            got, rank = gvec._dual_layout(v)
            words = [w for ws in v.layout.values() for w in ws]
            assert sorted(starred) == sorted(_letters(words))
            ref = _starred_dual_obj(v)
            assert list(got.mult.items()) == list(ref.mult.items())
            assert got.layout == ref.layout
            for g, ws in v.layout.items():
                d = got.layout[cat.inverse_of[g]]
                assert [d[p] for p in rank[g]] == [
                    _reference_star_word(cat, w) for w in ws]
            deepest = max([deepest] + [_depth(w) for w in words])
    assert deepest >= 4


class _SizeLog(dict):
    """A memo that records how many entries it ever held at once."""

    def __init__(self):
        super().__init__()
        self.peak = self.stores = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.stores += 1
        self.peak = max(self.peak, len(self))


def test_layout_memo_stays_within_its_bound(monkeypatch):
    memo = _SizeLog()
    monkeypatch.setattr(gvec, "_layout_memo", memo)
    run_audit(P3)
    assert memo.stores > gvec._LAYOUT_MEMO_SIZE
    assert memo.peak <= gvec._LAYOUT_MEMO_SIZE


def _reference_star_word(cat, word):
    """A word starred as first written: reversed, and each letter starred
    afresh, recursing into side-tagged letters."""
    return tuple((0, cat.inverse_of[l[1]], l[2]) if l[0] == 0
                 else (1, l[1], _reference_star_word(cat, l[2]))
                 for l in reversed(word))


def _starred_dual_obj(v):
    """dual_obj as it was first written: star each word, sort per grade."""
    cat = v.cat
    inv = cat.inverse_of
    mult = {inv[g]: m for g, m in v.mult.items()}
    layout = {inv[g]: tuple(sorted(_reference_star_word(cat, w)
                                   for w in v.layout[g]))
              for g in v.mult}
    return GradedObject(cat, mult, layout)


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
        src_pos = {w: i for i, w in enumerate(f.source.layout[inv[g]])}
        tgt_pos = {w: i for i, w in enumerate(f.target.layout[inv[g]])}
        blocks[g] = Matrix.from_rows(
            [[b[tgt_pos[_reference_star_word(cat, wc)],
                src_pos[_reference_star_word(cat, wr)]]
              for wc in dt.layout[g]]
             for wr in ds.layout[g]])
    return GradedMorphism(dt, ds, blocks)


def _composite_sources(cat, rng):
    """Morphisms out of tensor products and direct sums: their slot words
    have length 2 or side-tagged letters."""
    x = random_object(cat, rng, max_total=2)
    y = random_object(cat, rng, max_total=2)
    s = direct_sum_obj(x, y)
    sources = (tensor_obj(x, y), s, tensor_obj(s, s),
               direct_sum_obj(tensor_obj(x, y), dual_obj(x)))
    return [random_morphism(v, w, rng, zero_weight=1)
            for v in sources for w in sources]


def test_dual_morphism_matches_dense_reference():
    rng = random.Random(420)
    lengths, tagged = set(), 0
    for name in FIXTURE_NAMES:
        cat = load_fixture(name)
        for f in _differential_factors(cat, rng) + _composite_sources(cat, rng):
            got, ref = dual_morphism(f), _dense_dual_morphism(f)
            assert got == ref
            assert got.source.layout == ref.source.layout
            assert got.target.layout == ref.target.layout
            assert dual_obj(f.source).layout == ref.target.layout
            for ws in f.source.layout.values():
                lengths.update(map(len, ws))
                tagged += any(l[0] == 1 for w in ws for l in w)
    assert 2 in lengths and tagged


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
