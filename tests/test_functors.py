import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _small_groupoids, random_object_or_zero
from fusionaudit import functors, gvec
from fusionaudit.audit import run_audit
from fusionaudit.corpus import algebra_corpus, random_morphism, random_object
from fusionaudit.errors import ConsistencyError
from fusionaudit.functors import (
    ProjectionFunctor, check_cosection_identity, check_inclusion_frobenius,
    check_projection_lax_colax, check_rj_algebra, coreflection_checks,
    coseparability_verdict, free_module, frobenius_pair_check, idempotent_e,
    induce_mor, is_faithful_cotensor,
    is_faithful_tensor, is_module_morphism, reflection_checks,
    separability_verdict, check_section_identity, validate_module)
from fusionaudit.exactlin import Matrix
from fusionaudit.fixtures import FIXTURE_NAMES, load_fixture
from fusionaudit.gvec import (
    GradedMorphism, compose, graded_object, hom_basis, identity_mor,
    restrict_grades, restriction_inclusion, restriction_projection,
    simple_object, tensor_mor, tensor_obj, unit_object, unit_summand,
    zero_object)
from fusionaudit.internal import (
    InternalAlgebra, direct_sum_algebra, dualize_algebra, groupoid_algebra,
    internal_end, restriction_data, support, unit_summand_algebra)
from fusionaudit.morphcalc import find_retraction
from slotwords import slot_words

VEC = load_fixture("vec")
Z2 = load_fixture("vec_z2")
P2 = load_fixture("pair2")
P3 = load_fixture("pair3")
U22 = load_fixture("union_z2_z2")


def test_free_module_over_unit_is_the_algebra():
    for cat in (Z2, P2):
        a = groupoid_algebra(cat, range(cat.object_count))
        mod = free_module(unit_object(cat), a)
        assert mod.carrier == a.carrier
        assert mod.action == a.mult
        assert validate_module(mod, a)["ok"]


def test_free_modules_validate_and_mutations_fail():
    rng = random.Random(601)
    for cat in (Z2, P2):
        for a in algebra_corpus(cat, rng):
            if a.is_zero():
                continue
            m = random_object(cat, rng, max_total=3)
            mod = free_module(m, a)
            assert validate_module(mod, a)["ok"]
    # breaking the action breaks validation
    a = groupoid_algebra(Z2, [0])
    mod = free_module(simple_object(Z2, 1), a)
    bad = mod.action.scale(2)
    from fusionaudit.functors import ModuleObject
    report = validate_module(ModuleObject(mod.carrier, bad), a)
    assert not report["ok"] and report["failures"]


def test_induce_mor_functorial_and_module_map():
    rng = random.Random(602)
    a = groupoid_algebra(P2, [0, 1])
    for _ in range(10):
        v = random_object(P2, rng, max_total=3)
        w = random_object(P2, rng, max_total=3)
        x = random_object(P2, rng, max_total=3)
        f = random_morphism(w, x, rng)
        g = random_morphism(v, w, rng)
        assert induce_mor(compose(f, g), a) == \
            compose(induce_mor(f, a), induce_mor(g, a))
        assert induce_mor(identity_mor(v), a) == \
            identity_mor(free_module(v, a).carrier)
        assert is_module_morphism(induce_mor(g, a),
                                  free_module(v, a), free_module(w, a), a)


def test_separability_unit_summand_not_separable():
    a = unit_summand_algebra(P2, 0)
    v = separability_verdict(a)
    assert not v["separable"]
    assert v["retraction"] is None
    assert v["naturally_full"]
    assert v["semiseparable"]
    assert not v["idempotent_trivial"]
    # the section re-verifies
    assert compose(a.unit, v["section"]) == identity_mor(a.carrier)


def test_separability_group_algebra():
    a = groupoid_algebra(Z2, [0])
    v = separability_verdict(a)
    assert v["separable"]
    assert not v["naturally_full"]
    assert v["semiseparable"] and v["idempotent_trivial"]
    assert compose(v["retraction"], a.unit) == identity_mor(unit_object(Z2))


def test_idempotent_matches_coordinate_projection():
    a = unit_summand_algebra(P2, 0)
    one = unit_object(P2)
    e = idempotent_e(a, one)
    proj = compose(restriction_inclusion(one, {0}),
                   restriction_projection(one, {0}))
    assert e == proj
    assert e != identity_mor(one)
    assert compose(e, e) == e
    rng = random.Random(603)
    m = random_object(P2, rng, max_total=3)
    assert idempotent_e(a, m) == tensor_mor(identity_mor(m), e)


def test_idempotent_trivial_iff_separable_on_corpus():
    rng = random.Random(604)
    for cat in (Z2, P2):
        one = unit_object(cat)
        for a in algebra_corpus(cat, rng):
            if a.is_zero():
                continue
            v = separability_verdict(a)
            assert v["separable"] == (idempotent_e(a, one) == identity_mor(one))


def test_separable_unit_idempotent_is_the_interned_identity():
    """idempotent_e of a separable corpus algebra is identity_mor of one
    endpoint, every block the interned Matrix.identity, so tensoring an
    identity with it takes tensor_mor's identity path; that of a
    non-separable algebra (a unit summand of pair2) is not."""
    rng = random.Random(606)
    seen = set()
    algebras = [unit_summand_algebra(P2, 0)]
    for cat in (Z2, P2, P3, U22):
        algebras += [a for a in algebra_corpus(cat, rng) if not a.is_zero()]
    for a in algebras:
        one = unit_object(a.carrier.cat)
        e = idempotent_e(a, one)
        interned = (e.source is e.target
                    and e.blocks.keys() == e.source.mult.keys()
                    and all(b.is_interned_identity()
                            for b in e.blocks.values()))
        separable = separability_verdict(a)["separable"]
        assert interned == separable
        seen.add(separable)
    assert seen == {True, False}
    assert not separability_verdict(algebras[0])["separable"]


def test_section_identity_group_algebra():
    rng = random.Random(605)
    a = groupoid_algebra(Z2, [0])
    r = separability_verdict(a)["retraction"]
    samples = []
    for _ in range(4):
        v = random_object(Z2, rng, max_total=3)
        w = random_object(Z2, rng, max_total=3)
        samples.extend(hom_basis(v, w))
    assert check_section_identity(a, r, samples, rng=rng)
    with pytest.raises(ValueError):
        check_section_identity(a, r.scale(2), samples)


def test_cosection_identity_dual_group_algebra():
    rng = random.Random(606)
    c = dualize_algebra(groupoid_algebra(Z2, [0]))
    s = coseparability_verdict(c)["section"]
    samples = []
    for _ in range(4):
        v = random_object(Z2, rng, max_total=3)
        w = random_object(Z2, rng, max_total=3)
        samples.extend(hom_basis(v, w))
    assert check_cosection_identity(c, s, samples, rng=rng)
    with pytest.raises(ValueError):
        check_cosection_identity(c, s.scale(3), samples)


def test_faithful_dead_simple():
    a = unit_summand_algebra(P2, 0)
    rep = is_faithful_tensor(a)
    assert not rep["faithful"]
    g = rep["witness"]["simple_grade"]
    assert tensor_obj(simple_object(P2, g), a.carrier).is_zero()
    assert rep["witness"]["morphism"] == identity_mor(simple_object(P2, g))


def _dead_simple_grade_by_products(cat, carrier):
    """_dead_simple_grade as it was first written: lay out S_g (x) carrier
    for every grade g in turn and test it for zero (no slot)."""
    for g in range(cat.morphism_count):
        if not tensor_obj(simple_object(cat, g), carrier).layout:
            return g
    return None


@settings(max_examples=80, deadline=None)
@given(_small_groupoids(), st.data())
def test_dead_simple_grade_matches_tensor_products(cat, data):
    m = cat.morphism_count
    subsets = [{data.draw(st.sampled_from(cat.identity_grades))},
               set(range(m)),
               data.draw(st.sets(st.integers(0, m - 1), min_size=1)),
               data.draw(st.sets(st.integers(0, m - 1), min_size=1))]
    for grades in subsets:
        carrier = graded_object(
            cat, {g: data.draw(st.integers(1, 3)) for g in grades})
        assert functors._dead_simple_grade(cat, carrier) \
            == _dead_simple_grade_by_products(cat, carrier)


def test_dead_simple_grade_builds_no_tensor_product(layout_calls):
    rng = random.Random(621)
    carriers = []
    for name in FIXTURE_NAMES:
        cat = load_fixture(name)
        carriers += [(cat, a.carrier) for a in algebra_corpus(cat, rng)
                     if not a.is_zero()]
    for _, c in carriers:
        c.layout
    layout_calls.clear()
    dead = [functors._dead_simple_grade(cat, c) for cat, c in carriers]
    assert layout_calls == []
    assert any(g is None for g in dead) and any(g is not None for g in dead)
    expected = [_dead_simple_grade_by_products(cat, c) for cat, c in carriers]
    assert layout_calls and dead == expected


def test_faithful_group_algebra():
    rng = random.Random(607)
    a = groupoid_algebra(Z2, [0])
    assert is_faithful_tensor(a, rng=rng)["faithful"]
    assert is_faithful_tensor(a, rng=rng)["witness"] is None


def test_reflection_dead_simple_witnesses():
    a = unit_summand_algebra(P2, 0)
    rep = reflection_checks(a)
    for key in ("maschke", "dual_maschke", "conservative"):
        assert not rep[key]["holds"]
        assert rep[key]["witness"] is not None
    w = rep["maschke"]["witness"]
    assert w.target == zero_object(P2)
    assert not w.source.is_zero()
    assert tensor_obj(w.source, a.carrier).is_zero()


def test_reflection_holds_group_algebra():
    rng = random.Random(608)
    a = groupoid_algebra(Z2, [0])
    rep = reflection_checks(a, rng=rng, samples=10)
    for key in ("maschke", "dual_maschke", "conservative"):
        assert rep[key]["holds"]
        assert rep[key]["witness"] is None


def test_reflection_loop_catches_forged_tensor(monkeypatch):
    # mutation: with f (x) id forged to an isomorphism, every sample is
    # split on both sides after tensoring, and a sampled f that is not
    # split mono must make the loop raise
    monkeypatch.setattr(functors, "tensor_mor",
                        lambda f, h: identity_mor(h.source))
    with pytest.raises(ConsistencyError, match="split-mono reflection"):
        reflection_checks(groupoid_algebra(Z2, [0]), rng=random.Random(5),
                          samples=12)


def test_reflection_sample_ranks_once_per_block(monkeypatch):
    # one sampled iteration solves nothing and reduces each stored block
    # of f (x) id at most once, plus each of f's when f is ranked too; a
    # reduction is a call of either kernel that reduces rows, rank or rref
    from fusionaudit import exactlin, morphcalc
    from fusionaudit.exactlin import _kernels
    calls = {"reduce": 0, "solve": 0}
    pairs = []

    def wrap(name, original):
        def counted(*args):
            calls[name] += 1
            return original(*args)
        return counted

    for kernel in ("rank", "rref"):
        monkeypatch.setattr(_kernels, kernel,
                            wrap("reduce", getattr(_kernels, kernel)))
    solve = wrap("solve", exactlin.solve_right)
    for module in (exactlin, morphcalc):
        monkeypatch.setattr(module, "solve_right", solve)
    for module in (morphcalc, functors):
        for name in ("find_retraction", "find_section"):
            monkeypatch.setattr(module, name, wrap("solve",
                                                   getattr(module, name)))
    original_tensor = functors.tensor_mor

    def recorded(f, h):
        pairs.append((f, original_tensor(f, h)))
        return pairs[-1][1]

    monkeypatch.setattr(functors, "tensor_mor", recorded)
    reduced = 0
    for name in FIXTURE_NAMES:
        cat = load_fixture(name)
        a = groupoid_algebra(cat, range(cat.object_count))
        for seed in range(20):
            calls["reduce"] = 0
            del pairs[:]
            reflection_checks(a, rng=random.Random(seed), samples=1)
            assert calls["solve"] == 0
            (f, ff), = pairs
            assert calls["reduce"] <= len(ff.blocks) + len(f.blocks)
            reduced += calls["reduce"]
    assert reduced


def test_coalgebra_mirrors():
    rng = random.Random(609)
    c_bad = dualize_algebra(unit_summand_algebra(P2, 0))
    v = coseparability_verdict(c_bad)
    assert not v["separable"] and v["naturally_full"]
    assert not is_faithful_cotensor(c_bad)["faithful"]
    rep = coreflection_checks(c_bad)
    assert not rep["maschke"]["holds"]

    c_good = dualize_algebra(groupoid_algebra(Z2, [0]))
    v = coseparability_verdict(c_good)
    assert v["separable"] and v["idempotent_trivial"]
    assert compose(c_good.counit, v["section"]) == identity_mor(unit_object(Z2))
    assert is_faithful_cotensor(c_good, rng=rng)["faithful"]
    rep = coreflection_checks(c_good, rng=rng, samples=10)
    assert all(rep[k]["holds"] for k in rep)


@pytest.mark.parametrize("verdict, dual", ((separability_verdict, False),
                                           (coseparability_verdict, True)))
def test_verdict_takes_one_weak_inverse(monkeypatch, verdict, dual):
    # the (co)unit is factored once: the verdict's one weak inverse w, used
    # to decide semiseparability as f w f == f, and the (co)unit idempotent
    # come from that one image factorization
    from fusionaudit import morphcalc
    calls = []
    original = morphcalc.image_factorization

    def counted(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(morphcalc, "image_factorization", counted)
    a = groupoid_algebra(P2, [0, 1])
    c = dualize_algebra(a) if dual else a
    v = verdict(c)
    f, w = (c.counit if dual else c.unit), v["weak_inverse"]
    assert calls == [f]
    assert v["semiseparable"]
    assert compose(compose(f, w), f) == f
    assert w == morphcalc.weak_inverse(f)


def test_dual_verdicts_agree_on_corpus():
    rng = random.Random(610)
    rng2 = random.Random(610)
    for cat in (Z2, P2):
        algebras = algebra_corpus(cat, rng)
        coalgebras = [dualize_algebra(a)
                      for a in algebra_corpus(cat, rng2)]
        for a, c in zip(algebras, coalgebras):
            if a.is_zero():
                continue
            va = separability_verdict(a)
            vc = coseparability_verdict(c)
            for key in ("separable", "naturally_full", "semiseparable",
                        "idempotent_trivial"):
                assert va[key] == vc[key]


def test_inclusion_frobenius():
    rng = random.Random(612)
    assert check_inclusion_frobenius(P3, {0, 2}, rng)
    assert check_inclusion_frobenius(Z2, {0}, rng)
    assert check_inclusion_frobenius(U22, {1}, rng)
    assert check_inclusion_frobenius(P2, {0}, rng)
    assert ProjectionFunctor(P3, {0, 2}).one_j == unit_summand(P3, {0, 2})
    with pytest.raises(ValueError):
        check_inclusion_frobenius(P3, set(), rng)


def test_projection_functor_is_corner_restriction():
    rng = random.Random(613)
    rj = ProjectionFunctor(P3, {0, 2})
    one_j = unit_summand(P3, {0, 2})
    for _ in range(6):
        x = random_object(P3, rng, max_total=4)
        assert rj.obj(x) == tensor_obj(tensor_obj(one_j, x), one_j)
        assert rj.obj(x) == restrict_grades(x, rj.grades)
        assert slot_words(rj.obj(x)) == \
            slot_words(tensor_obj(tensor_obj(one_j, x), one_j))
        y = random_object(P3, rng, max_total=4)
        f = random_morphism(x, y, rng)
        rf = rj.mor(f)
        for g, b in rf.blocks.items():
            assert g in rj.grades
            assert b == f.blocks[g]


# Reference constructions of the projection functor's maps as tensor
# products with the unit summand 1_J and the coordinate maps of 1.

def _ref_mor(rj, f):
    one = identity_mor(rj.one_j)
    return tensor_mor(tensor_mor(one, f), one)


def _ref_chain(rj, x, y, unit_map):
    """id(1_J (x) x) (x) c (x) c (x) id(y (x) 1_J), c = i_J or p_J."""
    out = identity_mor(tensor_obj(rj.one_j, x))
    for f in (unit_map, unit_map, identity_mor(tensor_obj(y, rj.one_j))):
        out = tensor_mor(out, f)
    return out


def _same_map(f, g):
    """Equal blocks between objects with equal slot words."""
    return (f == g and slot_words(f.source) == slot_words(g.source)
            and slot_words(f.target) == slot_words(g.target))


def _differential_objects(cat, rng):
    x = random_object_or_zero(cat, rng, 2)
    y = random_object_or_zero(cat, rng, 2)
    return [zero_object(cat), random_object(cat, rng, max_total=3),
            random_object_or_zero(cat, rng, 3),
            tensor_obj(x, y)]


def test_projection_functor_matches_tensor_constructions():
    rng = random.Random(618)
    cases = 0
    for name in FIXTURE_NAMES:
        cat = load_fixture(name)
        n = cat.object_count
        for k in range(1, n + 1):
            for objs in combinations(range(n), k):
                rj = ProjectionFunctor(cat, objs)
                one_j = identity_mor(rj.one_j)
                assert _same_map(rj.phi0(), tensor_mor(one_j, rj.p_j))
                assert _same_map(rj.psi0(), tensor_mor(one_j, rj.i_j))
                pool = _differential_objects(cat, rng)
                for x in pool:
                    for y in pool:
                        f = random_morphism(x, y, rng)
                        assert _same_map(rj.mor(f), _ref_mor(rj, f))
                        match = rj.match(x, y)
                        assert _same_map(rj.phi(match),
                                         _ref_chain(rj, x, y, rj.i_j))
                        assert _same_map(rj.psi(match),
                                         _ref_chain(rj, x, y, rj.p_j))
                        cases += 1
    assert cases == 16 * 16


def _assert_projection_matches_references(rj, rng):
    one_j = identity_mor(rj.one_j)
    assert _same_map(rj.phi0(), tensor_mor(one_j, rj.p_j))
    assert _same_map(rj.psi0(), tensor_mor(one_j, rj.i_j))
    pool = _differential_objects(rj.cat, rng)
    for x in pool:
        for y in pool:
            f = random_morphism(x, y, rng)
            assert _same_map(rj.mor(f), _ref_mor(rj, f))
            match = rj.match(x, y)
            assert _same_map(rj.phi(match), _ref_chain(rj, x, y, rj.i_j))
            assert _same_map(rj.psi(match), _ref_chain(rj, x, y, rj.p_j))


@settings(max_examples=40, deadline=None)
@given(_small_groupoids(), st.data(), st.integers(0, 2**32 - 1))
def test_projection_functor_matches_tensor_constructions_on_random_groupoids(
        cat, data, seed):
    objs = data.draw(st.sets(st.integers(0, cat.object_count - 1),
                             min_size=1))
    _assert_projection_matches_references(
        ProjectionFunctor(cat, objs), random.Random(seed))


def test_lax_maps_call_no_tensor_mor(monkeypatch):
    calls = []

    def counting(f, h):
        calls.append(1)
        return tensor_mor(f, h)

    monkeypatch.setattr(gvec, "tensor_mor", counting)
    monkeypatch.setattr(functors, "tensor_mor", counting)
    rng = random.Random(619)
    rj = ProjectionFunctor(P3, {0, 2})
    for _ in range(10):
        x = random_object(P3, rng, max_total=4)
        y = random_object(P3, rng, max_total=4)
        match = rj.match(x, y)
        rj.phi(match)
        rj.psi(match)
    assert calls == []


def test_zero_one_identity_is_interned():
    """_zero_one returns the interned identity exactly when its 0/1 map is
    the identity, so R_J's lax and colax maps on objects supported in J
    take the identity fast paths of @ and tensor_mor."""
    for n in (0, 1, 3):
        assert functors._zero_one(n, n, {i: i for i in range(n)}) \
            is Matrix.identity(n)
    swap = functors._zero_one(2, 2, {0: 1, 1: 0})
    assert swap == Matrix.from_rows([[0, 1], [1, 0]])
    assert not swap.is_interned_identity()
    partial = functors._zero_one(3, 3, {0: 0, 2: 2})
    assert partial == Matrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 1]])
    assert not partial.is_interned_identity()
    assert functors._zero_one(2, 3, {0: 0, 1: 1}) \
        == Matrix.from_rows([[1, 0, 0], [0, 1, 0]])
    rng = random.Random(621)
    rj = ProjectionFunctor(P3, {0, 2})
    for _ in range(6):
        x = restrict_grades(random_object(P3, rng, max_total=4), rj.grades)
        y = restrict_grades(random_object(P3, rng, max_total=4), rj.grades)
        match = rj.match(x, y)
        for f in (rj.phi(match), rj.psi(match)):
            assert all(b.is_interned_identity() for b in f.blocks.values())
            assert f == identity_mor(tensor_obj(x, y))


def test_lax_colax_check_matches_each_pair_once(monkeypatch):
    # phi and psi of one object pair read one word match; a sample checks
    # seven pairs: (x, y), (xy, z), (x, yz), (y, z), (1, x), (x, 1), (x2, y2)
    calls = []
    original = ProjectionFunctor.match

    def counted(self, x, y):
        calls.append((x, y))
        return original(self, x, y)

    monkeypatch.setattr(ProjectionFunctor, "match", counted)
    assert check_projection_lax_colax(P3, {0, 2}, random.Random(620),
                                      samples=5)
    assert len(calls) == 7 * 5


def _count_calls(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(*args):
        calls.append(name)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)


def test_lax_colax_check_builds_each_value_once(monkeypatch):
    # per sample: two tensor products in each of lax associativity and
    # colax coassociativity, four in unitality, and two for naturality,
    # R(f (x) g) and R(f) (x) R(g), each read by both squares; the unit
    # maps phi0 and psi0 are built once per call
    calls = []
    for name in ("phi0", "psi0"):
        _count_calls(monkeypatch, ProjectionFunctor, name, calls)
    _count_calls(monkeypatch, functors, "tensor_mor", calls)
    for samples in (1, 5):
        calls.clear()
        assert check_projection_lax_colax(P3, {0, 2}, random.Random(622),
                                          samples=samples)
        assert calls.count("phi0") == calls.count("psi0") == 1
        assert calls.count("tensor_mor") == 10 * samples


def test_inclusion_frobenius_builds_each_square_once(monkeypatch):
    # per sample: four tensor products for the unit axioms, and the two
    # sides of the Frobenius squares, composed both ways
    calls = []
    _count_calls(monkeypatch, functors, "tensor_mor", calls)
    for samples in (1, 5):
        calls.clear()
        assert check_inclusion_frobenius(P3, {0, 2}, random.Random(623),
                                         samples=samples)
        assert calls.count("tensor_mor") == 6 * samples


def test_projection_lax_colax():
    rng = random.Random(614)
    assert check_projection_lax_colax(P2, {0}, rng)
    assert check_projection_lax_colax(P3, {0, 2}, rng)
    assert check_projection_lax_colax(U22, {0}, rng)
    assert check_projection_lax_colax(Z2, {0}, rng)


def _rj_matches(a, objs):
    return check_rj_algebra(a, objs, restriction_data(a, objs))


def test_rj_algebra_matches_direct_restriction():
    rng = random.Random(615)
    assert _rj_matches(groupoid_algebra(P2, [0, 1]), {0})
    assert _rj_matches(groupoid_algebra(U22, [0, 1]), {0})
    x = random_object(P3, rng, max_total=2)
    e = internal_end(x)
    if not e.is_zero():
        assert _rj_matches(e, support(e))
    a = groupoid_algebra(P3, [0, 1, 2])
    assert _rj_matches(a, {0, 1})


def test_rj_algebra_compares_multiplications_on_a_proper_subset():
    """On a proper object subset the projection drops carrier grades, and
    the lax image's multiplication is still compared with the corner's:
    swapping two rows of one block of the corner multiplication of P3's
    kG (+) kG on {0, 1} is caught.  With nothing dropped only the units
    are compared, and a.mult is not built."""
    kg = groupoid_algebra(P3, [0, 1, 2])
    a = direct_sum_algebra(kg, kg)
    objs = {0, 1}
    data = restriction_data(a, objs)
    corner = data["algebra"]
    assert corner.carrier != a.carrier
    assert check_rj_algebra(a, objs, data)
    blocks = dict(corner.mult.blocks)
    g = min(blocks)
    rows = blocks[g].sparse
    assert len(rows) == 2 and rows[0] != rows[1]
    blocks[g] = Matrix._of(2, blocks[g].cols, rows[::-1])
    swapped = InternalAlgebra._of(
        corner.carrier,
        GradedMorphism._of(corner.mult.source, corner.carrier, blocks),
        corner.unit)
    assert not check_rj_algebra(a, objs, dict(data, algebra=swapped))
    whole = direct_sum_algebra(kg, kg)
    data = restriction_data(whole, support(whole))
    assert check_rj_algebra(whole, support(whole), data)
    assert callable(whole._mult)


def test_frobenius_pair():
    rng = random.Random(616)
    assert frobenius_pair_check(P3, {0, 2}, rng)
    assert frobenius_pair_check(Z2, {0}, rng)
    assert frobenius_pair_check(P2, {1}, rng)
    assert frobenius_pair_check(U22, {0}, rng)


def test_restricted_separability_corpus():
    """Each of the audit's corner entries, on a one-object and two
    multi-object fixtures, is the live corpus algebra at its index over
    its support, and the restricted unit 1_J -> A_J of that corner has a
    retraction, found by find_retraction and checked by composing."""
    for cat in (Z2, P2, U22):
        corpus = algebra_corpus(cat, random.Random(617), 2)
        corner = run_audit(cat, seed=617)["structural"]["corner_algebras"]
        assert [e["index"] for e in corner] \
            == [i for i, a in enumerate(corpus) if not a.is_zero()]
        for entry in corner:
            a = corpus[entry["index"]]
            assert entry["support"] == sorted(support(a))
            assert entry["restricted_separable"] is True
            unit_j = restriction_data(a, entry["support"])["restricted_unit"]
            r = find_retraction(unit_j)
            assert compose(r, unit_j) == identity_mor(unit_j.source)


def test_verdicts_run_clean_on_corpus():
    rng = random.Random(618)
    for cat in (VEC, Z2, P2):
        for a in algebra_corpus(cat, rng):
            if a.is_zero():
                continue
            separability_verdict(a)
            reflection_checks(a, rng=rng, samples=3)
