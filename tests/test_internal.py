"""Internal algebras and coalgebras: validators, canonical constructions,
support, restriction, serialization."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    COERCED_GENERATOR_SPECS, _small_groupoids, symmetric_group_spec)
from fusionaudit import gvec, internal
from fusionaudit.corpus import algebra_corpus, random_object
from fusionaudit.errors import ShapeError, SpecError
from fusionaudit.exactlin import Matrix
from fusionaudit.fixtures import FIXTURE_NAMES, load_fixture
from fusionaudit.groupoid import groupoid_from_spec
from fusionaudit.gvec import (
    GradedMorphism, _code_runs, cokernel, compose, direct_sum_obj,
    direct_sum_with_maps, dual_morphism, graded_object, identity_mor, is_epi,
    is_mono, restrict_grades, simple_object, tensor_mor, tensor_obj,
    unit_object, unit_summand, zero_mor, zero_object)
from fusionaudit.internal import (
    InternalAlgebra, InternalCoalgebra, algebra_from_spec, algebra_to_spec,
    direct_sum_algebra, dualize_algebra, dualize_coalgebra, groupoid_algebra,
    internal_end, restriction_data, support,
    unit_summand_algebra, validate_algebra, validate_coalgebra)
from fusionaudit.morphcalc import find_retraction, find_section
from slotwords import bisected_pair_columns, pair_columns, seq_parts

VEC = load_fixture("vec")
Z2 = load_fixture("vec_z2")
S3 = load_fixture("vec_s3")
P2 = load_fixture("pair2")
P3 = load_fixture("pair3")
U22 = load_fixture("union_z2_z2")
CATS = [Z2, S3, P2, P3, U22]
S4 = groupoid_from_spec(symmetric_group_spec(4, 1))
# a JSON number too large for a float parses as inf
INF = json.loads("1e400")


def test_unit_summand_algebra_pair2():
    a = unit_summand_algebra(P2, 0)
    assert validate_algebra(a) == {"ok": True, "zero": False, "failures": []}
    assert a.unit.blocks == {0: Matrix.from_rows([[1]])}
    # the unit misses the other summand of 1, so it is not mono
    assert not is_mono(a.unit)
    c = dualize_algebra(a)  # the coalgebra on 1_0 an audit builds
    assert validate_coalgebra(c)["ok"]
    assert not is_epi(c.counit)
    assert cokernel(c.counit)[0].mult == {3: 1}


def test_unit_summand_in_one_object_category():
    a = unit_summand_algebra(VEC, 0)
    assert is_mono(a.unit) and is_epi(a.unit)
    assert a.mult.blocks == {0: Matrix.from_rows([[1]])}


def test_groupoid_algebra_z2():
    a = groupoid_algebra(Z2, {0})
    assert a.carrier.mult == {0: 1, 1: 1}
    assert a.mult.blocks[0] == Matrix.from_rows([[1, 1]])
    assert a.mult.blocks[1] == Matrix.from_rows([[1, 1]])
    assert a.unit.blocks == {0: Matrix.from_rows([[1]])}
    assert validate_algebra(a)["ok"]
    assert is_mono(a.unit)
    r = find_retraction(a.unit)
    assert compose(r, a.unit) == identity_mor(a.unit.source)


def test_groupoid_algebra_pair2():
    a = groupoid_algebra(P2, {0, 1})
    assert a.carrier.mult == {0: 1, 1: 1, 2: 1, 3: 1}
    assert validate_algebra(a)["ok"]
    assert is_mono(a.unit)
    assert support(a) == {0, 1}
    assert groupoid_algebra(P2, {0}) == unit_summand_algebra(P2, 0)
    with pytest.raises(ValueError):
        groupoid_algebra(P2, set())


def test_internal_end():
    x = simple_object(P2, 1)
    a = internal_end(x)
    assert a.carrier.mult == {0: 1}
    assert support(a) == {0}
    b = internal_end(graded_object(Z2, {0: 1, 1: 1}))
    assert b.carrier.mult == {0: 2, 1: 2}
    assert validate_algebra(b)["ok"]
    triv = internal_end(unit_object(VEC))
    assert triv == unit_summand_algebra(VEC, 0)
    with pytest.raises(ValueError):
        internal_end(zero_object(Z2))


def test_corpus_algebras_validate():
    for cat in CATS:
        for a in algebra_corpus(cat, random.Random(501)):
            report = validate_algebra(a)
            assert report == {"ok": True, "zero": False, "failures": []}
            assert support(a)
            assert validate_coalgebra(dualize_algebra(a))["ok"]


def _corpus_built_anew(cat, rng, internal_ends=2, sums=2):
    """algebra_corpus's recipe with every entry built anew, sharing
    nothing: the oracle for its draws."""
    n = cat.object_count
    out = [unit_summand_algebra(cat, i) for i in range(n)]
    out.append(groupoid_algebra(cat, range(n)))
    for _ in range(2):
        out.append(groupoid_algebra(
            cat, rng.sample(range(n), rng.randrange(1, n + 1))))
    for _ in range(internal_ends):
        out.append(internal_end(random_object(cat, rng, max_total=2)))
    for _ in range(sums):
        out.append(direct_sum_algebra(rng.choice(out), rng.choice(out)))
    return out


def test_corpus_builds_each_groupoid_algebra_and_sum_once(monkeypatch):
    # equal draws share one object: one groupoid_algebra per object set,
    # one direct_sum_algebra per pair of chosen entries
    built, sums = [], []
    make_kg, make_sum = internal.groupoid_algebra, internal.direct_sum_algebra

    def kg(cat, objs):
        built.append(frozenset(objs))
        return make_kg(cat, objs)

    def direct_sum(a, b):
        sums.append((id(a), id(b)))
        return make_sum(a, b)

    monkeypatch.setattr(internal, "groupoid_algebra", kg)
    monkeypatch.setattr(internal, "direct_sum_algebra", direct_sum)
    for cat in CATS + [VEC, S4]:
        n = cat.object_count
        for seed in range(1, 6):
            del built[:], sums[:]
            out = algebra_corpus(cat, random.Random(seed), sums=4)
            assert len(built) == len(set(built)) and built
            assert len(sums) == len(set(sums)) and sums
            kgs = out[n:n + 3]
            assert {frozenset(support(a)) for a in kgs} == set(built)
            for a in kgs:
                for b in kgs:
                    assert (a is b) == (support(a) == support(b))
            if n == 1:
                assert len(built) == 1 and out[1] is out[2] is out[3]


def test_corpus_redraws_sums_over_the_cap(monkeypatch):
    """With gvec.MAX_TOTAL_MULT cut to 2, the most two unit summands take,
    algebra_corpus never raises: a direct-sum pair over the cap is drawn
    again, so every sum fits.  Many of these pairs are over the cap at
    the full cap's draws, so the redraw runs."""
    redrawn = 0
    for cat in CATS + [VEC]:
        n = cat.object_count
        for seed in range(40):
            full = algebra_corpus(cat, random.Random(seed), sums=4)
            with monkeypatch.context() as m:
                for mod in (gvec, internal):
                    m.setattr(mod, "MAX_TOTAL_MULT", 2)
                out = algebra_corpus(cat, random.Random(seed), sums=4)
            assert len(out) == len(full) == n + 3 + 2 + 4
            assert all(gvec.total_mult(a.carrier) <= 2 for a in out[-4:])
            redrawn += any(gvec.total_mult(a.carrier) > 2
                           for a in full[-4:])
    assert redrawn > 100


def test_corpus_builds_each_internal_end_once(monkeypatch):
    # equal internal_end draws share one object: one internal_end per
    # drawn object's slot codes, grade order included
    ends = []
    make_end = internal.internal_end

    def end(x):
        ends.append((x.seq, tuple(x.layout.items())))
        return make_end(x)

    monkeypatch.setattr(internal, "internal_end", end)
    shared = 0
    for cat in CATS + [VEC, S4]:
        n = cat.object_count
        for seed in range(1, 21):
            del ends[:]
            out = algebra_corpus(cat, random.Random(seed), internal_ends=3)
            assert len(ends) == len(set(ends))
            drawn = out[n + 3:n + 6]
            assert len({id(a) for a in drawn}) == len(ends)
            shared += len(ends) < 3
    assert shared


def test_corpus_draws_match_building_every_entry_anew():
    for cat in CATS + [VEC, S4]:
        for seed in range(1, 6):
            rng, fresh_rng = random.Random(seed), random.Random(seed)
            out = algebra_corpus(cat, rng, sums=4)
            fresh = _corpus_built_anew(cat, fresh_rng, sums=4)
            assert out == fresh
            assert rng.getstate() == fresh_rng.getstate()


def _direct_sum_by_compose(a, b):
    """direct_sum_algebra's structure maps through the sum's injections
    and projections, m_a (p_a (x) p_a) and u_a pushed into the sum, plus
    the same for b: the oracle for the re-indexed unit, and the build of
    the multiplication that direct_sum_algebra runs on first read."""
    s, ia, ib, pa, pb = direct_sum_with_maps(a.carrier, b.carrier)
    mult = compose(ia, compose(a.mult, tensor_mor(pa, pa))) \
        + compose(ib, compose(b.mult, tensor_mor(pb, pb)))
    unit = compose(ia, a.unit) + compose(ib, b.unit)
    return s, mult, unit


@settings(max_examples=40, deadline=None)
@given(_small_groupoids(), st.integers(0, 2**32 - 1))
def test_direct_sum_algebra_matches_compose_form(cat, seed):
    """The sum's unit is the summands' pushed into the sum, and its
    multiplication satisfies m_s (i_x (x) i_y) = delta_xy i_x m_x for the
    summand injections i_a, i_b."""
    rng = random.Random(seed)
    pool = algebra_corpus(cat, rng, internal_ends=1, sums=1)
    for _ in range(3):
        a, b = rng.choice(pool), rng.choice(pool)
        got = direct_sum_algebra(a, b)
        s, _, unit = _direct_sum_by_compose(a, b)
        assert tuple(got.carrier.layout.items()) == tuple(s.layout.items())
        assert got.mult.target is got.carrier
        assert tuple(got.mult.source.layout.items()) \
            == tuple(tensor_obj(s, s).layout.items())
        assert got.unit.blocks == unit.blocks
        _, ia, ib, _, _ = direct_sum_with_maps(a.carrier, b.carrier)
        for x, ix in ((a, ia), (b, ib)):
            for y, iy in ((a, ia), (b, ib)):
                lhs = compose(got.mult, tensor_mor(ix, iy))
                if ix is iy:
                    assert lhs.blocks == compose(ix, x.mult).blocks
                else:
                    assert lhs.is_zero()
        pool.append(got)  # later draws may sum a sum


def test_dualize():
    kz2 = groupoid_algebra(Z2, {0})
    c = dualize_algebra(kz2)
    assert validate_coalgebra(c)["ok"]
    assert is_epi(c.counit)
    s = find_section(c.counit)
    assert compose(c.counit, s) == identity_mor(c.counit.target)
    back = dualize_coalgebra(c)
    assert back.carrier == kz2.carrier
    assert back.mult == kz2.mult and back.unit == kz2.unit
    c0 = dualize_algebra(unit_summand_algebra(P2, 0))
    assert validate_coalgebra(c0)["ok"]
    assert not is_epi(c0.counit)


def test_direct_sum_algebra():
    s = direct_sum_algebra(unit_summand_algebra(P2, 0),
                           unit_summand_algebra(P2, 1))
    assert validate_algebra(s)["ok"]
    assert s.carrier.mult == {0: 1, 3: 1}
    assert support(s) == {0, 1}
    both = direct_sum_algebra(groupoid_algebra(Z2, {0}),
                              groupoid_algebra(Z2, {0}))
    assert validate_algebra(both)["ok"]
    assert both.carrier.mult == {0: 2, 1: 2}


def test_zero_algebra():
    z = zero_object(Z2)
    a = InternalAlgebra(z, zero_mor(z, z), zero_mor(unit_object(Z2), z))
    assert validate_algebra(a) == {"ok": True, "zero": True, "failures": []}
    assert support(a) == set()


def test_mutations_rejected():
    base = groupoid_algebra(Z2, {0})
    # sending the (non-identity, identity) slot to twice the generator
    # breaks the right unit law and associativity
    bad_mult = GradedMorphism(
        base.mult.source, base.carrier,
        {0: base.mult.blocks[0], 1: Matrix.from_rows([[1, 2]])})
    report = validate_algebra(
        InternalAlgebra(base.carrier, bad_mult, base.unit))
    assert not report["ok"]
    assert any("unit law" in msg or "associativity" in msg
               for msg in report["failures"])
    # rescaling the (g, g) structure constant stays associative and unital:
    # the quadratic algebra with g*g = 2e; the validator must accept it
    flat = GradedMorphism(
        base.mult.source, base.carrier,
        {0: Matrix.from_rows([[1, 2]]), 1: base.mult.blocks[1]})
    assert validate_algebra(
        InternalAlgebra(base.carrier, flat, base.unit))["ok"]
    bad_unit = GradedMorphism(base.unit.source, base.carrier,
                              {0: Matrix.from_rows([[2]])})
    report = validate_algebra(
        InternalAlgebra(base.carrier, base.mult, bad_unit))
    assert not report["ok"]


def test_mutations_rejected_across_corpus():
    # one random single-entry bump per corpus algebra must break an axiom
    for cat in (Z2, P2):
        rng = random.Random(502)
        for a in algebra_corpus(cat, rng):
            g = rng.choice(sorted(a.mult.blocks))
            b = a.mult.blocks[g]
            k = rng.randrange(len(b.entries))
            entries = list(b.entries)
            entries[k] += 1
            mutated = dict(a.mult.blocks)
            mutated[g] = Matrix(b.rows, b.cols, entries)
            candidate = InternalAlgebra(
                a.carrier,
                GradedMorphism(a.mult.source, a.carrier, mutated),
                a.unit)
            assert not validate_algebra(candidate)["ok"]


def _square_mutants(carrier):
    """carrier (x) carrier, and objects that differ from it: the carrier
    itself, one slot more or fewer, and one grade dropped."""
    cat = carrier.cat
    square = tensor_obj(carrier, carrier)
    g = min(square.mult)
    out = [square, carrier, direct_sum_obj(square, simple_object(cat, g)),
           restrict_grades(square, set(square.mult) - {g})]
    if square.mult[g] > 1:
        fewer = dict(square.mult)
        fewer[g] -= 1
        out.append(graded_object(cat, fewer))
    return out


def test_endpoint_checks_reject_wrong_shapes():
    """A multiplication or comultiplication with the wrong tensor-square
    endpoint, or the wrong carrier endpoint, is a ShapeError, exactly
    when the object comparison with tensor_obj would reject it."""
    rejected = 0
    for cat in CATS + [S4]:
        rng = random.Random(503)
        for a in algebra_corpus(cat, rng)[:4]:
            if a.is_zero():
                continue
            carrier = a.carrier
            square = tensor_obj(carrier, carrier)
            counit = zero_mor(carrier, unit_object(cat))
            wrong = direct_sum_obj(carrier, simple_object(cat, 0))
            for x in _square_mutants(carrier):
                for y in (carrier, wrong):
                    builds = (
                        lambda: InternalAlgebra(
                            carrier, zero_mor(x, y), a.unit),
                        lambda: InternalCoalgebra(
                            carrier, zero_mor(y, x), counit))
                    for build in builds:
                        if x == square and y == carrier:
                            build()
                            continue
                        with pytest.raises(ShapeError):
                            build()
                        rejected += 1
    assert rejected > 100


def test_dualize_enumerates_no_tensor_slots(layout_calls):
    """Dualising S4's groupoid algebra, building its comultiplication, and
    rebuilding the algebra, check their endpoints by multiplicity: no slot
    enumeration runs.  kG's own multiplication, and the layout of its
    source kG (x) kG, are built before the guard goes in."""
    a = groupoid_algebra(S4, {0})
    assert a.mult.target is a.carrier
    a.mult.source.layout
    layout_calls.refusal = AssertionError(
        "a tensor product's slots were enumerated")
    c = dualize_algebra(a)
    assert c.comult.source is c.carrier
    assert c.carrier == a.carrier and c.carrier.m(0) == 1
    again = InternalAlgebra(a.carrier, a.mult, a.unit)
    assert again.carrier is a.carrier


def _summand_carriers(cat, rng):
    """Carriers that a direct sum takes: unit summands and the unit (tied
    0 codes at several identity grades), atomic objects, internal_end
    carriers (codes over two alphabets, a grade's codes possibly split
    over several runs) and direct sums."""
    objs = rng.sample(range(cat.object_count),
                      rng.randrange(1, cat.object_count + 1))
    x = random_object(cat, rng, max_total=2)
    end = internal_end(x).carrier
    return [unit_summand(cat, objs), unit_object(cat),
            random_object(cat, rng, max_total=3), end,
            direct_sum_obj(x, unit_object(cat)), direct_sum_obj(end, x)]


@settings(max_examples=40, deadline=None)
@given(_small_groupoids(), st.integers(0, 2**32 - 1))
def test_pair_columns_match_bisection(cat, seed):
    for c in _summand_carriers(cat, random.Random(seed)):
        assert pair_columns(c) == bisected_pair_columns(c)


def test_pair_columns_cover_every_run_shape(monkeypatch):
    """On the fixtures and S4 the one walk of pair_columns meets every
    shape of _code_runs (grades in layout order, tied codes, grades out
    of code order, and a grade split over several runs), and gives the
    per-pair bisection's columns without calling _slot_starts."""
    rng = random.Random(509)
    carriers = [groupoid_algebra(S4, {0}).carrier]
    for cat in CATS:
        two = graded_object(cat, {0: 1, cat.morphism_count - 1: 1})
        carriers += _summand_carriers(cat, rng) + [internal_end(two).carrier]
    refs = [bisected_pair_columns(c) for c in carriers]

    def forbidden(*args):
        raise AssertionError("a per-pair slot list was built")

    monkeypatch.setattr(gvec, "_slot_starts", forbidden)
    shapes = set()
    for c, ref in zip(carriers, refs):
        assert pair_columns(c) == ref
        runs, in_order = _code_runs(tuple(c.layout.items()))
        shapes.add("in order" if in_order else "sorted")
        if len(runs) > len(c.layout):
            shapes.add("split")
        if sum(1 for codes in c.layout.values() if codes[0] == 0) > 1:
            shapes.add("tied")
    assert shapes == {"in order", "sorted", "split", "tied"}


def _reindexed_blocks(carrier, f):
    """Every block of f re-indexed through pair_columns, as the
    canonical form did before it returned in-order blocks as they are."""
    cols = pair_columns(carrier)
    return {g: b.columns(cols[g]) for g, b in f.blocks.items()}


def test_canonical_forms_reindex_only_out_of_order_grades():
    """The canonical multiplication blocks are the block itself at a
    grade whose memory order is canonical, and equal re-indexing every
    block elsewhere, so algebra_to_spec and equality are unchanged.  The
    internal end of an object at the first and last grades has a carrier
    whose grades are out of index order, and its square has grades whose
    slots need re-indexing; its parsed spec has an atomic carrier, laid
    out in canonical order, so comparing the two takes both paths."""
    kept = reordered = 0
    for cat in CATS + [S4]:
        two = graded_object(cat, {0: 1, cat.morphism_count - 1: 1})
        for a in (internal_end(two), groupoid_algebra(cat, {0}),
                  direct_sum_algebra(internal_end(two),
                                     unit_summand_algebra(cat, 0))):
            blocks = internal._canonical_pair_blocks(a.carrier, a.mult)
            assert blocks == _reindexed_blocks(a.carrier, a.mult)
            cols = internal._reordered_columns(a.carrier)
            for g, b in a.mult.blocks.items():
                if cols[g] is None:
                    kept += 1
                    assert blocks[g] is b
                else:
                    reordered += 1
                    assert cols[g] == pair_columns(a.carrier)[g]
            spec = algebra_to_spec(a)
            assert spec == json.loads(json.dumps(spec))
            assert spec["mult"] == gvec._blocks_to_spec(
                _reindexed_blocks(a.carrier, a.mult))
            parsed = algebra_from_spec(cat, spec)
            scaled = InternalAlgebra._of(a.carrier, a.mult.scale(2), a.unit)
            for x, y in ((a, parsed), (parsed, a), (scaled, a),
                         (parsed, scaled)):
                assert (x == y) == _reindexed_equal(x, y)
            assert a == parsed and a != scaled
    assert kept and reordered


def _reindexed_equal(x, y):
    """Algebra equality, with every block re-indexed."""
    return (x.carrier == y.carrier
            and _reindexed_blocks(x.carrier, x.mult)
            == _reindexed_blocks(y.carrier, y.mult)
            and x.unit.blocks == y.unit.blocks)


def _same_codes(x, y):
    assert seq_parts(x.seq) == seq_parts(y.seq)
    assert list(x.layout.items()) == list(y.layout.items())


def _distinct(algebras):
    return list({id(a): a for a in algebras}.values())


def test_dualize_matches_dual_morphism_on_corpora():
    """On every corpus algebra of the six fixtures and S4 at seeds 1-3,
    dualize_algebra's maps are dual_morphism's, and so are
    dualize_coalgebra's: equal, with endpoints that carry the same codes,
    grade order included."""
    cats = [load_fixture(name) for name in FIXTURE_NAMES] + [S4]
    count = 0
    for cat in cats:
        for seed in (1, 2, 3):
            for a in _distinct(algebra_corpus(cat, random.Random(seed))):
                c = dualize_algebra(a)
                pairs = [(c.comult, dual_morphism(a.mult)),
                         (c.counit, dual_morphism(a.unit))]
                back = dualize_coalgebra(c)
                pairs += [(back.mult, dual_morphism(c.comult)),
                          (back.unit, dual_morphism(c.counit))]
                for got, ref in pairs:
                    assert got == ref
                    _same_codes(got.source, ref.source)
                    _same_codes(got.target, ref.target)
                assert back == a
                count += 1
    assert count > 100


# Eager builds of the structure maps that the producers build on first
# read, kG's as the producer built it eagerly and the others through the
# generic operations (injections, projections and dual_morphism): the
# oracle of test_forced_maps_match_eager_builds.

def _eager_groupoid_mult(carrier):
    cxc = tensor_obj(carrier, carrier)
    return GradedMorphism._of(cxc, carrier, {
        h: Matrix._of(1, m, (tuple([(j, Fraction(1)) for j in range(m)]),))
        for h, m in cxc.mult.items()})


def _eager_direct_sum_mult(a, b, s):
    _, mult, _ = _direct_sum_by_compose(a, b)
    return GradedMorphism._of(mult.source, s, mult.blocks)


def _eager_dual_comult(a):
    return dual_morphism(a.mult)


def _eager_dual_mult(c):
    return dual_morphism(c.comult)


def _forced_equals(holder, slot, read, ref):
    """holder's slot still holds a builder; the first read builds a map
    equal to ref, endpoint codes and grade order included, and puts it in
    the slot."""
    assert callable(getattr(holder, slot))
    got = read()
    assert getattr(holder, slot) is got and read() is got
    assert got == ref
    _same_codes(got.source, ref.source)
    _same_codes(got.target, ref.target)


def test_forced_maps_match_eager_builds(monkeypatch):
    """On the corpora of the six fixtures and S4 at seeds 1-2, every
    multiplication of a groupoid algebra or a direct sum, every dual's
    comultiplication and every double dual's multiplication is built on
    first read, and equals the eager build."""
    built = []
    groupoid_alg, direct_sum = groupoid_algebra, direct_sum_algebra

    def kg(cat, objs):
        a = groupoid_alg(cat, objs)
        built.append((a, lambda: _eager_groupoid_mult(a.carrier)))
        return a

    def ds(a, b):
        s = direct_sum(a, b)
        built.append((s, lambda: _eager_direct_sum_mult(a, b, s.carrier)))
        return s

    monkeypatch.setattr(internal, "groupoid_algebra", kg)
    monkeypatch.setattr(internal, "direct_sum_algebra", ds)
    cats = [load_fixture(name) for name in FIXTURE_NAMES] + [S4]
    count = 0
    for cat in cats:
        for seed in (1, 2):
            del built[:]
            corpus = algebra_corpus(cat, random.Random(seed))
            count += len(built)
            for a, ref in built:
                _forced_equals(a, "_mult", lambda: a.mult, ref())
            for a in _distinct(corpus):
                c = dualize_algebra(a)
                _forced_equals(c, "_comult", lambda: c.comult,
                               _eager_dual_comult(a))
                back = dualize_coalgebra(c)
                _forced_equals(back, "_mult", lambda: back.mult,
                               _eager_dual_mult(c))
    assert count > 50


def test_restriction_to_the_support_builds_no_multiplication():
    """A restriction that drops nothing compares no multiplication: the
    corner reads the algebra's multiplication slot, unbuilt, and its first
    read builds the algebra's, once, for both."""
    for a in (groupoid_algebra(P3, {0, 2}),
              direct_sum_algebra(groupoid_algebra(S3, {0}),
                                 unit_summand_algebra(S3, 0))):
        data = restriction_data(a, support(a))
        corner = data["algebra"]
        assert corner.carrier is a.carrier
        assert callable(a._mult) and callable(corner._mult)
        assert corner.mult is a.mult
        assert not callable(a._mult)
    a = groupoid_algebra(P3, {0, 1, 2})
    corner = restriction_data(a, {0, 2})["algebra"]
    assert not callable(a._mult) and not callable(corner._mult)
    assert corner == groupoid_algebra(P3, {0, 2})


def test_dualize_stars_the_carrier_only(monkeypatch):
    """dualize_algebra stars the carrier's codes only: slotcodes.starrer
    is called once, on the carrier's sequence.  The square's codes are
    starred when the comultiplication is first read."""
    seqs = []

    def counted(cat, seq):
        seqs.append(seq)
        return starrer(cat, seq)

    starrer = gvec.starrer
    monkeypatch.setattr(gvec, "starrer", counted)
    rng = random.Random(511)
    algebras = algebra_corpus(S4, rng) + algebra_corpus(P3, rng)
    for a in _distinct(algebras):
        del seqs[:]
        dualize_algebra(a)
        assert seqs == [a.carrier.seq]


def test_unchecked_constructors_check_nothing():
    """_of builds what the checking constructors refuse: a multiplication
    whose source is the carrier, not its square, is a ShapeError only
    through InternalAlgebra(...), and likewise for a coalgebra."""
    a = groupoid_algebra(S3, {0})
    c = dualize_algebra(a)
    wrong = identity_mor(a.carrier)
    assert InternalAlgebra._of(a.carrier, wrong, a.unit).mult is wrong
    with pytest.raises(ShapeError, match="multiplication endpoints"):
        InternalAlgebra(a.carrier, wrong, a.unit)
    wrong = identity_mor(c.carrier)
    assert InternalCoalgebra._of(c.carrier, wrong, c.counit).comult is wrong
    with pytest.raises(ShapeError, match="comultiplication endpoints"):
        InternalCoalgebra(c.carrier, wrong, c.counit)


def test_restriction_to_the_support_keeps_the_carrier():
    """restriction_data to a set of objects holding the support keeps the
    carrier object itself, with identity inclusion and projection, and the
    corner equals the algebra."""
    for cat in (VEC, S3, S4, P2):
        for a in _distinct(algebra_corpus(cat, random.Random(513))):
            data = restriction_data(a, support(a))
            assert data["algebra"].carrier is a.carrier
            assert data["carrier_inclusion"] == identity_mor(a.carrier)
            assert data["carrier_projection"] == identity_mor(a.carrier)
            assert data["algebra"] == a


def test_support_theorem_examples():
    assert support(unit_summand_algebra(P2, 0)) == {0}
    assert support(internal_end(simple_object(P2, 1))) == {0}
    assert support(groupoid_algebra(P2, {0, 1})) == {0, 1}
    assert support(groupoid_algebra(U22, {1})) == {1}
    assert support(groupoid_algebra(U22, {0, 1})) == {0, 1}


def test_restriction_to_full_support_is_identity():
    for cat in (Z2, P2, U22):
        rng = random.Random(503)
        for a in algebra_corpus(cat, rng):
            full = restriction_data(a, range(cat.object_count))["algebra"]
            assert full == a
            r = restriction_data(a, support(a))["algebra"]
            assert r.carrier == a.carrier


def test_restriction_cuts_matrix_algebra():
    a = groupoid_algebra(P2, {0, 1})
    r = restriction_data(a, {0})["algebra"]
    assert r == unit_summand_algebra(P2, 0)


def test_restricted_unit_is_mono_on_support():
    for cat in CATS:
        rng = random.Random(504)
        for a in algebra_corpus(cat, rng):
            data = restriction_data(a, support(a))
            assert is_mono(data["restricted_unit"])
            assert validate_algebra(data["algebra"])["ok"]


def test_restriction_inclusion_is_algebra_morphism():
    a = groupoid_algebra(P3, {0, 2})
    data = restriction_data(a, {0, 2})
    i_aj, alg = data["carrier_inclusion"], data["algebra"]
    assert compose(i_aj, alg.mult) \
        == compose(a.mult, tensor_mor(i_aj, i_aj))
    assert compose(i_aj, compose(data["restricted_unit"],
                                 data["unit_projection"])) == a.unit


def test_algebra_spec_roundtrip():
    for cat in (Z2, P2, U22):
        rng = random.Random(505)
        for a in algebra_corpus(cat, rng):
            doc = algebra_to_spec(a)
            back = algebra_from_spec(cat, doc)
            assert back == a
            assert algebra_to_spec(back) == doc


@pytest.mark.parametrize("doc", COERCED_GENERATOR_SPECS)
def test_generator_specs_take_json_integers_only(doc):
    with pytest.raises(SpecError):
        algebra_from_spec(P2, doc)


def test_generator_specs_refuse_unknown_keys():
    """A generator form takes only its own keys, and the message names the
    first other one.  The probe parsed as the summand at object 0, with
    its "objects" and "typo" unread; unit_summand takes "i" or "object",
    not both."""
    probe = {"gen": "unit_summand", "i": 0, "objects": [1], "typo": 3}
    with pytest.raises(SpecError, match="unknown key 'objects'"):
        algebra_from_spec(P2, probe)
    with pytest.raises(SpecError, match="unknown key 'objects'"):
        algebra_from_spec(P2, {"gen": "sum", "parts": [probe]})
    with pytest.raises(SpecError, match="not both"):
        algebra_from_spec(P2, {"gen": "unit_summand", "i": 0, "object": 0})
    for doc, others in (
            ({"gen": "unit_summand", "i": 0}, ("objects", "parts")),
            ({"gen": "unit_summand", "object": 1}, ("objects", "o")),
            ({"gen": "groupoid_algebra", "objects": [0, 1]},
             ("object", "i")),
            ({"gen": "internal_end", "object": {"mult": {"0": 1}}},
             ("objects", "i")),
            ({"gen": "sum", "parts": [{"gen": "unit_summand", "i": 0}]},
             ("part", "object"))):
        assert not algebra_from_spec(P2, doc).is_zero()
        for key in others + ("typo", "gen ", "carrier"):
            with pytest.raises(SpecError, match="unknown key '%s'" % key):
                algebra_from_spec(P2, {**doc, key: 0})


def test_algebra_generator_specs():
    assert algebra_from_spec(P2, {"gen": "unit_summand", "i": 0}) \
        == unit_summand_algebra(P2, 0)
    assert algebra_from_spec(P2, {"gen": "groupoid_algebra",
                                  "objects": [0, 1]}) \
        == groupoid_algebra(P2, {0, 1})
    assert algebra_from_spec(Z2, {"gen": "internal_end",
                                  "object": {"mult": {"0": 1, "1": 1}}}) \
        == internal_end(graded_object(Z2, {0: 1, 1: 1}))
    assert algebra_from_spec(P2, {
        "gen": "sum",
        "parts": [{"gen": "unit_summand", "i": 0},
                  {"gen": "unit_summand", "i": 1}]}) \
        == direct_sum_algebra(unit_summand_algebra(P2, 0),
                              unit_summand_algebra(P2, 1))
    for bad in ({"gen": "bogus"}, {"gen": "unit_summand"},
                {"gen": "groupoid_algebra", "objects": []},
                {"carrier": {"mult": {"0": 1}}, "mult": {"0": [[1, 1]]}},
                {"carrier": {"mult": {"0": 1}}, "mult": [1]},
                {"carrier": {"mult": {"0": 1}}, "unit": [1]},
                {"gen": "internal_end", "object": {"mult": {"0": INF}}},
                {"gen": "unit_summand", "i": INF},
                []):
        with pytest.raises(SpecError):
            algebra_from_spec(P2, bad)
    # a missing or misspelled key (a missing mult was read as zero, and the
    # algebra failed validation instead of parsing)
    good = {"carrier": {"mult": {"0": 1}}, "mult": {"0": [["1"]]},
            "unit": {"0": [["1"]]}}
    assert algebra_from_spec(P2, good) == unit_summand_algebra(P2, 0)
    for key in ("carrier", "mult", "unit"):
        doc = dict(good)
        del doc[key]
        with pytest.raises(SpecError, match="has no '%s'" % key):
            algebra_from_spec(P2, doc)
    for key in ("mul", "units", "comment", "gen "):
        doc = {**good, key: None}
        with pytest.raises(SpecError, match="key '%s'" % key):
            algebra_from_spec(P2, doc)
    doc = {k: v for k, v in good.items() if k != "mult"}
    doc["mul"] = good["mult"]
    with pytest.raises(SpecError, match="key 'mul'"):
        algebra_from_spec(P2, doc)
    for key in ("mult", "unit"):
        doc = {"carrier": {"mult": {"0": 1}}, "mult": {"0": [["1"]]},
               "unit": {"0": [["1"]]}}
        doc[key] = {"9": [["1"]]}
        with pytest.raises(SpecError, match="grade 9 out of range"):
            algebra_from_spec(P2, doc)
        doc[key] = {"0": [["1e2000000"]]}
        with pytest.raises(SpecError, match="1e2000000"):
            algebra_from_spec(P2, doc)
        # a second key naming grade 0 used to overwrite the first block
        doc[key] = {"0": [["1"]], "00": [["1"]]}
        with pytest.raises(SpecError, match="canonical"):
            algebra_from_spec(P2, doc)
    for carrier in ({"mult": {"0": 1, "00": 1}}, {"mult": {"+0": 1}}):
        doc = {"carrier": carrier, "mult": {"0": [["1"]]},
               "unit": {"0": [["1"]]}}
        with pytest.raises(SpecError, match="canonical"):
            algebra_from_spec(P2, doc)
        with pytest.raises(SpecError, match="canonical"):
            algebra_from_spec(P2, {"gen": "internal_end", "object": carrier})
