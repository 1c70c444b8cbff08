import ast
import inspect
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    _small_groupoids, dense_constants, dense_entries, symmetric_group_spec)
from fusionaudit import grothendieck
from fusionaudit.corpus import algebra_corpus
from fusionaudit.errors import ConsistencyError, ShapeError
from fusionaudit.fixtures import load_fixture
from fusionaudit.functors import separability_verdict
from fusionaudit.groupoid import groupoid_from_spec
from fusionaudit.gvec import GradedObject
from fusionaudit.grothendieck import (
    BasedRingData, fusion_iff_separable_check, grothendieck_ring,
    is_based_ring, is_fusion_ring, is_zplus_ring, ring_report)

VEC = load_fixture("vec")
Z2 = load_fixture("vec_z2")
S3 = load_fixture("vec_s3")
P2 = load_fixture("pair2")
P3 = load_fixture("pair3")
U22 = load_fixture("union_z2_z2")


def test_trivial_group_ring_of_integers():
    r = grothendieck_ring(VEC)
    assert r.rank == 1
    assert dense_constants(r) == [[[1]]]
    assert r.nonzero == ((((0, 1),),),)
    assert r.unit_coeffs == (1,)
    assert is_fusion_ring(r)["holds"]


def test_z2_ring_is_fusion_with_square_identity():
    r = grothendieck_ring(Z2)
    assert r.rank == 2
    assert r.unit_coeffs == (1, 0)
    # g * g = e
    c = dense_constants(r)
    assert c[1][1][0] == 1 and c[1][1][1] == 0
    assert c[0][1][1] == 1 and c[1][0][1] == 1
    assert r.involution == (0, 1)
    assert is_zplus_ring(r)["holds"]
    assert is_based_ring(r)["holds"]
    assert is_fusion_ring(r)["holds"]


def test_pair2_ring_is_matrix_units_not_fusion():
    r = grothendieck_ring(P2)
    assert r.rank == 4
    assert sum(r.unit_coeffs) == 2
    # b_ij b_kl = delta_jk b_il on grades (i,j) = index 2i + j
    c = dense_constants(r)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    prod = c[2 * i + j][2 * k + l]
                    expect = [0, 0, 0, 0]
                    if j == k:
                        expect[2 * i + l] = 1
                    assert list(prod) == expect
    assert is_based_ring(r)["holds"]
    v = is_fusion_ring(r)
    assert not v["holds"]
    assert any(f["axiom"] == "unit is a single basis element"
               for f in v["failures"])


def test_s3_group_ring():
    r = grothendieck_ring(S3)
    assert r.rank == 6
    assert is_fusion_ring(r)["holds"]
    # each row of the fusion table is a permutation
    c = dense_constants(r)
    for i in range(6):
        hit = sorted(k for j in range(6) for k in range(6) if c[i][j][k])
        assert hit == list(range(6))


def test_union_ring_two_identity_components():
    r = grothendieck_ring(U22)
    assert r.rank == 4
    assert sum(r.unit_coeffs) == 2
    assert is_based_ring(r)["holds"]
    assert not is_fusion_ring(r)["holds"]


def test_involution_antiautomorphism_everywhere():
    for cat in (VEC, Z2, S3, P2, P3, U22):
        r = grothendieck_ring(cat)
        assert r.involution == cat.inverse_of
        assert is_based_ring(r)["holds"]
        assert is_fusion_ring(r)["holds"] == (cat.object_count == 1)


def test_mutated_constants_rejected_with_location():
    r = grothendieck_ring(Z2)
    # killing e*g breaks both the unit law and associativity, localized
    c = dense_constants(r)
    c[0][1][1] = 0
    bad = BasedRingData(r.basis_labels, dense_entries(c), r.unit_coeffs,
                        r.involution)
    v = is_zplus_ring(bad)
    assert not v["holds"]
    assert any(f["axiom"] == "left unit" and f["at"] == [1, 1]
               for f in v["failures"])
    located = [f for f in v["failures"] if f["axiom"] == "associativity"]
    assert located and all(len(f["at"]) == 3 for f in located)

    c2 = dense_constants(r)
    c2[1][1][0] = -1
    bad2 = BasedRingData(r.basis_labels, dense_entries(c2), r.unit_coeffs,
                         r.involution)
    v2 = is_zplus_ring(bad2)
    assert any(f["axiom"] == "non-negative" and f["at"] == [1, 1, 0]
               for f in v2["failures"])

    # g*g = 2e stays a valid ring but breaks the pairing normalization
    c3 = dense_constants(r)
    c3[1][1][0] = 2
    bad3 = BasedRingData(r.basis_labels, dense_entries(c3), r.unit_coeffs,
                         r.involution)
    assert is_zplus_ring(bad3)["holds"]
    v3 = is_based_ring(bad3)
    assert not v3["holds"]
    assert any(f["axiom"] == "pairing" and f["at"] == [1, 1]
               and f["value"] == 2 for f in v3["failures"])


@pytest.mark.parametrize("entries, unit, star", (
    ([(0, 0, 0, True)], (1, 0), (0, 1)),           # a bool constant
    ([(0, 0, 0, 1.0)], (1, 0), (0, 1)),            # a float constant
    ([(0, 0, 0, "1")], (1, 0), (0, 1)),            # a string constant
    ([(False, 0, 0, 1)], (1, 0), (0, 1)),          # a bool index
    ([(0, 2, 0, 1)], (1, 0), (0, 1)),              # an index out of range
    ([(0, -1, 0, 1)], (1, 0), (0, 1)),             # a negative index
    ([(0, 0, 0, 0)], (1, 0), (0, 1)),              # a zero constant
    ([(0, 0, 0, 1), (0, 0, 0, 2)], (1, 0), (0, 1)),  # a repeated (i, j, k)
    ([(0, 0, 0)], (1, 0), (0, 1)),                 # arity 3
    ([(0, 0, 0, 1, 1)], (1, 0), (0, 1)),           # arity 5
    ([0], (1, 0), (0, 1)),                         # not a tuple
    ([], (1, 0, 0), (0, 1)),                       # unit of the wrong rank
    ([], (True, 0), (0, 1)),                       # a bool unit coefficient
    ([], (1, 0), (0.0, 1)),                        # a float involution entry
))
def test_constructor_rejects_bad_entries(entries, unit, star):
    with pytest.raises(ShapeError):
        BasedRingData((0, 1), entries, unit, star)


def test_mutation_landing_on_another_valid_ring_is_accepted():
    # g*g = e + g is the rank-2 ring with a golden-ratio dimension; the
    # axioms cannot reject it, so the predicates accept it as fusion
    r = grothendieck_ring(Z2)
    c = dense_constants(r)
    c[1][1][1] = 1
    fib = BasedRingData(r.basis_labels, dense_entries(c), r.unit_coeffs,
                        r.involution)
    assert is_fusion_ring(fib)["holds"]


def test_fusion_iff_separable():
    rng = random.Random(700)
    for cat, expect in ((VEC, True), (Z2, True), (P2, False), (U22, False)):
        fusion = is_fusion_ring(grothendieck_ring(cat))["holds"]
        flags = [separability_verdict(a)["separable"]
                 for a in algebra_corpus(cat, rng) if not a.is_zero()]
        assert fusion_iff_separable_check(fusion, flags) is expect
    with pytest.raises(ValueError):
        fusion_iff_separable_check(True, [])
    # a ring verdict that disagrees with the flags is a defect
    for fusion, flags in ((True, [True, False]), (False, [True, True])):
        with pytest.raises(ConsistencyError):
            fusion_iff_separable_check(fusion, flags)


def test_grothendieck_imports_nothing_from_functors():
    tree = ast.parse(inspect.getsource(grothendieck))
    imported = [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert imported and "functors" not in imported


def test_ring_report_shape():
    rep = ring_report(P2)
    assert rep["rank"] == 4
    assert rep["fusion"]["holds"] is False
    assert rep["based"]["holds"] is True
    assert rep["unit_coeffs"] == [1, 0, 0, 1]
    json.dumps(rep)


def test_ring_report_runs_each_check_once(monkeypatch):
    """ring_report derives the ring once and runs none of the general
    ring checks: its verdicts follow from the validated groupoid."""
    def forbidden(*args):
        raise AssertionError("a general ring check ran")

    for name in ("_zplus_failures", "_based_failures", "_light_associative",
                 "_associativity_failures", "grothendieck_ring"):
        monkeypatch.setattr(grothendieck, name, forbidden)
    calls = []
    original = grothendieck._derive

    def counted(cat):
        calls.append(cat)
        return original(cat)

    monkeypatch.setattr(grothendieck, "_derive", counted)
    for constants in (True, False):
        rep = ring_report(P2, constants=constants)
        assert rep["based"]["holds"] and not rep["fusion"]["holds"]
    assert calls == [P2, P2]


def _report_verdicts(rep):
    return {k: rep[k] for k in ("zplus", "based", "fusion")}


def _general_verdicts(r):
    return {"zplus": is_zplus_ring(r), "based": is_based_ring(r),
            "fusion": is_fusion_ring(r)}


def test_ring_report_verdicts_match_the_general_checks():
    """The verdicts ring_report states without checking them are those
    the general checks decide on the ring grothendieck_ring builds,
    failure lists included, on the fixtures, S4 and pair4; and the
    report's unit and involution are that ring's."""
    s4 = groupoid_from_spec(symmetric_group_spec(4, 1))
    pair4 = groupoid_from_spec({"kind": "pair", "objects": 4})
    for cat in (VEC, Z2, S3, P2, P3, U22, s4, pair4):
        rep = ring_report(cat)
        r = grothendieck_ring(cat)
        general = _general_verdicts(r)
        assert _report_verdicts(rep) == general
        assert general["fusion"]["holds"] == (cat.object_count == 1)
        assert rep["structure_constants"] == [list(e) for e in r.entries()]
        assert tuple(rep["unit_coeffs"]) == r.unit_coeffs
        assert tuple(rep["involution"]) == r.involution


@settings(max_examples=60, deadline=None)
@given(_small_groupoids())
def test_ring_report_verdicts_match_the_general_checks_on_random_groupoids(
        cat):
    assert _report_verdicts(ring_report(cat, constants=False)) == \
        _general_verdicts(grothendieck_ring(cat))


# Dense reference checks: the O(n^5) loops the sparse checks replaced, kept
# as the oracle for the differential tests below.  They read the test-side
# dense expansion of the sparse constants.

def _dense_zplus_failures(r):
    n = r.rank
    c = dense_constants(r)
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if c[i][j][k] < 0:
                    out.append({"axiom": "non-negative", "at": [i, j, k]})
    if any(x < 0 for x in r.unit_coeffs):
        out.append({"axiom": "non-negative unit", "at": list(r.unit_coeffs)})
    # associativity via coefficient of b_l in (b_i b_j) b_k vs b_i (b_j b_k)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    lhs = sum(c[i][j][m] * c[m][k][l] for m in range(n))
                    rhs = sum(c[j][k][m] * c[i][m][l] for m in range(n))
                    if lhs != rhs:
                        out.append({"axiom": "associativity",
                                    "at": [i, j, k], "basis": l,
                                    "left": lhs, "right": rhs})
    for j in range(n):
        for k in range(n):
            want = 1 if j == k else 0
            left = sum(r.unit_coeffs[i] * c[i][j][k] for i in range(n))
            right = sum(r.unit_coeffs[i] * c[j][i][k] for i in range(n))
            if left != want:
                out.append({"axiom": "left unit", "at": [j, k],
                            "value": left})
            if right != want:
                out.append({"axiom": "right unit", "at": [j, k],
                            "value": right})
    return out


def _dense_based_failures(r):
    n = r.rank
    c = dense_constants(r)
    out = []
    star = r.involution
    for i in range(n):
        if not 0 <= star[i] < n:
            out.append({"axiom": "involution range", "at": i})
            return out
    if sorted(star) != list(range(n)):
        out.append({"axiom": "involution permutes basis", "at": list(star)})
        return out
    for i in range(n):
        if star[star[i]] != i:
            out.append({"axiom": "involution squares to identity", "at": i})
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if c[i][j][k] != c[star[j]][star[i]][star[k]]:
                    out.append({"axiom": "anti-automorphism",
                                "at": [i, j, k]})
    # pairing: the unit coefficient of b_i b_j is 1 exactly when j = i*
    for i in range(n):
        for j in range(n):
            tau = sum(c[i][j][k] * r.unit_coeffs[k] for k in range(n))
            want = 1 if j == star[i] else 0
            if tau != want:
                out.append({"axiom": "pairing", "at": [i, j], "value": tau})
    return out


def _dict_based_failures(r):
    """Reference for the sparse based-ring check before its fast path:
    two dicts and their sorted key union for every (i, j)."""
    n = r.rank
    nz = r.nonzero
    out = []
    star = r.involution
    for i in range(n):
        if not 0 <= star[i] < n:
            out.append({"axiom": "involution range", "at": i})
            return out
    if sorted(star) != list(range(n)):
        out.append({"axiom": "involution permutes basis", "at": list(star)})
        return out
    for i in range(n):
        if star[star[i]] != i:
            out.append({"axiom": "involution squares to identity", "at": i})
    inverse = [0] * n
    for k, s in enumerate(star):
        inverse[s] = k
    for i in range(n):
        for j in range(n):
            here = dict(nz[i][j])
            there = {inverse[s]: x for s, x in nz[star[j]][star[i]]}
            for k in sorted(here.keys() | there.keys()):
                if here.get(k, 0) != there.get(k, 0):
                    out.append({"axiom": "anti-automorphism",
                                "at": [i, j, k]})
    unit = r.unit_coeffs
    for i in range(n):
        for j in range(n):
            tau = sum(x * unit[k] for k, x in nz[i][j])
            want = 1 if j == star[i] else 0
            if tau != want:
                out.append({"axiom": "pairing", "at": [i, j], "value": tau})
    return out


def _assert_matches_dense(r):
    assert grothendieck._zplus_failures(r) == _dense_zplus_failures(r)
    based = grothendieck._based_failures(r)
    assert based == _dense_based_failures(r)
    assert based == _dict_based_failures(r)


def _mutant(r, rng):
    """r with 1-3 structure constants set to values in -2..3, and sometimes
    a changed unit coefficient, a shuffled or an out-of-range involution."""
    n = r.rank
    c = dense_constants(r)
    for _ in range(rng.randint(1, 3)):
        c[rng.randrange(n)][rng.randrange(n)][rng.randrange(n)] = \
            rng.randint(-2, 3)
    unit = list(r.unit_coeffs)
    star = list(r.involution)
    roll = rng.random()
    if roll < 0.25:
        unit[rng.randrange(n)] = rng.randint(-2, 3)
    elif roll < 0.45:
        rng.shuffle(star)
    elif roll < 0.6:
        star[rng.randrange(n)] = rng.choice([-1, n])
    return BasedRingData(r.basis_labels, dense_entries(c), unit, star)


def test_sparse_checks_match_dense_reference():
    rng = random.Random(2107)
    for cat in (VEC, Z2, S3, P2, P3, U22):
        r = grothendieck_ring(cat)
        _assert_matches_dense(r)
        for _ in range(20):
            _assert_matches_dense(_mutant(r, rng))


@st.composite
def _small_rings(draw):
    n = draw(st.integers(1, 4))
    entry = st.integers(-2, 3)
    c = draw(st.lists(st.lists(st.lists(entry, min_size=n, max_size=n),
                               min_size=n, max_size=n),
                      min_size=n, max_size=n))
    unit = draw(st.lists(entry, min_size=n, max_size=n))
    star = draw(st.one_of(st.permutations(range(n)),
                          st.lists(st.integers(-1, n), min_size=n,
                                   max_size=n)))
    return BasedRingData(range(n), dense_entries(c), unit, star)


@settings(max_examples=150, deadline=None)
@given(_small_rings())
def test_sparse_checks_match_dense_on_random_rings(r):
    _assert_matches_dense(r)


def _single_term_mutant(r, rng):
    """r with one product b_i b_j redirected to another basis element,
    made zero, or defined where it was zero.  Every product stays one
    basis element with coefficient 1, so Light's test applies."""
    n = r.rank
    c = dense_constants(r)
    row = c[rng.randrange(n)][rng.randrange(n)]
    k = next((k for k, x in enumerate(row) if x), None)
    if k is not None:
        row[k] = 0
    if k is None or rng.random() < 0.6:
        row[rng.randrange(n)] = 1
    return BasedRingData(r.basis_labels, dense_entries(c), r.unit_coeffs,
                         r.involution)


def test_single_term_mutants_match_dense_reference(monkeypatch):
    """Light's certificate and, where it finds a failing triple, the full
    enumeration after it give the dense reference's failures."""
    rng = random.Random(2108)
    verdicts = []
    original = grothendieck._light_associative

    def recorded(nz):
        verdicts.append(original(nz))
        return verdicts[-1]

    monkeypatch.setattr(grothendieck, "_light_associative", recorded)
    for cat in (VEC, Z2, S3, P2, P3, U22):
        r = grothendieck_ring(cat)
        for _ in range(12):
            _assert_matches_dense(_single_term_mutant(r, rng))
    assert verdicts.count(True) >= 6 and verdicts.count(False) >= 30


@settings(max_examples=60, deadline=None)
@given(_small_groupoids(), st.integers(0, 2**32 - 1))
def test_light_certificate_is_exact_on_random_groupoid_rings(cat, seed):
    """On groupoid rings and their single-term mutants Light's test
    certifies exactly the rings the full enumeration finds associative."""
    r = grothendieck_ring(cat)
    rng = random.Random(seed)
    for ring in [r] + [_single_term_mutant(r, rng) for _ in range(4)]:
        full = grothendieck._associativity_failures(ring.nonzero)
        assert grothendieck._light_associative(ring.nonzero) == (not full)
    assert grothendieck._light_associative(r.nonzero)


def test_light_certificate_declines_other_coefficients():
    """A product with coefficient 2 or two terms leaves associativity to
    the full enumeration."""
    r = grothendieck_ring(Z2)
    for k, x in ((0, 2), (1, 1)):
        c = dense_constants(r)
        c[1][1][k] = x
        bad = BasedRingData(r.basis_labels, dense_entries(c), r.unit_coeffs,
                            r.involution)
        assert not grothendieck._light_associative(bad.nonzero)
        assert not grothendieck._associativity_failures(bad.nonzero)


def test_s4_ring_skips_the_triple_loop(monkeypatch):
    def forbidden(nz):
        raise AssertionError("the n^3 associativity loop ran")

    monkeypatch.setattr(grothendieck, "_associativity_failures", forbidden)
    s4 = groupoid_from_spec(symmetric_group_spec(4, 1))
    rep = ring_report(s4)
    assert rep["rank"] == 24 and rep["fusion"]["holds"]
    assert is_fusion_ring(grothendieck_ring(s4))["holds"]
    for cat in (VEC, Z2, S3, P2, P3, U22):
        assert ring_report(cat)["zplus"]["holds"]


def _old_dense_ring(cat):
    """The rank^3 array the ring used to be built as: the dense triple loop
    over the composition table."""
    n = cat.morphism_count
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            k = cat.compose_table[i][j]
            if k is not None:
                c[i][j][k] = 1
    return c


def _old_nonzero(c):
    """The per-(i, j) lists as they used to be derived from the dense
    array."""
    return tuple(tuple(tuple((k, x) for k, x in enumerate(row) if x)
                       for row in plane) for plane in c)


@settings(max_examples=60, deadline=None)
@given(_small_groupoids(), st.data())
def test_sparse_ring_expands_to_the_dense_loop(cat, data):
    """The sparse ring is exactly the old dense array over compose_table,
    and so is a single-constant mutant rebuilt from its entries."""
    r = grothendieck_ring(cat)
    dense = _old_dense_ring(cat)
    assert dense_constants(r) == dense
    assert r.nonzero == _old_nonzero(dense)
    assert r.entries() == dense_entries(dense)
    n = r.rank
    i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    dense[i][j][k] = data.draw(st.integers(-2, 3))
    mutant = BasedRingData(r.basis_labels, dense_entries(dense),
                           r.unit_coeffs, r.involution)
    assert dense_constants(mutant) == dense
    assert mutant.nonzero == _old_nonzero(dense)


def test_ring_report_lists_sorted_entries():
    rep = ring_report(Z2)
    assert rep["structure_constants"] == [[0, 0, 0, 1], [0, 1, 1, 1],
                                          [1, 0, 1, 1], [1, 1, 0, 1]]
    for cat in (S3, P3, U22):
        entries = ring_report(cat)["structure_constants"]
        assert entries == sorted(entries)
        assert entries == [list(e) for e in
                           dense_entries(_old_dense_ring(cat))]


def test_pair8_ring_section_is_small():
    # the dense rank^3 constants made this section 2.95 MB
    rep = ring_report(groupoid_from_spec({"kind": "pair", "objects": 8}))
    text = json.dumps(rep, sort_keys=True, indent=2)
    assert len(rep["structure_constants"]) == 8 ** 3
    assert len(text.encode("utf-8")) < 100_000


def test_derived_ring_runs_light_test_once(monkeypatch):
    """The ring grothendieck_ring builds goes through the checking
    constructor, so each Z+ check on it runs Light's test once; the
    reports, which build no ring, never run it."""
    calls = []
    original = grothendieck._light_associative

    def counted(nz):
        calls.append(len(nz))
        return original(nz)

    monkeypatch.setattr(grothendieck, "_light_associative", counted)
    s4 = groupoid_from_spec(symmetric_group_spec(4, 1))
    for cat in (VEC, Z2, S3, P2, P3, U22, s4):
        assert ring_report(cat)["zplus"]["holds"]
        assert ring_report(cat, constants=False)["zplus"]["holds"]
        assert calls == []
        r = grothendieck_ring(cat)
        assert is_zplus_ring(r)["holds"]
        assert calls == [r.rank]
        del calls[:]


def _tensor_obj_with_extra_slot(original):
    """tensor_obj, except that the first slot of the regular object's
    square is copied to a second grade: one pair with two products."""
    def tensor_obj(v, w):
        out = original(v, w)
        (h, codes), (h2, codes2) = list(out.layout.items())[:2]
        layout = dict(out.layout)
        layout[h2] = tuple(sorted(codes2 + codes[:1]))
        mult = {g: len(c) for g, c in layout.items()}
        return GradedObject._of(out.cat, mult, out.seq, layout)
    return tensor_obj


def test_ring_constant_at_two_grades_raises(monkeypatch):
    """A pair whose product has slots at two grades is not a constant of
    the composition table: the slot count gives it away."""
    monkeypatch.setattr(grothendieck, "tensor_obj",
                        _tensor_obj_with_extra_slot(grothendieck.tensor_obj))
    for cat in (Z2, S3, P2):
        with pytest.raises(ConsistencyError, match="composable pairs"):
            grothendieck_ring(cat)
        with pytest.raises(ConsistencyError):
            ring_report(cat, constants=False)


def test_audit_form_states_the_constants_once():
    """Without constants, the report has their count and their match with
    the composition table in place of the list, and equals the gr form
    elsewhere."""
    s4 = groupoid_from_spec(symmetric_group_spec(4, 1))
    for cat in (VEC, Z2, S3, P2, P3, U22, s4):
        full = ring_report(cat)
        short = ring_report(cat, constants=False)
        entries = full.pop("structure_constants")
        assert short.pop("nonzero_constants") == len(entries)
        assert short.pop("constants_match_composition") is True
        assert short == full
