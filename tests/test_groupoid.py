"""Groupoid constructors, validation messages, and the frozen S3 table."""

import json
from itertools import permutations, product

import pytest

from conftest import symmetric_group_spec
from fusionaudit import groupoid
from fusionaudit.errors import GroupoidError, SpecError
from fusionaudit.groupoid import (
    Groupoid, disjoint_union, groupoid_from_spec, make_group,
    make_pair_groupoid,
)
from fusionaudit.gvec import _tensor_layout, graded_object
from slotwords import (
    bisected_pos, pair_columns, slot_words, sorted_tensor_words)

Z2 = [[0, 1], [1, 0]]
# Frozen oracle: permutations of {0,1,2} in lexicographic order (identity
# first), entry [i][j] = index of "apply i, then j".  Recomputed from scratch
# in test_s3_table_matches_permutation_oracle.
S3 = [[0, 1, 2, 3, 4, 5],
      [1, 0, 3, 2, 5, 4],
      [2, 4, 0, 5, 1, 3],
      [3, 5, 1, 4, 0, 2],
      [4, 2, 5, 0, 3, 1],
      [5, 3, 4, 1, 2, 0]]


def pairs_into(g, h):
    """The composable pairs (g1, g2) with g1 then g2 == h, in the canonical
    column order of an algebra spec (pair_columns), read off the
    tensor square of a carrier with one slot at every grade.  The carrier
    lists its grades last to first, so its square meets the pairs out of
    that order.  The positions the engine finds by bisection are checked
    against the ranks of the word-sorted reference first."""
    carrier = graded_object(
        g, dict.fromkeys(reversed(range(g.morphism_count)), 1))
    pos = bisected_pos(carrier, carrier, _tensor_layout(carrier, carrier))
    words = slot_words(carrier)
    ref = sorted_tensor_words(g, words, words)[1]
    assert pos == ref and list(pos[h]) == list(ref[h])
    pair_at = {slots[0]: pair for pair, slots in pos[h].items()}
    return tuple(pair_at[p] for p in pair_columns(carrier)[h])


def test_trivial_group():
    g = make_group([[0]])
    assert g.object_count == 1 and g.morphism_count == 1
    assert g.identity_grades == (0,)
    assert pairs_into(g, 0) == ((0, 0),)


def test_z2():
    g = make_group(Z2)
    assert g.compose_table[1][1] == 0
    assert g.inverse_of[1] == 1
    assert pairs_into(g, 0) == ((0, 0), (1, 1))
    assert pairs_into(g, 1) == ((0, 1), (1, 0))


def test_s3_table_matches_permutation_oracle():
    perms = list(permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    for i in range(6):
        for j in range(6):
            composed = tuple(perms[j][perms[i][x]] for x in range(3))
            assert S3[i][j] == idx[composed]
    g = make_group(S3)
    assert g.morphism_count == 6
    for a in range(6):
        assert g.compose_table[a][g.inverse_of[a]] == 0


def test_group_validation_messages():
    with pytest.raises(GroupoidError, match="not a left identity"):
        make_group([[1, 0], [0, 1]])
    with pytest.raises(GroupoidError, match="out of range"):
        make_group([[0, 1], [1, 7]])
    # a non-associative loop with identity at 0 and two-sided inverses:
    # Light's test rejects it, and the scan names its first failing triple
    with pytest.raises(GroupoidError) as exc:
        make_group(LOOP)
    assert exc.value.failures == [
        "associativity fails on triple (%d, %d, %d)" % _scan(LOOP)]


# A non-associative loop: identity 0, two-sided inverses, no group.
LOOP = [[0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0]]


def _scan(table):
    """Reference: the first triple, in lexicographic order, whose two
    composites are defined and differ, found by trying every triple."""
    m = len(table)
    for g1, g2, g3 in product(range(m), repeat=3):
        h12, h23 = table[g1][g2], table[g2][g3]
        if h12 is not None and h23 is not None \
                and table[h12][g3] != table[g1][h23]:
            return g1, g2, g3
    return None


def test_associativity_failure_names_the_scans_triple():
    """On groupoids with undefined composites too, a table that passes the
    endpoint, identity and inverse checks but is not associative is
    reported with the first failing triple of the full scan."""
    pair = make_pair_groupoid(2)
    for left in (pair, make_group(Z2)):
        z5 = make_group([[(i + j) % 5 for j in range(5)] for i in range(5)])
        spec = disjoint_union(left, z5)._explicit_spec()
        m = left.morphism_count
        for i, row in enumerate(LOOP):
            spec["compose"][m + i][m:] = [m + x for x in row]
            spec["inverses"][m + i] = m + row.index(0)
        with pytest.raises(GroupoidError) as exc:
            groupoid_from_spec(spec)
        triple = _scan(spec["compose"])
        assert triple[0] >= m
        assert exc.value.failures == [
            "associativity fails on triple (%d, %d, %d)" % triple]


def test_valid_groupoids_skip_the_triple_scan(monkeypatch):
    """Light's test certifies every valid groupoid, so the n^3 scan runs
    only for a table it rejects."""
    calls = []
    original = groupoid._first_failing_triple

    def counted(table):
        calls.append(len(table))
        return original(table)

    monkeypatch.setattr(groupoid, "_first_failing_triple", counted)
    s4 = groupoid_from_spec(symmetric_group_spec(4, 1))
    for n in range(1, 6):
        make_pair_groupoid(n)
    disjoint_union(s4, make_pair_groupoid(3))
    groupoid_from_spec({"kind": "union", "parts": [
        {"kind": "group", "table": S3}, {"kind": "pair", "objects": 2},
        {"kind": "group", "table": Z2}]})
    groupoid_from_spec(s4._explicit_spec())
    assert calls == []
    with pytest.raises(GroupoidError):
        make_group(LOOP)
    assert calls == [5]


def test_pair_groupoid():
    g = make_pair_groupoid(2)
    # index convention i*n + j
    assert g.morphisms == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert g.compose_table[1][2] == 0      # 0->1 then 1->0
    assert g.compose_table[1][3] == 1      # 0->1 then 1->1
    assert g.compose_table[1][1] is None   # targets do not match
    assert g.inverse_of[1] == 2
    assert g.identity_grades == (0, 3)
    assert pairs_into(g, 0) == ((0, 0), (1, 2))


def test_disjoint_union():
    g = disjoint_union(make_group(Z2), make_group(Z2))
    assert g.object_count == 2 and g.morphism_count == 4
    assert g.compose_table[0][1] == 1 and g.compose_table[2][3] == 3
    assert g.compose_table[0][2] is None
    assert g.identity_grades == (0, 2)
    assert g.morphisms[3] == (1, 1)


def test_specs_round_trip():
    specs = [
        {"kind": "group", "table": Z2},
        {"kind": "pair", "objects": 3},
        {"kind": "union", "parts": [{"kind": "group", "table": Z2},
                                    {"kind": "group", "table": Z2}]},
    ]
    for spec in specs:
        g = groupoid_from_spec(spec)
        again = groupoid_from_spec(g.spec)
        assert g == again
        assert g.fingerprint() == again.fingerprint()
    explicit = groupoid_from_spec(make_pair_groupoid(2).spec)
    viaexp = groupoid_from_spec(
        groupoid_from_spec({"kind": "pair", "objects": 2})._explicit_spec())
    assert explicit == viaexp
    assert explicit.fingerprint() == viaexp.fingerprint()


def test_bad_specs():
    with pytest.raises(SpecError):
        groupoid_from_spec({"table": Z2})
    with pytest.raises(SpecError):
        groupoid_from_spec({"kind": "frobnicate"})
    with pytest.raises(SpecError):
        groupoid_from_spec({"kind": "group"})
    with pytest.raises(SpecError):
        groupoid_from_spec({"kind": "union", "parts": []})
    # JSON numbers too large for a float parse as inf, which int() rejects
    with pytest.raises(SpecError):
        groupoid_from_spec(json.loads('{"kind": "pair", "objects": 1e400}'))
    spec = make_group([[0]])._explicit_spec()
    spec["objects"] = float("inf")
    with pytest.raises(SpecError):
        groupoid_from_spec(spec)
    # counts must be JSON integers: no bool, float or string
    for bad in (True, False, 2.5, 2.0, "2"):
        with pytest.raises(SpecError, match="integer"):
            groupoid_from_spec({"kind": "pair", "objects": bad})
        spec["objects"] = bad
        with pytest.raises(SpecError, match="integer"):
            groupoid_from_spec(spec)
    # so must every other integer field of explicit and group specs;
    # int() would coerce each of these into a valid groupoid
    for doc in (
            '{"kind": "explicit", "objects": 1, "morphisms": [[0.7, false]],'
            ' "identities": [0.2], "inverses": ["0"], "compose": [[false]]}',
            '{"kind": "group", "table": [[0.0, 1], [true, 0]]}'):
        with pytest.raises(SpecError, match="integer"):
            groupoid_from_spec(json.loads(doc))
    good = make_pair_groupoid(2)._explicit_spec()
    for key, bad in (("morphisms", [[0, 0], [0, 1.0], [1, 0], [1, 1]]),
                     ("identities", [0, True]), ("inverses", [0, 2, "1", 3]),
                     ("compose", [[0, 1, None, None], [None, None, 0, 1.0],
                                  [2, 3, None, None], [None, None, 2, 3]]),
                     ("identities", 0), ("compose", [0, 1, 2, 3])):
        with pytest.raises(SpecError):
            groupoid_from_spec(dict(good, **{key: bad}))
    # null is a compose entry, not a count
    assert groupoid_from_spec(good) == make_pair_groupoid(2)
    with pytest.raises(SpecError, match="integer"):
        groupoid_from_spec(dict(good, identities=[0, None]))


def test_explicit_validation():
    # break associativity data: claim compose(1,1)=1 in Z2
    bad = make_group(Z2)._explicit_spec()
    bad["compose"] = [[0, 1], [1, 1]]
    with pytest.raises(GroupoidError):
        groupoid_from_spec(bad)
    # wrong identity endpoints
    g = make_pair_groupoid(2)._explicit_spec()
    g["identities"] = [0, 1]
    with pytest.raises(GroupoidError, match="identity of object"):
        groupoid_from_spec(g)
    # compose entries outside 0..m-1, negative ones included
    one = make_group([[0]])._explicit_spec()
    one["compose"] = [[5]]
    with pytest.raises(GroupoidError, match=r"compose\(0, 0\) = 5 out of"):
        groupoid_from_spec(one)
    z3 = make_group([[0, 1, 2], [1, 2, 0], [2, 0, 1]])._explicit_spec()
    z3["compose"][1][1] = -1
    with pytest.raises(GroupoidError, match=r"compose\(1, 1\) = -1 out of"):
        groupoid_from_spec(z3)


def test_groupoid_equality_is_structural():
    assert make_group(Z2) == groupoid_from_spec({"kind": "group", "table": Z2})
    assert make_group(Z2) != make_group([[0]])
    assert hash(make_pair_groupoid(2)) == hash(make_pair_groupoid(2))


def test_spec_morphism_count_is_capped():
    """A spec declaring one morphism more than MAX_MORPHISMS is a SpecError
    before any table is built or scanned; S6 (720) is under the cap and
    S7 (5040) over it.  The over-cap specs repeat one small row, so they
    allocate nothing large."""
    cap = groupoid.MAX_MORPHISMS
    assert 720 <= cap < 5040
    over = cap + 1
    pair1 = {"kind": "pair", "objects": 1}
    for spec in ({"kind": "group", "table": [[0]] * over},
                 {"kind": "explicit", "objects": 1,
                  "morphisms": [[0, 0]] * over, "identities": [0],
                  "inverses": [0], "compose": [[0]]},
                 {"kind": "pair", "objects": 33},
                 {"kind": "union", "parts": [pair1] * over}):
        with pytest.raises(SpecError, match="more than the %d" % cap):
            groupoid_from_spec(spec)
    # at the cap the count passes, and the table's own faults are named
    with pytest.raises(GroupoidError):
        groupoid_from_spec({"kind": "group", "table": [[0]] * cap})
    assert groupoid_from_spec(
        {"kind": "union", "parts": [pair1] * 3}).morphism_count == 3
