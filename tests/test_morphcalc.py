"""Splittings and weak inverses."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _small_groupoids
from fusionaudit.corpus import random_morphism, random_object
from fusionaudit.exactlin import Matrix
from fusionaudit.fixtures import load_fixture
from fusionaudit.gvec import (
    GradedMorphism, compose, direct_sum_obj, graded_object, identity_mor,
    is_epi, is_iso, is_mono, mono_epi, zero_mor, zero_object)
from fusionaudit.morphcalc import find_retraction, find_section, weak_inverse

Z2 = load_fixture("vec_z2")
P3 = load_fixture("pair3")


def test_weak_inverse_frozen_row():
    v = graded_object(Z2, {0: 2})
    w = graded_object(Z2, {0: 1})
    f = GradedMorphism(v, w, {0: Matrix.from_rows([[1, 1]])})
    g = weak_inverse(f)
    assert g.blocks[0] == Matrix.from_rows([[1], [0]])


def test_weak_inverse_frozen_column():
    v = graded_object(Z2, {0: 1})
    w = graded_object(Z2, {0: 2})
    f = GradedMorphism(v, w, {0: Matrix.from_rows([[1], [1]])})
    g = weak_inverse(f)
    assert g.blocks[0] == Matrix.from_rows([[1, 0]])


def test_split_witnesses_random():
    rng = random.Random(421)
    for cat in (Z2, P3):
        for _ in range(15):
            v = random_object(cat, rng)
            w = random_object(cat, rng)
            f = random_morphism(v, w, rng)
            r = find_retraction(f)
            assert (r is not None) == is_mono(f)
            if r is not None:
                assert compose(r, f) == identity_mor(v)
            s = find_section(f)
            assert (s is not None) == is_epi(f)
            if s is not None:
                assert compose(f, s) == identity_mor(w)


def test_every_morphism_is_regular():
    rng = random.Random(422)
    for cat in (Z2, P3):
        for _ in range(15):
            v = random_object(cat, rng)
            w = random_object(cat, rng)
            f = random_morphism(v, w, rng)
            g = weak_inverse(f)
            assert compose(compose(f, g), f) == f
            assert compose(compose(g, f), g) == g


def test_degenerate_endpoints():
    v = graded_object(Z2, {0: 1, 1: 2})
    z = zero_object(Z2)
    to_z = zero_mor(v, z)
    from_z = zero_mor(z, v)
    assert find_retraction(to_z) is None
    assert find_section(from_z) is None
    assert find_section(to_z) is not None
    assert find_retraction(from_z) is not None
    assert weak_inverse(zero_mor(v, v)).is_zero()


def test_split_mono_epi_flags():
    v = graded_object(Z2, {0: 1})
    w = graded_object(Z2, {0: 2})
    col = GradedMorphism(v, w, {0: Matrix.from_rows([[1], [1]])})
    assert is_mono(col) and not is_epi(col)
    assert find_retraction(col) is not None and find_section(col) is None
    row = GradedMorphism(w, v, {0: Matrix.from_rows([[1, 1]])})
    assert is_epi(row) and not is_mono(row)
    assert find_section(row) is not None and find_retraction(row) is None


@settings(max_examples=120, deadline=None)
@given(_small_groupoids(), st.integers(0, 2 ** 32), st.integers(0, 3))
def test_rank_verdicts_match_witness_finders(cat, seed, shape):
    # the rank verdicts (mono_epi, is_mono, is_epi) against the
    # witness-producing solves; shape picks an endomorphism, a map into or
    # out of a direct sum containing the other end, or unrelated ends, so
    # split monos, split epis and isos all occur
    rng = random.Random(seed)
    v = random_object(cat, rng, max_total=3, allow_zero=True)
    u = random_object(cat, rng, max_total=2, allow_zero=True)
    if shape == 0:
        w = v
    elif shape == 1:
        w = direct_sum_obj(v, u)
    elif shape == 2:
        v, w = direct_sum_obj(v, u), v
    else:
        w = u
    f = random_morphism(v, w, rng, zero_weight=rng.randrange(3))
    r, s = find_retraction(f), find_section(f)
    expected = (r is not None, s is not None, is_iso(f))
    mono, epi = mono_epi(f)
    assert (mono, epi, mono and epi) == expected
    assert (is_mono(f), is_epi(f)) == expected[:2]
    if r is not None:
        assert compose(r, f) == identity_mor(v)
    if s is not None:
        assert compose(f, s) == identity_mor(w)
