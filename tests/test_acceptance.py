"""Acceptance gate: one test per criterion, one pass/fail line each.

Every check is an exact equality over the rationals; there is no
tolerance anywhere.  Run with -s to see the verdict lines on success
(they are captured otherwise and shown on failure).
"""

import itertools
import json
import random
import subprocess
import sys

from conftest import cli_env, dense_constants, dense_entries
from fusionaudit.audit import reverify_witness, run_audit
from fusionaudit.corpus import algebra_corpus, random_morphism, random_object
from fusionaudit.errors import ConsistencyError
from fusionaudit.fixtures import FIXTURE_NAMES, fixture_spec, load_fixture
from fusionaudit.functors import (
    check_cosection_identity, check_inclusion_frobenius,
    check_projection_lax_colax, check_section_identity, coseparability_verdict,
    frobenius_pair_check, idempotent_e, separability_verdict)
from fusionaudit.grothendieck import (
    BasedRingData, fusion_iff_separable_check, grothendieck_ring,
    is_based_ring, is_fusion_ring, is_zplus_ring)
from fusionaudit.gvec import (
    compose, hom_basis, identity_mor, is_epi, is_mono, left_dual,
    simple_object, tensor_mor, tensor_obj, unit_object)
from fusionaudit.internal import (
    algebra_from_spec, algebra_to_spec, dualize_algebra, groupoid_algebra,
    restriction_data, support, validate_algebra)
from fusionaudit.morphcalc import find_retraction, find_section, weak_inverse

FIXTURES = [(name, load_fixture(name)) for name in FIXTURE_NAMES]
SIMPLE_UNIT = ("vec", "vec_z2", "vec_s3")
MULTI_UNIT = ("pair2", "pair3", "union_z2_z2")


def _verdict(num, title, failures):
    status = "FAIL" if failures else "PASS"
    print("criterion %d (%s): %s" % (num, title, status))
    assert not failures, "criterion %d: %s" % (num, failures[:5])


def _live_corpus(cat, rng):
    return [a for a in algebra_corpus(cat, rng) if not a.is_zero()]


def test_criterion_1_strictness():
    failures = []
    for name, cat in FIXTURES:
        rng = random.Random(101)
        for _ in range(100):
            src = [random_object(cat, rng, max_total=3) for _ in range(3)]
            tgt = [random_object(cat, rng, max_total=3) for _ in range(3)]
            x, y, z = src
            if tensor_obj(tensor_obj(x, y), z) != tensor_obj(
                    x, tensor_obj(y, z)):
                failures.append("%s: object associativity" % name)
                break
            f, g, h = (random_morphism(s, t, rng) for s, t in zip(src, tgt))
            if tensor_mor(tensor_mor(f, g), h) != tensor_mor(
                    f, tensor_mor(g, h)):
                failures.append("%s: morphism associativity" % name)
                break
        for _ in range(50):
            v = random_object(cat, rng, max_total=4)
            d, ev, coev = left_dual(v)
            idv, idd = identity_mor(v), identity_mor(d)
            if compose(tensor_mor(idv, ev), tensor_mor(coev, idv)) != idv:
                failures.append("%s: left zig-zag" % name)
                break
            if compose(tensor_mor(ev, idd), tensor_mor(idd, coev)) != idd:
                failures.append("%s: right zig-zag" % name)
                break
    _verdict(1, "strictness", failures)


def test_criterion_2_regularity():
    failures = []
    for name, cat in FIXTURES:
        rng = random.Random(202)
        for _ in range(200):
            v = random_object(cat, rng, max_total=4)
            w = random_object(cat, rng, max_total=4)
            f = random_morphism(v, w, rng)
            g = weak_inverse(f)
            if compose(f, compose(g, f)) != f:
                failures.append("%s: weak inverse" % name)
                break
            # the rank tests against the solved, re-verified witnesses
            r = find_retraction(f)
            if is_mono(f) != (r is not None) \
                    or r is not None and compose(r, f) != identity_mor(v):
                failures.append("%s: mono vs split-mono" % name)
                break
            s = find_section(f)
            if is_epi(f) != (s is not None) \
                    or s is not None and compose(f, s) != identity_mor(w):
                failures.append("%s: epi vs split-epi" % name)
                break
    _verdict(2, "regularity", failures)


def _hom_family(cat, rng):
    objs = [unit_object(cat)]
    objs += [simple_object(cat, g) for g in range(cat.morphism_count)]
    objs += [random_object(cat, rng, max_total=4) for _ in range(2)]
    return [f for m in objs for n in objs for f in hom_basis(m, n)]


def test_criterion_3_separability_criterion():
    failures = []
    for name, cat in FIXTURES:
        rng = random.Random(303)
        samples = _hom_family(cat, rng)
        for idx, a in enumerate(_live_corpus(cat, rng)):
            sep = separability_verdict(a)["separable"]
            r = find_retraction(a.unit)
            if sep != (r is not None):
                failures.append("%s[%d]: verdict vs retraction" % (name, idx))
                continue
            if r is not None and not check_section_identity(
                    a, r, samples, rng=rng):
                failures.append("%s[%d]: section identity" % (name, idx))
            c = dualize_algebra(a)
            cosep = coseparability_verdict(c)["separable"]
            s = find_section(c.counit)
            if cosep != (s is not None) or cosep != sep:
                failures.append("%s[%d]: coalgebra mirror" % (name, idx))
                continue
            if s is not None and not check_cosection_identity(
                    c, s, samples, rng=rng):
                failures.append("%s[%d]: cosection identity" % (name, idx))
    _verdict(3, "separability criterion", failures)


def test_criterion_4_main_theorem_audit(tmp_path):
    failures = []
    for name in SIMPLE_UNIT:
        rep = run_audit(fixture_spec(name), seed=1)
        if not (rep["unit_simple"] and rep["consistency"]):
            failures.append("%s: header" % name)
        for k in range(1, 16):
            entry = rep["conditions"][str(k)]
            if not entry["holds"] or entry["witness"] is not None:
                failures.append("%s: condition %d" % (name, k))
    for name in MULTI_UNIT:
        cat = load_fixture(name)
        rep = run_audit(fixture_spec(name), seed=1)
        if rep["unit_simple"] or not rep["consistency"]:
            failures.append("%s: header" % name)
        for k in range(2, 16):
            entry = rep["conditions"][str(k)]
            if entry["holds"]:
                failures.append("%s: condition %d holds" % (name, k))
                continue
            if not reverify_witness(cat, k, entry["witness"]):
                failures.append("%s: condition %d witness" % (name, k))
    for name in FIXTURE_NAMES:
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(fixture_spec(name)))
        proc = subprocess.run(
            [sys.executable, "-m", "fusionaudit", "audit",
             "--category", str(path)],
            capture_output=True, text=True, env=cli_env())
        if proc.returncode != 0:
            failures.append("%s: exit code %d" % (name, proc.returncode))
    _verdict(4, "main-theorem audit", failures)


def test_criterion_5_structural():
    failures = []
    for name, cat in FIXTURES:
        rng = random.Random(505)
        for idx, a in enumerate(_live_corpus(cat, rng)):
            j = support(a)
            outside = [g for g, m in a.carrier.mult.items() if m
                       and not set(cat.morphisms[g]) <= j]
            if outside:
                failures.append("%s[%d]: support" % (name, idx))
                continue
            data = restriction_data(a, j)
            ci, aj = data["carrier_inclusion"], data["algebra"]
            if not is_mono(data["restricted_unit"]):
                failures.append("%s[%d]: restricted unit mono" % (name, idx))
            if compose(ci, aj.mult) != compose(a.mult, tensor_mor(ci, ci)):
                failures.append("%s[%d]: inclusion mult law" % (name, idx))
            if compose(ci, data["restricted_unit"]) != compose(
                    a.unit, data["unit_inclusion"]):
                failures.append("%s[%d]: inclusion unit law" % (name, idx))
            if find_retraction(data["restricted_unit"]) is None:
                failures.append("%s[%d]: restricted separable" % (name, idx))
        subsets = [set(c) for k in range(1, cat.object_count + 1)
                   for c in itertools.combinations(range(cat.object_count), k)]
        per_subset = -(-50 // len(subsets))
        for objs in subsets:
            tag = "%s J=%s" % (name, sorted(objs))
            if not check_inclusion_frobenius(cat, objs, rng,
                                             samples=per_subset):
                failures.append("%s: inclusion Frobenius" % tag)
            if not check_projection_lax_colax(cat, objs, rng,
                                              samples=per_subset):
                failures.append("%s: projection lax/colax" % tag)
            if not frobenius_pair_check(cat, objs, rng, samples=per_subset):
                failures.append("%s: adjunction bijections" % tag)
    _verdict(5, "structural suite", failures)


def test_criterion_6_idempotents():
    failures = []
    for name, cat in FIXTURES:
        rng = random.Random(606)
        for idx, a in enumerate(_live_corpus(cat, rng)):
            sep = separability_verdict(a)["separable"]
            all_id = True
            ms = [unit_object(cat)]
            ms += [random_object(cat, rng, max_total=3) for _ in range(49)]
            for m in ms:
                e = idempotent_e(a, m)
                if compose(e, e) != e:
                    failures.append("%s[%d]: idempotence" % (name, idx))
                    break
                n = random_object(cat, rng, max_total=3)
                f = random_morphism(m, n, rng)
                if compose(idempotent_e(a, n), f) != compose(f, e):
                    failures.append("%s[%d]: naturality" % (name, idx))
                    break
                if e != identity_mor(m):
                    all_id = False
            else:
                if all_id != sep:
                    failures.append("%s[%d]: triviality vs separability"
                                    % (name, idx))
    _verdict(6, "idempotent suite", failures)


def test_criterion_7_ring_suite():
    failures = []
    rz2 = grothendieck_ring(load_fixture("vec_z2"))
    cz2 = dense_constants(rz2)
    if not (is_fusion_ring(rz2)["holds"] and rz2.rank == 2
            and cz2[1][1][0] == 1 and cz2[1][1][1] == 0):
        failures.append("vec_z2: rank-2 fusion ring with g*g = e")
    rp2 = grothendieck_ring(load_fixture("pair2"))
    cp2 = dense_constants(rp2)
    matrix_units = rp2.rank == 4
    for i, j, k, l in itertools.product(range(2), repeat=4):
        expect = [0, 0, 0, 0]
        if j == k:
            expect[2 * i + l] = 1
        matrix_units &= cp2[2 * i + j][2 * k + l] == expect
    if not (matrix_units and is_based_ring(rp2)["holds"]
            and not is_fusion_ring(rp2)["holds"]):
        failures.append("pair2: rank-4 matrix-unit based ring, not fusion")
    for name, cat in FIXTURES:
        rng = random.Random(707)
        expected = cat.object_count == 1
        fusion = is_fusion_ring(grothendieck_ring(cat))["holds"]
        flags = [separability_verdict(a)["separable"]
                 for a in _live_corpus(cat, rng)]
        if fusion_iff_separable_check(fusion, flags) is not expected:
            failures.append("%s: fusion iff separable" % name)
    try:
        fusion_iff_separable_check(True, [True, False])
        failures.append("fusion iff separable: disagreement not raised")
    except ConsistencyError:
        pass
    # mutated structure constants are rejected with a located axiom
    c = dense_constants(rz2)
    c[1][1][0] = -1
    v = is_zplus_ring(BasedRingData(rz2.basis_labels, dense_entries(c),
                                    rz2.unit_coeffs, rz2.involution))
    if v["holds"] or not any(f["axiom"] == "non-negative"
                             and f["at"] == [1, 1, 0]
                             for f in v["failures"]):
        failures.append("mutation: negative constant not localized")
    c2 = dense_constants(rz2)
    c2[0][1][1] = 0
    v2 = is_zplus_ring(BasedRingData(rz2.basis_labels, dense_entries(c2),
                                     rz2.unit_coeffs, rz2.involution))
    if v2["holds"] or not any(f["axiom"] == "left unit" and f["at"] == [1, 1]
                              for f in v2["failures"]):
        failures.append("mutation: broken unit row not localized")
    # mutated algebra constants are rejected with the failing grades
    z2 = load_fixture("vec_z2")
    doc = json.loads(json.dumps(algebra_to_spec(groupoid_algebra(z2, {0}))))
    doc["mult"]["1"][0][1] = "2"
    bad = algebra_from_spec(z2, doc)
    rep = validate_algebra(bad)
    if rep["ok"] or not any("at grades" in f for f in rep["failures"]):
        failures.append("mutation: algebra constants not localized")
    _verdict(7, "ring suite", failures)


def test_criterion_8_determinism(tmp_path):
    failures = []
    spec_path = tmp_path / "cat.json"
    spec_path.write_text(json.dumps(fixture_spec("pair2")))
    alg_path = tmp_path / "alg.json"
    alg_path.write_text(json.dumps(
        algebra_to_spec(groupoid_algebra(load_fixture("pair2"), {0, 1}))))
    commands = {
        "audit": ["audit", "--category", str(spec_path),
                  "--report", str(tmp_path / "report.json")],
        "check-algebra": ["check-algebra", "--category", str(spec_path),
                          "--algebra", str(alg_path)],
        "gr": ["gr", "--category", str(spec_path)],
    }
    for label, args in commands.items():
        runs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-m", "fusionaudit"]
                                  + args, capture_output=True, env=cli_env())
            if proc.returncode != 0:
                failures.append("%s: exit code %d" % (label, proc.returncode))
                break
            extra = b""
            if "--report" in args:
                extra = (tmp_path / "report.json").read_bytes()
            runs.append(proc.stdout + b"\0" + extra)
        if len(runs) == 2 and runs[0] != runs[1]:
            failures.append("%s: runs differ" % label)
    _verdict(8, "determinism", failures)
