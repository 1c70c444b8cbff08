"""Correctness checks on the documents fusionaudit produces.

Each check returns a list of problems; an empty list means the document is
correct.  Witnesses are re-verified by feeding their specs back through
``algebra_from_spec`` and ``morphism_from_spec`` and checking the claim
they carry with independent library calls.
"""

import json

from fusionaudit.gvec import (
    compose, identity_mor, is_epi, is_iso, is_mono, morphism_from_spec,
    simple_object, tensor_mor, tensor_obj, unit_object)
from fusionaudit.internal import (
    algebra_from_spec, dualize_algebra, validate_algebra)
from fusionaudit.morphcalc import find_retraction, find_section


def _split_mono(f):
    return find_retraction(f) is not None


def _split_epi(f):
    return find_section(f) is not None


def _witness_holds(cat, cond, w):
    """True when witness w demonstrates that condition cond fails."""
    one = unit_object(cat)
    if cond % 2 == 0:
        a = algebra_from_spec(cat, w["spec"])
        if not validate_algebra(a)["ok"] or a.is_zero():
            return False
        carrier, unit_map = a.carrier, a.unit
    else:
        c = dualize_algebra(algebra_from_spec(cat, w["dual_of"]))
        if c.is_zero():
            return False
        carrier, unit_map = c.carrier, c.counit
    if cond == 2:
        return not _split_mono(unit_map)
    if cond == 3:
        return not _split_epi(unit_map)
    if cond in (4, 5):
        m = morphism_from_spec(cat, w["morphism"])
        dead = tensor_obj(simple_object(cat, w["simple_grade"]), carrier)
        return (not m.is_zero() and dead.is_zero()
                and tensor_mor(m, identity_mor(carrier)).is_zero())
    if cond <= 11:
        f = morphism_from_spec(cat, w["morphism"])
        ff = tensor_mor(f, identity_mor(carrier))
        if cond in (6, 7):
            return not _split_mono(f) and _split_mono(ff)
        if cond in (8, 9):
            return not _split_epi(f) and _split_epi(ff)
        return not is_iso(f) and is_iso(ff)
    f = morphism_from_spec(cat, w["morphism"])
    if cond in (12, 14):
        k = morphism_from_spec(cat, w["kernel"])
        return (f.source == one and not f.is_zero() and not is_mono(f)
                and not k.is_zero() and is_mono(k)
                and compose(f, k).is_zero()
                and (cond == 14 or f == unit_map))
    q = morphism_from_spec(cat, w["cokernel"])
    return (f.target == one and not f.is_zero() and not is_epi(f)
            and not q.is_zero() and is_epi(q) and compose(q, f).is_zero()
            and (cond == 15 or f == unit_map))


def audit_problems(cat, report):
    """Problems with one run_audit report for the groupoid cat."""
    out = []
    simple = cat.object_count == 1
    if report.get("consistency") is not True:
        out.append("consistency is not true")
    if report.get("unit_simple") is not simple:
        out.append("unit_simple is %r for %d object(s)"
                   % (report.get("unit_simple"), cat.object_count))
    conds = report.get("conditions", {})
    for k in range(1, 16):
        entry = conds.get(str(k))
        if entry is None or entry.get("holds") is not simple:
            out.append("condition %d does not equal unit_simple" % k)
        elif k > 1 and not simple:
            w = entry.get("witness")
            if w is None or not _witness_holds(cat, k, w):
                out.append("condition %d witness does not re-verify" % k)
        elif k > 1 and entry.get("witness") is not None:
            out.append("condition %d holds but carries a witness" % k)
    ring = report.get("structural", {}).get("grothendieck", {})
    if ring.get("fusion", {}).get("holds") is not simple:
        out.append("fusion ring verdict does not equal unit_simple")
    return out


def algebra_witnesses(report):
    """The distinct algebra specs that the report's witnesses carry, in
    condition order."""
    seen, out = set(), []
    for k in range(2, 16):
        w = report["conditions"][str(k)]["witness"]
        if w is None:
            continue
        spec = w["spec"] if w["kind"] == "algebra" else w["dual_of"]
        key = json.dumps(spec, sort_keys=True)
        if key not in seen:
            seen.add(key)
            out.append(spec)
    return out


def gr_problems(cat, doc):
    """Problems with one ``gr`` document."""
    simple = cat.object_count == 1
    out = []
    if doc.get("rank") != cat.morphism_count:
        out.append("ring rank is not the morphism count")
    if doc.get("fusion", {}).get("holds") is not simple:
        out.append("fusion ring verdict does not equal unit_simple")
    if doc.get("fusion_iff_separable") is not simple:
        out.append("fusion_iff_separable does not equal unit_simple")
    return out


def check_algebra_problems(doc):
    """Problems with one ``check-algebra`` document on a witness algebra:
    it must validate, and its corner restriction must be separable with a
    mono unit, as the corner theorem says for every non-zero algebra."""
    out = []
    if not doc.get("validation", {}).get("ok"):
        out.append("witness algebra does not validate")
    elif doc["validation"].get("zero"):
        out.append("witness algebra is zero")
    else:
        sep = doc["separability"]
        if sep["separable"] != (sep["retraction"] is not None):
            out.append("separable verdict disagrees with its retraction")
        if not (doc["restricted_unit_mono"] and doc["restricted_separable"]):
            out.append("corner restriction is not separable")
    return out
