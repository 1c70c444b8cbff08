"""Grothendieck ring of a category instance.

Simples are indexed by grades.  For Vec_G the Grothendieck ring is the
groupoid ring Z[G] (Etingof, Gelaki, Nikshych and Ostrik, Tensor
Categories, ch. 4): [X_g][X_h] is [X_{gh}] when the grades compose and 0
otherwise, the class of 1 is the sum over identity grades, and the
involution [X] -> [X*] sends X_g to X_{g^-1}.  That statement is checked
on the engine, not assumed: _derive reads every [X_g][X_h] off the tensor
square of the regular object (one slot at every grade), the class of 1
off unit_object and the involution off the left duals of the simples,
and any of them that differs from the composition table, the identity
grades or the inverses is a ConsistencyError.

Once _derive passes, the ring axioms restate the groupoid axioms that the
Groupoid constructor has checked, so ring_report states its verdicts
without checking them again:
- every structure constant is 0 or 1, so none is negative;
- the products are associative because the composition table is;
- the unit laws are the identity laws;
- the involution is an anti-automorphism because (gh)^-1 = h^-1 g^-1;
- the unit coefficient of b_g b_h is 1 exactly when gh is an identity,
  which is when h = g^-1: the pairing.
So the ring is a based ring, and a fusion ring exactly when its unit is
one basis element, which is when the groupoid has one object.

The general checks stay for rings given by their structure constants.
BasedRingData takes the constants through a checking constructor, and
is_zplus_ring, is_based_ring and is_fusion_ring decide the axioms on
them, listing every failing instance, so a mutation is rejected with the
exact triple that breaks.  grothendieck_ring builds cat's ring that way,
the subject on which the tests hold ring_report's verdicts to the
general checks.

BasedRingData stores its constants sparse only, with no rank^3 array:
each product b_i b_j is its list of non-zero (k, c), c the coefficient
of b_k, and every sum in an axiom runs over those lists and the non-zero
unit coefficients.  When every non-zero product is one basis element
with coefficient 1, Light's associativity test certifies associativity
in O(n^2) per generator of the basis.  Otherwise, or when it finds a
failing triple, associativity compares the b_l coefficients of
(b_i b_j) b_k and b_i (b_j b_k) for each triple in O(n^3 d^2) for rank
n, where d is the most non-zero constants of one product.  Failures are
listed in the order dense loops over i, j, k, l would find them.

fusion_iff_separable_check cross-checks the transfer of simplicity to the
ring: it compares a fusion verdict against the separability flags of the
non-zero corpus algebras, both computed by the caller, and builds no ring.
"""

from .errors import ConsistencyError, ShapeError
from .groupoid import _magma_associative
from .gvec import (
    dual_obj, graded_object, simple_object, tensor_obj, unit_object)

__all__ = [
    "BasedRingData", "grothendieck_ring",
    "is_zplus_ring", "is_based_ring", "is_fusion_ring",
    "ring_report", "fusion_iff_separable_check",
]


class BasedRingData:
    """Ring presented by integer structure constants on a finite basis.

    entries are the non-zero constants (i, j, k, c), c the coefficient of
    b_k in b_i b_j: ints (not bools), indices in range(rank), c non-zero,
    no (i, j, k) twice, or a ShapeError.  They are stored only as
    nonzero[i][j], the pairs (k, c) in ascending k.  unit_coeffs gives the
    decomposition of 1 over the basis; involution is a candidate duality
    permutation of basis indices.
    """

    __slots__ = ("basis_labels", "nonzero", "unit_coeffs", "involution")

    def __init__(self, basis_labels, entries, unit_coeffs, involution):
        self.basis_labels = tuple(basis_labels)
        n = len(self.basis_labels)
        rows = [[{} for _ in range(n)] for _ in range(n)]
        for entry in entries:
            e = _int_tuple(entry, "entry %r" % (entry,))
            if len(e) != 4 or not all(0 <= t < n for t in e[:3]) \
                    or not e[3] or e[2] in rows[e[0]][e[1]]:
                raise ShapeError(
                    "entry %r is not (i, j, k, c) with indices in range(%d), "
                    "c non-zero and (i, j, k) not repeated" % (entry, n))
            rows[e[0]][e[1]][e[2]] = e[3]
        self.nonzero = tuple(tuple(tuple(sorted(d.items())) for d in plane)
                             for plane in rows)
        self.unit_coeffs = _int_tuple(unit_coeffs, "unit_coeffs")
        self.involution = _int_tuple(involution, "involution")
        if len(self.unit_coeffs) != n or len(self.involution) != n:
            raise ShapeError("unit or involution length differs from rank")

    @property
    def rank(self):
        return len(self.basis_labels)

    def entries(self):
        """The non-zero constants as (i, j, k, c), sorted."""
        return [(i, j, k, x) for i, plane in enumerate(self.nonzero)
                for j, row in enumerate(plane) for k, x in row]


def _int_tuple(values, what):
    """values as a tuple of ints; anything else is a ShapeError."""
    try:
        values = tuple(values)
        ok = all(isinstance(x, int) and not isinstance(x, bool)
                 for x in values)
    except TypeError:
        ok = False
    if not ok:
        raise ShapeError("%s is not a sequence of ints" % what)
    return values


def _derive(cat):
    """(constants, unit_coeffs, involution) of cat's ring: the number of
    non-zero structure constants, the class of 1 over the basis and the
    involution, once the engine is checked against the groupoid.  Any
    difference is a ConsistencyError.

    The regular object R has one slot at every grade, so R (x) R is the
    sum of the X_g1 (x) X_g2.  R's one alphabet ranks the letter (g, 0) at
    g, so the slot of R (x) R with code g1 * n + g2 is the product of the
    slots at g1 and g2 (gvec), and its grade is the grade of that
    product.  R (x) R must have one slot per composable pair, and each
    slot must sit at the composite of its pair.  A grade's codes are
    distinct (gvec), so the two checks leave each composable pair exactly
    one slot, at its composite: [X_g1][X_g2] is [X_{g1 g2}], and 0 off
    the composable pairs.  The slots are checked as they are read, with
    no table of products.

    unit_object must be the sum of the simples at the identity grades,
    and the left dual of the simple at g the simple at inverse_of[g]."""
    table = cat.compose_table
    n = len(table)
    regular = graded_object(cat, {g: 1 for g in range(n)})
    layout = tensor_obj(regular, regular).layout
    slots = sum(map(len, layout.values()))
    pairs = n * n - sum(row.count(None) for row in table)
    if slots != pairs:
        raise ConsistencyError(
            "the tensor square of the regular object has %d slots for %d "
            "composable pairs" % (slots, pairs))
    for h, codes in layout.items():
        for c in codes:
            g1, g2 = divmod(c, n)
            if table[g1][g2] != h:
                raise ConsistencyError(
                    "[X_%d][X_%d] is grade %r by the tensor product and %r "
                    "by the composition table" % (g1, g2, h, table[g1][g2]))
    if unit_object(cat).mult != {e: 1 for e in cat.identity_of}:
        raise ConsistencyError(
            "the unit object is not the sum of the simples at the identity "
            "grades %r" % (cat.identity_grades,))
    inverse = cat.inverse_of
    for g in range(n):
        if dual_obj(simple_object(cat, g)).mult != {inverse[g]: 1}:
            raise ConsistencyError(
                "the dual of the simple at %d is not the simple at its "
                "inverse %d" % (g, inverse[g]))
    unit = [0] * n
    for e in cat.identity_of:
        unit[e] = 1
    return pairs, tuple(unit), inverse


def grothendieck_ring(cat):
    """cat's ring, built by the checking constructor once _derive has
    passed: [X_i][X_j] = [X_k] for each composite k of i then j in the
    composition table.  The reports build no ring; this one is the
    subject the tests hold ring_report's verdicts to."""
    _, unit, involution = _derive(cat)
    entries = [(i, j, k, 1) for i, row in enumerate(cat.compose_table)
               for j, k in enumerate(row) if k is not None]
    return BasedRingData(range(cat.morphism_count), entries, unit,
                         involution)


def _light_associative(nz):
    """True when Light's associativity test certifies the products
    associative; False when it does not apply or finds a failing triple.

    It applies when every non-zero product b_i b_j is one basis element
    with coefficient 1: the basis and 0 then form a magma with 0
    absorbing, and the ring is associative exactly when that magma is,
    which groupoid._magma_associative decides."""
    n = len(nz)
    zero = n
    t = []
    for row in nz:
        out = []
        for p in row:
            if not p:
                out.append(zero)
            elif len(p) == 1 and p[0][1] == 1:
                out.append(p[0][0])
            else:
                return False
        out.append(zero)
        t.append(out)
    t.append([zero] * (n + 1))
    return _magma_associative(t)


def _associativity_failures(nz):
    """Every b_l where (b_i b_j) b_k and b_i (b_j b_k) differ, in the
    order of the dense loops over i, j, k, l."""
    n = len(nz)
    out = []
    for i in range(n):
        nz_i = nz[i]
        for j in range(n):
            ij = nz_i[j]
            nz_j = nz[j]
            for k in range(n):
                jk = nz_j[k]
                if not ij and not jk:
                    continue
                lhs = {}
                for m, a in ij:
                    for l, x in nz[m][k]:
                        lhs[l] = lhs.get(l, 0) + a * x
                rhs = {}
                for m, a in jk:
                    for l, x in nz_i[m]:
                        rhs[l] = rhs.get(l, 0) + a * x
                if lhs == rhs:
                    continue
                for l in sorted(lhs.keys() | rhs.keys()):
                    left, right = lhs.get(l, 0), rhs.get(l, 0)
                    if left != right:
                        out.append({"axiom": "associativity",
                                    "at": [i, j, k], "basis": l,
                                    "left": left, "right": right})
    return out


def _zplus_failures(r):
    n = r.rank
    nz = r.nonzero
    out = []
    for i in range(n):
        for j in range(n):
            for k, x in nz[i][j]:
                if x < 0:
                    out.append({"axiom": "non-negative", "at": [i, j, k]})
    if any(x < 0 for x in r.unit_coeffs):
        out.append({"axiom": "non-negative unit", "at": list(r.unit_coeffs)})
    if not _light_associative(nz):
        out.extend(_associativity_failures(nz))
    unit = [(i, u) for i, u in enumerate(r.unit_coeffs) if u]
    for j in range(n):
        left, right = {}, {}
        for i, u in unit:
            for k, x in nz[i][j]:
                left[k] = left.get(k, 0) + u * x
            for k, x in nz[j][i]:
                right[k] = right.get(k, 0) + u * x
        for k in range(n):
            want = 1 if j == k else 0
            if left.get(k, 0) != want:
                out.append({"axiom": "left unit", "at": [j, k],
                            "value": left.get(k, 0)})
            if right.get(k, 0) != want:
                out.append({"axiom": "right unit", "at": [j, k],
                            "value": right.get(k, 0)})
    return out


def _based_failures(r):
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
    # c[i][j][k] against c[j*][i*][k*], the latter re-indexed by k through
    # the inverse permutation, which exists even when star is not involutive.
    # Equal entry lists mean equal products; only a mismatch, which may be
    # the same entries out of k order, builds the dicts that decide it.
    inverse = [0] * n
    for k, s in enumerate(star):
        inverse[s] = k
    for i in range(n):
        row = nz[i]
        col = star[i]
        for j in range(n):
            here = row[j]
            there = nz[star[j]][col]
            if len(here) == len(there) and (not here or here == tuple(
                    [(inverse[s], x) for s, x in there])):
                continue
            here = dict(here)
            there = {inverse[s]: x for s, x in there}
            for k in sorted(here.keys() | there.keys()):
                if here.get(k, 0) != there.get(k, 0):
                    out.append({"axiom": "anti-automorphism",
                                "at": [i, j, k]})
    # pairing: the unit coefficient of b_i b_j is 1 exactly when j = i*
    unit = r.unit_coeffs
    for i in range(n):
        for j in range(n):
            tau = sum(x * unit[k] for k, x in nz[i][j])
            want = 1 if j == star[i] else 0
            if tau != want:
                out.append({"axiom": "pairing", "at": [i, j], "value": tau})
    return out


def _verdict(failures):
    return {"holds": not failures, "failures": failures}


def _verdicts(zplus, based, unit_coeffs):
    """zplus, based and fusion verdicts from the Z+ failures and the
    based-ring ones: based adds its failures to the Z+ ones, fusion adds
    the single-unit failure to those."""
    based = zplus + based
    fusion = based
    if sum(unit_coeffs) != 1 or 1 not in unit_coeffs:
        fusion = based + [{"axiom": "unit is a single basis element",
                           "unit_coeffs": list(unit_coeffs)}]
    return {"zplus": _verdict(zplus), "based": _verdict(based),
            "fusion": _verdict(fusion)}


def _ring_verdicts(r):
    return _verdicts(_zplus_failures(r), _based_failures(r), r.unit_coeffs)


def is_zplus_ring(r):
    return _verdict(_zplus_failures(r))


def is_based_ring(r):
    return _ring_verdicts(r)["based"]


def is_fusion_ring(r):
    return _ring_verdicts(r)["fusion"]


def ring_report(cat, constants=True):
    """The ring of cat, its three verdicts and, with constants (the gr
    report), its non-zero structure constants as sorted [i, j, k, 1]
    entries, read off the composition table.  Without (the audit report,
    whose category.spec lists the composition table), they are stated
    once: their count, and that they match the composition table, which
    _derive has checked.  Once _derive passes, the ring axioms are the
    groupoid axioms (module docstring), so no verdict lists a failure
    but fusion's single-unit one."""
    count, unit, involution = _derive(cat)
    table = cat.compose_table
    doc = {"rank": len(table), "basis": list(range(len(table)))}
    if constants:
        doc["structure_constants"] = [
            [i, j, k, 1] for i, row in enumerate(table)
            for j, k in enumerate(row) if k is not None]
    else:
        doc["nonzero_constants"] = count
        doc["constants_match_composition"] = True
    doc["unit_coeffs"] = list(unit)
    doc["involution"] = list(involution)
    doc.update(_verdicts([], [], unit))
    return doc


def fusion_iff_separable_check(fusion, separable):
    """The ring is fusion exactly when every non-zero corpus algebra is
    separable; any disagreement is a defect, not a finding.

    fusion is the ring's fusion verdict, as ring_report gives it, and
    separable holds the separability flag of each non-zero corpus algebra,
    so the ring and the verdicts are each decided once by the caller."""
    if not separable:
        raise ValueError("corpus contains no non-zero algebra")
    all_sep = all(separable)
    if fusion != all_sep:
        raise ConsistencyError(
            "fusion ring verdict %r disagrees with corpus separability %r"
            % (fusion, all_sep))
    return fusion
