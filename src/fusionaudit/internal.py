"""Algebras and coalgebras internal to a graded category.

Structures are plain carrier/structure-map triples; validation is separate
so that deliberately broken structures can be built for mutation tests.
Strictness makes every axiom a literal matrix equation, checked exactly.

Serialization note: a multiplication block's columns index the slots of
carrier (x) carrier, and that slot order depends on how the carrier was
built.  The JSON form therefore fixes a canonical column order: composable
grade pairs (g1, g2) sorted by enumeration index, slot pairs row-major
within each.  For a carrier built atomically from a multiplicity map this
is exactly the in-memory order, so parsing needs no permutation.
"""

from fractions import Fraction

from .errors import ConsistencyError, ShapeError, SpecError
from .exactlin import Matrix
from .groupoid import _spec_ints
from .gvec import (
    MAX_PRODUCT_SLOTS, MAX_TOTAL_MULT, GradedMorphism, GradedObject,
    _blocks_from_spec, _blocks_to_spec, _mult_product, _slot_starts,
    _tensor_layout, compose, dual_morphism, direct_sum_obj, graded_object,
    identity_mor, left_dual, object_from_spec, object_to_spec,
    restrict_grades, restriction_inclusion, restriction_projection,
    tensor_mor, tensor_mult, tensor_obj, total_mult, unit_object,
    unit_summand)
from .slotcodes import radix

__all__ = [
    "InternalAlgebra", "InternalCoalgebra",
    "validate_algebra", "validate_coalgebra",
    "unit_summand_algebra", "unit_summand_coalgebra",
    "groupoid_algebra", "internal_end",
    "dualize_algebra", "dualize_coalgebra",
    "direct_sum_algebra", "restriction_data",
    "support", "grades_within",
    "algebra_to_spec", "algebra_from_spec",
]

_ONE = Fraction(1)


class InternalAlgebra:
    """Carrier with multiplication carrier (x) carrier -> carrier and unit
    1 -> carrier; axioms are checked by validate_algebra, not here."""

    __slots__ = ("carrier", "mult", "unit")

    def __init__(self, carrier, mult, unit):
        if mult.target != carrier or not _is_square(mult.source, carrier):
            raise ShapeError("multiplication endpoints do not match carrier")
        if unit.source != unit_object(carrier.cat) or unit.target != carrier:
            raise ShapeError("unit endpoints do not match carrier")
        self.carrier = carrier
        self.mult = mult
        self.unit = unit

    def is_zero(self):
        return self.carrier.is_zero()

    def __eq__(self, other):
        # canonical column order makes this independent of carrier layout
        return (isinstance(other, InternalAlgebra)
                and self.carrier == other.carrier
                and _canonical_pair_blocks(self.carrier, self.mult)
                == _canonical_pair_blocks(other.carrier, other.mult)
                and self.unit.blocks == other.unit.blocks)

    def __hash__(self):
        return hash((self.carrier, self.unit))

    def __repr__(self):
        return "InternalAlgebra(%r)" % (self.carrier,)


class InternalCoalgebra:
    """Carrier with comultiplication carrier -> carrier (x) carrier and
    counit carrier -> 1."""

    __slots__ = ("carrier", "comult", "counit")

    def __init__(self, carrier, comult, counit):
        if comult.source != carrier \
                or not _is_square(comult.target, carrier):
            raise ShapeError(
                "comultiplication endpoints do not match carrier")
        if counit.target != unit_object(carrier.cat) \
                or counit.source != carrier:
            raise ShapeError("counit endpoints do not match carrier")
        self.carrier = carrier
        self.comult = comult
        self.counit = counit

    def is_zero(self):
        return self.carrier.is_zero()

    def __eq__(self, other):
        return (isinstance(other, InternalCoalgebra)
                and self.carrier == other.carrier
                and _canonical_pair_rows(self.carrier, self.comult)
                == _canonical_pair_rows(other.carrier, other.comult)
                and self.counit.blocks == other.counit.blocks)

    def __hash__(self):
        return hash((self.carrier, self.counit))

    def __repr__(self):
        return "InternalCoalgebra(%r)" % (self.carrier,)


def _is_square(v, carrier):
    """v == carrier (x) carrier: object equality compares the groupoid and
    the multiplicities only, so the product's slots are not enumerated."""
    return (isinstance(v, GradedObject)
            and (v.cat is carrier.cat or v.cat == carrier.cat)
            and v.mult == tensor_mult(carrier, carrier))


# ---------------------------------------------------------------------------
# canonical pair-slot order

def _pair_columns(carrier):
    """Per grade of carrier (x) carrier: the memory position of every slot,
    listed in canonical order (composable grade pairs (g1, g2) sorted by
    enumeration index, slot pairs row-major), found by bisection
    (gvec._slot_starts)."""
    cxc = _tensor_layout(carrier, carrier)
    cl, r = carrier.layout, radix(carrier.seq)
    out = {h: [] for h in cxc.layout}
    for g1 in sorted(cl):
        row = carrier.cat.compose_table[g1]
        for g2 in sorted(cl):
            h = row[g2]
            if h is not None:
                out[h] += [s + j for s in _slot_starts(cxc.layout[h],
                                                       cl[g1], r)
                           for j in range(len(cl[g2]))]
    return out


def _canonical_pair_blocks(carrier, mult):
    cols = _pair_columns(carrier)
    return {g: b.columns(cols[g]) for g, b in mult.blocks.items()}


def _canonical_pair_rows(carrier, comult):
    cols = _pair_columns(carrier)
    return {g: b.transpose().columns(cols[g]).transpose()
            for g, b in comult.blocks.items()}


# ---------------------------------------------------------------------------
# validation

def _mismatch_grades(f, g):
    return sorted((f - g).blocks)


def validate_algebra(a):
    """{"ok", "zero", "failures"}; failures name the equation and grades."""
    failures = []
    ida = identity_mor(a.carrier)
    try:
        lhs = compose(a.mult, tensor_mor(a.mult, ida))
        rhs = compose(a.mult, tensor_mor(ida, a.mult))
        if lhs != rhs:
            failures.append("associativity fails at grades %s"
                            % _mismatch_grades(lhs, rhs))
        left = compose(a.mult, tensor_mor(a.unit, ida))
        if left != ida:
            failures.append("left unit law fails at grades %s"
                            % _mismatch_grades(left, ida))
        right = compose(a.mult, tensor_mor(ida, a.unit))
        if right != ida:
            failures.append("right unit law fails at grades %s"
                            % _mismatch_grades(right, ida))
    except ShapeError as exc:
        failures.append("structural: %s" % exc)
    return {"ok": not failures, "zero": a.is_zero(), "failures": failures}


def validate_coalgebra(c):
    failures = []
    idc = identity_mor(c.carrier)
    try:
        lhs = compose(tensor_mor(c.comult, idc), c.comult)
        rhs = compose(tensor_mor(idc, c.comult), c.comult)
        if lhs != rhs:
            failures.append("coassociativity fails at grades %s"
                            % _mismatch_grades(lhs, rhs))
        left = compose(tensor_mor(c.counit, idc), c.comult)
        if left != idc:
            failures.append("left counit law fails at grades %s"
                            % _mismatch_grades(left, idc))
        right = compose(tensor_mor(idc, c.counit), c.comult)
        if right != idc:
            failures.append("right counit law fails at grades %s"
                            % _mismatch_grades(right, idc))
    except ShapeError as exc:
        failures.append("structural: %s" % exc)
    return {"ok": not failures, "zero": c.is_zero(), "failures": failures}


# ---------------------------------------------------------------------------
# constructors

def unit_summand_algebra(cat, i):
    """1_i with multiplication the identity (1_i (x) 1_i is literally 1_i)
    and unit the coordinate projection of 1."""
    if not 0 <= i < cat.object_count:
        raise IndexError("object index %r out of range" % (i,))
    carrier = unit_summand(cat, {i})
    unit = restriction_projection(unit_object(cat), {cat.identity_of[i]})
    return InternalAlgebra(carrier, identity_mor(carrier), unit)


def unit_summand_coalgebra(cat, i):
    """1_i with comultiplication the identity and counit the coordinate
    inclusion into 1."""
    if not 0 <= i < cat.object_count:
        raise IndexError("object index %r out of range" % (i,))
    carrier = unit_summand(cat, {i})
    counit = restriction_inclusion(unit_object(cat), {cat.identity_of[i]})
    return InternalCoalgebra(carrier, identity_mor(carrier), counit)


def grades_within(cat, objs):
    objs = set(objs)
    return {g for g, (s, t) in enumerate(cat.morphisms)
            if s in objs and t in objs}


def groupoid_algebra(cat, objs):
    """Convolution algebra on the grades with both endpoints in objs:
    multiplicity one everywhere, structure constants all one, unit the sum
    of the identity-grade slots."""
    objs = set(objs)
    if not objs:
        raise ValueError("empty object set")
    if any(not 0 <= i < cat.object_count for i in objs):
        raise IndexError("object index out of range")
    carrier = graded_object(cat, {g: 1 for g in grades_within(cat, objs)})
    cxc = tensor_obj(carrier, carrier)
    mult = GradedMorphism._of(cxc, carrier, {
        h: Matrix._of(1, m, (tuple([(j, _ONE) for j in range(m)]),))
        for h, m in cxc.mult.items()})
    unit_block = Matrix._of(1, 1, (((0, _ONE),),))
    unit = GradedMorphism._of(unit_object(cat), carrier, {
        cat.identity_of[i]: unit_block for i in objs})
    return InternalAlgebra(carrier, mult, unit)


def internal_end(x):
    """x (x) dual(x) with multiplication id (x) ev (x) id and unit coev."""
    if x.is_zero():
        raise ValueError("internal end of the zero object")
    d, ev, coev = left_dual(x)
    carrier = tensor_obj(x, d)
    mult = tensor_mor(tensor_mor(identity_mor(x), ev), identity_mor(d))
    return InternalAlgebra(carrier, mult, coev)


def dualize_algebra(a):
    """Transpose through duality; strictness of dual-of-product makes the
    transposed maps land exactly on dual(carrier) (x) dual(carrier)."""
    comult = dual_morphism(a.mult)
    return InternalCoalgebra(comult.source, comult, dual_morphism(a.unit))


def dualize_coalgebra(c):
    mult = dual_morphism(c.comult)
    return InternalAlgebra(mult.target, mult, dual_morphism(c.counit))


def _summand_columns(c, s, sxs, off):
    """Per grade h of c (x) c: the position, within grade h of sxs = s (x)
    s, of each slot of c (x) c, where c is a summand of s whose slot i at
    grade g is slot off.get(g, 0) + i of s.  Slot (g1, i, g2, j) of
    c (x) c is slot (g1, off[g1] + i, g2, off[g2] + j) of s (x) s; both
    are found by bisection (gvec._slot_starts)."""
    cxc = _tensor_layout(c, c)
    cl, rc, rs = c.layout, radix(c.seq), radix(s.seq)
    out = {h: [0] * m for h, m in cxc.mult.items()}
    for g1, left in cl.items():
        row = c.cat.compose_table[g1]
        k = off.get(g1, 0)
        sleft = s.layout[g1][k:k + len(left)]
        for g2, right in cl.items():
            h = row[g2]
            if h is None:
                continue
            cmap, k2 = out[h], off.get(g2, 0)
            for at, to in zip(_slot_starts(cxc.layout[h], left, rc),
                              _slot_starts(sxs.layout[h], sleft, rs)):
                for j in range(len(right)):
                    cmap[at + j] = to + k2 + j
    return out


def direct_sum_algebra(a, b):
    """Product algebra: componentwise multiplication, zero across summands,
    unit the pair of units.

    Both structure maps are the summands' rows re-indexed, with no
    product formed.  At each grade a's slots come first in the sum s and
    b's follow (direct_sum_obj), so a's rows keep their index and b's move
    down by a's multiplicity.  A column of a.mult, a slot of a (x) a, goes
    to the slot of s (x) s with the same factor slots, and likewise for b
    (both found by bisection, see _summand_columns).  s is atomic, so its
    words order grade first, while a summand's words (those of an
    internal_end, say) need not: the column map need not be increasing,
    and each re-indexed row is sorted.

    A carrier of more than gvec.MAX_TOTAL_MULT slots is a SpecError,
    raised before anything is built: an object spec states at most that
    many, so every carrier an audit builds, at any corpus size, can be
    written into a witness and parsed back."""
    ca, cb = a.carrier, b.carrier
    total = total_mult(ca) + total_mult(cb)
    if total > MAX_TOTAL_MULT:
        raise SpecError("direct sum carrier of %d slots is more than the %d "
                        "an object spec takes" % (total, MAX_TOTAL_MULT))
    s = direct_sum_obj(ca, cb)
    sxs = _tensor_layout(s, s)
    sides = ((a.mult.blocks, _summand_columns(ca, s, sxs, {}), ca),
             (b.mult.blocks, _summand_columns(cb, s, sxs, ca.mult), cb))
    blocks = {}
    for h in sxs.layout:
        rows = []
        for mblocks, cmaps, c in sides:
            block = mblocks.get(h)
            if block is None:
                rows.extend([()] * c.m(h))
                continue
            cmap = cmaps[h]
            rows.extend(tuple(sorted([(cmap[j], x) for j, x in row]))
                        for row in block.sparse)
        if any(rows):
            blocks[h] = Matrix._of(s.m(h), sxs.mult[h], tuple(rows))
    mult = GradedMorphism._of(sxs, s, blocks)
    one = a.unit.source
    unit = {}
    for e in one.mult:
        ua, ub = a.unit.blocks.get(e), b.unit.blocks.get(e)
        if ua is None and ub is None:
            continue
        rows = ua.sparse if ua is not None else ((),) * ca.m(e)
        rows += ub.sparse if ub is not None else ((),) * cb.m(e)
        unit[e] = Matrix._of(s.m(e), 1, rows)
    return InternalAlgebra(s, mult, GradedMorphism._of(one, s, unit))


# ---------------------------------------------------------------------------
# support and restriction

def support(a):
    """Object indices i with component (i, i) of the carrier nonzero.

    The support theorem says every carrier grade then has both endpoints in
    the returned set; a violation is an internal inconsistency, not a
    property of the input.
    """
    cat = a.carrier.cat
    j = {cat.morphisms[g][0] for g in a.carrier.mult
         if cat.morphisms[g][0] == cat.morphisms[g][1]}
    for g in a.carrier.mult:
        s, t = cat.morphisms[g]
        if s not in j or t not in j:
            raise ConsistencyError(
                "support theorem violated: carrier grade %d has endpoint "
                "outside %s" % (g, sorted(j)))
    return j


def restriction_data(a, objs):
    """Restriction of a to the full subcategory on objs, with all the maps
    the verification equations mention.

    Returns a dict with the restricted algebra (unit rebased to the ambient
    1 through the summand projection), the carrier inclusion/projection,
    the unit-summand inclusion/projection, and the restricted unit
    1_J -> A_J.  The multiplication equation i m_J = m (i (x) i) is asserted
    unconditionally; the unit equation i u_J p_J = u is asserted whenever
    the ambient unit is supported inside objs, which the support theorem
    guarantees for objs containing the support.
    """
    cat = a.carrier.cat
    objs = set(objs)
    if not objs:
        raise ValueError("empty object set")
    keep = grades_within(cat, objs)
    sub = restrict_grades(a.carrier, keep)
    i_aj = restriction_inclusion(a.carrier, keep)
    p_aj = restriction_projection(a.carrier, keep)
    id_grades = {cat.identity_of[i] for i in objs}
    one = unit_object(cat)
    i_j = restriction_inclusion(one, id_grades)
    p_j = restriction_projection(one, id_grades)
    mult_on_j = compose(a.mult, tensor_mor(i_aj, i_aj))
    mult_j = compose(p_aj, mult_on_j)
    unit_j = compose(p_aj, compose(a.unit, i_j))
    if compose(i_aj, mult_j) != mult_on_j:
        raise ConsistencyError(
            "restricted multiplication does not include back")
    unit_inside = all(cat.morphisms[g][0] in objs for g in a.unit.blocks)
    if unit_inside and compose(i_aj, compose(unit_j, p_j)) != a.unit:
        raise ConsistencyError("restricted unit does not include back")
    algebra = InternalAlgebra(sub, mult_j, compose(unit_j, p_j))
    return {"algebra": algebra, "carrier_inclusion": i_aj,
            "carrier_projection": p_aj, "unit_inclusion": i_j,
            "unit_projection": p_j, "restricted_unit": unit_j}


# ---------------------------------------------------------------------------
# JSON forms

def algebra_to_spec(a):
    """Explicit JSON form; multiplication columns in canonical pair order."""
    return {"carrier": object_to_spec(a.carrier),
            "mult": _blocks_to_spec(_canonical_pair_blocks(a.carrier, a.mult)),
            "unit": _blocks_to_spec(a.unit.blocks)}


# Each generator form's keys; any other key is a SpecError.  unit_summand
# names its object by "i" or "object", not both.
_GENERATORS = {"unit_summand": ("gen", "i", "object"),
               "groupoid_algebra": ("gen", "objects"),
               "internal_end": ("gen", "object"),
               "sum": ("gen", "parts")}


def _require_products_fit(cat, mult):
    """SpecError unless every tensor product that building an algebra on
    a carrier of multiplicities mult and validating it lay out, at most
    the carrier's tensor cube, has at most gvec.MAX_PRODUCT_SLOTS slots.
    Counted from multiplicities, with no slot enumerated.  The square is
    counted too: a cube can be smaller, when a grade of the square
    composes with no carrier grade."""
    square = _mult_product(cat, mult, mult)
    most = max(sum(square.values()),
               sum(_mult_product(cat, square, mult).values()))
    if most > MAX_PRODUCT_SLOTS:
        raise SpecError("the algebra's tensor products would lay out %d "
                        "slots, more than the %d taken"
                        % (most, MAX_PRODUCT_SLOTS))


_EXPLICIT_KEYS = ("carrier", "mult", "unit")


def _check_generator_keys(gen, doc):
    """SpecError naming the first key of a generator form doc that its
    generator gen does not take, or an unknown gen."""
    keys = _GENERATORS.get(gen) if isinstance(gen, str) else None
    if keys is None:
        raise SpecError("unknown generator %r (expected one of %s)"
                        % (gen, ", ".join(_GENERATORS)))
    for key in doc:
        if key not in keys:
            raise SpecError("unknown key %r in a %r generator spec "
                            "(expected %s)" % (key, gen, ", ".join(keys)))
    if "i" in doc and "object" in doc:
        raise SpecError("a 'unit_summand' generator spec takes 'i' or "
                        "'object', not both")


def algebra_from_spec(cat, doc):
    """Parse the explicit form or a generator form.  An explicit form
    needs exactly the keys carrier, mult and unit (mult or unit may be
    null, for no blocks), and a generator form takes only its own keys
    (_GENERATORS); any other key, or an explicit key missing, is a
    SpecError that names it.  A carrier whose tensor square or cube would
    have more than gvec.MAX_PRODUCT_SLOTS slots is a SpecError, raised
    before any product is built."""
    if not isinstance(doc, dict):
        raise SpecError("algebra spec must be an object")
    if "gen" in doc:
        gen = doc["gen"]
        _check_generator_keys(gen, doc)
        try:
            if gen == "unit_summand":
                return unit_summand_algebra(cat, _spec_ints(
                    doc, "i" if "i" in doc else "object", 0, nullable=False))
            if gen == "groupoid_algebra":
                objs = _spec_ints(doc, "objects", 1, nullable=False)
                _require_products_fit(
                    cat, dict.fromkeys(grades_within(cat, objs), 1))
                return groupoid_algebra(cat, objs)
            if gen == "internal_end":
                x = object_from_spec(cat, doc["object"])
                inv = cat.inverse_of
                _require_products_fit(cat, _mult_product(
                    cat, x.mult, {inv[g]: m for g, m in x.mult.items()}))
                return internal_end(x)
            if gen == "sum":
                parts = [algebra_from_spec(cat, p) for p in doc["parts"]]
                if not parts:
                    raise SpecError("empty sum")
                mult = {}
                for p in parts:
                    for g, m in p.carrier.mult.items():
                        mult[g] = mult.get(g, 0) + m
                _require_products_fit(cat, mult)
                out = parts[0]
                for p in parts[1:]:
                    out = direct_sum_algebra(out, p)
                return out
        except (KeyError, TypeError, ValueError, IndexError,
                OverflowError) as exc:
            raise SpecError("bad %r generator spec: %s" % (gen, exc)) from exc
    for key in doc:
        if key not in _EXPLICIT_KEYS:
            raise SpecError("unknown algebra spec key %r (expected gen, or "
                            "carrier, mult and unit)" % (key,))
    for key in _EXPLICIT_KEYS:
        if key not in doc:
            raise SpecError("algebra spec has no %r" % key)
    try:
        carrier = object_from_spec(cat, doc["carrier"])
        _require_products_fit(cat, carrier.mult)
        cxc = tensor_obj(carrier, carrier)
        mult = GradedMorphism(cxc, carrier, _blocks_from_spec(doc["mult"]))
        unit = GradedMorphism(unit_object(cat), carrier,
                              _blocks_from_spec(doc["unit"]))
        return InternalAlgebra(carrier, mult, unit)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SpecError("bad algebra spec: %s" % exc) from exc
    except ShapeError as exc:
        raise SpecError("algebra spec shapes: %s" % exc) from exc
