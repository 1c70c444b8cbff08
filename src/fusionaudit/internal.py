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
    _blocks_from_spec, _blocks_to_spec, _code_runs, _dual_layout,
    _mult_product, _transposed, compose, direct_sum_obj,
    direct_sum_with_maps, graded_object,
    identity_mor, left_dual, object_from_spec, object_to_spec,
    restrict_grades, restriction_inclusion, restriction_projection,
    tensor_mor, tensor_mult, tensor_obj, total_mult, unit_object,
    unit_summand)

__all__ = [
    "InternalAlgebra", "InternalCoalgebra",
    "validate_algebra", "validate_coalgebra",
    "unit_summand_algebra",
    "groupoid_algebra", "internal_end",
    "dualize_algebra", "dualize_coalgebra",
    "direct_sum_algebra", "restriction_data",
    "support", "grades_within",
    "algebra_to_spec", "algebra_from_spec",
]

_ONE = Fraction(1)


class InternalAlgebra:
    """Carrier with multiplication carrier (x) carrier -> carrier and unit
    1 -> carrier; axioms are checked by validate_algebra, not here.

    The multiplication is read through a property over one slot, which
    holds the map or, from a producer that builds lazily, a zero-argument
    builder; the first read runs the builder and puts its result in the
    slot.  An audit decides its conditions from the unit and the carrier,
    so a multiplication no check reads is never built."""

    __slots__ = ("carrier", "_mult", "unit")

    def __init__(self, carrier, mult, unit):
        if mult.target != carrier or not _is_square(mult.source, carrier):
            raise ShapeError("multiplication endpoints do not match carrier")
        if unit.source != unit_object(carrier.cat) or unit.target != carrier:
            raise ShapeError("unit endpoints do not match carrier")
        self.carrier = carrier
        self._mult = mult
        self.unit = unit

    @classmethod
    def _of(cls, carrier, mult, unit):
        """Algebra with the given structure maps, unchecked; mult may be a
        zero-argument builder of the multiplication, run on first read.

        The caller keeps the invariant the constructor checks: mult (or
        what its builder returns) is carrier (x) carrier -> carrier and
        unit is 1 -> carrier.  The engine's producers build through here,
        from maps whose endpoints they laid out themselves, so none walks
        tensor_mult over the carrier's grade pairs; the constructor stays
        for public input.  The producers are held to it by
        test_unchecked_producers_match_validating_constructors."""
        a = object.__new__(cls)
        a.carrier = carrier
        a._mult = mult
        a.unit = unit
        return a

    @property
    def mult(self):
        m = self._mult
        if callable(m):
            m = self._mult = m()
        return m

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
    counit carrier -> 1; the comultiplication is read through a property
    over a slot that may hold a builder, as InternalAlgebra.mult."""

    __slots__ = ("carrier", "_comult", "counit")

    def __init__(self, carrier, comult, counit):
        if comult.source != carrier \
                or not _is_square(comult.target, carrier):
            raise ShapeError(
                "comultiplication endpoints do not match carrier")
        if counit.target != unit_object(carrier.cat) \
                or counit.source != carrier:
            raise ShapeError("counit endpoints do not match carrier")
        self.carrier = carrier
        self._comult = comult
        self.counit = counit

    @classmethod
    def _of(cls, carrier, comult, counit):
        """Coalgebra with the given structure maps, unchecked, as
        InternalAlgebra._of: comult (or what its builder returns) is
        carrier -> carrier (x) carrier and counit is carrier -> 1."""
        c = object.__new__(cls)
        c.carrier = carrier
        c._comult = comult
        c.counit = counit
        return c

    @property
    def comult(self):
        m = self._comult
        if callable(m):
            m = self._comult = m()
        return m

    def is_zero(self):
        return self.carrier.is_zero()

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

def _pair_stretches(carrier):
    """Per grade h of carrier (x) carrier: the stretches (g1, p, q) of
    memory positions p..q-1 that each run of the carrier's slots feeds,
    sorted, so in canonical order (composable grade pairs (g1, g2) sorted
    by enumeration index, slot pairs row-major).

    One walk over the carrier's slots in code order, taken in maximal runs
    of one grade as _tensor_layout takes them (gvec._code_runs), meets the
    square's slots in memory order, so a slot's position is a running
    count per grade, and the square is not laid out.  A run of n slots at
    g1 and a right grade g2 of n2 slots feed one stretch of n * n2
    consecutive positions of grade h = g1.g2, row-major; the next run at
    g1 feeds the next rows.  Within h, g1 fixes g2 (a groupoid cancels),
    so the stretches sorted by (g1, position) are canonical order."""
    items = tuple(carrier.layout.items())
    table = carrier.cat.compose_table
    at, stretches = {}, {}
    for g1, cs1 in _code_runs(items)[0]:
        n = len(cs1)
        row = table[g1]
        for g2, cs2 in items:
            h = row[g2]
            if h is None:
                continue
            p = at.get(h, 0)
            q = at[h] = p + n * len(cs2)
            dst = stretches.get(h)
            if dst is None:
                dst = stretches[h] = []
            dst.append((g1, p, q))
    for parts in stretches.values():
        parts.sort()
    return stretches


def _stretch_columns(parts):
    cols = []
    for _, p, q in parts:
        cols += range(p, q)
    return cols


def _reordered_columns(carrier):
    """Per grade of carrier (x) carrier: the memory position of every
    slot, listed in canonical order (see _pair_stretches), or None at each
    grade whose memory order is canonical already: its sorted stretches
    tile 0, 1, ... in order, as they do at every grade of an atomic
    carrier with its grades in index order.  A block at such a grade
    needs no re-indexing."""
    out = {}
    for h, parts in _pair_stretches(carrier).items():
        end = 0
        for _, p, q in parts:
            if p != end:
                out[h] = _stretch_columns(parts)
                break
            end = q
        else:
            out[h] = None
    return out


def _canonical_pair_blocks(carrier, mult):
    cols = _reordered_columns(carrier)
    return {g: b if cols[g] is None else b.columns(cols[g])
            for g, b in mult.blocks.items()}


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
    return InternalAlgebra._of(carrier, identity_mor(carrier), unit)


def grades_within(cat, objs):
    objs = set(objs)
    return {g for g, (s, t) in enumerate(cat.morphisms)
            if s in objs and t in objs}


def groupoid_algebra(cat, objs):
    """Convolution algebra on the grades with both endpoints in objs:
    multiplicity one everywhere, structure constants all one, unit the sum
    of the identity-grade slots.  The multiplication, which lays out
    carrier (x) carrier, is built on first read."""
    objs = set(objs)
    if not objs:
        raise ValueError("empty object set")
    if any(not 0 <= i < cat.object_count for i in objs):
        raise IndexError("object index out of range")
    carrier = graded_object(cat, {g: 1 for g in grades_within(cat, objs)})

    def mult():
        cxc = tensor_obj(carrier, carrier)
        return GradedMorphism._of(cxc, carrier, {
            h: Matrix._of(1, m, (tuple([(j, _ONE) for j in range(m)]),))
            for h, m in cxc.mult.items()})
    unit_block = Matrix._of(1, 1, (((0, _ONE),),))
    unit = GradedMorphism._of(unit_object(cat), carrier, {
        cat.identity_of[i]: unit_block for i in objs})
    return InternalAlgebra._of(carrier, mult, unit)


def internal_end(x):
    """x (x) dual(x) with multiplication id (x) ev (x) id and unit coev."""
    if x.is_zero():
        raise ValueError("internal end of the zero object")
    d, ev, coev = left_dual(x)
    carrier = tensor_obj(x, d)
    mult = tensor_mor(tensor_mor(identity_mor(x), ev), identity_mor(d))
    return InternalAlgebra._of(carrier, mult, coev)


def dualize_algebra(a):
    """Transpose through duality.  With (d, rank) = _dual_layout(carrier),
    the comultiplication is dual(mult): d -> dual(carrier (x) carrier),
    and the counit is dual(unit): d -> 1, the unit's dual being the unit
    slot for slot (its one empty word at each identity grade, code 0).
    Both are dual_morphism's maps, with d the comultiplication's source.
    The counit is built here; the comultiplication, and with it a.mult,
    on its first read."""
    d, rank = _dual_layout(a.carrier)
    one = a.unit.source

    def comult():
        mult = a.mult
        dd, cols = _dual_layout(mult.source)
        return _transposed(mult, d, dd, cols, rank)
    return InternalCoalgebra._of(d, comult,
                                 _transposed(a.unit, d, one,
                                             _unit_rank(one), rank))


def dualize_coalgebra(c):
    """The mirror of dualize_algebra: mult is dual(comult):
    dual(carrier (x) carrier) -> d, built on first read, and unit is
    dual(counit): 1 -> d."""
    d, rank = _dual_layout(c.carrier)
    one = c.counit.target

    def mult():
        comult = c.comult
        dd, cols = _dual_layout(comult.target)
        return _transposed(comult, dd, d, rank, cols)
    return InternalAlgebra._of(d, mult,
                               _transposed(c.counit, one, d, rank,
                                           _unit_rank(one)))


def _unit_rank(one):
    """The unit's dual ranks: its slot at each identity grade e stays
    slot 0 at inv(e) = e."""
    return dict.fromkeys(one.mult, (0,))


def direct_sum_algebra(a, b):
    """Product algebra: componentwise multiplication, zero across summands,
    unit the pair of units.

    At each grade a's slots come first in the sum s and b's follow
    (direct_sum_obj), so the unit is a's rows stacked on b's.  The
    multiplication is i_a m_a (p_a (x) p_a) + i_b m_b (p_b (x) p_b), with
    the injections and projections of direct_sum_with_maps, rebased onto
    s; it is built, and with it the summands', on first read.

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

    def mult():
        _, ia, ib, pa, pb = direct_sum_with_maps(ca, cb)
        m = (compose(ia, compose(a.mult, tensor_mor(pa, pa)))
             + compose(ib, compose(b.mult, tensor_mor(pb, pb))))
        return GradedMorphism._of(m.source, s, m.blocks)
    one = a.unit.source
    unit = {}
    for e in one.mult:
        ua, ub = a.unit.blocks.get(e), b.unit.blocks.get(e)
        if ua is None and ub is None:
            continue
        rows = ua.sparse if ua is not None else ((),) * ca.m(e)
        rows += ub.sparse if ub is not None else ((),) * cb.m(e)
        unit[e] = Matrix._of(s.m(e), 1, rows)
    return InternalAlgebra._of(s, mult, GradedMorphism._of(one, s, unit))


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
    1_J -> A_J.  The unit equation i u_J p_J = u is asserted whenever the
    ambient unit is supported inside objs, which the support theorem
    guarantees for objs containing the support.  The multiplication
    equation i m_J = m (i (x) i) is asserted whenever the restriction
    drops a carrier grade.  When objs hold the carrier's support, as every
    object set does on a one-object groupoid, it drops nothing: the
    restricted carrier is a.carrier itself, the inclusion and projection
    are identities, and the equation would set a.mult against itself.
    The restricted algebra then reads a's multiplication slot, and
    nothing here reads or builds the multiplication.
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
    unit_j = compose(p_aj, compose(a.unit, i_j))
    if sub is a.carrier:
        def mult_j():  # the corner's first read forces a's, once
            return a.mult
    else:
        mult_on_j = compose(a.mult, tensor_mor(i_aj, i_aj))
        mult_j = compose(p_aj, mult_on_j)
        if compose(i_aj, mult_j) != mult_on_j:
            raise ConsistencyError(
                "restricted multiplication does not include back")
    unit_inside = all(cat.morphisms[g][0] in objs for g in a.unit.blocks)
    if unit_inside and compose(i_aj, compose(unit_j, p_j)) != a.unit:
        raise ConsistencyError("restricted unit does not include back")
    algebra = InternalAlgebra._of(sub, mult_j, compose(unit_j, p_j))
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
