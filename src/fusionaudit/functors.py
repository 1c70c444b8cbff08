"""Tensor functors into module categories, their separability analysis,
and the subset-indexed inclusion/projection functors.

The free right-module functor sends m to (m (x) A, id (x) mult); its
separability properties are all governed by the unit u_A: regular gives
semiseparable, split-mono gives separable, split-epi gives naturally full.
Verdicts carry the witnessing morphisms so every claim can be re-verified
by composing matrices.

Universally quantified functor properties (faithful, Maschke, dual
Maschke, conservative) are decided by the dead-simple criterion: blocks of
f (x) id_A are block-diagonal over grade pairs with diagonal pieces
B_g (x) I, so the functor loses information exactly at the simples killed
by tensoring.  A dead simple yields concrete counterexample morphisms;
otherwise the property holds exactly, and a seeded sample re-verifies it.
"""

from bisect import bisect_left
from fractions import Fraction

from .corpus import random_morphism, random_object
from .errors import ConsistencyError, ShapeError
from .exactlin import Matrix
from .gvec import (
    GradedMorphism, _atomic_object, compose, hom_basis, identity_mor, is_epi,
    is_iso, is_mono, mono_epi, restrict_grades, restriction_inclusion,
    restriction_projection, simple_object, tensor_mor, tensor_obj,
    unit_object, unit_summand, zero_mor, zero_object)
from .internal import grades_within, restriction_data, support
from .morphcalc import _split_image, find_retraction, find_section

__all__ = [
    "ModuleObject",
    "free_module", "induce_mor", "validate_module", "is_module_morphism",
    "separability_verdict", "coseparability_verdict", "idempotent_e",
    "check_section_identity", "check_cosection_identity",
    "is_faithful_tensor", "is_faithful_cotensor",
    "reflection_checks", "coreflection_checks", "check_inclusion_frobenius",
    "ProjectionFunctor", "check_projection_lax_colax", "check_rj_algebra",
    "frobenius_pair_check", "restricted_separability",
]

_ONE = Fraction(1)


class ModuleObject:
    """Right module: carrier with action carrier (x) A -> carrier."""

    __slots__ = ("carrier", "action")

    def __init__(self, carrier, action):
        self.carrier = carrier
        self.action = action

    def __eq__(self, other):
        return (isinstance(other, ModuleObject)
                and self.carrier == other.carrier
                and self.action == other.action)

    def __hash__(self):
        return hash((self.carrier, self.action))


# ---------------------------------------------------------------------------
# free modules

def free_module(m, a):
    return ModuleObject(tensor_obj(m, a.carrier),
                        tensor_mor(identity_mor(m), a.mult))


def induce_mor(f, a):
    """The tensor functor on morphisms: f (x) id_A."""
    return tensor_mor(f, identity_mor(a.carrier))


def validate_module(mod, a):
    failures = []
    idm = identity_mor(mod.carrier)
    ida = identity_mor(a.carrier)
    try:
        lhs = compose(mod.action, tensor_mor(mod.action, ida))
        rhs = compose(mod.action, tensor_mor(idm, a.mult))
        if lhs != rhs:
            failures.append("action associativity fails at grades %s"
                            % sorted((lhs - rhs).blocks))
        un = compose(mod.action, tensor_mor(idm, a.unit))
        if un != idm:
            failures.append("action unit law fails at grades %s"
                            % sorted((un - idm).blocks))
    except ShapeError as exc:
        failures.append("structural: %s" % exc)
    return {"ok": not failures, "zero": mod.carrier.is_zero(),
            "failures": failures}


def is_module_morphism(g, src, tgt, a):
    ida = identity_mor(a.carrier)
    return compose(tgt.action, tensor_mor(g, ida)) == compose(g, src.action)


# ---------------------------------------------------------------------------
# separability

def separability_verdict(a):
    """Split analysis of u_A, with the invariant
    separable == semiseparable and idempotent_trivial enforced.  u_A is
    semiseparable when u w u == u for the verdict's one weak inverse w.
    u_A is factored once, u = phi psi with psi' the section of psi and
    phi' the retraction of phi: w = psi' phi', and the unit idempotent,
    whose triviality decides separability, is psi' psi (independent of the
    section: per identity grade it is 1 or 0 as the image does or does not
    reach that summand)."""
    if a.is_zero():
        raise ValueError("zero algebra")
    r = find_retraction(a.unit)
    s = find_section(a.unit)
    psi, _, sec, ret = _split_image(a.unit)
    w = compose(sec, ret)
    semi = compose(compose(a.unit, w), a.unit) == a.unit
    trivial = compose(sec, psi) == identity_mor(a.unit.source)
    verdict = {
        "separable": r is not None,
        "naturally_full": s is not None,
        "semiseparable": semi,
        "idempotent_trivial": trivial,
        "retraction": r,
        "section": s,
        "weak_inverse": w,
    }
    if verdict["separable"] and not semi:
        raise ConsistencyError("separable but not semiseparable")
    if verdict["naturally_full"] and not semi:
        raise ConsistencyError("naturally full but not semiseparable")
    if verdict["separable"] != (semi and trivial):
        raise ConsistencyError(
            "separability disagrees with the unit idempotent")
    return verdict


def coseparability_verdict(c):
    """Mirror for a coalgebra: the counit must split on the other side
    (separable <=> split-epi, naturally full <=> split-mono); the counit
    idempotent is phi phi'."""
    if c.is_zero():
        raise ValueError("zero coalgebra")
    s = find_section(c.counit)
    r = find_retraction(c.counit)
    _, phi, sec, ret = _split_image(c.counit)
    w = compose(sec, ret)
    semi = compose(compose(c.counit, w), c.counit) == c.counit
    trivial = compose(phi, ret) == identity_mor(c.counit.target)
    verdict = {
        "separable": s is not None,
        "naturally_full": r is not None,
        "semiseparable": semi,
        "idempotent_trivial": trivial,
        "section": s,
        "retraction": r,
        "weak_inverse": w,
    }
    if verdict["separable"] != (semi and trivial):
        raise ConsistencyError(
            "coseparability disagrees with the counit idempotent")
    return verdict


def idempotent_e(a, m):
    """Component at m of the idempotent natural endotransformation of the
    identity attached to - (x) A: id_m tensored with the unit idempotent.
    A unit idempotent equal to the identity (A separable) is replaced by
    identity_mor, so this product, and id_n tensored with the result,
    take tensor_mor's identity path and lay out no slot."""
    psi, _, sec, _ = _split_image(a.unit)
    e, one = compose(sec, psi), identity_mor(psi.source)
    return tensor_mor(identity_mor(m), one if e == one else e)


def check_section_identity(a, r, samples, rng=None):
    """P(g) = (id (x) r) g (id (x) u_A) must send f (x) A back to f for
    every sampled f; naturality of P in both arguments is checked when an
    rng is supplied (on module morphisms built through the adjunction)."""
    if compose(r, a.unit) != identity_mor(a.unit.source):
        raise ValueError("not a retraction of the unit")
    ida = identity_mor(a.carrier)

    def p(g, m, n):
        return compose(tensor_mor(identity_mor(n), r),
                       compose(g, tensor_mor(identity_mor(m), a.unit)))

    for f in samples:
        if p(induce_mor(f, a), f.source, f.target) != f:
            return False
    if rng is not None:
        cat = a.carrier.cat
        for _ in range(8):
            m = random_object(cat, rng, max_total=3)
            n = random_object(cat, rng, max_total=3)
            h = random_morphism(m, tensor_obj(n, a.carrier), rng)
            g = compose(tensor_mor(identity_mor(n), a.mult),
                        tensor_mor(h, ida))
            m2 = random_object(cat, rng, max_total=3)
            n2 = random_object(cat, rng, max_total=3)
            s = random_morphism(m2, m, rng)
            t = random_morphism(n, n2, rng)
            if p(compose(g, induce_mor(s, a)), m2, n) != compose(p(g, m, n), s):
                return False
            if p(compose(induce_mor(t, a), g), m, n2) != compose(t, p(g, m, n)):
                return False
    return True


def check_cosection_identity(c, s, samples, rng=None):
    """Mirror: P(g) = (id (x) counit) g (id (x) s) with s a section of the
    counit; P must send f (x) C back to f."""
    if compose(c.counit, s) != identity_mor(c.counit.target):
        raise ValueError("not a section of the counit")

    def p(g, m, n):
        return compose(tensor_mor(identity_mor(n), c.counit),
                       compose(g, tensor_mor(identity_mor(m), s)))

    for f in samples:
        if p(induce_mor(f, c), f.source, f.target) != f:
            return False
    if rng is not None:
        cat = c.carrier.cat
        for _ in range(8):
            m = random_object(cat, rng, max_total=3)
            n = random_object(cat, rng, max_total=3)
            g = random_morphism(tensor_obj(m, c.carrier),
                                tensor_obj(n, c.carrier), rng)
            m2 = random_object(cat, rng, max_total=3)
            s2 = random_morphism(m2, m, rng)
            if p(compose(g, induce_mor(s2, c)), m2, n) \
                    != compose(p(g, m, n), s2):
                return False
    return True


# ---------------------------------------------------------------------------
# functor-level properties

def _dead_simple_grade(cat, carrier):
    """The smallest grade whose simple dies under - (x) carrier, or None.

    Grade h of S_g (x) carrier is spanned by the pairs (g, g2) with g2 a
    grade of the carrier and g g2 = h, so S_g (x) carrier = 0 exactly when
    g composes with no carrier grade.  The composition table decides that
    without building the product."""
    grades = tuple(carrier.mult)
    for g, row in enumerate(cat.compose_table):
        if all(row[g2] is None for g2 in grades):
            return g
    return None


def _faithful_report(cat, carrier, rng, samples, tag):
    dead = _dead_simple_grade(cat, carrier)
    if dead is not None:
        s = simple_object(cat, dead)
        f = identity_mor(s)
        if not tensor_mor(f, identity_mor(carrier)).is_zero():
            raise ConsistencyError("dead simple produced a live morphism")
        return {"faithful": False,
                "witness": {"simple_grade": dead, "morphism": f}}
    if rng is not None:
        for _ in range(samples):
            v = random_object(cat, rng, max_total=3)
            w = random_object(cat, rng, max_total=3)
            f = random_morphism(v, w, rng)
            if not f.is_zero() \
                    and tensor_mor(f, identity_mor(carrier)).is_zero():
                raise ConsistencyError(
                    "%s claimed faithful but a sampled morphism dies" % tag)
    return {"faithful": True, "witness": None}


def is_faithful_tensor(a, rng=None, samples=8):
    if a.is_zero():
        raise ValueError("zero algebra")
    return _faithful_report(a.carrier.cat, a.carrier, rng, samples,
                            "tensor functor")


def is_faithful_cotensor(c, rng=None, samples=8):
    if c.is_zero():
        raise ValueError("zero coalgebra")
    return _faithful_report(c.carrier.cat, c.carrier, rng, samples,
                            "cotensor functor")


def _reflection_report(cat, carrier, rng, samples):
    """Maschke / dual Maschke / conservative for - (x) carrier.

    With a dead simple S the three counterexamples are the maps between S
    and 0: they lose nothing after tensoring but are not split on the
    source side.  With no dead simple the properties hold exactly; the
    sampled morphisms re-verify the reflection implications.  Over Q a
    morphism is split mono iff mono, split epi iff epi, and iso iff both,
    so one rank per block (mono_epi) decides all three properties of a
    sample's f (x) id, and those of f are ranked only when f (x) id is
    split on some side.
    """
    idc = identity_mor(carrier)
    dead = _dead_simple_grade(cat, carrier)
    if dead is not None:
        s = simple_object(cat, dead)
        z = zero_object(cat)
        to_zero = zero_mor(s, z)
        from_zero = zero_mor(z, s)
        killed = tensor_mor(to_zero, idc)
        if not is_mono(killed) or is_mono(to_zero):
            raise ConsistencyError("Maschke witness failed to verify")
        if not is_epi(tensor_mor(from_zero, idc)) or is_epi(from_zero):
            raise ConsistencyError("dual Maschke witness failed to verify")
        if not is_iso(killed) or is_iso(to_zero):
            raise ConsistencyError("conservativity witness failed to verify")
        return {
            "maschke": {"holds": False, "witness": to_zero},
            "dual_maschke": {"holds": False, "witness": from_zero},
            "conservative": {"holds": False, "witness": to_zero},
        }
    if rng is not None:
        for _ in range(samples):
            v = random_object(cat, rng, max_total=3)
            w = random_object(cat, rng, max_total=3)
            f = random_morphism(v, w, rng)
            mono, epi = mono_epi(tensor_mor(f, idc))
            if not (mono or epi):
                continue
            f_mono, f_epi = mono_epi(f)
            if mono and not f_mono:
                raise ConsistencyError("split-mono reflection failed")
            if epi and not f_epi:
                raise ConsistencyError("split-epi reflection failed")
            if mono and epi and not (f_mono and f_epi):
                raise ConsistencyError("isomorphism reflection failed")
    return {
        "maschke": {"holds": True, "witness": None},
        "dual_maschke": {"holds": True, "witness": None},
        "conservative": {"holds": True, "witness": None},
    }


def reflection_checks(a, rng=None, samples=8):
    if a.is_zero():
        raise ValueError("zero algebra")
    return _reflection_report(a.carrier.cat, a.carrier, rng, samples)


def coreflection_checks(c, rng=None, samples=8):
    if c.is_zero():
        raise ValueError("zero coalgebra")
    return _reflection_report(c.carrier.cat, c.carrier, rng, samples)


# ---------------------------------------------------------------------------
# inclusion and projection functors

def _zero_one(rows, cols, ones):
    """The rows x cols matrix whose row i holds a single 1, in column
    ones[i], for every row i in ones, and is zero otherwise.  When that is
    the identity (every row i has its 1 in column i), the interned
    Matrix.identity(rows) is returned, so later products and tensor
    products with it take their identity fast paths.  That covers R_J's
    lax and colax maps on objects supported in J, and the lax image of a
    corner restricted to its own support."""
    if rows == cols == len(ones) and all(i == j for i, j in ones.items()):
        return Matrix.identity(rows)
    data = [()] * rows
    for i, j in ones.items():
        data[i] = ((j, _ONE),)
    return Matrix._of(rows, cols, tuple(data))


def _random_sub_object(cat, objs, rng, max_total=3):
    """random_object(cat, rng, max_total) restricted to the grades inside
    objs x objs: the same draws, counting only the grades kept, built as
    the atomic object of those multiplicities.  That has the same words as
    the restriction, coded as every atomic object of those multiplicities
    is, so its tensor products share memoised slot enumerations with
    theirs."""
    grades = grades_within(cat, objs)
    total = rng.randrange(1, max_total + 1)
    count = cat.morphism_count
    mult = {}
    for _ in range(total):
        g = rng.randrange(count)
        if g in grades:
            mult[g] = mult.get(g, 0) + 1
    return _atomic_object(cat, mult)


def check_inclusion_frobenius(cat, objs, rng, samples=6):
    """Separable Frobenius structure of the inclusion, checked literally:
    unitality (projection and inclusion of 1 act as identities on
    subcategory objects), both Frobenius squares, and phi psi = id.  The
    inclusion is the identity on objects and morphisms with identity
    binary structure maps; its unit maps are p_J and i_J."""
    rj = ProjectionFunctor(cat, objs)
    phi0, psi0 = rj.p_j, rj.i_j
    if compose(phi0, psi0) != identity_mor(rj.one_j):
        return False
    for _ in range(samples):
        x = _random_sub_object(cat, objs, rng)
        y = _random_sub_object(cat, objs, rng)
        z = _random_sub_object(cat, objs, rng)
        idx = identity_mor(x)
        # unit axioms, lax and colax, both sides
        if tensor_mor(phi0, idx) != idx or tensor_mor(idx, phi0) != idx:
            return False
        if tensor_mor(psi0, idx) != idx or tensor_mor(idx, psi0) != idx:
            return False
        # Frobenius squares with identity binary maps: both composites of
        # phi(x, y) (x) id_z and id_x (x) psi(y, z)
        xy, yz = tensor_obj(x, y), tensor_obj(y, z)
        phi_xy_z = tensor_mor(identity_mor(xy), identity_mor(z))
        x_psi_yz = tensor_mor(idx, identity_mor(yz))
        rhs = compose(identity_mor(tensor_obj(xy, z)),
                      identity_mor(tensor_obj(x, yz)))
        if (compose(phi_xy_z, x_psi_yz) != rhs
                or compose(x_psi_yz, phi_xy_z) != rhs):
            return False
    return True


class ProjectionFunctor:
    """R(X) = 1_J (x) X (x) 1_J with its lax and colax structure maps.

    Unit slots carry the empty word, so R(f) is f's blocks on the grades
    inside objs x objs, and the unit maps are R(p_J) and R(i_J).  The lax
    map id (x) i_J (x) i_J (x) id is R(id_x (x) i_J (x) id_y), since
    1_J (x) 1_J = 1_J strictly; the colax map uses p_J instead.  No
    arithmetic is needed for either: as laid-out objects
    R(x) (x) R(y) = R(x (x) 1_J (x) y), the slots of x (x) y that pass
    through an object of J, with the same words.  On each grade, phi(x, y)
    is therefore the 0/1 map sending every slot of R(x) (x) R(y) to the
    slot of R(x (x) y) with the same word, and psi(x, y) is its transpose.
    Both are built from the two slot layouts alone: match(x, y) pairs the
    words once, and phi and psi each read a given match, so a caller that
    needs both maps of one pair matches it once."""

    __slots__ = ("cat", "objects", "grades", "one_j", "i_j", "p_j")

    def __init__(self, cat, objs):
        objs = set(objs)
        if not objs:
            raise ValueError("empty object set")
        self.cat = cat
        self.objects = frozenset(objs)
        self.grades = grades_within(cat, objs)
        self.one_j = unit_summand(cat, objs)
        id_grades = {cat.identity_of[i] for i in objs}
        one = unit_object(cat)
        self.i_j = restriction_inclusion(one, id_grades)
        self.p_j = restriction_projection(one, id_grades)

    def obj(self, x):
        return restrict_grades(x, self.grades)

    def mor(self, f):
        return GradedMorphism._of(self.obj(f.source), self.obj(f.target),
                                  {g: b for g, b in f.blocks.items()
                                   if g in self.grades})

    def match(self, x, y):
        """(R(x) (x) R(y), R(x (x) y), rows) where rows[h][c] is the slot
        of R(x (x) y) at grade h whose word is that of slot c of
        R(x) (x) R(y).

        A restriction keeps its object's factor sequence, and a tensor
        product concatenates its factors' sequences, so both objects are
        coded over x.seq + y.seq, alphabet for alphabet, and their codes
        agree exactly where their words do.  (An object without slots is
        coded over the empty sequence, but then R(x) (x) R(y) has no slot
        either.)  The slots of R(x) (x) R(y) at h are some of those of
        R(x (x) y), whose codes are sorted, so each is found by
        bisection.  A code that bisection does not find, which breaks that
        argument, is a ConsistencyError.

        When x and y lie inside J, as every object does on a one-object
        groupoid, R keeps them and x (x) y whole (restrict_grades returns
        its argument), and both products are one memoised object: then
        R(x) (x) R(y) is R(x (x) y), and every row is the identity, with
        nothing bisected."""
        small = tensor_obj(self.obj(x), self.obj(y))
        big = self.obj(tensor_obj(x, y))
        if small is big:
            return small, big, {h: list(range(m))
                                for h, m in small.mult.items()}
        rows = {}
        for h, codes in small.layout.items():
            bcodes = big.layout[h]
            row = rows[h] = [bisect_left(bcodes, c) for c in codes]
            if (row[-1] == len(bcodes)
                    or tuple(map(bcodes.__getitem__, row)) != codes):
                raise ConsistencyError("a slot of R(x) (x) R(y) at grade %d "
                                       "is not a slot of R(x (x) y)" % h)
        return small, big, rows

    def phi(self, match):
        """R(x) (x) R(y) -> R(x (x) y), for match = self.match(x, y); the
        identity, with no row read, when the two are one object."""
        small, big, rows = match
        if small is big:
            return identity_mor(small)
        blocks = {}
        for h, r in rows.items():
            blocks[h] = _zero_one(big.mult[h], len(r),
                                  {i: c for c, i in enumerate(r)})
        return GradedMorphism._of(small, big, blocks)

    def psi(self, match):
        """R(x (x) y) -> R(x) (x) R(y), for match = self.match(x, y); the
        identity when the two are one object, as phi."""
        small, big, rows = match
        if small is big:
            return identity_mor(small)
        blocks = {}
        for h, r in rows.items():
            blocks[h] = _zero_one(len(r), big.mult[h], dict(enumerate(r)))
        return GradedMorphism._of(big, small, blocks)

    def phi0(self):
        return self.mor(self.p_j)

    def psi0(self):
        return self.mor(self.i_j)


def check_projection_lax_colax(cat, objs, rng, samples=6):
    """Lax hexagon and unitality, colax duals, and naturality of both
    structure maps, all as exact equalities on sampled objects.  Each of a
    sample's seven object pairs is word-matched once, for phi and psi."""
    rj = ProjectionFunctor(cat, objs)
    one = unit_object(cat)
    phi0, psi0 = rj.phi0(), rj.psi0()
    if compose(psi0, phi0) != identity_mor(rj.one_j):
        return False
    for _ in range(samples):
        x = random_object(cat, rng, max_total=3)
        y = random_object(cat, rng, max_total=3)
        z = random_object(cat, rng, max_total=3)
        rx = rj.obj(x)
        idrx, idrz = identity_mor(rx), identity_mor(rj.obj(z))
        xy = rj.match(x, y)
        xy_z = rj.match(tensor_obj(x, y), z)
        x_yz = rj.match(x, tensor_obj(y, z))
        yz = rj.match(y, z)
        phi_xy, psi_xy = rj.phi(xy), rj.psi(xy)
        # lax associativity
        lhs = compose(rj.phi(xy_z), tensor_mor(phi_xy, idrz))
        rhs = compose(rj.phi(x_yz), tensor_mor(idrx, rj.phi(yz)))
        if lhs != rhs:
            return False
        # colax coassociativity
        lhs = compose(tensor_mor(psi_xy, idrz), rj.psi(xy_z))
        rhs = compose(tensor_mor(idrx, rj.psi(yz)), rj.psi(x_yz))
        if lhs != rhs:
            return False
        # unitality (unit constraints are identities here)
        one_x, x_one = rj.match(one, x), rj.match(x, one)
        if compose(rj.phi(one_x), tensor_mor(phi0, idrx)) != idrx:
            return False
        if compose(rj.phi(x_one), tensor_mor(idrx, phi0)) != idrx:
            return False
        if compose(tensor_mor(psi0, idrx), rj.psi(one_x)) != idrx:
            return False
        if compose(tensor_mor(idrx, psi0), rj.psi(x_one)) != idrx:
            return False
        # naturality in both arguments
        x2 = random_object(cat, rng, max_total=3)
        y2 = random_object(cat, rng, max_total=3)
        f = random_morphism(x, x2, rng)
        g = random_morphism(y, y2, rng)
        x2y2 = rj.match(x2, y2)
        r_fg = rj.mor(tensor_mor(f, g))
        rf_rg = tensor_mor(rj.mor(f), rj.mor(g))
        if compose(r_fg, phi_xy) != compose(rj.phi(x2y2), rf_rg):
            return False
        if compose(rf_rg, psi_xy) != compose(rj.psi(x2y2), r_fg):
            return False
    return True


def check_rj_algebra(a, objs, data):
    """The lax image of an algebra under the projection matches the corner
    restriction data = restriction_data(a, objs) computed directly.

    The units are always compared.  The multiplications are compared when
    the projection drops a carrier grade.  When it keeps the carrier whole
    (rj.obj returns it), phi on its square is the identity and the corner
    multiplication is a's own, so that comparison would set a.mult against
    itself, and it is skipped: a.mult is not read."""
    rj = ProjectionFunctor(a.carrier.cat, objs)
    if compose(rj.mor(a.unit), rj.phi0()) != data["restricted_unit"]:
        return False
    if rj.obj(a.carrier) is a.carrier:
        return True
    mult_lax = compose(rj.mor(a.mult),
                       rj.phi(rj.match(a.carrier, a.carrier)))
    return mult_lax == data["algebra"].mult


def frobenius_pair_check(cat, objs, rng, samples=6):
    """Both hom-space bijections of the adjunctions between inclusion and
    projection: restriction against the carrier inclusion/projection, on
    full hom bases, plus naturality squares on sampled morphisms."""
    rj = ProjectionFunctor(cat, objs)
    for _ in range(samples):
        b = _random_sub_object(cat, objs, rng)
        a = random_object(cat, rng, max_total=3)
        ra = rj.obj(a)
        inc = restriction_inclusion(a, rj.grades)
        proj = restriction_projection(a, rj.grades)
        # Hom(L b, a) = Hom_J(b, R a)
        basis, restricted = hom_basis(b, a), hom_basis(b, ra)
        image = [rj.mor(f) for f in basis]
        if len(basis) != len(restricted):
            return False
        for f, g in zip(basis, image):
            if compose(inc, g) != f:
                return False
        for g in restricted:
            if rj.mor(compose(inc, g)) != g:
                return False
        # Hom(a, L b) = Hom_J(R a, b)
        basis, restricted = hom_basis(a, b), hom_basis(ra, b)
        if len(basis) != len(restricted):
            return False
        for f in basis:
            if compose(rj.mor(f), proj) != f:
                return False
        for g in restricted:
            if rj.mor(compose(g, proj)) != g:
                return False
        # naturality of the first bijection in both arguments
        b2 = _random_sub_object(cat, objs, rng)
        a2 = random_object(cat, rng, max_total=3)
        s = random_morphism(b2, b, rng)
        t = random_morphism(a, a2, rng)
        f = random_morphism(b, a, rng)
        if rj.mor(compose(t, compose(f, s))) \
                != compose(rj.mor(t), compose(rj.mor(f), s)):
            return False
    return True


def restricted_separability(a):
    """Over its own support the corner algebra has split-mono unit;
    anything else indicates a defect in the machinery."""
    j = support(a)
    if not j:
        raise ValueError("zero algebra")
    data = restriction_data(a, j)
    if find_retraction(data["restricted_unit"]) is None:
        raise ConsistencyError(
            "unit of the support-restricted algebra is not split-mono")
    return True
