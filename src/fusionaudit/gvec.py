"""Groupoid-graded vector spaces over exact rationals.

An object assigns a finite multiplicity to every morphism (grade) of a fixed
finite groupoid; a morphism is a family of rational matrices, one per grade,
acting slot-wise.  Degreewise sums make the category semisimple abelian with
one simple object per grade; the tensor product is graded by groupoid
composition and left duals come from grade inversion.

Slot words (why tensoring is literally strict).  Multiplicity maps alone do
not determine how the slots of an iterated tensor product interleave inside
one grade, and any fixed pair-major block layout fails to be associative on
matrices.  Each slot therefore has a word: atomic slots are single letters
(g, a), tensor slots concatenate the factor words, the unit's slots carry
the empty word, and dual slots reverse the word and star its letters.  A
direct sum, defined only up to isomorphism, is the atomic object of the
summed multiplicities, the first summand's slots first at each grade.
Slots within a grade are kept sorted by word.  Concatenation is
associative and word sets ignore parenthesization, so iterated tensor
products agree on the nose, objects and matrices alike, and the unit laws
are identities (empty words vanish under concatenation).  For a single
binary product of atomic objects the sorted order is exactly "composable
pairs (g1, g2) lexicographically by enumeration index, Kronecker
left-factor-major".  Every word in an object has the same length, which
makes concatenation splits unambiguous and keeps slot words distinct, and
every word sits at its own grade: a non-empty word at the composite of its
letters' grades, the empty word at an identity grade.

Slot codes (how words are stored; see slotcodes).  No word is built: an
object stores a factor sequence seq, a tuple of alphabets, and per grade
the sorted tuple of its slots' codes, each word's letter ranks in mixed
radix over seq.  Codes over one sequence compare exactly as words do.  A
tensor product concatenates the sequences, and its codes are c1 * R + c2,
R the product of the right factor's alphabet sizes; the unit's sequence
is empty and its one code is 0, so the unit laws and strictness hold for
codes as they do for words.  A direct sum is coded
over the one atomic alphabet of its multiplicities; a dual reverses the
sequence and stars each alphabet once, then sorts each grade's codes
once; restricting grades keeps the sequence.  The words of a tensor
product compare by their left factor's word first, so no product code is
sorted: one walk over the left factor's slots in code order, taken as
maximal runs of one grade, visits the right factor's grades once per run
and fills every grade of the product in order.  Only the left factor's
grades are sorted when each of its grades is one run of codes, as in an
atomic object, and its slots otherwise.  No position map is kept: a
slot is found by bisecting its left code times R in its grade's codes
(_slot_starts).  Multiplicities alone come from tensor_mult, with no slot
enumerated.  Atomic objects and every tensor product are laid out on
first read: tensor_obj enumerates no slot, and a product's multiplicities
too are computed only when something reads them, so a product that is
only tested for zero, compared or sized lays out nothing.  tensor_mor
enumerates its endpoints' slots when it builds rows, and its two cases
that read no slot (a zero factor, two identities) leave them lazy.
One word set can be coded over different sequences (a restriction keeps
its object's wider alphabets), so codes are compared only over one
sequence, and tensor_mor enumerates one product for both of its sides
only when they are one object (an endomorphism pair).  No code is turned
back into a word, and no object is built from words.

Object equality is equality of multiplicity maps (words are bookkeeping,
not identity).  Morphism equality is structural equality of normalized
blocks: stored blocks have both dimensions positive and at least one
nonzero entry, absent means zero.

Validation happens at the public boundary only.  graded_object,
simple_object, GradedMorphism(...) and the spec parsers check grades,
multiplicities and block shapes, and drop zero multiplicities and zero
blocks.  No public path takes slot words: GradedObject has no public
constructor and is exported as the type that isinstance checks.  The
engine's own producers (tensor, dual, sum, restriction, composition, the
abelian and duality maps) build values from parts that already keep those
invariants, and go through the unchecked GradedObject._of and
GradedMorphism._of instead, as Matrix._of does one level down.
"""

import re
from bisect import bisect_left
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

from .errors import CategoryMismatch, ShapeError, SpecError
from .exactlin import Matrix, kernel_basis, parse_rat, rat_str
from .groupoid import _spec_ints
from .slotcodes import Alphabet, radix, ranks, starrer

__all__ = [
    "GradedObject", "GradedMorphism",
    "graded_object", "zero_object", "simple_object", "unit_object",
    "tensor_obj", "tensor_mult", "direct_sum_obj", "dual_obj",
    "restrict_grades", "unit_summand", "total_mult",
    "identity_mor", "zero_mor", "compose", "tensor_mor",
    "direct_sum_with_maps",
    "restriction_inclusion", "restriction_projection",
    "kernel", "cokernel", "image_factorization", "hom_basis",
    "left_dual", "dual_morphism",
    "is_mono", "is_epi", "is_iso", "mono_epi",
    "object_to_spec", "object_from_spec",
    "morphism_to_spec", "morphism_from_spec",
]

_ONE = Fraction(1)

# Largest total multiplicity of an object spec; more is a SpecError
# (exit 2), raised before any slot is laid out.  A groupoid algebra has at
# most groupoid.MAX_MORPHISMS (1024) slots, and internal.direct_sum_algebra
# refuses a carrier over this cap, so every carrier an audit of a spec
# groupoid builds, at any corpus size, fits, and every witness parses back.
MAX_TOTAL_MULT = 4096

# Most slots in the largest tensor product that building an algebra from
# a spec and validating it lay out: the carrier's tensor square or cube,
# counted from multiplicities by internal.algebra_from_spec.  More is a
# SpecError (exit 2), raised before any product is built; MAX_TOTAL_MULT
# alone admits a 4096-slot carrier, whose cube has 68.7G slots.  The
# largest count the test suite and the benchmark workloads parse is 512
# (a pair2 algebra).  At the cap, check-algebra takes 0.2 s and 42 MB for
# an explicit 64-slot carrier on the trivial group and 0.9 s and 81 MB for
# the internal_end of 8 slots, and 0.7-1.0 s and 66 MB for the sum form
# kG (+) kG of Z32, whose cube is exactly the cap; just under it, 2.8 s
# and 105 MB for kG of pair22 (a 234,256-slot cube), on a 2-vCPU Xeon.
MAX_PRODUCT_SLOTS = 2 ** 18


# ---------------------------------------------------------------------------
# objects

class GradedObject:
    """Multiplicity vector over the grades of a groupoid.

    mult holds only positive entries; layout has the same grades, and
    layout[g] is the strictly increasing tuple of slot codes over the
    factor sequence seq at grade g, one per multiplicity unit (see the
    module docstring).  The class has no public constructor: calling it,
    with or without arguments, raises TypeError, and objects come from
    graded_object, simple_object, zero_object, unit_object, the spec
    parsers and the producers, which build through _of, or lazily
    (_Unlaid, _Unsized; _recipe).
    """

    __slots__ = ("cat", "mult", "seq", "layout", "_hash", "_recipe")

    def __init__(self, *args, **kwargs):
        raise TypeError("GradedObject has no public constructor")

    @classmethod
    def _of(cls, cat, mult, seq, layout):
        """Object with the given multiplicities and slot codes, unchecked.

        The caller keeps the invariant: mult holds positive entries only,
        at grades of cat; seq is a tuple of alphabets of cat; layout has
        exactly the grades of mult, and layout[g] is a sorted tuple of
        mult[g] distinct codes over seq, each standing for a word that sits
        at g (see _tensor_layout).  Both dicts become the object's own and
        must not be mutated afterwards.  A value that breaks the invariant
        makes equality, hashing and the tensor layouts silently wrong.  The
        producers are held to it by
        test_unchecked_producers_match_validating_constructors,
        test_layout_invariants_everywhere and the word-reference tests in
        tests/test_gvec.py."""
        v = object.__new__(cls)
        v.cat = cat
        v.mult = mult
        v.seq = seq
        v.layout = layout
        v._hash = None
        return v

    def m(self, g):
        return self.mult.get(g, 0)

    def grades(self):
        return sorted(self.mult)

    def is_zero(self):
        return not self.mult

    def __eq__(self, other):
        return self is other or (
            isinstance(other, GradedObject)
            and (self.cat is other.cat or self.cat == other.cat)
            and self.mult == other.mult)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.cat, tuple(sorted(self.mult.items()))))
        return self._hash

    def __repr__(self):
        return "GradedObject(%s)" % (
            {g: self.mult[g] for g in self.grades()},)


class _Unlaid(GradedObject):
    """An object whose seq and layout are computed on first read: an
    atomic one (_recipe None) builds its alphabet, and v (x) w (_recipe
    (v, w)) runs _tensor_layout.  The read writes the slots and makes the
    object a plain GradedObject, so later reads are slot reads."""

    __slots__ = ()

    def _lay_out(self):
        if self._recipe is None:
            mult = self.mult
            alpha = Alphabet(tuple(sorted(mult.items())))
            self.__class__ = GradedObject
            self.seq, self.layout = (alpha,), {g: alpha.codes[g] for g in mult}
        else:
            laid = _tensor_layout(*self._recipe)
            self.__class__ = GradedObject
            self.mult, self.seq, self.layout = laid.mult, laid.seq, laid.layout
            self._recipe = None
        return self

    seq = property(lambda self: self._lay_out().seq)
    layout = property(lambda self: self._lay_out().layout)


class _Unsized(_Unlaid):
    """v (x) w as tensor_obj and tensor_mor's no-slot cases return it: its
    mult is also computed on first read, by _mult_product, in
    _tensor_layout(v, w)'s grade order (both meet grades in the loop over
    (g1, g2)); that read makes it _Unlaid.  is_zero builds no mult and
    stops at the first composable pair."""

    __slots__ = ()

    @classmethod
    def _of_factors(cls, v, w):
        out = object.__new__(cls)
        out.cat, out._hash, out._recipe = _same_cat(v, w), None, (v, w)
        return out

    @property
    def mult(self):
        v, w = self._recipe
        mult = _mult_product(self.cat, v.mult, w.mult)
        self.__class__ = _Unlaid
        self.mult = mult
        return mult

    def is_zero(self):
        v, w = self._recipe
        table = self.cat.compose_table
        for g1 in v.mult:
            row = table[g1]
            for g2 in w.mult:
                if row[g2] is not None:
                    return False
        return True


def _atomic_object(cat, mult):
    """The atomic object of the positive multiplicity map mult, unchecked:
    one single-letter word (g, a) per slot, a < mult[g], coded over the
    one atomic alphabet of mult on first read (_Unlaid).  mult becomes the
    object's own."""
    if not mult:
        return GradedObject._of(cat, mult, (), {})
    v = object.__new__(_Unlaid)
    v.cat, v.mult, v._hash, v._recipe = cat, mult, None, None
    return v


def graded_object(cat, mult):
    """Atomic object: one single-letter word per slot.  Grades and
    multiplicities must be ints, by the rule spec fields follow: a bool, a
    float or a string is a SpecError."""
    _spec_ints({"mult": [list(p) for p in mult.items()]}, "mult", 2, False)
    mult = {g: m for g, m in mult.items() if m}
    for g, m in mult.items():
        if m < 0:
            raise ShapeError("negative multiplicity at grade %d" % g)
        if not (0 <= g < cat.morphism_count):
            raise ShapeError("grade %d out of range" % g)
    return _atomic_object(cat, mult)


def zero_object(cat):
    return GradedObject._of(cat, {}, (), {})


def simple_object(cat, g):
    return graded_object(cat, {g: 1})


def unit_object(cat):
    """Multiplicity 1 at every identity grade; slots carry the empty word,
    whose code over the empty sequence is 0."""
    mult = {e: 1 for e in cat.identity_grades}
    return GradedObject._of(cat, mult, (), {e: (0,) for e in mult})


def total_mult(v):
    return sum(v.mult.values())


def _same_cat(*items):
    cat = items[0].cat
    for x in items[1:]:
        if x.cat is not cat and x.cat != cat:
            raise CategoryMismatch("values graded by different groupoids")
    return cat


def _tensor_layout(v, w):
    """Enumerate the slots of v (x) w, and return v (x) w.

    The slot (g1, i, g2, j) has the code v.layout[g1][i] * R +
    w.layout[g2][j] over v.seq + w.seq, with R = radix(w.seq).  Slots are
    sorted by code, and no product code is compared to put them in that
    order.  A product code compares by its left factor's code first and by
    the right one on a tie (0 <= right code < R), and each factor's codes
    are sorted.  So one walk fills every grade in order: it takes v's
    slots as maximal runs of one grade g1 in code order, and each run
    visits w's grades once and appends its codes times w.layout[g2] to
    h = g1.g2, i then j.  The runs are v's grades as they stand when each
    grade's codes lie at or above those of the grade before it (an atomic
    object with its grades in order, or the unit, whose grades all hold
    code 0), v's grades sorted by first code when each grade's codes are
    one run in another order (any other atomic object), and otherwise
    come from one sort of v's slots (say a tensor product whose grades
    interleave).

    Within h the runs arrive in increasing left code, with no tie: two
    left slots with equal words never feed the same grade.  Every letter
    is atomic, and a non-empty word sits at the composite of its letters'
    grades, so equal words at different grades can only be the unit's
    empty words, at identity grades e != e', and e.g2 = e'.g2' = h forces
    e = e' = source(h).  No public path can place a word off its grade: no
    public constructor takes words, and every producer keeps each word at
    its grade.

    No position map is built: the slots are found again by _slot_starts.
    Grades keep the order in which the loop over (g1, g2) first meets them:
    the walk meets them in that order when its runs are v's grades as they
    stand, and otherwise that loop runs once more, without enumerating,
    until it has met every grade.

    Nothing is kept between calls: each call enumerates afresh, and a
    caller that needs one layout for two sides reuses the one object
    returned (tensor_mor's endomorphism pairs)."""
    cat = _same_cat(v, w)
    vl, wl = v.layout, w.layout
    table = cat.compose_table
    runs, in_order = _code_runs(tuple(vl.items()))
    r, wi = radix(w.seq), tuple(wl.items())
    acc = {}
    for g1, cs1 in runs:
        row = table[g1]
        # One-slot runs take their own loop, which appends a single int
        # per one-slot grade of w (kG (x) kG is only that); folding it
        # into the general loop cost ~7% of the enumeration time.
        if len(cs1) == 1:
            b = cs1[0] * r
            for g2, cs2 in wi:
                h = row[g2]
                if h is None:
                    continue
                codes = acc.get(h)
                if len(cs2) == 1:
                    if codes is None:
                        acc[h] = [b + cs2[0]]
                    else:
                        codes.append(b + cs2[0])
                elif codes is None:
                    acc[h] = [b + c2 for c2 in cs2]
                else:
                    codes += [b + c2 for c2 in cs2]
            continue
        base = [c1 * r for c1 in cs1]
        for g2, cs2 in wi:
            h = row[g2]
            if h is None:
                continue
            codes = acc.get(h)
            if codes is None:
                acc[h] = [b + c2 for b in base for c2 in cs2]
            else:
                codes += [b + c2 for b in base for c2 in cs2]
    layout, mult = {}, {}
    if in_order:
        for h, codes in acc.items():
            layout[h] = tuple(codes)
            mult[h] = len(codes)
    else:
        left = len(acc)
        for g1 in vl:
            row = table[g1]
            for g2 in wl:
                h = row[g2]
                if h is not None and h not in layout:
                    codes = acc[h]
                    layout[h] = tuple(codes)
                    mult[h] = len(codes)
                    left -= 1
            if not left:
                break
    return GradedObject._of(cat, mult, v.seq + w.seq if mult else (), layout)


def _code_runs(items):
    """(runs, in_order): the slots of an object whose layout items are
    items, in code order, as maximal runs of one grade, each a (grade,
    codes) pair.  in_order says that the runs are items as they stand,
    each grade one run, in its layout order; otherwise they are items
    sorted by first code, when each grade is still one run, and else come
    from one sort of all the slots (a grade can then be split over several
    runs, each a stretch of its codes in order).  See _tensor_layout."""
    if len(items) < 2 or _contiguous(items):
        return items, True
    runs = sorted(items, key=itemgetter(1))
    if not _contiguous(runs):
        slots = sorted([(c, g) for g, codes in items for c in codes])
        runs = [(g, [c for c, _ in run])
                for g, run in groupby(slots, itemgetter(1))]
    return runs, False


def _contiguous(runs):
    """Whether the (grade, codes) items runs are, in their order, the
    maximal same-grade runs of their slots in code order: each grade's
    first code is at or above the last code of the grade before it.  Only
    slots with the empty word tie, as the unit's grades all hold code 0,
    and tied slots never feed one grade of a product (_tensor_layout)."""
    last = -1
    for _, codes in runs:
        if codes[0] < last:
            return False
        last = codes[-1]
    return True


def _slot_starts(codes, left, r):
    """The position in codes of slot (g1, i, g2, 0), for each i.  codes
    are v (x) w's at grade h = g1.g2, left is v.layout[g1] and r is
    radix(w.seq); slot (g1, i, g2, j) sits at entry i plus j.  In h the
    slots with left code c are exactly the codes in [c * r, (c + 1) * r),
    in order of j: g1 and h fix g2 (a groupoid cancels), and left codes
    never tie within a grade (_tensor_layout).  left is increasing, so
    each bisection starts where the last one ended."""
    out, lo = [], 0
    for c in left:
        lo = bisect_left(codes, c * r, lo)
        out.append(lo)
    return out


def tensor_obj(v, w):
    """v (x) w, an _Unsized object: its multiplicities come from
    _mult_product and its slots from _tensor_layout, each on first read,
    and it reads as _tensor_layout(v, w) does."""
    return _Unsized._of_factors(v, w)


def tensor_mult(v, w):
    """The multiplicities of v (x) w, tensor_obj(v, w).mult, read off the
    composition table without enumerating a slot: grade g1.g2 gets
    v.m(g1) * w.m(g2) from each composable pair."""
    return _mult_product(_same_cat(v, w), v.mult, w.mult)


def _mult_product(cat, vm, wm):
    """tensor_mult on bare multiplicity maps vm and wm of cat."""
    out = {}
    wm = wm.items()
    for g1, m1 in vm.items():
        row = cat.compose_table[g1]
        for g2, m2 in wm:
            h = row[g2]
            if h is not None:
                out[h] = out.get(h, 0) + m1 * m2
    return out


def direct_sum_obj(v, w):
    """The atomic object of the summed multiplicities: at each grade, v's
    slots first, then w's."""
    cat = _same_cat(v, w)
    return _atomic_object(cat, {g: v.m(g) + w.m(g)
                                for g in set(v.mult) | set(w.mult)})


def _dual_layout(v):
    """(dual of v, rank): rank[g][i] is the position, within grade inv(g)
    of the dual, of the starred word of slot i of v at grade g.  Each
    alphabet of v is starred once (slotcodes._star, cached on the
    alphabet), and each grade takes one sort of its starred codes."""
    cat = v.cat
    inv = cat.inverse_of
    sseq, starred = starrer(cat, v.seq)
    mult, layout, rank = {}, {}, {}
    for g in v.mult:
        codes = starred(v.layout[g])
        h = inv[g]
        mult[h] = len(codes)
        rank[g], layout[h] = ranks(codes)
    return GradedObject._of(cat, mult, sseq, layout), rank


def dual_obj(v):
    return _dual_layout(v)[0]


def restrict_grades(v, grades):
    """v's slots at the given grades, with their words and codes over v's
    factor sequence; with no slot left, over the empty sequence, as every
    object without slots is.  grades is any container that answers in.
    When it holds every grade of v, nothing is dropped and v itself is
    returned, found by membership tests alone: the restriction of an
    object supported inside a subcategory (every object, on a one-object
    groupoid) builds nothing, and is the object a caller already holds
    (functors.ProjectionFunctor.match and internal.restriction_data test
    for that)."""
    for g in v.mult:
        if g not in grades:
            break
    else:
        return v
    keep = {g: m for g, m in v.mult.items() if g in grades}
    return GradedObject._of(v.cat, keep, v.seq if keep else (),
                            {g: v.layout[g] for g in keep})


def unit_summand(cat, objs):
    """The summand 1_J of the unit at a set of objects."""
    objs = set(objs)
    unit = unit_object(cat)
    return restrict_grades(
        unit, {cat.identity_of[i] for i in objs})


# ---------------------------------------------------------------------------
# morphisms

def _normalize_blocks(blocks, source, target):
    out = {}
    count = source.cat.morphism_count
    for g, mat in blocks.items():
        if not 0 <= g < count:
            raise ShapeError("grade %d out of range" % g)
        tm, sm = target.m(g), source.m(g)
        if mat.rows != tm or mat.cols != sm:
            raise ShapeError("block at grade %d is %dx%d, expected %dx%d"
                             % (g, mat.rows, mat.cols, tm, sm))
        if tm and sm and not mat.is_zero():
            out[g] = mat
    return out


class GradedMorphism:
    """Grade-diagonal family of matrices source -> target."""

    __slots__ = ("source", "target", "blocks")

    def __init__(self, source, target, blocks):
        _same_cat(source, target)
        self.source = source
        self.target = target
        self.blocks = _normalize_blocks(blocks, source, target)

    @classmethod
    def _of(cls, source, target, blocks):
        """Morphism with the given blocks, unchecked.

        The caller keeps the invariant: source and target share one
        groupoid; every block is a non-zero Matrix of shape
        target.m(g) x source.m(g), stored only at grades g where both
        endpoints have slots.  blocks becomes the morphism's own dict and
        must not be mutated afterwards.  A block that breaks the invariant
        makes equality, is_zero and every later product silently wrong.
        The producers are held to it by
        test_unchecked_producers_match_validating_constructors, and
        tensor_mor and dual_morphism also by their dense-reference tests,
        in tests/test_gvec.py."""
        f = object.__new__(cls)
        f.source = source
        f.target = target
        f.blocks = blocks
        return f

    def block(self, g):
        """Stored block, or an explicit zero block; None when either side
        has no slots at g."""
        tm, sm = self.target.m(g), self.source.m(g)
        if tm == 0 or sm == 0:
            return None
        return self.blocks.get(g) or Matrix.zeros(tm, sm)

    def is_zero(self):
        return not self.blocks

    def __eq__(self, other):
        return (isinstance(other, GradedMorphism)
                and self.source == other.source
                and self.target == other.target
                and self.blocks == other.blocks)

    def __hash__(self):
        return hash((self.source, self.target,
                     tuple(sorted(self.blocks.items()))))

    def __repr__(self):
        return "GradedMorphism(%r -> %r, blocks at %s)" % (
            self.source, self.target, sorted(self.blocks))

    # composition: (f @ g) applies g first
    def __add__(self, other):
        if self.source != other.source or self.target != other.target:
            raise ShapeError("adding morphisms with different endpoints")
        out = {}
        for g in set(self.blocks) | set(other.blocks):
            b = self.block(g) + other.block(g)
            if not b.is_zero():
                out[g] = b
        return GradedMorphism._of(self.source, self.target, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        blocks = {g: m.scale(c) for g, m in self.blocks.items()} if c else {}
        return GradedMorphism._of(self.source, self.target, blocks)


def identity_mor(v):
    return GradedMorphism._of(
        v, v, {g: Matrix.identity(m) for g, m in v.mult.items()})


def zero_mor(v, w):
    _same_cat(v, w)
    return GradedMorphism._of(v, w, {})


def compose(f, g):
    """f after g."""
    if g.target != f.source:
        raise ShapeError("composition endpoint mismatch: %r vs %r"
                         % (g.target, f.source))
    out = {}
    gblocks = g.blocks
    for h, fb in f.blocks.items():
        gb = gblocks.get(h)
        if gb is not None:
            b = fb @ gb
            if not b.is_zero():
                out[h] = b
    return GradedMorphism._of(g.source, f.target, out)


def _interned_identity_blocks(f):
    """Whether every grade of f's source holds the interned identity
    (Matrix.identity), as in identity_mor; O(1) per grade."""
    return (len(f.blocks) == len(f.source.mult)
            and all(b.is_interned_identity() for b in f.blocks.values()))


def tensor_mor(f, h):
    """f (x) h, built straight into sparse rows.

    In the block at grade g1.g2, row (g1, i, g2, j) and column
    (g1, ci, g2, cj) hold f[g1][i, ci] * h[g2][j, cj]; every other entry is
    zero.  Such a row takes entries from row i of f's block and row j of
    h's block only, so only composable pairs of non-zero blocks, g1 of f
    and g2 of h, are visited, and within them only pairs of non-zero
    factor entries: a pair costs nnz(f at g1) * nnz(h at g2) products, and
    a factor equal to 1 is not multiplied.  Each side's slots are
    enumerated through _tensor_layout, once for both sides when both
    factors are endomorphisms, and otherwise once per side.  Rows and
    columns are found by _slot_starts: row (i, j) is rstart[i] + j and
    column (ci, cj) is cstart[ci] + cj, where rstart and cstart bisect
    f's target and source codes at g1 into the two products' codes at
    g1.g2.  Each left slot's run of positions ends before the next one's
    begins, so every row is built in column order and none is sorted.

    Two cases read no slot, and their endpoints are _Unsized objects,
    sized and laid out only if something reads them later:
    - A factor with no blocks gives the zero morphism.  An endomorphism
      pair gets one endpoint, source and target, and so do two products
      without slots, which lay out alike.
    - Two endomorphisms whose every block is the interned identity give
      identity_mor of one endpoint, built with no row.

    Identities pass through without arithmetic.  Only the interned
    Matrix.identity counts; an equal hand-built block takes the general
    path, with the same result.  When one block of a factor pair is the
    identity, each output row is the other block's row re-indexed: no
    product and no == 1 test.  With f's block the identity, row (i, j) is
    row j of h's block, column cj sent to cstart[i] + cj; with h's block
    the identity, it is row i of f's block, column ci sent to
    cstart[ci] + j."""
    fs, ft, hs, ht = f.source, f.target, h.source, h.target
    endo = fs is ft and hs is ht
    if not (f.blocks and h.blocks):
        src = _Unsized._of_factors(fs, hs)
        if not endo:
            tgt = _Unsized._of_factors(ft, ht)
            if not (src.is_zero() and tgt.is_zero()):
                return GradedMorphism._of(src, tgt, {})
        return GradedMorphism._of(src, src, {})
    if (endo and _interned_identity_blocks(f)
            and _interned_identity_blocks(h)):
        return identity_mor(_Unsized._of_factors(fs, hs))
    src = _tensor_layout(fs, hs)
    tgt = src if endo else _tensor_layout(ft, ht)
    table, hblocks = src.cat.compose_table, h.blocks.items()
    fsl, sl, rs = f.source.layout, src.layout, radix(h.source.seq)
    ftl, tl, rt = f.target.layout, tgt.layout, radix(h.target.seq)
    filled = {}
    for g1, fb in f.blocks.items():
        row = table[g1]
        fid = fb.is_interned_identity()
        for g2, hb in hblocks:
            g = row[g2]
            if g is None:
                continue
            data = filled.get(g) or filled.setdefault(g, [()] * tgt.mult[g])
            rstart = _slot_starts(tl[g], ftl[g1], rt)
            cstart = rstart if endo else _slot_starts(sl[g], fsl[g1], rs)
            hrows = hb.sparse
            if fid:
                for j, hrow in enumerate(hrows):
                    if not hrow:
                        continue
                    for at, c in zip(rstart, cstart):
                        data[at + j] = tuple([(c + cj, y) for cj, y in hrow])
                continue
            if hb.is_interned_identity():
                for at, frow in zip(rstart, fb.sparse):
                    if not frow:
                        continue
                    for j in range(hb.rows):
                        data[at + j] = tuple([(cstart[ci] + j, x)
                                              for ci, x in frow])
                continue
            for at, frow in zip(rstart, fb.sparse):
                if not frow:
                    continue
                for j, hrow in enumerate(hrows):
                    if not hrow:
                        continue
                    data[at + j] = tuple([
                        (cstart[ci] + cj,
                         y if x == 1 else (x if y == 1 else x * y))
                        for ci, x in frow for cj, y in hrow])
    blocks = {g: Matrix._of(tgt.mult[g], src.mult[g], tuple(filled[g]))
              for g in tl if g in filled}
    return GradedMorphism._of(src, tgt, blocks)


def direct_sum_with_maps(v, w):
    """(v (+) w, inj_v, inj_w, proj_v, proj_w); v's slots come first."""
    s = direct_sum_obj(v, w)
    inj_v, inj_w, proj_v, proj_w = {}, {}, {}, {}
    for g in s.mult:
        mv, mw = v.m(g), w.m(g)
        if mv:
            block = Matrix.identity(mv).vstack(Matrix.zeros(mw, mv))
            inj_v[g] = block
            proj_v[g] = block.transpose()
        if mw:
            block = Matrix.zeros(mv, mw).vstack(Matrix.identity(mw))
            inj_w[g] = block
            proj_w[g] = block.transpose()
    return (s,
            GradedMorphism._of(v, s, inj_v), GradedMorphism._of(w, s, inj_w),
            GradedMorphism._of(s, v, proj_v), GradedMorphism._of(s, w, proj_w))


def restriction_inclusion(v, grades):
    sub = restrict_grades(v, grades)
    return GradedMorphism._of(
        sub, v, {g: Matrix.identity(m) for g, m in sub.mult.items()})


def restriction_projection(v, grades):
    sub = restrict_grades(v, grades)
    return GradedMorphism._of(
        v, sub, {g: Matrix.identity(m) for g, m in sub.mult.items()})


# ---------------------------------------------------------------------------
# abelian structure

def kernel(f):
    """(kernel object, inclusion); canonical basis from the rref."""
    blocks, mult = {}, {}
    for g, m in f.source.mult.items():
        b = f.block(g)
        k = kernel_basis(b) if b is not None else Matrix.identity(m)
        if k.cols:
            mult[g] = k.cols
            blocks[g] = k
    ker = _atomic_object(f.source.cat, mult)
    return ker, GradedMorphism._of(ker, f.source, blocks)


def cokernel(f):
    """(cokernel object, projection); rows span the left null space."""
    blocks, mult = {}, {}
    for g, m in f.target.mult.items():
        b = f.block(g)
        if b is None:
            q = Matrix.identity(m)
        else:
            q = kernel_basis(b.transpose()).transpose()
        if q.rows:
            mult[g] = q.rows
            blocks[g] = q
    cok = _atomic_object(f.target.cat, mult)
    return cok, GradedMorphism._of(f.target, cok, blocks)


def image_factorization(f):
    """(psi, phi) with f = phi after psi, psi epi onto the image, phi mono.

    Per grade the rank factorization from the rref: B = B[:, pivots] @ R
    where R keeps the nonzero rows of rref(B).
    """
    psi, phi, mult = {}, {}, {}
    for g, b in f.blocks.items():
        r, pivots = b.rref()
        rank = len(pivots)
        if not rank:
            continue
        mult[g] = rank
        phi[g] = b.columns(pivots)
        psi[g] = Matrix._of(rank, b.cols, r.sparse[:rank])
    img = _atomic_object(f.source.cat, mult)
    return (GradedMorphism._of(f.source, img, psi),
            GradedMorphism._of(img, f.target, phi))


def hom_basis(v, w):
    """Matrix-unit basis of Hom(v, w), ordered by (grade, row, col)."""
    out = []
    for g in sorted(set(v.mult) & set(w.mult)):
        tm, sm = w.mult[g], v.mult[g]
        empty = ((),) * tm
        for r in range(tm):
            for c in range(sm):
                rows = empty[:r] + (((c, _ONE),),) + empty[r + 1:]
                out.append(
                    GradedMorphism._of(v, w, {g: Matrix._of(tm, sm, rows)}))
    return out


def is_mono(f):
    """Every block has full column rank.  An absent block is zero, of rank
    0, so it fails without a reduction."""
    blocks = f.blocks
    for g, m in f.source.mult.items():
        b = blocks.get(g)
        if b is None or b.rank() < m:
            return False
    return True


def is_epi(f):
    """Every block has full row rank; an absent block fails as in is_mono."""
    blocks = f.blocks
    for g, m in f.target.mult.items():
        b = blocks.get(g)
        if b is None or b.rank() < m:
            return False
    return True


def mono_epi(f):
    """(is_mono(f), is_epi(f)) from at most one rank per stored block.

    f is mono when the rank at every grade of source or target equals
    source.m(g), and epi when it equals target.m(g); f is iso exactly when
    it is both.  An absent block, zero or with an endpoint that has no
    slots, has rank 0 and is not reduced.  A block of shape t x s has rank
    at most min(t, s), so the shapes rule a side out before any reduction,
    and the reductions stop once both sides are ruled out.  With no block,
    f is mono or epi exactly when its source or target is zero, which a
    lazy product answers without its multiplicities."""
    blocks = f.blocks
    if not blocks:
        return f.source.is_zero(), f.target.is_zero()
    src, tgt = f.source.mult, f.target.mult
    mono = all(g in blocks and m <= tgt[g] for g, m in src.items())
    epi = all(g in blocks and m <= src[g] for g, m in tgt.items())
    for g, b in blocks.items():
        if not (mono or epi):
            break
        r = b.rank()
        mono = mono and r == src[g]
        epi = epi and r == tgt[g]
    return mono, epi


def is_iso(f):
    """Equal multiplicities make every block square, and a square block
    of full rank is invertible, so mono alone decides: one rank per block
    instead of the two that is_mono and is_epi would take."""
    return f.source.mult == f.target.mult and is_mono(f)


# ---------------------------------------------------------------------------
# duality

def left_dual(v):
    """(dual object, ev, coev) with ev: dual (x) v -> 1, coev: 1 -> v (x)
    dual; the zig-zag identities hold on the nose.

    Grades g1 and g2 compose to an identity only when g1 = inv(g2), and
    the dual's slot at rank[g][j] of grade inv(g) carries the starred word
    of v's slot j at g, so ev and coev pair exactly those two slots.  Each
    pair's slots are found in the identity grade by _slot_starts: slot
    (inv(g), rank[g][j], g, j) of dual (x) v, and slot (g, j, inv(g),
    rank[g][j]) of v (x) dual."""
    cat = v.cat
    inv, table = cat.inverse_of, cat.compose_table
    d, rank = _dual_layout(v)
    dxv, vxd = _tensor_layout(d, v), _tensor_layout(v, d)
    rv, rd = radix(v.seq), radix(d.seq)
    ev, coev = {}, {}
    for g, perm in rank.items():
        g1 = inv[g]
        e = table[g1][g]
        starts = _slot_starts(dxv.layout[e], d.layout[g1], rv)
        ev.setdefault(e, []).extend((starts[i] + j, _ONE)
                                    for j, i in enumerate(perm))
        e = table[g][g1]
        col = coev.get(e) or coev.setdefault(e, [()] * vxd.mult[e])
        for at, j in zip(_slot_starts(vxd.layout[e], v.layout[g], rd), perm):
            col[at + j] = ((0, _ONE),)
    unit, ids = unit_object(cat), cat.identity_grades
    return (d, GradedMorphism._of(dxv, unit, {
                e: Matrix._of(1, dxv.mult[e], (tuple(sorted(ev[e])),))
                for e in ids if e in ev}),
            GradedMorphism._of(unit, vxd, {
                e: Matrix._of(len(coev[e]), 1, tuple(coev[e]))
                for e in ids if e in coev}))


def dual_morphism(f):
    """Transpose along duality: dual(target) -> dual(source).

    Row r of the dual block at g is the slot of dual(source) whose word is
    the starred word of some source slot s at inv(g), and column c is found
    the same way from a target slot t; entry [r, c] is f's entry [t, s].
    The non-zeros of f's block are therefore re-indexed through the ranks
    of _dual_layout, and the rest of the block is never read."""
    ds, rrank = _dual_layout(f.source)
    dt, crank = _dual_layout(f.target)
    return _transposed(f, dt, ds, rrank, crank)


def _transposed(f, source, target, rrank, crank):
    """The morphism source -> target whose block at inv(g) is f's block at
    g transposed, with f's source slot s at g sent to row rrank[g][s] and
    f's target slot t to column crank[g][t].  source and target must be
    the duals of f's target and source as _dual_layout lays them out, with
    rrank and crank its ranks (dual_morphism, internal.dualize_algebra)."""
    inv = f.source.cat.inverse_of
    blocks = {}
    for g, b in f.blocks.items():
        h = inv[g]
        rperm, cperm = rrank[g], crank[g]
        rows = [[] for _ in rperm]
        for t, trow in enumerate(b.sparse):
            c = cperm[t]
            for s, x in trow:
                rows[rperm[s]].append((c, x))
        for row in rows:
            if len(row) > 1:
                row.sort()
        blocks[h] = Matrix._of(len(rperm), len(cperm),
                               tuple(map(tuple, rows)))
    return GradedMorphism._of(source, target, blocks)


# ---------------------------------------------------------------------------
# JSON forms

def object_to_spec(v):
    return {"mult": {str(g): v.mult[g] for g in v.grades()}}


_GRADE_KEY = re.compile(r"0|-?[1-9][0-9]*")


def _grade_key(key):
    """The grade a JSON key names.  Only the form str(g) writes is
    accepted (ASCII digits, no sign but a leading '-', no leading zero),
    so two distinct keys never name one grade; anything else, such as
    "01", "+0", " 1" or a full-width digit, is a SpecError.  A negative
    grade parses, so the range checks can name it."""
    if not (isinstance(key, str) and _GRADE_KEY.fullmatch(key)):
        raise SpecError("grade key %r is not a canonical decimal" % (key,))
    return int(key)


def _blocks_to_spec(blocks):
    """JSON map of str(grade) to rows of rat_str entries, grades sorted."""
    return {str(g): [[rat_str(x) for x in blocks[g].row(i)]
                     for i in range(blocks[g].rows)]
            for g in sorted(blocks)}


def _blocks_from_spec(doc):
    """{grade: Matrix} from a JSON map of grade keys to rows of entries in
    rat_str form; a null map has no blocks."""
    return {_grade_key(g): Matrix.from_rows([[parse_rat(x) for x in row]
                                             for row in rows])
            for g, rows in (doc or {}).items()}


def object_from_spec(cat, doc):
    """Keys of doc["mult"] are grade keys (see _grade_key); values must be
    JSON integers (a bool, a float or a numeric string is a SpecError),
    and add up to at most MAX_TOTAL_MULT."""
    try:
        raw = doc["mult"]
        mult = {_grade_key(g): _spec_ints(raw, g, 0, nullable=False)
                for g in raw}
    except (KeyError, TypeError, ValueError, AttributeError,
            OverflowError) as exc:
        raise SpecError("bad object spec: %s" % exc) from exc
    if any(m < 0 for m in mult.values()):
        raise SpecError("negative multiplicity")
    if sum(mult.values()) > MAX_TOTAL_MULT:
        raise SpecError("total multiplicity %d is more than the %d taken"
                        % (sum(mult.values()), MAX_TOTAL_MULT))
    if any(not (0 <= g < cat.morphism_count) for g in mult):
        raise SpecError("grade out of range")
    return graded_object(cat, mult)


def morphism_to_spec(f):
    return {"source": object_to_spec(f.source),
            "target": object_to_spec(f.target),
            "blocks": _blocks_to_spec(f.blocks)}


_MORPHISM_KEYS = ("source", "target", "blocks")


def morphism_from_spec(cat, doc):
    """A doc must be a JSON object with exactly the keys source, target
    and blocks (blocks may be null, for no blocks); any other key, or one
    of them missing, is a SpecError that names it, as a bad object spec
    is, and the endpoints are parsed before blocks is looked for.  So a
    misspelled "block" is refused, not read as the zero map."""
    if not isinstance(doc, dict):
        raise SpecError("morphism spec must be an object")
    for key in doc:
        if key not in _MORPHISM_KEYS:
            raise SpecError("unknown morphism spec key %r (expected %s)"
                            % (key, ", ".join(_MORPHISM_KEYS)))
    for key in ("source", "target"):
        if key not in doc:
            raise SpecError("morphism spec has no %r" % key)
    source = object_from_spec(cat, doc["source"])
    target = object_from_spec(cat, doc["target"])
    if "blocks" not in doc:
        raise SpecError("morphism spec has no 'blocks'")
    try:
        blocks = _blocks_from_spec(doc["blocks"])
    except (TypeError, ValueError, AttributeError) as exc:
        raise SpecError("bad morphism blocks: %s" % exc) from exc
    try:
        return GradedMorphism(source, target, blocks)
    except ShapeError as exc:
        raise SpecError(str(exc)) from exc
