"""Seeded sample streams for audits and property tests.

Everything is driven by random.Random instances owned by the caller, so a
fixed seed reproduces the exact corpus byte for byte.

Samples are built unchecked, through GradedObject._of (by way of
_atomic_object), Matrix._of and GradedMorphism._of, so a sample costs its
draws and little else.  The draws are a contract, since the golden
reports pin them: random_object draws its total, then one grade per unit;
random_morphism draws its entries row-major within a block, and its
blocks in set(v.mult) & set(w.mult) order.  An entry is a zero draw from
zero_weight + 3 values, zero when below zero_weight, and otherwise a
numerator and then a denominator, one row and one entry of _RATIONALS.

Each of those draws is the draw of _below(rng, n): rng.getrandbits(k),
with k = n.bit_length(), repeated until the value is below n, so the
samplers rely on getrandbits alone.  On CPython 3.10-3.13 that is also the
draw of rng.randrange(n) and of rng.choice on n items, and tests/test_gvec.py
checks that the two agree.  random_object draws its total through _below,
and its grades, like random_morphism's entries, in a rejection loop of its
own over one local rng.getrandbits, so a unit or an entry costs no call
beyond its getrandbits calls.  algebra_corpus's subset and pair draws still
go through randrange, sample and choice.
"""

from fractions import Fraction

from . import gvec
from .gvec import GradedMorphism, _atomic_object, _same_cat, total_mult
from .exactlin import Matrix

__all__ = ["random_object", "random_morphism", "algebra_corpus"]

_NUMERATORS = (-3, -2, -1, 1, 1, 2, 3)
_DENOMINATORS = (1, 1, 1, 2, 3)
# _RATIONALS[i][j] is Fraction(_NUMERATORS[i], _DENOMINATORS[j]): a choice
# of a row and then of an entry makes the draws of a numerator and then a
# denominator, and reads their quotient without building it.
_RATIONALS = tuple(tuple(Fraction(n, d) for d in _DENOMINATORS)
                   for n in _NUMERATORS)
_ROWS, _COLS = len(_NUMERATORS), len(_DENOMINATORS)
_ROW_BITS, _COL_BITS = _ROWS.bit_length(), _COLS.bit_length()


def _below(rng, n):
    """A draw from range(n), n >= 1, by rejection on rng.getrandbits:
    draw n.bit_length() bits until the value is below n.  That is the
    draw, and the rng state it leaves, of rng.randrange(n) and of
    rng.choice on a sequence of length n; it skips their argument
    handling."""
    if n <= 0:
        raise ValueError("empty range for _below(%d)" % n)
    getrandbits = rng.getrandbits
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def random_object(cat, rng, max_total=4):
    """Nonzero atomic object of total multiplicity at most max_total.  Each
    unit's grade is _below(rng, cat.morphism_count), drawn inline; a
    groupoid has at least one grade, so the rejection loop ends."""
    total = 1 + _below(rng, max_total)
    count = cat.morphism_count
    bits, getrandbits = count.bit_length(), rng.getrandbits
    mult = {}
    for _ in range(total):
        g = getrandbits(bits)
        while g >= count:
            g = getrandbits(bits)
        mult[g] = mult.get(g, 0) + 1
    return _atomic_object(cat, mult)


def random_morphism(v, w, rng, zero_weight=2):
    """Random morphism v -> w: every entry of every block drawn as the
    module docstring says, rows and blocks in its order.  Groupoids that
    differ are a CategoryMismatch, and a zero_weight below -2 a
    ValueError, raised before any draw; all-zero blocks are dropped."""
    _same_cat(v, w)
    odds = zero_weight + 3
    if odds <= 0:
        raise ValueError("empty range for _below(%d)" % odds)
    bits, getrandbits = odds.bit_length(), rng.getrandbits
    blocks = {}
    for g in set(v.mult) & set(w.mult):
        tm, sm = w.mult[g], v.mult[g]
        rows = []
        for _ in range(tm):
            row = []
            for j in range(sm):
                r = getrandbits(bits)
                while r >= odds:
                    r = getrandbits(bits)
                if r < zero_weight:
                    continue
                r = getrandbits(_ROW_BITS)
                while r >= _ROWS:
                    r = getrandbits(_ROW_BITS)
                c = getrandbits(_COL_BITS)
                while c >= _COLS:
                    c = getrandbits(_COL_BITS)
                row.append((j, _RATIONALS[r][c]))
            rows.append(tuple(row))
        if any(rows):
            blocks[g] = Matrix._of(tm, sm, tuple(rows))
    return GradedMorphism._of(v, w, blocks)


def algebra_corpus(cat, rng, size=2):
    """Nonzero algebras from the fixed recipe: every unit summand, the full
    groupoid algebra plus random sub-object ones, size internal
    endomorphism algebras of small random objects, and size pairwise
    direct sums.  The unit summands are the decisive witnesses; the rest
    varies support patterns and multiplicities.

    Equal draws share one algebra object: a groupoid algebra is built once
    per object set, an internal endomorphism algebra once per drawn
    object (its multiplicities in drawing order: an atomic object's
    alphabet and ordered layout follow from them, and they fix every step
    of the build), and a direct sum once per pair of chosen entries, so
    callers can decide a fact once per distinct object (by identity) and
    read it at every index that holds it.  The draws, and their order, are
    those of building every entry anew.  Callers must not mutate corpus
    entries.

    A drawn pair whose carriers have more than gvec.MAX_TOTAL_MULT slots
    together, the most an object spec states, is drawn again, so every
    carrier can be written into a witness and parsed back.  Two unit
    summands, of one slot each, always fit, so the redraw ends, and a
    pair that fits costs no draw beyond its own."""
    from .internal import (direct_sum_algebra, groupoid_algebra,
                           internal_end, unit_summand_algebra)
    kg = {}

    def groupoid_alg(objs):
        key = frozenset(objs)
        if key not in kg:
            kg[key] = groupoid_algebra(cat, key)
        return kg[key]

    out = [unit_summand_algebra(cat, i) for i in range(cat.object_count)]
    out.append(groupoid_alg(range(cat.object_count)))
    for _ in range(2):
        k = rng.randrange(1, cat.object_count + 1)
        out.append(groupoid_alg(rng.sample(range(cat.object_count), k)))
    ends = {}
    for _ in range(size):
        x = random_object(cat, rng, max_total=2)
        key = tuple(x.mult.items())
        if key not in ends:
            ends[key] = internal_end(x)
        out.append(ends[key])
    built = {}
    for _ in range(size):
        a, b = rng.choice(out), rng.choice(out)
        while total_mult(a.carrier) + total_mult(b.carrier) \
                > gvec.MAX_TOTAL_MULT:
            a, b = rng.choice(out), rng.choice(out)
        key = (id(a), id(b))  # every entry stays alive in out
        if key not in built:
            built[key] = direct_sum_algebra(a, b)
        out.append(built[key])
    return out
