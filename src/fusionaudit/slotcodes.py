"""Slot codes: the words of graded objects' slots, stored as ints.

Every slot of a graded object has a word (see gvec): atomic slots, those
of a direct sum included, are single letters (g, a), tensor slots
concatenate the factor words, the unit's slots carry the empty word, and
dual slots reverse the word and star its letters, so every letter is
atomic.  No word is built.  An object stores a factor sequence, a tuple
of alphabets, and per grade the sorted tuple of its slots' codes.  An
alphabet is the ordered set of letters one word position can hold: the
letters (g, a), a < m, for each (g, m) of its parts.  Each object builds
its own alphabets, and nothing compares two alphabets: codes are
compared only over one sequence, which a restriction keeps and a tensor
product concatenates.  A word's code is its letters' ranks read in mixed
radix over the sequence, the first letter most significant.  All words
of an object have one length and every alphabet ranks its letters in
letter order, so codes over one sequence compare, and are equal, exactly
as words do.

Each alphabet stars once (_star): the alphabet of its starred letters and
the letter permutation into it are cached on the alphabet, so a dual
reverses the sequence, maps each code through the permutations (starrer)
and sorts each grade once.  The engine never turns a code back into a
word and builds no object from words; the word form lives in
tests/slotwords.py, the reference the word-form tests compare codes
against.
"""

__all__ = ["Alphabet", "radix", "ranks", "starrer"]


class Alphabet:
    """The letters one word position can hold, ranked in letter order.

    parts is a tuple of (g, m) in increasing g, and the letters are
    (g, a) for a < m, ranked by (g, a).  size is the number of letters;
    star caches _star's result, and codes maps each g to the tuple of the
    codes of its letters (g, a)."""

    __slots__ = ("parts", "size", "star", "codes")

    def __init__(self, parts):
        self.parts = parts
        self.star = None
        self.codes, start = {}, 0
        for g, m in parts:
            self.codes[g] = tuple(range(start, start + m))
            start += m
        self.size = start


def radix(seq):
    """The number of codes over seq: the product of its alphabets' sizes."""
    r = 1
    for a in seq:
        r *= a.size
    return r


def ranks(codes):
    """(rank, sorted codes) for a list of distinct codes: rank[i] is the
    position of codes[i] in increasing order."""
    order = sorted(range(len(codes)), key=codes.__getitem__)
    rank = [0] * len(order)
    for p, i in enumerate(order):
        rank[i] = p
    return rank, tuple(map(codes.__getitem__, order))


def _star(cat, a):
    """(a*, perm): the alphabet of a's letters starred, and perm[r] the
    rank in a* of the star of a's letter of rank r.  The star of (g, a) is
    (inv(g), a).  Computed once per alphabet."""
    if a.star is None:
        inv = cat.inverse_of
        starred = Alphabet(tuple(sorted((inv[g], m) for g, m in a.parts)))
        perm = []
        for g, _ in a.parts:
            perm += starred.codes[inv[g]]
        a.star = (starred, perm)
    return a.star


def starrer(cat, seq):
    """(seq*, starred): seq* is seq reversed with each alphabet starred,
    and starred(codes) lists the code over seq* of each word coded over seq,
    reversed and starred letter by letter.  The letter at position p of
    seq lands at position len(seq) - 1 - p of seq*, whose weight is the
    product of the sizes of seq's alphabets before p."""
    stars = [_star(cat, a) for a in seq]
    sseq = tuple([s for s, _ in stars][::-1])
    tables, weight = [], 1
    for a, (_, perm) in zip(seq, stars):
        tables.append((a.size, [r * weight for r in perm]))
        weight *= a.size
    tables.reverse()

    def starred(codes):
        out = []
        for c in codes:
            s = 0
            for size, t in tables:
                c, d = divmod(c, size)
                s += t[d]
            out.append(s)
        return out
    return sseq, starred
