"""Slot words in word form: the reference the word-form tests compare
slot codes against.

The engine stores every slot's word as an int code over its object's
factor sequence and never builds a word (see fusionaudit.gvec and
fusionaudit.slotcodes).  This module expands codes back to words and
builds objects from words, so tests can state what a layout should be in
the form the module docstrings describe: a word is a tuple of letters
(g, a), g a grade and a an index.
"""

from fusionaudit.errors import ShapeError
from fusionaudit.gvec import GradedObject, _slot_starts
from fusionaudit.slotcodes import Alphabet, radix


def letters(a):
    """The alphabet a's letters in rank order."""
    return [(g, i) for g, m in a.parts for i in range(m)]


def seq_parts(seq):
    """The parts of each alphabet of seq.  Alphabets are built afresh for
    every object, so two sequences code the same words alike exactly when
    their parts agree, whether or not they hold one alphabet object."""
    return tuple(a.parts for a in seq)


def decode(seq, codes):
    """The word each code over seq stands for."""
    tables = [(a.size, letters(a)) for a in reversed(seq)]
    out = []
    for c in codes:
        word = []
        for size, ls in tables:
            c, d = divmod(c, size)
            word.append(ls[d])
        word.reverse()
        out.append(tuple(word))
    return out


def slot_words(v):
    """v's slot words, {grade: tuple of words} in layout order."""
    return {g: tuple(decode(v.seq, codes)) for g, codes in v.layout.items()}


def _sits_at(cat, word, g):
    """Whether word sits at grade g: its letters' grades compose to g, and
    the empty word sits at every identity grade."""
    if not word:
        return g in cat.identity_grades
    h = word[0][0]
    for k, _ in word[1:]:
        h = cat.compose_table[h][k]
        if h is None:
            return False
    return h == g


def _position_alphabet(cat, found):
    """(alphabet, {letter: rank}) for the list of letters met at one word
    position, each (g, a) with g a grade of cat and a an int >= 0, coded
    over the atomic alphabet with m = max(a) + 1 at each grade met."""
    bad = [l for l in found
           if not (type(l) is tuple and len(l) == 2
                   and all(type(x) is int for x in l)
                   and 0 <= l[0] < cat.morphism_count and l[1] >= 0)]
    if bad:
        raise ShapeError("slot letter %r is not (grade, index)"
                         % (min(bad, key=repr),))
    found = set(found)
    top = {}
    for g, i in found:
        top[g] = max(top.get(g, 0), i + 1)
    a = Alphabet(tuple(sorted(top.items())))
    return a, {l: a.codes[l[0]][l[1]] for l in found}


def from_words(cat, layout):
    """The object whose slots at each grade g carry the words layout[g],
    a strictly increasing tuple of tuples of letters (g, a).  All words
    have one length, and each sits at its grade: a non-empty word's
    letters compose to g, and the empty word sits at an identity grade.
    Each position is coded over the atomic alphabet of the letters met
    there, so equal words can come out over another sequence than an
    engine object's.  A layout that breaks a rule is a ShapeError."""
    for g, words in layout.items():
        if type(g) is not int or not 0 <= g < cat.morphism_count:
            raise ShapeError("grade %r out of range" % (g,))
        if not words:
            raise ShapeError("no slot words at grade %d" % g)
        if any(type(w) is not tuple for w in words):
            raise ShapeError("slot words at grade %d are not tuples" % g)
    lengths = {len(w) for ws in layout.values() for w in ws}
    if len(lengths) > 1:
        raise ShapeError("slot words differ in length")
    seq, places = [], []
    for p in range(lengths.pop() if lengths else 0):
        a, rank = _position_alphabet(cat, [w[p] for ws in layout.values()
                                           for w in ws])
        seq.append(a)
        places.append((a.size, rank))
    for g, words in layout.items():
        if any(a >= b for a, b in zip(words, words[1:])):
            raise ShapeError("slot words at grade %d are not strictly "
                             "increasing" % g)
        for w in words:
            if not _sits_at(cat, w, g):
                raise ShapeError("slot word %r does not sit at grade %d"
                                 % (w, g))
    code = {}
    for w in {w for ws in layout.values() for w in ws}:
        c = 0
        for (size, rank), l in zip(places, w):
            c = c * size + rank[l]
        code[w] = c
    return GradedObject._of(
        cat, {g: len(ws) for g, ws in layout.items()}, tuple(seq),
        {g: tuple(map(code.__getitem__, ws)) for g, ws in layout.items()})


def sorted_tensor_words(cat, vl, wl):
    """The reference enumeration of a tensor product, from its factors'
    slot words vl and wl: (layout, pos).  layout[h] is the sorted tuple of
    the concatenated words at h, and pos[h][(g1, g2)] lists, i then j, the
    rank within h of the word of slot (g1, i, g2, j).  Grades, and pairs
    within a grade, keep the order in which the loop over (g1, g2) first
    meets them."""
    words, starts = {}, {}
    for g1, ws1 in vl.items():
        row = cat.compose_table[g1]
        for g2, ws2 in wl.items():
            h = row[g2]
            if h is None:
                continue
            dst = words.setdefault(h, [])
            starts.setdefault(h, []).append(
                (g1, g2, len(dst), len(ws1) * len(ws2)))
            dst.extend(w1 + w2 for w1 in ws1 for w2 in ws2)
    layout, pos = {}, {}
    for h, ws in words.items():
        order = sorted(range(len(ws)), key=ws.__getitem__)
        layout[h] = tuple(map(ws.__getitem__, order))
        rank = [0] * len(ws)
        for p, k in enumerate(order):
            rank[k] = p
        pos[h] = {(g1, g2): rank[k:k + n] for g1, g2, k, n in starts[h]}
    return layout, pos


def bisected_pos(v, w, vw):
    """The positions the engine finds in vw = v (x) w, in the form of
    sorted_tensor_words's pos: pos[h][(g1, g2)] lists, i then j, where
    gvec._slot_starts puts slot (g1, i, g2, j) in grade h of vw."""
    r = radix(w.seq)
    pos = {}
    for g1, left in v.layout.items():
        row = v.cat.compose_table[g1]
        for g2, right in w.layout.items():
            h = row[g2]
            if h is None:
                continue
            pos.setdefault(h, {})[(g1, g2)] = [
                s + j for s in _slot_starts(vw.layout[h], left, r)
                for j in range(len(right))]
    return pos


def pair_columns(carrier):
    """Per grade of carrier (x) carrier: the memory position of every slot,
    listed in canonical order (composable grade pairs (g1, g2) sorted by
    enumeration index, slot pairs row-major), read off the word-sorted
    reference: a slot's memory position is its word's rank in its grade."""
    words = slot_words(carrier)
    _, pos = sorted_tensor_words(carrier.cat, words, words)
    return {h: [p for pair in sorted(pairs) for p in pairs[pair]]
            for h, pairs in pos.items()}
