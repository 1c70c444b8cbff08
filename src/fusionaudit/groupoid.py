"""Finite groupoids with a fixed global enumeration of morphisms.

A groupoid here is a plain lookup structure: objects 0..n-1, morphisms
0..m-1 with source/target, a partial composition table, identities and
inverses.  compose_table[g1][g2] is "g1 then g2": it is defined exactly
when the target of g1 is the source of g2.  Every canonical ordering
downstream (tensor slot order, report ordering) derives from the morphism
enumeration, so the enumeration is part of the data, not an
implementation detail.

Constructors validate fully and report the failing element or triple; a
groupoid that constructs is safe to compute with.  Associativity is
certified by Light's test on a generating set of morphisms, so only a table
it rejects is scanned triple by triple for the first failing triple.
"""

import hashlib
import json

from .errors import GroupoidError, SpecError

__all__ = [
    "Groupoid", "make_group", "make_pair_groupoid", "disjoint_union",
    "groupoid_from_spec",
]

# Most morphisms a groupoid spec may declare; more is a SpecError (exit 2),
# raised before the composition table is built or scanned.  An audit
# builds the groupoid algebra kG, whose tensor square has m^2 slots:
# S6 (720 morphisms, 518k slots) is taken, and S7 (5040 morphisms, 25M
# slots) is not.
MAX_MORPHISMS = 1024


class Groupoid:
    """Validated finite groupoid; immutable after construction.

    morphisms[g] is the (source, target) pair of morphism g, and
    compose_table[g1][g2] is the index of "g1 then g2", or None when the
    target of g1 is not the source of g2.  identity_of[i] is the identity
    morphism of object i, and inverse_of[g] the inverse of g."""

    def __init__(self, object_count, morphisms, identity_of, compose_table,
                 inverse_of, spec=None):
        self.object_count = int(object_count)
        self.morphisms = tuple((int(s), int(t)) for s, t in morphisms)
        self.identity_of = tuple(int(i) for i in identity_of)
        self.compose_table = tuple(
            tuple(None if x is None else int(x) for x in row)
            for row in compose_table)
        self.inverse_of = tuple(int(i) for i in inverse_of)
        self.spec = spec if spec is not None else self._explicit_spec()
        self._validate()
        self.identity_grades = tuple(sorted(self.identity_of))
        self._hash = hash(self._key())

    # -- basic lookups ----------------------------------------------------

    @property
    def morphism_count(self):
        return len(self.morphisms)

    # -- identity ----------------------------------------------------------

    def _key(self):
        return (self.object_count, self.morphisms, self.identity_of,
                self.compose_table, self.inverse_of)

    def __eq__(self, other):
        return self is other or (isinstance(other, Groupoid)
                                 and self._key() == other._key())

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Groupoid(objects=%d, morphisms=%d)" % (
            self.object_count, len(self.morphisms))

    def _explicit_spec(self):
        return {
            "kind": "explicit",
            "objects": self.object_count,
            "morphisms": [list(st) for st in self.morphisms],
            "identities": list(self.identity_of),
            "inverses": list(self.inverse_of),
            "compose": [list(row) for row in self.compose_table],
        }

    def fingerprint(self):
        """Content hash of the explicit form; stable across spec kinds."""
        doc = json.dumps(self._explicit_spec(), sort_keys=True,
                         separators=(",", ":"))
        return hashlib.sha256(doc.encode()).hexdigest()[:16]

    # -- validation ---------------------------------------------------------

    def _validate(self):
        fail = []
        n, mors = self.object_count, self.morphisms
        m = len(mors)
        if n < 1:
            fail.append("need at least one object")
        if len(self.identity_of) != n:
            fail.append("identity_of has %d entries for %d objects"
                        % (len(self.identity_of), n))
        if len(self.inverse_of) != m or len(self.compose_table) != m \
                or any(len(r) != m for r in self.compose_table):
            fail.append("table sizes do not match morphism count %d" % m)
        if fail:
            raise GroupoidError(fail)
        for g, (s, t) in enumerate(mors):
            if not (0 <= s < n and 0 <= t < n):
                fail.append("morphism %d has endpoints (%d, %d) out of range"
                            % (g, s, t))
        for i, e in enumerate(self.identity_of):
            if not (0 <= e < m) or mors[e] != (i, i):
                fail.append("identity of object %d is morphism %d with "
                            "endpoints %r" % (i, e, mors[e] if 0 <= e < m
                                              else None))
        if fail:
            raise GroupoidError(fail)
        for g1 in range(m):
            for g2 in range(m):
                h = self.compose_table[g1][g2]
                composable = mors[g1][1] == mors[g2][0]
                if composable and h is None:
                    fail.append("compose(%d, %d) undefined but targets match"
                                % (g1, g2))
                elif not composable and h is not None:
                    fail.append("compose(%d, %d) defined across objects"
                                % (g1, g2))
                elif h is not None and not 0 <= h < m:
                    fail.append("compose(%d, %d) = %d out of range"
                                % (g1, g2, h))
                elif h is not None:
                    if mors[h] != (mors[g1][0], mors[g2][1]):
                        fail.append("compose(%d, %d) = %d has wrong endpoints"
                                    % (g1, g2, h))
        if fail:
            raise GroupoidError(fail[:10])
        for g, (s, t) in enumerate(mors):
            e_s, e_t = self.identity_of[s], self.identity_of[t]
            if self.compose_table[e_s][g] != g:
                fail.append("identity law fails at id(%d) then %d" % (s, g))
            if self.compose_table[g][e_t] != g:
                fail.append("identity law fails at %d then id(%d)" % (g, t))
            inv = self.inverse_of[g]
            if not (0 <= inv < m) or self.compose_table[g][inv] != e_s \
                    or self.compose_table[inv][g] != e_t:
                fail.append("inverse of morphism %d is not %r" % (g, inv))
        if fail:
            raise GroupoidError(fail[:10])
        # The endpoint checks above make (x a) y and x (a y) defined
        # together, so the groupoid is associative exactly when its table,
        # with an absorbing zero for the undefined entries, is.
        zero = m
        table = [[zero if h is None else h for h in row] + [zero]
                 for row in self.compose_table]
        table.append([zero] * (m + 1))
        if not _magma_associative(table):
            raise GroupoidError(["associativity fails on triple (%d, %d, %d)"
                                 % _first_failing_triple(self.compose_table)])


def _magma_associative(t):
    """True when the magma with table t is associative.  t is a square
    list of rows over 0..n, and n is an absorbing zero: row n and column
    n are all n.

    Light's associativity test: the elements a with (x a) y = x (a y)
    for all x, y form a submagma (Clifford & Preston I, section 1.2), so
    checking that law for a generating set suffices.  Generators are
    picked greedily: the smallest element not yet reached, after which
    the reached set is closed under right multiplication by the
    generators.  The check costs n^2 per generator instead of the n^3
    triples."""
    n = len(t) - 1
    reached = [False] * (n + 1)
    reached[n] = True
    gens = []
    for b in range(n):
        if reached[b]:
            continue
        gens.append(b)
        todo = [t[x][b] for x in range(n) if reached[x]] + [b]
        while todo:
            y = todo.pop()
            if not reached[y]:
                reached[y] = True
                ty = t[y]
                todo.extend([ty[a] for a in gens])
    for a in gens:
        ta = t[a]
        for tx in t[:n]:
            if t[tx[a]] != list(map(tx.__getitem__, ta)):
                return False
    return True


def _first_failing_triple(table):
    """The first (g1, g2, g3), in lexicographic order, with both
    composites defined and (g1 g2) g3 != g1 (g2 g3); None if there is
    none, which a table that Light's test rejects never gives."""
    m = len(table)
    for g1 in range(m):
        for g2 in range(m):
            h12 = table[g1][g2]
            if h12 is None:
                continue
            for g3 in range(m):
                h23 = table[g2][g3]
                if h23 is None:
                    continue
                if table[h12][g3] != table[g1][h23]:
                    return g1, g2, g3
    return None


def make_group(table):
    """Groupoid with one object from a multiplication table.

    table[i][j] is the index of "i then j"; index 0 must be the identity.
    """
    m = len(table)
    fail = []
    if m == 0:
        raise GroupoidError(["empty multiplication table"])
    for i, row in enumerate(table):
        if len(row) != m:
            fail.append("row %d has length %d, expected %d" % (i, len(row), m))
        else:
            for j, x in enumerate(row):
                if not (0 <= x < m):
                    fail.append("entry (%d, %d) = %r out of range" % (i, j, x))
    if fail:
        raise GroupoidError(fail[:10])
    for j in range(m):
        if table[0][j] != j:
            fail.append("index 0 is not a left identity at %d" % j)
        if table[j][0] != j:
            fail.append("index 0 is not a right identity at %d" % j)
    if fail:
        raise GroupoidError(fail[:10])
    inverse = [None] * m
    for g in range(m):
        for h in range(m):
            if table[g][h] == 0 and table[h][g] == 0:
                inverse[g] = h
                break
        if inverse[g] is None:
            raise GroupoidError(["element %d has no inverse" % g])
    return Groupoid(
        1, [(0, 0)] * m, [0], [list(row) for row in table], inverse,
        spec={"kind": "group", "table": [list(row) for row in table]})


def make_pair_groupoid(n):
    """Objects 0..n-1, exactly one morphism i -> j for every ordered pair.

    Morphism g_ij gets index i*n + j.
    """
    if n < 1:
        raise GroupoidError(["pair groupoid needs at least one object"])
    mors = [(i, j) for i in range(n) for j in range(n)]
    compose = [[None] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                compose[i * n + j][j * n + k] = i * n + k
    return Groupoid(
        n, mors, [i * n + i for i in range(n)], compose,
        [j * n + i for i in range(n) for j in range(n)],
        spec={"kind": "pair", "objects": n})


def disjoint_union(a, b):
    """Union with a's objects and morphisms first, then b's shifted up."""
    n_a, m_a = a.object_count, a.morphism_count
    mors = list(a.morphisms) + [(s + n_a, t + n_a) for s, t in b.morphisms]
    idents = list(a.identity_of) + [e + m_a for e in b.identity_of]
    invs = list(a.inverse_of) + [e + m_a for e in b.inverse_of]
    m = len(mors)
    compose = [[None] * m for _ in range(m)]
    for g1 in range(m_a):
        for g2 in range(m_a):
            compose[g1][g2] = a.compose_table[g1][g2]
    for g1 in range(b.morphism_count):
        for g2 in range(b.morphism_count):
            h = b.compose_table[g1][g2]
            if h is not None:
                compose[g1 + m_a][g2 + m_a] = h + m_a
    return Groupoid(
        a.object_count + b.object_count, mors, idents, compose, invs,
        spec={"kind": "union", "parts": [a.spec, b.spec]})


def _spec_ints(spec, key, depth, nullable):
    """spec[key] as lists nested depth deep (depth 0: one value) whose
    entries are all JSON integers, or null where nullable.  A bool, a float
    or a numeric string is rejected, although int() would coerce it."""
    value = spec[key]
    entries = [value]
    for _ in range(depth):
        if not all(isinstance(v, list) for v in entries):
            raise SpecError("%r must be lists nested %d deep" % (key, depth))
        entries = [x for v in entries for x in v]
    for x in entries:
        if not (isinstance(x, int) and not isinstance(x, bool)
                or nullable and x is None):
            raise SpecError("integer expected in %r, got %r" % (key, x))
    return value


def _check_morphism_count(count):
    if count > MAX_MORPHISMS:
        raise SpecError("groupoid spec declares %d morphisms, more than "
                        "the %d taken" % (count, MAX_MORPHISMS))


def groupoid_from_spec(spec):
    """Build a groupoid from its JSON form (kinds: group, pair, union,
    explicit).  A spec that declares more than MAX_MORPHISMS morphisms is a
    SpecError: a union's parts are counted as they are built, and every
    other kind before anything is built."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SpecError("groupoid spec must be an object with a 'kind'")
    kind = spec["kind"]
    try:
        if kind in ("group", "explicit"):
            listed = spec["table" if kind == "group" else "morphisms"]
            if isinstance(listed, list):
                _check_morphism_count(len(listed))
        if kind == "group":
            return make_group(_spec_ints(spec, "table", 2, nullable=False))
        if kind == "pair":
            n = _spec_ints(spec, "objects", 0, nullable=False)
            _check_morphism_count(n * n)
            return make_pair_groupoid(n)
        if kind == "union":
            parts, total = [], 0
            for p in spec["parts"]:
                parts.append(groupoid_from_spec(p))
                total += parts[-1].morphism_count
                _check_morphism_count(total)
            if not parts:
                raise SpecError("union of zero groupoids")
            out = parts[0]
            for p in parts[1:]:
                out = disjoint_union(out, p)
            return out
        if kind == "explicit":
            return Groupoid(
                _spec_ints(spec, "objects", 0, nullable=False),
                _spec_ints(spec, "morphisms", 2, nullable=False),
                _spec_ints(spec, "identities", 1, nullable=False),
                _spec_ints(spec, "compose", 2, nullable=True),
                _spec_ints(spec, "inverses", 1, nullable=False), spec=spec)
    except GroupoidError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SpecError("bad groupoid spec: %s" % exc) from exc
    raise SpecError("unknown groupoid kind %r" % kind)
