"""Shared test helpers, and the hypothesis settings profiles.

Tier-1 runs the "tier1" profile: every property test draws the same
examples on every run (derandomize, seeded from the test itself) and
replays nothing from the example database, so a green run stays green
and a red one reproduces.  ``HYPOTHESIS_PROFILE=sweep python -m pytest``
draws fresh random examples on each run instead, as many per test as its
``@settings(max_examples=...)`` names, and keeps failures in the example
database; repeat it for depth.  A counterexample a sweep finds becomes an
``@example`` or a deterministic test, so that Tier-1 keeps it.
"""

import itertools
import os
import random
import sys

import pytest
from hypothesis import settings
from hypothesis import strategies as st

import fusionaudit
from fusionaudit.corpus import _below
from fusionaudit.groupoid import (
    Groupoid, disjoint_union, make_group, make_pair_groupoid)
from fusionaudit.gvec import graded_object

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("sweep", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fusionaudit.__file__)))


def cli_env():
    """Environment for a ``python -m fusionaudit`` child process: PYTHONPATH
    starts with the absolute src directory, so the child imports this
    checkout's package from any working directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


class LayoutCalls(list):
    """The (v, w) of every gvec._tensor_layout call made since the
    layout_calls fixture went in (or since the list was last cleared).
    While refusal holds an exception, each call is counted and then
    raises it instead of laying out."""

    refusal = None


@pytest.fixture
def layout_calls(monkeypatch):
    """A LayoutCalls list that counts, and on demand refuses, the slot
    enumerations of gvec._tensor_layout, which the general tensor_mor
    path and the first layout read of a lazy product make."""
    from fusionaudit import gvec
    calls = LayoutCalls()
    original = gvec._tensor_layout

    def counted(v, w):
        calls.append((v, w))
        if calls.refusal is not None:
            raise calls.refusal
        return original(v, w)

    monkeypatch.setattr(gvec, "_tensor_layout", counted)
    return calls


# The fixtures the census reports on: one with a simple unit, one without,
# so every condition fails with a witness on the second.
CENSUS_FIXTURES = ("vec_z2", "pair2")


@pytest.fixture(scope="session")
def census():
    """The code objects of every Python function that runs while a CLI's
    three reports are built in-process: every fixture spec parsed, as the
    CLI parses its --category file, and on CENSUS_FIXTURES an audit at the
    defaults with its rendered summary, the gr report, and check-algebra
    on every audit witness's algebra and on kG (+) kG.  Calls are seen
    through sys.setprofile.  One run serves the trace table's reached
    flags and the public-API census."""
    from fusionaudit.audit import (
        check_algebra_report, gr_report, render_report, run_audit)
    from fusionaudit.fixtures import FIXTURE_NAMES, fixture_spec
    from fusionaudit.groupoid import groupoid_from_spec
    specs = {name: fixture_spec(name) for name in FIXTURE_NAMES}
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        cats = {name: groupoid_from_spec(spec)
                for name, spec in specs.items()}
        for name in CENSUS_FIXTURES:
            cat = cats[name]
            report = run_audit(cat)
            render_report(report)
            gr_report(cat)
            kg = {"gen": "groupoid_algebra",
                  "objects": list(range(cat.object_count))}
            docs = [{"gen": "sum", "parts": [kg, kg]}]
            for cond in report["conditions"].values():
                w = cond["witness"]
                if w and w["kind"] in ("algebra", "coalgebra"):
                    docs.append(w["spec"] if w["kind"] == "algebra"
                                else w["dual_of"])
            for doc in docs:
                check_algebra_report(cat, doc)
    finally:
        sys.setprofile(previous)
    return frozenset(called)


# Generator specs of pair2 algebras whose integer fields are not JSON
# integers; a bare int() coerced each of them into a valid algebra.
COERCED_GENERATOR_SPECS = (
    {"gen": "unit_summand", "i": 1.7},
    {"gen": "unit_summand", "i": "1"},
    {"gen": "unit_summand", "i": True},
    {"gen": "unit_summand", "object": 1.7},
    {"gen": "groupoid_algebra", "objects": [True, 1.2]},
    {"gen": "internal_end", "object": {"mult": {"0": 1.9}}},
)


def dense_constants(r):
    """Test-side dense expansion of a BasedRingData: c[i][j][k] is the
    coefficient of b_k in b_i b_j, zeros included.  The oracle the sparse
    storage is checked against."""
    n = r.rank
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, x in r.entries():
        c[i][j][k] = x
    return c


def dense_entries(c):
    """The non-zero (i, j, k, c[i][j][k]) entries of a dense rank^3 array,
    in the form BasedRingData takes."""
    return [(i, j, k, x) for i, plane in enumerate(c)
            for j, row in enumerate(plane) for k, x in enumerate(row) if x]


def symmetric_group_spec(n, seed):
    """Group spec of the symmetric group on 0..n-1.  Its elements are the
    permutations, the identity first as make_group needs, the rest in an
    order drawn from seed; entry [p][q] is "p then q"."""
    perms = sorted(itertools.permutations(range(n)))
    rest = perms[1:]
    random.Random(seed).shuffle(rest)
    perms = perms[:1] + rest
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(q[p[x]] for x in range(n))] for q in perms]
             for p in perms]
    return {"kind": "group", "table": table}


def random_object_or_zero(cat, rng, max_total):
    """An atomic object of total multiplicity 0 to max_total, the zero
    object included: its total is _below(rng, max_total + 1), and its
    grades are drawn one per unit, as corpus.random_object draws them."""
    mult = {}
    for _ in range(_below(rng, max_total + 1)):
        g = _below(rng, cat.morphism_count)
        mult[g] = mult.get(g, 0) + 1
    return graded_object(cat, mult)


def _relabelled(cat, perm):
    """cat with morphism g renamed perm[g]: the same groupoid, enumerated
    in another order."""
    m = cat.morphism_count
    inv = [0] * m
    for g, p in enumerate(perm):
        inv[p] = g
    table = [[None if cat.compose_table[inv[a]][inv[b]] is None
              else perm[cat.compose_table[inv[a]][inv[b]]]
              for b in range(m)] for a in range(m)]
    return Groupoid(cat.object_count,
                    [cat.morphisms[inv[p]] for p in range(m)],
                    [perm[e] for e in cat.identity_of], table,
                    [perm[cat.inverse_of[inv[p]]] for p in range(m)])


def _cyclic(n):
    return make_group([[(i + j) % n for j in range(n)] for i in range(n)])


def _product(a, b):
    """The product groupoid a x b, with object (i, j) numbered
    i * b.object_count + j and morphism (g, k) numbered
    g * b.morphism_count + k, composed factor by factor."""
    nb, mb = b.object_count, b.morphism_count
    ta, tb = a.compose_table, b.compose_table
    pairs = [(g, k) for g in range(a.morphism_count) for k in range(mb)]
    table = [[None if ta[g][h] is None or tb[k][l] is None
              else ta[g][h] * mb + tb[k][l] for h, l in pairs]
             for g, k in pairs]
    return Groupoid(
        a.object_count * nb,
        [(sa * nb + sb, xa * nb + xb) for sa, xa in a.morphisms
         for sb, xb in b.morphisms],
        [a.identity_of[i] * mb + b.identity_of[j]
         for i in range(a.object_count) for j in range(nb)],
        table, [a.inverse_of[g] * mb + b.inverse_of[k] for g, k in pairs])


@st.composite
def _small_groupoids(draw):
    """Unions of up to three cyclic groups of order <= 3, a pair groupoid
    on <= 3 objects, or a product pair(n) x Z_k with 2 <= n, k <= 3, the
    last two with their morphisms enumerated in a random order."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        cat = _cyclic(draw(st.integers(1, 3)))
        for _ in range(draw(st.integers(0, 2))):
            cat = disjoint_union(cat, _cyclic(draw(st.integers(1, 3))))
        return cat
    if kind == 1:
        cat = make_pair_groupoid(draw(st.integers(1, 3)))
    else:
        cat = _product(make_pair_groupoid(draw(st.integers(2, 3))),
                       _cyclic(draw(st.integers(2, 3))))
    return _relabelled(cat, draw(st.permutations(range(cat.morphism_count))))
