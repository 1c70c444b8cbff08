"""Shared test helpers."""

import os

from hypothesis import strategies as st

import fusionaudit
from fusionaudit.groupoid import (
    Groupoid, disjoint_union, make_group, make_pair_groupoid)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fusionaudit.__file__)))


def cli_env():
    """Environment for a ``python -m fusionaudit`` child process: PYTHONPATH
    starts with the absolute src directory, so the child imports this
    checkout's package from any working directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


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


@st.composite
def _small_groupoids(draw):
    """Unions of up to three cyclic groups of order <= 3, or a pair
    groupoid on <= 3 objects with its morphisms enumerated in a random
    order."""
    if draw(st.booleans()):
        cat = _cyclic(draw(st.integers(1, 3)))
        for _ in range(draw(st.integers(0, 2))):
            cat = disjoint_union(cat, _cyclic(draw(st.integers(1, 3))))
        return cat
    cat = make_pair_groupoid(draw(st.integers(1, 3)))
    return _relabelled(cat, draw(st.permutations(range(cat.morphism_count))))
