"""Split and regular analysis for graded morphisms.

Everything reduces to exact linear algebra grade by grade: a morphism is
split mono iff every block has full column rank, split epi iff full row
rank, and every morphism is regular because its image factorization splits
on both sides.  The finders build explicit witnesses, by solving for them,
so callers can re-verify the defining equations instead of trusting a
boolean.
"""

from .errors import ConsistencyError
from .exactlin import Matrix, solve_right
from .gvec import GradedMorphism, compose, image_factorization

__all__ = ["find_retraction", "find_section", "weak_inverse"]


def find_retraction(f):
    """r with r (after) f == id on the source, or None.

    Canonical: per grade the solve_right solution of B^T R^T = I, free
    variables zero.
    """
    blocks = {}
    for g, m in f.source.mult.items():
        b = f.block(g)
        if b is None:
            return None
        y = solve_right(b.transpose(), Matrix.identity(m))
        if y is None:
            return None
        blocks[g] = y.transpose()
    return GradedMorphism._of(f.target, f.source, blocks)


def find_section(f):
    """s with f (after) s == id on the target, or None."""
    blocks = {}
    for g, m in f.target.mult.items():
        b = f.block(g)
        if b is None:
            return None
        x = solve_right(b, Matrix.identity(m))
        if x is None:
            return None
        blocks[g] = x
    return GradedMorphism._of(f.target, f.source, blocks)


def _split_image(f):
    """(psi, phi, s, r): the image factorization f = phi psi, a section s
    of the epi psi and a retraction r of the mono phi.  Both splittings
    exist in every hom space here; failure would contradict
    semisimplicity.  Weak inverses and (co)unit idempotents compose them."""
    psi, phi = image_factorization(f)
    s = find_section(psi)
    r = find_retraction(phi)
    if s is None or r is None:
        raise ConsistencyError(
            "image factorization of a morphism failed to split")
    return psi, phi, s, r


def weak_inverse(f):
    """g with f g f == f and g f g == g: s r, split as in _split_image."""
    _, _, s, r = _split_image(f)
    return compose(s, r)
