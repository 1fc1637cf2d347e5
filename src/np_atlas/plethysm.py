"""Closed-form decompositions of wedge powers of wedge-square and sym-square.

The constituents of the j-th wedge of the wedge square are the shapes
(mu_1 - 1..mu_r - 1 | mu_1..mu_r) in Frobenius coordinates, one for each
strict partition mu of j, each with multiplicity one; the sym-square family
consists of their conjugates.  The strict partitions of j with r parts are
built straight from the partitions lambda of j - r(r+1)/2 with at most r
parts, padded with zeros to r: mu_i = lambda_i + r + 1 - i.
"""

from __future__ import annotations

from functools import lru_cache

from .partitions import check_int, conjugate, pad
from .schur import partitions_of


@lru_cache(maxsize=None)
def _wedge_of_wedge2_all(j: int) -> tuple[tuple[int, ...], ...]:
    shapes = []
    r = least = 0  # least = r(r+1)/2, the size of the least strict partition with r parts
    while least <= j:
        for lam in partitions_of(j - least, max_length=r):
            # mu_i = lambda_i + r - i from i = 0.  Row i < r holds i cells left
            # of the diagonal, the diagonal cell and its arm of mu_i - 1, so
            # mu_i + i = lambda_i + r cells; each row i from r to mu_0 holds one
            # cell of each column t whose leg of mu_t cells reaches it, that is
            # with mu_t + t >= i
            rows = [x + r for x in pad(lam, r)]
            below = range(r, rows[0] + 1) if rows else ()
            shapes.append(tuple(rows) + tuple(sum(row >= i for row in rows) for i in below))
        r += 1
        least += r
    return tuple(sorted(shapes))


@lru_cache(maxsize=None)
def _wedge_of_sym2_all(j: int) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(map(conjugate, _wedge_of_wedge2_all(j))))


def wedge_of_wedge2(j: int, n: int) -> list[tuple[int, ...]]:
    """Schur constituents of the j-th wedge power of wedge^2 of an n-space.

    All constituents are multiplicity-free.  Length filtering happens last so
    the n-independent list is cached across callers.
    """
    check_int("j", j, 0)
    check_int("n", n, 0)
    return [s for s in _wedge_of_wedge2_all(j) if len(s) <= n]


def wedge_of_sym2(j: int, n: int) -> list[tuple[int, ...]]:
    """Schur constituents of the j-th wedge power of the symmetric square."""
    check_int("j", j, 0)
    check_int("n", n, 0)
    return [s for s in _wedge_of_sym2_all(j) if len(s) <= n]
