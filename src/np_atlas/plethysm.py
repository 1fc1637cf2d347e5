"""Closed-form decompositions of wedge powers of wedge-square and sym-square.

The two families are enumerated directly in Frobenius coordinates: the
constituents of the j-th wedge of the wedge square are exactly the weight-2j
shapes (m_1..m_r | m_1+1..m_r+1) with strictly decreasing arms, and the
sym-square family consists of their conjugates.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .partitions import _from_frobenius, check_int, conjugate


def _strict_arm_sequences(j: int) -> Iterator[tuple[int, ...]]:
    """Strictly decreasing arm tuples (m_1 > ... > m_r >= 0) with sum(m_i + 1) = j."""

    def rec(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining - 1), -1, -1):
            for rest in rec(remaining - first - 1, first - 1):
                yield (first,) + rest

    yield from rec(j, j)


@lru_cache(maxsize=None)
def _wedge_of_wedge2_all(j: int) -> tuple[tuple[int, ...], ...]:
    if j == 0:
        return ((),)
    shapes = []
    for arms in _strict_arm_sequences(j):
        legs = tuple(m + 1 for m in arms)
        shapes.append(_from_frobenius(arms, legs))
    return tuple(sorted(shapes))


@lru_cache(maxsize=None)
def _wedge_of_sym2_all(j: int) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(map(conjugate, _wedge_of_wedge2_all(j))))


def _check_degree(j: int, n: int) -> None:
    if check_int("j", j) < 0:
        raise ValueError("j must be non-negative")
    if check_int("n", n) < 0:
        raise ValueError("n must be non-negative")


def wedge_of_wedge2(j: int, n: int) -> list[tuple[int, ...]]:
    """Schur constituents of the j-th wedge power of wedge^2 of an n-space.

    All constituents are multiplicity-free.  Length filtering happens last so
    the n-independent list is cached across callers.
    """
    _check_degree(j, n)
    return [s for s in _wedge_of_wedge2_all(j) if len(s) <= n]


def wedge_of_sym2(j: int, n: int) -> list[tuple[int, ...]]:
    """Schur constituents of the j-th wedge power of the symmetric square."""
    _check_degree(j, n)
    return [s for s in _wedge_of_sym2_all(j) if len(s) <= n]
