"""Partitions, Frobenius coordinates, and GL(n) dominant-weight dimensions.

Partitions are plain tuples of weakly decreasing non-negative integers in
canonical form (no trailing zeros).  Dominant weights are weakly decreasing
integer tuples of explicit length; negative entries are allowed so that dual
bundles and canonical twists can be handled uniformly.
"""

from __future__ import annotations

from math import factorial, prod
from typing import Iterable


def check_int(name: str, value: int) -> int:
    """value itself, once its type is exactly int: bools and floats are refused."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    return value


def normalize(parts: Iterable[int]) -> tuple[int, ...]:
    """Canonicalize a weakly decreasing sequence by stripping trailing zeros.

    Every entry must be exactly an int: floats and bools are refused rather
    than truncated.
    """
    p = tuple(parts)
    if any(type(x) is not int for x in p):
        raise ValueError(f"partition entries must be ints: {p}")
    for a, b in zip(p, p[1:]):
        if a < b:
            raise ValueError(f"not weakly decreasing: {p}")
    if p and p[-1] < 0:
        raise ValueError(f"negative part in partition: {p}")
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def weight(p: tuple[int, ...]) -> int:
    return sum(p)


def pad(p: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Pad with zeros to explicit ambient length n."""
    if len(p) > n:
        raise ValueError(f"partition {p} longer than ambient length {n}")
    return p + (0,) * (n - len(p))


def contains(outer: tuple[int, ...], inner: tuple[int, ...]) -> bool:
    """Diagram containment: inner fits inside outer."""
    if len(inner) > len(outer):
        return False
    return all(o >= i for o, i in zip(outer, inner))


def conjugate(p: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose the Young diagram."""
    p = normalize(p)
    if not p:
        return ()
    return tuple(sum(1 for row in p if row > j) for j in range(p[0]))


def from_frobenius(arms: tuple[int, ...], legs: tuple[int, ...]) -> tuple[int, ...]:
    """The partition with Frobenius coordinates (arms | legs).

    Row i of the diagonal block has arms[i] + i + 1 cells and column i has
    legs[i] + i + 1, for 0-based i; both sequences strictly decrease to >= 0.
    """
    arms, legs = tuple(arms), tuple(legs)
    if len(arms) != len(legs):
        raise ValueError("arm and leg sequences must have equal length")
    for seq in (arms, legs):
        if any(a <= b for a, b in zip(seq, seq[1:])) or any(x < 0 for x in seq):
            raise ValueError(
                f"Frobenius coordinates must be strictly decreasing and >= 0: {arms} | {legs}")
    r = len(arms)
    nrows = (legs[0] + 1) if r else 0
    rows = []
    for i in range(nrows):
        if i < r:
            rows.append(arms[i] + i + 1)
        else:
            # below the diagonal block: cell (i, j) sits on hook j iff legs[j] + j >= i
            rows.append(sum(1 for j in range(r) if legs[j] + j >= i))
    return normalize(rows)


def weyl_dimension(w: tuple[int, ...], n: int) -> int:
    """Dimension of the irreducible GL(n) representation of highest weight w.

    w is a weakly decreasing integer tuple of length exactly n.  With
    l_i = w_i - i the dimension is prod_{i<j} (l_i - l_j) / prod_{k<n} k!:
    one product per row, then one exact big-integer division.  Invariant
    under adding a constant to all entries.
    """
    w = tuple(check_int("weight entry", x) for x in w)
    if len(w) != check_int("n", n):
        raise ValueError(f"weight {w} has length {len(w)}, expected {n}")
    for a, b in zip(w, w[1:]):
        if a < b:
            raise ValueError(f"weight not weakly decreasing: {w}")
    l = [x - i for i, x in enumerate(w)]
    num = prod([prod([li - lj for lj in l[i + 1:]]) for i, li in enumerate(l)])
    dim, rem = divmod(num, prod(map(factorial, range(1, n))))
    assert rem == 0
    return dim


def format_partition(p: tuple[int, ...]) -> str:
    return "[" + ",".join(str(x) for x in p) + "]"
