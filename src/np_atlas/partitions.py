"""Partitions, Frobenius coordinates, and GL(n) dominant-weight dimensions.

Partitions are plain tuples of weakly decreasing non-negative integers in
canonical form (no trailing zeros).  Dominant weights are weakly decreasing
integer tuples of explicit length; negative entries are allowed so that dual
bundles and canonical twists can be handled uniformly.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple


class FrobeniusForm(NamedTuple):
    """Diagonal-hook coordinates (arms | legs) of a partition."""

    arms: tuple[int, ...]
    legs: tuple[int, ...]


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


def rank(p: tuple[int, ...]) -> int:
    """Length of the diagonal of the Young diagram."""
    p = normalize(p)
    r = 0
    while r < len(p) and p[r] >= r + 1:
        r += 1
    return r


def frobenius(p: tuple[int, ...]) -> FrobeniusForm:
    """Frobenius coordinates: arm_i = p_i - i, leg_i = conj(p)_i - i (1-based)."""
    p = normalize(p)
    c = conjugate(p)
    r = rank(p)
    arms = tuple(p[i] - i - 1 for i in range(r))
    legs = tuple(c[i] - i - 1 for i in range(r))
    return FrobeniusForm(arms, legs)


def from_frobenius(f: FrobeniusForm) -> tuple[int, ...]:
    """Rebuild a partition from its diagonal hooks; inverse of frobenius()."""
    arms, legs = tuple(f.arms), tuple(f.legs)
    if len(arms) != len(legs):
        raise ValueError("arm and leg sequences must have equal length")
    for seq in (arms, legs):
        if any(a <= b for a, b in zip(seq, seq[1:])) or any(x < 0 for x in seq):
            raise ValueError(f"Frobenius coordinates must be strictly decreasing and >= 0: {f}")
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

    w is a weakly decreasing integer tuple of length exactly n.  Exact
    big-integer arithmetic; invariant under adding a constant to all entries.
    """
    w = tuple(check_int("weight entry", x) for x in w)
    if len(w) != n:
        raise ValueError(f"weight {w} has length {len(w)}, expected {n}")
    for a, b in zip(w, w[1:]):
        if a < b:
            raise ValueError(f"weight not weakly decreasing: {w}")
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= w[i] - w[j] + j - i
            den *= j - i
    assert num % den == 0
    return num // den


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse the bracket syntax, e.g. "[3,1]"; the empty partition is "[]"."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"expected bracketed partition, got {text!r}")
    body = s[1:-1].strip()
    if not body:
        return ()
    try:
        parts = [int(tok) for tok in body.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad partition entry in {text!r}: {exc}") from None
    return normalize(parts)


def format_partition(p: tuple[int, ...]) -> str:
    return "[" + ",".join(str(x) for x in p) + "]"
