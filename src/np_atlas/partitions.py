"""Partitions, their conjugates, and GL(n) dominant-weight dimensions.

Partitions are plain tuples of weakly decreasing non-negative integers in
canonical form (no trailing zeros).  Dominant weights are weakly decreasing
integer tuples of explicit length; negative entries are allowed so that dual
bundles and canonical twists can be handled uniformly.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from math import factorial, isqrt, prod
from operator import ge, lt
from typing import Iterable


def check_int(name: str, value: int, least: int | None = None) -> int:
    """value itself, once its type is exactly int: bools and floats are refused.

    With least given, a value below it is refused too, with the one message
    every lower bound in the library reads: "{name} must be >= {least}, got
    {value}".
    """
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def check_type(name: str, value, kind: type):
    """value itself, once it is an instance of kind: a record argument is
    refused before any of its fields is read, so a lookalike never passes."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
    return value


def check_ints(name: str, values: Iterable[int], least: int | None = None) -> tuple[int, ...]:
    """values as a tuple, once it is a sequence of entries of type exactly int.

    With least given, an entry below it is refused with check_int's bound
    message, which names the smallest entry.  One plain loop, with
    check_int's message for a bad entry: this runs on every query, where a
    generator per call costs more than the check.
    """
    try:
        values = tuple(values)
    except TypeError:
        raise ValueError(f"{name} values must come as a sequence, got {values!r}") from None
    for value in values:
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")
    if least is not None and values and min(values) < least:
        check_int(name, min(values), least)  # raises the bound message
    return values


def normalize(parts: Iterable[int]) -> tuple[int, ...]:
    """Canonicalize a weakly decreasing sequence by stripping trailing zeros.

    Every entry must be exactly an int of at least 0: floats and bools are
    refused rather than truncated, and a negative entry with check_ints'
    bound message.
    """
    p = check_ints("partition entry", parts, 0)
    if any(map(lt, p, p[1:])):
        raise ValueError(f"not weakly decreasing: {p}")
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def pad(p: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Pad with zeros to explicit ambient length n."""
    if len(p) > n:
        raise ValueError(f"partition {p} longer than ambient length {n}")
    return p + (0,) * (n - len(p))


def contains(outer: tuple[int, ...], inner: tuple[int, ...]) -> bool:
    """Diagram containment: inner fits inside outer."""
    return len(inner) <= len(outer) and all(map(ge, outer, inner))


def conjugate(p: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose the Young diagram."""
    return _conjugate(normalize(p))


def _conjugate(p: tuple[int, ...]) -> tuple[int, ...]:
    """conjugate of a normalized partition, without normalize's checks.

    The p[r - 1] - p[r] columns that end in row r (1-based) have r cells, and
    the columns come in order of decreasing r.
    """
    cols: list[int] = []
    below = 0  # p[r], the length of the row under row r
    for r in range(len(p), 0, -1):
        cols += [r] * (p[r - 1] - below)
        below = p[r - 1]
    return tuple(cols)


def weyl_dimension(w: tuple[int, ...], n: int) -> int:
    """Dimension of the irreducible GL(n) representation of highest weight w.

    w is a weakly decreasing integer tuple of length exactly n.  With
    l_i = w_i - i the dimension is prod_{i<j} (l_i - l_j) / prod_{k<n} k!,
    computed exactly by `_shifted_dimension`.  Invariant under adding a
    constant to all entries.
    """
    w = check_ints("weight entry", w)
    if len(w) != check_int("n", n):
        raise ValueError(f"weight {w} has length {len(w)}, expected {n}")
    if any(map(lt, w, w[1:])):
        raise ValueError(f"weight not weakly decreasing: {w}")
    return _shifted_dimension([x - i for i, x in enumerate(w)])


# Where the difference histogram beats the per-row products, timed with
# timeit (CPython 3.11.7, x86-64, 2-CPU VM).  On the benchmark's weights, whose
# span l_0 - l_{n-1} is about 3n, the two paths tie at n = 7 and the histogram
# is 1.1x faster at n = 10, 2.4x at n = 32 and about 80x at n = 300.  The
# histogram's time and bytes grow with the span: at a span of one unit per
# pair of indices the paths tie at n = 8 and again near n = 40, the histogram
# is 1.2-1.4x slower in between, and 5x faster at n = 200.  A wider span keeps
# the per-row products, so that a weight like (10**12, ..., 0) stays cheap.
_HISTOGRAM_MIN_N = 8
_HISTOGRAM_SPAN_PER_PAIR = 1

# The primes and composites below size, shared by every call and not to be
# mutated: the composites as ascending (d, p, d // p) with p the smallest prime
# factor of d.  Sizes are powers of two, so the tables kept add up to less than
# twice the largest.
@lru_cache(maxsize=None)
def _factor_tables(size: int) -> tuple[list[tuple[int, int, int]], list[int]]:
    spf = [0] * size
    # a smaller p overwrites a larger one, so the least divisor stays
    for p in range(isqrt(size - 1), 1, -1):
        spf[p * p::p] = [p] * len(range(p * p, size, p))
    composites = [(d, p, d // p) for d, p in enumerate(spf) if p]
    primes = [d for d, p in enumerate(spf) if not p and d > 1]
    return composites, primes


def _halving_product(xs: list[int]) -> int:
    """Product of xs, halved until at most 8 factors are left for math.prod.

    Each half is multiplied apart, so the big operands grow together.
    """
    if len(xs) <= 8:
        return prod(xs)
    mid = len(xs) // 2
    return _halving_product(xs[:mid]) * _halving_product(xs[mid:])


def _shifted_dimension(l: list[int]) -> int:
    """prod_{i<j} (l_i - l_j) / prod_{k<n} k! for a strictly decreasing l.

    Small n, or a span l_0 - l_{n-1} far above the n(n-1)/2 pairs, takes one
    product per row and one exact division.  Otherwise the differences are
    counted in one big-integer multiply: with a 1 in byte slot l_i - l_{n-1}
    of an int A and of its byte mirror B, slot span + d of A * B holds the
    number of pairs at difference d.  The denominator is prod_{d<n} d^(n-d),
    so its counts are subtracted, each d is split into primes with a
    shared table of composites, and the prime powers are multiplied back.
    """
    n = len(l)
    span = l[0] - l[-1] if l else 0
    if n < _HISTOGRAM_MIN_N or span > _HISTOGRAM_SPAN_PER_PAIR * n * (n - 1) // 2:
        num = prod([prod([li - lj for lj in l[i + 1:]]) for i, li in enumerate(l)])
        dim, rem = divmod(num, prod(map(factorial, range(1, n))))
        assert rem == 0
        return dim
    width = (n.bit_length() + 7) // 8  # bytes per slot; slot 0 counts all n pairs (i, i)
    slots = bytearray(width * (span + 1))
    for x in l:
        slots[width * (x - l[-1])] = 1
    # read big-endian, slots is the mirror shifted up by width - 1 bytes, so
    # difference d starts at byte width * d past len(slots) - 1
    product = int.from_bytes(slots, "little") * int.from_bytes(slots, "big")
    counts = product.to_bytes(2 * len(slots), "little")[len(slots) - 1:]
    exps = list(counts[0::width])
    for byte in range(1, width):
        exps = [e + (c << 8 * byte) for e, c in zip(exps, counts[byte::width])]
    for d in range(1, n):
        exps[d] -= n - d
    composites, primes = _factor_tables(1 << span.bit_length())  # a size above span
    # pass each composite's exponent on to its factors, largest first; (span + 1,)
    # sorts before every triple of span + 1, so the slice ends at span
    for d, p, q in reversed(composites[:bisect_right(composites, (span + 1,))]):
        if exps[d]:
            exps[p] += exps[d]
            exps[q] += exps[d]
    powers = []
    for q in primes[:bisect_right(primes, span)]:
        if exps[q]:
            assert exps[q] > 0
            powers.append(pow(q, exps[q]))
    return _halving_product(powers)


def format_partition(p: tuple[int, ...]) -> str:
    return "[" + ",".join(str(x) for x in p) + "]"
