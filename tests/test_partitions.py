import random
import time
from math import comb, isqrt

import pytest
from hypothesis import example, given, strategies as st

from np_atlas import partitions
from np_atlas.partitions import (
    conjugate,
    format_partition,
    normalize,
    pad,
    weyl_dimension,
)
from np_atlas.schur import partitions_of, schur_character

partition_st = st.lists(st.integers(0, 8), max_size=6).map(
    lambda xs: normalize(sorted(xs, reverse=True))
)


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((2, 2)) == (2, 2)
    # column j holds one cell of each row longer than j
    for n in range(11):
        for p in partitions_of(n):
            columns = range(p[0] if p else 0)
            assert conjugate(p) == tuple(sum(1 for row in p if row > j) for j in columns), p


@given(partition_st)
def test_conjugate_involutive(p):
    assert conjugate(conjugate(p)) == p


def test_normalize_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize((1, 2))
    with pytest.raises(ValueError):
        normalize((2, -1))
    # the bound message names the smallest entry
    with pytest.raises(ValueError, match="^partition entry must be >= 0, got -3$"):
        normalize((0, -1, -3))
    assert normalize((2, 0, 0)) == (2,)


def test_normalize_rejects_non_int_entries():
    for parts in [(1.9,), (True, 0.5), (2, 1.0), ("1",)]:
        with pytest.raises(ValueError, match="partition entry must be an int"):
            normalize(parts)


def test_weyl_dimension_examples():
    for d in range(6):
        assert weyl_dimension((d, 0), 2) == d + 1
    assert weyl_dimension((0, 0, 0), 3) == 1
    assert weyl_dimension((2, 1, 1, 0), 4) == 15
    # dense shifted entries: at n >= 256 a difference occurs 256 times or more
    for n in (24, 255, 256, 300):
        assert weyl_dimension((7,) * n, n) == 1
        assert weyl_dimension((5,) + (0,) * (n - 1), n) == comb(n + 4, 5)  # Sym^5


def test_weyl_dimension_rejects_non_int_entries():
    for w in [(1.9, 0), (True, 0)]:
        with pytest.raises(ValueError, match="weight entry must be an int"):
            weyl_dimension(w, 2)


def test_weyl_dimension_length_mismatch():
    with pytest.raises(ValueError):
        weyl_dimension((1, 0), 3)


def test_weyl_dimension_rejects_an_increasing_weight():
    with pytest.raises(ValueError, match=r"weight not weakly decreasing: \(0, 1\)"):
        weyl_dimension((0, 1), 2)


def test_weyl_dimension_counts_tableaux():
    # independent oracle: number of semistandard fillings with entries <= n
    shapes = [()]
    for w in range(1, 7):
        shapes.extend(partitions_of(w))
    for lam in shapes:
        for n in range(1, 5):
            if len(lam) > n:
                continue
            count = sum(schur_character(lam, n).values())
            assert weyl_dimension(pad(lam, n), n) == count


@given(partition_st, st.integers(-3, 3))
def test_weyl_dimension_determinant_twist(p, c):
    n = max(len(p), 1)
    w = pad(p, n)
    assert weyl_dimension(w, n) == weyl_dimension(tuple(x + c for x in w), n)


def _weyl_dimension_pairwise(w, n):
    """Reference: one pairwise factor at a time, numerator and denominator."""
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= w[i] - w[j] + j - i
            den *= j - i
    assert num % den == 0
    return num // den


def _distinct_dominant_weight(n, rng):
    """A weakly decreasing weight whose shifted entries w_i - i are distinct.

    The draws are those of perfbench's non-vanishing blocked weights
    (`workloads.bbw_weight`), sorted into the dominant weight whose
    dimension bbw_cohomology computes."""
    blocks = rng.randint(2, 4)
    rng.sample(range(1, n), blocks - 1)  # block cuts: keep the draw sequence
    shifted = rng.sample(range(-n, 2 * n), n)
    return tuple(x + i + 1 for i, x in enumerate(sorted(shifted, reverse=True)))


def test_weyl_dimension_matches_pairwise_on_benchmark_weights():
    for n in range(4, 65, 4):
        for variant in range(80):
            w = _distinct_dominant_weight(n, random.Random(f"bbw-large:{n}:{variant}"))
            assert weyl_dimension(w, n) == _weyl_dimension_pairwise(w, n)


@st.composite
def weight_entries(draw):
    """n either side of the histogram path's crossover at n = 8, and spans
    of the shifted entries either side of its limit of one unit per pair."""
    n = draw(st.integers(0, 64))
    bound = draw(st.sampled_from((30, 1000, 10**6)))
    return draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n))


@given(weight_entries())
@example([])
def test_weyl_dimension_matches_pairwise(entries):
    w = tuple(sorted(entries, reverse=True))
    assert weyl_dimension(w, len(w)) == _weyl_dimension_pairwise(w, len(w))


def test_weyl_dimension_matches_pairwise_large():
    # n = 300 counts differences in two-byte slots
    rng = random.Random(7)
    for n in (100, 200, 300):
        w = _distinct_dominant_weight(n, rng)
        assert weyl_dimension(w, n) == _weyl_dimension_pairwise(w, n)


def _smallest_factor(d):
    """Trial division: the least prime factor of d >= 2."""
    return next((p for p in range(2, isqrt(d) + 1) if d % p == 0), d)


def test_prime_tables_grow_in_steps():
    for size in (64, 1024, 8192):
        composites, primes = partitions._factor_tables(size)
        assert composites == sorted(composites) and primes == sorted(primes)
        assert sorted([d for d, _, _ in composites] + primes) == list(range(2, size))
        for d, p, q in composites:
            assert p == _smallest_factor(d) < d and q == d // p
        assert all(_smallest_factor(q) == q for q in primes)
    # n = 40 on the histogram path at shifted spans 139, 739 and 139: the larger
    # span builds the larger table, of size 1024 after 256, and the repeated
    # span builds none; the cache is rebuilt on demand, so clearing it is safe
    partitions._factor_tables.cache_clear()
    rng = random.Random(11)
    misses = []
    for top in (100, 700, 100):
        w = tuple(sorted(rng.sample(range(1, top), 38) + [top, 0], reverse=True))
        assert weyl_dimension(w, 40) == _weyl_dimension_pairwise(w, 40)
        misses.append(partitions._factor_tables.cache_info().misses)
    assert misses == [1, 2, 2]
    for size in (256, 1024):
        partitions._factor_tables(size)
    assert partitions._factor_tables.cache_info().misses == 2


def wide_span_weight(n):
    """(10**12, n - 2, ..., 1, 0): a span far above the n(n-1)/2 pairs."""
    return (10**12,) + tuple(range(n - 2, -1, -1))


def test_weyl_dimension_wide_span_is_fast():
    # a difference histogram over 10**12 byte slots would not fit in memory
    n = 64
    w = wide_span_weight(n)
    start = time.perf_counter()
    dim = weyl_dimension(w, n)
    assert time.perf_counter() - start < 0.25
    assert dim == _weyl_dimension_pairwise(w, n)


def test_format_partition():
    assert format_partition((3, 1)) == "[3,1]"
    assert format_partition(()) == "[]"
