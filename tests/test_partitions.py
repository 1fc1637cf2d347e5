import pytest
from hypothesis import given, strategies as st

from np_atlas.partitions import (
    FrobeniusForm,
    conjugate,
    format_partition,
    frobenius,
    from_frobenius,
    normalize,
    pad,
    parse_partition,
    rank,
    weyl_dimension,
)
from np_atlas.schur import schur_character

partition_st = st.lists(st.integers(0, 8), max_size=6).map(
    lambda xs: normalize(sorted(xs, reverse=True))
)


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((2, 2)) == (2, 2)


@given(partition_st)
def test_conjugate_involutive(p):
    assert conjugate(conjugate(p)) == p


def test_frobenius_examples():
    assert frobenius((2, 1, 1)) == FrobeniusForm((1,), (2,))
    assert frobenius((3, 1)) == FrobeniusForm((2,), (1,))
    assert frobenius((2, 2, 2)) == FrobeniusForm((1, 0), (2, 1))


@given(partition_st)
def test_frobenius_roundtrip(p):
    f = frobenius(p)
    assert from_frobenius(f) == p
    assert len(f.arms) == rank(p)


def test_rank_examples():
    assert rank((2, 1, 1)) == 1
    assert rank((2, 2)) == 2
    assert rank(()) == 0


def test_normalize_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize((1, 2))
    with pytest.raises(ValueError):
        normalize((2, -1))
    assert normalize((2, 0, 0)) == (2,)


def test_normalize_rejects_non_int_entries():
    for parts in [(1.9,), (True, 0.5), (2, 1.0), ("1",)]:
        with pytest.raises(ValueError, match="partition entries must be ints"):
            normalize(parts)


def test_weyl_dimension_examples():
    for d in range(6):
        assert weyl_dimension((d, 0), 2) == d + 1
    assert weyl_dimension((0, 0, 0), 3) == 1
    assert weyl_dimension((2, 1, 1, 0), 4) == 15


def test_weyl_dimension_rejects_non_int_entries():
    for w in [(1.9, 0), (True, 0)]:
        with pytest.raises(ValueError, match="weight entry must be an int"):
            weyl_dimension(w, 2)


def test_weyl_dimension_length_mismatch():
    with pytest.raises(ValueError):
        weyl_dimension((1, 0), 3)


def test_weyl_dimension_counts_tableaux():
    # independent oracle: number of semistandard fillings with entries <= n
    from np_atlas.schur import partitions_of

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


def test_parse_and_format():
    assert parse_partition("[3,1]") == (3, 1)
    assert parse_partition("[]") == ()
    assert format_partition((3, 1)) == "[3,1]"
    with pytest.raises(ValueError):
        parse_partition("3,1")
    with pytest.raises(ValueError):
        parse_partition("[a]")
